"""Per-layer metrics from a trace written by ``tracer.Tracer.save``.

A span's self time is its duration minus that of its direct children.
Span names are the binding that was called, ``<caller>.<name>``; each
span also carries the layer of the function it wraps.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PER_LAYER", "layer_metrics"]

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "normal_math.quantile_s": "s",
    "normal_math.quantile_ns_per_value": "ns",
    "normal_math.quantile_values": "count",
    "normal_math.quantile_peak_call_mb": "MB",
    "normal_math.scalar_calls_per_row": "count",
    "normal_math.scalar_us_per_call": "us",
    "simulate.campaign_s": "s",
    "simulate.self_s": "s",
    "simulate.generate_trial_us": "us",
    "simulate.fit_ancova_us": "us",
    "simulate.fit_unadjusted_us": "us",
    "simulate.t_critical_ms": "ms",
    "power_engine.reference_ms": "ms",
    "simulate.reps_completed_frac": "ratio",
    "power_engine.self_s": "s",
    "power_engine.curve_rows_per_s": "1/s",
    "cli.build_parser_ms": "ms",
    "cli.self_ms": "ms",
    "ancova_power.import_s": "s",
}

_BYTES_PER_VALUE = 8  # float64
_MB = 2.0 ** 20


def _mean(x) -> float:
    return float(np.mean(x)) if len(x) else 0.0


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(trace_path, items: int, reps_requested: int, reps_completed: int,
                  curve_rows: int, probes: dict, import_s: float) -> dict:
    """``items``: replications or output rows of the run's operations."""
    with np.load(trace_path) as t:
        names, layers = list(t["names"]), t["layers"]
        name, parent, size, ndim = t["name"], t["parent"], t["size"], t["ndim"]
        dur = (t["end"] - t["start"]).astype(float)
    nested = parent >= 0
    self_ns = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    layer = layers[name] if len(name) else np.array([], dtype=str)
    span_names = np.array(names)[name] if len(name) else np.array([], dtype=str)

    def spans(n: str):
        return span_names == n

    campaigns, commands = spans("simulate.run_campaign"), spans("cli.main")
    n_campaigns, n_ops = int(campaigns.sum()), int(campaigns.sum() + commands.sum())
    quantile = spans("simulate.std_normal_quantile")
    scalar = (layer == "normal_math") & (ndim == 0)
    reference = (layer == "power_engine") & np.char.startswith(span_names, "simulate.")
    curves = spans("cli.pe.ratio_report")

    values = {
        "normal_math.quantile_s": _per(dur[quantile].sum() / 1e9, n_ops),
        "normal_math.quantile_ns_per_value": _per(dur[quantile].sum(), int(size[quantile].sum())),
        "normal_math.quantile_values": _per(float(size[quantile].sum()), reps_requested),
        "normal_math.quantile_peak_call_mb":
            float(size[quantile].max()) * _BYTES_PER_VALUE / _MB if quantile.any() else 0.0,
        "normal_math.scalar_calls_per_row": _per(float(scalar.sum()), items),
        "normal_math.scalar_us_per_call": _mean(dur[scalar]) / 1e3,
        "simulate.campaign_s": _mean(dur[campaigns]) / 1e9,
        "simulate.self_s": _mean(self_ns[campaigns]) / 1e9,
        "simulate.generate_trial_us": probes["generate_trial_us"],
        "simulate.fit_ancova_us": probes["fit_ancova_us"],
        "simulate.fit_unadjusted_us": probes["fit_unadjusted_us"],
        "simulate.t_critical_ms":
            _per(dur[spans("simulate.student_t_critical")].sum() / 1e6, n_campaigns),
        "power_engine.reference_ms": _per(dur[reference].sum() / 1e6, n_campaigns),
        # no replications requested: none lost
        "simulate.reps_completed_frac": _per(reps_completed, reps_requested) if reps_requested else 1.0,
        "power_engine.self_s": _per(self_ns[layer == "power_engine"].sum() / 1e9, n_ops),
        "power_engine.curve_rows_per_s": _per(curve_rows, dur[curves].sum() / 1e9),
        "cli.build_parser_ms": _mean(dur[spans("cli.build_parser")]) / 1e6,
        "cli.self_ms": _mean(self_ns[commands]) / 1e6,
        "ancova_power.import_s": import_s,
    }
    return {k: {"value": float(values[k]), "unit": unit} for k, unit in PER_LAYER.items()}

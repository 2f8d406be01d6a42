"""The measuring process: runs one workload against the package in ``src``.

Imports only the package, numpy (through the package) and the
benchmark's own workload and tracer modules; the checker and scipy stay
in the parent process, so set-up time and peak memory are the program's.

Writes JSON lines to stdout: one ``ready`` record when the first
operation is ready, one ``op`` record per operation, and one ``end``
record. With ``--setup-only`` it stops after ``ready``.

    python3 perfbench/child.py --workload sim-anchor --seed 1 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")

PROBE_CALLS = 300


def _import_package():
    """Import ancova_power from the checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, _SRC)
    t0 = time.perf_counter()
    import ancova_power
    from ancova_power import cli, normal_math, power_engine, simulate
    import_s = time.perf_counter() - t0
    package_dir = os.path.join(_SRC, "ancova_power")
    if os.path.dirname(os.path.abspath(ancova_power.__file__)) != package_dir:
        raise ImportError(f"ancova_power was imported from {ancova_power.__file__}, "
                          f"not from {package_dir}")
    layers = dict(normal_math=normal_math, power_engine=power_engine,
                  simulate=simulate, cli=cli)
    return layers, import_s


def _emit(stream, kind: str, **fields) -> None:
    stream.write(json.dumps(dict(kind=kind, **fields)) + "\n")


def _run_cli(main, argv):
    """One command in-process; a nonzero exit status is a failed operation."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        t0 = time.perf_counter_ns()
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        t1 = time.perf_counter_ns()
    record = dict(argv=argv, out=stdout.getvalue())
    if rc != 0:
        record["error"] = f"exit status {rc}: {stderr.getvalue().strip()}"
    return record, t1 - t0


def _run_sim(run_campaign, config):
    t0 = time.perf_counter_ns()
    result = run_campaign(config)
    t1 = time.perf_counter_ns()
    return dict(result=asdict(result)), t1 - t0


def _probe_us(fn, *args) -> float:
    """Median wall time of one call, in microseconds."""
    times = []
    for _ in range(PROBE_CALLS):
        t0 = time.perf_counter_ns()
        fn(*args)
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / 1e3


def _single_trial_probes(simulate, n_subjects: int) -> dict:
    """Public single-trial calls at the workload's N."""
    if not n_subjects:
        return dict(generate_trial_us=0.0, fit_ancova_us=0.0, fit_unadjusted_us=0.0)
    from workloads import ANCHOR_TAU, campaign_spec
    config = simulate.SimConfig(**campaign_spec(n_subjects, ANCHOR_TAU, True, 1, 12345))
    trial = simulate.generate_trial(config, 0)
    return dict(generate_trial_us=_probe_us(simulate.generate_trial, config, 0),
                fit_ancova_us=_probe_us(simulate.fit_ancova, trial),
                fit_unadjusted_us=_probe_us(simulate.fit_unadjusted, trial))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    out = sys.stdout
    layers, import_s = _import_package()
    from workloads import WORKLOADS, cli_argv
    workload = WORKLOADS[args.workload]
    simulate, cli = layers["simulate"], layers["cli"]

    if workload.kind == "sim":
        def run(spec):
            return _run_sim(simulate.run_campaign, simulate.SimConfig(**spec))
        op_name, op_layer = "simulate.run_campaign", "simulate"
    else:
        def run(spec):
            return _run_cli(cli.main, cli_argv(spec))
        op_name, op_layer = "cli.main", "cli"

    def call(spec):
        # an operation that raises is counted as failed; the run goes on
        try:
            return run(spec)
        except Exception:
            return dict(error=traceback.format_exc()), 0

    cycles = (workload.cycle(args.seed, k) for k in range(sys.maxsize))
    first_cycle = next(cycles)
    for spec in workload.warmup:
        call(spec)
    _emit(out, "ready", t=time.perf_counter(), import_s=import_s)
    out.flush()
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(layers)
        tracer.install()

    index = 0
    done = 0
    t_loop = time.perf_counter()
    cycle = first_cycle
    while True:
        for spec in cycle:
            if tracer is None:
                record, ns = call(spec)
            else:
                record, ns = tracer.operation(index, op_name, op_layer, call, spec)
            _emit(out, "op", index=index, spec=spec, ns=ns, **record)
            index += 1
        done += 1
        elapsed = time.perf_counter() - t_loop
        if elapsed + elapsed / done > args.seconds:
            break
        cycle = next(cycles)

    loop_s = time.perf_counter() - t_loop
    probes = {}
    if tracer is not None:
        tracer.save(args.trace_file)
        probes = _single_trial_probes(simulate, workload.n_subjects)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _emit(out, "end", cycles=done, loop_s=loop_s, peak_rss_kb=peak_kb, probes=probes)
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

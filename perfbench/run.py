"""Benchmark of ancova_power: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload sim-anchor --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
The program runs in a child process (``child.py``) that never imports
scipy or this checker. This process waits for it, then checks every
operation against ``oracle`` and prints, as the last line of stdout,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
traced run (``--trace 1``). Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUPS = 7  # fresh interpreters per run, the measuring one included
TAIL_BEYOND = 10  # samples above the reported tail percentile
TAIL_MIN_OPS = 40  # fewer operations than this: the tail is the median
SETUP_TIMEOUT_S = 60
END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "op_ms_p50": "ms",
                    "op_ms_tail": "ms", "peak_rss_mb": "MB"}


def _child(args, *extra) -> tuple:
    """Run child.py; return (set-up seconds, import seconds, records).
    Set-up runs from before the interpreter starts until the child
    reports that its first operation is ready."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    timeout = SETUP_TIMEOUT_S if "--setup-only" in extra else args.seconds + 120
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"child exited with status {proc.returncode}")
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    ready = records[0]
    if ready["kind"] != "ready":
        raise SystemExit(f"child did not report ready: {ready}")
    return ready["t"] - t0, ready["import_s"], records[1:]


def _tail(values: list) -> float:
    """The highest percentile with TAIL_BEYOND samples above it."""
    if len(values) < TAIL_MIN_OPS:
        return statistics.median(values)
    return sorted(values)[-TAIL_BEYOND - 1]


def _check_ops(kind: str, ops: list) -> tuple:
    """(items per op, problems): every op checked against the oracle."""
    import checks  # scipy is imported only after the program has finished

    items, problems = [], []
    for op in ops:
        if "error" in op:
            items.append(0)
        elif kind == "sim":
            items.append(op["result"]["n_reps_completed"])
            problems += [f"op {op['index']}: {p}" for p in checks.check_campaign(op["spec"], op["result"])]
        else:
            n, found = checks.check_command(op["spec"], op["out"])
            items.append(n)
            problems += [f"op {op['index']} {op['argv']}: {p}" for p in found]
    if kind == "sim":
        problems += _check_sim_run(checks, [op for op in ops if "error" not in op])
    return items, problems


def _check_sim_run(checks, ops: list) -> list:
    """Adjusted/unadjusted pairs and, per design, all campaigns pooled."""
    problems = []
    for adj, unadj in zip(ops, ops[1:]):
        a, u = adj["spec"], unadj["spec"]
        if a["adjust"] and not u["adjust"] and a["tau"] == u["tau"] != 0.0:
            problems += [f"ops {adj['index']}/{unadj['index']}: {p}"
                         for p in checks.check_ratio(a, adj["result"], u, unadj["result"])]
    designs = {}
    for op in ops:
        spec = op["spec"]
        designs.setdefault((spec["tau"], spec["adjust"]), (spec, []))[1].append(op["result"])
    for spec, results in designs.values():
        problems += checks.check_pooled(spec, results)
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if not (ROOT / "src" / "ancova_power" / "__init__.py").is_file():
        raise SystemExit(f"no package source at {ROOT / 'src' / 'ancova_power'}")
    kind = WORKLOADS[args.workload].kind

    setups = [_child(args, "--setup-only")[:2] for _ in range(SETUPS - 1)]
    trace_file = OUT / f"trace-{args.workload}-{args.seed}.npz"
    extra = ()
    if args.trace:
        OUT.mkdir(exist_ok=True)
        extra = ("--trace-file", str(trace_file))
    setup_s, import_s, records = _child(args, *extra)
    setups.append((setup_s, import_s))
    ops = [r for r in records if r["kind"] == "op"]
    end = records[-1]
    if end["kind"] != "end" or not ops:
        raise SystemExit("child ended without a complete run")

    items, problems = _check_ops(kind, ops)
    ok = [(op, n) for op, n in zip(ops, items) if "error" not in op]
    failed = len(ops) - len(ok)
    for op in ops:
        if "error" in op:
            print(f"failed op {op['index']} {op['spec']}: {op['error']}", file=sys.stderr)
    for p in problems:
        print(f"check: {p}", file=sys.stderr)

    op_ms = [op["ns"] / 1e6 for op, _ in ok]
    n_items = sum(n for _, n in ok)
    items_per_s = n_items / (sum(op_ms) / 1e3) if op_ms else 0.0
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops in {end['cycles']} cycles, "
          f"{end['loop_s']:.1f} s, {n_items} items, {items_per_s:.6g} items/s"
          f"{' (traced)' if args.trace else ''}, {len(problems)} check problems",
          file=sys.stderr)

    if args.trace:
        from layer_metrics import layer_metrics
        reps_requested = sum(op["spec"]["n_reps"] for op in ops) if kind == "sim" else 0
        curve_rows = sum(n for op, n in ok if kind == "cli" and op["spec"]["command"] == "curve")
        metrics = layer_metrics(
            trace_file, items=n_items, reps_requested=reps_requested,
            reps_completed=n_items if kind == "sim" else 0, curve_rows=curve_rows,
            probes=end["probes"], import_s=statistics.median(i for _, i in setups))
    else:
        values = {
            "setup_s": statistics.median(s for s, _ in setups),
            "items_per_s": items_per_s,
            "op_ms_p50": statistics.median(op_ms) if op_ms else 0.0,
            "op_ms_tail": _tail(op_ms) if op_ms else 0.0,
            "peak_rss_mb": end["peak_rss_kb"] / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    print(json.dumps({"correct": not problems, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

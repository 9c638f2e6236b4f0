"""Benchmark entry point: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cube-5k --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` runs the same workload through the layers' public
functions inside spans and reports the per-layer metrics.  The metric
names and units are read from ``BENCHMARK.json``.  Earlier lines of
standard output hold the full report (host fingerprint and ceilings,
every timing as median plus tail percentile with its sample count, the
base of ``speedup_vs_direct``); the last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Environment switches that would move the library off its defaults
#: (plan cache warm starts, fault injection, worker counts).
_LIBRARY_ENV = ("REPRO_PLAN_CACHE", "REPRO_INJECT_FAULTS", "REPRO_NUM_WORKERS", "REPRO_M2L_CROSSOVER")

#: How each derived number was obtained.
LABELS = {
    "perf.m2l_gflop_model": "model: sum over box pairs of (p+1)^4 flops, from stats.interactions_by_degree",
    "perf.m2l_gflops": "computed: model flops / perf.far_s (which also covers L2L and L2P)",
    "perf.m2l_ceiling_frac": "computed: perf.m2l_gflops / host.dgemm_gflops",
    "perf.near_mpairs_per_s": "computed: counted near pairs / perf.near_s",
    "perf.near_ceiling_frac": "computed: perf.near_mpairs_per_s / host.p2p_ref_mpairs_per_s",
    "speedup_vs_direct": "computed: sampled direct rate scaled to the operation's pairs / op_s",
}


def tail(values: list) -> dict:
    """Median plus the highest of p99.9/p99/p90/p75/p50 that has at
    least ten samples beyond it, with the sample count."""
    out = {"median": statistics.median(values), "n": len(values), "tail": None}
    for per_mille in (999, 990, 900, 750, 500):
        if len(values) * (1000 - per_mille) >= 10 * 1000:
            qs = statistics.quantiles(values, n=1000, method="inclusive")
            out["tail"] = {"p": per_mille / 10, "value": qs[per_mille - 1]}
            break
    return out


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for var in _LIBRARY_ENV:
        os.environ.pop(var, None)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import host
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    run = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer, args.scale)
    ceil = host.ceilings()
    op_med = statistics.median(run.op_s)
    speedup = run.direct["op_direct_s"] / op_med

    if args.trace:
        values = dict(run.layers)
        values.update(ceil)
        values["direct.oracle_s"] = run.direct["oracle_s"]
        values["direct.mpairs_per_s"] = run.direct["mpairs_per_s"]
        values["speedup_vs_direct"] = speedup
        values["trace.overhead_ratio"] = statistics.median(run.traced_op_s) / op_med
        values["perf.m2l_ceiling_frac"] = values.get("perf.m2l_gflops", 0.0) / ceil["host.dgemm_gflops"]
        values["perf.near_ceiling_frac"] = (
            values.get("perf.near_mpairs_per_s", 0.0) / ceil["host.p2p_ref_mpairs_per_s"]
        )
        names = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(run.setup_s),
            "op_s": op_med,
            "rel_err": statistics.median(run.rel_err),
            "peak_rss_mb": run.peak_rss_mb,
            "ok_frac": (run.attempted - run.failed) / run.attempted,
        }
        names = spec["end_to_end"]
    # a layer not on this workload's path did no work: its metrics read 0
    values = {k: v.item() if hasattr(v, "item") else v for k, v in values.items()}
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in names}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "host": host.fingerprint(ROOT),
        "ceilings": ceil,
        "timings": {"setup_s": tail(run.setup_s), "op_s": tail(run.op_s)},
        "speedup_vs_direct": {"value": speedup, **run.direct},
        "labels": LABELS,
        "errors": run.errors[:10],
    }
    if tracer is not None:
        report["timings"]["traced_op_s"] = tail(run.traced_op_s)
        trace_path = ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_path)
        report["trace_file"] = str(trace_path.relative_to(ROOT))
        report["bitwise"] = run.bitwise
    print(json.dumps({"report": report}))
    correct = run.failed == 0 and run.bitwise is not False
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

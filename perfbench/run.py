"""dereverb benchmark: one workload per process, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 45 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` alternates
untraced and traced cycles, and prints the per-layer table instead,
writing the spans to ``.bench_out/``.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  Workloads, metrics and
their bounds are listed in ``BENCHMARK.json`` at the root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

# BLAS is pinned to one thread before numpy loads: the model's matrices are
# small enough that fan-out costs more than it saves, and the runs must not
# compete for the machine's cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="train-desk, enhance-desk or paper-b1")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def metadata(seed):
    import numpy as np

    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        blob = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + blob)
        lines += blob.count(b"\n")
    return {
        "commit": _commit(),
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS",
                                                        "OPENBLAS_NUM_THREADS",
                                                        "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _print_table(rows, header):
    print(header)
    for name, value, unit in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<52} {shown:>14} {unit}")


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "dereverb" / "__init__.py").is_file():
        print(f"error: no dereverb sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    rec, trec = result["rec"], result["trec"]
    failures = rec.failures + trec.failures
    attempted = rec.attempted + trec.attempted
    print("meta " + json.dumps(metadata(args.seed), sort_keys=True))
    print("samples " + json.dumps({"cycles": result["cycles"], **result["notes"],
                                   "setup_s": [s for s, _ in result["setups"]]}))
    for line in failures:
        print(f"FAILED {line}")
    if args.trace:
        tracer = result["tracer"]
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-s{args.seed}.json"
        table = tracing.self_time_table(tracer, result["cycles"])
        spans = tracer.spans
        with open(trace_path, "w") as fh:
            json.dump(
                {
                    "workload": args.workload,
                    "cycles": result["cycles"],
                    "span_fields": ["name", "start_s", "end_s", "parent", "ident"],
                    "spans": [[n, s - tracer.t0, e - tracer.t0, p, i]
                              for n, s, e, p, i in spans],
                    "self_time_table": table,
                },
                fh,
            )
        print(f"spans: {len(spans)} written to {trace_path.relative_to(ROOT)}")
        print(f"{'span (per cycle)':<40} {'calls':>9} {'incl ms':>11} {'self ms':>11}")
        for name, calls, incl, own in table[:25]:
            print(f"{name:<40} {calls / result['cycles']:9.0f} {incl:11.2f} {own:11.2f}")
        for label, e2e in (("untraced", result["end_to_end"]),
                           ("traced", result["traced_end_to_end"])):
            print(f"{label} step/clip medians: " + json.dumps(
                {k: e2e[k] for k in e2e if k.startswith(("step_ms_p50", "clip_ms_p50"))}))
        per_layer = result["per_layer"]
        _print_table([(k, v, u) for k, (v, u) in per_layer.items()], "per-layer metrics")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
    else:
        e2e, raw = result["end_to_end"], result["raw_end_to_end"]
        units = workloads.END_TO_END_UNITS
        _print_table([(k, raw[k], units[k]) for k in units], "raw end-to-end metrics")
        _print_table([(k, e2e[k], units[k]) for k in units],
                     "end-to-end metrics, scaled to the reference speed")
        metrics = {k: {"value": e2e[k], "unit": units[k]} for k in units}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

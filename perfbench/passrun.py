"""One pass of one workload in a fresh interpreter.

    python3 perfbench/passrun.py WORKLOAD SEED MODE [--check] [--spans PATH] [--limit N]

MODE is `setup` (set-up only), `plain` (no instrumentation),
`traced` (spans around every layer boundary) or `counted` (Ball kernel
counts).  --limit keeps only the first N operations (for the benchmark's
own tests).  Prints one JSON object on its last stdout line.  run.py starts
one of these per pass, so every pass begins with empty module caches.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import hostspeed
import workloads
from spans import KernelCounter, Tracer

ROOT = Path(__file__).resolve().parent.parent
MODES = ("setup", "plain", "traced", "counted")


def latency_metrics(seconds: list[float], wall_s: float, suffix: str) -> dict:
    ms = [s * 1000 for s in seconds]
    return {
        f"wall{suffix}_s": wall_s,
        f"op_p50{suffix}_ms": statistics.median(ms),
        f"op_p90{suffix}_ms": statistics.quantiles(ms, n=10)[-1],
    }


def fail(msg: str) -> int:
    print(f"passrun: {msg}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(workloads.PREC_BITS))
    ap.add_argument("seed", type=int)
    ap.add_argument("mode", choices=MODES)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--limit", type=int)
    args = ap.parse_args(argv)

    if "THETAVAL_PREC_BITS" in os.environ:
        return fail("THETAVAL_PREC_BITS is set; it would change the workload precision")
    if any(m == "thetaval" or m.startswith("thetaval.") for m in sys.modules):
        return fail("thetaval was imported before set-up; caches may not be empty")

    sys.path.insert(0, str(ROOT / "src"))
    hostspeed.slowdowns(False)  # warm-up
    slow_before, _ = hostspeed.slowdowns(False)  # set-up is interpreter work
    t0 = time.perf_counter()
    import thetaval.cli  # noqa: F401  (imports every layer)
    from thetaval.exact import build_catalog

    catalog = build_catalog()
    spec = workloads.generate(args.workload, args.seed)
    job = workloads.prepare(args.workload, spec, catalog)
    if args.limit:
        job.ops = job.ops[: args.limit]
    setup_raw_s = time.perf_counter() - t0
    setup_s = setup_raw_s * 2 / (slow_before + hostspeed.slowdowns(False)[0])
    if Path(thetaval.__file__).resolve().parent != ROOT / "src" / "thetaval":
        return fail(f"imported thetaval from {thetaval.__file__}, not from {ROOT / 'src'}")

    out = {"setup_s": setup_s, "setup_raw_s": setup_raw_s, "mode": args.mode}
    if args.mode != "setup":
        tool = {"traced": Tracer, "counted": KernelCounter}.get(args.mode)
        tool = tool() if tool else None
        if tool:
            tool.install()
        try:
            result = job.run()
        finally:
            if tool:
                tool.uninstall()
        out.update(
            ops=len(result["latencies"]),
            op_errors=len(result["errors"]),
            errors=result["errors"][:5],
            warm_s=result["warm_scaled_s"],
            warm_raw_s=result["warm_s"],
            **latency_metrics(result["scaled"], result["scaled_wall_s"], ""),
            **latency_metrics(result["latencies"], result["wall_s"], "_raw"),
            digests=checks.digests(args.workload, result),
        )
        if args.mode == "traced":
            out["layers"] = tool.layer_table()
            out["span_count"] = len(tool.spans)
            out["span_root_s"] = tool.root_seconds()
            if args.spans:
                tool.write_spans(args.spans)
        elif args.mode == "counted":
            out["kernel"] = tool.table()
        if args.check:
            out["check"] = checks.check(args.workload, job, result)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""thetaval benchmark: three seeded, closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, in turn

Workloads (see BENCHMARK.json for why each was chosen):

  catalog_4096  verify_identity on all 19 catalog entries at 4096 bits,
                cold, then one warm pass in the same process.
  theta_2048    phi/psi/f_neg/chi on QPoint(+-1, r) nomes, r log-uniform
                in [1/1000, 64], plus theta_f(a, b) on rational pairs and
                calls that repeat an earlier (function, nome) pair.
  cli_512       in-process `thetaval` command lines at the default
                precision: one-point sweeps, eval expressions, `complete`.

Each pass runs in a fresh interpreter (perfbench/passrun.py), so module
caches start empty; a single caller issues each operation after the
previous one returned.  Passes repeat while the next one should end
within --seconds (at least MIN_PASSES of them) and every metric is the
median over passes; set-up time is the median over every interpreter the
run started.  Times are reported at the host's fast-phase speed (see
hostspeed.py) and, as `*_raw_*`, as measured.  The first pass's outputs
are checked outside the timed section, and every later pass must
reproduce them exactly: `attempted` counts the operations of one pass,
`failed` those whose checked output failed or that gave another output
in any pass, so both depend on the seed only.  With --trace 1 the run
alternates untraced and traced passes (spans around each layer boundary)
for --seconds, makes one kernel-count pass, and reports the per-layer
table (medians over traced passes) instead of the end-to-end metrics.

The last stdout line is {"correct", "attempted", "failed", "metrics"};
the lines above it, and perfbench/results/, hold the full report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import PREC_BITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 6  # set-up-only interpreters per run, besides each pass's own set-up
MIN_PASSES = 2  # untraced passes per run, however long --seconds is
RUN_BUDGET_S = 170  # every run ends well inside the 180 s allowed

END_TO_END = {  # name -> (unit, reported on); times scaled to the host's fast-phase speed
    "setup_s": ("s", None),
    "wall_s": ("s", None),
    "op_p50_ms": ("ms", None),
    "op_p90_ms": ("ms", ("theta_2048", "cli_512")),
    "warm_s": ("s", ("catalog_4096",)),
    "peak_rss_mb": ("MB", None),
}
RAW = ("setup_s", "wall_s", "op_p50_ms", "op_p90_ms", "warm_s")  # also reported as measured


def raw(name: str) -> str:
    stem, unit = name.rsplit("_", 1)
    return f"{stem}_raw_{unit}"


class PassError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool, env: dict, deadline: float):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.env, self.deadline = env, deadline

    def child(self, mode: str, check: bool = False, spans: Path | None = None) -> dict:
        cmd = [sys.executable, str(HERE / "passrun.py"), self.workload, str(self.seed), mode]
        if check:
            cmd.append("--check")
        if spans:
            cmd += ["--spans", str(spans)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise PassError("run budget exhausted")
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            raise PassError(f"{mode} pass exceeded the run budget") from None
        if proc.returncode != 0:
            raise PassError(f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise PassError(f"{mode} pass printed no result: {proc.stdout[-500:]}") from None

    def run(self) -> dict:
        self.child("setup")  # writes bytecode caches; not measured
        setups = [self.child("setup") for _ in range(SETUP_PROBES)]
        spans = RESULTS / f"{self.workload}-seed{self.seed}-spans.json"
        start = time.monotonic()
        plain = [self.child("plain", check=True)]
        traced = [self.child("traced", spans=spans)] if self.trace else []
        # a traced run alternates untraced and traced passes, for the overhead;
        # another round starts only if it should end within --seconds
        while len(plain) < (1 if self.trace else MIN_PASSES) or (
            (time.monotonic() - start) * (len(plain) + 1) / len(plain) <= self.seconds
        ):
            plain.append(self.child("plain"))
            if self.trace:
                traced.append(self.child("traced", spans=spans))
        counted = [self.child("counted")] if self.trace else []
        return summarize(setups, plain, traced, counted)


def summarize(setups: list, plain: list, traced: list, counted: list) -> dict:
    med = statistics.median
    check = plain[0]["check"]
    ref = plain[0]["digests"]
    passes = plain + traced + counted
    # every pass repeats the checked pass's operations; an operation fails
    # if its checked output fails or any pass gives it another output
    diverged = {i for p in passes for i, d in enumerate(p["digests"]) if d != ref[i]}
    failed_ops = diverged | set(check["failed_ops"])
    e2e = {}
    for name in END_TO_END:
        for key in (name, raw(name)) if name in RAW else (name,):
            runs = setups + passes if name == "setup_s" else plain
            e2e[key] = med(p[key] for p in runs) if runs[0][key] is not None else None
    layers = {}
    if traced:
        first = traced[0]["layers"]  # counts repeat exactly; times take the median
        layers = {k: v if isinstance(v, int) else med(p["layers"][k] for p in traced) for k, v in first.items()}
        layers.update(counted[0]["kernel"])
        # both at the host's fast-phase speed, like the untraced wall_s
        layers["trace.wall_s"] = med(p["wall_s"] for p in traced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - e2e["wall_s"]
        layers["trace.span_root_s"] = med(p["span_root_s"] for p in traced)
        layers["trace.spans"] = traced[0]["span_count"]
    return {
        "correct": check["unsound"] == 0 and not diverged,
        "attempted": len(ref),
        "failed": len(failed_ops),
        "fail_ratio": len(failed_ops) / len(ref),
        "min_digits": check["min_digits"],
        "failures": check["failures"] + [f"operation {i} gave another output in a later pass" for i in sorted(diverged)],
        "unsound": check["unsound"],
        "passes": {"setup": len(setups), "plain": len(plain), "traced": len(traced), "counted": len(counted)},
        "ops_per_pass": plain[0]["ops"],
        "pass_wall_s": [p["wall_s"] for p in plain],
        "end_to_end": e2e,
        "per_layer": layers,
        "pass_errors": plain[0]["errors"],
    }


def stamp(workload: str, env_cleared: bool) -> dict:
    commit = "unknown"  # a checkout without .git has no commit to report
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "prec_bits": PREC_BITS[workload],
        "THETAVAL_PREC_BITS": "cleared" if env_cleared else "unset",
        "fresh_interpreter_per_pass": True,
    }


def report(workload: str, seed: int, trace: bool, st: dict, res: dict) -> list[str]:
    e2e, n = res["end_to_end"], res["passes"]
    lines = [
        f"thetaval benchmark  workload={workload}  seed={seed}  trace={int(trace)}",
        "stamp: " + "  ".join(f"{k}={v}" for k, v in st.items()),
        f"passes: {n['plain']} plain, {n['traced']} traced, {n['counted']} counted, "
        f"{res['ops_per_pass']} ops each; {n['setup']} extra set-ups",
    ]
    lines.append("end-to-end (medians; times at the host's fast-phase speed, raw ones as measured):")
    for name, (unit, only) in END_TO_END.items():
        if only is None or workload in only:
            line = f"  {name:<14} {e2e[name]:>14.6f} {unit}"
            if name in RAW:
                line += f"   raw {e2e[raw(name)]:.6f} {unit}"
            lines.append(line)
    lines.append(f"  {'fail_ratio':<14} {res['fail_ratio']:>14.6f}    {res['failed']} failed of {res['attempted']} attempted")
    lines.append(f"  {'min_digits':<14} {res['min_digits']!s:>14} digits")
    lines.append(f"  correct={res['correct']}  unsound outputs={res['unsound']}")
    for f in res["failures"][:10]:
        lines.append(f"  failed: {f}")
    if res["per_layer"]:
        lines.append(
            "per-layer (traced passes; self time = span minus child spans, as measured;"
            " trace.wall_s and trace.overhead_s at the host's fast-phase speed):"
        )
        for key in sorted(res["per_layer"]):
            value = res["per_layer"][key]
            lines.append(f"  {key:<36} {value:>18.6f}" if isinstance(value, float) else f"  {key:<36} {value:>11}")
    return lines


def run_one(workload: str, seed: int, seconds: int, trace: bool, env: dict, env_cleared: bool, deadline: float):
    res = Runner(workload, seed, seconds, trace, env, deadline).run()
    st = stamp(workload, env_cleared)
    for line in report(workload, seed, trace, st, res):
        print(line)
    out = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps({"workload": workload, "seed": seed, "stamp": st, **res}, indent=1))
    print(f"report: {out.relative_to(ROOT)}")
    return res


def metrics_of(res: dict, trace: bool) -> dict:
    """The metrics BENCHMARK.json names: per_layer when traced, else end_to_end."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = res["per_layer"] if trace else res["end_to_end"]
    return {m["name"]: {"value": table[m["name"]], "unit": m["unit"]} for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PREC_BITS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "thetaval" / "__init__.py").is_file():
        print(f"run.py: no thetaval sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    # the variable would silently change cli_512's precision: never pass it on
    env_cleared = env.pop("THETAVAL_PREC_BITS", None) is not None
    if env_cleared:
        print("note: THETAVAL_PREC_BITS was set and is cleared for every pass", file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    names = sorted(PREC_BITS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + RUN_BUDGET_S
            results[name] = run_one(name, args.seed, args.seconds, trace, env, env_cleared, deadline)
    except PassError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = metrics_of(results[names[0]], trace)
    else:
        metrics = {f"{n}.{k}": v for n in names for k, v in metrics_of(results[n], trace).items()}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

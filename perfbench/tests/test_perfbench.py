"""Tests of the benchmark's own machinery: seeded inputs, output checks,
span accounting, kernel counts and the run guards."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
for p in (str(HERE), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS  # noqa: E402


def _passrun(*args, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "passrun.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


def _pass_result(*args) -> dict:
    proc = _passrun(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_same_seed_gives_byte_identical_inputs():
    for name in workloads.PREC_BITS:
        a = json.dumps(workloads.generate(name, 7))
        assert a == json.dumps(workloads.generate(name, 7))
    # also across interpreters, whose string hashing differs
    code = "import json, workloads; print(json.dumps(workloads.generate('cli_512', 7)))"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONHASHSEED": "123"},
    ).stdout.strip()
    assert out == json.dumps(workloads.generate("cli_512", 7))
    assert workloads.generate("theta_2048", 7) != workloads.generate("theta_2048", 8)


def test_theta_inputs_have_the_stated_mix():
    calls = workloads.generate("theta_2048", 3)["calls"]
    kinds = [c[0] for c in calls]
    distinct = len(workloads.THETA_FUNCS) * workloads.THETA_DISTINCT
    assert len(calls) == distinct + workloads.THETA_F + workloads.THETA_REPEATS
    assert kinds.count("theta_f") == workloads.THETA_F
    seen, repeats = set(), 0
    for c in calls:
        key = tuple(c)
        if c[0] != "theta_f" and key in seen:
            repeats += 1
        seen.add(key)
    assert repeats == workloads.THETA_REPEATS
    for c in calls:
        if c[0] == "theta_f":
            assert abs(Fraction(c[1]) * Fraction(c[2])) <= Fraction(9, 10)
        else:
            assert workloads.R_MIN <= Fraction(c[2]) <= workloads.R_MAX


def test_mutated_catalog_entry_counts_as_failed():
    from thetaval.exact import Identity, build_catalog, mutate_first_leaf

    catalog = build_catalog()
    good = catalog.get("r9")
    bad = Identity(good.id + "_mutated", good.lhs, mutate_first_leaf(good.rhs), good.provenance)
    job = workloads.prepare("catalog_4096", {"entries": "all"}, catalog)
    job.ops = [good, bad]
    tally = checks.check("catalog_4096", job, job.run())
    assert tally["attempted"] == 2
    assert tally["failed"] == 1
    assert tally["unsound"] == 1
    assert tally["failures"][0].startswith("r9_mutated:")


def test_shifted_theta_ball_fails_its_oracle():
    from thetaval import qseries
    from thetaval.precision import Ball, PrecCtx

    ctx = PrecCtx(workloads.PREC_BITS["theta_2048"])
    shift = Ball.from_fraction(Fraction(1, 10**6), ctx.bits)
    half = Ball.from_fraction(Fraction(1, 2), ctx.bits)
    cases = [
        ("phi", (qseries.QPoint(1, Fraction(1, 3)),)),
        ("psi", (qseries.QPoint(-1, Fraction(2)),)),
        ("f_neg", (qseries.QPoint(1, Fraction(5)),)),
        ("chi", (qseries.QPoint(-1, Fraction(1, 2)),)),
        ("theta_f", (half, Ball.from_fraction(Fraction(-3, 5), ctx.bits))),
    ]
    for name, args in cases:
        value = getattr(qseries, name)(*args, ctx)
        problems, unsound, digits = checks.theta_problems(name, args, value, ctx)
        assert not problems and digits > 500, (name, problems)
        problems, unsound, _ = checks.theta_problems(name, args, value + shift, ctx)
        assert unsound and problems == ["does not overlap its oracle"], name


def test_cli_checks_flag_exit_codes_digits_and_radii():
    report = json.dumps({"entries": [{"id": "deg3@0.9#eq", "status": "pass", "agreement_digits": 55}]})
    assert checks.cli_problems(["sweep", "deg3", "--grid", "0.9"], (0, report, ""))[0]
    assert checks.cli_problems(["sweep", "septic", "--grid", "0.9"], (1, "", "error: x"))[0]
    excl = json.dumps({"entries": [{"id": "jims@0.5", "status": "fail", "agreement_digits": 0}]})
    assert checks.cli_problems(["sweep", "jims", "--grid", "0.5"], (1, excl, ""))[1]
    assert checks.cli_problems(["eval", "pi"], (0, "value  = 3.1\nradius <= 1e-99\n", ""))[0]
    assert not checks.cli_problems(["eval", "pi"], (0, "value  = 3.1\nradius <= 1e-153\n", ""))[0]


def test_generated_eval_expressions_evaluate():
    job = workloads.prepare("cli_512", workloads.generate("cli_512", 5), None)
    job.ops = [argv for argv in job.ops if argv[0] == "eval"][:40]
    tally = checks.check("cli_512", job, job.run())
    assert tally["failed"] == 0, tally["failures"]


def _fake_pass(digests, check=None):
    times = {k: 1.0 for k in ("setup_s", "wall_s", "op_p50_ms", "op_p90_ms")}
    times.update({run.raw(k): v for k, v in times.items()}, warm_s=None, warm_raw_s=None)
    out = {"mode": "plain", "ops": len(digests), "digests": digests, "peak_rss_mb": 20.0, "errors": [], **times}
    return {**out, "check": check} if check else out


def test_failures_depend_on_the_seed_only():
    check = {"failed_ops": [1], "unsound": 0, "min_digits": 90, "failures": ["op 1: 90 agreement digits"]}
    setups = [{"setup_s": 0.1, "setup_raw_s": 0.1}]
    for n in (2, 5):  # a faster host runs more passes in --seconds
        plain = [_fake_pass(["a", "b", "c"], check)] + [_fake_pass(["a", "b", "c"]) for _ in range(n - 1)]
        res = run.summarize(setups, plain, [], [])
        assert (res["attempted"], res["failed"], res["correct"]) == (3, 1, True)
    plain.append(_fake_pass(["a", "b", "x"]))
    res = run.summarize(setups, plain, [], [])
    assert (res["attempted"], res["failed"], res["correct"]) == (3, 2, False)


def test_kernel_counts_repeat_exactly():
    args = ("theta_2048", "4", "counted", "--limit", "30")
    first, second = _pass_result(*args)["kernel"], _pass_result(*args)["kernel"]
    assert first == second
    assert first["precision.mul.calls"] > 0 and first["precision.div.calls"] > 0


def test_self_times_add_up_to_wall_time(tmp_path):
    args = ("cli_512", "2")
    plain = _pass_result(*args, "plain", "--limit", "60")
    traced = _pass_result(*args, "traced", "--limit", "60", "--spans", str(tmp_path / "s.json"))
    assert plain["digests"] == traced["digests"]
    layers = traced["layers"]
    total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
    assert abs(total - traced["span_root_s"]) < 1e-6
    wall = traced["wall_raw_s"]
    overhead = abs(wall - plain["wall_raw_s"])
    assert 0 <= wall - total <= overhead + 0.05 * wall
    spans = json.loads((tmp_path / "s.json").read_text())["spans"]
    assert len(spans) == traced["span_count"] > 0
    assert all(-1 <= parent < i and start <= end for i, (_, parent, start, end) in enumerate(spans))


def test_precision_variable_is_refused():
    proc = _passrun("cli_512", "1", "setup", env={**os.environ, "THETAVAL_PREC_BITS": "64"})
    assert proc.returncode != 0 and "THETAVAL_PREC_BITS" in proc.stderr


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cli_512", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

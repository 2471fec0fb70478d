"""CLI tests: subcommands, exit codes, report stability, parallel runs."""

import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from thetaval.cli import main


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_single_entry(self, capsys):
        code, out, _ = run(capsys, "verify", "r3", "--prec", "256")
        assert code == 0
        doc = json.loads(out)
        assert doc["prec_bits"] == 256
        assert [e["id"] for e in doc["entries"]] == ["r3"]
        assert doc["entries"][0]["status"] == "verified"
        assert doc["entries"][0]["prec_bits_used"] == 512  # one auto doubling
        assert len(doc["entries"][0]["lhs_mid_decimal"]) >= 50

    def test_unknown_id(self, capsys):
        code, _, err = run(capsys, "verify", "nonexistent_id")
        assert code == 2 and "unknown catalog id" in err

    def test_all_entries(self, capsys):
        code, out, _ = run(capsys, "verify", "--all", "--prec", "256")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["entries"]) == 19
        assert all(e["status"] == "verified" for e in doc["entries"])
        ids = [e["id"] for e in doc["entries"]]
        assert ids == sorted(ids)

    def test_verification_failure_exit_code(self, capsys):
        # 64-bit radii can never reach the 100-digit target: exit 1
        code, out, _ = run(capsys, "verify", "r3", "--prec", "64")
        assert code == 1
        assert json.loads(out)["entries"][0]["status"] == "unverified"

    def test_reports_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "r3", "r5", "--prec", "256", "--out", str(a)]) == 0
        assert main(["verify", "r3", "r5", "--prec", "256", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_parallel_matches_sequential(self, capsys, tmp_path):
        a, b = tmp_path / "seq.json", tmp_path / "par.json"
        args = ["verify", "r3", "r9", "yi_9", "--prec", "256"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--jobs", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_env_var_default(self, capsys, monkeypatch):
        monkeypatch.setenv("THETAVAL_PREC_BITS", "128")
        code, out, _ = run(capsys, "verify", "r3")
        assert json.loads(out)["prec_bits"] == 128

    def test_digits_flag(self, capsys):
        code, out, _ = run(capsys, "verify", "r3", "--digits", "40")
        assert json.loads(out)["prec_bits"] == 134  # ceil(40 * 3.33)

    def test_below_minimum_precision_is_usage_error(self, capsys):
        for flag, value in (("--prec", "32"), ("--prec", "0"), ("--digits", "0"), ("--digits", "-5")):
            code, _, err = run(capsys, "verify", "r3", flag, value)
            assert code == 2 and "usage error" in err, (flag, value)

    def test_bad_env_var_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("THETAVAL_PREC_BITS", "not-a-number")
        code, _, err = run(capsys, "verify", "r3")
        assert code == 2 and "usage error" in err


class TestEval:
    def test_phi_digits(self, capsys):
        code, out, _ = run(capsys, "eval", "phi(qpoint(+1, 1))", "--prec", "256")
        assert code == 0
        assert "1.0864348112133080145753161215102234570702057072452" in out
        assert "radius <= 1e-" in out

    def test_gamma_half_squared_is_pi(self, capsys):
        code, out, _ = run(capsys, "eval", "gamma(1/2)^2", "--prec", "256")
        assert code == 0
        assert out.splitlines()[0].startswith("value  = 3.14159265358979323846")

    def test_negative_qpoint_r(self, capsys):
        code, _, err = run(capsys, "eval", "phi(qpoint(+1, -3))")
        assert code == 2 and "positive rational" in err

    def test_parse_error_position(self, capsys):
        code, _, err = run(capsys, "eval", "2 +* 3")
        assert code == 2 and "position 3" in err

    def test_domain_error_exit_one(self, capsys):
        code, _, err = run(capsys, "eval", "gamma(5/2)")
        assert code == 1 and "evaluation error" in err

    def test_grammar_coverage(self, capsys):
        cases = {
            "psi(qpoint(+1, 4)) - psi(qpoint(+1, 4))": "0",
            "f(0.2, 0.3)": "1.50780756",
            "cospi(1/3)": "0.5000",
            "agm(1, 1)": "1.0000",
            "hyp(1/2)": "1.18034059",
            "h(3, 9)": "0.76642093",
            "hprime(1, 5)": "1.0000",
            "classinv(9)": "1.24544510",
            "chi(qpoint(+1, 1)) * 0 + pi": "3.14159",
            "fneg(0.3)": "0.61264815",
            "(1/4 + 1/4) * 2": "1.0000",
            "2^(1/2) * 2^(1/2)": "2.0000",
            "-(3 - 5)": "2.0000",
        }
        for expr, prefix in cases.items():
            code, out, _ = run(capsys, "eval", expr, "--prec", "128")
            assert code == 0, expr
            value = out.splitlines()[0].split("=", 1)[1].strip()
            assert value.startswith(prefix), (expr, value)

    @pytest.mark.parametrize("expr", ["cospi(1/0)", "gamma(1/0)", "2^(1/0)", "qpoint(+1, 1/0)"])
    def test_constant_division_by_zero_is_parse_error(self, capsys, expr):
        code, _, err = run(capsys, "eval", expr)
        assert code == 2 and "parse error" in err and "(at position " in err

    def test_cospi_uses_the_exact_table(self, capsys):
        code, out, _ = run(capsys, "eval", "cospi(1/2)")
        assert code == 0 and out.splitlines() == ["value  = 0", "radius <= 0"]


# Grammar fuzz.  Every exponent is a single digit and no '^' is nested, so
# no input folds to an unbounded power such as 9^9^9 (see ROADMAP); theta,
# f, hyp, h and classinv arguments are small trees, so no nome comes close
# enough to 1 to make a q-product slow.
_NUMBERS = ["0", "1", "2", "3", "7", "9", "0.5", ".25", "1.5"]
_FUNCTIONS = ["phi", "psi", "fneg", "chi", "f", "gamma", "cospi", "agm", "hyp", "h", "hprime", "classinv", "qpoint"]
_EXPONENTS = ["^2", "^3", "^9", "^0", "^1"]
_TOKENS = _NUMBERS + _FUNCTIONS + _EXPONENTS + ["pi", "+", "-", "*", "/", "(", ")", ",", "@", "x", "sin", "1e5"]

_leaf = st.sampled_from(_NUMBERS + ["pi"])


def _fmt(pattern):
    return lambda parts: pattern.format(*parts)


_small = st.one_of(_leaf, st.tuples(_leaf, st.sampled_from("+-*/"), _leaf).map(_fmt("({} {} {})")))


def _calls(inner):
    nome = st.one_of(_small, st.tuples(st.sampled_from(["+1", "-1"]), _small).map(_fmt("qpoint({}, {})")))
    return st.one_of(
        st.tuples(st.sampled_from(["phi", "psi", "fneg", "chi"]), nome).map(_fmt("{}({})")),
        st.tuples(_small, _small).map(_fmt("f({}, {})")),
        st.tuples(st.sampled_from(["hyp", "classinv"]), _small).map(_fmt("{}({})")),
        st.tuples(st.sampled_from(["h", "hprime", "agm"]), _small, _small).map(_fmt("{}({}, {})")),
        st.tuples(st.sampled_from(["gamma", "cospi"]), inner).map(_fmt("{}({})")),
    )


def _compound(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(_fmt("{} {} {}")),
        inner.map("-({})".format),
        st.tuples(inner.filter(lambda s: "^" not in s), st.sampled_from("0123456789")).map(_fmt("({})^{}")),
        _calls(inner),
        inner.map("({})".format),
    )


_WELL_FORMED = st.recursive(_leaf, _compound, max_leaves=8)
_SOUP = st.lists(st.sampled_from(_TOKENS), max_size=12).filter(
    lambda ts: not any(a[0] == b[0] == "^" for a, b in zip(ts, ts[1:]))
).map(" ".join)


@given(text=st.one_of(_WELL_FORMED, _SOUP), bits=st.integers(64, 128))
@settings(max_examples=150, deadline=None)
def test_eval_fuzz_exit_codes(text, bits):
    assert main(["eval", "--prec", str(bits), "--", text]) in (0, 1, 2)


class TestSweep:
    def test_deg3_grid(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "deg3", "--grid", "0.05,0.1,0.2", "--prec", "192"
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["entries"]) == 6  # equation + reciprocal per point
        assert all(e["status"] == "pass" for e in doc["entries"])

    def test_out_of_domain_grid(self, capsys):
        code, _, err = run(capsys, "sweep", "deg3", "--grid", "1.5")
        assert code == 2 and "outside (0, 1)" in err

    def test_jims_default_grid(self, capsys):
        code, out, _ = run(capsys, "sweep", "jims", "--prec", "192")
        assert code == 0
        assert [e["id"] for e in json.loads(out)["entries"]] == [
            "jims@0.3",
            "jims@0.6",
            "jims@0.9",
        ]

    def test_deg15_and_rational_grid_points(self, capsys):
        code, out, _ = run(capsys, "sweep", "deg15", "--grid", "3/20,0.4", "--prec", "192")
        assert code == 0
        assert all(e["status"] == "pass" for e in json.loads(out)["entries"])

    def test_septic(self, capsys):
        code, out, _ = run(capsys, "sweep", "septic", "--grid", "0.2", "--prec", "192")
        assert code == 0
        ids = [e["id"] for e in json.loads(out)["entries"]]
        assert ids == ["septic@0.2#p_uvw", "septic@0.2#quotient", "septic@0.2#quartic"]

    def test_yi_product_default(self, capsys):
        code, out, _ = run(capsys, "sweep", "yi_product", "--prec", "192")
        assert code == 0
        assert len(json.loads(out)["entries"]) == 3

    def test_below_minimum_precision_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sweep", "deg3", "--grid", "0.1", "--prec", "0")
        assert code == 2 and "usage error" in err

    def test_yi_product_bad_tuple(self, capsys):
        code, _, err = run(capsys, "sweep", "yi_product", "--grid", "2:1:6")
        assert code == 2


class TestComplete:
    def test_complete_at_512(self, capsys):
        code, out, _ = run(capsys, "complete", "--prec", "512")
        assert code == 0
        assert "status      : verified" in out
        assert "branch      : plus" in out
        assert "permutation : 5" in out
        assert "7^(-3/4)" in out

    def test_complete_low_precision_exits_one(self, capsys):
        # the pipeline resolves, but 100 certified digits are unreachable
        code, out, _ = run(capsys, "complete", "--prec", "64")
        assert code == 1 and "unverified" in out

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "complete", "--prec", "256")
        _, out2, _ = run(capsys, "complete", "--prec", "256")
        assert out1 == out2


class TestCatalog:
    def test_catalog_listing(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        entries = json.loads(out)
        assert len(entries) == 19
        assert all(set(e) == {"id", "lhs_text", "rhs_text", "provenance"} for e in entries)


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "thetaval.cli", "verify", "r3", "--prec", "256"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["entries"][0]["status"] == "verified"


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "thetaval", "eval", "gamma(1/4)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("value  = 3.6256099082219083119")

"""CLI tests: subcommands, exit codes, report stability, parallel runs."""

import contextlib
import hashlib
import io
import itertools
import json
import pickle
import re
import signal
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from thetaval import cli, errors, exact
from thetaval.cli import main
from thetaval.errors import EvaluationError, ParseError, ThetavalError
from thetaval.exact import Catalog, Identity, mutate_first_leaf, parse_expr
from thetaval.qseries import QPoint


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

    def test_verification_failure_exit_code(self, capsys, monkeypatch):
        # a right side moved by 1e-6 is disjoint from the left: exit 1, no escalation
        r3 = exact.build_catalog().get("r3")
        bad = Identity("r3", r3.lhs, mutate_first_leaf(r3.rhs), r3.provenance)
        monkeypatch.setattr(exact, "build_catalog", lambda: Catalog((bad,)))
        code, out, _ = run(capsys, "verify", "r3", "--prec", "64")
        assert code == 1
        entry = json.loads(out)["entries"][0]
        assert entry["status"] == "unverified" and entry["prec_bits_used"] == 64

    def test_all_entries_escalate_from_64_bits(self, capsys):
        # 64-bit radii miss the 100-digit target; the loop jumps by the shortfall
        code, out, _ = run(capsys, "verify", "--all", "--prec", "64")
        assert code == 0
        entries = json.loads(out)["entries"]
        assert len(entries) == 19
        assert all(e["status"] == "verified" for e in entries)
        assert all(64 < e["prec_bits_used"] <= 512 for e in entries)

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

    def test_catalog_is_built_once_per_run(self, capsys, monkeypatch):
        # the workers get the parsed entries; they do not build the catalog again
        calls = []
        build = exact.build_catalog
        monkeypatch.setattr(exact, "build_catalog", lambda: calls.append(1) or build())
        code, _, _ = run(capsys, "verify", "--all")
        assert code == 0 and len(calls) == 1

    def test_env_var_default(self, capsys, monkeypatch):
        # THETAVAL_PREC_BITS is no longer read: the default stays 512 bits
        monkeypatch.setenv("THETAVAL_PREC_BITS", "128")
        code, out, _ = run(capsys, "verify", "r3")
        assert code == 0 and json.loads(out)["prec_bits"] == 512

    def test_bad_env_var_is_usage_error(self, capsys, monkeypatch):
        # a malformed precision is a usage error only where it is read, on the flag;
        # the unread THETAVAL_PREC_BITS is ignored whatever it holds
        monkeypatch.setenv("THETAVAL_PREC_BITS", "not-a-number")
        code, out, _ = run(capsys, "verify", "r3")
        assert code == 0 and json.loads(out)["prec_bits"] == 512
        with pytest.raises(SystemExit) as exc:  # argparse usage error
            main(["verify", "r3", "--prec", "not-a-number"])
        assert exc.value.code == 2 and "invalid int value" in capsys.readouterr().err

    def test_digits_flag(self, capsys):
        code, out, _ = run(capsys, "verify", "r3", "--digits", "40")
        assert json.loads(out)["prec_bits"] == 134  # ceil(40 * 3.33)

    def test_below_minimum_precision_is_usage_error(self, capsys):
        for flag, value in (("--prec", "32"), ("--prec", "0"), ("--digits", "0"), ("--digits", "-5")):
            code, _, err = run(capsys, "verify", "r3", flag, value)
            assert code == 2 and "usage error" in err, (flag, value)

    def test_report_has_no_runtime_field(self, capsys):
        code, out, _ = run(capsys, "verify", "r3")
        entry = json.loads(out)["entries"][0]
        assert code == 0 and "runtime_ms" not in entry


# stdout of `eval "f(0.95, 0.94)" --prec 4096`: |ab| = 0.893, so each wing sums
# 225 terms at 4128 bits, over which the theta kernel's scale falls 15 times
F_095_094_AT_4096 = (
    "value  = "
    "7.452131183306408076415031524530514924240623024053884425864055062019086907872394"
    "87532476685526381703067786880970340464660310301994864448287974739246126443783921"
    "29875023864440222085991086069593512625465033747899866695731431424314716425655647"
    "05320856516591360074506366314270728567022885651797292026510425124196270343851433"
    "66974230052311041465619932688961035914360605135331292430998302047417373283783969"
    "85911829349158469827906796671740807132881583265911314234574880514580041920076656"
    "12981947222063773852503427564431155209934115884004153239512606024043878486261083"
    "57161116702166858270694052819254489140853749546152547512988872143261060714892340"
    "25376667508800654243555091835044782280606840220874036897279907192256216400313163"
    "74727279423301710071836429286206754383121500707865236948364631853798575742236506"
    "56749234522758468119434761029128598772184563846327286858526018821301492442191877"
    "64739589083510177901111370154140581634724710146439498180921766729833460035714808"
    "80480637336460352051319737726113948857689"
    "\nradius <= 1e-1233\n"
)


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

    def test_a_long_theta_sum_at_4096_bits_prints_the_pinned_text(self, capsys):
        code, out, err = run(capsys, "eval", "f(0.95, 0.94)", "--prec", "4096")
        assert (code, out, err) == (0, F_095_094_AT_4096, "")

    @pytest.mark.parametrize("expr", ["1/0", "(-1)^(1/2)", "0^(1/2)", "(-8)^(1/3)"])
    def test_an_exact_zero_divisor_or_root_base_is_refused_at_once(self, capsys, monkeypatch, expr):
        # no precision decides it: one attempt at 512 bits, then exit 2
        widths, real = [], exact._eval_raw
        monkeypatch.setattr(exact, "_eval_raw", lambda e, bits: widths.append(bits) or real(e, bits))
        code, out, err = run(capsys, "eval", expr)
        assert (code, out) == (2, "") and err.startswith("domain error: "), err
        assert set(widths) == {512 + 32}

    @pytest.mark.parametrize("expr,rexp", [("agm(1/10^300, 1)", -23), ("hyp(1/10^300)", -154)])
    def test_an_argument_below_the_working_scale_escalates(self, capsys, monkeypatch, expr, rexp):
        # 1/10^300 rounds to 0 +- 1 at 544 bits, which is undecided, not
        # refused: the 1056-bit attempt holds it to 59 bits, and agm(a, 1)
        # is off by a 10^-294 of its derivative times a's 10^-318 radius
        import mpmath as mp

        widths, real = [], exact._eval_raw
        monkeypatch.setattr(exact, "_eval_raw", lambda e, bits: widths.append(bits) or real(e, bits))
        code, out, err = run(capsys, "eval", expr)
        assert (code, err) == (0, "") and set(widths) == {544, 1056}
        value, radius = (line.split()[-1] for line in out.splitlines())
        assert radius == f"1e{rexp:+d}"
        with mp.workdps(400):
            a = mp.mpf(10) ** -300
            ref = mp.agm(a, 1) if expr.startswith("agm") else mp.hyp2f1(0.5, 0.5, 1, a)
            assert abs(mp.mpf(value) - ref) <= 2 * mp.mpf(10) ** rexp

    def test_parse_error_position(self, capsys):
        code, _, err = run(capsys, "eval", "2 +* 3")
        assert code == 2 and "position 3" in err

    def test_a_literal_past_the_int_digit_limit_is_a_parse_error(self, capsys):
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        if not limit:
            pytest.skip("int() takes a string of any length here")
        code, out, err = run(capsys, "eval", "1 + " + "7" * (limit + 1))
        assert (code, out, err) == (2, "", f"parse error: number has more than {limit} digits (at position 4)\n")

    @pytest.mark.parametrize(
        "text, num, den", [("1/10^400", 1, 10**400), ("1/2^2000", 1, 2**2000)], ids=["1/10^400", "1/2^2000"]
    )
    def test_gamma_at_a_tiny_argument(self, capsys, text, num, den):
        # both arguments lie in (0, 2], and both underflow to 0.0 as floats
        import mpmath as mp
        from fractions import Fraction

        code, out, _ = run(capsys, "eval", f"gamma({text})")
        assert code == 0
        value = Fraction(out.splitlines()[0].split("=", 1)[1].strip())
        with mp.workprec(600):
            ref = mp.gamma(mp.mpf(num) / den)
        ref = Fraction(int(ref.man)) * Fraction(2) ** int(ref.exp)
        assert abs(value - ref) <= ref / 10**150

    def test_domain_error_exits_two(self, capsys):
        code, _, err = run(capsys, "eval", "gamma(5/2)")
        assert code == 2 and "domain error" in err

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

    def test_phi_near_one(self, capsys):
        # the q-product route could not certify its tail at q = 0.999
        code, out, _ = run(capsys, "eval", "phi(0.999)")
        assert code == 0
        exponent = re.search(r"^radius <= 1e(-\d+)$", out, re.M).group(1)
        assert int(exponent) <= -100

    def test_phi_whose_terms_vanish_before_its_ratio_halves(self, capsys):
        # at q = 0.9999 the wing's floored terms are 0 after 1,941 terms, and it
        # stops there: waiting for |rho| <= 1/2 would pass the 4,416-term limit
        import mpmath as mp

        code, out, err = run(capsys, "eval", "phi(0.9999)")
        assert (code, err) == (0, "")
        value, radius = (line.split()[-1] for line in out.splitlines())
        assert radius == "1e-154"
        with mp.workdps(200):
            ref = mp.jtheta(3, 0, mp.mpf(9999) / 10000)
            assert abs(mp.mpf(value) - ref) <= mp.mpf(radius) + mp.mpf(10) ** -150

    def test_phi_still_nearer_one_passes_the_term_limit(self, capsys):
        # q = 0.99999 needs about 6,100 terms before they vanish
        code, out, err = run(capsys, "eval", "phi(0.99999)")
        assert (code, out) == (2, "")
        assert err == "domain error: theta series failed to reach its tail target\n"

    def test_phi_at_a_qpoint_nome_very_near_one(self, capsys):
        # r = 10^-12: the direct series needs about 4,800 terms at 512 bits,
        # past its limit; the dual nome q_(10^12) needs 2
        code, out, _ = run(capsys, "eval", "phi(qpoint(+1, 1/1000000000000))")
        assert code == 0
        assert out.splitlines()[0].startswith("value  = 1000.0000000000000000000000")

    def test_nomes_that_are_huge_powers_of_their_class_base(self, capsys):
        # q_(10^40) is the power 10^20 of e^-pi, and the dual nome
        # q_(10^400/576) of q_(10^-400) the power 5^200 2^197 of q_(1/9); the
        # text is the one the nomes gave as their own exps
        code, out, _ = run(capsys, "eval", "phi(qpoint(+1, 10^40)) + phi(qpoint(+1, 1/10^400))")
        assert code == 0
        assert out == (
            "value  = 1." + "0" * 99 + "1" + "0" * 53 + "e+100\n"
            "radius <= 1e-154\n"
        )

    @pytest.mark.parametrize("r", ["1/10^120", "1/10^200"])
    def test_a_qpoint_of_a_tiny_r_keeps_its_precision(self, capsys, r):
        # sqrt(r) is taken as sqrt(n d)/d, not from r at the working scale
        code, out, _ = run(capsys, "eval", f"qpoint(+1, {r})")
        assert code == 0 and out.splitlines()[1] == "radius <= 1e-154"

    def test_chi_at_a_negative_qpoint_nome_near_one(self, capsys):
        # chi(-q) = 2.83e-114 at r = 10^-6; as phi(-q)/f(-q) it read 0 +/- 1e-91
        code, out, _ = run(capsys, "eval", "chi(qpoint(-1, 1/1000000))")
        assert code == 0
        assert out.splitlines()[0].startswith("value  = 2.834188046359343425")
        assert out.splitlines()[0].endswith("e-114")
        exponent = re.search(r"^radius <= 1e(-\d+)$", out, re.M).group(1)
        assert int(exponent) <= -150

    def test_chi_past_the_power_limit_near_one_is_refused(self, capsys):
        # chi(q_r) grows like exp(pi / (24 sqrt r)): about 2^188,850 at r = 10^-12
        code, _, err = run(capsys, "eval", "chi(qpoint(+1, 1/1000000000000))")
        assert code == 2 and "passes the limit of 2^" in err

    def test_a_class_invariant_whose_square_part_passes_a_float_evaluates(self, capsys):
        code, out, err = run(capsys, "eval", "classinv((1 - 1/10^20)^100)")
        assert code == 0 and err == ""
        assert out == (
            "value  = 1.000000000000000000000000000000000000049888207807214678351083896470744054681259"
            "309019756974111196095914625141404484046695663302458048145938739004279357650\n"
            "radius <= 1e-154\n"
        )

    @pytest.mark.parametrize("n", ["10^16", "10^40", "10^12"])
    def test_a_class_invariant_past_the_power_limit_is_refused_at_once(self, n):
        # q^(-1/24) = e^(pi sqrt(n)/24) is about 2^(2^17.5) at n = 10^12, past the limit
        # 2^32768: refused before its exp, which at 10^16 or 10^40 would not end
        proc = subprocess.run(
            [sys.executable, "-m", "thetaval", "eval", f"classinv({n})"],
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("size error: ") and "passes the limit of 2^32768 at 512 bits" in proc.stderr

    @pytest.mark.parametrize(
        "argv, plain",
        [
            (["eval", "-pi"], ["eval", "--", "-pi"]),
            (["eval", "-2^2", "--prec", "128"], ["eval", "--prec", "128", "--", "-2^2"]),
            (["eval", "--prec", "128", "-pi"], ["eval", "--prec", "128", "--", "-pi"]),
            (["eval", "-qpoint(+1, 2)"], ["eval", "--", "-qpoint(+1, 2)"]),
        ],
    )
    def test_an_eval_text_starting_with_a_dash_is_the_text(self, capsys, argv, plain):
        expected = run(capsys, *plain)
        assert expected[0] == 0 and run(capsys, *argv) == expected

    @pytest.mark.parametrize("argv", [["eval", "1", "--nosuch"], ["eval", "-pi", "-pi"], ["eval"]])
    def test_an_unknown_option_or_a_missing_text_is_still_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2 and "error: " in capsys.readouterr().err

    def test_negative_power_of_a_value_below_the_scale(self, capsys):
        # q^27 = 2^-774 at q = e^(-pi sqrt 40): resolved at the 1024-bit cap,
        # where its square is not, so q^-54 is taken as (1/q^27)^2
        code, out, _ = run(capsys, "eval", "((((qpoint(+1, 40))^3)^3)^3)^(-2)", "--prec", "128")
        assert code == 0
        assert out.splitlines()[0] == "value  = 9.3321410037451962643601778129571531682e+465"

    def test_cospi_uses_the_exact_table(self, capsys):
        code, out, _ = run(capsys, "eval", "cospi(1/2)")
        assert code == 0 and out.splitlines() == ["value  = 0", "radius <= 0"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["2^(2^40)", "--prec", "64"],
            ["9^9^9"],
            ["2^(2^40 + 1/65)", "--prec", "64"],  # the exp(e log x) route
            ["2^(9^9^9)", "--prec", "64"],
            ["gamma(9^9^9)"],
        ],
        ids=["2^(2^40)", "9^9^9", "2^(2^40+1/65)", "folded-exponent", "folded-argument"],
    )
    def test_oversized_power_is_refused(self, argv):
        # refused before the first multiplication, not after building 2^40 bits
        proc = subprocess.run(
            [sys.executable, "-m", "thetaval", "eval", *argv],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 2
        assert "passes the limit of 2^" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_power_limit_scales_with_precision(self, capsys):
        # the limit is 2^(64 * bits): 2^4096 at 64 bits, 2^8192 at 128
        assert run(capsys, "eval", "2^4096", "--prec", "64")[0] == 0
        assert run(capsys, "eval", "2^4097", "--prec", "64")[0] == 2
        assert run(capsys, "eval", "2^(2^12+1)", "--prec", "128")[0] == 0
        assert run(capsys, "eval", "(1.0001)^100000", "--prec", "64")[0] == 0


# Grammar fuzz.  Exponents nest, so towers such as 9^9^9 and (x^9)^(2^40)
# reach the size limit of powers; theta, f, hyp, h and classinv arguments
# are small trees, so no nome comes close enough to 1 to make a series slow.
_NUMBERS = ["0", "1", "2", "3", "7", "9", "0.5", ".25", "1.5"]
_FUNCTIONS = ["phi", "psi", "fneg", "chi", "f", "gamma", "cospi", "agm", "hyp", "h", "hprime", "classinv", "qpoint"]
_EXPONENTS = ["^2", "^3", "^9", "^0", "^1", "^-1", "^(1/65)", "^40"]
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


_exponent = st.recursive(
    st.sampled_from(["0", "1", "2", "9", "40", "(-1)", "(1/3)", "(-1/65)"]),
    lambda e: st.one_of(
        st.tuples(e, e).map(_fmt("{}^{}")),
        st.tuples(e, e).map(_fmt("({})^{}")),
        st.tuples(e, st.sampled_from("+-*"), e).map(_fmt("({} {} {})")),
    ),
    max_leaves=4,
)


def _compound(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(_fmt("{} {} {}")),
        inner.map("-({})".format),
        st.tuples(inner, _exponent).map(_fmt("({})^{}")),
        _calls(inner),
        inner.map("({})".format),
    )


_WELL_FORMED = st.recursive(_leaf, _compound, max_leaves=8)
_SOUP = st.lists(st.sampled_from(_TOKENS), max_size=12).map(" ".join)


@given(text=st.one_of(_WELL_FORMED, _SOUP), bits=st.integers(64, 128))
@example(text="(" * 300 + "1" + ")" * 300, bits=64)
@example(text="phi(" * 200 + "0.5" + ")" * 200, bits=64)
@example(text="+".join(["1"] * 3001), bits=64)
@example(text="-" * 2000 + "1", bits=64)
@settings(max_examples=150, deadline=None)
def test_eval_fuzz_exit_codes(text, bits):
    assert main(["eval", "--prec", str(bits), "--", text]) in (0, 1, 2)


# arguments at the edges of the grammar functions' domains: a tiny value, one
# near 1, a huge one, one near -1, an irrational one and a negative rational
EDGE_ARGS = ["1/2^2000", "1 - 1/10^20", "10^30", "-0.999", "0.5", "(2)^(1/24)", "1/10^400", "-(3/7)"]


class _OverTime(BaseException):
    """Raised by the alarm; `main` maps no BaseException to an exit code."""


@pytest.mark.parametrize("bits", ["64", "512"])
@pytest.mark.parametrize("name", sorted(exact._FUNCTIONS))
def test_every_function_at_edge_arguments_exits_cleanly_within_a_second(capsys, name, bits):
    def over_time(*_):
        raise _OverTime

    labels = {code: [] for code in (1, 2)}
    for _, code, label in cli._OUTCOMES:
        labels[code].append(label.format(cap=cli.CAP_FACTOR * int(bits)))
    previous = signal.signal(signal.SIGALRM, over_time)
    try:
        for args in itertools.product(EDGE_ARGS, repeat=exact._ARITY[name]):
            text = f"{name}({', '.join(args)})"
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            try:
                code = main(["eval", "--prec", bits, "--", text])
            except _OverTime:
                pytest.fail(f"{text} at {bits} bits ran past 1 s")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            err = capsys.readouterr().err
            assert code in (0, 1, 2), text
            assert err == "" if code == 0 else err.startswith(tuple(labels[code])), (text, err)
    finally:
        signal.signal(signal.SIGALRM, previous)


# Random trees of depth up to 3 over every grammar function, the infix
# symbols, ^ and unary minus, with the edge arguments above and qpoint(+-1, r)
# as leaves, written out by `render_expr`.  A rational function's argument is
# an edge rational or a tree, which the parser folds or refuses.  2048 bits is
# left out: the same texts take about 5 s more there.
_EDGE_RATIONALS = [F(1, 2**2000), 1 - F(1, 10**20), F(10**30), F(-999, 1000), F(1, 2), F(1, 10**400), F(-3, 7)]
_FUZZ_EXPONENTS = [F(2), F(-1), F(1, 2), F(-3, 7), F(1, 24), F(0), F(100), F(-100)]
_qpoint_leaf = st.builds(
    lambda s, r: exact.Nome(QPoint(s, r)), st.sampled_from([1, -1]), st.sampled_from([r for r in _EDGE_RATIONALS if r > 0])
)
_edge_leaf = st.one_of(st.sampled_from([parse_expr(t) for t in EDGE_ARGS]), _qpoint_leaf)


def _call(node, inner):
    if node is exact.Nome:
        return _qpoint_leaf
    arg = st.one_of(st.sampled_from(_EDGE_RATIONALS), inner) if node.rational else inner
    return st.tuples(*[arg] * exact._ARITY[node.name]).map(lambda args: node(*args))


def _grammar_trees(depth: int):
    if depth == 0:
        return _edge_leaf
    inner = _grammar_trees(depth - 1)
    return st.one_of(
        inner,
        st.builds(lambda node, a, b: node(a, b), st.sampled_from(list(exact._BINARY.values())), inner, inner),
        st.builds(exact.Neg, inner),
        st.builds(exact.PowRat, inner, st.sampled_from(_FUZZ_EXPONENTS)),
        *[_call(node, inner) for node in exact._FUNCTIONS.values()],
    )


@given(tree=_grammar_trees(3))
# escalates to 2048 bits, where Gamma(2^-2000) took 13 s by binary splitting
@example(tree=parse_expr("agm(1/2^2000, gamma(1/2^2000))"))
# class invariants whose index has a huge square part: once a traceback
@example(tree=parse_expr("classinv((1 - 1/10^20)^100)"))
@example(tree=parse_expr("classinv(2^3000/3^2000)"))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_random_grammar_trees_exit_cleanly_within_a_second(tree):
    def over_time(*_):
        raise _OverTime

    text = exact.render_expr(tree)
    previous = signal.signal(signal.SIGALRM, over_time)
    try:
        for bits in ("64", "512"):
            stderr = io.StringIO()
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                    code = main(["eval", "--prec", bits, "--", text])
            except _OverTime:
                pytest.fail(f"{text} at {bits} bits ran past 1 s")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            err = stderr.getvalue()
            labels = [label.format(cap=cli.CAP_FACTOR * int(bits)) for _, c, label in cli._OUTCOMES if c == code]
            assert code in (0, 1, 2), text
            assert err == "" if code == 0 else err.startswith(tuple(labels)), (text, bits, err)
    finally:
        signal.signal(signal.SIGALRM, previous)


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

    @pytest.mark.parametrize("grid,bits", [("1e-100", 2048), ("1e-200", 4096)])
    def test_deg3_at_a_tiny_nome_escalates_past_a_root_of_0_plus_minus_units(
        self, capsys, grid, bits
    ):
        # beta/alpha ~ q^2 rounds into 0 +- a few units below `bits`: undecided, not refused
        code, out, _ = run(capsys, "sweep", "deg3", "--grid", grid)
        entries = json.loads(out)["entries"]
        assert code == 0 and len(entries) == 2
        assert all(e["status"] == "pass" and e["prec_bits_used"] == bits for e in entries)

    def test_deg3_at_a_tiny_nome_and_a_low_cap_is_undecided(self, capsys):
        code, _, err = run(capsys, "sweep", "deg3", "--grid", "1e-40", "--prec", "64")
        assert code == 1 and "domain error" not in err

    def test_jims_at_an_x_rounding_to_1_escalates(self, capsys):
        code, out, _ = run(capsys, "sweep", "jims", "--grid", "0." + "9" * 200)
        (entry,) = json.loads(out)["entries"]
        assert code == 0 and entry["status"] == "pass"

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

    def test_septic_near_one(self, capsys):
        # the q-product route could not certify its tail at q = 0.95
        code, out, _ = run(capsys, "sweep", "septic", "--grid", "0.95")
        assert code == 0
        entries = json.loads(out)["entries"]
        assert len(entries) == 3
        assert all(e["status"] == "pass" for e in entries)
        assert all(e["agreement_digits"] >= 100 for e in entries)

    def test_wide_residual_escalates_instead_of_passing(self, capsys):
        # at 64 bits the deg3 residual at 0.85 held 0 with 0 agreement digits
        code, out, _ = run(capsys, "sweep", "deg3", "--grid", "0.85", "--prec", "64")
        assert code == 0
        entries = json.loads(out)["entries"]
        assert all(e["status"] == "pass" for e in entries)
        assert all(e["agreement_digits"] >= 100 for e in entries)
        assert all(e["prec_bits_used"] > 64 for e in entries)

    def test_deg3_near_one_escalates_past_512_bits(self, capsys):
        # 53 digits at 512 bits; 1 - alpha is about 4e-83 there
        code, out, _ = run(capsys, "sweep", "deg3", "--grid", "0.95")
        assert code == 0
        entries = json.loads(out)["entries"]
        assert all(e["agreement_digits"] >= 100 for e in entries)
        assert all(e["prec_bits_used"] == 1024 for e in entries)

    def test_wide_residual_at_the_cap_is_undecided(self, capsys):
        code, out, _ = run(capsys, "sweep", "deg3", "--grid", "0.95", "--prec", "64")
        assert code == 1
        eq, reciprocal = json.loads(out)["entries"]
        assert eq["status"] == "undecided" and eq["prec_bits_used"] == 512
        assert reciprocal["status"] == "pass"

    def test_a_residual_excluding_zero_fails_without_escalating(self, capsys, monkeypatch):
        from thetaval import modular
        from thetaval.precision import Ball

        monkeypatch.setattr(modular, "verify_degree15", lambda q, ctx: Ball(1 << ctx.bits, 1, ctx.bits))
        code, out, _ = run(capsys, "sweep", "deg15", "--grid", "0.15")
        (entry,) = json.loads(out)["entries"]
        assert code == 1
        assert entry["status"] == "fail" and entry["prec_bits_used"] == 512

    def test_divisor_straddling_zero_at_the_cap_exits_one(self, capsys):
        # 1 - alpha at q = 0.99 is below 2^-512: an undecided result, not a domain error
        code, out, err = run(capsys, "sweep", "deg3", "--grid", "0.99", "--prec", "64")
        assert code == 1 and out == ""
        assert err == "undecided at 512 bits: divisor enclosure contains zero\n"

    def test_yi_product_default(self, capsys):
        code, out, _ = run(capsys, "sweep", "yi_product", "--prec", "192")
        assert code == 0
        assert len(json.loads(out)["entries"]) == 3

    def test_below_minimum_precision_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sweep", "deg3", "--grid", "0.1", "--prec", "0")
        assert code == 2 and "usage error" in err

    @pytest.mark.parametrize("grid", [",", " ", "", " , ,"])
    def test_a_grid_without_points_is_usage_error(self, capsys, grid):
        # an empty report would pass without checking anything
        code, out, err = run(capsys, "sweep", "deg15", "--grid", grid)
        assert code == 2 and out == ""
        assert err == "usage error: --grid has no points\n"

    def test_yi_product_bad_tuple(self, capsys):
        code, _, err = run(capsys, "sweep", "yi_product", "--grid", "2:1:6")
        assert code == 2

    @pytest.mark.parametrize("grid", ["1e-300", "1e-30"])
    def test_jims_point_below_the_rounding_is_refused_by_its_term_count(self, grid):
        # at 64 bits the rounded ball of such a point is 0; the exact point is inside (0, 1)
        proc = subprocess.run(
            [sys.executable, "-m", "thetaval", "sweep", "jims", "--grid", grid, "--prec", "64"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("domain error: jims series needs")
        assert "Traceback" not in proc.stderr

    def test_jims_tiny_grid_point_is_refused(self):
        # about 1e16 terms: refused before the loop instead of hanging
        proc = subprocess.run(
            [sys.executable, "-m", "thetaval", "sweep", "jims", "--grid", "1e-30"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("domain error: jims series needs")
        assert "Traceback" not in proc.stderr


# Sweep fuzz: decimals in (0, 0.95], tiny points, out-of-domain and malformed
# tokens and k:a:b:c:d tuples, on every target, with one to three points.
_SWEEP_TOKENS = st.one_of(
    st.integers(1, 950).map(lambda k: str(k / 1000)),
    st.tuples(st.integers(1, 9), st.integers(5, 30)).map(_fmt("{}e-{}")),
    st.sampled_from(["0", "1", "-0.5", "-1", "1/0", "nan", "inf", "", " ", "x", "0.5.5", "1/3", "1e", "2:"]),
    st.lists(st.integers(-2, 6), min_size=3, max_size=6).map(lambda ks: ":".join(map(str, ks))),
)


@given(
    target=st.sampled_from(["deg3", "deg15", "jims", "septic", "yi_product"]),
    grid=st.lists(_SWEEP_TOKENS, min_size=1, max_size=3).map(",".join),
    bits=st.integers(64, 128),
)
@settings(max_examples=150, deadline=None)
def test_sweep_fuzz_exit_codes(target, grid, bits):
    assert main(["sweep", target, f"--grid={grid}", "--prec", str(bits)]) in (0, 1, 2)


class TestComplete:
    def test_complete_at_512(self, capsys):
        code, out, _ = run(capsys, "complete", "--prec", "512")
        assert code == 0
        assert "status      : verified" in out
        assert "branch      : plus" in out
        assert "permutation : 5" in out
        assert "7^(-3/4)" in out

    def test_complete_low_precision_escalates(self, capsys):
        # 64-bit radii miss the 100-digit target; the verification escalates
        code, out, _ = run(capsys, "complete", "--prec", "64")
        assert code == 0 and "status      : verified" in out

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


class TestParserReuse:
    SEQUENCE = [
        ["eval", "phi(1/2) + gamma(1/4)", "--prec", "128"],
        ["sweep", "jims", "--grid", "0.5", "--prec", "128"],
        ["nosuch"],
        ["eval", "phi(1/2) + gamma(1/4)", "--prec", "128"],
    ]

    @staticmethod
    def _in_process(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_calls_in_one_process_match_separate_processes(self, capsys):
        cli.build_arg_parser.cache_clear()
        results = [self._in_process(capsys, argv) for argv in self.SEQUENCE]
        assert cli.build_arg_parser.cache_info().misses == 1
        assert [r[0] for r in results] == [0, 0, 2, 0]
        assert results[3] == results[0]
        for argv, result in zip(self.SEQUENCE, results):
            proc = subprocess.run(
                [sys.executable, "-m", "thetaval", *argv], capture_output=True, text=True
            )
            assert (proc.returncode, proc.stdout) == result[:2], argv
            assert proc.stderr == result[2], argv

    def test_command_is_looked_up_per_call(self, capsys, monkeypatch):
        main(["catalog"])  # the parser is built before the command is replaced
        calls = []
        monkeypatch.setattr(cli, "cmd_catalog", lambda args: calls.append(args) or 0)
        assert main(["catalog"]) == 0
        assert len(calls) == 1


# One row of `cli._OUTCOMES` or more each, through every command that can
# reach it: (argv, exit code, the start of stderr).
OUTCOME_CASES = [
    (["sweep", "deg3", "--grid", "0.99", "--prec", "64"], 1, "undecided at 512 bits: "),
    (["eval", "1 / (pi - pi)", "--prec", "64"], 1, "undecided at 512 bits: "),
    (["eval", "(pi - pi)^(1/3)", "--prec", "64"], 1, "undecided at 512 bits: "),
    (["eval", "1 +"], 2, "parse error: "),
    (["eval", "(" * 300 + "1" + ")" * 300], 2, "parse error: expression nested deeper"),
    (["eval", "9^9^9"], 2, "size error: "),
    (["eval", "gamma(5/2)"], 2, "domain error: "),
    (["eval", "agm(0, 1)"], 2, "domain error: "),
    (["eval", "agm(-1, 1)"], 2, "domain error: "),
    (["eval", "hyp(1)"], 2, "domain error: "),
    (["eval", "agm(pi - pi, 1)", "--prec", "64"], 1, "undecided at 512 bits: "),
    (["eval", "hyp(1 + (pi - pi))", "--prec", "64"], 1, "undecided at 512 bits: "),
    (["eval", "classinv(1/10^200)"], 2, "size error: "),
    (["eval", "classinv(2^3000/3^2000)"], 2, "size error: a power of magnitude up to 2^(2^82.6) passes the limit"),
    (["eval", "phi(1.5)"], 2, "domain error: "),
    (["eval", "(pi - 4)^(1/2)"], 2, "domain error: "),
    (["eval", "(2 - pi)^(1/3)"], 2, "domain error: "),
    (["eval", "(-8)^(1/3)"], 2, "domain error: "),
    (["catalog", "--out", "missing-directory/x.json"], 2, "output error: "),
    (["sweep", "deg3", "--grid", "1.5"], 2, "domain error: "),
    (["sweep", "yi_product", "--grid", "1:1:1:1:2"], 2, "domain error: "),
    (["sweep", "yi_product", "--grid", "2:1:6"], 2, "domain error: "),
    (["sweep", "jims", "--grid", "1e-30"], 2, "domain error: jims series needs"),
    (["sweep", "deg3", "--grid", "x"], 2, "usage error: "),
    (["sweep", "deg3", "--grid", "1/0"], 2, "usage error: "),
    (["verify", "nope"], 2, "usage error: unknown catalog id: nope"),
    (["verify", "r3", "--prec", "32"], 2, "usage error: "),
    (["complete", "--prec", "0"], 2, "usage error: "),
    (["verify", "bad", "--prec", "64"], 1, "evaluation error: bad: "),
]


@pytest.mark.parametrize(
    "argv,code,label", OUTCOME_CASES, ids=[" ".join(argv)[:40] for argv, _, _ in OUTCOME_CASES]
)
def test_each_error_maps_to_one_exit_code_and_label(capsys, monkeypatch, argv, code, label):
    bad = Identity("bad", parse_expr("1 / (1 - 1)"), parse_expr("1"), "a zero divisor")
    catalog = exact.build_catalog()
    monkeypatch.setattr(exact, "build_catalog", lambda: Catalog(catalog.entries + (bad,)))
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "") and err.startswith(label), err


@pytest.mark.parametrize(
    "argv", [["catalog"], ["verify", "r3", "--prec", "64"], ["sweep", "jims", "--grid", "0.5"]]
)
def test_out_into_a_missing_directory_is_refused(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert (code, out) == (2, "") and not path.exists()
    assert err.startswith("output error: ") and str(path) in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["verify", "r3", "--prec", "99999999999999999999"], ["eval", "1", "--digits", "10000000000"]],
)
def test_a_precision_above_the_ceiling_is_refused_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"usage error: requested precision above {cli.MAX_BITS} bits\n"
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("jobs", ["0", "-1"])
@pytest.mark.parametrize("argv", [["verify", "r3"], ["sweep", "jims", "--grid", "0.5"]])
def test_fewer_than_one_job_is_usage_error(capsys, argv, jobs):
    code, out, err = run(capsys, *argv, "--jobs", jobs)
    assert code == 2 and out == ""
    assert err == "usage error: --jobs must be at least 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "1", "--out", "f"],
        ["eval", "1", "--jobs", "2"],
        ["eval", "1", "--timings"],
        ["complete", "--out", "f"],
        ["complete", "--jobs", "2"],
        ["sweep", "jims", "--timings"],
        ["verify", "r3", "--timings"],
    ],
)
def test_options_that_would_do_nothing_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err


def _error_classes(cls=ThetavalError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


@pytest.mark.parametrize("cls", sorted(set(_error_classes()), key=lambda c: c.__name__))
def test_every_error_survives_a_pickle_round_trip(cls):
    args = {EvaluationError: ("r3", "divisor enclosure contains zero"), ParseError: ("bad", 4)}
    exc = cls(*args.get(cls, ("message",)))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls and cls.__module__ == errors.__name__
    assert str(back) == str(exc) and vars(back) == vars(exc)


def test_a_worker_error_crosses_the_process_pool():
    # the sequential path raises EvaluationError; the pool must raise the same
    bad = Identity("bad", parse_expr("1 / (1 - 1)"), parse_expr("1"), "a zero divisor")
    for jobs in (1, 2):
        with pytest.raises(EvaluationError, match="bad: division by zero"):
            cli._map(cli._verify_worker, [(bad, 128)], jobs)


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


def test_importing_the_cli_loads_no_dataclasses_inspect_or_process_pool():
    code = (
        "import sys, thetaval.cli; "
        "loaded = {'dataclasses', 'inspect', 'concurrent.futures', 'thetaval.exact'} & set(sys.modules); "
        "assert not loaded, loaded"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_a_sweep_does_not_load_the_expression_tree():
    code = (
        "import sys; from thetaval.cli import main; rc = main(['sweep', 'deg15']); "
        "assert 'thetaval.exact' not in sys.modules; sys.exit(rc)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


LAYERS = ("thetaval.modular", "thetaval.lostnotebook")


def _fresh(*argv) -> tuple[int, bytes, list[str]]:
    """main(argv) in a new interpreter: exit code, stdout, and which of
    `LAYERS` it loaded."""
    code = (
        "import sys; from thetaval.cli import main; rc = main(sys.argv[1:]); "
        "import json; "
        f"print(json.dumps(sorted(set({LAYERS!r}) & set(sys.modules))), file=sys.stderr); "
        "sys.exit(rc)"
    )
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, timeout=120)
    return proc.returncode, proc.stdout, json.loads(proc.stderr.decode().splitlines()[-1])


def test_the_cli_and_the_catalog_load_neither_layer():
    code = (
        "import sys, thetaval.cli; from thetaval.exact import build_catalog; build_catalog(); "
        f"loaded = set({LAYERS!r}) & set(sys.modules); assert not loaded, loaded"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (("eval", "classinv(9)"), []),
        (("eval", "gamma(1/4) + 1"), []),
        (("catalog",), []),
        (("complete",), ["thetaval.lostnotebook"]),
        (("verify", "--all"), []),
    ],
)
def test_a_command_loads_only_the_layers_it_runs(argv, loaded):
    code, out, layers = _fresh(*argv)
    assert code == 0 and out and layers == loaded


# sha256 of each default sweep report, as written while every layer was
# imported with the CLI
SWEEP_REPORTS = {
    "deg3": "2ca7f867d39321761ad12ffaf6645414279a5145c19528d45f794539f7ee0085",
    "deg15": "f48beb266267f1a211f701e55d7e389503a0b4f61024998d3997131f2de9c33e",
    "jims": "4e7c464637b45cf3c019262d31039662da0fa4414951cdd90a2680acc4950bd0",
    "septic": "23a60076089ae118c56b34e258c34a80014a43f5fbc77b7ab630f20eafe358b4",
    "yi_product": "1de9ae2236fc7e27823abfc750fd8b7202e1bdcf5b1b84b7922db5276bfa60ca",
}


@pytest.mark.parametrize(
    "argv",
    [("sweep", t) for t in sorted(SWEEP_REPORTS)] + [("sweep", "deg3", "--jobs", "2")],
    ids=" ".join,
)
def test_a_sweep_in_a_fresh_process_loads_its_layer_and_keeps_its_bytes(argv):
    # under --jobs the workers load the layer, and the parent neither
    assert set(SWEEP_REPORTS) == set(cli.SWEEPS)
    code, out, layers = _fresh(*argv)
    layer = "lostnotebook" if argv[1] == "septic" else "modular"
    assert code == 0 and layers == ([] if "--jobs" in argv else [f"thetaval.{layer}"])
    assert hashlib.sha256(out).hexdigest() == SWEEP_REPORTS[argv[1]]


# sha256 of the reports of the other commands, so that a change meant to move
# no output is seen to move none
COMMAND_REPORTS = {
    ("verify", "--all", "--prec", "512"): "4f1a573c6a3306c8990c442ba1501ac437fb06084d773fafb4bc396c81503c49",
    ("verify", "--all", "--prec", "2048"): "0fd6d9a16a1d0f2f654ee81b9d8c4294414c670ee74bfdf003c8d144217b9e87",
    ("complete", "--prec", "64"): "e06393d9ddddbcc3ff46d4e2a3875af8ab2276714347ccdd8db80485a2fe7eff",
    ("complete", "--prec", "512"): "4bec20e7e5055cd46c93f6b70d23a0d3b63a2ba601d31b5589b8a676de7171b2",
    ("catalog",): "3d1e655b8c841b73e2a934b8522ad8240ae27c00239ec3a41a260faf21d04514",
}


@pytest.mark.parametrize("argv", sorted(COMMAND_REPORTS), ids=" ".join)
def test_a_command_in_a_fresh_process_keeps_its_bytes(argv):
    code, out, _ = _fresh(*argv)
    assert code == 0 and hashlib.sha256(out).hexdigest() == COMMAND_REPORTS[argv]

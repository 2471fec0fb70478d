"""Expression-tree and catalog tests: evaluation, rendering, verification,
mutation sensitivity, and the cross-form consistency checks."""

from fractions import Fraction as F

import pytest

from thetaval.errors import (
    DivisionByZeroEnclosure,
    NegativeEvenRootEnclosure,
    UnsupportedGammaArgument,
)
from thetaval.exact import (
    Add,
    Catalog,
    ClassInv,
    CosPiRat,
    Div,
    GammaRat,
    Identity,
    Int,
    Pi,
    PowRat,
    Rat,
    Scalar,
    Sub,
    TDiv,
    TMul,
    Phi,
    build_catalog,
    eval_expr,
    eval_theta,
    mutate_first_leaf,
    render_expr,
    render_theta,
    verify_identity,
)
from thetaval.precision import Ball, PrecCtx, ipow, sqrt
from thetaval.qseries import QPoint, phi_series

CTX = PrecCtx(256)
CATALOG = build_catalog()


def bf(x, f=256):
    return Ball.from_fraction(F(x), f)


class TestEvalExpr:
    def test_rational_is_exact(self):
        val = eval_expr(Rat(F(3, 4)), CTX)
        assert val.contains(F(3, 4)) and val.rad == 0

    def test_cospi_exact_third(self):
        assert eval_expr(CosPiRat(F(1, 3)), CTX).contains(F(1, 2))

    def test_cospi_generic(self):
        import mpmath as mp

        mp.mp.dps = 50
        val = eval_expr(CosPiRat(F(2, 7)), CTX)
        ref = F(str(mp.nstr(mp.cos(2 * mp.pi / 7), 40, strip_zeros=False)))
        assert abs(val.mid - ref) < F(1, 10**38)

    def test_g9_sixth_power_difference(self):
        g9 = CATALOG.get("g9").rhs
        val = eval_expr(g9, CTX)
        diff = ipow(val, 6) - ipow(val, -6)
        assert diff.overlaps(sqrt(bf(3)) * 2)

    def test_operator_sugar(self):
        e = (Int(1) + Int(2)) * Int(3) / Int(9) - Int(1)
        assert eval_expr(e, CTX).contains(0)
        assert eval_expr(-Int(5), CTX).contains(-5)
        assert eval_expr(Int(2) ** F(-1, 2), CTX).overlaps(1 / sqrt(bf(2)))

    def test_division_by_zero_enclosure(self):
        with pytest.raises(DivisionByZeroEnclosure):
            eval_expr(Div(Int(1), Sub(Int(1), Int(1))), CTX)

    def test_negative_even_root(self):
        with pytest.raises(NegativeEvenRootEnclosure):
            eval_expr(PowRat(Sub(Int(1), Int(3)), F(1, 2)), CTX)

    def test_gamma_domain(self):
        with pytest.raises(UnsupportedGammaArgument):
            eval_expr(GammaRat(F(5, 2)), CTX)

    def test_gamma_value(self):
        assert eval_expr(GammaRat(F(1, 2)), CTX).overlaps(sqrt(eval_expr(Pi(), CTX)))


class TestCatalog:
    def test_size_and_ids(self):
        assert len(CATALOG) == 19
        assert len(set(CATALOG.ids())) == 19
        expected = {
            "classical_1",
            "classical_sqrt2",
            "classical_2",
            "r5",
            "r3",
            "r7",
            "r9",
            "r45",
            "cb13",
            "cb27",
            "cb63",
            "yi_33",
            "yi_53",
            "yi_m6",
            "yi_2s5",
            "yi_9",
            "ln7",
            "g9",
            "g169",
        }
        assert set(CATALOG.ids()) == expected

    def test_provenance_present(self):
        assert all(e.provenance for e in CATALOG.entries)

    def test_duplicate_ids_rejected(self):
        e = CATALOG.entries[0]
        with pytest.raises(ValueError):
            Catalog((e, e))

    def test_r3_fourth_power_reciprocal(self):
        rhs = eval_expr(CATALOG.get("r3").rhs, CTX)
        assert ipow(rhs, -4).overlaps(sqrt(bf(3)) * 6 - 9)

    def test_json_export_schema(self):
        entries = CATALOG.json_entries()
        assert len(entries) == 19
        for e in entries:
            assert set(e) == {"id", "lhs_text", "rhs_text", "provenance"}
            assert e["rhs_text"] and e["lhs_text"]

    def test_rendered_rhs_parses_and_evaluates(self):
        # the export grammar round-trips through the parser
        from thetaval.exact import parse_expr

        for entry in CATALOG.entries:
            text = render_expr(entry.rhs)
            node = parse_expr(text)
            assert eval_expr(node, CTX).overlaps(eval_expr(entry.rhs, CTX))

    def test_rendered_lhs_parses_and_evaluates(self):
        from thetaval.exact import parse_expr

        for entry in CATALOG.entries:
            text = render_theta(entry.lhs)
            node = parse_expr(text)
            assert eval_expr(node, CTX).overlaps(eval_theta(entry.lhs, CTX))


class TestVerify:
    def test_classical_1_hundred_digits(self):
        rep = verify_identity(CATALOG.get("classical_1"), PrecCtx(512))
        assert rep.status == "verified" and rep.agreement_digits >= 100

    def test_low_precision_escalates_once(self):
        rep = verify_identity(CATALOG.get("r3"), PrecCtx(256))
        assert rep.status == "verified"
        assert rep.prec_bits_used == 512  # 256-bit radii sit above 1e-100

    def test_corrupted_yi9_fails_badly(self):
        # flip the sign of the last cube-root term of yi_9
        good = CATALOG.get("yi_9")
        assert isinstance(good.rhs, Sub)
        corrupted = Identity(
            "yi_9_corrupt", good.lhs, Add(good.rhs.left, good.rhs.right), good.provenance
        )
        rep = verify_identity(corrupted, PrecCtx(512))
        assert rep.status == "unverified" and rep.agreement_digits < 5

    def test_disjoint_identity_fails_without_escalation(self):
        bogus = Identity("bogus", Phi(QPoint(1, F(1))), Int(2), "test")
        rep = verify_identity(bogus, PrecCtx(256))
        assert rep.status == "unverified" and rep.prec_bits_used == 256


class TestMutation:
    def test_mutate_changes_value(self):
        e = CATALOG.get("r9").rhs
        mutated = mutate_first_leaf(e)
        assert mutated != e
        delta = eval_expr(mutated, CTX) - eval_expr(e, CTX)
        assert not delta.contains_zero()

    def test_mutation_flips_two_sample_entries(self):
        for entry_id in ("r3", "g9"):
            entry = CATALOG.get(entry_id)
            bad = Identity(
                entry.id + "_mut",
                entry.lhs,
                mutate_first_leaf(entry.rhs),
                entry.provenance,
            )
            rep = verify_identity(bad, PrecCtx(512))
            assert rep.status == "unverified"


def test_precision_monotonicity_all_entries():
    # agreement digits never drop when the working precision grows
    for entry in CATALOG.entries:
        digits = [
            verify_identity(entry, PrecCtx(bits)).agreement_digits
            for bits in (256, 512, 1024)
        ]
        assert digits[0] <= digits[1] <= digits[2], (entry.id, digits)
        assert digits[2] >= 290, (entry.id, digits)


class TestCrossForm:
    def test_r9_times_yi9_is_inverse_sqrt3(self):
        ctx = PrecCtx(512)
        prod = eval_expr(CATALOG.get("r9").rhs, ctx) * eval_expr(
            CATALOG.get("yi_9").rhs, ctx
        )
        assert prod.overlaps(1 / sqrt(Ball.from_fraction(3, 512)))

    def test_cb27_with_r3_matches_series(self):
        ctx = PrecCtx(512)
        combined = eval_expr(CATALOG.get("cb27").rhs, ctx) * eval_expr(
            CATALOG.get("r3").rhs, ctx
        )
        direct = phi_series(QPoint(1, F(729)), ctx) / phi_series(QPoint(1, F(1)), ctx)
        assert combined.overlaps(direct)

    def test_scalar_and_theta_nodes(self):
        t = TMul(Scalar(Int(2)), TDiv(Phi(QPoint(1, F(1))), Phi(QPoint(1, F(1)))))
        assert eval_theta(t, CTX).contains(2)
        assert eval_theta(ClassInv(F(1)), CTX).contains(1)

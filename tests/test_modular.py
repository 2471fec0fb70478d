"""Modular-machinery tests: correspondence, transforms, equations, JIMS.

Oracles: the direct hypergeometric series, nome/modulus round trips,
independent series evaluation of theta quotients, and exact closed forms.
"""

import itertools
from fractions import Fraction as F

import pytest

from thetaval import modular, qseries
from thetaval.errors import DomainError, EnclosureReachesBoundary, PreconditionViolated, Undecided
from thetaval.precision import Ball, PrecCtx, decimal_str, ipow, pow_rational, sqrt
from thetaval.modular import (
    DEGREE3_PRIMARY,
    ModularEquation,
    ModularTriple,
    SqrtTerm,
    YiQuotient,
    class_invariant,
    degree_relation_residual,
    hyp2f1_half,
    hyp2f1_half_series,
    jims_identity,
    modulus_from_q,
    multiplier,
    nome,
    singular_modulus_sq,
    transform,
    triple_from_x,
    verify_degree3,
    verify_degree15,
    yi_h,
    yi_product_theorem,
)
from thetaval.qseries import QPoint, phi

CTX = PrecCtx(256)
E_PI = QPoint(1, F(1))


def bf(x, f=256):
    return Ball.from_fraction(F(x), f)


class TestHyp2F1:
    def test_at_zero(self):
        assert hyp2f1_half(Ball(0, 0, 256), CTX).contains(1)

    def test_at_half_vs_phi_squared(self):
        lhs = hyp2f1_half(bf(F(1, 2)), CTX)
        assert lhs.overlaps(ipow(phi(E_PI, CTX), 2))

    def test_agm_vs_series(self):
        for x in (F(1, 10), F(3, 10), F(7, 10)):
            assert hyp2f1_half(bf(x), CTX).overlaps(hyp2f1_half_series(bf(x), CTX))

    def test_a_boundary_reached_only_by_the_radius_is_undecided(self):
        for x in (Ball(0, 1, 256), Ball(1 << 256, 1, 256), Ball(-1, 3, 256)):
            with pytest.raises(EnclosureReachesBoundary):
                hyp2f1_half(x, CTX)
        for x in (Ball(1 << 256, 0, 256), Ball(-1, 0, 256), Ball(2 << 256, 5, 256)):
            with pytest.raises(DomainError) as exc:
                hyp2f1_half(x, CTX)
            assert not isinstance(exc.value, Undecided)

    def test_series_domain_limit(self):
        with pytest.raises(DomainError):
            hyp2f1_half_series(bf(F(4, 5)), CTX)


class TestNome:
    def test_at_half_is_e_minus_pi(self):
        assert nome(bf(F(1, 2)), CTX).overlaps(E_PI.to_ball(CTX))

    def test_value_at_tenth(self):
        # oracle: the modulus_from_q round trip at doubled precision
        q = nome(bf(F(1, 10)), PrecCtx(512))
        assert decimal_str(q, 30) == "0.00658465155385837027447305967065"
        assert modulus_from_q(q, PrecCtx(512)).contains(F(1, 10))

    @pytest.mark.parametrize("x", [F(1, 10), F(3, 10), F(1, 2), F(7, 10), F(9, 10)])
    def test_round_trip(self, x):
        assert modulus_from_q(nome(bf(x), CTX), CTX).contains(x)

    def test_modulus_from_e_pi(self):
        assert modulus_from_q(E_PI, CTX).contains(F(1, 2))

    @pytest.mark.parametrize("q", [F(1, 100), F(3, 10), F(3, 5)])
    def test_modulus_range_contract(self, q):
        x = modulus_from_q(bf(q), CTX)
        assert x.is_strictly_positive() and (Ball.one(256) - x).is_strictly_positive()


class TestTransforms:
    def test_duplication_dimidiation_inverse(self):
        t = triple_from_x(bf(F(2, 5)), CTX)
        t2 = transform(transform(t, "dimidiation", CTX), "duplication", CTX)
        assert t2.x.overlaps(t.x) and t2.q.overlaps(t.q) and t2.z.overlaps(t.z)

    def test_double_duplication_and_quadruple_nome_value(self):
        t = triple_from_x(bf(F(1, 2)), CTX)
        tdd = transform(transform(t, "duplication", CTX), "duplication", CTX)
        assert tdd.z.overlaps(ipow(phi(QPoint(1, F(16)), CTX), 2))
        # phi(e^-4y) = (1/2) sqrt(z) (1 + (1-x)^(1/4)) from the base triple
        f = 256
        one = Ball.one(f)
        direct = (sqrt(t.z) * (one + pow_rational(one - t.x, F(1, 4)))).half()
        assert direct.overlaps(phi(QPoint(1, F(16)), CTX))

    def test_change_of_sign_z(self):
        t = triple_from_x(bf(F(3, 10)), CTX)
        ts = transform(t, "change_of_sign", CTX)
        # oracle: direct series evaluation of phi(-q)^2
        from thetaval.qseries import phi_series

        assert ts.z.overlaps(ipow(phi_series(-t.q, CTX), 2))

    def test_change_of_sign_involution(self):
        t = triple_from_x(bf(F(1, 2)), CTX)
        tss = transform(transform(t, "change_of_sign", CTX), "change_of_sign", CTX)
        assert tss.x.overlaps(t.x) and tss.q.overlaps(t.q) and tss.z.overlaps(t.z)

    def test_z_consistency_along_chains(self):
        # every valid transform chain of length <= 4 from x = 1/2 keeps z = phi(q)^2
        ctx = PrecCtx(192)
        base = triple_from_x(Ball.from_fraction(F(1, 2), 192), ctx)
        kinds = ("duplication", "dimidiation", "change_of_sign")
        checked = 0
        for size in (1, 2, 3, 4):
            for chain in itertools.product(kinds, repeat=size):
                t = base
                try:
                    for kind in chain:
                        t = transform(t, kind, ctx)
                except DomainError:
                    continue  # e.g. dimidiation after a sign change (x < 0)
                assert t.z.overlaps(ipow(phi(t.q, ctx), 2)), chain
                checked += 1
        assert checked >= 60

    def test_dimidiation_rejects_negative_x(self):
        t = transform(triple_from_x(bf(F(1, 2)), CTX), "change_of_sign", CTX)
        with pytest.raises(DomainError):
            transform(t, "dimidiation", CTX)

    @pytest.mark.parametrize(
        "kind,x,q",
        [
            ("dimidiation", Ball(0, 1, 256), bf(F(1, 2))),
            ("dimidiation", bf(F(1, 2)), Ball(-2, 3, 256)),
            ("change_of_sign", Ball(1 << 256, 1, 256), bf(F(1, 2))),
        ],
    )
    def test_a_boundary_reached_only_by_the_radius_is_undecided(self, kind, x, q):
        with pytest.raises(EnclosureReachesBoundary):
            transform(ModularTriple(x, q, Ball.one(256)), kind, CTX)

    @pytest.mark.parametrize(
        "kind,x,q",
        [
            ("dimidiation", Ball(0, 0, 256), bf(F(1, 2))),
            ("dimidiation", Ball(-1 << 256, 5, 256), bf(F(1, 2))),
            ("dimidiation", bf(F(1, 2)), Ball(-1 << 250, 3, 256)),
            ("change_of_sign", Ball(1 << 256, 0, 256), bf(F(1, 2))),
            ("change_of_sign", Ball(2 << 256, 5, 256), bf(F(1, 2))),
        ],
    )
    def test_an_exact_or_outside_argument_is_a_domain_error(self, kind, x, q):
        with pytest.raises(DomainError) as exc:
            transform(ModularTriple(x, q, Ball.one(256)), kind, CTX)
        assert not isinstance(exc.value, Undecided)


class TestMultiplier:
    def test_degree_one(self):
        assert multiplier(bf(F(1, 5)), 1, CTX).contains(1)

    def test_degree3_value(self):
        m2 = ipow(multiplier(E_PI, 3, CTX), 2)
        assert m2.overlaps(sqrt(bf(3)) * 6 - 9)

    def test_degree5_value(self):
        m = multiplier(E_PI, 5, CTX)
        assert m.overlaps(sqrt(bf(5)) * 5 - 10)

    def test_degree_composition(self):
        q = bf(F(1, 5))
        lhs = multiplier(q, 9, CTX)
        rhs = multiplier(q, 3, CTX) * multiplier(ipow(q, 3), 3, CTX)
        assert lhs.overlaps(rhs)


class TestSingularModuli:
    def test_alpha_one_is_half(self):
        assert singular_modulus_sq(1, CTX).contains(F(1, 2))

    def test_defining_display_at_seven(self):
        alpha7 = singular_modulus_sq(7, CTX)
        lhs = hyp2f1_half(alpha7, CTX)
        assert lhs.overlaps(ipow(phi(QPoint(1, F(7)), CTX), 2))

    def test_strictly_decreasing(self):
        vals = [singular_modulus_sq(n, CTX) for n in (1, 2, 3, 4)]
        for a, b in zip(vals, vals[1:]):
            assert (a - b).is_strictly_positive()


class TestClassInvariants:
    def test_g1_is_one(self):
        assert class_invariant(1, CTX).contains(1)

    def test_g9_value(self):
        rhs = pow_rational((1 + sqrt(bf(3))) / sqrt(bf(2)), F(1, 3))
        assert class_invariant(9, CTX).overlaps(rhs)

    def test_g169_value(self):
        val = class_invariant(169, CTX)
        assert decimal_str(val, 30) == "4.61083618482324804164237639952"

    @pytest.mark.parametrize("n", [1, 3, 7, 9, 169])
    def test_consistency_with_singular_modulus(self, n):
        a = singular_modulus_sq(n, CTX)
        rhs = pow_rational(a * (Ball.one(256) - a) * 4, F(-1, 24))
        assert class_invariant(n, CTX).overlaps(rhs)

    # G_9 to G_169 take the root of the class base that chi reads; G_37, G_10^4 and
    # G_10^6 lose more bits than the guard leaves that way and take exp(pi sqrt(n)/24)
    @pytest.mark.parametrize("bits", [512, 4096])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 9, 13, 25, 37, 169, 10**4, 10**6, F(1, 4)], ids=str)
    def test_against_mpmath_on_both_routes(self, n, bits, monkeypatch, cold_caches):
        import math

        import mpmath as mp

        bases = []
        real_base = qseries._nome_base
        monkeypatch.setattr(
            qseries, "_nome_base", lambda t, sign, fw: bases.append((t, sign)) or real_base(t, sign, fw)
        )
        n = F(n)
        val = class_invariant(n, PrecCtx(bits))
        assert ((n / 576, 1) in bases) == (n in (37, 10**4, 10**6))
        lg = math.pi * math.sqrt(n) / 24 / math.log(2)  # log2 q^(-1/24)
        with mp.workprec(bits + 64 + int(lg)):
            q = mp.exp(-mp.pi * mp.sqrt(mp.mpf(n.numerator) / n.denominator))
            ref = mp.mpf(2) ** (-mp.mpf(1) / 4) * q ** (-mp.mpf(1) / 24) * mp.qp(-q, q * q)
            ref = F(int(ref.man)) * F(2) ** int(ref.exp)
        assert val.f == bits and val.contains(ref)
        assert val.rad <= F(2) ** (4 - bits) * max(1, ref)

    def test_g9_from_degree3_beta(self):
        # beta of degree 3 over alpha at q = e^-pi gives G_9
        beta = modulus_from_q(QPoint(1, F(9)), CTX)
        rhs = pow_rational(beta * (Ball.one(256) - beta) * 4, F(-1, 24))
        assert class_invariant(9, CTX).overlaps(rhs)


class TestDegree3:
    @pytest.mark.parametrize("q", [F(1, 20), F(1, 10), F(1, 5), F(3, 10), F(2, 5)])
    def test_residuals_on_grid(self, q):
        r1, r2 = verify_degree3(bf(q), CTX)
        assert r1.contains_zero() and r2.contains_zero()

    def test_modulus_pair_invariants(self):
        from thetaval.modular import modulus_pair

        pair = modulus_pair(E_PI, 3, CTX)
        one = Ball.one(256)
        for v in (pair.alpha, pair.beta):
            assert v.is_strictly_positive() and (one - v).is_strictly_positive()
        assert pair.n == 3
        direct = ipow(phi(E_PI, CTX) / phi(QPoint(1, F(9)), CTX), 2)
        assert pair.m.overlaps(direct)

    def test_residuals_at_e_pi(self):
        r1, r2 = verify_degree3(E_PI, CTX)
        assert r1.contains_zero() and r2.contains_zero()

    def test_reciprocal_rewrite_matches_literal_second_equation(self):
        # the printed reciprocal equation, written out term by term
        literal = ModularEquation(
            degree=3,
            m_coef=9,
            m_pow=-2,
            terms=(
                SqrtTerm(1, (1, 0, -1, 0)),
                SqrtTerm(1, (0, 1, 0, -1)),
                SqrtTerm(-1, (1, 1, -1, -1)),
            ),
        )
        rec = DEGREE3_PRIMARY.reciprocal()
        assert (rec.m_coef, rec.m_pow, rec.degree) == (9, -2, 3)
        assert set(rec.terms) == set(literal.terms)
        q = bf(F(1, 5))
        alpha = modulus_from_q(q, CTX)
        beta = modulus_from_q(ipow(q, 3), CTX)
        m = multiplier(q, 3, CTX)
        lhs = DEGREE3_PRIMARY.reciprocal().residual(alpha, beta, m, CTX)
        rhs = literal.residual(alpha, beta, m, CTX)
        assert lhs.overlaps(rhs) and lhs.contains_zero()

    def test_reciprocal_is_involution(self):
        assert DEGREE3_PRIMARY.reciprocal().reciprocal() == DEGREE3_PRIMARY

    def test_degree_relation_residual(self):
        assert degree_relation_residual(bf(F(1, 5)), 3, CTX).contains_zero()


class TestDegree15:
    @pytest.mark.parametrize("q", [F(3, 20), F(2, 5)])
    def test_residual_on_grid(self, q):
        assert verify_degree15(bf(q), CTX).contains_zero()

    def test_residual_at_h_point(self):
        assert verify_degree15(QPoint(1, F(1, 15)), CTX).contains_zero()


class TestYi:
    @pytest.mark.parametrize("n", [F(2), F(7), F(5, 3)])
    def test_h_1n_is_one(self, n):
        assert yi_h(YiQuotient(F(1), n), CTX).contains(1)

    def test_h_39_value(self):
        rhs = (1 - pow_rational(bf(2), F(1, 3)) + pow_rational(bf(4), F(1, 3))) / sqrt(bf(3))
        assert yi_h(YiQuotient(F(3), F(9)), CTX).overlaps(rhs)

    def test_h_35_value(self):
        rhs = sqrt(sqrt(bf(5)) - 1) / sqrt(bf(2))
        assert yi_h(YiQuotient(F(3), F(5)), CTX).overlaps(rhs)

    def test_primed_smoke(self):
        assert yi_h(YiQuotient(F(1), F(3), primed=True), CTX).contains(1)
        assert yi_h(YiQuotient(F(1), F(8), primed=True), CTX).contains(1)

    @pytest.mark.parametrize("tup", [(2, 1, 6, 2, 3), (3, 1, 1, 1, 1), (5, 2, 2, 4, 1)])
    def test_product_theorem(self, tup):
        assert yi_product_theorem(*map(F, tup), CTX).contains_zero()

    def test_product_theorem_precondition(self):
        with pytest.raises(PreconditionViolated):
            yi_product_theorem(F(2), F(1), F(6), F(2), F(4), CTX)


class TestJims:
    @pytest.mark.parametrize("x", [F(3, 10), F(3, 5), F(9, 10)])
    def test_residual_contains_zero(self, x):
        res = jims_identity(bf(x), CTX)
        assert res.contains_zero()
        # oracle: the same residual at doubled precision (more terms, finer pi)
        res2 = jims_identity(Ball.from_fraction(x, 512), PrecCtx(512))
        assert res2.contains_zero() and res2.rad < res.rad

    def test_domain(self):
        with pytest.raises(DomainError):
            jims_identity(bf(F(3, 2)), CTX)

    @pytest.mark.parametrize("bits", [512, 2048, 8192])
    @pytest.mark.parametrize("x", [F(201, 10000), F(9499, 10000)])
    def test_residual_tight_at_grid_edges(self, x, bits):
        res = jims_identity(x, PrecCtx(bits))
        assert res.contains_zero()
        assert res.rad <= F(2) ** (8 - bits)

    @staticmethod
    def _kernel_sums(monkeypatch, x, bits):
        """jims at x, and every `_theta_wings` result it saw, through a spy."""
        real, sums = qseries._theta_wings, []

        def spy(wings, f):
            sums.append((real(wings, f), f))
            return sums[-1][0]

        monkeypatch.setattr(qseries, "_theta_wings", spy)
        return jims_identity(x, PrecCtx(bits)), sums

    @pytest.mark.parametrize("bits", [512, 2048, 8192])
    @pytest.mark.parametrize("x", ["0.02", "0.05", "0.3", "0.9", "0.9499"])
    def test_kernel_sum_matches_mpmath_jtheta(self, monkeypatch, x, bits):
        self.check_kernel_sum_against_jtheta(monkeypatch, x, bits)

    def test_kernel_sum_at_a_tiny_x_matches_mpmath(self, monkeypatch):
        # x = 2e-5 at 512 bits: 2,448 terms, where jtheta's own series is slow;
        # referee: sum_{n>=1} w^(n^2), summed by mpmath until a term is below
        # 2^-(bits + 96)
        import mpmath as mp

        _, [((s, err, tail, n), f)] = self._kernel_sums(monkeypatch, F(2, 10**5), 512)
        with mp.workprec(512 + 96):
            xm = mp.mpf(2) / 10**5
            w = mp.exp(-mp.pi * xm) * mp.expjpi(mp.sqrt(1 - xm * xm))
            ref, term, ratio, w2 = mp.mpc(0), w, w * w * w, w * w
            while abs(term) > mp.ldexp(1, -(512 + 96)):
                ref, term, ratio = ref + term, term * ratio, ratio * w2
            ref *= mp.ldexp(1, f)
            for got, want in ((s.real - (1 << f), ref.real), (s.imag, ref.imag)):
                assert abs(got - want) <= err + tail, (float(got - want), err + tail)
        assert n == 2448 and err + tail < 2**26

    def check_kernel_sum_against_jtheta(self, monkeypatch, x, bits):
        # referee: (phi(w) - 1)/2 = sum_{n>=1} w^(n^2) by mpmath's jtheta(3, 0, w)
        import mpmath as mp

        _, [((s, err, tail, _), f)] = self._kernel_sums(monkeypatch, F(x), bits)
        with mp.workprec(bits + 96):
            xm = mp.mpf(F(x).numerator) / F(x).denominator
            w = mp.exp(-mp.pi * xm) * mp.expjpi(mp.sqrt(1 - xm * xm))
            ref = (mp.jtheta(3, 0, w) - 1) / 2 * mp.ldexp(1, f)
            for got, want in ((s.real - (1 << f), ref.real), (s.imag, ref.imag)):
                assert abs(got - want) <= err + tail, (x, bits, float(got - want), err + tail)
        assert err + tail < 2**20  # a few units per term, not a loss of bits

    def test_one_kernel_call_per_call(self, monkeypatch):
        # the series is the theta kernel's: no loop of its own
        res, sums = self._kernel_sums(monkeypatch, F(3, 10), 512)
        assert len(sums) == 1 and res.contains_zero()

    def test_refusal_reads_the_kernels_term_count(self, monkeypatch):
        # a small x's terms round to 0 once |w|^((n-1)^2) is below a unit, where
        # the kernel stops: at 512 bits x = 2e-5 takes 2,448 terms, x = 6.2e-6
        # 4,393 of its 4,416, and x = 6.1e-6, which needs about 4,435, is
        # refused before the loop
        for x, terms in ((F(2, 10**5), 2448), (F(62, 10**7), 4393)):
            res, [((_, _, _, n), _)] = self._kernel_sums(monkeypatch, x, 512)
            assert res.contains_zero() and n == terms
        refusal = "^jims series needs at least 4435 terms, more than its limit of 4416$"
        with pytest.raises(DomainError, match=refusal):
            jims_identity(F(61, 10**7), PrecCtx(512))

    def test_a_boundary_reached_only_by_the_radius_is_undecided(self):
        for x in (Ball(1 << 255, 1 << 255, 256), Ball(3 << 254, 1 << 254, 256), Ball(-1, 3, 256)):
            with pytest.raises(EnclosureReachesBoundary):
                jims_identity(x, CTX)
        # an exact x inside (0, 1) that rounds to 1 at the working scale
        with pytest.raises(EnclosureReachesBoundary):
            jims_identity(1 - F(1, 10**200), PrecCtx(512))
        exact = (F(0), F(1), F(-1, 2), Ball(0, 0, 256))
        for x in exact + (Ball(-1 << 256, 5, 256), Ball(2 << 256, 5, 256)):
            with pytest.raises(DomainError) as exc:
                jims_identity(x, CTX)
            assert not isinstance(exc.value, Undecided)

    def test_one_cos_and_one_sin_per_call(self, monkeypatch):
        # both from one reduction and one series: a single `_cos_sin` call
        calls = []
        real = modular._cos_sin

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(modular, "_cos_sin", counting)
        jims_identity(F(3, 10), CTX)
        assert len(calls) == 1

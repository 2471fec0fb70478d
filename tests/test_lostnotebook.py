"""Septic-system tests: the recorded relations on a nome grid, certified
root solving, ordering search, and the completed evaluation."""

import itertools
from fractions import Fraction as F

import pytest

from thetaval.errors import (
    BothRootsMatch,
    ComplexRootsDetected,
    DomainError,
    EnclosureReachesBoundary,
    MultiplePermutationsMatch,
    NoPermutationMatches,
    NoRootMatches,
    RootsNotSeparable,
    Undecided,
)
from thetaval.exact import Add, CosPiRat, Div, Int, Mul, PowRat, build_catalog, eval_expr, verify_identity
from thetaval.exact import ln7_cos_term, ln7_rhs_from_terms
from thetaval.precision import GUARD_BITS, Ball, PrecCtx, ipow, pow_rational
from thetaval.qseries import QPoint, phi, q_power_ball
from thetaval import lostnotebook
from thetaval.lostnotebook import (
    assign_roots,
    build_septic_state,
    complete_evaluation,
    compute_p,
    compute_uvw,
    cubic_roots,
    misprint_variant,
    ratio4_series_oracle,
    septic_pipeline,
    solve_ratio4,
    verify_quartic_relation,
)

CTX = PrecCtx(256)
Q7 = QPoint(1, F(1, 7))
GRID = [F(1, 10), F(1, 5), F(3, 10), F(2, 5)]


def replace(record, **changes):
    """A copy of the record with the named fields changed."""
    return type(record)(*(changes.get(name, getattr(record, name)) for name in record._fields))


def cos_root(k: int, ctx=CTX) -> Ball:
    return eval_expr(PowRat(Mul(Int(2), CosPiRat(F(k, 7))), F(-2)), ctx)


class TestRelations:
    @pytest.mark.parametrize("q", GRID + [Q7])
    def test_p_equals_uvw(self, q):
        u, v, w = compute_uvw(q, CTX)
        assert compute_p(q, CTX).overlaps(u * v * w)

    @pytest.mark.parametrize("q", GRID + [Q7])
    def test_one_plus_uvw_quotient(self, q):
        u, v, w = compute_uvw(q, CTX)
        fw = 288
        wctx = PrecCtx(fw)
        lhs = Ball.one(fw) + u + v + w
        if isinstance(q, QPoint):
            rhs = phi(q.pow(F(1, 7)), wctx) / phi(q.pow(7), wctx)
        else:
            rhs = phi(q_power_ball(q, F(1, 7), fw), wctx) / phi(q**7, wctx)
        assert lhs.overlaps(rhs)

    @pytest.mark.parametrize("q", GRID + [Q7, F(1, 4), F(1, 2)])
    def test_quartic_relation(self, q):
        assert verify_quartic_relation(q, CTX).contains_zero()

    def test_negative_nome_rejected(self):
        with pytest.raises(DomainError):
            compute_uvw(QPoint(-1, F(4)), CTX)

    def test_u_at_pivot_matches_cosine_form(self):
        u, _, _ = compute_uvw(Q7, CTX)
        expr = PowRat(
            Mul(
                Int(2),
                PowRat(CosPiRat(F(3, 7)), F(2)),
            ),
            F(-1),
        )
        target = pow_rational(
            eval_expr(CosPiRat(F(2, 7)), CTX) * eval_expr(expr, CTX), F(2, 7)
        )
        assert u.overlaps(target)

    def test_small_q_leading_orders(self):
        u, _, _ = compute_uvw(F(1, 10**6), CTX)
        lead = q_power_ball(F(1, 10**6), F(1, 7), 288) * 2
        assert abs((u / lead).to_float() - 1) < 0.01
        p = compute_p(F(1, 10**4), CTX)
        assert abs((p / Ball.from_fraction(F(8, 10**8), 256)).to_float() - 1) < 0.001


class TestQuadratic:
    def test_pivot_ratio_is_seven(self):
        p = compute_p(Q7, CTX)
        root, branch = solve_ratio4(p, Q7, CTX)
        assert root.contains(7) and branch == "plus"

    @pytest.mark.parametrize("q", GRID)
    def test_branch_matches_series_oracle(self, q):
        p = compute_p(q, CTX)
        root, _ = solve_ratio4(p, q, CTX)
        assert root.overlaps(ratio4_series_oracle(q, CTX))

    def test_degenerate_p_zero(self):
        root, branch = solve_ratio4(Ball(0, 0, 256), F(1, 100), CTX)
        assert root.contains(1) and branch == "double"

    def test_a_discriminant_reaching_0_by_its_radius_is_undecided(self):
        # disc = (2 + 5p)^2 - 4(1 - p)^3 is 0 at p = 0 and -23 at p = -1
        with pytest.raises(EnclosureReachesBoundary):
            solve_ratio4(Ball(0, 1, 256), F(3, 10), CTX)
        for p in (Ball(-1 << 256, 0, 256), Ball(-1 << 256, 5, 256)):
            with pytest.raises(DomainError) as exc:
                solve_ratio4(p, F(3, 10), CTX)
            assert not isinstance(exc.value, Undecided)

    def test_no_root_matches(self):
        with pytest.raises(NoRootMatches):
            solve_ratio4(Ball.from_fraction(5, 256), F(3, 10), CTX)

    def test_both_roots_match_guard(self, monkeypatch):
        # an oracle too wide to separate the roots must refuse to choose
        wide = Ball(Ball.one(256).m, 1 << 260, 256)
        monkeypatch.setattr(lostnotebook, "ratio4_series_oracle", lambda q, ctx: wide)
        p = compute_p(F(3, 10), CTX)
        with pytest.raises(BothRootsMatch):
            solve_ratio4(p, F(3, 10), CTX)

    def test_coincident_roots_of_a_wide_p_give_their_hull(self, monkeypatch):
        # disc is about 32p near p = 0: for p in [2^-136, 2^-127] it stays
        # positive, and the roots 1 + 5p/2 +- sqrt(disc)/2 overlap each other
        p = Ball(1 << 128, (1 << 128) - (1 << 120), 256)
        mid = (p * 5 + 2).half()
        monkeypatch.setattr(lostnotebook, "ratio4_series_oracle", lambda q, ctx: mid)
        root, branch = solve_ratio4(p, F(3, 10), CTX)
        assert branch == "double" and root.encloses(mid) and root.rad > F(1, 2**64)

    def test_an_oracle_on_the_minus_root_picks_the_minus_branch(self, monkeypatch):
        # the roots of x^2 - (2+5p)x + (1-p)^3 sum to 2 + 5p
        p = compute_p(F(3, 10), CTX)
        plus, branch = solve_ratio4(p, F(3, 10), CTX)
        assert branch == "plus"
        minus = p * 5 + 2 - plus
        assert not minus.overlaps(plus)
        monkeypatch.setattr(lostnotebook, "ratio4_series_oracle", lambda q, ctx: minus)
        root, branch = solve_ratio4(p, F(3, 10), CTX)
        assert branch == "minus" and root.overlaps(minus) and not root.overlaps(plus)


class TestCubic:
    def test_the_state_is_built_at_the_working_scale_and_rounded_once(self, monkeypatch):
        # u, v, w, p and the quadratic's root at ctx.bits + GUARD_BITS; the
        # cubic formed there, and every field rounded to ctx.bits at the end
        real, seen = lostnotebook.solve_ratio4, []

        def spy(p, q, ctx):
            seen.append((p.f, ctx.bits))
            return real(p, q, ctx)

        monkeypatch.setattr(lostnotebook, "solve_ratio4", spy)
        state = build_septic_state(F(3, 10), CTX)
        assert seen == [(256 + GUARD_BITS, 256 + GUARD_BITS)]
        fields = (state.p, state.u, state.v, state.w, state.ratio4) + state.cubic
        assert all(x.f == 256 for x in fields)

    def test_pivot_coefficients(self):
        state = build_septic_state(Q7, CTX)
        c2, c1, c0 = state.cubic
        assert c2.contains(-6) and c1.contains(5) and c0.contains(-1)
        assert state.branch == "plus"

    def test_roots_match_cosine_forms_and_vieta(self):
        state = build_septic_state(Q7, CTX)
        roots = cubic_roots(state, CTX)
        for k, root in zip((1, 2, 3), roots):
            assert root.overlaps(cos_root(k))
        c2, c1, c0 = state.cubic
        r1, r2, r3 = roots
        assert (r1 + r2 + r3).overlaps(-c2)
        assert (r1 * r2 + r1 * r3 + r2 * r3).overlaps(c1)
        assert (r1 * r2 * r3).overlaps(-c0)

    def test_residual_at_each_root(self):
        state = build_septic_state(Q7, CTX)
        c2, c1, c0 = state.cubic
        for root in cubic_roots(state, CTX):
            residual = ((root + c2) * root + c1) * root + c0
            assert residual.contains_zero()

    def test_not_separable_with_wide_coefficients(self):
        state = build_septic_state(F(3, 10), CTX)
        inflate = lambda b: Ball(b.m, 1 << (b.f - 2), b.f)
        bad = replace(state, cubic=tuple(inflate(c) for c in state.cubic))
        with pytest.raises(RootsNotSeparable):
            cubic_roots(bad, CTX)

    def test_complex_roots_detected(self):
        state = build_septic_state(F(3, 10), CTX)
        one = Ball.one(256)
        with pytest.raises(ComplexRootsDetected):
            cubic_roots(replace(state, cubic=(Ball(0, 0, 256), one, one)), CTX)

    @pytest.mark.parametrize("bits", [512, 2048, 8192])
    @pytest.mark.parametrize("q", [Q7, F(3, 10)], ids=str)
    def test_each_root_takes_three_interval_cubics_on_the_coefficient_balls(self, monkeypatch, q, bits):
        # one at the Newton point sizes the bracket, one at each of its ends
        ctx = PrecCtx(bits)
        state = build_septic_state(q, ctx)
        real, seen = lostnotebook._poly, []

        def spy(x, c2, c1, c0):
            seen.append(all(c.r == 0 for c in (c2, c1, c0)))
            return real(x, c2, c1, c0)

        monkeypatch.setattr(lostnotebook, "_poly", spy)
        cubic_roots(state, ctx)
        assert seen == [False] * 9

    @pytest.mark.parametrize("bits", [64, 512, 2048])
    @pytest.mark.parametrize("q", [Q7, F(1, 10), F(3, 10), F(4, 5)], ids=str)
    def test_each_enclosure_holds_the_roots_of_every_corner_cubic(self, q, bits):
        # referee: mpmath's polyroots at fw + 64 bits, fw = bits + 48, on the
        # midpoint cubic and on the 8 cubics with each coefficient at m +- r
        import mpmath as mp

        ctx = PrecCtx(bits)
        state = build_septic_state(q, ctx)
        roots = cubic_roots(state, ctx)
        corners = [(0, 0, 0)] + list(itertools.product((-1, 1), repeat=3))
        with mp.workprec(bits + 48 + 64):
            for signs in corners:
                coeffs = [mp.mpf(1)] + [
                    mp.mpf(c.m + s * c.r) / 2**c.f for c, s in zip(state.cubic, signs)
                ]
                found = sorted(mp.re(z) for z in mp.polyroots(coeffs, maxsteps=200, extraprec=64))
                for enclosure, z in zip(roots, found):
                    man, exp = z.man_exp
                    assert enclosure.contains(F(man) * F(2) ** exp)

    def test_a_newton_derivative_of_0_is_not_separable(self, monkeypatch):
        # xi^3 - 3 xi has p'(1) = 0 exactly at the first Newton scale
        state = build_septic_state(F(3, 10), CTX)
        zero, three = Ball(0, 0, 256), Ball(-3 << 256, 0, 256)
        monkeypatch.setattr(lostnotebook, "_float_cubic_roots", lambda c2, c1, c0: [-1.7, 1.0, 1.7])
        with pytest.raises(RootsNotSeparable):
            cubic_roots(replace(state, cubic=(zero, three, zero)), CTX)

    def test_two_seeds_of_one_root_are_not_separable(self, monkeypatch):
        state = build_septic_state(F(3, 10), CTX)
        low, _, high = sorted(lostnotebook._float_cubic_roots(*(c.to_float() for c in state.cubic)))
        seeds = [low, low * (1 + 1e-9), high]
        monkeypatch.setattr(lostnotebook, "_float_cubic_roots", lambda c2, c1, c0: seeds)
        with pytest.raises(RootsNotSeparable, match="certified root enclosures overlap"):
            cubic_roots(state, CTX)


class TestAssignment:
    def test_pivot_assignment_is_papers_order(self):
        state = build_septic_state(Q7, CTX)
        roots = cubic_roots(state, CTX)
        asn = assign_roots(state, roots, CTX)
        assert asn.alpha.overlaps(cos_root(3))
        assert asn.beta.overlaps(cos_root(2))
        assert asn.gamma.overlaps(cos_root(1))
        # u^7 = alpha^2 p / beta as a definitional rearrangement
        u7 = ipow(state.u, 7)
        assert u7.overlaps(ipow(asn.alpha, 2) * state.p / asn.beta)

    @pytest.mark.parametrize("q", GRID)
    def test_unique_assignment_on_grid(self, q):
        state, roots, asn = septic_pipeline(q, CTX)
        uc = pow_rational(ipow(asn.alpha, 2) * state.p / asn.beta, F(1, 7))
        assert uc.overlaps(state.u)

    def test_multiple_permutations_guard(self):
        state = build_septic_state(F(3, 10), CTX)
        roots = cubic_roots(state, CTX)
        wide = lambda b: Ball(b.m, 1 << b.f, b.f)
        bad = replace(state, u=wide(state.u), v=wide(state.v), w=wide(state.w))
        with pytest.raises(MultiplePermutationsMatch):
            assign_roots(bad, roots, CTX)

    def test_no_permutation_matches(self):
        state = build_septic_state(F(3, 10), CTX)
        fake = tuple(Ball.from_fraction(k, 256) for k in (2, 3, 4))
        with pytest.raises(NoPermutationMatches):
            assign_roots(state, fake, CTX)

    def test_a_root_reaching_0_by_its_radius_is_undecided(self):
        # every ordering divides by every root: a root enclosure that holds 0
        # only by its radius leaves the ordering to more bits
        state = build_septic_state(F(3, 10), CTX)
        r1, r2, r3 = cubic_roots(state, CTX)
        with pytest.raises(Undecided):
            assign_roots(state, (Ball(r1.m, r1.m + 1, r1.f), r2, r3), CTX)

    def test_a_root_too_wide_at_the_first_attempt_escalates(self, monkeypatch):
        real = lostnotebook.cubic_roots

        def widened(state, ctx):
            r1, r2, r3 = real(state, ctx)
            return (Ball(r1.m, r1.m + 1, r1.f) if ctx.bits == 256 else r1), r2, r3

        expected = septic_pipeline(F(3, 10), CTX)[2].permutation_index
        monkeypatch.setattr(lostnotebook, "cubic_roots", widened)
        assert septic_pipeline(F(3, 10), CTX)[2].permutation_index == expected


def _orderings_by_seventh_roots(state, roots) -> list[int]:
    """The orderings whose (alpha^2 p/beta)^(1/7), (beta^2 p/gamma)^(1/7) and
    (gamma^2 p/alpha)^(1/7) overlap (u, v, w): the rule by roots, as an oracle."""
    found = []
    for idx, (a, b, c) in enumerate(itertools.permutations(roots)):
        try:
            sides = [pow_rational(ipow(x, 2) * state.p / y, F(1, 7)) for x, y in ((a, b), (b, c), (c, a))]
        except DomainError:
            continue
        if all(s.overlaps(t) for s, t in zip(sides, (state.u, state.v, state.w))):
            found.append(idx)
    return found


@pytest.mark.parametrize("bits", [64, 128, 512, 2048])
@pytest.mark.parametrize("q", [Q7] + [F(k, 20) for k in range(1, 17)], ids=str)
def test_seventh_powers_pick_the_ordering_of_the_seventh_roots(q, bits):
    state, roots, assignment = septic_pipeline(q, PrecCtx(bits))
    assert _orderings_by_seventh_roots(state, roots) == [assignment.permutation_index]


@pytest.mark.parametrize("bits", [512, 2048])
@pytest.mark.parametrize("q", [Q7, QPoint(1, F(1, 100)), QPoint(1, F(3, 2)), QPoint(1, F(49))], ids=str)
def test_the_septic_powers_of_a_qpoint_are_its_seventh_root_r_as_r_r4_and_q_r2(q, bits):
    # one route for every nome: the three powers overlap the exact bookkeeping on r,
    # at most 8 units wide at the working scale
    wctx = PrecCtx(bits).work()
    _, roots = lostnotebook._uvw(q, wctx)
    for k, x in zip((1, 4, 9), roots):
        ref = q_power_ball(q, F(k, 7), wctx.bits)
        assert x.f == ref.f and x.overlaps(ref) and x.r <= 8, (k, x.r)


class TestCompletion:
    def test_complete_evaluation(self):
        result = complete_evaluation(PrecCtx(512))
        catalog = build_catalog()
        assert result.identity.rhs == catalog.get("ln7").rhs
        assert result.identity.lhs == catalog.get("ln7").lhs
        assert result.report.status == "verified"
        assert result.report.agreement_digits >= 100
        assert result.cos_pairs == ((1, 2), (2, 3), (3, 1))
        assert result.state.branch == "plus"

    def test_lhs_series_overlaps_closed_form(self):
        from thetaval.qseries import phi_series

        ctx = PrecCtx(512)
        result = complete_evaluation(ctx)
        lhs = phi_series(QPoint(1, F(343)), ctx) / phi_series(QPoint(1, F(7)), ctx)
        assert lhs.overlaps(eval_expr(result.identity.rhs, ctx))

    def test_misprint_fails(self):
        result = complete_evaluation(PrecCtx(512))
        rep = verify_identity(misprint_variant(result.identity), PrecCtx(512))
        assert rep.status == "unverified" and rep.agreement_digits < 5

    def test_misprint_requires_expected_shape(self):
        catalog = build_catalog()
        with pytest.raises(ValueError):
            misprint_variant(catalog.get("r3"))


def _ln7_term_tree(a: int, b: int) -> PowRat:
    """(cos(a pi/7) / (2 cos^2(b pi/7)))^(2/7), written out in constructors."""
    cos_b_squared = PowRat(CosPiRat(F(b, 7)), F(2))
    return PowRat(Div(CosPiRat(F(a, 7)), Mul(Int(2), cos_b_squared)), F(2, 7))


def test_the_ln7_templates_read_the_trees_written_out_in_constructors():
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            assert ln7_cos_term(a, b) == _ln7_term_tree(a, b)
    for pairs in (((1, 2), (2, 3), (3, 1)), ((3, 1), (1, 2), (2, 3))):
        t1, t2, t3 = (_ln7_term_tree(a, b) for a, b in pairs)
        tree = Mul(PowRat(Int(7), F(-3, 4)), Add(Int(1), Add(t1, Add(t2, t3))))
        assert ln7_rhs_from_terms(pairs) == tree
    t1, t2, t3 = (_ln7_term_tree(a, b) for a, b in ((1, 2), (2, 3), (3, 1)))
    assert build_catalog().get("ln7").rhs == Mul(PowRat(Int(7), F(-3, 4)), Add(Int(1), Add(t1, Add(t2, t3))))
    for k in (1, 2, 3):  # 1 / (2 cos(k pi/7))^2
        assert lostnotebook._cos_root_expr(k) == PowRat(Mul(Int(2), CosPiRat(F(k, 7))), F(-2))

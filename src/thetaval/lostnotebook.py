"""The septic system behind the completed evaluation of phi(e^(-7 pi sqrt 7)).

Pipeline: compute u, v, w and p = uvw, verify the recorded relations,
solve the quadratic for phi^4(q)/phi^4(q^7) (branch chosen against a
series oracle, never hard-coded), solve the cubic r(xi) with certified
disjoint root enclosures, search all six root orderings for the unique
one reproducing (u, v, w), and emit the resulting closed-form identity
in catalog shape together with a machine-checked verification report.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import (
    BothRootsMatch,
    ComplexRootsDetected,
    EvaluationError,
    MultiplePermutationsMatch,
    NoPermutationMatches,
    NoRootMatches,
    RootsNotSeparable,
)
from .exact import (
    Identity,
    Int,
    Mul,
    PowRat,
    catalog_entry,
    eval_expr,
    ln7_rhs_from_terms,
    parse_expr,
    verify_identity,
)
from .precision import Ball, PrecCtx, Record, _ceil_div, _refuse_nonpositive, certify, ipow, sqrt
from .qseries import QPoint, as_q_ball, chi, nome_pow, phi, q_power_ball, theta_f
from .qseries import require_positive_nome

__all__ = [
    "SepticState",
    "RootAssignment",
    "CompletionResult",
    "compute_uvw",
    "compute_p",
    "verify_quartic_relation",
    "septic_residuals",
    "solve_ratio4",
    "ratio4_series_oracle",
    "build_septic_state",
    "cubic_roots",
    "assign_roots",
    "septic_pipeline",
    "complete_evaluation",
    "misprint_variant",
]


class SepticState(Record):
    """Everything the septic system knows at one nome q (a QPoint or an exact
    Fraction): p, u, v, w, ratio4 = phi^4(q) / phi^4(q^7), the cubic's
    (c2, c1, c0) of xi^3 + c2 xi^2 + c1 xi + c0, and the quadratic branch
    that matched the oracle."""

    __slots__ = ("q", "p", "u", "v", "w", "ratio4", "cubic", "branch")


class RootAssignment(Record):
    """The roots as alpha, beta, gamma, and the permutation's lexicographic
    index over the ascending-sorted roots."""

    __slots__ = ("alpha", "beta", "gamma", "permutation_index")


class CompletionResult(Record):
    """The completed evaluation; cos_pairs holds (numerator k, denominator k)
    per term."""

    __slots__ = ("identity", "report", "state", "roots", "assignment", "cos_pairs")


def _uvw(q, wctx: PrecCtx) -> tuple[tuple[Ball, Ball, Ball], tuple[Ball, Ball, Ball]]:
    """(u, v, w) and their powers q^(1/7), q^(4/7), q^(9/7) at the working context
    wctx, the powers of every nome from one r = q^(1/7) as r, r^4 and q r^2."""
    f = wctx.bits
    r = q_power_ball(q, Fraction(1, 7), f)
    roots = (r, ipow(r, 4), as_q_ball(q, f) * (r * r))
    den, ab = phi(nome_pow(q, 7), wctx), ((5, 9), (3, 11), (1, 13))  # 2 q^(k/7) f(q^a, q^b) / den
    parts = [theta_f(q_power_ball(q, a, f), q_power_ball(q, b, f), wctx) for a, b in ab]
    return tuple((x * 2) * t / den for x, t in zip(roots, parts)), roots


def compute_uvw(q, ctx: PrecCtx) -> tuple[Ball, Ball, Ball]:
    """u = 2 q^(1/7) f(q^5,q^9)/phi(q^7), and the q^(4/7), q^(9/7) mates."""
    require_positive_nome(q, "the septic system")
    return tuple(x.rescale(ctx.bits) for x in _uvw(q, ctx.work())[0])


def compute_p(q, ctx: PrecCtx) -> Ball:
    """p = uvw = 8 q^2 chi(q) / chi(q^7)^7, with chi(q) = (-q; q^2)_inf."""
    require_positive_nome(q, "the septic system")
    w = ctx.work()
    qb = as_q_ball(q, w.bits)
    den = ipow(chi(nome_pow(q, 7), w), 7)
    return ((qb * qb * 8) * chi(q, w) / den).rescale(ctx.bits)


def ratio4_series_oracle(q, ctx: PrecCtx) -> Ball:
    """phi^4(q)/phi^4(q^7) from the theta values themselves, phi(q) and phi(q^7)
    each by its route and memo, independent of the quadratic it checks."""
    w = ctx.work()
    return ipow(phi(q, w) / phi(nome_pow(q, 7), w), 4).rescale(ctx.bits)


def verify_quartic_relation(q, ctx: PrecCtx) -> Ball:
    """Residual of R^2 - (2+5p) R + (1-p)^3 with R from `ratio4_series_oracle`."""
    return septic_residuals(q, ctx)[2]


def septic_residuals(q, ctx: PrecCtx) -> tuple[Ball, Ball, Ball]:
    """The residuals p - uvw, 1 + u + v + w - phi(q^(1/7))/phi(q^7) and the
    quartic relation at q, with p and q^(1/7) computed once, at the working scale."""
    require_positive_nome(q, "the septic system")
    work = ctx.work()
    uvw, roots = _uvw(q, work)
    u, v, w = (x.rescale(ctx.bits) for x in uvw)
    p, ratio = compute_p(q, work), ratio4_series_oracle(q, work)
    quot = phi(roots[0], work) / phi(nome_pow(q, 7), work)
    quartic = ipow(ratio, 2) - (p * 5 + 2) * ratio + ipow(Ball.one(work.bits) - p, 3)
    return (
        p.rescale(ctx.bits) - u * v * w,
        (Ball.one(ctx.bits) + u + v + w) - quot,
        quartic.rescale(ctx.bits),
    )


def solve_ratio4(p: Ball, q, ctx: PrecCtx) -> tuple[Ball, str]:
    """Pick the quadratic root x^2 - (2+5p)x + (1-p)^3 = 0 that matches the
    series value of phi^4(q)/phi^4(q^7).

    Returns (root, branch) with branch in {"plus", "minus", "double"}.
    Root selection is always by numeric comparison, never a fixed branch.
    """
    fw = ctx.work().bits
    one = Ball.one(fw)
    pw = p.rescale(fw)
    b = pw * 5 + 2
    disc = ipow(b, 2) - ipow(one - pw, 3) * 4
    if disc.m == 0 and disc.r == 0:
        return (b.half().rescale(ctx.bits), "double")
    _refuse_nonpositive(disc, "quadratic discriminant enclosure is not positive")
    root = sqrt(disc)
    x_plus = ((b + root).half()).rescale(ctx.bits)
    x_minus = ((b - root).half()).rescale(ctx.bits)
    oracle = ratio4_series_oracle(q, ctx)
    hit_plus = x_plus.overlaps(oracle)
    hit_minus = x_minus.overlaps(oracle)
    if hit_plus and hit_minus:
        if x_plus.overlaps(x_minus):  # genuinely coincident roots
            return Ball.hull(x_plus, x_minus), "double"
        raise BothRootsMatch("both quadratic roots overlap the series oracle")
    if hit_plus:
        return x_plus, "plus"
    if hit_minus:
        return x_minus, "minus"
    raise NoRootMatches("neither quadratic root overlaps the series oracle")


def build_septic_state(q, ctx: PrecCtx) -> SepticState:
    """The state at ctx.work(), rounded once to ctx.bits."""
    work = ctx.work()
    u, v, w = compute_uvw(q, work)
    p = compute_p(q, work)
    ratio4, branch = solve_ratio4(p, q, work)
    c2, c1, c0 = (p * 3 + 1 - ratio4) * 2, ipow(p, 2) * (p + 4), -ipow(p, 4)
    p, u, v, w, ratio4, c2, c1, c0 = (x.rescale(ctx.bits) for x in (p, u, v, w, ratio4, c2, c1, c0))
    return SepticState(q, p, u, v, w, ratio4, (c2, c1, c0), branch)


# ---------------------------------------------------------------------------
# certified cubic roots


def _float_cubic_roots(c2: float, c1: float, c0: float) -> list[float]:
    """Seeds for the three real roots of xi^3 + c2 xi^2 + c1 xi + c0."""
    p = c1 - c2 * c2 / 3.0
    qd = 2.0 * c2**3 / 27.0 - c2 * c1 / 3.0 + c0
    disc = -4.0 * p**3 - 27.0 * qd * qd
    if disc <= 0.0:
        raise ComplexRootsDetected("cubic does not have three distinct real roots")
    m = 2.0 * math.sqrt(-p / 3.0)
    theta = math.acos(max(-1.0, min(1.0, 3.0 * qd / (p * m)))) / 3.0
    return [m * math.cos(theta - 2.0 * math.pi * k / 3.0) - c2 / 3.0 for k in range(3)]


def _poly(x: Ball, c2: Ball, c1: Ball, c0: Ball) -> Ball:
    return ((x + c2) * x + c1) * x + c0


def cubic_roots(state: SepticState, ctx: PrecCtx) -> tuple[Ball, Ball, Ball]:
    """Three certified, pairwise disjoint real-root enclosures, ascending.

    From each float seed, Newton runs on the coefficients' integer midpoints,
    one step per scale g as g doubles from 52 bits to fw = ctx.bits + 48.  One
    interval cubic at the Newton point x sizes the one bracket x +- delta,
    delta = 2 ceil((|p(x)| + rad p(x)) / |p'(x)|) + 2 units at fw.  A sign change
    of the interval cubic across each of three disjoint brackets leaves every
    cubic inside the coefficient balls one root in each.  A derivative of 0 or
    no sign change is `RootsNotSeparable`, so `certify` tries more bits.
    """
    f, fw = ctx.bits, ctx.bits + 48
    c2, c1, c0 = (c.rescale(fw) for c in state.cubic)
    seeds = _float_cubic_roots(c2.to_float(), c1.to_float(), c0.to_float())
    enclosures = []
    for seed in sorted(seeds):
        g, x = 52, round(math.ldexp(seed, 52))
        while True:
            a2, a1, a0 = (c.m >> (fw - g) for c in (c2, c1, c0))
            px = ((((x + a2) * x >> g) + a1) * x >> g) + a0
            dp = ((3 * x + 2 * a2) * x >> g) + a1
            if dp == 0:
                raise RootsNotSeparable("the cubic's derivative is 0 at a Newton point")
            x -= (px << g) // dp
            if g == fw:
                break
            x, g = x << (min(2 * g, fw) - g), min(2 * g, fw)
        px = _poly(Ball(x, 0, fw), c2, c1, c0)
        delta = 2 * _ceil_div((abs(px.m) + px.r) << fw, abs(dp)) + 2  # p' one step back
        rl, rh = (_poly(Ball(x + d, 0, fw), c2, c1, c0) for d in (-delta, delta))
        if not (rl.is_strictly_negative() and rh.is_strictly_positive()
                or rl.is_strictly_positive() and rh.is_strictly_negative()):
            raise RootsNotSeparable("could not certify a sign change around a root")
        enclosures.append(Ball(x, delta, fw))
    enclosures.sort(key=lambda b: b.m)
    for a, b in itertools.combinations(enclosures, 2):
        if a.overlaps(b):
            raise RootsNotSeparable("certified root enclosures overlap")
    return tuple(e.rescale(f) for e in enclosures)


def assign_roots(
    state: SepticState, roots: tuple[Ball, Ball, Ball], ctx: PrecCtx
) -> RootAssignment:
    """Find the unique ordering (alpha, beta, gamma) of the roots for which
    alpha^2 p / beta, beta^2 p / gamma and gamma^2 p / alpha overlap u^7, v^7
    and w^7.  Each ordering divides by every root, so a root enclosure that
    holds 0 raises `DivisorStraddlesZero`, and more bits decide."""
    p, sevenths = state.p, [ipow(x, 7) for x in (state.u, state.v, state.w)]
    matches = []
    for idx, (a, b, c) in enumerate(itertools.permutations(roots)):
        sides = (ipow(a, 2) * p / b, ipow(b, 2) * p / c, ipow(c, 2) * p / a)
        if all(side.overlaps(x) for side, x in zip(sides, sevenths)):
            matches.append(RootAssignment(a, b, c, idx))
    if not matches:
        raise NoPermutationMatches("no root ordering reproduces (u, v, w)")
    if len(matches) > 1:
        raise MultiplePermutationsMatch(
            f"{len(matches)} root orderings reproduce (u, v, w)"
        )
    return matches[0]


def septic_pipeline(q, ctx: PrecCtx) -> tuple[SepticState, tuple[Ball, Ball, Ball], RootAssignment]:
    """State, certified roots and the unique assignment; enclosures too wide to
    separate branches, roots or permutations run it again through `certify`."""

    def attempt(bits: int):
        at = PrecCtx(bits)
        state = build_septic_state(q, at)
        roots = cubic_roots(state, at)
        return state, roots, assign_roots(state, roots, at)

    return certify(attempt, ctx.bits)[0]


def _cos_root_expr(k: int):
    """1 / (2 cos(k pi/7))^2 as an exact expression, read from its text."""
    return parse_expr(f"(2 * cospi({k}/7))^(-2)")


def complete_evaluation(ctx: PrecCtx) -> CompletionResult:
    """Run the whole pipeline at q = e^(-pi/sqrt 7) and emit the completed
    identity for phi(e^(-7 pi sqrt 7)) / phi(e^(-pi sqrt 7)).

    The cubic roots are identified with 1/(2 cos(k pi/7))^2 numerically,
    the winning permutation dictates the cosine indices of the emitted
    terms, and the emitted right side is verified against the theta
    quotient; nothing is copied from a known answer.
    """
    q = QPoint(1, Fraction(1, 7))
    state, roots, assignment = septic_pipeline(q, ctx)
    if not state.p.contains(1):
        raise EvaluationError("ln7", "p does not contain 1 at q = e^(-pi/sqrt 7)")
    if not state.ratio4.contains(7):
        raise EvaluationError("ln7", "phi^4 ratio does not contain 7")
    # identify each certified root with its cosine closed form
    root_k: dict[int, int] = {}
    for k in (1, 2, 3):
        val = eval_expr(_cos_root_expr(k), ctx)
        hits = [i for i, r in enumerate(roots) if r.overlaps(val)]
        if len(hits) != 1:
            raise EvaluationError("ln7", f"root {k} identification is ambiguous")
        root_k[hits[0]] = k
    if len(root_k) != 3:
        raise EvaluationError("ln7", "cosine forms do not exhaust the roots")
    perm = list(itertools.permutations(range(3)))[assignment.permutation_index]
    k_alpha, k_beta, k_gamma = (root_k[i] for i in perm)
    # u = (alpha^2 p/beta)^(1/7) = (cos(k_beta pi/7) / (2 cos^2(k_alpha pi/7)))^(2/7)
    pairs = ((k_beta, k_alpha), (k_gamma, k_beta), (k_alpha, k_gamma))
    ordered = tuple(sorted(pairs))
    rhs = ln7_rhs_from_terms(ordered)
    ln7 = catalog_entry("ln7")
    identity = Identity(ln7.id, ln7.lhs, rhs, ln7.provenance)
    report = verify_identity(identity, ctx)
    return CompletionResult(identity, report, state, roots, assignment, ordered)


def misprint_variant(identity: Identity) -> Identity:
    """The same identity with the 7^(-3/4) prefactor misprinted as 7^(3/4)."""
    rhs = identity.rhs
    if not (
        isinstance(rhs, Mul)
        and isinstance(rhs.left, PowRat)
        and rhs.left.base == Int(7)
    ):
        raise ValueError("identity does not carry the expected prefactor")
    flipped = Mul(PowRat(Int(7), -rhs.left.exponent), rhs.right)
    return Identity(identity.id + "_misprint", identity.lhs, flipped, identity.provenance)

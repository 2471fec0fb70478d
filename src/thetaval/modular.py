"""The modular toolbox around phi: the x <-> q <-> z correspondence.

Covers the hypergeometric z = 2F1(1/2,1/2;1;x) = phi(q)^2 link, the nome
map and its closed-form inverse, the duplication / dimidiation / change of
sign substitutions, multipliers, singular moduli, class invariants, and
numeric verifiers for the degree-3 pair, the degree-15 equation, Yi's
h-quotients and product theorem, and the JIMS series identity.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, NotConvergent, PreconditionViolated
from .precision import Ball, PrecCtx, Record, WorkCtx, agm, as_fraction, exp, ipow, pow_rational
from .precision import _ceil_div, _cos_sin, _pi_ball, _refuse_nonpositive, sqrt
from .qseries import QPoint, _term_limit, as_q_ball, class_invariant, disc_theta, nome_neg, nome_pow
from .qseries import phi, require_positive_nome

__all__ = [
    "ModularTriple",
    "ModulusPair",
    "YiQuotient",
    "SqrtTerm",
    "ModularEquation",
    "DEGREE3_PRIMARY",
    "modulus_pair",
    "hyp2f1_half",
    "hyp2f1_half_series",
    "nome",
    "modulus_from_q",
    "triple_from_x",
    "transform",
    "multiplier",
    "singular_modulus_sq",
    "class_invariant",
    "verify_degree3",
    "degree_relation_residual",
    "verify_degree15",
    "yi_h",
    "yi_product_theorem",
    "jims_identity",
]


# ---------------------------------------------------------------------------
# hypergeometric and nome


def _hyp_raw(x: Ball, w: WorkCtx) -> Ball:
    """2F1(1/2,1/2;1;x) = 1 / agm(1, sqrt(1-x)) on (0, 1) at the working
    context w, unrounded; exact 1 at x = 0."""
    x, one = x.rescale(w.bits), Ball.one(w.bits)
    if x.m == 0 and x.r == 0:
        return one
    comp = one - x
    for side in (x, comp):  # a side of positive radius reaching 0 is Undecided
        _refuse_nonpositive(side, "hyp2f1_half requires an enclosure inside (0, 1)")
    return one / agm(one, sqrt(comp), w)


def hyp2f1_half(x: Ball, ctx: PrecCtx) -> Ball:
    """Complete-elliptic route for 2F1(1/2, 1/2; 1; x)."""
    return _hyp_raw(x, ctx.work()).rescale(ctx.bits)


def hyp2f1_half_series(x: Ball, ctx: PrecCtx) -> Ball:
    """Direct hypergeometric series, usable as an independent oracle for
    x <= 0.7 (the term ratio is then bounded by 0.7)."""
    fw = ctx.work().bits
    x = x.rescale(fw)
    if 100 * x.sup_units() > 71 << fw:
        raise DomainError("series route restricted to x <= 0.7")
    if x.m - x.r < 0:
        raise DomainError("series route requires x >= 0")
    acc = Ball.one(fw)
    t = Ball.one(fw)
    n = 0
    for _ in range(8 * fw + 64):
        t = ((t * x) * (2 * n + 1) ** 2).div_int((2 * n + 2) ** 2)
        acc = acc + t
        n += 1
        if t.sup_units() <= 2:
            break
    tail = _ceil_div(5 * t.sup_units(), 2) + 1  # ratio <= 0.71: tail <= 2.5 t
    return Ball(acc.m, acc.r + tail, fw).rescale(ctx.bits)


def nome(x: Ball, ctx: PrecCtx) -> Ball:
    """q(x) = exp(-pi * 2F1(.., 1-x) / 2F1(.., x))."""
    w = ctx.work()
    x = x.rescale(w.bits)
    quotient = _hyp_raw(Ball.one(w.bits) - x, w) / _hyp_raw(x, w)
    return exp(-(_pi_ball(w.bits) * quotient)).rescale(ctx.bits)


def modulus_from_q(q, ctx: PrecCtx) -> Ball:
    """Closed-form nome inversion x = 1 - (phi(-q)/phi(q))^4, 0 < q < 1."""
    w = ctx.work()
    require_positive_nome(q, "modulus_from_q")
    ratio = phi(nome_neg(q), w) / phi(q, w)
    return (Ball.one(w.bits) - ipow(ratio, 4)).rescale(ctx.bits)


# ---------------------------------------------------------------------------
# the (x, q, z) triple and its three substitutions


class ModularTriple(Record):
    """A triple satisfying z = 2F1(1/2,1/2;1;x) = phi(q)^2 (q possibly signed)."""

    __slots__ = ("x", "q", "z")


class ModulusPair(Record):
    """Degree-n pair of moduli-squared with its multiplier m = phi^2(q)/phi^2(q^n)."""

    __slots__ = ("alpha", "beta", "n", "m")


def triple_from_x(x: Ball, ctx: PrecCtx) -> ModularTriple:
    return ModularTriple(
        x.rescale(ctx.bits), nome(x, ctx), hyp2f1_half(x, ctx)
    )


def transform(t: ModularTriple, kind: str, ctx: PrecCtx) -> ModularTriple:
    """Apply duplication, dimidiation or change_of_sign to a triple."""
    fw = ctx.work().bits
    x, q, z = t.x.rescale(fw), t.q.rescale(fw), t.z.rescale(fw)
    one = Ball.one(fw)
    if kind == "duplication":
        s = sqrt(one - x)
        x2 = ipow((one - s) / (one + s), 2)
        q2 = q * q
        z2 = (z * (one + s)).half()
    elif kind == "dimidiation":
        _refuse_nonpositive(x, "dimidiation requires x > 0")
        _refuse_nonpositive(q, "dimidiation requires a positive nome")
        s = sqrt(x)
        x2 = (s * 4) / ipow(one + s, 2)
        q2 = sqrt(q)
        z2 = z * (one + s)
    elif kind == "change_of_sign":
        _refuse_nonpositive(one - x, "change_of_sign requires x < 1")
        x2 = x / (x - one)
        q2 = -q
        z2 = z * sqrt(one - x)
    else:
        raise ValueError(f"unknown transform {kind!r}")
    return ModularTriple(x2.rescale(ctx.bits), q2.rescale(ctx.bits), z2.rescale(ctx.bits))


# ---------------------------------------------------------------------------
# multipliers, singular moduli, class invariants


def multiplier(q, n: int, ctx: PrecCtx) -> Ball:
    """m = phi(q)^2 / phi(q^n)^2."""
    if n < 1:
        raise DomainError("multiplier degree must be a positive integer")
    w = ctx.work()
    return ipow(phi(q, w) / phi(nome_pow(q, n), w), 2).rescale(ctx.bits)


def singular_modulus_sq(n, ctx: PrecCtx) -> Ball:
    """alpha_n: the modulus-squared attached to the nome e^(-pi sqrt(n))."""
    n = Fraction(n)
    if n <= 0:
        raise DomainError("singular modulus index must be positive")
    return modulus_from_q(QPoint(1, n), ctx)


# ---------------------------------------------------------------------------
# degree-3 modular equation pair, with the reciprocal rewrite as data


class SqrtTerm(Record):
    """coef * sqrt(alpha^e1 (1-alpha)^e2 beta^e3 (1-beta)^e4)."""

    __slots__ = ("coef", "exps")


class ModularEquation(Record):
    """m_coef * m^m_pow = sum of square-root terms in alpha and beta."""

    __slots__ = ("degree", "m_coef", "m_pow", "terms")

    def reciprocal(self) -> "ModularEquation":
        """Swap alpha -> 1-beta, beta -> 1-alpha, m -> degree/m."""
        new_terms = tuple(
            SqrtTerm(t.coef, (t.exps[3], t.exps[2], t.exps[1], t.exps[0]))
            for t in self.terms
        )
        return ModularEquation(
            self.degree,
            self.m_coef * self.degree**self.m_pow,
            -self.m_pow,
            new_terms,
        )

    def residual(self, alpha: Ball, beta: Ball, m: Ball, ctx: PrecCtx) -> Ball:
        fw = ctx.work().bits
        one = Ball.one(fw)
        factors = (
            alpha.rescale(fw),
            one - alpha.rescale(fw),
            beta.rescale(fw),
            one - beta.rescale(fw),
        )
        lhs = ipow(m.rescale(fw), self.m_pow) * self.m_coef
        rhs = Ball(0, 0, fw)
        for term in self.terms:
            num = one
            den = one
            for base, e in zip(factors, term.exps):
                if e > 0:
                    num = num * ipow(base, e)
                elif e < 0:
                    den = den * ipow(base, -e)
            rhs = rhs + sqrt(num / den) * term.coef
        return (lhs - rhs).rescale(ctx.bits)


DEGREE3_PRIMARY = ModularEquation(
    degree=3,
    m_coef=1,
    m_pow=2,
    terms=(
        SqrtTerm(1, (-1, 0, 1, 0)),  # sqrt(beta/alpha)
        SqrtTerm(1, (0, -1, 0, 1)),  # sqrt((1-beta)/(1-alpha))
        SqrtTerm(-1, (-1, -1, 1, 1)),  # -sqrt(beta(1-beta)/(alpha(1-alpha)))
    ),
)


def modulus_pair(q, n: int, ctx: PrecCtx) -> ModulusPair:
    """The degree-n pair at a nome: beta is *defined* as the modulus-squared
    of q^n, so the printed degree-n relations become checkable residuals."""
    alpha = modulus_from_q(q, ctx)
    beta = modulus_from_q(nome_pow(q, n), ctx)
    return ModulusPair(alpha, beta, n, multiplier(q, n, ctx))


def verify_degree3(q, ctx: PrecCtx) -> tuple[Ball, Ball]:
    """Residuals of the degree-3 multiplier equation and its reciprocal;
    both must contain 0."""
    pair = modulus_pair(q, 3, ctx.work())
    r1 = DEGREE3_PRIMARY.residual(pair.alpha, pair.beta, pair.m, ctx)
    r2 = DEGREE3_PRIMARY.reciprocal().residual(pair.alpha, pair.beta, pair.m, ctx)
    return r1, r2


def degree_relation_residual(q, n: int, ctx: PrecCtx) -> Ball:
    """n * F(1-alpha)/F(alpha) - F(1-beta)/F(beta) with beta from q^n."""
    w = ctx.work()
    one = Ball.one(w.bits)
    alpha = modulus_from_q(q, w)
    beta = modulus_from_q(nome_pow(q, n), w)
    lhs = (_hyp_raw(one - alpha, w) / _hyp_raw(alpha, w)) * n
    rhs = _hyp_raw(one - beta, w) / _hyp_raw(beta, w)
    return (lhs - rhs).rescale(ctx.bits)


# ---------------------------------------------------------------------------
# degree 15 and the Yi quotients


def verify_degree15(q, ctx: PrecCtx) -> Ball:
    """Residual of PQ + 5/PQ = (Q/P)^2 + 3(Q/P) + 3(P/Q) - (P/Q)^2
    with P = phi(q)/phi(q^5) and Q = phi(q^3)/phi(q^15)."""
    w = ctx.work()

    def _phi_pow(k: int) -> Ball:
        return phi(nome_pow(q, k), w)

    p = _phi_pow(1) / _phi_pow(5)
    qq = _phi_pow(3) / _phi_pow(15)
    pq = p * qq
    ratio = qq / p
    inv = p / qq
    lhs = pq + Ball.from_fraction(5, w.bits) / pq
    rhs = ipow(ratio, 2) + ratio * 3 + inv * 3 - ipow(inv, 2)
    return (lhs - rhs).rescale(ctx.bits)


class YiQuotient(Record):
    """h_{k,n} (or the primed variant on -e^(-2 pi sqrt(.)) nomes)."""

    __slots__ = ("k", "n", "primed")

    def __init__(self, k, n, primed: bool = False):
        k, n = as_fraction(k), as_fraction(n)
        if k <= 0 or n <= 0:
            raise DomainError("Yi quotient parameters must be positive")
        Record.__init__(self, k, n, primed)


def yi_h(hq: YiQuotient, ctx: PrecCtx) -> Ball:
    """h_{k,n} = phi(e^(-pi sqrt(n/k))) / (k^(1/4) phi(e^(-pi sqrt(n k)))),
    with nomes -e^(-2 pi sqrt(.)) for the primed variant."""
    w = ctx.work()
    k, n = hq.k, hq.n
    if hq.primed:
        num = phi(QPoint(-1, 4 * n / k), w)
        den = phi(QPoint(-1, 4 * n * k), w)
    else:
        num = phi(QPoint(1, n / k), w)
        den = phi(QPoint(1, n * k), w)
    kq = pow_rational(Ball.from_fraction(k, w.bits), Fraction(1, 4))
    return (num / (kq * den)).rescale(ctx.bits)


def yi_product_theorem(k, a, b, c, d, ctx: PrecCtx) -> Ball:
    """Residual of h_{a,b} h_{kc,kd} - h_{ka,kb} h_{c,d}, requiring ab = cd."""
    k, a, b, c, d = (as_fraction(v) for v in (k, a, b, c, d))
    if a * b != c * d:
        raise PreconditionViolated("the product theorem requires ab = cd")
    w = ctx.work()
    lhs = yi_h(YiQuotient(a, b), w) * yi_h(YiQuotient(k * c, k * d), w)
    rhs = yi_h(YiQuotient(k * a, k * b), w) * yi_h(YiQuotient(c, d), w)
    return (lhs - rhs).rescale(ctx.bits)


# ---------------------------------------------------------------------------
# the JIMS series identity


def jims_identity(x, ctx: PrecCtx) -> Ball:
    """Residual of
    1/2 + sum e^(-pi n^2 x) cos(pi n^2 sqrt(1-x^2))
      = (sqrt2 + sqrt(1+x)) / sqrt(1-x) * sum e^(-pi n^2 x) sin(...),
    for x inside (0, 1).  The sums are Re and Im of sum_{n>=1} w^(n^2), w =
    e^(-pi x) (cos t + i sin t), t = pi sqrt(1-x^2): 1 plus them is
    `disc_theta`'s wing of discs (1, w, w^2).  The kernel stops once its term
    has rounded to 0: it rounds each part of a disc toward zero, so that
    happens once |w|^((n-1)^2) is below a unit at scale f, after about
    sqrt(f ln 2/(pi x)) terms."""
    fw, refusal = ctx.work().bits, "jims_identity requires x inside (0, 1)"
    if not isinstance(x, Ball):  # an exact x is decided, and its terms counted, before rounding
        if not 0 < x < 1:
            raise DomainError(refusal)
        rate = math.pi * max(float(x), 1e-300)  # |w| = e^(-rate)
        n = int(math.sqrt(fw * math.log(2) / rate))
        cap = _term_limit(fw)
        if n > cap:
            raise NotConvergent(
                f"jims series needs at least {n} terms, more than its limit of {cap}"
            )
    xb, one = as_q_ball(x, fw), Ball.one(fw)
    for side in (xb, one - xb):  # an x rounding to, or a ball reaching, 0 or 1: more bits decide
        _refuse_nonpositive(side, refusal)
    pi = _pi_ball(fw)
    decay = exp(-(pi * xb))  # |w| = e^(-pi x)
    re, im = (decay * v for v in _cos_sin(pi * sqrt(one - xb * xb), fw))
    real, imag = disc_theta(re, im, fw)
    prefac = (sqrt(Ball.from_fraction(2, fw)) + sqrt(one + xb)) / sqrt(one - xb)
    residual = (real - one.half()) - prefac * imag
    return residual.rescale(ctx.bits)

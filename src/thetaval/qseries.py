"""Certified evaluation of Ramanujan's theta functions.

Provides f(a,b), phi, psi, f(-q) and chi.  The production route is the
defining series: phi, psi and f(-q) sum O(sqrt(f/log(1/|q|))) terms, and
chi(q) = phi(q)/f(q) with f(q) = f(-(-q)).  The infinite q-Pochhammer
products (Berndt, Ramanujan's Notebooks III, Ch. 16 Entry 22), which need
O(f/log(1/|q|)) factors, are kept as the independent oracle for the tests
and for theta_f's Jacobi triple product.  Each series is 1 plus one or two
wings sum_{k>=1} t_k, t_(k+1) = t_k rho_k and rho_(k+1) = rho_k c, summed by
one kernel on plain integers with a counted rounding error, which also sums
the complex JIMS series as a wing of discs on Gaussian integers.  Every
truncation is covered by a proven tail bound, never assumed from a term
count, and the kernel's ratio test is every series' one |q| < 1 rule.
phi, psi, f(-q) and chi each take their kind's route in `_SERIES` through
`_theta`, cached per exact nome by `_theta_exact`: the series, or for a
QPoint nome near 1 its dual nome by the Jacobi imaginary transformation
(`_DUAL_ROWS`), where the series need a few terms.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, FactorNearZero, NotConvergent
from .precision import GUARD_BITS, Ball, PrecCtx, WorkCtx, as_fraction, check_power_size, ipow
from .precision import Record, _pi_ball, _refuse_nonpositive, _round_div, exp, memo, nth_root
from .precision import pow_rational

__all__ = [
    "QPoint",
    "pochhammer_inf",
    "theta_f",
    "disc_theta",
    "phi",
    "phi_series",
    "psi",
    "psi_series",
    "f_neg",
    "f_neg_series",
    "chi",
    "class_invariant",
    "as_q_ball",
    "q_power_ball",
    "nome_pow",
    "nome_neg",
    "require_positive_nome",
]


class QPoint(Record):
    """Structured nome q = sign * exp(-pi * sqrt(r)) with exact rational r > 0."""

    __slots__ = ("sign", "r")

    def __init__(self, sign: int, r):
        if sign not in (1, -1):
            raise DomainError("QPoint sign must be +1 or -1")
        r = as_fraction(r)
        if r <= 0:
            raise DomainError("QPoint exponent parameter r must be positive")
        Record.__init__(self, sign, r)

    def pow(self, k) -> "QPoint":
        """q**k by exact bookkeeping on r; fractional k needs sign = +1."""
        k = as_fraction(k)
        if k <= 0:
            raise DomainError("QPoint powers must be positive")
        if k.denominator != 1 and self.sign == -1:
            raise DomainError("fractional powers of a negative nome are rejected")
        sign = self.sign if k.numerator % 2 else 1
        return QPoint(sign, self.r * k * k)

    def to_ball(self, ctx: PrecCtx) -> Ball:
        return _qpoint_ball(self.sign, self.r, ctx.bits)


def _square_out(s: int, p: int) -> tuple[int, int]:
    """(t, c) with s = c^2 t, c a power of p and p^2 not dividing t, in
    O(log v) divisions for p^v dividing s, by recursing on p^2."""
    if s % (p * p):
        return s, 1
    t, c = _square_out(s // (p * p), p * p)
    if t % (p * p):
        return t, c * p
    return t // (p * p), c * p * p


def _nome_class(r: Fraction) -> tuple[int, Fraction]:
    """(a, r0) with r = a^2 r0 for an integer a >= 1 and r0 = s/b^2, gcd(a, b) = 1.

    With r = n/d, sqrt(r) = sqrt(n d)/d.  The square c^2 in n d = c^2 s is
    taken out by trial division by p^2 for the primes p < 50 and one isqrt
    test of the rest; then a/b = c/d in lowest terms.  s need not be
    squarefree: it only decides how many nomes share a base.
    """
    n, d = r.numerator, r.denominator
    s, c = n * d, 1
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        s, cp = _square_out(s, p)
        c *= cp
    root = math.isqrt(s)
    if root * root == s:
        s, c = 1, c * root
    g = math.gcd(c, d)
    return c // g, Fraction(s, (d // g) ** 2)


def _exp_pi_sqrt_log2(t: Fraction, bits: int) -> float:
    """log2 exp(pi sqrt t), refused past the power limit of bits."""
    lg = math.pi / math.log(2) * math.sqrt(min(t, 10**300))
    check_power_size(1, lg, bits)
    return lg


@memo
def _nome_base(t: Fraction, sign: int, fw: int) -> Ball:
    """exp(sign pi sqrt(t)) at the working scale fw, the one place that forms
    one: a class base or a dual B (sign -1), a dual row's factor, or a class
    invariant's q^(-1/24).  For sign +1 a value past the power limit of the
    requested bits fw - GUARD_BITS is refused before it is formed.

    sqrt(t) = sqrt(s)/b for b the denominator of t and s = b^2 t: the floor
    of sqrt(s) 2^fw is off by below one unit, so below 1/b after the division
    by b, and the division rounds by at most 1/2 (none for b = 1): sqrt(t)
    is within one unit at fw, however small t is.
    """
    if sign > 0:
        _exp_pi_sqrt_log2(t, fw - GUARD_BITS)
    s, b = t.numerator * t.denominator, t.denominator
    root = Ball(_round_div(math.isqrt(s << 2 * fw), b)[0], 1, fw)
    return exp(_pi_ball(fw) * root * sign)


@memo
def _nome_exp(r: Fraction, f: int) -> Ball:
    """exp(-pi sqrt(r)) at scale f: x^a for the class base x = exp(-pi sqrt(r0))
    at fw = f + GUARD_BITS, r = a^2 r0 (`_nome_class`); for a = 1 that is x.

    A product of balls in [-1, 1] is off by its factors' errors plus 2 units,
    so x^a is off by below a (rho + 2) units at fw for x off by rho.  For
    r0 >= 1/16, x <= 1/2 and every product halves the errors it carries, so
    x^a stays within rho + 6 units for any a.  For r0 < 1/16, sqrt(r0) is
    off by below one unit (`_nome_base`) and pi by at most 2, so pi sqrt(r0)
    by at most ceil(pi + 2/4) + 1 = 5 units, and x, as exp' <= 1 there, by
    rho <= 7 with exp's own rounding: for a < 2^27 the power is off by under
    9 a < 2^31 units and the rescale to f adds at most one unit; any other
    r takes its own exp.
    """
    a, r0 = _nome_class(r)
    if 16 * r0 < 1 and a >= 2**27:
        a, r0 = 1, r
    return ipow(_nome_base(r0, -1, f + GUARD_BITS), a).rescale(f)


def _qpoint_ball(sign: int, r: Fraction, f: int) -> Ball:
    """sign exp(-pi sqrt(r)): the cached `_nome_exp`, negated for sign -1, so
    the nomes of a class and the QPoints of `nome_pow` share one exp of their
    class base, and q and -q one power of it."""
    ball = _nome_exp(r, f)
    return -ball if sign == -1 else ball


def as_q_ball(q, f: int) -> Ball:
    """Enclosure of a nome given as QPoint, Ball, Fraction or int."""
    if isinstance(q, QPoint):
        return _qpoint_ball(q.sign, q.r, f)
    if isinstance(q, Ball):  # a finer nome too: the kernel reads its wings at scale f
        return q.rescale(f)
    return Ball.from_fraction(q, f)


def nome_pow(q, k):
    """q**k, kept exact where it can be: bookkeeping on r for a QPoint, the
    exact power of a rational for integer k, a certified power of a Ball."""
    k = as_fraction(k)
    if isinstance(q, QPoint):
        return q.pow(k)
    if isinstance(q, Ball):
        return ipow(q, k.numerator) if k.denominator == 1 else pow_rational(q, k)
    if k.denominator == 1:
        return as_fraction(q) ** k.numerator
    raise DomainError("fractional powers of a plain rational nome need a ball")


def nome_neg(q):
    """-q; the negative of a QPoint stays a QPoint."""
    return QPoint(-q.sign, q.r) if isinstance(q, QPoint) else -q


def require_positive_nome(q, what: str) -> None:
    """Raise DomainError unless the nome q is known to lie in (0, 1); a ball
    reaching 0 or 1 by its radius alone is `Undecided` (`_refuse_nonpositive`)."""
    refusal = f"{what} requires a nome 0 < q < 1"
    if isinstance(q, Ball):
        for side in (q, 1 - q):
            _refuse_nonpositive(side, refusal)
    elif not (q.sign == 1 if isinstance(q, QPoint) else 0 < as_fraction(q) < 1):
        raise DomainError(refusal)


def q_power_ball(q, k, f: int) -> Ball:
    """Enclosure of q**k at scale f by `nome_pow`; a fractional power of a
    rational nome is taken of its enclosure at scale f."""
    k = as_fraction(k)
    if k.denominator != 1 and not isinstance(q, (QPoint, Ball)):
        q = as_q_ball(q, f)
    return as_q_ball(nome_pow(q, k), f)


# ---------------------------------------------------------------------------
# q-Pochhammer products


def _pochhammer_raw(a: Ball, q: Ball, fw: int) -> Ball:
    """(a; q)_inf at working scale fw with a certified product tail.

    The dropped factors k >= K satisfy
    |log prod| <= |a||q|^K / ((1 - |a||q|^K)(1 - |q|)).
    """
    a = a.rescale(fw)
    q = q.rescale(fw)
    if not q.mag_lt_one():  # no kernel here to refuse it
        raise NotConvergent("|q| enclosure must lie strictly below 1")
    qmag = q.mag_upper()
    amag = a.mag_upper()
    one = Ball.one(fw)
    if amag.m == 0:
        return one
    # heuristic factor count, then rigorous verification of the tail bound
    qf, af = qmag.to_float(), amag.to_float()
    if qf <= 0.0:
        count = 1
    else:
        count = (
            int(
                (fw + 8 + max(0.0, math.log2(af)) - math.log2(1.0 - qf))
                / -math.log2(qf)
            )
            + 4
        )
    tail_units = None
    for _ in range(8):
        mk = amag * ipow(qmag, count)
        if 2 * mk.sup_units() < 1 << fw:
            bound = mk / ((one - mk) * (one - qmag))
            if bound.sup_units() <= 64:  # <= 2^-(fw-7); fw carries GUARD_BITS
                tail_units = 2 * bound.sup_units() + 1
                break
        count *= 2
    if tail_units is None:
        raise NotConvergent("could not certify the q-product tail")
    prod = one
    aq = a
    for _ in range(count):
        factor = one - aq
        if factor.contains_zero():
            raise FactorNearZero("1 - a q^k cannot be bounded away from zero")
        prod = prod * factor
        aq = aq * q
    # remaining factors lie in [e^-L, e^L] with L <= 64 ulps: e^L - 1 <= 2L
    return prod * Ball(1 << fw, tail_units, fw)


def pochhammer_inf(a: Ball, q: Ball, ctx: PrecCtx) -> Ball:
    """Certified enclosure of the infinite product (a; q)_inf."""
    return _pochhammer_raw(a, q, ctx.work().bits).rescale(ctx.bits)


# ---------------------------------------------------------------------------
# the series: f(a, b), phi, psi and f(-q) share one integer kernel


class _Gauss:
    """A Gaussian integer, a disc's midpoint; an int operand, by .real and .imag, is one
    too.  abs is |real| + |imag| <= sqrt2 |z|; >> rounds each part toward zero."""

    __slots__ = ("real", "imag")

    def __init__(self, real: int, imag: int):
        self.real, self.imag = real, imag

    def __add__(self, z):
        return _Gauss(self.real + z.real, self.imag + z.imag)

    def __mul__(self, z):
        a, b, c, d = self.real, self.imag, z.real, z.imag
        return _Gauss(a * c - b * d, a * d + b * c)

    def __rshift__(self, k: int):
        a, b = self.real, self.imag
        return _Gauss(a >> k if a >= 0 else -(-a >> k), b >> k if b >= 0 else -(-b >> k))

    def __abs__(self) -> int:
        return abs(self.real) + abs(self.imag)

    __radd__, __rmul__ = __add__, __mul__


def _term_limit(f: int) -> int:
    return 8 * f + 64  # the most terms `_theta_wings` sums in one wing at scale f


def _drop(x, e: int, k: int):
    """(x >> k, its error) for x known to e units: ceil(e 2^-k) + 1, or + 2 for a disc."""
    return x >> k, -(-e >> k) + (2 if type(x) is _Gauss else 1)


def _theta_wings(wings, f: int):
    """(S, err, tail, n) for the sum over wings of sum_{k>=1} t_k at scale f.

    A wing (t1, rho1, c) of Balls at scale f with sup|c| < 1 has the terms
    t_(k+1) = t_k rho_k and the ratios rho_(k+1) = rho_k c, formed on the
    midpoints as floored integer products.  The terms stay at scale f, and
    rho and c at a scale g that falls with the terms: once bits(t) + 32 lies
    256 bits or more below g, both are floored to that scale, an error of e
    units becoming ceil(e 2^-s) + 1 for a shift by s, and both products of a
    term are about bits(t) wide rather than f.  (A smaller drop would not pay
    for its shifts: below a few hundred bits, a product costs about the same
    at any width.)  A product of x and y, known to e_x and e_y units, is off
    by (|x| e_y + |y| e_x + e_x e_y) 2^-g, floored, plus 2 units for the two
    floors; err sums these over the kept terms.  A wing stops at the n-th
    term once sup|t_n| <= 2 and sup|rho_n| <= 1/2 (2^(g-1) units): |rho|
    keeps shrinking by sup|c|, so each dropped term is at most half the one
    before and the wing's tail is at most sup|t_n|.  A wing whose floored
    term is 0 before that, with sup|rho_n| < 1, stops too, its tail at most
    ceil(sup|t_n| / (1 - sup|rho_n|)): a ratio c near 1 would otherwise sum
    terms that add nothing but their 2 error units until |rho| falls below
    about 1/3.  `tail` sums these bounds and n is the longest wing's term
    count.  A wing of discs (`_Gauss`) has the same rules on the modulus,
    and a _Gauss S; a shift rounds each part toward zero, below sqrt2 units
    off, so it counts 2 units where a floor counts 1, and a term below a unit
    becomes 0.  A real wing whose terms share the sign of t1 < 0 is summed
    negated, so its floored terms settle at 0 instead of -1.
    """
    one, limit = 1 << f, _term_limit(f)
    s = err = tail = n_max = 0
    for t1, rho1, c in wings:
        cm, ec = c.m, c.r
        ac = abs(cm)
        # the one |q| < 1 rule of every series: c is q^2, q, q^3 or ab, and a
        # rounded Ball product of factors of sup >= 1 has sup >= 2^f units
        if ac + ec >= one:
            raise NotConvergent("theta series ratio must lie strictly below 1")
        sign = -1 if isinstance(t1.m, int) and t1.m < 0 <= min(rho1.m, cm) else 1
        # the rounded product, below 1 unit or a disc's sqrt2, and the floored error bound
        product_units = 3 if _Gauss in (type(t1.m), type(rho1.m), type(cm)) else 2
        t, et, rho, er = sign * t1.m, t1.r, rho1.m, rho1.r
        at, arho = abs(t), abs(rho)
        acc, e, n, g = t, et, 1, f
        low = 1 << (g - 288) if g > 288 else 0  # |t| below it: drop to bits(t) + 32
        # on until sup|t| <= 2 and sup|rho| <= 1/2, or until t = 0 and sup|rho| < 1
        while (at + et > 2 or 2 * (arho + er) > 1 << g) and (at or arho + er >= 1 << g):
            if n > limit:
                raise NotConvergent("theta series failed to reach its tail target")
            if at < low:
                k = g - at.bit_length() - 32
                g -= k
                (rho, er), (cm, ec) = _drop(rho, er, k), _drop(cm, ec, k)
                arho, ac = abs(rho), abs(cm)
                low = 1 << (g - 288) if g > 288 else 0
            t, et = (t * rho) >> g, ((at * er + arho * et + et * er) >> g) + product_units
            rho, er = (rho * cm) >> g, ((arho * ec + ac * er + er * ec) >> g) + product_units
            at, arho = abs(t), abs(rho)
            acc += t
            e += et
            n += 1
        s += sign * acc
        err += e
        if at + et <= 2 and 2 * (arho + er) <= 1 << g:
            tail += at + et
        else:  # the terms vanished first
            tail += -(-(at + et << g) // ((1 << g) - arho - er))
        n_max = max(n_max, n)
    return s, err, tail, n_max


def disc_theta(re: Ball, im: Ball, f: int) -> tuple[Ball, Ball]:
    """Re and Im of 1 + sum_{n>=1} w^(n^2), radius err + tail, for w = re + i im at
    scale f: the wing of discs (1, w, w^2), w^2 by the kernel's product rule for discs."""
    w = Ball(_Gauss(re.m, im.m), re.r + im.r, f)
    w2 = Ball((w.m * w.m) >> f, ((2 * abs(w.m) + w.r) * w.r >> f) + 3, f)
    s, err, tail, _ = _theta_wings([(Ball(_Gauss(1 << f, 0), 0, f), w, w2)], f)
    return Ball(s.real, err + tail, f), Ball(s.imag, err + tail, f)


def _theta_sum(wings, ctx: PrecCtx, scale: int = 1) -> Ball:
    """1 + scale * (the wing sums), the wings given at scale ctx.work().bits."""
    fw = ctx.work().bits
    s, err, tail, _ = _theta_wings(wings, fw)
    return Ball((1 << fw) + scale * s, scale * (err + tail), fw).rescale(ctx.bits)


def theta_f(a: Ball, b: Ball, ctx: PrecCtx) -> Ball:
    """Certified enclosure of sum_n a^(n(n+1)/2) b^(n(n-1)/2), |ab| < 1:
    the wings (a, a ab, ab) for n >= 1 and (b, b ab, ab) for n <= -1."""
    fw = ctx.work().bits
    a = a.rescale(fw)
    b = b.rescale(fw)
    ab = a * b
    return _theta_sum([(a, a * ab, ab), (b, b * ab, ab)], ctx)


# ---------------------------------------------------------------------------
# special cases: phi, psi, f(-q), chi


def _theta(kind: str, q, ctx: PrecCtx) -> Ball:
    """kind(q) by its route in `_SERIES`, memoised by `_theta_exact` on the
    working scale for an exact nome (QPoint, Fraction or int), so a direct
    call and one inside a composite share an entry; a Ball nome is summed
    every time."""
    if isinstance(q, (QPoint, Fraction, int)):
        return _theta_exact(kind, q, ctx.work().bits).rescale(ctx.bits)
    return _SERIES[kind][0](q, ctx)


def _takes_dual(kind: str, q, f: int) -> bool:
    """Whether kind(q) at the working scale f goes through its dual nome: a
    QPoint nome near 1, by kind's crossover in `_SERIES`."""
    _, w, t = _SERIES[kind]
    bits = f - GUARD_BITS  # requested
    below = (math.log(2) / (math.pi * w * t * t)) ** 2 * bits**2
    return isinstance(q, QPoint) and q.r < 1 and float(q.r) <= below


@memo
def _theta_exact(kind: str, q, f: int) -> Ball:
    """kind(q) at the exact nome q and the working scale f by its series, or
    for a QPoint nome near 1 through its dual nome (`_dual_value`)."""
    if _takes_dual(kind, q, f):
        return _dual_value(kind, q, WorkCtx(f))
    return _SERIES[kind][0](q, WorkCtx(f))


def phi(q, ctx: PrecCtx) -> Ball:
    """phi(q) = sum q^(n^2) by its series (oracle: (-q; q^2)^2 (q^2; q^2))."""
    return _theta("phi", q, ctx)


def phi_series(q, ctx: PrecCtx) -> Ball:
    """Series route 1 + 2 sum_{n>=1} q^(n^2), the wing (q, q^3, q^2)."""
    qb = as_q_ball(q, ctx.work().bits)
    q2 = qb * qb
    return _theta_sum([(qb, q2 * qb, q2)], ctx, 2)


def psi(q, ctx: PrecCtx) -> Ball:
    """psi(q) = sum_{n>=0} q^(n(n+1)/2) by its series (oracle: (q^2; q^2)/(q; q^2))."""
    return _theta("psi", q, ctx)


def psi_series(q, ctx: PrecCtx) -> Ball:
    """Series route 1 + sum_{n>=1} q^(n(n+1)/2), the wing (q, q^2, q)."""
    qb = as_q_ball(q, ctx.work().bits)
    return _theta_sum([(qb, qb * qb, qb)], ctx)


def f_neg(q, ctx: PrecCtx) -> Ball:
    """f(-q) by the pentagonal series (oracle: (q; q)_inf)."""
    return _theta("f_neg", q, ctx)


def f_neg_series(q, ctx: PrecCtx) -> Ball:
    """Pentagonal-number series sum (-1)^n q^(n(3n-1)/2) = f(-q, -q^2), whose
    `theta_f` wings are (-q, -q^4, q^3) and (-q^2, -q^5, q^3)."""
    qb = as_q_ball(q, ctx.work().bits)
    return theta_f(-qb, -(qb * qb), ctx)


def _chi_series(q, ctx: PrecCtx) -> Ball:
    # phi(q) = (-q; q^2)^2 (q^2; q^2) and f(q) = (-q; -q) = (-q; q^2)(q^2; q^2);
    # chi shares phi's crossover, so phi(q) here is phi's own memoised series
    w = ctx.work()
    return (phi(q, w) / f_neg_series(nome_neg(q), w)).rescale(ctx.bits)


def chi(q, ctx: PrecCtx) -> Ball:
    """chi(q) = phi(q)/f(q) by the series (oracle: (-q; q^2)_inf)."""
    return _theta("chi", q, ctx)


@memo
def _two_to_minus_quarter(fw: int) -> Ball:
    """2^(-1/4) at the working scale fw."""
    return pow_rational(Ball.from_fraction(2, fw), Fraction(-1, 4))


def class_invariant(n, ctx: PrecCtx) -> Ball:
    """G_n = 2^(-1/4) q^(-1/24) chi(q) at q = e^(-pi sqrt(n)).

    q^(-1/24) is taken from the exact exponent, never from a root of the tiny
    nome enclosure, and refused first past the power limit.  With n = a^2 r0
    (`_nome_class`) it is (1/x)^(a/24) for the class base x = e^(-pi sqrt(r0))
    that chi's nome reads at fw = w + GUARD_BITS: x's error of a few units is
    a relative one 1/x times as large, the power takes a/24 of it and the
    value q^(-1/24) times that, so log2(1/x) + log2(q^(-1/24)) + log2(a/24)
    bits are lost at most; the route is taken while they fit GUARD_BITS - 8,
    and past that exp(pi sqrt(n/576)) comes from `_nome_base`.
    """
    n = as_fraction(n)
    if n <= 0:
        raise DomainError("class invariant index must be positive")
    w = ctx.work()
    lg = _exp_pi_sqrt_log2(n / 576, w.requested)  # log2 q^(-1/24)
    a, r0 = _nome_class(n)
    if lg * (24 / a) + lg + math.log2(a) - math.log2(24) <= GUARD_BITS - 8:
        x = _nome_base(r0, -1, w.bits + GUARD_BITS)
        q_pow = pow_rational(Ball.one(x.f) / x, Fraction(a, 24))
    else:
        q_pow = _nome_base(n / 576, 1, w.bits)
    return (_two_to_minus_quarter(w.bits) * q_pow * chi(QPoint(1, n), w)).rescale(ctx.bits)


# ---------------------------------------------------------------------------
# QPoint nomes near 1: the Jacobi imaginary transformation


# With q_x = exp(-pi sqrt x), s = sqrt r and B = exp(-pi/(24 s)) = q_(1/(576 r)),
# the dual nomes q_(1/r), q_(4/r) and q_(16/r) are B^24, B^48 and B^96.  The
# row (c, p, a, b, series) of (kind, sign) is the identity (Berndt,
# Ramanujan's Notebooks III, Ch. 16, Entry 27)
#     kind(sign q_r) = (c r^p)^(1/4) exp(pi (a s + b/s)) prod fn(+-B^|k|)^e
# over its series (fn, k, e), the nome -B^|k| for k < 0.  Every row is a
# product: none divides by a tiny value or takes the root of one (the chi
# rows divide by f(-+B^k), which is near 1).
_DUAL_ROWS = {
    ("phi", 1): (Fraction(1), -1, 0, 0, ((phi_series, 24, 1),)),
    ("phi", -1): (Fraction(16), -1, 0, Fraction(-1, 4), ((psi_series, 48, 1),)),
    ("psi", 1): (Fraction(1, 4), -1, Fraction(1, 8), 0, ((phi_series, -48, 1),)),
    ("psi", -1): (Fraction(1), -1, Fraction(1, 8), Fraction(-1, 8), ((psi_series, -24, 1),)),
    ("f_neg", 1): (Fraction(4), -1, Fraction(1, 24), Fraction(-1, 6), ((f_neg_series, 96, 1),)),
    ("f_neg", -1): (Fraction(1), -1, Fraction(1, 24), Fraction(-1, 24), ((f_neg_series, -24, 1),)),
    ("chi", 1): (
        Fraction(1), 0, Fraction(-1, 24), Fraction(1, 24),
        ((phi_series, 24, 1), (f_neg_series, -24, -1)),
    ),
    ("chi", -1): (
        Fraction(4), 0, Fraction(-1, 24), Fraction(-1, 12),
        ((psi_series, 48, 1), (f_neg_series, 96, -1)),
    ),
}

# Each kind's route: kind -> (series, w, T).  The direct series needs about
# sqrt(f ln 2 / (pi w sqrt r)) terms, w = 1, 1/2, 3/2 and 1 for phi, psi,
# f(-q) and chi.  A QPoint nome with r < 1 takes its row once that count
# reaches T, i.e. once r <= (f ln 2 / (pi w T^2))^2.  A row costs the exp
# of B, all but phi's rows one more exp, and a few products; a direct term
# costs two products (f(-q): two wings).  Timed cold at 512-4096 bits, the
# row is faster from about 28-38 terms for phi, 62-80 for psi and 35-50 for
# f(-q), so T is 28, 64 and 40.  chi takes phi's (1, 28), so it sums its
# series only where phi sums its own, and reads that phi from the memo;
# between 28 and 32 terms its row cost 0.93-1.30 times its series.  At 512
# bits phi and chi reduce for r <= 0.021, psi for r <= 0.003 and f(-q) for
# r <= 0.002; at 2048 bits phi at r = 1/1000 sums 4 terms instead of about 120.
_SERIES = {
    "phi": (phi_series, 1, 28),
    "psi": (psi_series, 0.5, 64),
    "f_neg": (f_neg_series, 1.5, 40),
    "chi": (_chi_series, 1, 28),
}


def _dual_value(kind: str, q: QPoint, ctx: PrecCtx) -> Ball:
    """kind(q) for a QPoint nome q = sign q_r by its `_DUAL_ROWS` row."""
    c, p, a, b, series = _DUAL_ROWS[kind, q.sign]
    r = q.r
    x = a * r + b  # exp(pi (a s + b/s)) = exp(+-pi sqrt t), t = x^2 / r
    # guard bits for the factors that scale every error: (c/r)^(1/4) for p = -1, and
    # M = exp(pi sqrt t) for x > 0 (chi(+q_r) near 1), whose power limit is that of the
    # requested bits, so a huge chi(q) is refused before the raised scale could pass it
    guard = p and max(0, r.denominator.bit_length() - r.numerator.bit_length()) // 4
    if a and x > 0:
        guard += int(_exp_pi_sqrt_log2(x * x / r, ctx.requested))
    fw = ctx.work().bits + guard
    big_b = _nome_base(1 / (576 * r), -1, fw)
    alg = c * r**p
    val = nth_root(Ball.from_fraction(alg, fw), 4) if alg != 1 else Ball.one(fw)
    if a:
        val = val * _nome_base(x * x / r, 1 if x > 0 else -1, fw)
    elif b:
        val = val * ipow(big_b, int(-24 * b))
    for fn, k, e in series:
        nome = ipow(big_b, abs(k))
        term = fn(nome if k > 0 else -nome, WorkCtx(fw))
        val = val * term if e > 0 else val / term
    return val.rescale(ctx.bits)

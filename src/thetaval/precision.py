"""Certified midpoint-radius (ball) arithmetic on dyadic fixed-point integers.

A :class:`Ball` stores an integer mantissa ``m``, a nonnegative integer
radius ``r`` and a scale ``f``; it encloses every real number in
``[(m - r) * 2**-f, (m + r) * 2**-f]``.  Every operation rounds the
midpoint by at most one unit in the last place and folds that rounding,
together with the propagated input radii and any series truncation bound,
into the output radius.  Enclosures are therefore certified by
construction; nothing relies on a library's "usually correctly rounded"
promise.

Binary operations between balls work at the finer of the two scales
(coarser operands are rescaled exactly), and `sqrt`, `nth_root`, `exp`,
`log`, `cos`, `sin` and `pow_rational` at the scale of their argument, so
precision is set where leaf values are created, normally from a
:class:`PrecCtx`.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import (
    DivisorStraddlesZero,
    DomainError,
    EnclosureReachesBoundary,
    PowerTooLarge,
    Undecided,
    UnsupportedGammaArgument,
)
from .record import Record, as_fraction

__all__ = [
    "Record",
    "PrecCtx",
    "WorkCtx",
    "GUARD_BITS",
    "Ball",
    "ball_arith",
    "elementary",
    "const_pi",
    "agm",
    "gamma_rational",
    "exp",
    "log",
    "sqrt",
    "nth_root",
    "cos",
    "sin",
    "ipow",
    "check_power_size",
    "pow_rational",
    "agreement_digits",
    "decimal_str",
    "rad_exponent",
    "D_TARGET_DIGITS",
    "rad_shortfall",
    "certify",
    "CACHE_ENTRIES",
    "memo",
]


# The one cache rule: every memo table is an lru_cache of a pure function of
# (value, scale), at most CACHE_ENTRIES entries each, so a loop over distinct
# nomes, trees or precisions cannot grow memory without bound; a full table
# drops its least recently used entry (hundreds of CLI commands fill the tree
# and theta tables).  cache_info() gives the hits and misses.
CACHE_ENTRIES = 1024
memo = functools.lru_cache(maxsize=CACHE_ENTRIES)


# The one guard rule: a function given ctx works at ctx.work(), GUARD_BITS
# above it, and rounds once to ctx.bits; a WorkCtx's work() is itself, so a
# call tree carries the guard once.  Kernel-local guards (exp, trig, pi) stay.
GUARD_BITS = 32


class PrecCtx(Record):
    """Requested precision in bits; a call tree works at `work()`."""

    __slots__ = ("bits",)

    def __init__(self, bits: int = 512):
        if bits < 64:
            raise ValueError("requested precision must be at least 64 bits")
        Record.__init__(self, bits)

    @property
    def requested(self) -> int:
        return self.bits  # the precision asked for; it sets the power limit

    def work(self) -> "WorkCtx":
        return WorkCtx(self.bits + GUARD_BITS)


class WorkCtx(PrecCtx):
    """A working context: its bits already carry the guard."""

    __slots__ = ()

    @property
    def requested(self) -> int:
        return self.bits - GUARD_BITS

    def work(self) -> "WorkCtx":
        return self


# ---------------------------------------------------------------------------
# integer helpers


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _round_shift(v: int, s: int) -> tuple[int, int]:
    """Round v / 2**s to nearest; returns (quotient, 0-or-1 error units)."""
    if s <= 0:
        return v << (-s), 0
    err = 0 if v & ((1 << s) - 1) == 0 else 1
    return (v + (1 << (s - 1))) >> s, err


def _ceil_shift(v: int, s: int) -> int:
    if s <= 0:
        return v << (-s)
    return (v + (1 << s) - 1) >> s


def _round_div(a: int, b: int) -> tuple[int, int]:
    """Round a / b (b != 0) to nearest; returns (quotient, 0-or-1 error).

    One long division: 2a + b = 2b q + rem, and a / b is exact (q) just
    when rem = b."""
    if b < 0:
        a, b = -a, -b
    q, rem = divmod(2 * a + b, 2 * b)
    return q, 0 if rem == b else 1


# roots below 2^40 start from a float, good to 2^-6 units, and their exact
# powers are short enough to test the floor directly
_FLOAT_ROOT_BITS = 40
# a fourth root above this many bits takes Newton, below it isqrt of isqrt:
# timed on random radicands, Newton is 2% slower at 1400 bits, 2% faster at
# 1450, 19% at 2112 and 35% at 4165
_ISQRT4_ROOT_BITS = 1450


def _pow_trunc(y: int, k: int, p: int) -> tuple[int, int]:
    """(m, e) with m 2^e <= y^k < m 2^e (1 + 2^(1-p))^(k-1), for 0 < y < 2^p.

    A left-to-right binary power chain that floors each product to its top
    p bits.  A cut floors v >= 2^p to v' >= 2^(p-1), so v < v' (1 + 2^(1-p)).
    Of the L = bit_length(k) - 1 steps, the cuts after the square and after
    the product by y of step i each enter y^k 2^(L-i) times, the second one
    only for a 1 bit: all cuts enter (2^L - 1) + (k - 2^L) = k - 1 times.
    """
    if y.bit_length() * k <= p:  # no product reaches p bits: no cuts
        return y**k, 0
    m, e = y, 0
    for bit in bin(k)[3:]:
        m = m * m
        cut = max(m.bit_length() - p, 0)
        m, e = m >> cut, 2 * e + cut
        if bit == "1":
            m *= y
            cut = max(m.bit_length() - p, 0)
            m, e = m >> cut, e + cut
    return m, e


def _root_near(n: int, k: int, b: int, g: int) -> int:
    """The k-th root of n < 2^(k b), k >= 3, within about k 2^(3-2g) units:
    one Newton step from the root of n >> k t, t = b/2 - g (see `_iroot`)."""
    if b <= _FLOAT_ROOT_BITS:  # log2 is off by below b k 2^-52, so the root by b 2^-52
        return int(2 ** (math.log2(n) / k))
    t = b // 2 - g
    x0 = _root_near(n >> (k * t), k, b - t, 3 + k.bit_length() // 2)
    m, e = _pow_trunc(x0, k - 1, b + 32 + k.bit_length())
    newton = (((k - 1) * x0) << (t + 32)) + (n << 32 >> (e + t * (k - 1))) // m
    return newton // k >> 32


def _floor_certified(n: int, k: int, s: int, p: int) -> bool:
    """Whether the chain of s^k at p bits proves s^k <= n < (s+1)^k (`_iroot`)."""
    m, e = _pow_trunc(s, k, p)
    return m + 4 * k <= n >> e < m + m * k // s


def _iroot(n: int, k: int) -> int:
    """Floor k-th root of n >= 0: the x with x**k <= n < (x+1)**k.

    k = 2 takes `math.isqrt` (in C), and so does k = 4, as isqrt of isqrt,
    for a root of at most `_ISQRT4_ROOT_BITS` bits, where that is faster
    than Newton.  Any other k takes Newton on the root's own bits (Brent and
    Zimmermann, Modern Computer Arithmetic, 1.5.2 and 4.2): for a root
    r < 2^b, `_root_near` steps from y = x0 2^t, x0 near the root of
    n >> k t, to ((k-1) y + n / y^(k-1)) / k at 32 fraction bits, y^(k-1)
    from the chain of x0^(k-1) at p = b + 32 + bit_length(k) bits
    (`_pow_trunc`), so n is read in one 2b-by-b-bit division.  For y within
    u 2^t of r, the step is off by about (k-1)/2 (u 2^t)^2 / r <=
    k u^2 2^(2t-b+1) units: t = b/2 - 16 leaves k 2^-29, so the step's floor
    s is the floor root unless r lies that close to an integer, and
    t = b/2 - 3 - bit_length(k)/2 in the steps below it leaves a unit.

    The floor test reads the chain m 2^e of s^k at p bits: as
    p >= bit_length(k) + 2, (1 + 2^(1-p))^(k-1) <= 1 + (k-1) 2^(2-p), and
    m < 2^p, so s^k < (m + 4k) 2^e <= n once m + 4k <= n >> e; by Bernoulli,
    (s+1)^k >= s^k (1 + k/s) >= (m + floor(m k / s)) 2^e > n once
    n >> e < m + floor(m k / s).  Only for n inside that band, as exact
    powers give or take one are, or for a root below 2^40, are the exact
    powers s^k and (s+1)^k compared and s stepped by one.
    """
    if n < 0 or k < 1:
        raise ValueError("negative radicand or root order below 1")
    if k in (1, 2) or k == 4 and n.bit_length() <= 4 * _ISQRT4_ROOT_BITS:
        while k > 1:
            n, k = math.isqrt(n), k >> 1
        return n
    if n.bit_length() <= k:  # 0 <= n < 2^k
        return min(n, 1)
    b = _ceil_div(n.bit_length(), k)  # 2 <= b, and the root is below 2^b
    s = _root_near(n, k, b, 16)
    if b > _FLOAT_ROOT_BITS and _floor_certified(n, k, s, b + 32 + k.bit_length()):
        return s
    while s**k > n:
        s -= 1
    while (s + 1) ** k <= n:
        s += 1
    return s


# ---------------------------------------------------------------------------
# the Ball type


class Ball:
    """Certified enclosure [(m-r)*2^-f, (m+r)*2^-f] of a real number."""

    __slots__ = ("m", "r", "f")

    def __init__(self, m: int, r: int, f: int):
        if r < 0:
            raise ValueError("radius must be nonnegative")
        self.m = m
        self.r = r
        self.f = f

    # -- constructors -------------------------------------------------

    @staticmethod
    def exact_int(k: int) -> "Ball":
        return Ball(k, 0, 0)

    @staticmethod
    def one(f: int) -> "Ball":
        return Ball(1 << f, 0, f)

    @staticmethod
    def from_fraction(x, bits: int) -> "Ball":
        """Round a Fraction (or int) to the given scale; radius <= 1 ulp."""
        x = as_fraction(x)
        m, err = _round_div(x.numerator << bits, x.denominator)
        return Ball(m, err, bits)

    @staticmethod
    def hull(a: "Ball", b: "Ball") -> "Ball":
        f = max(a.f, b.f)
        a, b = a.rescale(f), b.rescale(f)
        lo = min(a.m - a.r, b.m - b.r)
        hi = max(a.m + a.r, b.m + b.r)
        mid = (lo + hi) >> 1
        return Ball(mid, _ceil_div(hi - lo, 2) + 1, f)

    # -- inspection ---------------------------------------------------

    def rescale(self, f2: int) -> "Ball":
        s = self.f - f2
        if s <= 0:
            return self if s == 0 else Ball(self.m << -s, self.r << -s, f2)
        # the exact distance to the rounded midpoint: at most ceil(r/2^s) + 1
        m = (self.m + (1 << (s - 1))) >> s
        return Ball(m, _ceil_shift(abs(self.m - (m << s)) + self.r, s), f2)

    @property
    def mid(self) -> Fraction:
        return Fraction(self.m, 1 << self.f)

    @property
    def rad(self) -> Fraction:
        return Fraction(self.r, 1 << self.f)

    @property
    def lower(self) -> Fraction:
        return Fraction(self.m - self.r, 1 << self.f)

    @property
    def upper(self) -> Fraction:
        return Fraction(self.m + self.r, 1 << self.f)

    def contains(self, x) -> bool:
        x = Fraction(x)
        return abs(x.numerator * (1 << self.f) - self.m * x.denominator) <= (
            self.r * x.denominator
        )

    def overlaps(self, other: "Ball") -> bool:
        f = max(self.f, other.f)
        a, b = self.rescale(f), other.rescale(f)
        return abs(a.m - b.m) <= a.r + b.r

    def encloses(self, other: "Ball") -> bool:
        """True when the other enclosure lies entirely inside this one."""
        f = max(self.f, other.f)
        a, b = self.rescale(f), other.rescale(f)
        return a.m - a.r <= b.m - b.r and b.m + b.r <= a.m + a.r

    def contains_zero(self) -> bool:
        return abs(self.m) <= self.r

    def is_strictly_positive(self) -> bool:
        return self.m - self.r > 0

    def is_strictly_negative(self) -> bool:
        return self.m + self.r < 0

    def mag_upper(self) -> "Ball":
        """Exact point ball holding an upper bound of |self|."""
        return Ball(abs(self.m) + self.r, 0, self.f)

    def mag_lt_one(self) -> bool:
        return abs(self.m) + self.r < (1 << self.f)

    def sup_units(self) -> int:
        return abs(self.m) + self.r

    def to_float(self) -> float:
        s = self.m.bit_length() - 53
        try:
            if s > 0:
                return math.ldexp(self.m >> s, s - self.f)
            return math.ldexp(self.m, -self.f)
        except OverflowError:
            return math.inf if self.m > 0 else -math.inf

    def half(self) -> "Ball":
        return Ball(self.m, self.r, self.f + 1)

    def div_int(self, k: int) -> "Ball":
        m, err = _round_div(self.m, k)
        return Ball(m, _ceil_div(self.r, abs(k)) + err, self.f)

    # -- arithmetic ---------------------------------------------------

    def __neg__(self) -> "Ball":
        return Ball(-self.m, self.r, self.f)

    def _coerce(self, other):
        if isinstance(other, Ball):
            return other
        if isinstance(other, int):
            return Ball.exact_int(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        f = max(self.f, other.f)
        a, b = self.rescale(f), other.rescale(f)
        return Ball(a.m + b.m, a.r + b.r, f)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, int):  # exact integer scaling
            return Ball(self.m * other, self.r * abs(other), self.f)
        if not isinstance(other, Ball):
            return NotImplemented
        f = max(self.f, other.f)
        a, b = self.rescale(f), other.rescale(f)
        m, err = _round_shift(a.m * b.m, f)
        prop = abs(a.m) * b.r + abs(b.m) * a.r + a.r * b.r
        return Ball(m, _ceil_shift(prop, f) + err, f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        f = max(self.f, other.f)
        a, b = self.rescale(f), other.rescale(f)
        abs_b = abs(b.m)
        if abs_b <= b.r:
            if b.r == 0:  # an exact zero: no precision decides it
                raise DomainError("division by zero")
            raise DivisorStraddlesZero("divisor enclosure contains zero")
        q, err = _round_div(a.m << f, b.m)
        # the radius (r_a |b| + |a| r_b) / ((|b| - r_b) |b|) over the product of the
        # leading p bits of the divisor's two factors, at least (1 - 2^(2-p)) times
        # theirs: the radius grows by a relative 2^(3-p), below a unit as p passes its bits by 64
        num, lo = a.r * abs_b + abs(a.m) * b.r, abs_b - b.r
        p = 64 + max(0, num.bit_length() + f - lo.bit_length() - abs_b.bit_length() + 2)
        s, t = max(0, lo.bit_length() - p), max(0, abs_b.bit_length() - p)
        return Ball(q, _ceil_div(_ceil_shift(num, s + t - f), (lo >> s) * (abs_b >> t)) + err, f)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __repr__(self):
        return f"Ball({decimal_str(self, 12)} +/- {rad_exponent_str(self)})"


# ---------------------------------------------------------------------------
# powers and roots


def _refuse_nonpositive(x: Ball, message: str) -> None:
    """Refuse a ball that is not strictly positive: if exact or below 0 as a
    `DomainError`, which no precision decides, else as an `Undecided` one."""
    if not x.is_strictly_positive():
        decided = x.r == 0 or x.is_strictly_negative()
        raise (DomainError if decided else EnclosureReachesBoundary)(message)


def check_power_size(exponent, log2_base: float, f: int) -> None:
    """Refuse b**exponent for |log2 |b|| <= log2_base when its magnitude bound
    2**(|exponent| * log2_base) passes 2**(64 * max(f, 64)), the one limit
    of integer powers and folded constants, checked before multiplying."""
    limit = 64 * max(f, 64)
    if exponent == 0 or log2_base <= 0:
        return
    lg = math.log2(abs(exponent.numerator)) - math.log2(exponent.denominator)
    lg += math.log2(log2_base)
    if lg > math.log2(limit):
        raise PowerTooLarge(
            f"a power of magnitude up to 2^(2^{lg:.1f}) passes the limit of "
            f"2^{limit} at {f} bits"
        )


def ipow(x: Ball, k: int, bits: int | None = None) -> Ball:
    """x**k, refused past the power limit of `bits` (default: the scale of x)."""
    if k < 0:  # (1/x)^k below 1, where x^k would keep few bits at the scale; else 1/x^k
        if x.mag_lt_one():
            return ipow(Ball.one(x.f) / x, -k, bits)
        return Ball.one(x.f) / ipow(x, -k, bits)
    mag = x.sup_units()
    if mag >> x.f:  # |x| may reach 1, so x**k may grow
        check_power_size(k, math.log2(mag) - x.f, x.f if bits is None else bits)
    result, base = None, x
    while k:
        if k & 1:  # the first factor is taken as it is: 1 * base would be base
            result = base if result is None else result * base
        k >>= 1
        if k:
            base = base * base
    return Ball.one(x.f) if result is None else result


def sqrt(x: Ball) -> Ball:
    """Square root at the scale f of x."""
    f = x.f
    _refuse_nonpositive(x, "sqrt requires a strictly positive enclosure")
    s = math.isqrt(x.m << f)
    if x.r == 0:
        return Ball(s, 1, f)
    # the radius is r / (2 sqrt(lo)) over a lower bound of isqrt(lo << f), for
    # lo = m - r: isqrt((lo << f) >> 2k) << k is one, and it moves the
    # quotient by about r 2^k / lo units, below 2^-64 when k keeps lo 65 bits
    # above r and the short root at least 65 bits
    lo = x.m - x.r
    big = lo << f
    k = max(0, min(lo.bit_length() - x.r.bit_length(), big.bit_length() >> 1) - 65)
    slo = math.isqrt(big >> 2 * k) << k
    return Ball(s, _ceil_div(x.r << f, 2 * slo) + 1, f)


def nth_root(x: Ball, n: int) -> Ball:
    """n-th root at the scale f of x, of a strictly positive ball, or of a
    negative one for odd n.

    The midpoint s is the one floor root of m * 2**(f*(n-1)), so the root
    of m lies in [s, s + 1) units.  Above lo = m - r the root's derivative
    is at most lo**(1/n) / (n * lo) < (s + 1) / (n * lo), as lo <= m; so
    r * (s + 1) / (n * lo) + 1 units bound the radius without a second root
    at lo.  (`sqrt` takes a short root at lo, a lower bound in the
    denominator, from the top bits of lo alone.)
    """
    if n < 1:
        raise DomainError("root order must be positive")
    if n == 1:
        return x
    if n == 2:
        return sqrt(x)
    if x.is_strictly_negative() and n % 2 == 1:
        return -nth_root(-x, n)
    _refuse_nonpositive(x, "nth_root requires a strictly positive enclosure")
    s = _iroot(x.m << (x.f * (n - 1)), n)
    lo = x.m - x.r
    return Ball(s, _ceil_div(x.r * (s + 1), n * lo) + 1, x.f)


def pow_rational(x: Ball, e, bits: int | None = None) -> Ball:
    """x**(p/q) at the scale f of x.  Fractional exponents require a strictly
    positive base.

    Root orders up to 1000, radicands up to 2^26 bits, take the integer
    root, the faster route there by measurement; others exp(e log x).  As
    in `ipow`, a power past the limit of `bits` (default: f) is refused.
    """
    e = as_fraction(e)
    f, bits = x.f, x.f if bits is None else bits
    num, den = e.numerator, e.denominator
    if den == 1:
        return ipow(x, num, bits)
    _refuse_nonpositive(x, "fractional powers are defined for strictly positive bases only")
    fw = f + GUARD_BITS + abs(num).bit_length() + den.bit_length()
    if den > 1000 or den * fw > 1 << 26:
        lg = max(abs(math.log2(x.m + s * x.r) - x.f) for s in (-1, 1))
        check_power_size(e, lg, bits)
        return exp(log(x.rescale(fw)) * Ball.from_fraction(e, fw)).rescale(f)
    root = nth_root(x.rescale(fw), den)
    return ipow(root, num, bits).rescale(f)


# ---------------------------------------------------------------------------
# pi (Chudnovsky's series by binary splitting)

_CHUD_A, _CHUD_B, _CHUD_C3 = 13591409, 545140134, 640320**3


def _chud_bsplit(lo: int, hi: int) -> tuple[int, int, int]:
    """(P, Q, T) over the terms k in [lo, hi), lo >= 1: P = prod p(k),
    Q = prod q(k) and T/Q = sum_k (-1)^k (A + B k) prod_{lo <= j <= k} p/q(j),
    with p(k) = (6k-5)(2k-1)(6k-1) and q(k) = k^3 C^3 / 24."""
    if hi - lo == 1:
        p = (6 * lo - 5) * (2 * lo - 1) * (6 * lo - 1)
        t = p * (_CHUD_A + _CHUD_B * lo)
        return p, lo**3 * (_CHUD_C3 // 24), -t if lo & 1 else t
    mid = (lo + hi) // 2
    p1, q1, t1 = _chud_bsplit(lo, mid)
    p2, q2, t2 = _chud_bsplit(mid, hi)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


# pi is summed once per bucket of PI_BUCKET_BITS, at the bucket's top scale, and
# rounded down from there: pi at f then never depends on which scale came first
PI_BUCKET_BITS = 256


@memo
def _pi_bucket(g: int) -> tuple[int, int]:
    """pi * 2^g as (units, error units), by Chudnovsky's

        pi = 426880 sqrt(10005) / S,  S = sum_{k>=0} t_k,
        t_k = (-1)^k (6k)! (A + B k) / ((3k)! k!^3 C^(3k)),

    A = 13591409, B = 545140134, C = 640320 (Chudnovsky & Chudnovsky 1988).
    The terms k < n are summed exactly by binary splitting, at h = g + 8 bits.
    Three errors of under a unit each, as S > A > 426880 and pi < 4:

    * tail: the hypergeometric part of t_(k+1)/t_k is 24 p(k+1)/((k+1)^3 C^3)
      < 1728/C^3 < 2^-47, and (A + B(k+1))/(A + Bk) < 2 for k >= 1, so the
      term ratio is below 2^-46 and the omitted terms sum to at most
      2|t_n| < 2 (A + Bn) (1728/C^3)^n; n is the first count >= 2 with that
      below 2^-h;
    * `math.isqrt` floors sqrt(10005) 2^h, one unit off, times 426880/S < 1;
    * the final floored division is one more unit.

    Rounding the 3-unit ball to g costs nothing past one unit (`rescale`).
    """
    h = g + 8
    n, bound, c3n = 2, 1728**2 << (h + 1), _CHUD_C3**2
    while (_CHUD_A + _CHUD_B * n) * bound >= c3n:
        n, bound, c3n = n + 1, bound * 1728, c3n * _CHUD_C3
    _, q, t = _chud_bsplit(1, n)
    units = 426880 * math.isqrt(10005 << 2 * h) * q // (_CHUD_A * q + t)
    pi = Ball(units, 3, h).rescale(g)
    return pi.m, pi.r


def _pi_units(f: int) -> tuple[int, int]:
    """pi * 2^f as (units, error units): `_pi_bucket` at the top of the bucket
    of f, rounded to f, still within one unit."""
    g = -(-f // PI_BUCKET_BITS) * PI_BUCKET_BITS
    pi = Ball(*_pi_bucket(g), g).rescale(f)
    return pi.m, pi.r


def const_pi(ctx: PrecCtx) -> Ball:
    """Certified enclosure of pi at the context precision."""
    return _pi_ball(ctx.bits)


def _pi_ball(f: int) -> Ball:
    m, r = _pi_units(f)
    return Ball(m, r, f)


# ---------------------------------------------------------------------------
# exponential, logarithm, trigonometry


def _mul_shift(a: int, b: int, f: int) -> int:
    return (a * b) >> f  # the one full-width product of the series and doublings


def _series_units(x: int, f: int) -> tuple[int, int]:
    """(S, err) with |S - 2^f sum_{i>=0} X^i / (2i+1)!| <= err for X = x 2^-f,
    |X| <= 1, by rectangular splitting: sinh(t)/t at X = t^2, sin(t)/t at -t^2.

    For |X| < 2^-k the term ratio is at most 1/2, so N terms leave a tail
    below 2^(1-kN) / (2N+1)! <= 2^-f.  Powers X^r, r <= m ~ sqrt N, are
    floored products, r - 1 units off.  Horner runs over blocks of m terms
    on their common denominator D, H_j = (sum_r c_r X^r + X^m H_{j+1}) / D
    with c_r = prod_{jm+r < i <= jm+m} 2i(2i+1) <= D 6^-r, one product and one
    division each.  As every multiplier is at most 1 and H_{j+1} <= e, a block
    loses at most (sum_r c_r (r - 1) + err + 3m + 2) / D + 1 units, and
    sum_r c_r (r - 1) < D sum_r (r - 1) 6^-r = D/25.
    """
    k = f - abs(x).bit_length()  # |X| < 2^-k
    n, big_a = 1, 6
    while k * n + big_a.bit_length() < f + 2:
        n += 1
        big_a *= 2 * n * (2 * n + 1)
    m = max(2, math.isqrt(n))
    pw = [1 << f, x]
    for _ in range(m - 1):
        pw.append(_mul_shift(pw[-1], x, f))
    acc = err = 0
    for j in range(_ceil_div(n, m) - 1, -1, -1):
        c, t, i = 1, 0, 2 * (j * m + m)
        for p in pw[m - 1 :: -1]:
            c *= i * (i + 1)
            t += c * p
            i -= 2
        acc = (t + _mul_shift(pw[m], acc, f)) // c
        err = _ceil_div((c >> 4) + 1 + err + 3 * m + 2, c) + 1
    return acc, err + 1


def _odd_even(y: int, g: int, sign: int) -> tuple[int, int, int]:
    """(s, c, e): sinh Y, cosh Y (sign 1) or sin Y, cos Y (sign -1) at scale g,
    each within e units, for Y = y 2^-g, |Y| <= 1/2: s = y K(sign Y^2), where
    flooring y^2 (|K'| < 1) and the product by y cost a unit each, and
    c = sqrt(1 + sign s^2) one floor root and unit more, as |dc/ds| < 1."""
    k, err = _series_units(sign * _mul_shift(y, y, g), g)
    s = _mul_shift(y, k, g)
    return s, math.isqrt((1 << 2 * g) + sign * s * s), err + 3


def exp(x: Ball) -> Ball:
    """e^x at the scale f of x, rounded once.

    x is halved j times into |y| <= 2^-t, t = max(8, (4 fw)^(1/3)), fw = f + 16
    (none for an x that small), e^y = sinh y + cosh y taken at g = fw + j
    (`_odd_even`) and squared back on the integer midpoint v, known to e units:
    v <- floor(v^2 2^-g), e <- floor((2ve + e^2) 2^-g) + 2.  The input radius
    enters at y, where exp' <= e^t <= 1 + t + t^2 for t = max(0, sup y).
    """
    f = x.f
    # e^x < 2^-(f+2) once x <= -(f+2): return the certified sliver [0, 2^-f]
    if x.m + x.r <= -((f + 2) << x.f):
        return Ball(1, 1, f + 1)
    fw = f + 16
    xw = x.rescale(fw)
    j = max(0, xw.sup_units().bit_length() - fw + max(8, _iroot(4 * fw, 3)))
    g = fw + j
    s, c, err = _odd_even(xw.m, g, 1)
    top = max(0, xw.m + xw.r)
    v, e = s + c, 2 * err + xw.r + _ceil_shift(xw.r * top * ((1 << g) + top), 2 * g)
    for _ in range(j):  # v > 0
        v, e = (v * v) >> g, ((2 * v * e + e * e) >> g) + 2
    return Ball(v, e, g).rescale(f)


def log(x: Ball) -> Ball:
    """ln x at the scale f of x: ln v = L(v 2^m) - L(2^m) for L(s) = pi / (2 agm(1, k)),
    k = 4/s, where |ln s - L(s)| <= 4k^2 (8 + |ln k|) (Borwein & Borwein, Pi and the
    AGM, Thm 7.2), below (8 + n) 2^(2-2n) <= 2^-(f+8) for k <= 2^-n.  x in
    [2^(a-1), 2^b) and m = n + 3 + max(0, -a) keep every k below 2^-n.  L is taken
    at both ends of x, as ln is increasing, and each 4/(v 2^m) at W = max(f, 48) +
    16 + m + max(b, 0) bits keeps f + 16 bits, its relative error being L's error."""
    f = x.f
    _refuse_nonpositive(x, "log requires a strictly positive enclosure")
    n = (f + (f + 16).bit_length() + 11) // 2
    a, b = ((x.m + s * x.r).bit_length() - f for s in (-1, 1))
    m = n + 3 + max(0, -a)
    w = max(f, 48) + 16 + m + max(b, 0)
    one, pi, ctx, k = Ball.one(w), _pi_ball(w), PrecCtx(w), Ball(1 << (w + 2 - m), 0, w)

    def big_l(v: int) -> Ball:  # L(v 2^(m-f)); k is 4/2^m
        return pi / (agm(one, k / Ball(v, 0, f), ctx) * 2)

    lo = big_l(x.m - x.r)
    diff = (Ball.hull(lo, big_l(x.m + x.r)) if x.r else lo) - big_l(1 << f)
    return Ball(diff.m, diff.r + ((8 + n) << (w + 3 - 2 * n)), w).rescale(f)


TRIG_PI_GUARD = 128  # bits above f at which `_cos_sin` reads pi for |x| < 1, +64 per 64 bits of |x|


def _cos_sin(x: Ball, f: int) -> tuple[Ball, Ball]:
    """(cos x, sin x) at scale f, each rounded once.  x = k pi/2 + s on integers,
    pi at one scale per 64 bits of |x|: |s| <= pi/4 + 2^-80, off by e_in units
    (|k| pi's error, x's radius, a floor).  s is halved j times into |y| < 2^-t,
    t = bits(f + 16), sin y, cos y taken at g = f + 16 + j, plus t + 3 if j > 0,
    and cos doubled back by cos 2y = 2cos^2 y - 1, off by 4E + 3 for cos off by
    E while E^2 <= 2^g; then sin s = sqrt(1 - cos^2 s) by one root is off by
    E(2|cos| + E)/sin|s| + 1 <= 2^(t+3-j) E + 1, as |s| >= 2^(j-t-1).  e_in
    enters last, by |cos'| = |sin|, |sin'| = |cos|."""
    p = f + TRIG_PI_GUARD + 64 * ((x.sup_units() >> x.f).bit_length() // 64)
    pi, pi_err = _pi_units(p)  # pi/2 at the scale p + 1
    xr = x.rescale(p + 1)
    k = (2 * xr.m + pi) // (2 * pi)
    s = xr.m - k * pi
    t = (f + 16).bit_length()
    j = max(0, abs(s).bit_length() - p - 1 + t)
    h = f + 16 + (j and t + 3)
    g = h + j
    e_in = (_ceil_shift(abs(k) * pi_err + xr.r, p + 1 - h) + 1) << j  # units at g
    sv, cv, ec = _odd_even(s >> (p + 1 - h), g, -1)
    one, es = 1 << g, ec
    if j:
        for _ in range(j):  # one squaring each
            cv = _mul_shift(cv, cv, g - 1) - one
        ec = ((ec + 1) << 2 * j) - 1  # E + 1 grows at most 4^j times
        sv = math.isqrt(max(0, (one << g) - cv * cv))  # the bound below holds at sv = 0 too
        sv, es = (sv if s > 0 else -sv), _ceil_div(ec * (2 * abs(cv) + ec), max(sv, 1)) + 1
    d_sin, d_cos = min(abs(cv) + ec + e_in, one), min(abs(sv) + es + e_in, one)  # |sin'|, |cos'|
    es, ec = es + _ceil_shift(e_in * d_sin, g), ec + _ceil_shift(e_in * d_cos, g)
    if k & 1:  # cos(s + pi/2) = -sin s and sin(s + pi/2) = cos s
        cv, ec, sv, es = -sv, es, cv, ec
    sign = 1 - (k & 2)  # s + pi flips both
    return Ball(sign * cv, ec, g).rescale(f), Ball(sign * sv, es, g).rescale(f)


def cos(x: Ball) -> Ball:
    return _cos_sin(x, x.f)[0]


def sin(x: Ball) -> Ball:
    return _cos_sin(x, x.f)[1]


# ---------------------------------------------------------------------------
# AGM


def agm(a: Ball, b: Ball, ctx: PrecCtx) -> Ball:
    """Arithmetic-geometric mean of two strictly positive enclosures, on integer
    midpoints at fw = ctx.work().bits with error units, as mpmath's `agm_fixed`:
    A <- floor((A + B)/2), ea <- ceil((ea + eb + [A + B odd])/2), B <- isqrt(A B),
    eb <- ceil((A eb + B ea + ea eb) / (2 L)) + 1, as sqrt(ab) and sqrt(AB) are
    at least sqrt(lo_a lo_b) >= L (lo = A - ea, B - eb; L a root of their top
    bits), and where B - eb falls below L, L is the lower end.  It ends in the
    hull of A and B once, after a step, they agree within ea + eb + 4 units."""
    fw = ctx.work().bits
    x, y = a.rescale(fw), b.rescale(fw)
    for v in (x, y):
        _refuse_nonpositive(v, "agm requires strictly positive enclosures")
    big_a, ea, big_b, eb = x.m, x.r, y.m, y.r
    for _ in range(4 * fw.bit_length() + 64):
        lo_a, lo_b = big_a - ea, big_b - eb
        if lo_a <= 0:
            raise EnclosureReachesBoundary("agm iterates too wide to stay positive")
        k = max(0, min(lo_a, lo_b).bit_length() - 128)
        root = math.isqrt((lo_a >> k) * (lo_b >> k))  # L = root 2^k
        e_root = _ceil_div(_ceil_shift(big_a * eb + big_b * ea + ea * eb, k), 2 * root) + 1
        ea = (ea + eb + ((big_a + big_b) & 1) + 1) >> 1
        big_a, big_b, eb, low = (big_a + big_b) >> 1, math.isqrt(big_a * big_b), e_root, root << k
        if big_b - eb < low:
            big_b, eb = (low + big_b + eb + 1) >> 1, (big_b + eb - low + 1) >> 1
        if abs(big_a - big_b) <= ea + eb + 4:
            return Ball.hull(Ball(big_a, ea, fw), Ball(big_b, eb, fw)).rescale(ctx.bits)
    raise DomainError("agm iteration failed to converge")


# ---------------------------------------------------------------------------
# gamma at rational arguments: by the AGM at denominators dividing 8, else
# the lower incomplete gamma series, summed exactly by binary splitting, with
# its truncation bound (the last kept term) and the upper incomplete gamma
# bound (at most e^-N) in the radius


def _gamma_bsplit(
    n: int, a: int, b: int, lo: int, hi: int, pows: dict[int, int]
) -> tuple[int, int]:
    """(Q, T) over the terms k in [lo, hi): Q = prod q(k) and T/Q =
    sum_k prod_{lo <= j <= k} p/q(j), with p = n b and q(j) = a + j b.  The
    power P = p^(hi-lo) is not carried: `pows` holds p^len per left-half
    length.  Leaves of up to 16 terms loop from the right, T = p (Q' + T')."""
    if hi - lo <= 16:
        q, t = 1, 0
        for k in range(hi - 1, lo - 1, -1):
            q, t = (a + k * b) * q, n * b * (q + t)
        return q, t
    mid = (lo + hi) // 2
    q1, t1 = _gamma_bsplit(n, a, b, lo, mid, pows)
    q2, t2 = _gamma_bsplit(n, a, b, mid, hi, pows)
    if mid - lo not in pows:
        pows[mid - lo] = (n * b) ** (mid - lo)
    return q1 * q2, t1 * q2 + pows[mid - lo] * t2


def _gamma_series(z: Fraction, n: int, terms: int, f: int) -> Ball:
    """Gamma(z) for rational 0 < z <= 1 at scale f, from

        Gamma(z) = n^z e^-n sum_{k>=0} n^k / (z)_{k+1} + Gamma(z, n).

    The first `terms` terms t_k = n^k / (z)_{k+1} are summed exactly by
    binary splitting.  Both remainders go into the radius:

    * truncation: t_k / t_{k-1} = n / (z + k) <= 1/2 for every omitted
      k >= terms >= 2n, so the omitted terms sum to at most the last kept
      term t_{terms-1}, which is known exactly;
    * upper incomplete gamma: 0 <= Gamma(z, n) <= n^(z-1) e^-n <= e^-n for
      z <= 1 and n >= 1.

    With S the sum of the kept terms, Gamma(z) e^n lies in
    n^z (S + [0, t_{terms-1}]) + [0, 1]; one division by the enclosure of
    e^n finishes.
    """
    if not (0 < z <= 1 and n >= 1 and terms >= 2 * n):
        raise ValueError("_gamma_series needs 0 < z <= 1, n >= 1, terms >= 2n")
    a, b = z.numerator, z.denominator
    q, t = _gamma_bsplit(n, a, b, 0, terms, {})
    p = (n * b) ** terms
    den = n * q  # t_k = (prod_{j<=k} p(j)/q(j)) / n
    s, err = _round_div(t << f, den)
    last = _ceil_div(p << f, den)
    partial = Ball(s + last // 2, err + (last + 1) // 2, f)
    big_n = Ball(n << f, 0, f)
    scaled = pow_rational(big_n, z) * partial + Ball(1 << (f - 1), 1 << (f - 1), f)
    return scaled / exp(big_n)


@memo
def _gamma_unit(z: Fraction, fw: int) -> Ball:
    """Cached Gamma(z) for rational 0 < z < 1 at the working scale fw."""
    # e^-n <= 2^-fw; the terms are chosen so the last kept one, times
    # n^z e^-n, falls below 2^-fw too (t_{k-1} <= n^(k-1) / (z (k-1)!));
    # log z from the integers, as a tiny z underflows as a float
    n = math.ceil(fw * math.log(2))
    terms = 2 * n
    goal = -fw * math.log(2) + n - float(z) * math.log(n)
    log_z = math.log(z.numerator) - math.log(z.denominator)
    log_last = (terms - 1) * math.log(n) - math.lgamma(terms) - log_z
    while log_last > goal:
        log_last += math.log(n) - math.log(terms)
        terms += 1
    return _gamma_series(z, n, terms, fw)


@memo
def _gamma_agm(fw: int) -> tuple[Ball, ...]:
    """Gamma(k/8) for k = 1..7 at the working scale fw, by the AGM.

    With K(k) = pi / (2 agm(1, k')) and k' = sqrt(1 - k^2), Borwein & Zucker
    (IMA J. Numer. Anal. 12, 1992, 519-526) give

        Gamma(1/4)^2 = (2 pi)^(3/2) / agm(sqrt 2, 1),
        Gamma(1/8) Gamma(3/8) = 2^(13/4) sqrt(pi) K(sqrt 2 - 1) / sqrt(sqrt 2 + 1),
        Gamma(1/8) / Gamma(3/8) = 2^(3/4) Gamma(1/4) sin(3pi/8) / sqrt(pi),

    where k' = sqrt(2 sqrt 2 - 2) for k = sqrt 2 - 1.  The rest follow by
    reflection: Gamma(1/2) = sqrt(pi), Gamma(3/4) = pi sqrt 2 / Gamma(1/4),
    Gamma(5/8) = pi / (sin(3pi/8) Gamma(3/8)) and Gamma(7/8) =
    pi / (sin(pi/8) Gamma(1/8)), with sin(3pi/8) = sqrt(2 + sqrt 2)/2 and
    sin(pi/8) = sqrt(2 - sqrt 2)/2.  Every step is a certified Ball
    operation, at 16 bits above fw.
    """
    ctx = WorkCtx(fw + 16)
    w = ctx.bits
    one, two, pi = Ball.one(w), Ball(2 << w, 0, w), _pi_ball(w)
    rpi, r2 = sqrt(pi), sqrt(two)
    r4 = sqrt(r2)  # 2^(1/4)
    tau = pi * 2
    g14 = sqrt(tau * sqrt(tau) / agm(r2, one, ctx))
    s3, s1 = sqrt(two + r2).half(), sqrt(two - r2).half()
    big_k = pi / (agm(one, sqrt(r2 * 2 - two), ctx) * 2)  # K(sqrt 2 - 1)
    prod = r4 * 8 * rpi * big_k / sqrt(r2 + one)  # Gamma(1/8) Gamma(3/8)
    ratio = r2 * r4 * g14 * s3 / rpi  # Gamma(1/8) / Gamma(3/8)
    g18, g38 = sqrt(prod * ratio), sqrt(prod / ratio)
    values = (g18, g14, g38, rpi, pi / (s3 * g38), pi * r2 / g14, pi / (s1 * g18))
    return tuple(v.rescale(fw) for v in values)


def gamma_rational(p, ctx: PrecCtx) -> Ball:
    """Certified enclosure of Gamma(p) for rational p in (0, 2].

    Arguments whose denominator divides 8 read the AGM table `_gamma_agm`.
    Any other 0 < p < 1 sums the lower incomplete gamma series exactly by
    binary splitting, with its truncation bound (the last kept term, as the
    term ratio is at most 1/2) and the upper incomplete gamma bound
    0 <= Gamma(p, N) <= e^-N in the radius (see `_gamma_series`).
    Arguments in (1, 2) go through Gamma(p) = (p-1) Gamma(p-1), so a value
    never depends on the order of calls.  For z = p or p - 1 below 2^-fw,
    Gamma convex with Gamma(1) = 1, Gamma'(1) = -euler > -0.58 and Gamma <= 1
    on [1, 2] (DLMF 5.4) put Gamma(1 + z) in [1 - 0.58 z, 1] and Gamma(z) in
    [1/z - 0.58, 1/z]: a ball of exact rationals, with no series.
    """
    p = as_fraction(p)
    if not 0 < p <= 2:
        raise UnsupportedGammaArgument(f"gamma argument {p} outside (0, 2]")
    if p == 1 or p == 2:
        return Ball.one(ctx.bits)
    z = p - 1 if p > 1 else p
    fw = ctx.work().bits
    if z.numerator << fw < z.denominator:
        top, width = (Fraction(1), z) if p > 1 else (1 / z, 1)
        ends = (top - Fraction(58, 100) * width, top)
        return Ball.hull(*(Ball.from_fraction(x, ctx.bits) for x in ends))
    if 8 % z.denominator == 0:
        g = _gamma_agm(fw)[int(8 * z) - 1]
    else:
        g = _gamma_unit(z, fw)
    if p > 1:
        g = (g * z.numerator).div_int(z.denominator)
    return g.rescale(ctx.bits)


# ---------------------------------------------------------------------------
# spec-shaped dispatchers


def ball_arith(a: Ball, b, op: str, ctx: PrecCtx) -> Ball:
    """Dispatch {add, sub, mul, div, pow_rational} at the context precision.

    For pow_rational, ``b`` is the rational exponent.
    """
    f = ctx.bits
    if op == "add":
        return (a + b).rescale(f)
    if op == "sub":
        return (a - b).rescale(f)
    if op == "mul":
        return (a * b).rescale(f)
    if op == "div":
        return (a / b).rescale(f)
    if op == "pow_rational":  # as `elementary`, under the power limit of ctx
        return pow_rational(a.rescale(max(a.f, f)), b, ctx.requested).rescale(f)
    raise ValueError(f"unknown ball operation {op!r}")


def elementary(x: Ball, fn: str, ctx: PrecCtx, n: int = 2) -> Ball:
    """Dispatch {exp, log, sqrt, nth_root, cos, sin} at the context precision:
    each works at the scale of x, raised to ctx.bits if coarser, and the
    result is rounded once to ctx.bits."""
    x = x.rescale(max(x.f, ctx.bits))
    if fn == "nth_root":
        return nth_root(x, n).rescale(ctx.bits)
    unary = {"exp": exp, "log": log, "sqrt": sqrt, "cos": cos, "sin": sin}
    if fn not in unary:
        raise ValueError(f"unknown elementary function {fn!r}")
    return unary[fn](x).rescale(ctx.bits)


# ---------------------------------------------------------------------------
# decimal rendering and digit agreement (exact integer logic throughout)


def _log10_floor(n: int, f: int) -> tuple[int, bool]:
    """(floor(log10(n * 2^-f)), exact power of ten?) for n > 0."""
    est = int((n.bit_length() - f) * 0.30103) - 2
    while _cmp_pow10(n, f, est + 1) >= 0:
        est += 1
    while _cmp_pow10(n, f, est) < 0:
        est -= 1
    return est, _cmp_pow10(n, f, est) == 0


def _cmp_pow10(n: int, f: int, e: int) -> int:
    """Sign of n * 2^-f - 10^e."""
    if e >= 0:
        lhs, rhs = n, (10**e) << f
    else:
        lhs, rhs = n * 10**-e, 1 << f
    return (lhs > rhs) - (lhs < rhs)


def decimal_str(ball: Ball, sig: int) -> str:
    """First `sig` significant decimal digits of the midpoint."""
    m, f = ball.m, ball.f
    if m == 0:
        return "0"
    sign = "-" if m < 0 else ""
    n = abs(m)
    e10, _ = _log10_floor(n, f)
    shift = sig - 1 - e10
    if shift >= 0:
        scaled, _ = _round_shift(n * 10**shift, f)
    else:
        scaled, _ = _round_div(n, (10**-shift) << f)
    digits = str(scaled)
    if len(digits) > sig:  # rounding bumped 999... to 1000...
        digits = digits[:sig]
        e10 += 1
    digits = digits.ljust(sig, "0")
    if -4 <= e10 < 21:
        if e10 >= 0:
            whole = digits.ljust(e10 + 1, "0")  # pad when sig digits run out
            ip, fp = whole[: e10 + 1], whole[e10 + 1 :]
            return f"{sign}{ip}.{fp}" if fp else f"{sign}{ip}"
        return f"{sign}0.{'0' * (-e10 - 1)}{digits}"
    return f"{sign}{digits[0]}.{digits[1:]}e{e10:+d}"


def rad_exponent(ball: Ball) -> int | None:
    """Smallest integer e with radius <= 10^e; None for an exact ball."""
    if ball.r == 0:
        return None
    fl, exact = _log10_floor(ball.r, ball.f)
    return fl if exact else fl + 1


def rad_exponent_str(ball: Ball) -> str:
    e = rad_exponent(ball)
    return "0" if e is None else f"1e{e:+d}"


AGREEMENT_CAP = 10**6  # the digits of two equal exact balls


def agreement_digits(lhs: Ball, rhs: Ball) -> int:
    """floor(-log10(|lhs.mid - rhs.mid| + lhs.rad + rhs.rad)), at most
    AGREEMENT_CAP, which it returns when the quantity is exactly zero; may
    be negative when the balls are farther than 1 apart.
    """
    f = max(lhs.f, rhs.f)
    a, b = lhs.rescale(f), rhs.rescale(f)
    x = abs(a.m - b.m) + a.r + b.r
    if x == 0:
        return AGREEMENT_CAP
    fl, exact = _log10_floor(x, f)
    return min(AGREEMENT_CAP, -fl if exact else -fl - 1)


# ---------------------------------------------------------------------------
# certification: the one escalation loop of every command

D_TARGET_DIGITS = 100
CAP_FACTOR = 8


def rad_shortfall(ball: Ball) -> int:
    """Bits by which the radius misses 10^-D_TARGET_DIGITS; 0 when below it."""
    return max(0, (ball.r * 10**D_TARGET_DIGITS).bit_length() - ball.f)


def certify(compute, bits: int, pending=lambda result: ()) -> tuple[object, int]:
    """(result, bits used) of compute(b), from b = bits until it is decided.

    `pending(result)` lists the balls whose radii must fall below the target;
    a result decided either way (disjoint sides, a residual that excludes 0)
    lists none.  A result short of the target, or an `Undecided` error, runs
    again at max(2b, b + shortfall + GUARD_BITS) bits, up to CAP_FACTOR * bits,
    where it is returned or raised as it is.
    """
    cap = CAP_FACTOR * bits
    while True:
        try:
            result = compute(bits)
        except Undecided:
            if bits >= cap:
                raise
            short = 0
        else:
            short = max(map(rad_shortfall, pending(result)), default=0)
            if short == 0 or bits >= cap:
                return result, bits
        bits = min(cap, max(2 * bits, bits + short + GUARD_BITS))

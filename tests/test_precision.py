"""Kernel tests: ball arithmetic, roots, elementary functions, pi, agm, gamma.

Oracles: exact interval propagation with Fractions, independent series
summation at doubled precision, Brent-Salamin and Machin pi, Gamma by
binary splitting against the AGM route, the reflection and duplication
functional equations, integer Newton on the full radicand for the floor
root, and mpmath as an out-of-tree referee for frozen digit strings.
"""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from thetaval.errors import (
    BothRootsMatch,
    DivisorStraddlesZero,
    DomainError,
    EnclosureReachesBoundary,
    PowerTooLarge,
    Undecided,
    UnsupportedGammaArgument,
)
from thetaval import precision
from thetaval.precision import (
    AGREEMENT_CAP,
    Ball,
    PrecCtx,
    _gamma_series,
    _iroot,
    agm,
    agreement_digits,
    ball_arith,
    certify,
    const_pi,
    cos,
    decimal_str,
    elementary,
    exp,
    gamma_rational,
    ipow,
    log,
    nth_root,
    pow_rational,
    rad_shortfall,
    sin,
    sqrt,
)
from thetaval.precision import _gamma_agm, _gamma_unit, _pi_bucket

CTX = PrecCtx(256)
PI_50 = "3.1415926535897932384626433832795028841971693993751"


def mk_ball(mid, rad, f=256) -> Ball:
    mid, rad = F(mid), F(rad)
    m = round(mid * (1 << f))
    r = math.ceil(rad * (1 << f)) + (0 if mid * (1 << f) == m else 1)
    return Ball(m, r, f)


def test_exact_addition():
    one = Ball.exact_int(1)
    two = one + one
    assert two.contains(2) and two.rad <= F(1, 2**250)


def test_as_fraction_keeps_a_fraction_and_converts_anything_else():
    class Half(F):
        pass

    x = F(3, 7)
    assert precision.as_fraction(x) is x
    for value, want in [(5, F(5)), (Half(1, 2), F(1, 2)), ("0.25", F(1, 4))]:
        got = precision.as_fraction(value)
        assert type(got) is F and got == want


def test_root_square_round_trip():
    root = pow_rational(Ball.from_fraction(2, 256), F(1, 2))
    assert (root * root).contains(2)


def test_mul_radius_matches_interval_propagation():
    # oracle: exhaustive endpoint products computed exactly with Fractions
    a = mk_ball(1, F(1, 10**50))
    b = mk_ball(1, F(1, 10**50))
    prod = a * b
    endpoints = [x * y for x in (a.lower, a.upper) for y in (b.lower, b.upper)]
    assert prod.lower <= min(endpoints) and max(endpoints) <= prod.upper
    assert prod.rad <= F(3, 10**50)
    # propagated bound |a| rb + |b| ra + ra rb plus final rounding
    bound = abs(a.mid) * b.rad + abs(b.mid) * a.rad + a.rad * b.rad
    assert prod.rad <= bound + F(2, 2**256)


def test_ball_arith_dispatcher():
    a = Ball.from_fraction(F(3, 2), 256)
    b = Ball.from_fraction(F(1, 3), 256)
    assert ball_arith(a, b, "add", CTX).contains(F(11, 6))
    assert ball_arith(a, b, "sub", CTX).contains(F(7, 6))
    assert ball_arith(a, b, "mul", CTX).contains(F(1, 2))
    assert ball_arith(a, b, "div", CTX).contains(F(9, 2))
    assert ipow(ball_arith(a, F(1, 2), "pow_rational", CTX), 2).contains(F(3, 2))


def test_division_by_straddling_ball_rejected():
    with pytest.raises(DivisorStraddlesZero):
        Ball.exact_int(1) / mk_ball(0, F(1, 10))


def test_division_by_an_exact_zero_is_a_plain_domain_error():
    # no precision decides it, so it is refused rather than escalated
    for zero in (Ball(0, 0, 256), Ball.exact_int(0)):
        with pytest.raises(DomainError) as exc:
            Ball.exact_int(1) / zero
        assert not isinstance(exc.value, Undecided)


def test_negative_base_fractional_power_rejected():
    # an exact base <= 0 or one strictly below 0 is a plain domain error; only
    # a base with a radius that reaches 0 is undecided
    bases = [Ball.from_fraction(v, 256) for v in (-2, -8, 0)] + [Ball(-2 << 256, 1, 256), Ball(-2, 1, 256)]
    for base in bases:
        for e in (F(1, 2), F(1, 3)):
            with pytest.raises(DomainError) as exc:
                pow_rational(base, e)
            assert not isinstance(exc.value, Undecided)
    for base in (mk_ball(0, F(1, 10)), Ball(-1, 1, 256), Ball(1, 1, 256)):
        with pytest.raises(EnclosureReachesBoundary):
            pow_rational(base, F(1, 3))


ROOT_AND_LOG = {
    "sqrt": sqrt,
    "cube root": lambda x: nth_root(x, 3),
    "4th root": lambda x: nth_root(x, 4),
    "log": log,
}


@pytest.mark.parametrize("name", list(ROOT_AND_LOG))
def test_roots_and_log_escalate_a_boundary_reached_only_by_the_radius(name):
    # one boundary rule: a positive radius reaching 0 may be decided at more
    # bits; an exact 0, or a ball strictly below 0, is decided (an odd root
    # takes the latter)
    refuse = ROOT_AND_LOG[name]
    for straddle in (Ball(0, 1, 256), Ball(3, 3, 256), Ball(-2, 3, 256)):
        with pytest.raises(EnclosureReachesBoundary):
            refuse(straddle)
    below = (Ball(-1 << 256, 0, 256), Ball(-1 << 256, 5, 256)) if name != "cube root" else ()
    for bad in (Ball(0, 0, 256),) + below:
        with pytest.raises(DomainError) as exc:
            refuse(bad)
        assert not isinstance(exc.value, Undecided)


WIDE_LOG_BALLS = {
    "(2^-256,2-2^-256)": Ball(1 << 256, (1 << 256) - 1, 256),
    "(1/8,9/8)@3bits": Ball(5, 4, 3),
    "(2^-64,2e50/2^64)": Ball(10**50, 10**50 - 1, 64),
    "3+-2": Ball(3 << 100, 1 << 101, 100),
    "1+-2^-50": Ball(1 << 300, 1 << 250, 300),
    "7+-5/1024": Ball(7 << 200, 5 << 190, 200),
    "3+-2^-12": Ball(3 << 512, 1 << 500, 512),
}


@pytest.mark.parametrize("x", WIDE_LOG_BALLS.values(), ids=WIDE_LOG_BALLS)
def test_log_of_a_wide_positive_ball_encloses_both_ends(x):
    # a strictly positive ball, however wide, has a log: L is taken at both
    # ends, so the radius is the half width of [ln lower, ln upper] and a few units
    import mpmath as mp

    with mp.workprec(x.f + 1200):
        ends = [mp_exact(mp.log(mp.mpf(p.numerator) / p.denominator)) for p in (x.lower, x.upper)]
    val = log(x)
    assert val.f == x.f and all(val.contains(e) for e in ends)
    assert val.rad <= (ends[1] - ends[0]) / 2 + F(3, 2**x.f)


def test_exp_of_zero():
    val = exp(Ball(0, 0, 256))
    assert val.contains(1) and val.rad < F(1, 2**240)


def test_exp_minus_pi_against_series_oracle():
    # oracle: plain factorial series at doubled precision, no reduction
    f = 512
    pi = const_pi(PrecCtx(f))
    acc = Ball.one(f)
    t = Ball.one(f)
    for i in range(1, 400):
        t = (t * pi).div_int(i)
        acc = acc + t
    oracle = Ball.one(f) / Ball(acc.m, acc.r + 2 * t.sup_units() + 2, f)
    val = exp(-const_pi(CTX))
    assert val.overlaps(oracle)
    assert decimal_str(val, 20).startswith("0.043213918263772249")


# exact x, and the nome exponents x = -pi sqrt(r) for r in {1/1000, 7/3, 64}
EXP_ARGS = [("x", x) for x in (F(1, 2), F(-1), F(5), F(-300), F(1, 10**6), F(-123, 7))]
EXP_ARGS += [("-pi*sqrt", r) for r in (F(1, 1000), F(7, 3), F(64))]
# 0, 1e-30, +-2^-k across the series' term counts, and just under 1, 2 and 4,
# where the number of halvings steps up
EXP_ARGS += [("x", x) for x in (F(0), F(1, 10**30), F(1) - F(1, 2**60), F(-2) + F(1, 10**30))]
EXP_ARGS += [("x", F(4) - F(1, 2**40))]
EXP_ARGS += [("x", F(-1, 2))] + [("x", sign * F(1, 2**k)) for k in (8, 9, 30, 200) for sign in (1, -1)]


def _exp_case(kind, v, bits):
    """(x, e^x by mpmath) for one EXP_ARGS row, x a ball at bits + 64."""
    import mpmath as mp

    g = bits + 64
    with mp.workprec(g):
        ref_x = mp.mpf(v.numerator) / v.denominator
        if kind == "x":
            x = Ball.from_fraction(v, g)
        else:
            x = -(const_pi(PrecCtx(g)) * sqrt(Ball.from_fraction(v, g)))
            ref_x = -mp.pi * mp.sqrt(ref_x)
        ref = mp.exp(ref_x)
    return x, F(int(ref.man)) * F(2) ** int(ref.exp)


# ---------------------------------------------------------------------------
# the replaced routes of cos/sin and agm, kept as oracles: the series kernel
# over any a(k), cos and sin summing one series at the argument reduced with
# Ball operations, and the Ball AGM (exp's is `_exp_ball_squaring` below)


def series_units_oracle(x: int, f: int, a) -> tuple[int, int]:
    """(S, err) with |S - 2^f sum_{i>=0} X^i / prod_{k<=i} a(k)| <= err for
    X = x 2^-f, |X| <= 1 and integers a(k) >= k, by rectangular splitting
    (the term ratio is at most 1/2 for |X| < 2^-k, so N terms leave a tail
    below 2^(1-kN) / prod a(k) <= 2^-f; see `precision._series_units`)."""
    k = f - abs(x).bit_length()
    n, big_a = 1, a(1)
    while k * n + big_a.bit_length() < f + 2:
        n += 1
        big_a *= a(n)
    m = max(2, math.isqrt(n))
    pw = [1 << f, x]
    for _ in range(m - 1):
        pw.append((pw[-1] * x) >> f)
    acc = err = 0
    for j in range(-(-n // m) - 1, -1, -1):
        c, t, slack = 1, 0, 0
        for r in range(m - 1, -1, -1):
            c *= a(j * m + r + 1)
            t += c * pw[r]
            slack += c * max(r - 1, 0)
        acc = (t + ((pw[m] * acc) >> f)) // c
        err = -(-(slack + err + 3 * m + 2) // c) + 1
    return acc, err + 1


def trig_series_oracle(s: Ball, odd: bool) -> Ball:
    """sin s if odd else cos s for sup|s| <= 0.9, as s^odd K(-s^2): flooring
    -s^2 (K' < 1) and the product by s cost a unit each; the radius enters by
    |sin'| <= 1 and |cos'| <= sup|s| on the ball."""
    f = s.f
    v, err = series_units_oracle(-((s.m * s.m) >> f), f, lambda k: (2 * k - 1 + odd) * (2 * k + odd))
    if odd:
        return Ball((s.m * v) >> f, err + 2 + s.r, f)
    return Ball(v, err + 1 + -(-(s.r * s.sup_units()) >> f), f)


def trig_oracle(x: Ball, ctx, odd: bool) -> Ball:
    """cos x (odd False) or sin x, reduced by Ball operations with pi at
    f + 64 + the bits of |x| into x = k pi/2 + s, sup|s| <= 0.9."""
    f = ctx.bits if ctx is not None else x.f
    fw = f + 64 + ((abs(x.m) + x.r) >> x.f).bit_length()
    xw = x.rescale(fw)
    halfpi = precision._pi_ball(fw).half()
    k = precision._round_div(2 * xw.m, halfpi.m)[0]
    for _ in range(4):
        s = xw - halfpi * k
        if 10 * (abs(s.m) + s.r) <= 9 << s.f:
            break
        k += 1 if s.m > 0 else -1
    else:
        raise DomainError("trigonometric argument reduction failed")
    k %= 4
    v = trig_series_oracle(s, odd=(k % 2 == 1) != odd)
    flip = k in (1, 2) if not odd else k >= 2
    return (-v if flip else v).rescale(f)


def agm_oracle(a: Ball, b: Ball, ctx) -> Ball:
    """The AGM by Ball operations at the working scale: a sum, a halving, a
    product and a `sqrt` per step, the hull of the last pair."""
    fw = ctx.work().bits
    x, y = a.rescale(fw), b.rescale(fw)
    if not (x.is_strictly_positive() and y.is_strictly_positive()):
        raise DomainError("agm requires strictly positive enclosures")
    for _ in range(4 * fw.bit_length() + 64):
        x, y = (x + y).half().rescale(fw), sqrt(x * y).rescale(fw)
        if abs(x.m - y.m) <= x.r + y.r + 4:
            return Ball.hull(x, y).rescale(ctx.bits)
    raise DomainError("agm iteration failed to converge")


@pytest.mark.parametrize("bits", [64, 512, 2048, 4128, 8192])
@pytest.mark.parametrize("kind,v", EXP_ARGS, ids=str)
def test_exp_contains_mpmath_value(kind, v, bits):
    x, ref = _exp_case(kind, v, bits)
    val = exp(x).rescale(bits)
    assert val.contains(ref)
    assert val.rad <= F(2) ** (8 - bits) * max(1, ref)


def _exp_ball_squaring(x, ctx):
    """`exp` squaring back by j `Ball` products: the reference for its
    squarings on the integer midpoint."""
    f = ctx.bits
    if x.m + x.r <= -((f + 2) << x.f):
        return Ball(1, 1, f + 1)
    fw = f + 48
    xw = x.rescale(fw)
    j = ((abs(xw.m) + xw.r) >> fw).bit_length() + max(8, precision._iroot(4 * fw, 3))
    v, err = series_units_oracle(xw.m, fw + j, lambda k: k)
    lip = xw.r + precision._ceil_div(2 * xw.r * xw.sup_units(), 1 << (fw + j))
    y = Ball(v, err + lip, fw + j)
    for _ in range(j):
        y = y * y
    return y.rescale(f)


@pytest.mark.parametrize("bits", [64, 512, 2048, 4128, 8192])
@pytest.mark.parametrize("kind,v", EXP_ARGS, ids=str)
def test_exp_squaring_on_the_midpoint_matches_ball_squaring(kind, v, bits):
    # bit-identical to the reference, or as tight and still enclosing e^x
    x, ref = _exp_case(kind, v, bits)
    x = x.rescale(bits)  # both read x at bits
    val, old = exp(x), _exp_ball_squaring(x, PrecCtx(bits))
    if (val.m, val.r, val.f) != (old.m, old.r, old.f):
        assert val.contains(ref) and val.f == old.f and val.r <= old.r


# 0, +-1e-6, 10^-40 below and above k pi/2 for k = 1..4, -123/7 and 1e6
TRIG_ARGS = {"0": F(0), "1e-6": F(1, 10**6), "-1e-6": F(-1, 10**6), "-123/7": F(-123, 7), "1e6": F(10**6)}
for k in range(1, 5):
    near = F(round(k * F(PI_50) / 2 * 10**48), 10**48)
    TRIG_ARGS[f"{k}pi/2-"], TRIG_ARGS[f"{k}pi/2+"] = near - F(1, 10**40), near + F(1, 10**40)
# the reduction switches quadrant at odd multiples of pi/4, where |s| is largest
for k in (1, 3):
    near = F(round(k * F(PI_50) / 4 * 10**48), 10**48)
    TRIG_ARGS[f"{k}pi/4-"], TRIG_ARGS[f"{k}pi/4+"] = near - F(1, 10**40), near + F(1, 10**40)
TRIG_ARGS["1e-30"], TRIG_ARGS["0.9-"] = F(1, 10**30), F(9, 10) - F(1, 10**30)
for k in (1, 10, 100):
    TRIG_ARGS[f"2^-{k}"], TRIG_ARGS[f"-2^-{k}"] = F(1, 2**k), -F(1, 2**k)


@pytest.mark.parametrize("bits", [64, 512, 2048, 4096, 8192])
@pytest.mark.parametrize("fn", ["cos", "sin"])
@pytest.mark.parametrize("v", list(TRIG_ARGS.values()), ids=list(TRIG_ARGS))
def test_cos_sin_contain_mpmath_value(v, fn, bits):
    import mpmath as mp

    g = bits + 64
    with mp.workprec(g):
        ref = getattr(mp, fn)(mp.mpf(v.numerator) / v.denominator)
    ref = int(mp.sign(ref)) * F(int(ref.man)) * F(2) ** int(ref.exp)  # man is unsigned
    val = {"cos": cos, "sin": sin}[fn](Ball.from_fraction(v, g)).rescale(bits)
    assert val.contains(ref)
    assert val.rad <= F(2) ** (8 - bits)


@pytest.mark.parametrize("bits", [64, 512, 2048, 4096, 8192])
@pytest.mark.parametrize("odd", [False, True], ids=["cos", "sin"])
@pytest.mark.parametrize("v", [F(9, 10) - F(1, 2**40), F(-9, 10) + F(1, 10**30)], ids=["0.9-2^-40", "-0.9+1e-30"])
def test_trig_series_at_its_widest_argument(v, odd, bits):
    # sup|s| <= 0.9 is the oracle kernel's contract; its reduction stays below pi/4
    import mpmath as mp

    with mp.workprec(bits + 64):
        ref = mp_exact((mp.sin if odd else mp.cos)(mp.mpf(v.numerator) / v.denominator))
    val = trig_series_oracle(Ball.from_fraction(v, bits), odd)
    assert val.contains(ref)
    assert val.rad <= F(2) ** (8 - bits)


SERIES_A = {
    "exp": lambda k: k,
    "cos": lambda k: (2 * k - 1) * 2 * k,
    "sin": lambda k: 2 * k * (2 * k + 1),
}


def series_sum(kind, X):
    """The kernel's sum at X: exp X, cos sqrt(-X) or sin sqrt(-X) / sqrt(-X)."""
    import mpmath as mp

    if kind == "exp":
        return mp.exp(X)
    if X == 0:
        return mp.mpf(1)
    t = mp.sqrt(-X)
    return mp.cos(t) if kind == "cos" else mp.sin(t) / t


@pytest.mark.parametrize("f", [64, 512, 2048, 4096])
@pytest.mark.parametrize("kind", list(SERIES_A))
def test_series_units_error_count_holds(kind, f):
    # seeded X in [-1, 1] for exp and [-0.81, 0] for the trig kernels; the
    # floored sums sit off the true sum by a unit or so, within the count
    import mpmath as mp

    rng = random.Random(f)
    if kind == "exp":
        xs = [0, 1 << f, -(1 << f)] + [rng.randint(-(1 << f), 1 << f) for _ in range(8)]
    else:
        top = (81 << f) // 100
        xs = [0, -top] + [-rng.randint(0, top) for _ in range(8)]
    for x in xs:
        units, err = series_units_oracle(x, f, SERIES_A[kind])
        with mp.workprec(f + 80):
            ref = series_sum(kind, mp.mpf(x) / mp.mpf(2) ** f) * mp.mpf(2) ** f
            assert abs(units - ref) <= err <= 16


WIDE_ARGS = [("exp", F(1, 3)), ("exp", F(-123, 7)), ("exp", F(5))]
WIDE_ARGS += [(fn, v) for fn in ("cos", "sin") for v in (F(1, 3), F(-123, 7), F(7, 10))]


@pytest.mark.parametrize("bits", [64, 512, 2048, 4096, 8192])
@pytest.mark.parametrize("fn,v", WIDE_ARGS, ids=str)
def test_wide_ball_contains_both_ends(fn, v, bits):
    # radius 2^-(bits/2): the input radius enters through the Lipschitz bound
    import mpmath as mp

    g = bits + 64
    rad = F(1, 2 ** (bits // 2))
    x = Ball(round(v * 2**g), 1 << (g - bits // 2), g)
    val = {"exp": exp, "cos": cos, "sin": sin}[fn](x).rescale(bits)
    with mp.workprec(g):
        ends = [getattr(mp, fn)(mp.mpf(e.numerator) / e.denominator) for e in (x.lower, x.upper)]
    ends = [mp_exact(e) for e in ends]
    assert all(val.contains(e) for e in ends)
    assert val.rad <= 2 * rad * max(1, *ends)


def test_cos_exact_value():
    third = const_pi(CTX).div_int(3)
    assert cos(third).contains(F(1, 2))


def test_sin_pi_contains_zero():
    assert sin(const_pi(CTX)).contains_zero()


def test_elementary_dispatcher_and_domains():
    x = Ball.from_fraction(2, 256)
    assert elementary(x, "sqrt", CTX).overlaps(sqrt(x))
    assert elementary(x, "exp", CTX).overlaps(exp(x))
    assert elementary(x, "log", CTX).overlaps(log(x))
    assert elementary(x, "cos", CTX).overlaps(cos(x))
    assert elementary(x, "sin", CTX).overlaps(sin(x))
    assert ipow(elementary(x, "nth_root", CTX, n=3), 3).contains(2)
    for fn in ("log", "sqrt"):
        with pytest.raises(DomainError):
            elementary(Ball.from_fraction(-1, 256), fn, CTX)


@pytest.mark.parametrize("wide", [False, True], ids=["radius0", "radius>0"])
@pytest.mark.parametrize("fn", ["exp", "log", "sqrt", "nth_root", "cos", "sin"])
def test_elementary_meets_its_radius_bound_for_an_input_finer_than_ctx(fn, wide):
    import mpmath as mp

    bits, g = 512, 576
    x = Ball(round(F(7, 3) * 2**g), 1 << (g - bits // 2) if wide else 0, g)
    val = elementary(x, fn, PrecCtx(bits), n=3)
    ref_fn = (lambda y: mp.root(y, 3)) if fn == "nth_root" else getattr(mp, fn)
    with mp.workprec(g + 64):
        refs = [mp_exact(ref_fn(mp.mpf(p.numerator) / p.denominator)) for p in (x.lower, x.upper)]
    assert val.f == bits and all(val.contains(ref) for ref in refs)
    assert val.rad <= (2 * x.rad + F(2) ** (8 - bits)) * max(1, *refs)


def test_cos_certified_for_large_arguments():
    import mpmath as mp

    mp.mp.dps = 40
    for arg in (1322, 987654):
        val = cos(Ball.from_fraction(arg, 256))
        ref = F(str(mp.nstr(mp.cos(arg), 30, strip_zeros=False)))
        assert abs(val.mid - ref) < F(1, 10**28)
        assert val.rad < F(1, 10**70)


# exp, cos, sin and agm at the widths of their micro-table, against mpmath
# and the moved oracles, for inputs of radius 0 and of radius > 0
ELEM_BITS = [544, 2080, 4128, 8240]
ELEM_ARGS = {
    "0": F(0), "2^-1000": F(1, 2**1000), "-2^-100": -F(1, 2**100), "2^-10": F(1, 2**10),
    "1/3": F(1, 3), "-123/7": F(-123, 7), "5": F(5), "-300": F(-300),
}
for k in range(1, 5):  # within 2^-50 of k pi/2
    near = F(round(k * F(PI_50) / 2 * 2**160), 2**160)
    ELEM_ARGS[f"{k}pi/2-2^-50"], ELEM_ARGS[f"{k}pi/2+2^-50"] = near - F(1, 2**50), near + F(1, 2**50)
TRIG_ONLY_ARGS = {"1e6": F(10**6), "-987654.321": F(-987654321, 1000)}
ELEM_CASES = [(fn, name, v) for fn in ("exp", "cos", "sin") for name, v in ELEM_ARGS.items()]
ELEM_CASES += [(fn, name, v) for fn in ("cos", "sin") for name, v in TRIG_ONLY_ARGS.items()]
ELEM_ORACLES = {
    "exp": _exp_ball_squaring,
    "cos": lambda x, ctx: trig_oracle(x, ctx, False),
    "sin": lambda x, ctx: trig_oracle(x, ctx, True),
}


def _as_tight_as(val: Ball, old: Ball) -> bool:
    """val's radius at most old's, give or take one unit and 2^-40 of it."""
    return val.f == old.f and val.r <= old.r + (old.r >> 40) + 1


@pytest.mark.parametrize("wide", [False, True], ids=["radius0", "radius>0"])
@pytest.mark.parametrize("bits", ELEM_BITS)
@pytest.mark.parametrize("fn,name,v", ELEM_CASES, ids=[f"{fn}-{name}" for fn, name, _ in ELEM_CASES])
def test_elementary_functions_against_mpmath_and_the_oracle(fn, name, v, bits, wide):
    import mpmath as mp

    g = bits + 64
    x = Ball(round(v * 2**g), 1 << (g - bits // 2) if wide else 0, g)
    val = {"exp": exp, "cos": cos, "sin": sin}[fn](x).rescale(bits)
    points = (x.lower, x.mid, x.upper) if wide else (x.mid,)
    with mp.workprec(g + 64):
        refs = [mp_exact(getattr(mp, fn)(mp.mpf(p.numerator) / p.denominator)) for p in points]
    assert all(val.contains(ref) for ref in refs)
    size = max(1, *(abs(ref) for ref in refs))
    assert val.rad <= (2 * x.rad + F(2) ** (8 - bits)) * size
    old = ELEM_ORACLES[fn](x, PrecCtx(bits))
    assert val.overlaps(old) and _as_tight_as(val, old)


# (a, b) with a/b from 2^-1000 to 2^1000; a = 2^-1000 lies below 544 bits
AGM_PAIRS = {
    "1,2": (F(1), F(2)), "1.234,4.321": (F(1234, 1000), F(4321, 1000)), "3,3": (F(3), F(3)),
    "1e-30,7": (F(1, 10**30), F(7)), "1,2^1000": (F(1), F(2**1000)), "2^-1000,1": (F(1, 2**1000), F(1)),
}


@pytest.mark.parametrize("wide", [False, True], ids=["radius0", "radius>0"])
@pytest.mark.parametrize("bits", ELEM_BITS)
@pytest.mark.parametrize("pair", list(AGM_PAIRS))
def test_agm_against_mpmath_and_the_oracle(pair, bits, wide):
    import mpmath as mp

    (a, b), g = AGM_PAIRS[pair], bits + 64 + 1024 * (pair == "2^-1000,1")
    rad = 1 << (g - bits // 2) if wide else 0
    x, y = Ball(round(a * 2**g), rad, g), Ball(round(b * 2**g), rad, g)
    ctx = PrecCtx(bits)
    if pair == "2^-1000,1" and bits < 1000:  # a rounds to 0 +- 1 at the working scale
        with pytest.raises(EnclosureReachesBoundary):
            agm(x, y, ctx)
        return
    val, old = agm(x, y, ctx), agm_oracle(x, y, ctx)
    with mp.workprec(2 * g + 64):  # agm is increasing in both arguments
        ends = [mp_exact(mp.agm(mp.mpf(p.numerator) / p.denominator, mp.mpf(q.numerator) / q.denominator))
                for p, q in ((x.lower, y.lower), (x.upper, y.upper))]
    assert all(val.contains(e) for e in ends)
    assert val.overlaps(old) and _as_tight_as(val, old)


def log_series_oracle(x: Ball) -> Ball:
    """The replaced route of `log`, kept as an oracle: x = 2^e w, w in [1, 2),
    ln w = 2 atanh(u) for u = (w - 1)/(w + 1) and ln 2 = 2 atanh(1/3), each by
    the odd series in Ball operations at f + 48 (f + 64 for ln 2), the term
    ratio at most u^2 <= 0.16, so the tail is below a quarter of the last term."""

    def atanh(u: Ball) -> Ball:
        acc, t, u2, i = u, u, u * u, 0
        while True:
            i += 1
            t = t * u2
            term = t.div_int(2 * i + 1)
            acc = acc + term
            if term.sup_units() <= 2:
                return Ball(acc.m, acc.r + -(-term.sup_units() // 4) + 1, u.f)

    fw = x.f + 48
    a = x.rescale(fw)
    e = a.m.bit_length() - fw - 1
    w = Ball(a.m, a.r, fw + e)
    u = (w - 1) / (w + 1)
    if 20 * u.sup_units() > 8 << u.f:
        raise Undecided("log input enclosure is too wide for the series")
    ln2 = (atanh(Ball.from_fraction(F(1, 3), fw + 16)) * 2).rescale(fw)
    return (atanh(u) * 2 + ln2 * e).rescale(x.f)


# x from 2^-1000 to 2^1000, each at a scale that keeps `bits` bits of it
LOG_ARGS = {
    "5/3": F(5, 3), "7/8": F(7, 8), "1+1e-6": 1 + F(1, 10**6), "1-1e-6": 1 - F(1, 10**6),
    "1e-300": F(1, 10**300), "1e300": F(10**300), "2^1000": F(2**1000), "2^-1000": F(1, 2**1000),
}


@pytest.mark.parametrize("wide", [False, True], ids=["radius0", "radius>0"])
@pytest.mark.parametrize("bits", [64, 512, 2048, 8192, 16384])
@pytest.mark.parametrize("name", list(LOG_ARGS))
def test_log_against_mpmath_and_the_oracle(name, bits, wide):
    # radius at most the half width of ln over the ball and 2 units, and at
    # most the series route's and 2 units (that route runs up to 2048 bits only, for time)
    import mpmath as mp

    v = LOG_ARGS[name]
    g = bits + max(0, v.denominator.bit_length() - v.numerator.bit_length())
    m = round(v * 2**g)
    x = Ball(m, m >> (bits // 2) if wide else 0, g)
    val = log(x)
    with mp.workprec(g + 1100):
        ends = [mp_exact(mp.log(mp.mpf(p.numerator) / p.denominator)) for p in (x.lower, x.upper)]
    assert val.f == g and all(val.contains(e) for e in ends)
    assert val.rad <= x.rad / x.lower + F(2, 2**g)
    if bits <= 2048:
        old = log_series_oracle(x)
        assert val.overlaps(old) and val.r <= old.r + 2


@given(
    ea=st.integers(-200, 200),
    eb=st.integers(-200, 200),
    ra=st.integers(0, 80),
    rb=st.integers(0, 80),
    bits=st.sampled_from([64, 256, 544]),
    seed=st.integers(0, 2**32),
    wide=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_integer_agm_bound_encloses_the_ball_oracle_result(ea, eb, ra, rb, bits, seed, wide):
    # a = ma 2^-g near 2^ea, b near 2^eb, with radii of up to 2^80 units, or
    # (wide) of ma (1 - 2^-w) for w in 1..20: the integer bound holds the agm
    # of both corners, which the oracle holds
    import mpmath as mp

    rng, g = random.Random(seed), bits + 32
    balls = []
    for i, (e, r) in enumerate(((ea, ra), (eb, rb))):
        m = rng.getrandbits(max(g + e, 100)) | 1 << max(g + e, 100)
        r = m - (m >> rng.randint(1, 20)) if wide and i == 0 else rng.getrandbits(r) if r else 0
        balls.append(Ball(m, r, g))
    ctx = PrecCtx(bits)
    val = agm(*balls, ctx)
    try:
        old = agm_oracle(*balls, ctx)
    except DomainError:  # its floored product of two tiny values reaches 0
        old = None
    with mp.workprec(2 * g + 500):
        for p, q in ((balls[0].lower, balls[1].lower), (balls[0].upper, balls[1].upper)):
            ref = mp_exact(mp.agm(mp.mpf(p.numerator) / p.denominator, mp.mpf(q.numerator) / q.denominator))
            assert val.contains(ref) and (old is None or old.contains(ref))
    assert old is None or (val.overlaps(old) and _as_tight_as(val, old))


@pytest.mark.parametrize("f", [544, 2080])
@pytest.mark.parametrize("width", [10, 50, 200])
def test_agm_of_wide_balls_is_at_most_twice_as_wide_as_its_exact_range(width, f):
    # agm stops once |A - B| <= ea + eb + 4 and returns the hull of A and B:
    # on balls of relative width 2^-width, 200 seeded pairs at working scale f,
    # the radius must stay within twice the half width of the hull of the agms
    # of both corners (agm is increasing in both arguments)
    import mpmath as mp

    rng, ctx = random.Random(1000 * f + width), PrecCtx(f - precision.GUARD_BITS)
    for _ in range(200):
        balls = []
        for _ in range(2):
            m = rng.randrange(1 << (f - 4), 1 << (f + 4))
            balls.append(Ball(m, m >> width, f))
        val = agm(*balls, ctx)
        with mp.workprec(f + 64):
            lo, hi = (mp_exact(mp.agm(mp.mpf(p.numerator) / p.denominator, mp.mpf(q.numerator) / q.denominator))
                      for p, q in ((balls[0].lower, balls[1].lower), (balls[0].upper, balls[1].upper)))
        assert val.contains(lo) and val.contains(hi)
        assert val.rad <= hi - lo


def test_agm_root_keeps_its_certified_lower_end():
    # a = 5 +- 4 and b = 2^20 (times 2^100 units): the first-order bound on
    # sqrt(ab) is 2^20 4 / (2 sqrt(2^20)) = 2^11, past the root sqrt(5) 2^10,
    # but sqrt(ab) >= sqrt(2^20) holds, so the agm stays decided
    import mpmath as mp

    g = 96
    a, b = Ball(5 << 100, 4 << 100, g), Ball(1 << 120, 0, g)
    val = agm(a, b, PrecCtx(64))
    assert val.is_strictly_positive()
    with mp.workprec(256):
        for p in (a.lower, a.upper):
            assert val.contains(mp_exact(mp.agm(mp.mpf(p.numerator) / p.denominator, 2**24)))


def test_agm_refuses_by_what_more_bits_can_decide():
    # an exact value at or below 0, or an enclosure strictly below it, is a
    # plain DomainError; an enclosure of positive radius reaching 0 may be
    # decided at more bits
    one = Ball.one(256)
    for bad in (Ball(0, 0, 256), Ball(-1 << 256, 0, 256), Ball(-1 << 256, 5, 256)):
        with pytest.raises(DomainError) as exc:
            agm(bad, one, CTX)
        assert not isinstance(exc.value, Undecided)
    for straddle in (Ball(0, 1, 256), Ball(3, 3, 256), Ball(-2, 3, 256)):
        with pytest.raises(EnclosureReachesBoundary):
            agm(one, straddle, CTX)


def test_series_kernel_error_count_holds():
    # the odd series sinh(t)/t at X = t^2 and sin(t)/t at X = -t^2, |X| <= 1
    import mpmath as mp

    for f in (64, 512, 2048, 4096):
        rng = random.Random(f)
        xs = [0, 1 << f, -(1 << f)] + [rng.randint(-(1 << f), 1 << f) for _ in range(8)]
        xs += [rng.randint(-(1 << (f - 16)), 1 << (f - 16)) for _ in range(4)]
        for x in xs:
            units, err = precision._series_units(x, f)
            with mp.workprec(f + 80):
                t = mp.sqrt(abs(mp.mpf(x))) / mp.mpf(2) ** (f / 2)
                ref = 1 if x == 0 else (mp.sinh(t) if x > 0 else mp.sin(t)) / t
                assert abs(units - ref * mp.mpf(2) ** f) <= err <= 16


@pytest.mark.parametrize("bits", [64, 512, 2048, 4096, 8192])
@pytest.mark.parametrize("sign", [1, -1], ids=["sinh-cosh", "sin-cos"])
@pytest.mark.parametrize("y", [F(1, 2), F(-1, 2) + F(1, 10**30), F(1, 2**200)], ids=["1/2", "-1/2+1e-30", "2^-200"])
def test_odd_even_at_its_widest_argument(y, sign, bits):
    # |Y| <= 1/2 is the contract: both values within the one count e
    import mpmath as mp

    units = round(y * 2**bits)
    s, c, e = precision._odd_even(units, bits, sign)
    with mp.workprec(bits + 64):
        t = mp.mpf(units) / mp.mpf(2) ** bits
        refs = (mp.sinh(t), mp.cosh(t)) if sign == 1 else (mp.sin(t), mp.cos(t))
        assert all(abs(v - ref * mp.mpf(2) ** bits) <= e for v, ref in zip((s, c), refs))
    assert e <= 16


def test_const_pi_digits_and_tightness():
    pi64 = const_pi(PrecCtx(64))
    assert decimal_str(pi64, 15).startswith("3.1415926535897")
    assert pi64.rad <= F(1, 2**60)
    assert const_pi(PrecCtx(256)).rad < F(1, 2**250)
    assert decimal_str(const_pi(PrecCtx(512)), 50) == PI_50


def test_const_pi_against_brent_salamin_oracle():
    # oracle: AGM-based pi at higher precision (independent of Machin)
    f = 320
    one = Ball.one(f)
    a, b = one, one / sqrt(Ball.from_fraction(2, f))
    t, p = Ball.from_fraction(F(1, 4), f), 1
    for _ in range(9):
        an = (a + b).half()
        bn = sqrt(a * b)
        t = t - ipow(a - an, 2) * p
        p *= 2
        a, b = an, bn
    bs = ipow(a + b, 2) / (t * 4)
    assert const_pi(CTX).overlaps(bs)


def _atan_inv_units(x: int, f: int) -> tuple[int, int]:
    """(units, error bound in units) for atan(1/x) * 2^f.

    Alternating series; each iteratively floored quotient contributes
    less than 3 units of error, the tail is below the first omitted term.
    """
    xsq = x * x
    cur = (1 << f) // x
    total = 0
    k = 0
    err = 4
    while cur:
        term = cur // (2 * k + 1)
        total += -term if k & 1 else term
        err += 3
        cur //= xsq
        k += 1
    return total, err


def machin_pi(f: int) -> Ball:
    """pi = 16 atan(1/5) - 4 atan(1/239) at scale f, 40 guard bits."""
    a5, e5 = _atan_inv_units(5, f + 40)
    a239, e239 = _atan_inv_units(239, f + 40)
    return Ball(16 * a5 - 4 * a239, 16 * e5 + 4 * e239, f + 40).rescale(f)


@pytest.mark.parametrize("bits", [64, 512, 4128, 16384])
def test_chudnovsky_pi_against_machin_oracle(bits):
    pi = const_pi(PrecCtx(bits))
    assert pi.f == bits and pi.r <= 2
    assert pi.overlaps(machin_pi(bits))


def test_chudnovsky_bsplit_integers_match_the_term_sum():
    # T/Q is the sum of the terms k in [1, n), here summed exactly with Fractions
    n = 6
    _, q, t = precision._chud_bsplit(1, n)
    terms = sum(
        F((-1) ** k * math.factorial(6 * k) * (13591409 + 545140134 * k),
          math.factorial(3 * k) * math.factorial(k) ** 3 * 640320 ** (3 * k))
        for k in range(1, n)
    )
    assert F(t, q) == terms


def test_agm_fixed_point_and_value():
    one = Ball.one(256)
    assert agm(one, one, CTX).contains(1)
    val = agm(one, sqrt(Ball.from_fraction(2, 256)), CTX)
    assert decimal_str(val, 20).startswith("1.1981402347355922074")


def test_agm_gamma_quarter_cross_check():
    # two independent routes to Gamma(1/4)^2 must overlap
    ctx = PrecCtx(320)
    one = Ball.one(320)
    pi = const_pi(ctx)
    lhs = ipow(gamma_rational(F(1, 4), ctx), 2)
    rhs = (pi * 2) * sqrt(pi * 2) / agm(one, sqrt(Ball.from_fraction(2, 320)), ctx)
    assert lhs.overlaps(rhs)


@pytest.mark.parametrize("lam", [F(2), F(10), F(1, 3)])
def test_agm_homogeneity(lam):
    a = Ball.from_fraction(2, 256)
    b = Ball.from_fraction(8, 256)
    lam_ball = Ball.from_fraction(lam, 256)
    assert agm(a * lam_ball, b * lam_ball, CTX).overlaps(lam_ball * agm(a, b, CTX))


def test_agm_domain():
    with pytest.raises(DomainError):
        agm(Ball.from_fraction(-1, 256), Ball.one(256), CTX)


def test_gamma_exact_and_known_values():
    assert gamma_rational(F(1), CTX).contains(1)
    assert gamma_rational(F(2), CTX).contains(1)
    half = gamma_rational(F(1, 2), CTX)
    assert ipow(half, 2).overlaps(const_pi(CTX))  # Gamma(1/2) = sqrt(pi)


def test_gamma_reflection_product():
    # oracle: reflection Gamma(1/4) Gamma(3/4) = pi / sin(pi/4) = pi sqrt(2)
    prod = gamma_rational(F(1, 4), CTX) * gamma_rational(F(3, 4), CTX)
    assert prod.overlaps(const_pi(CTX) * sqrt(Ball.from_fraction(2, 256)))


@pytest.mark.parametrize("p", [F(1, 8), F(1, 4), F(3, 8), F(1, 2), F(3, 4)])
def test_gamma_reflection_and_duplication(p):
    ctx = PrecCtx(256)
    pi = const_pi(ctx)
    refl = gamma_rational(p, ctx) * gamma_rational(1 - p, ctx)
    assert refl.overlaps(pi / sin(pi * Ball.from_fraction(p, 256)))
    # Legendre: Gamma(p) Gamma(p + 1/2) = 2^(1-2p) sqrt(pi) Gamma(2p)
    dup_lhs = gamma_rational(p, ctx) * gamma_rational(p + F(1, 2), ctx)
    dup_rhs = (
        pow_rational(Ball.from_fraction(2, 256), 1 - 2 * p)
        * sqrt(pi)
        * gamma_rational(2 * p, ctx)
    )
    assert dup_lhs.overlaps(dup_rhs)


def test_gamma_nine_eighths_recurrence():
    lhs = gamma_rational(F(9, 8), CTX)
    rhs = gamma_rational(F(1, 8), CTX).div_int(8)
    assert lhs.overlaps(rhs)


def test_gamma_against_mpmath():
    import mpmath as mp

    mp.mp.dps = 90
    for p in (F(1, 4), F(3, 4), F(9, 8), F(5, 4), F(1, 8)):
        val = gamma_rational(p, PrecCtx(320))
        ref = F(str(mp.nstr(mp.gamma(F(p)), 80, strip_zeros=False)))
        assert abs(val.mid - ref) < F(1, 10**75)


GAMMA_ARGS = [F(1, 8), F(1, 4), F(1, 2), F(3, 4), F(9, 8), F(5, 4), F(5, 3), F(7, 4)]
GAMMA_ARGS += [F(1, 10**6), F(999999, 10**6)]


def mp_gamma_exact(p, bits):
    """mpmath's Gamma(p) at `bits` + 64 bits, as an exact Fraction."""
    import mpmath as mp

    with mp.workprec(bits + 64):
        ref = mp.gamma(mp.mpf(p.numerator) / p.denominator)
    return F(int(ref.man)) * F(2) ** int(ref.exp)


@pytest.mark.parametrize("bits", [512, 2048, 4096])
@pytest.mark.parametrize("p", GAMMA_ARGS, ids=str)
def test_gamma_contains_mpmath_value(p, bits):
    val = gamma_rational(p, PrecCtx(bits))
    assert val.contains(mp_gamma_exact(p, bits))
    assert val.rad <= F(1, 2 ** (bits - 8))


# With n = 8 and 16 terms, Gamma(1/4) exceeds the series sum by more than
# e^-8, so the enclosure reaches it only through the truncation bound; with
# 64 terms the excess is mostly Gamma(1/4, 8) and exceeds the truncation
# bound, so it reaches it only through the upper incomplete gamma bound.
@pytest.mark.parametrize("terms", [16, 64])
def test_gamma_series_remainder_bounds_are_load_bearing(terms):
    wide = _gamma_series(F(1, 4), 8, terms, 256)
    assert wide.contains(mp_gamma_exact(F(1, 4), 256))
    assert wide.rad > gamma_rational(F(1, 4), CTX).rad


def test_gamma_series_refuses_fewer_than_2n_terms():
    with pytest.raises(ValueError):
        _gamma_series(F(1, 4), 8, 15, 256)


@given(
    p=st.fractions(min_value=F(1, 50), max_value=F(49, 50), max_denominator=50),
    bits=st.integers(min_value=64, max_value=600),
)
@settings(max_examples=30, deadline=None)
def test_gamma_reflection_property(p, bits):
    ctx = PrecCtx(bits)
    pi = const_pi(ctx)
    refl = gamma_rational(p, ctx) * gamma_rational(1 - p, ctx)
    assert refl.overlaps(pi / sin(pi * Ball.from_fraction(p, bits)))


def _bsplit_gamma(p, bits):
    """The binary-splitting oracle: Gamma(p) by `_gamma_unit`, then the recurrence."""
    fw = PrecCtx(bits).work().bits
    z = p - 1 if p > 1 else p
    g = _gamma_unit(z, fw)
    if p > 1:
        g = (g * z.numerator).div_int(z.denominator)
    return g.rescale(bits)


AGM_ARGS = [F(k, 8) for k in range(1, 16) if k != 8]  # denominators 2, 4 and 8


@pytest.mark.parametrize("bits", [512, 2048, 4128, 8224])
def test_agm_gamma_against_binary_splitting_oracle(bits):
    for p in AGM_ARGS:
        val = gamma_rational(p, PrecCtx(bits))
        assert val.f == bits and val.r <= 2, p
        assert val.overlaps(_bsplit_gamma(p, bits)), p


def test_agm_gamma_table_is_keyed_on_the_working_scale():
    ctx = PrecCtx(4096)
    gamma_rational(F(3, 4), ctx)
    misses = _gamma_agm.cache_info().misses
    for p in AGM_ARGS:
        gamma_rational(p, ctx)
    assert _gamma_agm.cache_info().misses == misses
    gamma_rational(F(1, 4), ctx.work())
    assert _gamma_agm.cache_info().misses == misses


@pytest.mark.parametrize(
    "p", [F(1, 10**400), F(1, 2**2000), 1 + F(1, 10**400)], ids=["1/10^400", "1/2^2000", "1+1/10^400"]
)
def test_gamma_at_a_tiny_argument_against_mpmath(p):
    # a tiny z underflows to 0.0 as a float, so log z is taken on its integers
    ref = mp_gamma_exact(p, 512)
    assert abs(gamma_rational(p, PrecCtx(512)).mid - ref) <= ref / 10**150


TINY_Z = [F(1, 10**400), F(1, 2**2000), F(1, 10**4000), F(3, 2**700 + 1)]


# Below 2^-fw, Gamma(z) = 1/z - euler + O(z) and Gamma(1 + z) = 1 - euler z +
# O(z^2): mpmath's own gamma would need log2(1/z) + bits of precision to tell.
@pytest.mark.parametrize("bits", [64, 512])
@pytest.mark.parametrize("z", TINY_Z, ids=["1/10^400", "1/2^2000", "1/10^4000", "3/(2^700+1)"])
def test_gamma_below_the_working_scale_is_a_ball_of_rationals(z, bits):
    import mpmath as mp

    ctx = PrecCtx(bits)
    assert z < F(1, 2 ** ctx.work().bits)
    with mp.workprec(bits + 64):
        euler = +mp.euler
    euler = F(int(euler.man)) * F(2) ** int(euler.exp)
    series = _gamma_unit.cache_info().misses
    small, near_one = gamma_rational(z, ctx), gamma_rational(1 + z, ctx)
    assert _gamma_unit.cache_info().misses == series  # no series summed
    assert small.f == near_one.f == bits
    assert small.contains(1 / z - euler) and small.rad <= F(3, 10) + F(2, 2**bits)
    assert near_one.contains(1 - euler * z) and near_one.r <= 2


def test_gamma_at_the_working_scale_still_sums_its_series():
    ctx = PrecCtx(64)
    z = F(1, 2 ** ctx.work().bits)
    series = _gamma_unit.cache_info().misses
    val = gamma_rational(z, ctx)
    assert _gamma_unit.cache_info().misses == series + 1
    assert val.contains(mp_gamma_exact(z, 64 + ctx.work().bits))


def test_gamma_domain():
    for bad in (F(0), F(5, 2), F(-1)):
        with pytest.raises(UnsupportedGammaArgument):
            gamma_rational(bad, CTX)


@given(
    x=st.fractions(min_value=F(1, 100), max_value=F(100), max_denominator=1000),
    fn=st.sampled_from(["exp", "log", "sqrt", "cos", "sin"]),
)
@settings(max_examples=25, deadline=None)
def test_inclusion_monotonicity(x, fn):
    lo = elementary(Ball.from_fraction(x, 128), fn, PrecCtx(128))
    hi = elementary(Ball.from_fraction(x, 256), fn, PrecCtx(256))
    assert lo.overlaps(hi) and hi.rad <= lo.rad


@given(
    a=st.fractions(min_value=F(-50), max_value=F(50), max_denominator=997),
    b=st.fractions(min_value=F(-50), max_value=F(50), max_denominator=991),
)
@settings(max_examples=40, deadline=None)
def test_arith_inclusion_property(a, b):
    # (a op b) enclosures must contain the exact rational results
    ba, bb = Ball.from_fraction(a, 192), Ball.from_fraction(b, 192)
    assert (ba + bb).contains(a + b)
    assert (ba - bb).contains(a - b)
    assert (ba * bb).contains(a * b)
    if b != 0:
        assert (ba / bb).contains(F(a, 1) / b)


def test_determinism_bit_identical():
    x = Ball.from_fraction(F(7, 5), 256)
    r1, r2 = exp(x), exp(x)
    assert (r1.m, r1.r, r1.f) == (r2.m, r2.r, r2.f)
    g1 = gamma_rational(F(3, 4), PrecCtx(128))
    g2 = gamma_rational(F(3, 4), PrecCtx(128))
    assert (g1.m, g1.r, g1.f) == (g2.m, g2.r, g2.f)


def test_nth_root_odd_negative():
    val = nth_root(Ball.from_fraction(-8, 256), 3)
    assert val.contains(-2)


# ---------------------------------------------------------------------------
# the root kernel


def iroot_oracle(n: int, k: int) -> int:
    """Floor k-th root by integer Newton from 2**ceil(bits/k) on the whole
    radicand, with exact corrections: the kernel's former route."""
    if n < 2 or k == 1:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


def assert_floor_root(n: int, k: int):
    x = _iroot(n, k)
    assert x == iroot_oracle(n, k)
    assert x**k <= n < (x + 1) ** k


@given(
    a_bits=st.integers(64, 8224),
    b_bits=st.integers(64, 8224),
    kind=st.sampled_from(("any", "multiple", "tie")),
    a_sign=st.sampled_from((1, -1)),
    b_sign=st.sampled_from((1, -1)),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=300, deadline=None)
def test_round_div_rounds_to_nearest_and_flags_an_inexact_quotient(
    a_bits, b_bits, kind, a_sign, b_sign, seed
):
    # one divmod against Fraction rounding: floor(a/b + 1/2), exact just when b | a
    rng = random.Random(seed)
    b = rng.getrandbits(b_bits) | (1 << (b_bits - 1))
    if kind == "any":
        a = rng.getrandbits(a_bits)
    else:  # k b, or the tie k b + b/2 of an even b
        b += kind == "tie" and b % 2
        a = rng.getrandbits(max(1, a_bits - b_bits)) * b + (b // 2 if kind == "tie" else 0)
    a, b = a_sign * a, b_sign * b
    q, err = precision._round_div(a, b)
    assert q == math.floor(F(a, b) + F(1, 2))
    assert err == (0 if a % b == 0 else 1)
    assert err == (0 if F(a, b).denominator == 1 else 1)


@pytest.mark.parametrize("root_bits", [1088, 1449, 1450, 1451, 2112, 4165, 8261])
def test_a_fourth_root_takes_isqrt_up_to_the_crossover_and_newton_above(monkeypatch, root_bits):
    rng = random.Random(root_bits)
    s = rng.getrandbits(root_bits) | (1 << (root_bits - 1))
    radicands = (s**4 - 1, s**4, s**4 + 1, (s + 1) ** 4 - 1, s**4 + rng.getrandbits(3 * root_bits - 2))
    verdicts = record_floor_tests(monkeypatch)
    for n in radicands:
        assert _iroot(n, 4) == math.isqrt(math.isqrt(n))
    # exact powers give or take one lie in the chain's error band; the last does not
    newton = root_bits > precision._ISQRT4_ROOT_BITS
    assert verdicts == ([False] * 4 + [True] if newton else [])


@pytest.mark.parametrize("k", range(1, 65))
def test_iroot_small_and_exact_powers(k):
    for n in (0, 1, 2, 3, 2**k - 1, 2**k, 2**k + 1):
        assert_floor_root(n, k)
    for base in (3, 10**6 + 3, 2**200 - 1, 3**150):
        for delta in (-1, 0, 1):
            assert_floor_root(base**k + delta, k)


@st.composite
def radicands(draw):
    """(n, k): k in 2..64, n up to 10**5 bits, at random or an exact power
    of a random root give or take one."""
    k = draw(st.integers(2, 64))
    bits = draw(st.integers(0, 100_000))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["any", "power", "power-1", "power+1"]))
    if kind == "any":
        return rng.getrandbits(bits), k
    x = rng.getrandbits(bits // k) | 1
    return x**k + {"power": 0, "power-1": -1, "power+1": 1}[kind], k


@given(case=radicands())
@settings(max_examples=60, deadline=None)
def test_iroot_matches_newton_oracle(case):
    assert_floor_root(*case)


def test_iroot_refuses_negative_radicands_and_orders():
    for n, k in ((-1, 3), (8, 0), (8, -2)):
        with pytest.raises(ValueError):
            _iroot(n, k)


@given(
    y_bits=st.integers(1, 10_000),
    k=st.integers(2, 64),
    extra=st.integers(0, 80),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=80, deadline=None)
def test_truncated_power_chain_brackets_the_power(y_bits, k, extra, seed):
    y = random.Random(seed).getrandbits(y_bits) | (1 << (y_bits - 1))
    p = max(y_bits, k.bit_length() + 2) + extra
    m, e = precision._pow_trunc(y, k, p)
    assert m < 1 << p and e >= 0
    # m 2^e <= y^k < m 2^e (1 + 2^(1-p))^(k-1), on integers
    assert m << e <= y**k
    assert (y**k) << ((p - 1) * (k - 1)) < (m << e) * ((1 << (p - 1)) + 1) ** (k - 1)
    assert y**k < (m + 4 * k) << e  # the form the floor test reads


def record_floor_tests(monkeypatch) -> list:
    """Record the verdict of every truncated floor test `_iroot` makes."""
    verdicts = []
    real = precision._floor_certified

    def recording(*args):
        verdicts.append(real(*args))
        return verdicts[-1]

    monkeypatch.setattr(precision, "_floor_certified", recording)
    return verdicts


@pytest.mark.parametrize("k", [3, 5, 7, 24, 63])
def test_iroot_decides_exact_powers_by_exact_comparison(monkeypatch, k):
    s = random.Random(k).getrandbits(4096) | (1 << 4095)
    verdicts = record_floor_tests(monkeypatch)
    for n in (s**k - 1, s**k, s**k + 1, (s + 1) ** k - 1):
        assert_floor_root(n, k)
    # each radicand lies in the chain's error band, so the exact powers decide
    assert verdicts == [False] * 4


def test_a_cold_catalog_pass_decides_every_long_root_by_the_chain(monkeypatch, cold_caches):
    from thetaval.exact import _eval_raw, build_catalog, verify_identity

    catalog = build_catalog()
    verdicts = record_floor_tests(monkeypatch)
    for entry_id in sorted(catalog.ids()):  # each entry cold: no root read from another's
        _eval_raw.cache_clear()
        verify_identity(catalog.get(entry_id), PrecCtx(4096))
    # the 42 roots of 4129 to 4202 bits: 18 cube, 14 fourth, 2 sixth, 3 seventh,
    # 3 eighth and two 24th roots (G_9's q^(-1/24) an eighth root, G_169's a 24th);
    # a fourth root this long takes Newton, and exp's short cube roots compare
    # exact powers
    assert verdicts == [True] * 42


@given(
    f=st.integers(64, 8224),
    m_bits=st.integers(-64, 600),
    r_bits=st.integers(1, 300),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=200, deadline=None)
def test_sqrt_radius_from_a_short_root_encloses_both_ends(f, m_bits, r_bits, seed):
    rng = random.Random(seed)
    r = rng.getrandbits(r_bits) | 1
    m = r + 1 + rng.getrandbits(max(1, f + m_bits))
    lo, hi = F(m - r, 1 << f), F(m + r, 1 << f)
    val = sqrt(Ball(m, r, f))
    full_width = -(-(r << f) // (2 * math.isqrt((m - r) << f))) + 1
    assert val.r >= full_width
    assert val.lower <= 0 or val.lower**2 <= lo
    assert val.upper**2 >= hi


def mp_exact(v) -> F:
    """An mpmath value as an exact Fraction (mantissas are unsigned)."""
    import mpmath as mp

    return int(mp.sign(v)) * F(int(v.man)) * F(2) ** int(v.exp)


ROOT_BASES = {"2": F(2), "7/3": F(7, 3), "1e-6": F(1, 10**6), "1e30+7": F(10**30 + 7)}
ROOT_BITS = [64, 512, 2048, 4096, 8192]


@pytest.mark.parametrize("bits", ROOT_BITS)
@pytest.mark.parametrize("k", [3, 4, 6, 7, 8, 24])
@pytest.mark.parametrize("v", list(ROOT_BASES.values()), ids=list(ROOT_BASES))
def test_nth_root_contains_mpmath_value(v, k, bits):
    import mpmath as mp

    g = bits + 64
    with mp.workprec(g):
        ref = mp_exact(mp.root(mp.mpf(v.numerator) / v.denominator, k))
    val = nth_root(Ball.from_fraction(v, g), k).rescale(bits)
    assert val.contains(ref)
    # one unit of the base moves the root by ref / (k v) units
    assert val.rad <= F(2) ** (8 - bits) * max(1, ref / v)
    if k % 2:
        neg = nth_root(Ball.from_fraction(-v, g), k).rescale(bits)
        assert neg.contains(-ref) and neg.rad == val.rad


@pytest.mark.parametrize("bits", [512, 4096])
@pytest.mark.parametrize("k", [3, 4, 7, 24])
@pytest.mark.parametrize("v", list(ROOT_BASES.values()), ids=list(ROOT_BASES))
def test_nth_root_radius_covers_both_ends(v, k, bits):
    """A base 2**-(bits/2) wide relative to itself: the root's radius comes
    from the midpoint's root alone and must still reach both ends."""
    import mpmath as mp

    x = Ball.from_fraction(v, bits)
    x = Ball(x.m, x.m >> (bits // 2), bits)
    val = nth_root(x, k)
    with mp.workprec(2 * bits):
        for end in (x.lower, x.upper):
            ref = mp_exact(mp.root(mp.mpf(end.numerator) / end.denominator, k))
            assert val.contains(ref)


POW_EXPONENTS = [F(1, 3), F(2, 3), F(-1, 4), F(5, 6), F(1, 7), F(3, 8), F(11, 24), F(-13, 24)]
POW_ROOT_ROUTE = [F(1, 65), F(3, 100), F(1, 1000), F(-7, 999)]  # root orders above 64


@pytest.mark.parametrize("bits", ROOT_BITS)
@pytest.mark.parametrize("e", POW_EXPONENTS + POW_ROOT_ROUTE, ids=str)
@pytest.mark.parametrize("v", [F(2), F(7, 3), F(1, 10**6)], ids=["2", "7/3", "1e-6"])
def test_pow_rational_contains_mpmath_value(v, e, bits):
    import mpmath as mp

    g = bits + 64
    with mp.workprec(g):
        base = mp.mpf(v.numerator) / v.denominator
        ref = mp_exact(mp.power(base, mp.mpf(e.numerator) / e.denominator))
    val = pow_rational(Ball.from_fraction(v, g), e, bits).rescale(bits)
    assert val.contains(ref)
    assert val.rad <= F(2) ** (8 - bits) * max(1, ref)


@pytest.mark.parametrize("bits", [544, 2080, 8224])
def test_pow_rational_takes_the_root_up_to_order_1000(monkeypatch, bits):
    # measured: a root of order 1000 costs 0.1-2 ms from 544 to 8224 bits, and
    # exp(e log x) 0.5-30 ms; an order of 10000 at 544 bits costs 1 ms as a root
    calls = []
    monkeypatch.setattr(precision, "log", lambda x: calls.append(x.f) or log(x))
    x = Ball.from_fraction(F(7, 3), bits)
    for e in POW_ROOT_ROUTE:
        pow_rational(x, e)
    assert calls == []
    if bits == 544:
        pow_rational(x, F(1, 10000))
        assert len(calls) == 1


@pytest.mark.parametrize("k", [3, 4, 6, 24])
def test_nth_root_takes_one_root(monkeypatch, k):
    calls = []
    iroot = precision._iroot
    monkeypatch.setattr(precision, "_iroot", lambda n, j: calls.append(j) or iroot(n, j))
    nth_root(mk_ball(F(7, 3), F(1, 10**20)).rescale(512), k)
    assert calls == [k]


def test_cos_takes_about_two_sqrt_n_products(monkeypatch):
    # the 4161-bit series in -s^2 for s = 0.78 has about 280 terms, so
    # rectangular splitting needs about 2 sqrt(280) ~ 34 full-width products;
    # halving s and doubling cos back by squarings must not take more
    calls = []
    mul_shift, ball_mul = getattr(precision, "_mul_shift", None), Ball.__mul__

    def counted_ball_mul(a, b):
        if isinstance(b, Ball):  # Ball x int scalings are not full-width
            calls.append(b.f)
        return ball_mul(a, b)

    def counted_mul_shift(a, b, f):
        calls.append(f)
        return mul_shift(a, b, f)

    monkeypatch.setattr(Ball, "__mul__", counted_ball_mul)
    monkeypatch.setattr(precision, "_mul_shift", counted_mul_shift, raising=False)
    val = cos(Ball.from_fraction(F(78, 100), 4160)).rescale(4096)
    assert val.rad <= F(2) ** (8 - 4096)
    assert 0 < len(calls) <= 2 * math.isqrt(280) + 4


def gamma_bsplit_oracle(n: int, a: int, b: int, lo: int, hi: int) -> tuple[int, int, int]:
    """(P, Q, T) by halving down to single terms, P carried along."""
    if hi - lo == 1:
        return n * b, a + lo * b, n * b
    mid = (lo + hi) // 2
    p1, q1, t1 = gamma_bsplit_oracle(n, a, b, lo, mid)
    p2, q2, t2 = gamma_bsplit_oracle(n, a, b, mid, hi)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


@pytest.mark.parametrize(
    "z,n,terms",
    [(F(1, 3), 1, 2), (F(1, 4), 8, 16), (F(2, 7), 40, 97), (F(5, 8), 355, 800), (F(1, 24), 2862, 5801)],
    ids=str,
)
def test_gamma_bsplit_integers_match_single_term_recursion(z, n, terms):
    a, b = z.numerator, z.denominator
    q, t = precision._gamma_bsplit(n, a, b, 0, terms, {})
    assert gamma_bsplit_oracle(n, a, b, 0, terms) == ((n * b) ** terms, q, t)


def test_agreement_digits_scale():
    a = mk_ball(1, F(1, 10**60))
    b = mk_ball(1 + F(1, 10**40), F(1, 10**60))
    assert 39 <= agreement_digits(a, b) <= 40


def test_agreement_digits_of_two_equal_exact_balls_is_the_cap():
    assert agreement_digits(Ball(5 << 64, 0, 64), Ball(5 << 32, 0, 32)) == AGREEMENT_CAP


def test_prec_ctx_validation():
    with pytest.raises(ValueError):
        PrecCtx(32)


def test_negative_power_of_a_base_whose_power_falls_below_the_scale():
    # x = 2^-40 is resolved at 64 bits, x^2 = 2^-80 is not: x^-2 = (1/x)^2
    x = Ball(1 << 24, 1, 64)
    assert ipow(x, 2).contains_zero()
    val = ipow(x, -2)
    assert val.contains(2**80) and val.rad < 2**60
    with pytest.raises(DivisorStraddlesZero):  # x itself unresolved
        ipow(Ball(1, 1, 64), -2)


# x^-k for sup|x| < 1 is (1/x)^k: x^k would keep few of its bits at the scale
@pytest.mark.parametrize(
    "text, mp_value",
    [
        ("(qpoint(+1, 1))^(-100)", lambda mp: mp.exp(100 * mp.pi)),
        ("(1/3)^(-200)", lambda mp: mp.mpf(3) ** 200),
        ("(pi/10)^(-300)", lambda mp: (10 / mp.pi) ** 300),
    ],
    ids=["qpoint", "third", "pi_tenth"],
)
def test_a_negative_power_of_a_base_below_one_keeps_its_bits(text, mp_value):
    import mpmath as mp

    from thetaval.exact import eval_expr, parse_expr

    val = eval_expr(parse_expr(text), PrecCtx(512))
    with mp.workprec(1024):
        ref = mp_value(mp)
        ref = F(int(ref.man)) * F(2) ** int(ref.exp)
    assert val.contains(ref) and val.rad <= ref * F(2) ** -500


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pi_at_f_is_its_bucket_value_rounded_whatever_the_call_order(seed, cold_caches):
    import mpmath as mp

    scales = [64, 255, 256, 257, 544, 576, 4128, 4160, 4256, 4352, 4353]
    random.Random(seed).shuffle(scales)
    got = {f: const_pi(PrecCtx(f)) for f in scales}
    with mp.workprec(4500):
        ref = F(int(mp.pi.man)) * F(2) ** int(mp.pi.exp)
    for f, pi in got.items():
        g = -(-f // precision.PI_BUCKET_BITS) * precision.PI_BUCKET_BITS
        again = Ball(*_pi_bucket(g), g).rescale(f)
        assert (pi.m, pi.r, pi.f) == (again.m, again.r, f) and pi.r == 1 and pi.contains(ref)
    assert _pi_bucket.cache_info().misses == len({-(-f // 256) for f in scales})


_QUOTIENT_PART = st.integers(-(2**600), 2**600)


@given(
    a=_QUOTIENT_PART, ra=st.integers(0, 2**400), b=_QUOTIENT_PART, rb=st.integers(0, 2**600),
    fa=st.integers(0, 700), fb=st.integers(0, 700),
)
@settings(max_examples=400, deadline=None)
def test_a_quotient_radius_is_its_exact_ceiling_or_one_unit_above(a, ra, b, rb, fa, fb):
    # the divisor product (|b| - r_b) |b| is bounded below by its factors' leading bits
    x, y = Ball(a, ra, fa), Ball(b, rb, fb)
    f = max(fa, fb)
    x, y = x.rescale(f), y.rescale(f)
    if abs(y.m) <= y.r:
        return
    _, err = precision._round_div(x.m << f, y.m)
    num = x.r * abs(y.m) + abs(x.m) * y.r
    exact_ceiling = precision._ceil_div(num << f, (abs(y.m) - y.r) * abs(y.m)) + err
    assert exact_ceiling <= (x / y).r <= exact_ceiling + 1


def test_rad_shortfall_is_the_bits_missing_below_the_target():
    f = 512
    below = Ball(0, (1 << f) // 10**100, f)  # radius just under 1e-100
    assert rad_shortfall(below) == 0
    assert rad_shortfall(Ball(0, (1 << f) // 10**100 + 1, f)) == 1
    assert rad_shortfall(Ball(0, 1 << f, f)) == 333  # radius 1: 10^100 < 2^333


def _tracked(outcomes):
    """compute(bits) that records its bits and replays `outcomes` in turn:
    an exception class is raised, a ball is returned."""
    seen = []

    def compute(bits):
        seen.append(bits)
        out = outcomes[min(len(seen), len(outcomes)) - 1]
        if isinstance(out, type):
            raise out("undecided")
        return out

    return compute, seen


def test_certify_doubles_on_an_undecided_error_up_to_the_cap():
    compute, seen = _tracked([DivisorStraddlesZero])
    with pytest.raises(DivisorStraddlesZero):
        certify(compute, 64)
    assert seen == [64, 128, 256, 512]


def test_certify_stops_on_the_first_decided_result():
    wide = Ball(0, 1 << 64, 64)  # radius 1
    compute, seen = _tracked([BothRootsMatch, wide])
    result, used = certify(compute, 100)
    assert result is wide and used == 200 and seen == [100, 200]
    # a pending ball that is already tight decides too
    compute, seen = _tracked([Ball(0, 1, 512)])
    assert certify(compute, 512, lambda b: [b])[1] == 512 and seen == [512]
    # and so does a wide result decided false, which lists no pending ball
    compute, seen = _tracked([wide])
    assert certify(compute, 64, lambda b: ())[1] == 64 and seen == [64]


def test_certify_jumps_by_the_shortfall_when_it_exceeds_a_doubling():
    wide = Ball(0, 1 << 64, 64)  # 333 bits short of 1e-100
    tight = Ball(0, 1, 1024)
    compute, seen = _tracked([wide, tight])
    result, used = certify(compute, 64, lambda b: [b])
    assert seen == [64, 64 + 333 + precision.GUARD_BITS] and result is tight
    # a small shortfall still doubles
    near = Ball(0, (1 << 512) // 10**99, 512)
    compute, seen = _tracked([near, tight])
    assert certify(compute, 512, lambda b: [b])[1] == 1024


def test_certify_returns_a_wide_result_at_the_cap():
    wide = Ball(0, 1 << 64, 64)
    compute, seen = _tracked([wide])
    result, used = certify(compute, 64, lambda b: [b])
    assert result is wide and used == 512 and seen[-1] == 512 and len(seen) == 3


@pytest.mark.parametrize(
    "table, call",
    [
        (_pi_bucket, lambda: const_pi(PrecCtx(333))),
        (_gamma_unit, lambda: gamma_rational(F(2, 9), PrecCtx(333))),
        (_gamma_agm, lambda: gamma_rational(F(7, 8), PrecCtx(333))),
    ],
)
def test_a_repeated_constant_is_a_cache_hit_with_the_same_enclosure(table, call):
    first = call()
    hits = table.cache_info().hits
    again = call()
    assert table.cache_info().hits > hits
    assert (again.m, again.r, again.f) == (first.m, first.r, first.f)


# ---------------------------------------------------------------------------
# the one guard-bit rule and the one final rounding


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(-(1 << 200), 1 << 200),
    r=st.integers(0, 1 << 120),
    f=st.integers(1, 300),
    s=st.integers(1, 300),
)
def test_downward_rescale_encloses_and_adds_at_most_one_unit(m, r, f, s):
    s = min(s, f)
    ball = Ball(m, r, f)
    out = ball.rescale(f - s)
    assert out.encloses(ball)
    assert out.r <= -(-r >> s) + 1
    if m % (1 << s) == 0:  # an exact midpoint adds nothing
        assert out.r == -(-r >> s)


def test_rounding_a_guarded_leaf_costs_no_extra_unit():
    # 6.66 at 544 bits is 1 unit wide; its distance to the rounded midpoint
    # joins that unit, so at 512 bits it stays 1 unit (the old rule gave 2)
    ball = Ball.from_fraction(F(666, 100), 544)
    assert ball.r == 1 and ball.rescale(512).r == 1


def test_work_adds_the_guard_once():
    work = PrecCtx(64).work()
    assert work.bits == 96 == 64 + precision.GUARD_BITS
    assert isinstance(work, precision.WorkCtx)
    assert work.work() is work
    assert (PrecCtx(64).requested, work.requested) == (64, 64)


def test_power_limit_of_a_working_context_is_that_of_the_requested_bits():
    two = Ball.from_fraction(2, 96)
    assert pow_rational(two, 4096, PrecCtx(64).work().requested).contains(2**4096)
    with pytest.raises(PowerTooLarge, match="limit of 2\\^4096 at 64 bits"):
        pow_rational(two, 4097, PrecCtx(64).work().requested)
    assert pow_rational(two, 4097, PrecCtx(96).requested).contains(2**4097)

"""Theta-function tests: products vs series, triple product, tail bounds.

phi, psi, f(-q) and chi are computed by their series, so the independent
oracles here are the infinite products through pochhammer_inf, direct
finite products at doubled precision, and exact special-case identities.
"""

import functools
import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from thetaval import exact, lostnotebook, modular, precision, qseries
from thetaval.errors import DomainError, EnclosureReachesBoundary, NotConvergent, PowerTooLarge
from thetaval.errors import ThetavalError
from thetaval.errors import Undecided
from thetaval.exact import build_catalog, verify_identity
from thetaval.precision import Ball, PrecCtx, decimal_str, gamma_rational, ipow, pow_rational
from thetaval.precision import CACHE_ENTRIES, GUARD_BITS, const_pi, exp, sqrt
from thetaval.qseries import (
    QPoint,
    as_q_ball,
    chi,
    f_neg,
    f_neg_series,
    nome_neg,
    nome_pow,
    phi,
    phi_series,
    pochhammer_inf,
    psi,
    psi_series,
    q_power_ball,
    require_positive_nome,
    theta_f,
)

CTX = PrecCtx(256)
CATALOG = build_catalog()
E_PI = QPoint(1, F(1))
SAMPLE_QS = [F(1, 20), F(-1, 20), F(3, 10), F(-3, 10), F(3, 5), F(-3, 5), E_PI, QPoint(1, F(7))]
PRODUCT_QS = SAMPLE_QS + [
    QPoint(-1, F(1)),
    QPoint(-1, F(7)),
    QPoint(1, F(1, 1000)),
    QPoint(-1, F(1, 1000)),
    QPoint(-1, F(7, 3)),
    QPoint(1, F(64)),
]


def bf(x, f=256):
    return Ball.from_fraction(F(x), f)


def _disc_mul(a, b):
    """a * b for two disc balls of one scale, by the kernel's rule for discs."""
    f = a.f
    return Ball((a.m * b.m) >> f, ((abs(a.m) * b.r + abs(b.m) * a.r + a.r * b.r) >> f) + 3, f)


def _disc_pow(x, k):
    result, base = Ball(qseries._Gauss(1 << x.f, 0), 0, x.f), x
    while k:
        result = _disc_mul(result, base) if k & 1 else result
        k, base = k >> 1, _disc_mul(base, base)
    return result


def remainders_within_tails(monkeypatch, series, q, module=qseries):
    """(sup of its remainder, its tail) for each wing that series(q, CTX)
    hands the kernel (`_theta_wings` as `module` reads it), both in units of
    2^-(f + 64) for the kernel's scale f.

    After a wing's n kept terms the remainder is itself a wing,
    (t_(n+1), rho_(n+1), c) = (t1 rho1^n c^(n(n-1)/2), rho1 c^n, c), formed
    from the wing's balls at the finer scale and summed by the kernel there;
    a disc wing's by `_disc_mul`.  The wings' tails add up to the tail of
    the call the spy saw."""
    real, seen = module._theta_wings, []

    def spy(wings, f):
        seen.append((wings, f, real(wings, f)))
        return seen[-1][2]

    with monkeypatch.context() as mp:
        mp.setattr(module, "_theta_wings", spy)
        series(q, CTX)
    ((wings, f, (_, _, total, _)),) = seen
    out, extra = [], 64
    for wing in wings:
        _, _, tail, n = real([wing], f)
        if isinstance(wing[0].m, qseries._Gauss):
            t1, rho1, c = (Ball(b.m * (1 << extra), b.r << extra, f + extra) for b in wing)
            mul, power = _disc_mul, _disc_pow
        else:
            t1, rho1, c = (b.rescale(f + extra) for b in wing)
            mul, power = Ball.__mul__, ipow
        rest = (mul(mul(t1, power(rho1, n)), power(c, n * (n - 1) // 2)), mul(rho1, power(c, n)), c)
        s, err, rest_tail, _ = real([rest], f + extra)
        out.append((abs(s) + err + rest_tail, tail << extra))
    assert sum(tail for _, tail in out) == total << extra
    return out


def product_oracles(q, ctx):
    """phi, psi, f(-q) and chi from the infinite products (Berndt III, Entry 22)."""
    qb = as_q_ball(q, ctx.bits + 32)
    q2 = qb * qb
    chi_prod = pochhammer_inf(-qb, q2, ctx)
    q2q2 = pochhammer_inf(q2, q2, ctx)
    return {
        "phi": chi_prod * chi_prod * q2q2,
        "psi": q2q2 / pochhammer_inf(qb, q2, ctx),
        "f_neg": pochhammer_inf(qb, qb, ctx),
        "chi": chi_prod,
    }


@functools.lru_cache(maxsize=None)
def _product_oracles_at(q, bits):
    return product_oracles(q, PrecCtx(bits))


THETAS = {"phi": phi, "psi": psi, "f_neg": f_neg, "chi": chi}
# the nomes of PRODUCT_QS at 256 bits, then the benchmark's precision of
# 2048 bits across its range of r, both signs
PRODUCT_CASES = [(q, 256) for q in PRODUCT_QS] + [
    (QPoint(sign, r), 2048)
    for r in (F(1, 1000), F(1, 100), F(1), F(64), F(1, 3), F(4, 5))
    for sign in (1, -1)
]


@pytest.mark.parametrize("name", sorted(THETAS))
@pytest.mark.parametrize(
    "q,bits", [pytest.param(q, bits, id=f"q{i}") for i, (q, bits) in enumerate(PRODUCT_CASES)]
)
def test_series_route_agrees_with_product_oracle(q, bits, name):
    ctx = PrecCtx(bits)
    val = THETAS[name](q, ctx)
    assert val.overlaps(_product_oracles_at(q, bits)[name])
    assert val.rad <= F(2) ** (16 - bits)


DUAL_ORACLE_RS = (F(1, 1000), F(1, 100), F(1, 3), F(4, 5))


@pytest.mark.parametrize("name", sorted(THETAS))
@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("r", DUAL_ORACLE_RS, ids=str)
def test_dual_rows_agree_with_product_oracle(r, sign, name):
    # every row, whether or not the routing rule takes it at this r
    q, ctx = QPoint(sign, r), PrecCtx(2048)
    val = qseries._dual_value(name, q, ctx)
    assert val.overlaps(_product_oracles_at(q, 2048)[name])
    assert val.rad <= F(2) ** (16 - 2048)


def _chi_composite(q, ctx):
    """phi(q)/f(q) from the two series at ctx's working scale, rounded once."""
    w = ctx.work()
    return (phi_series(q, w) / f_neg_series(nome_neg(q), w)).rescale(ctx.bits)


DIRECT = {"phi": phi_series, "psi": psi_series, "f_neg": f_neg_series, "chi": _chi_composite}
DUAL_SERIES_RS = (
    F(1, 10**6), F(1, 10**4), F(1, 1000), F(1, 100), F(1, 20), F(3, 10), F(7, 10), F(999, 1000)
)


@pytest.mark.parametrize("bits", [64, 512, 2048])
def test_dual_rows_agree_with_direct_series(bits):
    # wherever the direct series succeeds, the row overlaps it with a radius
    # at most twice the direct one plus 4 units
    ctx = PrecCtx(bits)
    for r in DUAL_SERIES_RS:
        for sign in (1, -1):
            q = QPoint(sign, r)
            for name, direct in DIRECT.items():
                try:
                    ref = direct(q, ctx)
                except ThetavalError:  # phi(q)/f(q) with f(q) near 0, r <= 10^-4
                    assert name == "chi"
                    continue
                val = qseries._dual_value(name, q, ctx)
                assert val.f == ref.f == bits
                assert val.overlaps(ref), (r, sign, name)
                assert val.r <= 2 * ref.r + 4, (r, sign, name, val.r, ref.r)


def test_the_dual_nome_takes_its_own_exp(monkeypatch):
    # B = q_(1/(576 r)) for r = 7/10^6 is q_(15625/63), of the class r0 = 1/63:
    # its own exp, not the 125th power of a class base that no other nome uses
    bases, powers = [], []
    real_base, real_exp = qseries._nome_base, qseries._nome_exp
    monkeypatch.setattr(
        qseries, "_nome_base", lambda t, sign, fw: bases.append((t, sign)) or real_base(t, sign, fw)
    )
    monkeypatch.setattr(qseries, "_nome_exp", lambda r, f: powers.append(r) or real_exp(r, f))
    r = F(7, 10**6)
    assert qseries._nome_class(1 / (576 * r)) == (125, F(1, 63))
    val = qseries._dual_value("phi", QPoint(1, r), PrecCtx(2048))
    assert bases == [(1 / (576 * r), -1)] and powers == []
    assert val.overlaps(phi_series(QPoint(1, r), PrecCtx(2048)))


CHI_NEAR_ONE_RS = [F(869, 25000000), F(3, 10**5), F(1, 30000), F(1, 10**5), F(1, 10**6)]


@pytest.mark.parametrize("bits", [512, 2048])
@pytest.mark.parametrize("r", CHI_NEAR_ONE_RS, ids=str)
def test_chi_near_one_keeps_its_radius_through_the_factor_of_its_row(r, bits):
    # chi(q_r) = M chi(q_(1/r)) with M = e^(pi (1 - r) / (24 sqrt r)), up to 2^189:
    # the row runs at bits(M) more bits, so its value keeps a few units of radius
    import mpmath as mp

    q = QPoint(1, r)
    assert qseries._takes_dual("chi", q, bits + GUARD_BITS)
    val = chi(q, PrecCtx(bits))
    # by theta constants: chi(q) = 2^(1/6) (alpha (1 - alpha) / q)^(-1/24), alpha =
    # theta2^4 / theta3^4 and 1 - alpha = theta4^4 / theta3^4, where theta4 is near
    # e^(-pi / (4 sqrt r)) and loses that many bits of mpmath's precision
    with mp.workprec(bits + 128 + 2 * math.ceil(1.2 / math.sqrt(r))):
        nome = mp.exp(-mp.pi * mp.sqrt(mp.mpf(r.numerator) / r.denominator))
        t2, t3, t4 = (mp.jtheta(k, 0, nome) for k in (2, 3, 4))
        ref = mp.mpf(2) ** (mp.mpf(1) / 6) * (t2**4 * t4**4 / t3**8 / nome) ** (-mp.mpf(1) / 24)
        ref = F(int(ref.man)) * F(2) ** int(ref.exp)
    assert val.f == bits and val.contains(ref) and val.r <= 9


def test_chi_near_one_is_refused_at_the_power_limit_of_the_requested_bits():
    # M = e^(pi (1 - r) / (24 sqrt r)) < 2^(0.189 / sqrt r) passes 2^32768, the
    # limit at 512 bits, for r = 10^-11; the row's raised scale must not lift it
    with pytest.raises(PowerTooLarge, match="at 512 bits"):
        chi(QPoint(1, F(1, 10**11)), PrecCtx(512))


NOME_BASE_TS = [F(1, 10**300), F(1, 10**12), F(1, 576), F(169, 576), F(7, 3), F(10**6), F(10**8 + 7, 3)]


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("t", NOME_BASE_TS, ids=str)
def test_nome_base_against_mpmath(t, sign):
    # exp(sign pi sqrt t) for t from 10^-300 up to near the power limit at 2048 bits
    import mpmath as mp

    fw = 2048 + GUARD_BITS
    val = qseries._nome_base(t, sign, fw)
    with mp.workprec(fw + 64 + 5 * math.isqrt(t.numerator // t.denominator + 1)):
        ref = mp.exp(sign * mp.pi * mp.sqrt(mp.mpf(t.numerator) / t.denominator))
        ref = F(int(ref.man)) * F(2) ** int(ref.exp)
    assert val.contains(ref)  # at scale fw, or the sliver [0, 2^-fw] of exp at fw + 1
    # the argument is off by pi's and sqrt(t)'s few units, times e^x' <= 1 + |ref|
    assert val.rad <= (8 + math.isqrt(t.numerator // t.denominator)) * F(2) ** -fw * (1 + ref)


def test_nome_base_refuses_a_power_past_the_limit_before_forming_it():
    # e^(pi sqrt t) < 2^(4.54 sqrt t): at 2048 bits the limit 2^131072 passes at t near 8.3e8
    fw = 2048 + GUARD_BITS
    assert qseries._nome_base(F(8 * 10**8), 1, fw).f == fw
    with pytest.raises(PowerTooLarge, match="passes the limit of 2\\^131072 at 2048 bits"):
        qseries._nome_base(F(9 * 10**8), 1, fw)
    assert qseries._nome_base(F(9 * 10**8), -1, fw).contains(0)  # e^(-pi sqrt t) is no power


def test_nome_near_one_takes_the_dual_route(monkeypatch, cold_caches):
    # phi(q_(1/1000)) at 2048 bits sums about 120 terms directly and 4 at
    # the dual nome q_1000
    counts = []
    real = qseries._theta_wings

    def spy(wings, f):
        out = real(wings, f)
        counts.append(out[3])
        return out

    monkeypatch.setattr(qseries, "_theta_wings", spy)
    ctx = PrecCtx(2048)
    phi(QPoint(1, F(1, 1000)), ctx)
    phi_series(QPoint(1, F(1, 1000)), ctx)
    assert len(counts) == 2 and counts[0] <= 8 and counts[1] > 100


def _theta_mp(name, x):
    """phi, psi, f(-x) and chi at the mpf x, by mpmath alone."""
    import mpmath as mp

    if name == "phi":
        return mp.jtheta(3, 0, x)
    if name == "psi":  # (x^2; x^2) / (x; x^2)
        return mp.qp(x * x, x * x) / mp.qp(x, x * x)
    return mp.qp(x) if name == "f_neg" else mp.qp(-x, x * x)  # f(-x) = (x; x), chi = (-x; x^2)


def test_dual_nome_identities_hold_in_mpmath():
    # the eight rows of the dual-nome table, by mpmath alone at 200 digits:
    # q_x = exp(-pi sqrt x), s = sqrt r
    import mpmath as mp

    with mp.workdps(200):

        def q(x):
            return mp.exp(-mp.pi * mp.sqrt(x))

        phi_mp, psi_mp, f_neg_mp, chi_mp = (
            functools.partial(_theta_mp, name) for name in ("phi", "psi", "f_neg", "chi")
        )

        for r in (mp.mpf(1) / 20, mp.mpf(3) / 10, mp.mpf(7) / 10):
            s, e = mp.sqrt(r), mp.exp
            rows = [
                (phi_mp(q(r)), r ** -0.25 * phi_mp(q(1 / r))),
                (phi_mp(-q(r)), 2 * r ** -0.25 * e(-mp.pi / (4 * s)) * psi_mp(q(4 / r))),
                (psi_mp(q(r)), (4 * r) ** -0.25 * e(mp.pi * s / 8) * phi_mp(-q(4 / r))),
                (psi_mp(-q(r)), r ** -0.25 * e(mp.pi * (s - 1 / s) / 8) * psi_mp(-q(1 / r))),
                (
                    f_neg_mp(q(r)),
                    (4 / r) ** 0.25 * e(mp.pi * s / 24 - mp.pi / (6 * s)) * f_neg_mp(q(16 / r)),
                ),
                (f_neg_mp(-q(r)), r ** -0.25 * e(mp.pi * (s - 1 / s) / 24) * f_neg_mp(-q(1 / r))),
                (chi_mp(q(r)), e(-mp.pi * (s - 1 / s) / 24) * chi_mp(q(1 / r))),
                (
                    chi_mp(-q(r)),
                    mp.sqrt(2)
                    * e(-mp.pi * (s / 24 + 1 / (12 * s)))
                    * psi_mp(q(4 / r))
                    / f_neg_mp(q(16 / r)),
                ),
            ]
            for i, (lhs, rhs) in enumerate(rows):
                assert abs(lhs / rhs - 1) < mp.mpf(10) ** -190, (r, i)


@given(
    sign=st.sampled_from((1, -1)),
    r=st.fractions(min_value=F(1, 1000), max_value=F(64), max_denominator=1000),
    bits=st.integers(64, 1024),
)
@settings(max_examples=25, deadline=None)
def test_qpoint_series_match_products_property(sign, r, bits):
    q, ctx = QPoint(sign, r), PrecCtx(bits)
    oracles = product_oracles(q, ctx)
    for name, fn in THETAS.items():
        assert fn(q, ctx).overlaps(oracles[name]), name


@given(
    q=st.fractions(min_value=F(-19, 20), max_value=F(19, 20), max_denominator=1000),
    bits=st.integers(64, 1024),
)
@settings(max_examples=25, deadline=None)
def test_ball_nome_series_match_products_property(q, bits):
    qb, ctx = Ball.from_fraction(q, bits), PrecCtx(bits)
    oracles = product_oracles(qb, ctx)
    for name, fn in THETAS.items():
        assert fn(qb, ctx).overlaps(oracles[name]), name


@given(
    bits=st.sampled_from((64, 128, 256)),
    scale=st.integers(-40, 600),
    log2q=st.integers(1, 600),
    mant=st.integers(2**47, 2**48 - 1),
    sign=st.sampled_from((1, -1)),
    name=st.sampled_from(sorted(THETAS)),
)
@example(bits=64, scale=504, log2q=559, mant=2**47, sign=1, name="phi")  # q = 2^-560 at scale 600
@settings(max_examples=60, deadline=None)
def test_a_ball_nome_at_any_scale_is_enclosed(bits, scale, log2q, mant, sign, name):
    # the nome's scale lies below, at or above the working scale bits + GUARD_BITS
    import mpmath as mp

    f = bits + GUARD_BITS + scale
    m = (mant << f) >> (48 + log2q)  # q = m / 2^f, in [2^-(log2q + 1), 2^-log2q)
    assume(m > 0)
    val = THETAS[name](Ball(sign * m, 0, f), PrecCtx(bits))
    prec = max(f, bits) + 128
    with mp.workprec(prec):
        ref = _mp_fraction(_theta_mp(name, mp.mpf(sign * m) / mp.mpf(2) ** f))
    eps = F(1, 2 ** (prec - 8))  # mpmath's own rounding
    assert val.lower - eps <= ref <= val.upper + eps, (name, val.mid - ref, val.rad)


def _mp_fraction(x) -> F:
    import mpmath as mp

    return int(mp.sign(x)) * F(int(x.man)) * F(2) ** int(x.exp)  # man is unsigned


class _ExactC:
    """An exact complex rational, the referee's value of a disc wing.  abs is
    the modulus rounded up to a multiple of 2^-64, so a bound checked on it holds."""

    def __init__(self, real, imag):
        self.real, self.imag = F(real), F(imag)

    def __add__(self, z):
        return _ExactC(self.real + z.real, self.imag + z.imag)

    __radd__ = __add__

    def __sub__(self, z):
        return _ExactC(self.real - z.real, self.imag - z.imag)

    def __rsub__(self, z):
        return _ExactC(z.real - self.real, z.imag - self.imag)

    def __mul__(self, z):
        a, b, c, d = self.real, self.imag, z.real, z.imag
        return _ExactC(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __abs__(self):
        norm = math.ceil((self.real**2 + self.imag**2) * 4**64)
        root = math.isqrt(norm)
        return F(root + (root * root < norm), 2**64)


def _exact(s):
    """A kernel sum as an exact value: a `_Gauss` as an `_ExactC`, an int as is."""
    return _ExactC(s.real, s.imag) if isinstance(s, qseries._Gauss) else s


def _wing_terms(t, rho, c, f):
    """The terms of one wing with exact rational inputs, by mpmath at f + 80 bits;
    a disc wing's `_ExactC` inputs by mpmath's mpc."""
    import mpmath as mp

    disc = isinstance(t, _ExactC)
    with mp.workprec(f + 80):
        if disc:
            t, rho, c = (mp.mpc(*(mp.mpf(p.numerator) / p.denominator for p in (v.real, v.imag)))
                         for v in (t, rho, c))
        else:
            t, rho, c = (mp.mpf(v.numerator) / v.denominator for v in (t, rho, c))
        terms = []
        while abs(t) > mp.ldexp(1, -(f + 90)) or abs(rho) > 0.5:
            terms.append(
                _ExactC(_mp_fraction(t.real), _mp_fraction(t.imag)) if disc else _mp_fraction(t)
            )
            t, rho = t * rho, rho * c
        return terms


def _dyadic(rng, f, lo, hi):
    """An exact point ball at scale f, drawn uniformly from (lo, hi)."""
    m = rng.randrange(int(lo * 2**f) + 1, int(hi * 2**f))
    return Ball(m, 0, f), F(m, 2**f)


def _gauss_dyadic(f, mod, turns):
    """The exact disc of the Gaussian dyadic nearest mod e^(2 pi i turns) at scale f."""
    import mpmath as mp

    with mp.workprec(f + 16):
        z = mp.mpf(F(mod).numerator) / F(mod).denominator * mp.expjpi(2 * mp.mpf(turns)) * 2**f
        re, im = int(mp.nint(z.real)), int(mp.nint(z.imag))
    return Ball(qseries._Gauss(re, im), 0, f), _ExactC(F(re, 2**f), F(im, 2**f))


def _disc_wing(f, t, rho, c):
    """(balls, exact values) of a disc wing, each given as (modulus, turns)."""
    (tb, tv), (rb, rv), (cb, cv) = (_gauss_dyadic(f, *v) for v in (t, rho, c))
    return (tb, rb, cb), (tv, rv, cv)


def _power_wings(kind, qb, q):
    """(balls, exact values) of the phi, psi and f(-q) wings of a nome."""
    q2b, q3b = qb * qb, qb * qb * qb
    if kind == "phi":
        return [((qb, q3b, q2b), (q, q**3, q**2))]
    if kind == "psi":
        return [((qb, q2b, qb), (q, q**2, q))]
    return [
        ((-qb, -(q3b * qb), q3b), (-q, -(q**4), q**3)),
        ((-q2b, -(q3b * q2b), q3b), (-(q**2), -(q**5), q**3)),
    ]


def _f_wings(a, b, f):
    """(balls, exact values) of the two wings of f(a, b)."""
    ab, bb = Ball.from_fraction(a, f), Ball.from_fraction(b, f)
    abb = ab * bb
    return [
        ((ab, ab * abb, abb), (a, a * a * b, a * b)),
        ((bb, bb * abb, abb), (b, b * a * b, a * b)),
    ]


def _wing_sets(kind, bits, rng):
    if kind == "positive":  # exact random wings, one of them negated, and phi and psi
        (t, tv), (r, rv) = _dyadic(rng, bits, 0, 1), _dyadic(rng, bits, 0, 1)
        c, cv = _dyadic(rng, bits, 0, F(19, 20))
        q = F(rng.randrange(1, 900), 1000)
        qb = Ball.from_fraction(q, bits)
        return [
            [((t, r, c), (tv, rv, cv))],
            [((-t, r, c), (-tv, rv, cv))],
            _power_wings("phi", qb, q),
            _power_wings("psi", qb, q),
        ]
    if kind == "alternating":  # f(-q) on an exact nome of either sign
        sets = []
        for lo, hi in ((0, F(9, 10)), (F(-9, 10), 0)):
            qb, q = _dyadic(rng, bits, lo, hi)
            sets.append(_power_wings("f_neg", qb, q))
        return sets
    if kind == "long":  # |c| >= 0.9: hundreds of terms, over which the scale of rho falls
        sets = []
        for lo, hi in ((F(9, 10), F(99, 100)), (F(-99, 100), F(-9, 10))):
            (t, tv), (r, rv) = _dyadic(rng, bits, 0, 1), _dyadic(rng, bits, 0, 1)
            c, cv = _dyadic(rng, bits, lo, hi)
            sets.append([((t, r, c), (tv, rv, cv))])
        q = F(rng.randrange(950, 990), 1000)
        sets.append(_power_wings("phi", Ball.from_fraction(q, bits), q))
        return sets + [_f_wings(F(24, 25), F(-19, 20), bits)]
    if kind == "vanishing":  # c near 1: the floored terms can reach 0 while |rho| > 1/2
        q = F(rng.randrange(9990, 9996), 10000)
        return [
            _power_wings("phi", Ball.from_fraction(q, bits), q),
            [_disc_wing(bits, (1, 0), (0.999, 1 / 2 + 1e-4), (0.995, 1e-5))],  # jims' shape
        ]
    if kind == "large":  # |t1| > 1 and |rho1| > 1
        return [_f_wings(F(3, 2), F(1, 2), bits), _f_wings(F(-19, 10), F(2, 5), bits)]
    if kind == "complex":  # disc wings, |re| + |im| of c below 1 as the kernel needs
        turn = rng.random()
        return [
            [_disc_wing(bits, (rng.random(), turn), (rng.uniform(0.5, 1), turn / 2), (0.95, 1e-3))],
            [_disc_wing(bits, (0.9, 0.3), (0.99, 0.1), (rng.uniform(0.9, 0.95), 0.499))],
            # near +-pi/4, where |re| + |im| is furthest above the modulus
            [_disc_wing(bits, (0.7, 1 / 8 + 1e-3), (0.7, -1 / 8), (0.7, 1 / 8 - 1e-3))],
            [_disc_wing(bits, (0.5, 0.6), (0.7, -1 / 8 + 1e-3), (0.7, 3 / 8))],
            # a term midpoint of exactly 0 after one product: the wing must stop
            [_disc_wing(bits, (F(4, 2**bits), 0.3), (0.05, 0.2), (0.5, 0.7))],
            # two wings in one set, the first of jims' shape (1, w, w^2)
            [
                _disc_wing(bits, (1, 0), (0.8, turn), (0.64, 2 * turn)),
                _disc_wing(bits, (0.6, 0.9), (0.8, 0.45), (0.9, 2e-3)),
            ],
        ]
    # wide: nomes whose ball has radius 2^-(f/2), its midpoint off the exact value
    sets = []
    for name in ("phi", "psi", "f_neg"):
        q = F(rng.randrange(-900, 900), 1000)
        rad = 2 ** (bits // 2)
        mid = round(q * 2**bits) + rng.randrange(-rad // 2, rad // 2)
        sets.append(_power_wings(name, Ball(mid, rad, bits), q))
    return sets


WING_KINDS = ["positive", "alternating", "large", "wide", "vanishing"]


@pytest.mark.parametrize(
    "kind, bits",
    [(k, b) for b in (64, 256, 1024, 4096) for k in WING_KINDS]
    + [("long", 4096), ("long", 8192)]
    + [("complex", b) for b in (64, 256, 1024, 4096)],
)
def test_theta_wings_error_count_holds(kind, bits):
    # each wing alone: the kept terms are within err, the dropped ones within
    # tail; all wings of a set together: the whole sum is within err + tail
    rng = random.Random(f"{kind}-{bits}")
    for wings in _wing_sets(kind, bits, rng):
        total = F(0)
        for balls, exact in wings:
            s, err, tail, n = qseries._theta_wings([balls], bits)
            terms = _wing_terms(*exact, bits)
            kept, dropped = sum(terms[:n]) * 2**bits, sum(terms[n:]) * 2**bits
            assert abs(s - kept) <= err, (kind, bits, exact)
            assert abs(dropped) <= tail, (kind, bits, exact)
            total += kept + dropped
        s, err, tail, _ = qseries._theta_wings([balls for balls, _ in wings], bits)
        assert abs(s - total) <= err + tail, (kind, bits)


def test_a_wing_whose_terms_have_vanished_stops():
    # phi(0.9999) at 544 bits: the floored terms are 0 after 1,941 terms, while
    # |rho| = q^(2n+1) is still about 2/3; sup|rho| <= 1/2 and sup|t| <= 2
    # alone would take about 5,500 terms, past the limit of 4,416
    q = F(9999, 10000)
    ((balls, exact),) = _power_wings("phi", Ball.from_fraction(q, 544), q)
    s, err, tail, n = qseries._theta_wings([balls], 544)
    assert n == 1941 and n < qseries._term_limit(544)
    terms = _wing_terms(*exact, 544)
    kept, dropped = sum(terms[:n]) * 2**544, sum(terms[n:]) * 2**544
    assert abs(s - kept) <= err and abs(dropped) <= tail
    assert err + tail < 2**GUARD_BITS  # within the guard of a 512-bit call


@pytest.mark.parametrize("x", [F(3, 10), F(1, 1000)])
def test_tail_soundness_of_a_disc_wing(monkeypatch, x):
    # jims' wing (1, w, w^2): at x = 1/1000 its terms vanish while |rho| > 1/2
    pairs = remainders_within_tails(monkeypatch, modular.jims_identity, x, qseries)
    assert len(pairs) == 1 and all(0 < rest <= tail for rest, tail in pairs)


def test_disc_theta_hands_the_kernel_w_squared_by_its_rule_for_discs(monkeypatch):
    # the wing (1, w, w^2), w^2 the disc product `_disc_mul` of w with itself
    real, seen = qseries._theta_wings, []
    monkeypatch.setattr(qseries, "_theta_wings", lambda wings, f: seen.append(wings) or real(wings, f))
    f = 544
    re, im = Ball(Ball.from_fraction(F(3, 10), f).m, 5, f), Ball(Ball.from_fraction(F(-2, 5), f).m, 7, f)
    re_sum, im_sum = qseries.disc_theta(re, im, f)
    [[(one, w, w2)]] = seen
    square = _disc_mul(w, w)
    assert (one.m.real, one.m.imag, one.r) == (1 << f, 0, 0)
    assert (w.m.real, w.m.imag, w.r) == (re.m, im.m, 12)
    assert (w2.m.real, w2.m.imag, w2.r) == (square.m.real, square.m.imag, square.r)
    s, err, tail, _ = real([(one, w, w2)], f)
    assert (re_sum.m, im_sum.m, re_sum.r, im_sum.r, re_sum.f) == (s.real, s.imag, err + tail, err + tail, f)


def _theta_wings_full_width(wings, f):
    """The kernel with rho and c held at the full scale f throughout: the
    reference for the falling scale of `_theta_wings`."""
    one = 1 << f
    s = err = tail = n_max = 0
    for t1, rho1, c in wings:
        cm, ec = c.m, c.r
        ac = abs(cm)
        sign = -1 if isinstance(t1.m, int) and t1.m < 0 <= min(rho1.m, cm) else 1
        # a disc's parts are rounded toward 0: 3 units a product, and a
        # vanished term still carries 3
        units = 3 if isinstance(t1.m, qseries._Gauss) else 2
        t, et, rho, er = sign * t1.m, t1.r, rho1.m, rho1.r
        acc, e, n = t, et, 1
        while abs(t) + et > units or 2 * (abs(rho) + er) > one:
            arho = abs(rho)
            t, et = (t * rho) >> f, ((abs(t) * er + arho * et + et * er) >> f) + units
            rho, er = (rho * cm) >> f, ((arho * ec + ac * er + er * ec) >> f) + units
            acc += t
            e += et
            n += 1
        s += sign * acc
        err += e
        tail += abs(t) + et
        n_max = max(n_max, n)
    return s, err, tail, n_max


@pytest.mark.parametrize("bits", [64, 256, 1024, 4096, 8192])
@pytest.mark.parametrize("kind", WING_KINDS + ["long", "complex"])
def test_falling_scale_costs_at_most_a_few_units(kind, bits):
    # flooring rho and c as the terms shrink keeps err + tail within a few
    # units of the full-width kernel's, and both enclose the same sum
    rng = random.Random(f"{kind}-{bits}")
    for wings in _wing_sets(kind, bits, rng):
        balls = [b for b, _ in wings]
        s, err, tail, _ = qseries._theta_wings(balls, bits)
        rs, rerr, rtail, _ = _theta_wings_full_width(balls, bits)
        s = _exact(s)  # a disc sum exactly, so that s - rs is a difference of values
        assert err + tail <= rerr + rtail + 4, (kind, bits, err + tail, rerr + rtail)
        assert abs(s - rs) <= err + tail + rerr + rtail, (kind, bits)


@settings(max_examples=200, deadline=None)
@given(st.integers(-(2**300), 2**300), st.integers(-(2**300), 2**300), st.integers(1, 400))
def test_gauss_abs_and_shift_keep_the_kernel_rules(re, im, k):
    # abs bounds the modulus from above, within sqrt2, and is 0 only at 0 (the
    # stop rule needs it); >> rounds each part toward zero, within one unit
    z = qseries._Gauss(re, im)
    norm = re * re + im * im
    assert norm <= abs(z) ** 2 <= 2 * norm
    y = z >> k
    for part, exact in ((y.real, re), (y.imag, im)):
        assert abs(part) << k <= abs(exact) < (abs(part) + 1) << k and part * exact >= 0


# d sqrt2 just below the integer E: a Gaussian error (d, d) of modulus within E
PELL_D, PELL_E = 80782, 114243
assert PELL_E**2 == 2 * PELL_D**2 + 1


def test_one_disc_product_at_its_worst_case_is_within_its_counted_units():
    # t1 = 1 - 2^-64 exact, rho1 = (1, 1) known to E units, c = 0: the wing's
    # one product t1 rho1 has both parts truncated to 0 by almost a unit, its
    # error bound T E 2^-64 is floored by almost a unit, and the true rho1 may
    # lie at (1 + d, 1 + d), so the second term is off by about E - 1 + 1 +
    # sqrt2 units: 3 units for the product cover that, 2 would not
    f, big = 64, (1 << 64) - 1
    wing = (Ball(qseries._Gauss(big, 0), 0, f), Ball(qseries._Gauss(1, 1), PELL_E, f),
            Ball(qseries._Gauss(0, 0), 0, f))
    s, err, tail, n = qseries._theta_wings([wing], f)
    assert n == 2 and (s.real, s.imag) == (big, 0)  # the second term is (0, 0)
    off = F(big * (1 + PELL_D), 2**f)  # each part of the true second term
    assert 2 * off**2 <= err**2
    assert 2 * off**2 > (err - 1) ** 2  # the worst case: one unit fewer misses it


@pytest.mark.parametrize("k", [2, 20, 300])
def test_one_disc_scale_drop_at_its_worst_case_is_within_its_counted_units(k):
    # a disc whose parts lose almost a unit each to the shift, known to E 2^k
    # units, its true value (d 2^k, d 2^k) off: off by about E + sqrt2 units
    # after the drop, which counts E + 2; an int's floor counts E + 1
    low = (1 << k) - 1
    x, e = qseries._Gauss((5 << k) + low, (7 << k) + low), PELL_E << k
    y, ey = qseries._drop(x, e, k)
    assert (y.real, y.imag) == (5, 7)
    off = F(low + (PELL_D << k), 2**k)  # each part of the true value minus y
    assert 2 * off**2 <= ey**2 and 2 * off**2 > (ey - 1) ** 2
    z, ez = qseries._drop((5 << k) + low, e, k)
    assert z == 5 and F(low + (PELL_E << k), 2**k) <= ez


class TestQPoint:
    def test_ball_value(self):
        import mpmath as mp

        mp.mp.dps = 60
        q = QPoint(1, F(7)).to_ball(CTX)
        ref = F(str(mp.nstr(mp.exp(-mp.pi * mp.sqrt(7)), 45, strip_zeros=False)))
        assert abs(q.mid - ref) < F(1, 10**42)

    def test_exact_power_bookkeeping(self):
        q = QPoint(1, F(1, 7))
        assert q.pow(7) == QPoint(1, F(7))
        assert q.pow(F(1, 7)) == QPoint(1, F(1, 343))
        assert QPoint(-1, F(4)).pow(2) == QPoint(1, F(16))
        assert QPoint(-1, F(4)).pow(3) == QPoint(-1, F(36))

    def test_negative_sign_rejects_fractional_powers(self):
        with pytest.raises(DomainError):
            QPoint(-1, F(4)).pow(F(1, 7))

    def test_validation(self):
        with pytest.raises(DomainError):
            QPoint(2, F(1))
        with pytest.raises(DomainError):
            QPoint(1, F(-3))

    def test_magnitude_below_one(self):
        assert QPoint(1, F(1, 1000)).to_ball(CTX).mag_lt_one()

    @pytest.mark.parametrize("r", [F(1, 1000), F(7, 3), F(64)])
    def test_negative_nome_is_the_negated_ball(self, r):
        neg, pos = QPoint(-1, r).to_ball(CTX), -QPoint(1, r).to_ball(CTX)
        assert (neg.m, neg.r, neg.f) == (pos.m, pos.r, pos.f)

    def test_both_signs_share_one_exp(self, nome_exps):
        calls = nome_exps
        QPoint(1, F(11, 3)).to_ball(CTX)
        QPoint(-1, F(11, 3)).to_ball(CTX)
        assert len(calls) == 1
        # q_4 = q_1^2 and -q_36 = -q_1^6 are powers of the class base q_1
        for q in (QPoint(1, F(1)), QPoint(1, F(4)), QPoint(-1, F(36))):
            q.to_ball(CTX)
        assert len(calls) == 2


@pytest.fixture
def nome_exps(monkeypatch, cold_caches) -> list:
    """Each exp that qseries makes, from a cold process on."""
    calls = []
    real_exp = qseries.exp

    def counting_exp(*args, **kwargs):
        calls.append(args)
        return real_exp(*args, **kwargs)

    monkeypatch.setattr(qseries, "exp", counting_exp)
    return calls


SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
POSITIVE_R = st.builds(
    lambda n, d, k: F(n * k * k, d),
    st.integers(1, 10**40),
    st.integers(1, 10**40),
    st.integers(1, 10**6),
)


class TestNomeClass:
    """sqrt(r) = a sqrt(r0), so q_r is the power a of the class base q_(r0)."""

    @given(POSITIVE_R)
    @settings(max_examples=200, deadline=None)
    def test_the_power_and_base_rebuild_r(self, r):
        a, r0 = qseries._nome_class(r)
        assert isinstance(a, int) and a >= 1
        assert a * a * r0 == r

    # k coprime to the denominator of r: a common factor of k and b would
    # make gcd(a, b) > 1, and a prime above 47 is found only in a square rest
    @given(POSITIVE_R, st.lists(st.sampled_from(SMALL_PRIMES), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_a_square_factor_multiplies_the_power(self, r, primes):
        k = math.prod(p for p in primes if r.denominator % p)
        a, r0 = qseries._nome_class(r)
        assert qseries._nome_class(r * k * k) == (k * a, r0)

    @pytest.mark.parametrize(
        "r, a, r0",
        [
            (F(3969), 63, F(1)),
            (F(27), 3, F(3)),
            (F(343), 7, F(7)),
            (F(20), 2, F(5)),
            (F(4, 5), 2, F(1, 5)),
            (F(25, 7), 5, F(1, 7)),
            (F(5, 2304), 1, F(5, 2304)),
            (F(1, 8), 1, F(1, 8)),
            (F(53 * 53), 53, F(1)),
            (F(10**40), 10**20, F(1)),
            (F(10**400, 576), 2**197 * 5**200, F(1, 9)),
        ],
    )
    def test_pinned_classes(self, r, a, r0):
        assert qseries._nome_class(r) == (a, r0)

    @pytest.mark.parametrize(
        "r", [F(10**10000), F(7**11833 * 2, 3), F(3 * 10**9999 + 1, 10**6), F(2**33216 * 3**2)]
    )
    def test_a_ten_thousand_digit_numerator_returns_at_once(self, r):
        start = time.perf_counter()
        a, r0 = qseries._nome_class(r)
        assert time.perf_counter() - start < 0.5
        assert a * a * r0 == r

    @pytest.mark.parametrize("r", [F(36), F(169), F(3969), F(27), F(343), F(20), F(25, 7), F(5, 2304)])
    def test_a_class_power_matches_mpmath_and_the_direct_exp(self, r):
        import mpmath as mp

        bits = 4096
        with mp.workdps(1300):
            ref = _mp_fraction(mp.exp(-mp.pi * mp.sqrt(mp.mpf(r.numerator) / r.denominator)))
        fw = bits + GUARD_BITS
        # one exp of the nome itself, as every nome was built before classes
        direct = exp(-(precision._pi_ball(fw) * sqrt(Ball.from_fraction(r, fw)))).rescale(bits)
        q = QPoint(1, r).to_ball(PrecCtx(bits))
        assert q.f == bits and q.contains(ref) and q.r <= 2
        assert q.overlaps(direct)
        if qseries._nome_class(r)[0] == 1:
            assert (q.m, q.r) == (direct.m, direct.r)

    # a = 2^40 and 2^1600 over bases within 10^-14 and 10^-477 of 1: the
    # power would lose 57 bits, and the second base is below the scale
    @pytest.mark.parametrize("r", [F(2**80, 3**60), F(2**3200, 3**2000)], ids=["2^80/3^60", "2^3200/3^2000"])
    def test_a_power_that_would_lose_a_unit_takes_the_nomes_own_exp(self, r):
        fw = 512 + GUARD_BITS
        direct = exp(-(precision._pi_ball(fw) * sqrt(Ball.from_fraction(r, fw)))).rescale(512)
        q = QPoint(1, r).to_ball(PrecCtx(512))
        assert (q.m, q.r, q.f) == (direct.m, direct.r, direct.f)

    # r far below the scale: sqrt(r) keeps its relative precision, so the
    # nome 1 - pi sqrt(r) + ... stays within two units at any width
    @pytest.mark.parametrize("bits", [512, 4096])
    @pytest.mark.parametrize(
        "r",
        [F(1, 10**120), F(1, 10**200), F(7, 10**301), F(3, 2**5000)],
        ids=["1e-120", "1e-200", "7e-301", "3/2^5000"],
    )
    def test_a_nome_of_a_tiny_r_keeps_its_precision(self, r, bits):
        import mpmath as mp

        with mp.workprec(2 * bits + 64):
            ref = _mp_fraction(mp.exp(-mp.pi * mp.sqrt(mp.mpf(r.numerator) / r.denominator)))
        q = QPoint(1, r).to_ball(PrecCtx(bits))
        assert q.f == bits and q.contains(ref) and q.r <= 2

    def test_a_cold_catalog_pass_makes_one_exp_per_class(self, nome_exps, monkeypatch):
        # the 20 catalog nomes fall into 8 classes: r = 1, 4, 9, 25, 36, 49,
        # 81, 169, 729, 2025 and 3969; 3 and 27; 7 and 343; then 2, 15,
        # 5/3, 4/5 and 20 alone.  G_9 and G_169 read the power 1/8 and 13/24
        # of 1/x for the base x = q_1 that chi reads, so they add no exp; pi
        # is summed once, and ln7's cos(k pi/7) read the one cosine of pi/7
        from thetaval import precision

        trig = []
        real_cos_sin = precision._cos_sin
        monkeypatch.setattr(precision, "_cos_sin", lambda x, f: trig.append(x) or real_cos_sin(x, f))
        for entry_id in sorted(CATALOG.ids()):
            verify_identity(CATALOG.get(entry_id), PrecCtx(4096))
        assert [x.m > 0 for x, *_ in nome_exps] == [False] * 8
        assert precision._pi_bucket.cache_info().misses == 1 and len(trig) == 1


class TestNomeHelpers:
    NOMES = [QPoint(1, F(7, 3)), QPoint(-1, F(2)), F(3, 10), F(-2, 5), Ball(3 << 254, 5, 256)]

    @pytest.mark.parametrize("k", [3, 5, 7, 15, F(1, 7)])
    @pytest.mark.parametrize("q", NOMES)
    def test_nome_pow_agrees_with_the_power_of_the_nome_ball(self, q, k):
        k = F(k)
        base = as_q_ball(q, 256)
        if k.denominator != 1 and not base.is_strictly_positive():
            with pytest.raises(DomainError):
                q_power_ball(q, k, 256)
            return
        old = ipow(base, k.numerator) if k.denominator == 1 else pow_rational(base, k)
        assert q_power_ball(q, k, 256).overlaps(old)
        if k.denominator == 1 or not isinstance(q, F):
            assert as_q_ball(nome_pow(q, k), 256).overlaps(old)

    def test_nome_pow_keeps_qpoints_and_rationals_exact(self):
        assert nome_pow(QPoint(-1, F(2)), 3) == QPoint(-1, F(18))
        assert nome_pow(QPoint(1, F(7, 3)), F(1, 7)) == QPoint(1, F(1, 21))
        assert nome_pow(F(3, 10), 5) == F(3, 10) ** 5
        with pytest.raises(DomainError):
            nome_pow(F(3, 10), F(1, 7))

    @pytest.mark.parametrize("q", NOMES)
    def test_nome_neg_agrees_with_the_negated_ball(self, q):
        neg = nome_neg(q)
        assert type(neg) is type(q)
        assert as_q_ball(neg, 256).overlaps(-as_q_ball(q, 256))

    @pytest.mark.parametrize(
        "q", [QPoint(-1, F(3)), F(0), F(1), F(-1, 2), F(3, 2), Ball(0, 5, 64), Ball(1 << 64, 1, 64)]
    )
    def test_require_positive_nome_refuses(self, q):
        with pytest.raises(DomainError, match="requires a nome 0 < q < 1"):
            require_positive_nome(q, "this")

    def test_require_positive_nome_escalates_a_ball_reaching_0_or_1_by_its_radius(self):
        one = 1 << 64
        for q in (Ball(0, 5, 64), Ball(-1, 3, 64), Ball(one, 1, 64), Ball(one - 1, 2, 64)):
            with pytest.raises(EnclosureReachesBoundary, match="requires a nome 0 < q < 1"):
                require_positive_nome(q, "this")
        for q in (Ball(0, 0, 64), Ball(one, 0, 64), Ball(-5, 1, 64), Ball(3 * one, 1, 64)):
            with pytest.raises(DomainError) as exc:
                require_positive_nome(q, "this")
            assert not isinstance(exc.value, Undecided)

    @pytest.mark.parametrize("q", [QPoint(1, F(1, 1000)), F(1, 2), Ball(1 << 63, 1, 64)])
    def test_require_positive_nome_accepts(self, q):
        require_positive_nome(q, "this")


class TestConvergence:
    """One |q| < 1 rule for every series: the kernel's ratio test.  Each
    wing's ratio is q^2, q, q^3 or ab, and a rounded Ball product of factors
    with sup >= 1 has sup >= 1, so the kernel refuses each such nome."""

    KERNEL = "theta series ratio must lie strictly below 1"

    @pytest.mark.parametrize("as_ball", [False, True], ids=["exact", "ball"])
    @pytest.mark.parametrize("kind, q", [("phi", F(3, 2)), ("psi", F(1)), ("f_neg", F(-1)), ("chi", F(2))], ids=str)
    def test_a_nome_outside_the_unit_disc_is_refused_by_the_kernel(self, kind, q, as_ball):
        with pytest.raises(NotConvergent, match=self.KERNEL):
            getattr(qseries, kind)(bf(q) if as_ball else q, CTX)

    def test_theta_f_outside_the_unit_disc_is_refused_by_the_kernel(self):
        with pytest.raises(NotConvergent, match=self.KERNEL):
            theta_f(bf(2), bf(F(3, 5)), CTX)

    @given(
        excess=st.integers(0, 3 << 64),
        r=st.integers(0, 4 << 64),
        sign=st.sampled_from([1, -1]),
        series=st.sampled_from(["phi", "psi", "f_neg", "chi", "theta_f"]),
    )
    # sup|q| exactly 1, from inside and from outside, and a ball about 0
    @example(excess=0, r=1, sign=1, series="phi")
    @example(excess=1, r=0, sign=-1, series="psi")
    @example(excess=0, r=1 << 64, sign=1, series="f_neg")
    @settings(max_examples=60, deadline=None)
    def test_every_series_refuses_a_ball_reaching_the_unit_circle(self, excess, r, sign, series):
        sup = (1 << 64) + excess
        q = Ball(sign * (sup - min(r, sup)), min(r, sup), 64)
        with pytest.raises(NotConvergent, match=self.KERNEL):
            if series == "theta_f":
                theta_f(q, Ball.one(64), CTX)
            else:
                getattr(qseries, series)(q, CTX)

    def test_the_product_oracle_keeps_its_own_test(self):
        with pytest.raises(NotConvergent, match=r"\|q\| enclosure must lie strictly below 1"):
            pochhammer_inf(bf(F(1, 2)), bf(1), CTX)


class TestCaches:
    def test_every_table_is_bounded_by_the_one_constant(self, cold_caches):
        for table in cold_caches:
            assert table.cache_parameters()["maxsize"] == CACHE_ENTRIES

    def test_cold_caches_holds_every_memo_table_of_the_package(self, cold_caches):
        # the argument parser is cached for speed, not a value, so no test clears it
        import importlib
        import pkgutil

        import thetaval
        from thetaval import cli

        found = set()
        for info in pkgutil.iter_modules(thetaval.__path__):
            module = importlib.import_module(f"thetaval.{info.name}")
            found |= {x for x in vars(module).values() if hasattr(x, "cache_info")}
        assert found - {cli.build_arg_parser} == set(cold_caches)
        assert len(cold_caches) == len(set(cold_caches))

    def test_a_loop_over_more_nomes_than_entries_stays_bounded(self, cold_caches):
        ctx = PrecCtx(64)
        for i in range(CACHE_ENTRIES + 1):
            phi(QPoint(1, 1 + F(i, CACHE_ENTRIES)), ctx)
        for table in cold_caches:
            assert table.cache_info().currsize <= CACHE_ENTRIES
        assert qseries._theta_exact.cache_info().currsize == CACHE_ENTRIES
        assert qseries._nome_exp.cache_info().currsize == CACHE_ENTRIES

    def test_a_loop_over_more_trees_than_entries_stays_bounded(self):
        ctx = PrecCtx(64)
        for i in range(CACHE_ENTRIES + 1):
            exact.eval_expr(exact.Rat(1 + F(i, CACHE_ENTRIES)), ctx)
        assert exact._eval_raw.cache_info().currsize == CACHE_ENTRIES

    def test_deg3_at_a_rational_nome_takes_one_kernel_call_per_value(self, monkeypatch, cold_caches):
        # phi(+-q) and phi(+-q^3): the multiplier's phi(q) and phi(q^3) are hits
        real, calls = qseries._theta_wings, []

        def spy(wings, f):
            calls.append(f)
            return real(wings, f)

        monkeypatch.setattr(qseries, "_theta_wings", spy)
        modular.verify_degree3(F(3, 10), PrecCtx(512))
        assert len(calls) == 4

    def test_septic_at_a_rational_nome_takes_one_kernel_call_per_value(self, monkeypatch, cold_caches):
        # phi(q^7), three f(a, b), f(-q^7), phi(q), f(-q) and phi(q^(1/7)): chi
        # and the ratio oracle read phi(q) and phi(q^7) through the memo
        real, calls = qseries._theta_wings, []

        def spy(wings, f):
            calls.append(f)
            return real(wings, f)

        monkeypatch.setattr(qseries, "_theta_wings", spy)
        lostnotebook.septic_residuals(F(3, 10), PrecCtx(512))
        assert len(calls) == 8

    @pytest.mark.parametrize("bits", [64, 512, 2048, 4096])
    def test_chi_takes_its_dual_row_exactly_where_phi_does(self, bits):
        # a grid across phi's crossover at each scale: r <= 3e-4 at 64 bits, 1.3 at 4096
        f = PrecCtx(bits).work().bits
        rs = [F(1, 2**k) for k in range(48)] + [F(k, 97) for k in range(1, 200, 3)]
        routes = set()
        for r in rs:
            for sign in (1, -1):
                q = QPoint(sign, r)
                routes.add(qseries._takes_dual("phi", q, f))
                assert qseries._takes_dual("chi", q, f) == qseries._takes_dual("phi", q, f), (r, sign)
        assert routes == {True, False}

    CHI_SERIES_QS = (F(3, 10), F(-1, 20), QPoint(1, 2), QPoint(-1, F(1, 40)), QPoint(1, F(1, 40)))

    @pytest.mark.parametrize("q", CHI_SERIES_QS, ids=str)
    def test_chi_by_its_series_leaves_one_phi_entry_that_phi_then_hits(self, q):
        ctx = PrecCtx(512)
        assert not qseries._takes_dual("chi", q, ctx.work().bits)
        qseries._theta_exact.cache_clear()
        chi(q, ctx)
        assert qseries._theta_exact.cache_info().currsize == 2  # chi(q) and phi(q)
        hits = qseries._theta_exact.cache_info().hits
        val, ref = phi(q, ctx), phi_series(q, ctx)
        assert qseries._theta_exact.cache_info().hits == hits + 1
        assert qseries._theta_exact.cache_info().currsize == 2
        assert (val.m, val.r, val.f) == (ref.m, ref.r, ref.f)

    @pytest.mark.parametrize("q", CHI_SERIES_QS + (bf(F(3, 10), 600),), ids=str)
    def test_chi_by_its_series_is_the_composite_of_the_two_series_rounded_once(self, q):
        ctx = PrecCtx(512)
        qseries._theta_exact.cache_clear()
        val, ref = chi(q, ctx), _chi_composite(q, ctx)
        assert (val.m, val.r, val.f) == (ref.m, ref.r, ref.f)

    def test_a_ball_nome_is_computed_every_time(self):
        qseries._theta_exact.cache_clear()
        q = bf(F(3, 10))
        assert phi(q, CTX).encloses(phi(q, CTX))
        assert qseries._theta_exact.cache_info().currsize == 0

    def test_a_repeated_call_is_a_hit_with_the_same_enclosure(self):
        q, ctx = QPoint(-1, F(1234, 567)), PrecCtx(320)
        first = chi(q, ctx)
        hits = qseries._theta_exact.cache_info().hits
        again = chi(q, ctx)
        assert qseries._theta_exact.cache_info().hits == hits + 1
        assert (again.m, again.r, again.f) == (first.m, first.r, first.f)


class TestGuardRule:
    """A call tree carries GUARD_BITS once: every theta kernel inside a
    composite at 512 requested bits runs at 544, however deep it sits."""

    COMPOSITES = {
        "deg3": lambda ctx: modular.verify_degree3(F(3, 10), ctx),
        "deg15": lambda ctx: modular.verify_degree15(F(2, 5), ctx),
        "yi_product": lambda ctx: modular.yi_product_theorem(2, 1, 6, 2, 3, ctx),
        "septic": lambda ctx: lostnotebook.septic_residuals(F(3, 10), ctx),
        "quartic": lambda ctx: lostnotebook.verify_quartic_relation(F(3, 10), ctx),
        "complete": lambda ctx: lostnotebook.complete_evaluation(ctx),
    }

    @pytest.mark.parametrize("name", list(COMPOSITES))
    def test_every_theta_kernel_runs_at_one_working_width(self, name, monkeypatch, cold_caches):
        real, widths = qseries._theta_wings, []

        def spy(wings, f):
            widths.append(f)
            return real(wings, f)

        monkeypatch.setattr(qseries, "_theta_wings", spy)
        self.COMPOSITES[name](PrecCtx(512))
        assert widths and set(widths) == {544}

    def test_a_direct_call_and_a_working_one_share_a_memo_entry(self, cold_caches):
        q, ctx = QPoint(1, F(5, 3)), PrecCtx(512)
        direct = phi(q, ctx)
        inner = phi(q, ctx.work())
        info = qseries._theta_exact.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert direct.f == 512 and inner.f == 544 and direct.encloses(inner.rescale(512))


class TestPochhammer:
    def test_zero_first_argument(self):
        assert pochhammer_inf(Ball(0, 0, 256), bf(F(1, 2)), CTX).contains(1)

    def test_zero_q_single_factor(self):
        val = pochhammer_inf(bf(F(1, 3)), Ball(0, 0, 256), CTX)
        assert val.contains(F(2, 3))

    def test_euler_product_at_tenth(self):
        # oracle: direct 200-factor product at doubled precision
        f = 512
        q = Ball.from_fraction(F(1, 10), f)
        prod = Ball.one(f)
        aq = q
        for _ in range(200):
            prod = prod * (Ball.one(f) - aq)
            aq = aq * q
        val = pochhammer_inf(bf(F(1, 10)), bf(F(1, 10)), CTX)
        assert abs(val.mid - prod.mid) < F(1, 10**70)
        assert decimal_str(val, 40) == "0.8900100999989990000001000099999999899999"

    def test_divergent_q_rejected(self):
        with pytest.raises(NotConvergent):
            pochhammer_inf(bf(F(1, 2)), bf(F(3, 2)), CTX)


class TestThetaF:
    @given(
        a=st.fractions(min_value=F(-9, 10), max_value=F(9, 10), max_denominator=200),
        b=st.fractions(min_value=F(-9, 10), max_value=F(9, 10), max_denominator=200),
        bits=st.just(128),
    )
    # |a| > 1 of either sign, and |ab| near 0.9, at the benchmark's precision
    @example(a=F(3, 2), b=F(1, 2), bits=2048)
    @example(a=F(-19, 10), b=F(2, 5), bits=2048)
    @example(a=F(999, 1000), b=F(9, 10), bits=2048)
    @settings(max_examples=20, deadline=None)
    def test_symmetry_and_triple_product(self, a, b, bits):
        ctx = PrecCtx(bits)
        ba, bb = Ball.from_fraction(a, bits), Ball.from_fraction(b, bits)
        series = theta_f(ba, bb, ctx)
        assert series.overlaps(theta_f(bb, ba, ctx))
        ab = ba * bb
        product = (
            pochhammer_inf(-ba, ab, ctx)
            * pochhammer_inf(-bb, ab, ctx)
            * pochhammer_inf(ab, ab, ctx)
        )
        assert series.overlaps(product)

    def test_value_against_frozen_digits(self):
        val = theta_f(bf(F(1, 5)), bf(F(3, 10)), CTX)
        assert decimal_str(val, 30) == "1.50780756045256486282021285670"

    def test_nonconvergent(self):
        with pytest.raises(NotConvergent):
            theta_f(bf(F(3, 2)), bf(F(1)), CTX)


class TestPhi:
    def test_at_zero(self):
        assert phi(Ball(0, 0, 256), CTX).contains(1)
        assert phi_series(Ball(0, 0, 256), CTX).contains(1)

    def test_classical_point(self):
        val = phi(E_PI, CTX)
        assert decimal_str(val, 30) == "1.08643481121330801457531612151"
        rhs = pow_rational(const_pi(CTX), F(1, 4)) / gamma_rational(F(3, 4), CTX)
        assert val.overlaps(rhs)

    def test_change_of_sign_fourth_power(self):
        ratio = phi(QPoint(-1, F(1)), CTX) / phi(E_PI, CTX)
        assert ipow(ratio, 4).contains(F(1, 2))

    def test_phi_equals_theta_f_q_q(self):
        q = bf(F(1, 10))
        assert phi(q, CTX).overlaps(theta_f(q, q, CTX))

    @pytest.mark.parametrize("q", SAMPLE_QS)
    def test_route_agreement(self, q):
        assert phi(q, CTX).overlaps(phi_series(q, CTX))

    def test_tail_soundness(self, monkeypatch):
        pairs = remainders_within_tails(monkeypatch, phi_series, bf(F(3, 10)))
        assert len(pairs) == 1 and all(0 < rest <= tail for rest, tail in pairs)


class TestPsi:
    def test_at_zero(self):
        assert psi(Ball(0, 0, 256), CTX).contains(1)

    @pytest.mark.parametrize("q", SAMPLE_QS)
    def test_route_agreement(self, q):
        assert psi(q, CTX).overlaps(psi_series(q, CTX))

    def test_psi_equals_theta_f_q_q3(self):
        q = bf(F(1, 5))
        assert psi(q, CTX).overlaps(theta_f(q, ipow(q, 3), CTX))

    def test_tail_soundness(self, monkeypatch):
        pairs = remainders_within_tails(monkeypatch, psi_series, bf(F(2, 5)))
        assert len(pairs) == 1 and all(0 < rest <= tail for rest, tail in pairs)


class TestFNeg:
    def test_at_zero(self):
        assert f_neg(Ball(0, 0, 256), CTX).contains(1)

    def test_pentagonal_vs_product(self):
        val = f_neg(bf(F(3, 10)), CTX)
        assert val.overlaps(f_neg_series(bf(F(3, 10)), CTX))
        assert decimal_str(val, 30) == "0.612648154213256524117652074619"

    def test_equals_theta_f(self):
        q = bf(F(3, 20))
        assert f_neg(q, CTX).overlaps(theta_f(-q, -(q * q), CTX))

    @pytest.mark.parametrize("q", SAMPLE_QS)
    def test_route_agreement(self, q):
        assert f_neg(q, CTX).overlaps(f_neg_series(q, CTX))

    def test_tail_soundness(self, monkeypatch):
        pairs = remainders_within_tails(monkeypatch, f_neg_series, bf(F(1, 2)))
        assert len(pairs) == 2 and all(0 < rest <= tail for rest, tail in pairs)


class TestChi:
    def test_at_zero(self):
        assert chi(Ball(0, 0, 256), CTX).contains(1)

    def test_value_against_product_oracle(self):
        # oracle: direct 300-factor product of (1 + q^(2k+1)) at doubled precision
        f = 512
        q = Ball.from_fraction(F(1, 5), f)
        q2 = q * q
        prod = Ball.one(f)
        aq = q
        for _ in range(300):
            prod = prod * (Ball.one(f) + aq)
            aq = aq * q2
        val = chi(bf(F(1, 5)), CTX)
        assert abs(val.mid - prod.mid) < F(1, 10**70)
        assert decimal_str(val, 30) == "1.21000320516923341604637347905"

    def test_modular_representation_at_half(self):
        # chi(q) = 2^(1/6) (x(1-x)/q)^(-1/24) at x = 1/2, q = e^-pi
        f = 288
        x = Ball.from_fraction(F(1, 2), f)
        q = E_PI.to_ball(PrecCtx(f))
        rhs = pow_rational(Ball.from_fraction(2, f), F(1, 6)) * pow_rational(
            x * (Ball.one(f) - x) / q, F(-1, 24)
        )
        assert chi(E_PI, CTX).overlaps(rhs)

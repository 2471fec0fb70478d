"""End-to-end referee: every catalog side recomputed with mpmath.

mpmath's jtheta/qp/gamma are an implementation completely independent of
this package; both sides of every entry must match it to ~40 digits.
This pins absolute values, complementing the internal lhs-vs-rhs checks.
"""

from fractions import Fraction as F

import mpmath as mp
import pytest

from thetaval.exact import (
    Add,
    Chi,
    ClassInv,
    CosPiRat,
    Div,
    FNeg,
    GammaRat,
    Int,
    Mul,
    Neg,
    Phi,
    Pi,
    PowRat,
    Psi,
    Rat,
    Sub,
    ThetaExpr,
    YiH,
    YiHPrime,
    build_catalog,
    eval_expr,
    eval_theta,
)
from thetaval.precision import PrecCtx

CATALOG = build_catalog()
CTX = PrecCtx(256)


def mp_expr(e):
    if isinstance(e, Int):
        return mp.mpf(e.value)
    if isinstance(e, Rat):
        return mp.mpf(e.value.numerator) / e.value.denominator
    if isinstance(e, Pi):
        return mp.pi
    if isinstance(e, GammaRat):
        return mp.gamma(mp.mpf(e.arg.numerator) / e.arg.denominator)
    if isinstance(e, CosPiRat):
        return mp.cos(mp.pi * e.arg.numerator / e.arg.denominator)
    if isinstance(e, Add):
        return mp_expr(e.left) + mp_expr(e.right)
    if isinstance(e, Sub):
        return mp_expr(e.left) - mp_expr(e.right)
    if isinstance(e, Mul):
        return mp_expr(e.left) * mp_expr(e.right)
    if isinstance(e, Div):
        return mp_expr(e.left) / mp_expr(e.right)
    if isinstance(e, PowRat):
        return mp.power(mp_expr(e.base), mp.mpf(e.exponent.numerator) / e.exponent.denominator)
    if isinstance(e, Neg):
        return -mp_expr(e.arg)
    if isinstance(e, ThetaExpr):
        return mp_theta(e)
    raise TypeError(e)


def mp_nome(q):
    return q.sign * mp.exp(-mp.pi * mp.sqrt(mp.mpf(q.r.numerator) / q.r.denominator))


def mp_theta(t):
    if isinstance(t, Phi):
        return mp.jtheta(3, 0, mp_nome(t.q))
    if isinstance(t, Psi):
        q = mp_nome(t.q)
        return mp.jtheta(2, 0, mp.sqrt(q)) / (2 * q ** mp.mpf("0.125"))
    if isinstance(t, FNeg):
        return mp.qp(mp_nome(t.q))
    if isinstance(t, Chi):
        q = mp_nome(t.q)
        return mp.qp(-q, q * q)
    if isinstance(t, ClassInv):
        n = mp.mpf(t.n.numerator) / t.n.denominator
        q = mp.exp(-mp.pi * mp.sqrt(n))
        return 2 ** mp.mpf("-0.25") * q ** (mp.mpf(-1) / 24) * mp.qp(-q, q * q)
    if isinstance(t, YiH):
        k = mp.mpf(t.k.numerator) / t.k.denominator
        n = mp.mpf(t.n.numerator) / t.n.denominator
        if t.primed:
            num = mp.jtheta(3, 0, -mp.exp(-2 * mp.pi * mp.sqrt(n / k)))
            den = mp.jtheta(3, 0, -mp.exp(-2 * mp.pi * mp.sqrt(n * k)))
        else:
            num = mp.jtheta(3, 0, mp.exp(-mp.pi * mp.sqrt(n / k)))
            den = mp.jtheta(3, 0, mp.exp(-mp.pi * mp.sqrt(n * k)))
        return num / (mp.root(k, 4) * den)
    raise TypeError(t)


@pytest.mark.parametrize("entry", CATALOG.entries, ids=lambda e: e.id)
def test_both_sides_match_mpmath(entry):
    mp.mp.dps = 60
    tol = F(1, 10**45)
    lhs_ref = F(str(mp.nstr(mp_expr(entry.lhs), 50, strip_zeros=False)))
    rhs_ref = F(str(mp.nstr(mp_expr(entry.rhs), 50, strip_zeros=False)))
    lhs = eval_expr(entry.lhs, CTX)
    rhs = eval_expr(entry.rhs, CTX)
    assert abs(lhs.mid - lhs_ref) < tol, entry.id
    assert abs(rhs.mid - rhs_ref) < tol, entry.id


@pytest.mark.parametrize("k,n,primed", [(3, 9, False), (5, 4, False), (2, 3, True), (3, 7, True)])
def test_yi_quotients_match_mpmath(k, n, primed):
    mp.mp.dps = 60
    node = (YiHPrime if primed else YiH)(F(k), F(n))
    ref = F(str(mp.nstr(mp_theta(node), 50, strip_zeros=False)))
    assert abs(eval_theta(node, CTX).mid - ref) < F(1, 10**45)

"""Randomized soundness checks of the inclusion property.

Random expression trees are evaluated once in ball arithmetic and once by
an independent referee (exact Fractions where the tree is rational-only,
mpmath at much higher precision otherwise); the referee value must land
inside the certified enclosure, up to the referee's own documented error.
Also pins the low-level rounding helpers against brute force.
"""

import random
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import assume, given, settings, strategies as st

from thetaval.errors import ThetavalError
from thetaval.exact import (
    Add,
    Agm,
    Chi,
    ClassInv,
    CosPiRat,
    Div,
    Expr,
    FNeg,
    GammaRat,
    Hyp,
    Int,
    Mul,
    Neg,
    Nome,
    Phi,
    Pi,
    PowRat,
    Psi,
    Rat,
    Sub,
    ThetaF,
    YiH,
    YiHPrime,
    eval_expr,
    parse_expr,
    render_expr,
)
from thetaval.precision import Ball, PrecCtx, _round_div, _round_shift, decimal_str
from thetaval.qseries import QPoint


def test_round_shift_exhaustive():
    for v in range(-1200, 1200):
        for s in range(1, 9):
            q, err = _round_shift(v, s)
            assert abs(F(v, 2**s) - q) <= F(1, 2), (v, s)
            if err == 0:
                assert F(v, 2**s) == q


def test_round_div_exhaustive():
    for a in range(-300, 300):
        for b in list(range(-12, 0)) + list(range(1, 13)):
            q, err = _round_div(a, b)
            assert abs(F(a, b) - q) <= F(1, 2), (a, b)
            if err == 0:
                assert F(a, b) == q


def _random_expr(rng: random.Random, depth: int, transcendental: bool):
    leafs = ["int", "rat"]
    if transcendental:
        leafs += ["pi", "gamma", "cospi"]
    if depth == 0:
        kind = rng.choice(leafs)
        if kind == "int":
            return Int(rng.randint(-9, 9))
        if kind == "rat":
            return Rat(F(rng.randint(-50, 50), rng.randint(1, 50)))
        if kind == "pi":
            return Pi()
        if kind == "gamma":
            return GammaRat(F(rng.randint(1, 16), 8))
        return CosPiRat(F(rng.randint(-20, 20), rng.randint(1, 12)))
    kind = rng.choice(["add", "sub", "mul", "div", "neg", "pow"])
    left = _random_expr(rng, depth - 1, transcendental)
    if kind == "neg":
        return Neg(left)
    if kind == "pow":
        return PowRat(left, F(rng.choice([-3, -2, -1, 2, 3, 1, 5])))
    right = _random_expr(rng, depth - 1, transcendental)
    return {"add": Add, "sub": Sub, "mul": Mul, "div": Div}[kind](left, right)


def _exact_value(e) -> F:
    if isinstance(e, Int):
        return F(e.value)
    if isinstance(e, Rat):
        return e.value
    if isinstance(e, Add):
        return _exact_value(e.left) + _exact_value(e.right)
    if isinstance(e, Sub):
        return _exact_value(e.left) - _exact_value(e.right)
    if isinstance(e, Mul):
        return _exact_value(e.left) * _exact_value(e.right)
    if isinstance(e, Div):
        return _exact_value(e.left) / _exact_value(e.right)
    if isinstance(e, Neg):
        return -_exact_value(e.arg)
    if isinstance(e, PowRat):
        return _exact_value(e.base) ** e.exponent.numerator
    raise TypeError(e)


def test_rational_trees_contain_exact_value():
    rng = random.Random(1729)
    checked = 0
    while checked < 120:
        expr = _random_expr(rng, rng.randint(1, 4), transcendental=False)
        try:
            exact = _exact_value(expr)
        except ZeroDivisionError:
            continue
        try:
            ball = eval_expr(expr, PrecCtx(128))
        except ThetavalError:
            continue  # division by an enclosure of an exact zero
        assert ball.contains(exact), expr
        # the printed tree reads back into one whose enclosure holds it too
        assert eval_expr(parse_expr(render_expr(expr)), PrecCtx(128)).contains(exact), expr
        checked += 1


# Mixed trees for the text round trip: closed forms around theta values on
# structured and ball nomes and the other function leaves.  Every leaf and
# every inner node is positive, and Sub and Neg appear only at the root, so
# a division or fractional power fails only when a value is too small for
# the precision.
_rat = st.builds(F, st.integers(1, 40), st.integers(1, 12))
_unit = st.builds(F, st.integers(1, 90), st.just(100))  # in (0, 1)
_qpoint = st.builds(QPoint, st.sampled_from([1, -1]), _rat)
_closed = st.one_of(
    st.builds(Int, st.integers(1, 9)),
    st.builds(Rat, _rat),
    st.just(Pi()),
    st.builds(GammaRat, st.builds(F, st.integers(1, 16), st.just(8))),
    st.builds(lambda p: Add(CosPiRat(p), Int(2)), st.builds(F, st.integers(-12, 12), st.integers(1, 7))),
)
_ball_nome = st.one_of(
    st.builds(Rat, _unit),
    st.builds(lambda u: Neg(Rat(u)), _unit),
    st.builds(lambda u, v: Mul(Rat(u), Rat(v)), _unit, _unit),
    st.builds(Nome, _qpoint),
)
_function_leaf = st.one_of(
    st.builds(lambda node, q: node(q), st.sampled_from([Phi, Psi, FNeg, Chi]), st.one_of(_qpoint, _ball_nome)),
    st.builds(lambda a, b: ThetaF(Rat(a), Rat(b)), _unit, _unit),
    st.builds(Hyp, st.builds(Rat, _unit)),
    st.builds(lambda r: Nome(QPoint(1, r)), _rat),
    st.builds(
        lambda node, k, n: node(k, n), st.sampled_from([YiH, YiHPrime]),
        st.builds(F, st.integers(1, 6)), st.builds(F, st.integers(1, 6)),
    ),
    st.builds(ClassInv, st.builds(F, st.integers(1, 200))),
)
_exponent = st.sampled_from([F(-2), F(-1), F(2), F(3), F(1, 2), F(1, 3), F(-1, 2), F(3, 2)])


def _positive_nodes(inner):
    return st.one_of(
        st.builds(lambda node, a, b: node(a, b), st.sampled_from([Add, Mul, Div, Agm]), inner, inner),
        st.builds(PowRat, inner, _exponent),
    )


_positive = st.recursive(st.one_of(_closed, _function_leaf), _positive_nodes, max_leaves=6)
_mixed = st.one_of(_positive, st.builds(Sub, _positive, _positive), st.builds(Neg, _positive))


@given(e=_mixed, bits=st.integers(128, 256))
@settings(max_examples=40, deadline=None)
def test_rendered_mixed_trees_parse_to_overlapping_balls(e, bits):
    ctx = PrecCtx(bits)
    try:
        expected = eval_expr(e, ctx)
    except ThetavalError:
        assume(False)  # e.g. a tiny nome under a negative power: its ball holds 0
    assert eval_expr(parse_expr(render_expr(e)), ctx).overlaps(expected), render_expr(e)


def _read_back(e):
    """The tree that the text of e reads back as.  It is e itself but where
    the grammar has no text for a node: a Rat with no decimal literal reads
    back as a quotient of integers, and the nome of phi/psi/fneg/chi written
    qpoint(...) stays the QPoint instead of a Nome node."""
    if isinstance(e, Rat) and e.value.denominator == 1:
        return Int(e.value.numerator)
    if isinstance(e, Rat) and 10**64 % e.value.denominator:
        return Div(Int(e.value.numerator), Int(e.value.denominator))  # e.value > 0 here
    fields = [_read_back(x) if isinstance(x, Expr) else x for x in e._values()]
    if isinstance(e, (Phi, Psi, FNeg, Chi)) and isinstance(e.q, Nome):
        fields = [e.q.q]
    return type(e)(*fields)


@given(e=_mixed)
@settings(max_examples=200, deadline=None)
def test_rendered_trees_parse_back_to_the_same_tree(e):
    assert parse_expr(render_expr(e)) == _read_back(e), render_expr(e)


def _mp_value(e):
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
        return _mp_value(e.left) + _mp_value(e.right)
    if isinstance(e, Sub):
        return _mp_value(e.left) - _mp_value(e.right)
    if isinstance(e, Mul):
        return _mp_value(e.left) * _mp_value(e.right)
    if isinstance(e, Div):
        return _mp_value(e.left) / _mp_value(e.right)
    if isinstance(e, Neg):
        return -_mp_value(e.arg)
    if isinstance(e, PowRat):
        base = _mp_value(e.base)
        return mp.power(base, mp.mpf(e.exponent.numerator) / e.exponent.denominator)
    raise TypeError(e)


def test_transcendental_trees_agree_with_mpmath():
    rng = random.Random(65537)
    mp.mp.dps = 120
    checked = 0
    while checked < 80:
        expr = _random_expr(rng, rng.randint(1, 3), transcendental=True)
        try:
            ball = eval_expr(expr, PrecCtx(192))
        except ThetavalError:
            continue
        ref = _mp_value(expr)
        if not mp.isfinite(ref) or abs(ref) > mp.mpf(10) ** 30:
            continue
        # the referee value must sit inside the ball, up to its own error
        mid = F(str(mp.nstr(ref, 100, strip_zeros=False)))
        slack = F(1, 10**90) * max(1, int(abs(ref)) + 1)
        assert ball.lower - slack <= mid <= ball.upper + slack, expr
        checked += 1


def test_theta_values_against_mpmath():
    from thetaval.qseries import QPoint, f_neg, phi, psi

    mp.mp.dps = 80
    ctx = PrecCtx(256)
    for r in (F(1), F(2), F(7), F(1, 7), F(5, 3)):
        q = QPoint(1, r)
        qm = mp.exp(-mp.pi * mp.sqrt(mp.mpf(r.numerator) / r.denominator))
        for ours, theirs in (
            (phi(q, ctx), mp.jtheta(3, 0, qm)),
            (psi(q, ctx), mp.jtheta(2, 0, mp.sqrt(qm)) / (2 * qm ** mp.mpf("0.125"))),
            (f_neg(q, ctx), mp.qp(qm)),
        ):
            ref = F(str(mp.nstr(theirs, 70, strip_zeros=False)))
            assert abs(ours.mid - ref) < F(1, 10**65)


def test_decimal_str_round_trip():
    rng = random.Random(4104)
    for _ in range(200):
        num = rng.randint(-(10**12), 10**12)
        if num == 0:
            continue
        den = rng.randint(1, 10**10)
        ball = Ball.from_fraction(F(num, den), 192)
        text = decimal_str(ball, 25)
        assert abs(F(text.replace("e", "E")) - ball.mid) <= abs(ball.mid) * F(1, 10**23)


@pytest.mark.parametrize(
    "value,sig,expected",
    [
        (F(1, 2), 5, "0.50000"),
        (F(-3, 4), 3, "-0.750"),
        (F(12345, 1), 3, "12300"),
        (F(1, 10**6), 2, "1.0e-6"),
        (F(999996, 100000), 5, "10.000"),
    ],
)
def test_decimal_str_formats(value, sig, expected):
    assert decimal_str(Ball.from_fraction(value, 192), sig) == expected

"""Exact closed-form expression trees and the identity catalog.

Every explicit phi value carried by this package is encoded here as an
:class:`Identity`: a theta-quotient left side over structured nomes, a
closed-form right side built from rationals, pi, Gamma at rationals and
cosines of rational multiples of pi, and a literature provenance string.
Verification means evaluating both sides to certified balls and checking
overlap with radii below the digit target.

The trees print in one text grammar (`render_expr`, `render_theta`) and
`parse_expr` reads that grammar back, so `eval_expr` is the one evaluator
of both catalog trees and command-line text.  Theta nodes are expressions
too, so `phi(q) + 1` is a single tree.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DivisionByZeroEnclosure,
    DivisorStraddlesZero,
    EvaluationError,
    NegativeBaseEvenRoot,
    NegativeEvenRootEnclosure,
    ParseError,
    ThetavalError,
    UnsupportedGammaArgument,
)
from .precision import (
    Ball,
    PrecCtx,
    agm,
    agreement_digits,
    cos,
    gamma_rational,
    ipow,
    pow_rational,
)
from .precision import _pi_ball
from .qseries import QPoint, chi, f_neg, phi, psi, theta_f
from . import modular

__all__ = [
    "Expr",
    "Int",
    "Rat",
    "Pi",
    "GammaRat",
    "CosPiRat",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "PowRat",
    "Neg",
    "Agm",
    "Hyp",
    "Nome",
    "eval_expr",
    "render_expr",
    "parse_expr",
    "ThetaExpr",
    "Phi",
    "Psi",
    "FNeg",
    "Chi",
    "ThetaF",
    "YiH",
    "ClassInv",
    "Scalar",
    "TMul",
    "TDiv",
    "TPow",
    "eval_theta",
    "render_theta",
    "Identity",
    "Catalog",
    "VerifyReport",
    "build_catalog",
    "verify_identity",
    "mutate_first_leaf",
    "D_TARGET_DIGITS",
]

D_TARGET_DIGITS = 100


# ---------------------------------------------------------------------------
# closed-form expression nodes


class Expr:
    __slots__ = ()

    def __add__(self, other):
        return Add(self, _as_expr(other))

    def __radd__(self, other):
        return Add(_as_expr(other), self)

    def __sub__(self, other):
        return Sub(self, _as_expr(other))

    def __rsub__(self, other):
        return Sub(_as_expr(other), self)

    def __mul__(self, other):
        return Mul(self, _as_expr(other))

    def __rmul__(self, other):
        return Mul(_as_expr(other), self)

    def __truediv__(self, other):
        return Div(self, _as_expr(other))

    def __rtruediv__(self, other):
        return Div(_as_expr(other), self)

    def __pow__(self, e):
        return PowRat(self, Fraction(e))

    def __neg__(self):
        return Neg(self)


def _as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, int):
        return Int(v)
    if isinstance(v, Fraction):
        return Rat(v)
    raise TypeError(f"cannot build an Expr from {v!r}")


@dataclass(frozen=True)
class Int(Expr):
    value: int


@dataclass(frozen=True)
class Rat(Expr):
    value: Fraction


@dataclass(frozen=True)
class Pi(Expr):
    pass


@dataclass(frozen=True)
class GammaRat(Expr):
    arg: Fraction


@dataclass(frozen=True)
class CosPiRat(Expr):
    arg: Fraction  # cos(arg * pi)


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class PowRat(Expr):
    base: Expr
    exponent: Fraction


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Agm(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Hyp(Expr):
    x: Expr  # 2F1(1/2, 1/2; 1; x)


@dataclass(frozen=True)
class Nome(Expr):
    q: QPoint  # the value sign * e^(-pi sqrt r) as a ball


_EXACT_COSPI = {
    Fraction(0): Fraction(1),
    Fraction(1): Fraction(-1),
    Fraction(1, 2): Fraction(0),
    Fraction(3, 2): Fraction(0),
    Fraction(1, 3): Fraction(1, 2),
    Fraction(2, 3): Fraction(-1, 2),
    Fraction(4, 3): Fraction(-1, 2),
    Fraction(5, 3): Fraction(1, 2),
}


def _eval_raw(e: Expr, f: int) -> Ball:
    if isinstance(e, Int):
        return Ball.exact_int(e.value).rescale(f)
    if isinstance(e, Rat):
        return Ball.from_fraction(e.value, f)
    if isinstance(e, Pi):
        return _pi_ball(f)
    if isinstance(e, GammaRat):
        if not 0 < e.arg <= 2:
            raise UnsupportedGammaArgument(f"gamma argument {e.arg} outside (0, 2]")
        return gamma_rational(e.arg, PrecCtx(f))
    if isinstance(e, CosPiRat):
        t = e.arg % 2
        exact = _EXACT_COSPI.get(t)
        if exact is not None:
            return Ball.from_fraction(exact, f)
        return cos(_pi_ball(f + 32) * Ball.from_fraction(t, f + 32)).rescale(f)
    if isinstance(e, Add):
        return _eval_raw(e.left, f) + _eval_raw(e.right, f)
    if isinstance(e, Sub):
        return _eval_raw(e.left, f) - _eval_raw(e.right, f)
    if isinstance(e, Mul):
        return _eval_raw(e.left, f) * _eval_raw(e.right, f)
    if isinstance(e, Div):
        return _eval_raw(e.left, f) / _eval_raw(e.right, f)
    if isinstance(e, PowRat):
        base = _eval_raw(e.base, f)
        if e.exponent.denominator == 1:
            return ipow(base, e.exponent.numerator)
        return pow_rational(base, e.exponent)
    if isinstance(e, Neg):
        return -_eval_raw(e.arg, f)
    if isinstance(e, ThetaExpr):
        return eval_theta(e, PrecCtx(f))
    if isinstance(e, Agm):
        return agm(_eval_raw(e.a, f), _eval_raw(e.b, f), PrecCtx(f))
    if isinstance(e, Hyp):
        return modular.hyp2f1_half(_eval_raw(e.x, f), PrecCtx(f))
    if isinstance(e, Nome):
        return e.q.to_ball(PrecCtx(f))
    raise TypeError(f"unknown expression node {e!r}")


def eval_expr(e: Expr, ctx: PrecCtx) -> Ball:
    """Certified enclosure of an expression tree, theta nodes included.

    A divisor or fractional-power base whose enclosure straddles zero is
    retried at doubled precision twice before the error surfaces.
    """
    f = ctx.bits
    for attempt in range(3):
        try:
            return _eval_raw(e, f << attempt).rescale(f)
        except (DivisorStraddlesZero, NegativeBaseEvenRoot) as exc:
            last = exc
    if isinstance(last, DivisorStraddlesZero):
        raise DivisionByZeroEnclosure(str(last))
    raise NegativeEvenRootEnclosure(str(last))


def render_expr(e: Expr) -> str:
    """Fixed text grammar: prefix functions, parenthesized infix, ^ powers."""
    if isinstance(e, Int):
        return str(e.value)
    if isinstance(e, Rat):
        v = e.value
        return str(v.numerator) if v.denominator == 1 else f"({v})"
    if isinstance(e, Pi):
        return "pi"
    if isinstance(e, GammaRat):
        return f"gamma({e.arg})"
    if isinstance(e, CosPiRat):
        return f"cospi({e.arg})"
    if isinstance(e, Add):
        return f"({render_expr(e.left)} + {render_expr(e.right)})"
    if isinstance(e, Sub):
        return f"({render_expr(e.left)} - {render_expr(e.right)})"
    if isinstance(e, Mul):
        return f"({render_expr(e.left)} * {render_expr(e.right)})"
    if isinstance(e, Div):
        return f"({render_expr(e.left)} / {render_expr(e.right)})"
    if isinstance(e, PowRat):
        exp = e.exponent
        base = render_expr(e.base)
        atom = isinstance(e.base, (Pi, GammaRat, CosPiRat)) or (
            isinstance(e.base, Int) and e.base.value >= 0
        )
        if not atom:
            base = f"({base})"
        return f"{base}^({exp})" if exp.denominator != 1 or exp < 0 else f"{base}^{exp}"
    if isinstance(e, Neg):
        return f"(-{render_expr(e.arg)})"
    if isinstance(e, ThetaExpr):
        return render_theta(e)
    if isinstance(e, Agm):
        return f"agm({render_expr(e.a)}, {render_expr(e.b)})"
    if isinstance(e, Hyp):
        return f"hyp({render_expr(e.x)})"
    if isinstance(e, Nome):
        return _render_qpoint(e.q)
    raise TypeError(f"unknown expression node {e!r}")


def mutate_first_leaf(e: Expr, delta: Fraction = Fraction(1, 10**6)) -> Expr:
    """Copy of the tree with its first rational leaf shifted by `delta`.

    Leaf rationals are integer and rational constants, gamma and cosine
    arguments, and power exponents (visited after their base subtree)."""

    def walk(node: Expr) -> tuple[Expr, bool]:
        if isinstance(node, Int):
            return Rat(Fraction(node.value) + delta), True
        if isinstance(node, Rat):
            return Rat(node.value + delta), True
        if isinstance(node, GammaRat):
            return GammaRat(node.arg + delta), True
        if isinstance(node, CosPiRat):
            return CosPiRat(node.arg + delta), True
        if isinstance(node, Pi):
            return node, False
        if isinstance(node, (Add, Sub, Mul, Div)):
            left, done = walk(node.left)
            if done:
                return type(node)(left, node.right), True
            right, done = walk(node.right)
            return type(node)(node.left, right), done
        if isinstance(node, PowRat):
            base, done = walk(node.base)
            if done:
                return PowRat(base, node.exponent), True
            return PowRat(node.base, node.exponent + delta), True
        if isinstance(node, Neg):
            arg, done = walk(node.arg)
            return Neg(arg), done
        raise TypeError(f"unknown expression node {node!r}")

    out, done = walk(e)
    if not done:
        raise ValueError("expression has no rational leaf to mutate")
    return out


# ---------------------------------------------------------------------------
# theta-expression left sides


class ThetaExpr(Expr):
    """A theta-function value; legal anywhere in an `Expr`."""

    __slots__ = ()


# The nome of phi/psi/fneg/chi is a structured QPoint (which the theta
# cache keys on) or any expression whose ball is the nome.


@dataclass(frozen=True)
class Phi(ThetaExpr):
    q: QPoint | Expr


@dataclass(frozen=True)
class Psi(ThetaExpr):
    q: QPoint | Expr


@dataclass(frozen=True)
class FNeg(ThetaExpr):
    q: QPoint | Expr


@dataclass(frozen=True)
class Chi(ThetaExpr):
    q: QPoint | Expr


@dataclass(frozen=True)
class ThetaF(ThetaExpr):
    a: Expr  # Ramanujan's general theta function f(a, b)
    b: Expr


@dataclass(frozen=True)
class YiH(ThetaExpr):
    k: Fraction
    n: Fraction
    primed: bool = False


@dataclass(frozen=True)
class ClassInv(ThetaExpr):
    n: Fraction


@dataclass(frozen=True)
class Scalar(ThetaExpr):
    value: Expr


@dataclass(frozen=True)
class TMul(ThetaExpr):
    left: ThetaExpr
    right: ThetaExpr


@dataclass(frozen=True)
class TDiv(ThetaExpr):
    left: ThetaExpr
    right: ThetaExpr


@dataclass(frozen=True)
class TPow(ThetaExpr):
    base: ThetaExpr
    exponent: Fraction


def _nome(q: QPoint | Expr, ctx: PrecCtx) -> QPoint | Ball:
    return q if isinstance(q, QPoint) else _eval_raw(q, ctx.bits)


def eval_theta(t: ThetaExpr, ctx: PrecCtx) -> Ball:
    if isinstance(t, Phi):
        return phi(_nome(t.q, ctx), ctx)
    if isinstance(t, Psi):
        return psi(_nome(t.q, ctx), ctx)
    if isinstance(t, FNeg):
        return f_neg(_nome(t.q, ctx), ctx)
    if isinstance(t, Chi):
        return chi(_nome(t.q, ctx), ctx)
    if isinstance(t, ThetaF):
        return theta_f(_eval_raw(t.a, ctx.bits), _eval_raw(t.b, ctx.bits), ctx)
    if isinstance(t, YiH):
        return modular.yi_h(modular.YiQuotient(t.k, t.n, t.primed), ctx)
    if isinstance(t, ClassInv):
        return modular.class_invariant(t.n, ctx)
    if isinstance(t, Scalar):
        return eval_expr(t.value, ctx)
    if isinstance(t, TMul):
        return eval_theta(t.left, ctx) * eval_theta(t.right, ctx)
    if isinstance(t, TDiv):
        return eval_theta(t.left, ctx) / eval_theta(t.right, ctx)
    if isinstance(t, TPow):
        b = eval_theta(t.base, ctx)
        if t.exponent.denominator == 1:
            return ipow(b, t.exponent.numerator)
        return pow_rational(b, t.exponent)
    raise TypeError(f"unknown theta node {t!r}")


def _render_qpoint(q: QPoint) -> str:
    sign = "+1" if q.sign == 1 else "-1"
    return f"qpoint({sign}, {q.r})"


_NOME_FUNCTIONS = {"phi": Phi, "psi": Psi, "fneg": FNeg, "chi": Chi}
_NOME_NAMES = {node: name for name, node in _NOME_FUNCTIONS.items()}


def render_theta(t: ThetaExpr) -> str:
    name = _NOME_NAMES.get(type(t))
    if name is not None:
        q = t.q
        return f"{name}({_render_qpoint(q) if isinstance(q, QPoint) else render_expr(q)})"
    if isinstance(t, ThetaF):
        return f"f({render_expr(t.a)}, {render_expr(t.b)})"
    if isinstance(t, YiH):
        name = "hprime" if t.primed else "h"
        return f"{name}({t.k}, {t.n})"
    if isinstance(t, ClassInv):
        return f"classinv({t.n})"
    if isinstance(t, Scalar):
        return render_expr(t.value)
    if isinstance(t, TMul):
        return f"({render_theta(t.left)} * {render_theta(t.right)})"
    if isinstance(t, TDiv):
        return f"({render_theta(t.left)} / {render_theta(t.right)})"
    if isinstance(t, TPow):
        exp = t.exponent
        suffix = f"^({exp})" if exp.denominator != 1 or exp < 0 else f"^{exp}"
        return f"({render_theta(t.base)}){suffix}"
    raise TypeError(f"unknown theta node {t!r}")


# ---------------------------------------------------------------------------
# the text grammar, read back into trees
#
#   expr   := term (('+' | '-') term)*
#   term   := unary (('*' | '/') unary)*
#   unary  := ('-' | '+') unary | power
#   power  := atom ('^' unary)?          exponent must fold to a rational
#   atom   := NUMBER | 'pi' | NAME '(' expr (',' expr)* ')' | '(' expr ')'
#
# Functions and their arities are the keys of _ARITY; qpoint(sign, r)
# denotes sign * e^(-pi sqrt r) and stays a structured QPoint inside
# phi/psi/fneg/chi.  Exponents and the arguments of gamma, cospi, h,
# hprime, classinv and qpoint fold to exact rationals while parsing.

_TOKEN_RE = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)|([A-Za-z_][A-Za-z_0-9]*)|(.))")

_ARITY = {
    "phi": 1,
    "psi": 1,
    "fneg": 1,
    "chi": 1,
    "f": 2,
    "gamma": 1,
    "cospi": 1,
    "agm": 2,
    "hyp": 1,
    "h": 2,
    "hprime": 2,
    "classinv": 1,
    "qpoint": 2,
}

_BINARY = {"+": Add, "-": Sub, "*": Mul, "/": Div}
_FOLD = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            break
        num, name, sym = m.groups()
        tok_pos = m.start(1) if num else m.start(2) if name else m.start(3)
        if num:
            tokens.append(("num", num, tok_pos))
        elif name:
            tokens.append(("name", name, tok_pos))
        elif sym.strip():
            if sym not in "+-*/^(),":
                raise ParseError(f"unexpected character {sym!r}", tok_pos)
            tokens.append(("sym", sym, tok_pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _const_value(e: Expr) -> Fraction | None:
    """Exact value of a subtree of rationals, or None if it has other leaves."""
    if isinstance(e, Int):
        return Fraction(e.value)
    if isinstance(e, Rat):
        return e.value
    if isinstance(e, Neg):
        v = _const_value(e.arg)
        return None if v is None else -v
    if isinstance(e, (Add, Sub, Mul, Div)):
        a, b = _const_value(e.left), _const_value(e.right)
        return None if a is None or b is None else _FOLD[type(e)](a, b)
    if isinstance(e, PowRat) and e.exponent.denominator == 1:
        base = _const_value(e.base)
        return None if base is None else base**e.exponent.numerator
    return None


def _fold(e: Expr, pos: int) -> Fraction | None:
    try:
        return _const_value(e)
    except ZeroDivisionError:
        raise ParseError("division by zero in a constant", pos) from None


def _call(name: str, args: list[Expr], pos: int) -> Expr:
    if len(args) != _ARITY[name]:
        raise ParseError(f"{name} takes {_ARITY[name]} argument(s)", pos)
    if name in _NOME_FUNCTIONS:
        q = args[0]
        return _NOME_FUNCTIONS[name](q.q if isinstance(q, Nome) else q)
    if name == "f":
        return ThetaF(*args)
    if name == "agm":
        return Agm(*args)
    if name == "hyp":
        return Hyp(*args)
    values = [_fold(a, pos) for a in args]
    if name == "qpoint":
        sign, r = values
        if sign not in (1, -1):
            raise ParseError("qpoint sign must be +1 or -1", pos)
        if r is None or r <= 0:
            raise ParseError("qpoint r must be a positive rational", pos)
        return Nome(QPoint(int(sign), r))
    if None in values:
        raise ParseError(f"{name} needs a rational argument", pos)
    if name == "gamma":
        return GammaRat(*values)
    if name == "cospi":
        return CosPiRat(*values)
    if name == "classinv":
        return ClassInv(*values)
    return YiH(*values, primed=name == "hprime")


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, sym: str):
        kind, val, pos = self.next()
        if kind != "sym" or val != sym:
            raise ParseError(f"expected {sym!r}", pos)

    def parse(self) -> Expr:
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek()[:2] in (("sym", "+"), ("sym", "-")):
            node = _BINARY[self.next()[1]](node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek()[:2] in (("sym", "*"), ("sym", "/")):
            node = _BINARY[self.next()[1]](node, self.unary())
        return node

    def unary(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "sym" and val in "+-":
            self.next()
            return Neg(self.unary()) if val == "-" else self.unary()
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        if self.peek()[:2] == ("sym", "^"):
            self.next()
            exp_pos = self.peek()[2]
            exponent = _fold(self.unary(), exp_pos)
            if exponent is None:
                raise ParseError("exponent must be a rational constant", exp_pos)
            return PowRat(node, exponent)
        return node

    def atom(self) -> Expr:
        kind, val, pos = self.next()
        if kind == "num":
            v = Fraction(val)
            return Int(v.numerator) if v.denominator == 1 else Rat(v)
        if kind == "name":
            if val == "pi":
                return Pi()
            if val not in _ARITY:
                raise ParseError(f"unknown name {val!r}", pos)
            self.expect("(")
            args = [self.expr()]
            while self.peek()[:2] == ("sym", ","):
                self.next()
                args.append(self.expr())
            self.expect(")")
            return _call(val, args, pos)
        if kind == "sym" and val == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError("expected a value", pos)


def parse_expr(text: str) -> Expr:
    """The tree that a text in the grammar of `render_expr` denotes."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# the identity catalog


@dataclass(frozen=True)
class Identity:
    id: str
    lhs: ThetaExpr
    rhs: Expr
    provenance: str
    status: str = "unverified"


@dataclass(frozen=True)
class Catalog:
    entries: tuple[Identity, ...]

    def __post_init__(self):
        ids = [e.id for e in self.entries]
        if len(ids) != len(set(ids)):
            raise ValueError("catalog ids must be unique")

    def __len__(self):
        return len(self.entries)

    def ids(self) -> list[str]:
        return [e.id for e in self.entries]

    def get(self, entry_id: str) -> Identity:
        for e in self.entries:
            if e.id == entry_id:
                return e
        raise KeyError(entry_id)

    def json_entries(self) -> list[dict]:
        return [
            {
                "id": e.id,
                "lhs_text": render_theta(e.lhs),
                "rhs_text": render_expr(e.rhs),
                "provenance": e.provenance,
            }
            for e in self.entries
        ]


@dataclass(frozen=True)
class VerifyReport:
    id: str
    lhs: Ball
    rhs: Ball
    agreement_digits: int
    status: str
    prec_bits_used: int


def _sq(e: Expr) -> Expr:
    return PowRat(e, Fraction(1, 2))


def _cbrt(e: Expr) -> Expr:
    return PowRat(e, Fraction(1, 3))


def _frac(p: int, q: int) -> Fraction:
    return Fraction(p, q)


def ln7_cos_term(num_k: int, den_k: int) -> Expr:
    """(cos(num_k pi/7) / (2 cos^2(den_k pi/7)))^(2/7), the shape shared by
    the catalog entry and the completion pipeline's emitted terms."""
    return PowRat(
        Div(
            CosPiRat(_frac(num_k, 7)),
            Mul(Int(2), PowRat(CosPiRat(_frac(den_k, 7)), Fraction(2))),
        ),
        Fraction(2, 7),
    )


def ln7_rhs_from_terms(pairs: tuple[tuple[int, int], ...]) -> Expr:
    """7^(-3/4) (1 + t1 + t2 + t3) with the given cosine index pairs."""
    t1, t2, t3 = (ln7_cos_term(a, b) for a, b in pairs)
    return Mul(
        PowRat(Int(7), Fraction(-3, 4)),
        Add(Int(1), Add(t1, Add(t2, t3))),
    )


def _g169_expr() -> Expr:
    s13 = _sq(Int(13))
    half_11 = Div(Add(Int(11), s13), Int(2))
    inner = Add(
        _cbrt(Add(half_11, Mul(Int(3), _sq(Int(3))))),
        _cbrt(Sub(half_11, Mul(Int(3), _sq(Int(3))))),
    )
    return Div(
        Add(
            Add(s13, Int(2)),
            Mul(_cbrt(Div(Add(Int(13), Mul(Int(3), s13)), Int(2))), inner),
        ),
        Int(3),
    )


def build_catalog() -> Catalog:
    """The full value catalog; every right side follows its printed source."""
    one, two, three = Int(1), Int(2), Int(3)
    s2, s3, s5, s7 = _sq(two), _sq(three), _sq(Int(5)), _sq(Int(7))
    pi = Pi()

    def P(r, sign=1) -> Phi:
        return Phi(QPoint(sign, Fraction(r)))

    def quot(a, b) -> ThetaExpr:
        return TDiv(a, b)

    entries = []

    entries.append(
        Identity(
            "classical_1",
            P(1),
            Div(PowRat(pi, Fraction(1, 4)), GammaRat(_frac(3, 4))),
            "classical; Ramanujan, notebook 2 (Entry 6)",
        )
    )
    entries.append(
        Identity(
            "classical_sqrt2",
            P(2),
            Mul(
                Div(GammaRat(_frac(9, 8)), GammaRat(_frac(5, 4))),
                _sq(
                    Div(
                        GammaRat(_frac(1, 4)),
                        Mul(PowRat(two, Fraction(1, 4)), pi),
                    )
                ),
            ),
            "classical; Ramanujan, notebook 2 (Entry 6)",
        )
    )
    entries.append(
        Identity(
            "classical_2",
            P(4),
            Mul(
                Div(_sq(Add(two, s2)), two),
                Div(PowRat(pi, Fraction(1, 4)), GammaRat(_frac(3, 4))),
            ),
            "classical; Ramanujan, notebook 2 (Entry 6)",
        )
    )
    entries.append(
        Identity(
            "r5",
            quot(P(25), P(1)),
            Div(one, _sq(Sub(Mul(Int(5), s5), Int(10)))),
            "Ramanujan, JIMS question 629 (second part)",
        )
    )
    entries.append(
        Identity(
            "r3",
            quot(P(9), P(1)),
            PowRat(Sub(Mul(Int(6), s3), Int(9)), Fraction(-1, 4)),
            "Ramanujan, notebook 1; proof by Berndt-Chan",
        )
    )
    entries.append(
        Identity(
            "r7",
            TPow(quot(P(49), P(1)), Fraction(2)),
            Mul(
                Div(Add(_sq(Add(Int(13), s7)), _sq(Add(Int(7), Mul(three, s7)))), Int(14)),
                PowRat(Int(28), Fraction(1, 8)),
            ),
            "Ramanujan, notebook 1; proof by Berndt-Chan",
        )
    )
    entries.append(
        Identity(
            "r9",
            quot(P(81), P(1)),
            Div(Add(one, _cbrt(Mul(two, Add(s3, one)))), three),
            "Ramanujan, notebook 1; proof by Berndt-Chan",
        )
    )
    entries.append(
        Identity(
            "r45",
            quot(P(2025), P(1)),
            Div(
                Add(
                    Add(three, s5),
                    Mul(
                        Add(Add(s3, s5), PowRat(Int(60), Fraction(1, 4))),
                        _cbrt(Add(two, s3)),
                    ),
                ),
                Mul(three, _sq(Add(Int(10), Mul(Int(10), s5)))),
            ),
            "Ramanujan, notebook 1; proof by Berndt-Chan",
        )
    )
    g = _g169_expr()
    g_inv = PowRat(g, Fraction(-1))
    gdiff = Sub(g, g_inv)
    a13 = Add(PowRat(gdiff, Fraction(3)), Mul(Int(7), gdiff))
    entries.append(
        Identity(
            "cb13",
            quot(P(169), P(1)),
            PowRat(
                Mul(
                    PowRat(g, Fraction(-3)),
                    Div(Add(a13, _sq(Add(PowRat(a13, Fraction(2)), Int(52)))), two),
                ),
                Fraction(-1, 2),
            ),
            "Berndt-Chan, via the class invariant G_169",
        )
    )
    entries.append(
        Identity(
            "cb27",
            quot(P(729), P(9)),
            Mul(
                Div(one, three),
                Add(
                    one,
                    Mul(
                        Sub(s3, one),
                        _cbrt(
                            Div(
                                Add(_cbrt(Mul(two, Add(s3, one))), one),
                                Sub(_cbrt(Mul(two, Sub(s3, one))), one),
                            )
                        ),
                    ),
                ),
            ),
            "Berndt-Chan; combine with r3 for phi(e^-27pi)",
        )
    )
    entries.append(
        Identity(
            "cb63",
            quot(P(3969), P(49)),
            Mul(
                Div(one, three),
                Add(
                    one,
                    Mul(
                        Mul(
                            Mul(
                                PowRat(
                                    Div(Sub(_sq(Add(Int(4), s7)), PowRat(Int(7), Fraction(1, 4))), two),
                                    Fraction(3),
                                ),
                                _sq(Add(s3, s7)),
                            ),
                            Mul(
                                PowRat(Add(two, s3), Fraction(1, 6)),
                                _sq(Div(Add(Add(two, s7), _sq(Add(Int(7), Mul(Int(4), s7)))), two)),
                            ),
                        ),
                        _sq(
                            Div(
                                Add(_sq(Add(three, s7)), PowRat(Mul(Int(6), s7), Fraction(1, 4))),
                                Sub(_sq(Add(three, s7)), PowRat(Mul(Int(6), s7), Fraction(1, 4))),
                            )
                        ),
                    ),
                ),
            ),
            "Berndt-Chan; combine with r7 for phi(e^-63pi)",
        )
    )
    entries.append(
        Identity(
            "yi_33",
            quot(P(3), TMul(Scalar(PowRat(three, Fraction(1, 4))), P(27))),
            Div(Add(Sub(one, _cbrt(two)), _cbrt(Int(4))), s3),
            "Yi, theta quotient h_{3,9}",
        )
    )
    entries.append(
        Identity(
            "yi_53",
            quot(P(_frac(5, 3)), TMul(Scalar(PowRat(three, Fraction(1, 4))), P(15))),
            Div(_sq(Sub(s5, one)), s2),
            "Yi, theta quotient h_{3,5}",
        )
    )
    entries.append(
        Identity(
            "yi_m6",
            quot(P(36, -1), P(1)),
            Div(
                _cbrt(Add(Add(one, s3), Mul(s2, PowRat(three, Fraction(3, 4))))),
                Mul(
                    Mul(PowRat(two, Fraction(11, 24)), PowRat(three, Fraction(3, 8))),
                    PowRat(Sub(s3, one), Fraction(1, 6)),
                ),
            ),
            "Yi, signed-nome quotient",
        )
    )
    a_y = Add(Div(Add(one, s5), two), _sq(Div(Add(one, s5), two)))
    entries.append(
        Identity(
            "yi_2s5",
            quot(P(_frac(4, 5)), TMul(Scalar(PowRat(Int(5), Fraction(1, 4))), P(20))),
            Div(
                Mul(two, _sq(Mul(two, a_y))),
                Mul(Add(Add(three, s2), Add(s5, _sq(Int(10)))), Sub(a_y, s5)),
            ),
            "Yi and coauthors, degree-5 route",
        )
    )
    w19 = Sub(Mul(Int(11), s3), Int(19))
    entries.append(
        Identity(
            "yi_9",
            quot(P(1), TMul(Scalar(s3), P(81))),
            Sub(
                Sub(
                    Sub(two, s3),
                    Div(Mul(_cbrt(Int(4)), Sub(Int(5), Mul(three, s3))), _cbrt(w19)),
                ),
                _cbrt(Mul(two, w19)),
            ),
            "Yi and coauthors (sign-corrected form)",
        )
    )
    entries.append(
        Identity(
            "ln7",
            quot(P(343), P(7)),
            ln7_rhs_from_terms(((1, 2), (2, 3), (3, 1))),
            "lost notebook p.206, completed by Rebak",
        )
    )
    entries.append(
        Identity(
            "g9",
            ClassInv(Fraction(9)),
            _cbrt(Div(Add(one, s3), s2)),
            "Ramanujan's class invariant table",
        )
    )
    entries.append(
        Identity(
            "g169",
            ClassInv(Fraction(169)),
            _g169_expr(),
            "Berndt-Chan, class invariant G_169",
        )
    )
    return Catalog(tuple(entries))


# ---------------------------------------------------------------------------
# verification


def _rad_below(ball: Ball, digits: int) -> bool:
    """radius < 10^-digits, decided exactly in integers."""
    return ball.r * 10**digits < (1 << ball.f)


def verify_identity(
    ident: Identity, ctx: PrecCtx, d_target: int = D_TARGET_DIGITS
) -> VerifyReport:
    """Evaluate both sides and compare as balls.

    Verified means the enclosures overlap and both radii sit below
    10^-d_target.  Overlapping-but-wide results trigger one automatic
    precision doubling before the entry is reported unverified; disjoint
    enclosures fail immediately (inclusion makes that definitive).
    """
    bits = ctx.bits
    last = None
    for attempt in range(2):
        used = bits << attempt
        try:
            lhs = eval_theta(ident.lhs, PrecCtx(used))
            rhs = eval_expr(ident.rhs, PrecCtx(used))
        except ThetavalError as exc:
            raise EvaluationError(ident.id, str(exc)) from exc
        overlap = lhs.overlaps(rhs)
        tight = _rad_below(lhs, d_target) and _rad_below(rhs, d_target)
        last = (lhs, rhs, used)
        if overlap and tight:
            return VerifyReport(
                ident.id, lhs, rhs, agreement_digits(lhs, rhs), "verified", used
            )
        if not overlap:
            break
    lhs, rhs, used = last
    return VerifyReport(
        ident.id, lhs, rhs, agreement_digits(lhs, rhs), "unverified", used
    )

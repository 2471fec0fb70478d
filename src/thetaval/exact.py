"""Exact closed-form expression trees and the identity catalog.

Every explicit phi value carried by this package is encoded here as an
:class:`Identity`: a left side built around theta values at structured
nomes, a closed-form right side built from rationals, pi, Gamma at
rationals and cosines of rational multiples of pi, and a literature
provenance string.  Verification means evaluating both sides to certified
balls and checking overlap with radii below the digit target.

There is one node set.  Theta values are leaves like any other, so
`phi(q) + 1` and a theta quotient are ordinary trees.  `render_expr` prints
a tree in one text grammar and `parse_expr` reads that grammar back; the
catalog itself is stored as rows of that text, and `eval_expr` is the one
evaluator of catalog trees and command-line text.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction

from .errors import (
    EvaluationError,
    ParseError,
    PowerTooLarge,
    ThetavalError,
    UnsupportedGammaArgument,
)
from .precision import (
    D_TARGET_DIGITS,
    Ball,
    PrecCtx,
    Record,
    WorkCtx,
    agm,
    agreement_digits,
    certify,
    check_power_size,
    cos,
    gamma_rational,
    pow_rational,
    rad_shortfall,
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


# ---------------------------------------------------------------------------
# closed-form expression nodes


class Expr(Record):
    """A node of the one expression tree; it hashes once (see `Record`)."""

    __slots__ = ()


class Int(Expr):
    __slots__ = ("value",)


class Rat(Expr):
    __slots__ = ("value",)


class Pi(Expr):
    __slots__ = ()


class GammaRat(Expr):
    __slots__ = ("arg",)


class CosPiRat(Expr):
    __slots__ = ("arg",)  # cos(arg * pi)


class Add(Expr):
    __slots__ = ("left", "right")


class Sub(Expr):
    __slots__ = ("left", "right")


class Mul(Expr):
    __slots__ = ("left", "right")


class Div(Expr):
    __slots__ = ("left", "right")


class PowRat(Expr):
    __slots__ = ("base", "exponent")


class Neg(Expr):
    __slots__ = ("arg",)


class Agm(Expr):
    __slots__ = ("a", "b")


class Hyp(Expr):
    __slots__ = ("x",)  # 2F1(1/2, 1/2; 1; x)


class Nome(Expr):
    __slots__ = ("q",)  # the value sign * e^(-pi sqrt r) as a ball


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


def _eval_raw(e: Expr, w: WorkCtx, memo: dict) -> Ball:
    """Unrounded enclosure of e; every leaf gets the working context w."""
    key = e, w.bits  # nodes are records: equal trees hash alike, each once
    val = memo.get(key)
    if val is None:
        val = memo[key] = _eval_node(e, w, memo)
    return val


def _eval_node(e: Expr, w: WorkCtx, memo: dict) -> Ball:
    if isinstance(e, Int):
        return Ball.exact_int(e.value).rescale(w.bits)
    if isinstance(e, Rat):
        return Ball.from_fraction(e.value, w.bits)
    if isinstance(e, Pi):
        return _pi_ball(w.bits)
    if isinstance(e, GammaRat):
        if not 0 < e.arg <= 2:
            raise UnsupportedGammaArgument(f"gamma argument {e.arg} outside (0, 2]")
        return gamma_rational(e.arg, w)
    if isinstance(e, CosPiRat):
        t = e.arg % 2
        exact = _EXACT_COSPI.get(t)
        if exact is not None:
            return Ball.from_fraction(exact, w.bits)
        return cos(_pi_ball(w.bits) * Ball.from_fraction(t, w.bits))
    if isinstance(e, Add):
        return _eval_raw(e.left, w, memo) + _eval_raw(e.right, w, memo)
    if isinstance(e, Sub):
        return _eval_raw(e.left, w, memo) - _eval_raw(e.right, w, memo)
    if isinstance(e, Mul):
        return _eval_raw(e.left, w, memo) * _eval_raw(e.right, w, memo)
    if isinstance(e, Div):
        return _eval_raw(e.left, w, memo) / _eval_raw(e.right, w, memo)
    if isinstance(e, PowRat):  # under the power limit of the requested bits
        return pow_rational(_eval_raw(e.base, w, memo), e.exponent, w)
    if isinstance(e, Neg):
        return -_eval_raw(e.arg, w, memo)
    if isinstance(e, ThetaExpr):
        return eval_theta(e, w)
    if isinstance(e, Agm):
        return agm(_eval_raw(e.a, w, memo), _eval_raw(e.b, w, memo), w)
    if isinstance(e, Hyp):
        return modular.hyp2f1_half(_eval_raw(e.x, w, memo), w)
    if isinstance(e, Nome):
        return e.q.to_ball(w)
    raise TypeError(f"unknown expression node {e!r}")


def eval_expr(e: Expr, ctx: PrecCtx) -> Ball:
    """Certified enclosure of an expression tree, theta nodes included.

    The tree runs at `ctx.work()` and is rounded once, to ctx.bits.  A divisor
    or fractional-power base that straddles zero runs the tree again at more
    bits, through `certify`.  Shared subtrees are evaluated once per scale,
    through a memo cleared on exit (an error's traceback would keep it).
    """
    memo: dict[tuple[Expr, int], Ball] = {}
    try:
        value, _ = certify(lambda b: _eval_raw(e, PrecCtx(b).work(), memo), ctx.bits)
        return value.rescale(ctx.bits)
    finally:
        memo.clear()


def render_expr(e: Expr) -> str:
    """Fixed text grammar: prefix functions, parenthesized infix, ^ powers."""
    if isinstance(e, Int):
        return str(e.value)
    if isinstance(e, Rat):
        return _render_rat(e.value)
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


def _render_rat(v: Fraction) -> str:
    """v >= 0 with denominator 2^a 5^b as the decimal literal that parses
    back to it; any other non-integer v as (p/q)."""
    d = v.denominator
    if d == 1:
        return str(v.numerator)
    k = d.bit_length()  # 10^k is a multiple of d exactly when d = 2^a 5^b
    if v < 0 or 10**k % d:
        return f"({v})"
    digits = str(v.numerator * 10**k // d).rjust(k + 1, "0")
    return f"{digits[:-k]}.{digits[-k:]}".rstrip("0")


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
# theta leaves


class ThetaExpr(Expr):
    """A theta-function value; a leaf legal anywhere in an `Expr`."""

    __slots__ = ()


# The nome of phi/psi/fneg/chi is a structured QPoint (which the theta
# cache keys on) or any expression whose ball is the nome.


class Phi(ThetaExpr):
    __slots__ = ("q",)


class Psi(ThetaExpr):
    __slots__ = ("q",)


class FNeg(ThetaExpr):
    __slots__ = ("q",)


class Chi(ThetaExpr):
    __slots__ = ("q",)


class ThetaF(ThetaExpr):
    __slots__ = ("a", "b")  # Ramanujan's general theta function f(a, b)


class YiH(ThetaExpr):
    __slots__ = ("k", "n", "primed")

    def __init__(self, k: Fraction, n: Fraction, primed: bool = False):
        Record.__init__(self, k, n, primed)


class ClassInv(ThetaExpr):
    __slots__ = ("n",)


def _nome(q: QPoint | Expr, ctx: PrecCtx) -> QPoint | Ball:
    return q if isinstance(q, QPoint) else _eval_raw(q, ctx.work(), {})


def eval_theta(t: ThetaExpr, ctx: PrecCtx) -> Ball:
    """Enclosure of one theta leaf; `eval_expr` evaluates the tree around it."""
    if isinstance(t, Phi):
        return phi(_nome(t.q, ctx), ctx)
    if isinstance(t, Psi):
        return psi(_nome(t.q, ctx), ctx)
    if isinstance(t, FNeg):
        return f_neg(_nome(t.q, ctx), ctx)
    if isinstance(t, Chi):
        return chi(_nome(t.q, ctx), ctx)
    if isinstance(t, ThetaF):
        return theta_f(_eval_raw(t.a, ctx.work(), {}), _eval_raw(t.b, ctx.work(), {}), ctx)
    if isinstance(t, YiH):
        return modular.yi_h(modular.YiQuotient(t.k, t.n, t.primed), ctx)
    if isinstance(t, ClassInv):
        return modular.class_invariant(t.n, ctx)
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

_TOKEN_RE = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)|([A-Za-z_][A-Za-z_0-9]*)|(.))", re.DOTALL)
_TOKEN_KINDS = (None, "num", "name", "sym")

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
    for m in _TOKEN_RE.finditer(text):  # the last alternative matches any character
        group = m.lastindex
        val = m[group]
        if group == 3:
            if val.isspace():
                continue
            if val not in "+-*/^(),":
                raise ParseError(f"unexpected character {val!r}", m.start(3))
        tokens.append((_TOKEN_KINDS[group], val, m.start(group)))
    tokens.append(("end", "", len(text)))
    return tokens


def _const_value(e: Expr, bits: int) -> Fraction | None:
    """Exact value of a subtree of rationals, or None if it has other leaves.

    A power is refused by `check_power_size` at `bits` before it is formed.
    """
    if isinstance(e, Int):
        return Fraction(e.value)
    if isinstance(e, Rat):
        return e.value
    if isinstance(e, Neg):
        v = _const_value(e.arg, bits)
        return None if v is None else -v
    if isinstance(e, (Add, Sub, Mul, Div)):
        a, b = _const_value(e.left, bits), _const_value(e.right, bits)
        return None if a is None or b is None else _FOLD[type(e)](a, b)
    if isinstance(e, PowRat) and e.exponent.denominator == 1:
        base = _const_value(e.base, bits)
        if base is None:
            return None
        n = e.exponent.numerator
        check_power_size(n, math.log2(max(abs(base.numerator), base.denominator)), bits)
        return base**n
    return None


def _fold(e: Expr, pos: int, bits: int) -> Fraction | None:
    try:
        return _const_value(e, bits)
    except ZeroDivisionError:
        raise ParseError("division by zero in a constant", pos) from None
    except PowerTooLarge as exc:
        raise ParseError(str(exc), pos) from None


def _call(name: str, args: list[Expr], pos: int, bits: int) -> Expr:
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
    values = [_fold(a, pos, bits) for a in args]
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
    def __init__(self, text: str, bits: int):
        self.tokens = _tokenize(text)
        self.i = 0
        self.bits = bits

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
        while self.peek()[1] in ("+", "-"):
            node = _BINARY[self.next()[1]](node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
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
        if self.peek()[1] == "^":
            self.next()
            exp_pos = self.peek()[2]
            exponent = _fold(self.unary(), exp_pos, self.bits)
            if exponent is None:
                raise ParseError("exponent must be a rational constant", exp_pos)
            return PowRat(node, exponent)
        return node

    def atom(self) -> Expr:
        kind, val, pos = self.next()
        if kind == "num":
            if "." not in val:
                return Int(int(val))
            v = Fraction(val)
            return Int(v.numerator) if v.denominator == 1 else Rat(v)
        if kind == "name":
            if val == "pi":
                return Pi()
            if val not in _ARITY:
                raise ParseError(f"unknown name {val!r}", pos)
            self.expect("(")
            args = [self.expr()]
            while self.peek()[1] == ",":
                self.next()
                args.append(self.expr())
            self.expect(")")
            return _call(val, args, pos, self.bits)
        if kind == "sym" and val == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError("expected a value", pos)


def parse_expr(text: str, bits: int = 512) -> Expr:
    """The tree that a text in the grammar of `render_expr` denotes.

    `bits` is the precision the tree is meant for; it sets the size limit
    of the powers folded while parsing.
    """
    return _Parser(text, bits).parse()


# ---------------------------------------------------------------------------
# the identity catalog


class Identity(Record):
    __slots__ = ("id", "lhs", "rhs", "provenance")


class Catalog(Record):
    __slots__ = ("entries",)

    def __init__(self, entries: tuple[Identity, ...]):
        ids = [e.id for e in entries]
        if len(ids) != len(set(ids)):
            raise ValueError("catalog ids must be unique")
        Record.__init__(self, entries)

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
                "lhs_text": render_expr(e.lhs),
                "rhs_text": render_expr(e.rhs),
                "provenance": e.provenance,
            }
            for e in self.entries
        ]


class VerifyReport(Record):
    __slots__ = ("id", "lhs", "rhs", "agreement_digits", "status", "prec_bits_used")


def ln7_cos_term(num_k: int, den_k: int) -> Expr:
    """(cos(num_k pi/7) / (2 cos^2(den_k pi/7)))^(2/7), the shape of the terms
    that the completion pipeline emits for the ln7 entry."""
    return PowRat(
        Div(
            CosPiRat(Fraction(num_k, 7)),
            Mul(Int(2), PowRat(CosPiRat(Fraction(den_k, 7)), Fraction(2))),
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


# Each row is (id, left side, right side, provenance), both sides in the
# grammar of `parse_expr`; every right side follows its printed source.  The
# grammar has no names for subexpressions, so a repeated one (G_169 in cb13)
# is written out again: `eval_expr` evaluates equal subtrees once per call.
_CATALOG_ROWS = (
    ("classical_1",
     "phi(qpoint(+1, 1))",
     "pi^(1/4) / gamma(3/4)",
     "classical; Ramanujan, notebook 2 (Entry 6)"),
    ("classical_sqrt2",
     "phi(qpoint(+1, 2))",
     "gamma(9/8) / gamma(5/4) * (gamma(1/4) / (2^(1/4) * pi))^(1/2)",
     "classical; Ramanujan, notebook 2 (Entry 6)"),
    ("classical_2",
     "phi(qpoint(+1, 4))",
     "(2 + 2^(1/2))^(1/2) / 2 * (pi^(1/4) / gamma(3/4))",
     "classical; Ramanujan, notebook 2 (Entry 6)"),
    ("r5",
     "phi(qpoint(+1, 25)) / phi(qpoint(+1, 1))",
     "1 / (5 * 5^(1/2) - 10)^(1/2)",
     "Ramanujan, JIMS question 629 (second part)"),
    ("r3",
     "phi(qpoint(+1, 9)) / phi(qpoint(+1, 1))",
     "(6 * 3^(1/2) - 9)^(-1/4)",
     "Ramanujan, notebook 1; proof by Berndt-Chan"),
    ("r7",
     "(phi(qpoint(+1, 49)) / phi(qpoint(+1, 1)))^2",
     "((13 + 7^(1/2))^(1/2) + (7 + 3 * 7^(1/2))^(1/2)) / 14 * 28^(1/8)",
     "Ramanujan, notebook 1; proof by Berndt-Chan"),
    ("r9",
     "phi(qpoint(+1, 81)) / phi(qpoint(+1, 1))",
     "(1 + (2 * (3^(1/2) + 1))^(1/3)) / 3",
     "Ramanujan, notebook 1; proof by Berndt-Chan"),
    ("r45",
     "phi(qpoint(+1, 2025)) / phi(qpoint(+1, 1))",
     "(3 + 5^(1/2) + (3^(1/2) + 5^(1/2) + 60^(1/4)) * (2 + 3^(1/2))^(1/3))"
     " / (3 * (10 + 10 * 5^(1/2))^(1/2))",
     "Ramanujan, notebook 1; proof by Berndt-Chan"),
    ("cb13",
     "phi(qpoint(+1, 169)) / phi(qpoint(+1, 1))",
     "(((13^(1/2) + 2 + ((13 + 3 * 13^(1/2)) / 2)^(1/3)"
     " * (((11 + 13^(1/2)) / 2 + 3 * 3^(1/2))^(1/3) + ((11 + 13^(1/2)) / 2 - 3"
     " * 3^(1/2))^(1/3))) / 3)^(-3) * ((((13^(1/2) + 2 + ((13 + 3 * 13^(1/2)) / 2)^(1/3)"
     " * (((11 + 13^(1/2)) / 2 + 3 * 3^(1/2))^(1/3) + ((11 + 13^(1/2)) / 2 - 3"
     " * 3^(1/2))^(1/3))) / 3 - ((13^(1/2) + 2 + ((13 + 3 * 13^(1/2)) / 2)^(1/3)"
     " * (((11 + 13^(1/2)) / 2 + 3 * 3^(1/2))^(1/3) + ((11 + 13^(1/2)) / 2 - 3"
     " * 3^(1/2))^(1/3))) / 3)^(-1))^3 + 7 * ((13^(1/2) + 2 + ((13 + 3 * 13^(1/2)) / 2)^(1/3)"
     " * (((11 + 13^(1/2)) / 2 + 3 * 3^(1/2))^(1/3) + ((11 + 13^(1/2)) / 2 - 3"
     " * 3^(1/2))^(1/3))) / 3 - ((13^(1/2) + 2 + ((13 + 3 * 13^(1/2)) / 2)^(1/3)"
     " * (((11 + 13^(1/2)) / 2 + 3 * 3^(1/2))^(1/3) + ((11 + 13^(1/2)) / 2 - 3"
     " * 3^(1/2))^(1/3))) / 3)^(-1)) + ((((13^(1/2) + 2 + ((13 + 3 * 13^(1/2)) / 2)^(1/3)"
     " * (((11 + 13^(1/2)) / 2 + 3 * 3^(1/2))^(1/3) + ((11 + 13^(1/2)) / 2 - 3"
     " * 3^(1/2))^(1/3))) / 3 - ((13^(1/2) + 2 + ((13 + 3 * 13^(1/2)) / 2)^(1/3)"
     " * (((11 + 13^(1/2)) / 2 + 3 * 3^(1/2))^(1/3) + ((11 + 13^(1/2)) / 2 - 3"
     " * 3^(1/2))^(1/3))) / 3)^(-1))^3 + 7 * ((13^(1/2) + 2 + ((13 + 3 * 13^(1/2)) / 2)^(1/3)"
     " * (((11 + 13^(1/2)) / 2 + 3 * 3^(1/2))^(1/3) + ((11 + 13^(1/2)) / 2 - 3"
     " * 3^(1/2))^(1/3))) / 3 - ((13^(1/2) + 2 + ((13 + 3 * 13^(1/2)) / 2)^(1/3)"
     " * (((11 + 13^(1/2)) / 2 + 3 * 3^(1/2))^(1/3) + ((11 + 13^(1/2)) / 2 - 3"
     " * 3^(1/2))^(1/3))) / 3)^(-1)))^2 + 52)^(1/2)) / 2))^(-1/2)",
     "Berndt-Chan, via the class invariant G_169"),
    ("cb27",
     "phi(qpoint(+1, 729)) / phi(qpoint(+1, 9))",
     "1 / 3 * (1 + (3^(1/2) - 1) * (((2 * (3^(1/2) + 1))^(1/3) + 1)"
     " / ((2 * (3^(1/2) - 1))^(1/3) - 1))^(1/3))",
     "Berndt-Chan; combine with r3 for phi(e^-27pi)"),
    ("cb63",
     "phi(qpoint(+1, 3969)) / phi(qpoint(+1, 49))",
     "1 / 3 * (1 + (((4 + 7^(1/2))^(1/2) - 7^(1/4)) / 2)^3 * (3^(1/2) + 7^(1/2))^(1/2)"
     " * ((2 + 3^(1/2))^(1/6) * ((2 + 7^(1/2) + (7 + 4 * 7^(1/2))^(1/2)) / 2)^(1/2))"
     " * (((3 + 7^(1/2))^(1/2) + (6 * 7^(1/2))^(1/4))"
     " / ((3 + 7^(1/2))^(1/2) - (6 * 7^(1/2))^(1/4)))^(1/2))",
     "Berndt-Chan; combine with r7 for phi(e^-63pi)"),
    ("yi_33",
     "phi(qpoint(+1, 3)) / (3^(1/4) * phi(qpoint(+1, 27)))",
     "(1 - 2^(1/3) + 4^(1/3)) / 3^(1/2)",
     "Yi, theta quotient h_{3,9}"),
    ("yi_53",
     "phi(qpoint(+1, 5/3)) / (3^(1/4) * phi(qpoint(+1, 15)))",
     "(5^(1/2) - 1)^(1/2) / 2^(1/2)",
     "Yi, theta quotient h_{3,5}"),
    ("yi_m6",
     "phi(qpoint(-1, 36)) / phi(qpoint(+1, 1))",
     "(1 + 3^(1/2) + 2^(1/2) * 3^(3/4))^(1/3) / (2^(11/24) * 3^(3/8) * (3^(1/2) - 1)^(1/6))",
     "Yi, signed-nome quotient"),
    ("yi_2s5",
     "phi(qpoint(+1, 4/5)) / (5^(1/4) * phi(qpoint(+1, 20)))",
     "2 * (2 * ((1 + 5^(1/2)) / 2 + ((1 + 5^(1/2)) / 2)^(1/2)))^(1/2)"
     " / ((3 + 2^(1/2) + (5^(1/2) + 10^(1/2))) * ((1 + 5^(1/2)) / 2 + ((1 + 5^(1/2)) / 2)^(1/2)"
     " - 5^(1/2)))",
     "Yi and coauthors, degree-5 route"),
    ("yi_9",
     "phi(qpoint(+1, 1)) / (3^(1/2) * phi(qpoint(+1, 81)))",
     "2 - 3^(1/2) - 4^(1/3) * (5 - 3 * 3^(1/2)) / (11 * 3^(1/2) - 19)^(1/3)"
     " - (2 * (11 * 3^(1/2) - 19))^(1/3)",
     "Yi and coauthors (sign-corrected form)"),
    ("ln7",
     "phi(qpoint(+1, 343)) / phi(qpoint(+1, 7))",
     "7^(-3/4) * (1 + ((cospi(1/7) / (2 * cospi(2/7)^2))^(2/7)"
     " + ((cospi(2/7) / (2 * cospi(3/7)^2))^(2/7) + (cospi(3/7) / (2 * cospi(1/7)^2))^(2/7))))",
     "lost notebook p.206, completed by Rebak"),
    ("g9",
     "classinv(9)",
     "((1 + 3^(1/2)) / 2^(1/2))^(1/3)",
     "Ramanujan's class invariant table"),
    ("g169",
     "classinv(169)",
     "(13^(1/2) + 2 + ((13 + 3 * 13^(1/2)) / 2)^(1/3)"
     " * (((11 + 13^(1/2)) / 2 + 3 * 3^(1/2))^(1/3) + ((11 + 13^(1/2)) / 2 - 3"
     " * 3^(1/2))^(1/3))) / 3",
     "Berndt-Chan, class invariant G_169"),
)


def build_catalog() -> Catalog:
    """The full value catalog, read from its text rows."""
    return Catalog(
        tuple(
            Identity(entry_id, parse_expr(lhs), parse_expr(rhs), provenance)
            for entry_id, lhs, rhs, provenance in _CATALOG_ROWS
        )
    )


# ---------------------------------------------------------------------------
# verification


def verify_identity(ident: Identity, ctx: PrecCtx) -> VerifyReport:
    """Evaluate both sides and compare as balls.

    Verified means the enclosures overlap and both radii sit below
    10^-D_TARGET_DIGITS.  Each side runs at the working context and is
    rounded once, to the bits of its attempt.  Overlapping enclosures that
    are too wide, or a divisor or root base that straddles zero, run both
    sides again at more bits through `certify`; disjoint enclosures fail at
    once (inclusion makes that definitive).
    """
    memo: dict[tuple[Expr, int], Ball] = {}

    def sides(bits: int) -> tuple[Ball, ...]:
        w = PrecCtx(bits).work()
        return tuple(_eval_raw(e, w, memo).rescale(bits) for e in (ident.lhs, ident.rhs))

    try:
        (lhs, rhs), used = certify(sides, ctx.bits, lambda s: s if s[0].overlaps(s[1]) else ())
    except ThetavalError as exc:
        raise EvaluationError(ident.id, str(exc)) from exc
    finally:
        memo.clear()
    verified = lhs.overlaps(rhs) and rad_shortfall(lhs) == rad_shortfall(rhs) == 0
    status = "verified" if verified else "unverified"
    return VerifyReport(ident.id, lhs, rhs, agreement_digits(lhs, rhs), status, used)

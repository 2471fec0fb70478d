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
import sys
from fractions import Fraction

from .errors import (
    EvaluationError,
    ParseError,
    PowerTooLarge,
    ThetavalError,
)
from .precision import (
    D_TARGET_DIGITS,
    Ball,
    PrecCtx,
    Record,
    WorkCtx,
    agm,
    agreement_digits,
    as_fraction,
    certify,
    check_power_size,
    cos,
    gamma_rational,
    memo,
    pow_rational,
    rad_shortfall,
    sin,
)
from .precision import GUARD_BITS, TRIG_PI_GUARD, _pi_ball
from .qseries import QPoint, chi, class_invariant, f_neg, phi, psi, theta_f  # kernels by name

__all__ = [
    # nodes: closed forms, function leaves and theta leaves
    "Expr", "Int", "Rat", "Pi", "Infix", "Add", "Sub", "Mul", "Div", "PowRat", "Neg",
    "Function", "Nome", "GammaRat", "CosPiRat", "Agm", "Hyp",
    "ThetaExpr", "Phi", "Psi", "FNeg", "Chi", "ThetaF", "YiH", "YiHPrime", "ClassInv",
    # the tree both ways, and the catalog
    "eval_expr", "eval_theta", "render_expr", "render_theta", "parse_expr", "mutate_first_leaf",
    "Identity", "Catalog", "VerifyReport", "build_catalog", "catalog_entry", "verify_identity",
    "D_TARGET_DIGITS",
]


# ---------------------------------------------------------------------------
# the nodes
#
# Each node kind is declared once: its fields are its `__slots__`, and
# `_ball(bits)` is its enclosure at the working scale bits, each subtree read
# through `_eval_raw`, the one tree cache, and a kernel given `WorkCtx(bits)`.
# The evaluator, renderer, folder, parser and `mutate_first_leaf` read these.
# Calls into qseries and precision go through this module's names, so
# rebinding one of them reaches every call; `modular` is imported by the
# two node kinds that call it (`Hyp`, and `YiH`/`YiHPrime`), on first use,
# and read by its module's names.


class Expr(Record):
    """A node of the one expression tree; it hashes once (see `Record`)."""

    __slots__ = ()


class Int(Expr):
    __slots__ = ("value",)

    def _ball(self, bits):
        return Ball.exact_int(self.value).rescale(bits)


class Rat(Expr):
    __slots__ = ("value",)

    def _ball(self, bits):
        return Ball.from_fraction(self.value, bits)


class Pi(Expr):
    __slots__ = ()

    def _ball(self, bits):
        return _pi_ball(bits)


class Infix(Expr):
    """(left sym right); `op` computes it on balls and on exact rationals."""

    __slots__ = ("left", "right")

    def _ball(self, bits):
        return self.op(_eval_raw(self.left, bits), _eval_raw(self.right, bits))


class Add(Infix):
    __slots__ = ()
    sym, op = "+", operator.add


class Sub(Infix):
    __slots__ = ()
    sym, op = "-", operator.sub


class Mul(Infix):
    __slots__ = ()
    sym, op = "*", operator.mul


class Div(Infix):
    __slots__ = ()
    sym, op = "/", operator.truediv


class PowRat(Expr):
    __slots__ = ("base", "exponent")

    def _ball(self, bits):  # under the power limit of the requested bits
        return pow_rational(_eval_raw(self.base, bits), self.exponent, bits - GUARD_BITS)


class Neg(Expr):
    __slots__ = ("arg",)

    def _ball(self, bits):
        return -_eval_raw(self.arg, bits)


_FUNCTIONS: dict[str, type] = {}  # grammar name -> node class


class Function(Expr):
    """A node written name(argument, ...); the arguments of a `rational`
    one fold to exact rationals while parsing.  Its enclosure is `kernel`,
    the name of a function of this module looked up at each call, of its
    fields (an `Expr` read through `_eval_raw`, any other as it is: a
    `QPoint` nome keys the theta cache exactly) and `WorkCtx(bits)`."""

    __slots__ = ()
    name = kernel = ""
    rational = False

    def __init_subclass__(cls):
        super().__init_subclass__()
        if "name" in vars(cls):
            _FUNCTIONS[cls.name] = cls

    def _ball(self, bits):
        args = [_eval_raw(x, bits) if isinstance(x, Expr) else x for x in self._values()]
        return globals()[self.kernel](*args, WorkCtx(bits))


class Nome(Function):
    __slots__ = ("q",)  # the value sign * e^(-pi sqrt r) as a ball
    name, rational = "qpoint", True  # written qpoint(sign, r)

    def _ball(self, bits):
        return self.q.to_ball(WorkCtx(bits))


class GammaRat(Function):
    __slots__ = ("arg",)
    name, rational, kernel = "gamma", True, "gamma_rational"


# cos(t pi) at the t = n/d in [0, 1/2] where it is rational (Niven), by (n, d)
_EXACT_COSPI = {(0, 1): Fraction(1), (1, 3): Fraction(1, 2), (1, 2): Fraction(0)}


@memo
def _unit_cos(d: int, g: int) -> Ball:
    """cos(pi/d) at the scale g, the one cosine that every cospi(n/d) reads,
    with pi/d taken from the pi that cos reads."""
    return cos(_pi_ball(g + TRIG_PI_GUARD).div_int(d).rescale(g))


class CosPiRat(Function):
    __slots__ = ("arg",)  # cos(arg * pi)
    name, rational = "cospi", True

    def _ball(self, bits):
        d = self.arg.denominator  # t = n/d, reduced at every step
        n = self.arg.numerator % (2 * d)
        n = min(n, 2 * d - n)  # cos is even with period 2: t in [0, 1]
        sign = 1 if 2 * n <= d else -1
        n = min(n, d - n)  # cos(t pi) = -cos((1 - t) pi): t in [0, 1/2]
        if (n, d) in _EXACT_COSPI:
            return Ball.from_fraction(sign * _EXACT_COSPI[n, d], bits)
        # from n = 8 one cos of its own: the ladder below grows with the bits
        # of n (10^4 steps for n near 10^3000), and its cosine is shared only
        # by the n of one d
        if n >= 8:
            s = min(2 * n, d - 2 * n)  # cos(t pi) = sin((1/2 - t) pi): s/2d in [0, 1/4]
            pi = _pi_ball(bits + TRIG_PI_GUARD)  # the pi that cos and sin read for |x| < 1
            x = Ball(pi.m * s, pi.r * s, pi.f).div_int(2 * d)
            return sign * (cos if s == 2 * n else sin)(x.rescale(bits))
        # T_n(c) for c = cos(pi/d), whose slope of at most n^2 < 2^6 scales c's
        # few units: (T_m, T_m+1) over the bits of n, from m = 1, by
        # T_2m = 2 T_m^2 - 1 and T_2m+1 = 2 T_m T_m+1 - c
        c = _unit_cos(d, bits + 20)
        t, u = c, 2 * c * c - 1
        for bit in bin(n)[3:]:
            odd = 2 * t * u - c
            t, u = (odd, 2 * u * u - 1) if bit == "1" else (2 * t * t - 1, odd)
        return sign * t.rescale(bits)


class Agm(Function):
    __slots__ = ("a", "b")
    name = kernel = "agm"


class Hyp(Function):
    __slots__ = ("x",)  # 2F1(1/2, 1/2; 1; x)
    name = "hyp"

    def _ball(self, bits):
        from . import modular

        return modular.hyp2f1_half(_eval_raw(self.x, bits), WorkCtx(bits))


class ThetaExpr(Function):
    """A theta-function value; a leaf legal anywhere in an `Expr`."""

    __slots__ = ()


class _NomeTheta(ThetaExpr):
    """A theta function of a QPoint nome (the theta cache's key) or of an `Expr`."""

    __slots__ = ("q",)


class Phi(_NomeTheta):
    __slots__ = ()
    name = kernel = "phi"


class Psi(_NomeTheta):
    __slots__ = ()
    name = kernel = "psi"


class FNeg(_NomeTheta):
    __slots__ = ()
    name, kernel = "fneg", "f_neg"


class Chi(_NomeTheta):
    __slots__ = ()
    name = kernel = "chi"


class ThetaF(ThetaExpr):
    __slots__ = ("a", "b")  # Ramanujan's general theta function f(a, b)
    name, kernel = "f", "theta_f"


class YiH(ThetaExpr):
    __slots__ = ("k", "n")
    name, rational, primed = "h", True, False

    def _ball(self, bits):
        from . import modular

        return modular.yi_h(modular.YiQuotient(self.k, self.n, self.primed), WorkCtx(bits))


class YiHPrime(YiH):
    __slots__ = ()
    name, primed = "hprime", True


class ClassInv(ThetaExpr):
    __slots__ = ("n",)
    name, rational, kernel = "classinv", True, "class_invariant"


@memo
def _eval_raw(e: Expr, bits: int) -> Ball:
    """Unrounded enclosure of e at the working scale bits: the one tree cache,
    so each distinct subtree (equal trees hash alike) is computed once per
    scale in the process, whichever tree reads it.  A failure leaves no entry."""
    return e._ball(bits)


def eval_expr(e: Expr, ctx: PrecCtx) -> Ball:
    """Certified enclosure of an expression tree, theta nodes included.

    The tree runs at `ctx.work()` and is rounded once, to ctx.bits.  A divisor
    or fractional-power base that straddles zero runs the tree again at more
    bits, through `certify`.
    """
    value, _ = certify(lambda b: _eval_raw(e, PrecCtx(b).work().bits), ctx.bits)
    return value.rescale(ctx.bits)


def eval_theta(t: ThetaExpr, ctx: PrecCtx) -> Ball:
    """Enclosure of one theta leaf, as `eval_expr` evaluates it in a tree."""
    return _eval_raw(t, ctx.work().bits).rescale(ctx.bits)


def render_expr(e: Expr) -> str:
    """Fixed text grammar: prefix functions, parenthesized infix, ^ powers."""
    if isinstance(e, Int):
        return str(e.value)
    if isinstance(e, Rat):
        return _render_rat(e.value)
    if isinstance(e, Pi):
        return "pi"
    if isinstance(e, Infix):
        return f"({render_expr(e.left)} {e.sym} {render_expr(e.right)})"
    if isinstance(e, PowRat):
        base, exp = render_expr(e.base), e.exponent
        if not isinstance(e.base, (Pi, GammaRat, CosPiRat, Int)) or base[0] == "-":
            base = f"({base})"
        return f"{base}^({exp})" if exp.denominator != 1 or exp < 0 else f"{base}^{exp}"
    if isinstance(e, Neg):
        return f"(-{render_expr(e.arg)})"
    if isinstance(e, Nome):
        return _render_arg(e.q)
    return f"{e.name}({', '.join(map(_render_arg, e._values()))})"


def render_theta(t: ThetaExpr) -> str:
    return render_expr(t)


def _render_arg(x) -> str:
    if isinstance(x, Expr):
        return render_expr(x)
    if isinstance(x, QPoint):
        return f"qpoint({'+1' if x.sign == 1 else '-1'}, {x.r})"
    return str(x)


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

    The fields are walked in order, so an exponent comes after its base.  A
    rational leaf is an `Int` (it turns into a `Rat`) or a `Fraction` field:
    of a `Rat`, gamma, cospi, h, hprime or classinv, or a power's exponent."""

    def walk(node: Expr) -> tuple[Expr, bool]:
        if isinstance(node, Int):
            return Rat(node.value + delta), True
        fields = node._values()
        for i, x in enumerate(fields):
            if isinstance(x, Expr):
                x, done = walk(x)
            elif done := isinstance(x, Fraction):
                x += delta
            if done:
                return type(node)(*fields[:i], x, *fields[i + 1 :]), True
        return node, False

    out, done = walk(e)
    if not done:
        raise ValueError("expression has no rational leaf to mutate")
    return out


# ---------------------------------------------------------------------------
# the text grammar, read back into trees
#
#   expr   := unary (('+' | '-' | '*' | '/') unary)*    * and / bind tighter
#   unary  := ('-' | '+') unary | atom ('^' unary)?      exponent must fold to a rational
#   atom   := NUMBER | 'pi' | NAME '(' expr (',' expr)* ')' | '(' expr ')'
#
# So + - * / group to the left, ^ binds tightest and groups to the right,
# and -2^2 is -(2^2).  A NAME is the `name` of a `Function` node;
# qpoint(sign, r) denotes sign * e^(-pi sqrt r) and stays a
# structured QPoint inside phi/psi/fneg/chi.  Exponents and the arguments
# of a `rational` function fold to exact rationals while parsing.

_TOKEN_RE = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)|([A-Za-z_][A-Za-z_0-9]*)|(.))", re.DOTALL)
_END = ("", "", "")  # the (number, name, symbol) token after the last one
_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2}  # how tightly each infix symbol binds
_BINARY = {node.sym: node for node in Infix.__subclasses__()}
_ARITY = {name: 2 if f is Nome else len(f._fields) for name, f in _FUNCTIONS.items()}


def _literal(text: str) -> Expr:
    """The node of a decimal literal; int() refuses one past its digit limit."""
    whole, _, frac = text.partition(".")
    v = Fraction(int(whole + frac), 10 ** len(frac))
    return Int(v.numerator) if v.denominator == 1 else Rat(v)


def _const_value(e: Expr, bits: int) -> int | Fraction | None:
    """Exact value of a subtree of rationals, or None if it has other leaves:
    an int, or a Fraction where a division or a negative power makes one.  A
    power is refused by `check_power_size` at `bits` before it is formed."""
    if isinstance(e, (Int, Rat)):
        return e.value
    if isinstance(e, Neg):
        v = _const_value(e.arg, bits)
        return None if v is None else -v
    if isinstance(e, Infix):
        a, b = _const_value(e.left, bits), _const_value(e.right, bits)
        if a is None or b is None:
            return None
        return Fraction(a, b) if isinstance(e, Div) else e.op(a, b)
    if isinstance(e, PowRat) and e.exponent.denominator == 1:
        base = _const_value(e.base, bits)
        if base is None:
            return None
        n = e.exponent.numerator
        check_power_size(n, math.log2(max(abs(base.numerator), base.denominator)), bits)
        return base**n if n >= 0 else as_fraction(base) ** n
    return None


MAX_DEPTH = 100  # levels of a parsed tree; a walk of it recurses about 3 frames a level
_TOO_DEEP = f"expression nested deeper than {MAX_DEPTH} levels"


class _Parser:
    """Precedence climbing over the (number, name, symbol) tokens of one
    `findall`.  Each rule returns (node, levels), levels >= the node's depth,
    and is passed `nested`, the `unary` rules in progress (one per parenthesis,
    call, sign or exponent), so neither the recursion nor a tree passes
    MAX_DEPTH levels.  Only `error` looks up a token's position."""

    def __init__(self, text: str, bits: int):
        self.text, self.bits, self.i = text, bits, 0
        # trailing blanks stripped: the pattern's last group takes a blank only there
        self.tokens = _TOKEN_RE.findall(text.rstrip()) + [_END]

    def error(self, message: str, i: int) -> ParseError:
        """The error at token i, unless the text has an unexpected character:
        then that one, as a parse never reads past it."""
        matches = list(_TOKEN_RE.finditer(self.text.rstrip()))
        for m in matches:
            if m[3] and m[3] not in "+-*/^(),":
                return ParseError(f"unexpected character {m[3]!r}", m.start(3))
        pos = matches[i].start(matches[i].lastindex) if i < len(matches) else len(self.text)
        return ParseError(message, pos)

    def expect(self, sym: str) -> None:
        if self.tokens[self.i][2] != sym:
            raise self.error(f"expected {sym!r}", self.i)
        self.i += 1

    def parse(self) -> Expr:
        node, _ = self.expr(1, 0)
        if self.tokens[self.i] is not _END:
            raise self.error(f"unexpected trailing input {''.join(self.tokens[self.i])!r}", self.i)
        return node

    def expr(self, floor: int, nested: int) -> tuple[Expr, int]:
        """Operands joined by the infix symbols that bind at least floor tightly."""
        node, levels = self.unary(nested)
        while (binding := _BINDING.get(sym := self.tokens[self.i][2], 0)) >= floor:
            i = self.i
            self.i = i + 1
            right, right_levels = self.expr(binding + 1, nested)
            node, levels = _BINARY[sym](node, right), max(levels, right_levels) + 1
            if levels > MAX_DEPTH:
                raise self.error(_TOO_DEEP, i)
        return node, levels

    def unary(self, nested: int) -> tuple[Expr, int]:
        i = self.i
        number, name, sym = self.tokens[i]
        nested += 1
        if nested > MAX_DEPTH:
            raise self.error(_TOO_DEEP, i)
        self.i = i + 1
        if sym == "-" or sym == "+":
            node, levels = self.unary(nested)
            if sym == "-":
                node, levels = Neg(node), levels + 1
                if levels > MAX_DEPTH:
                    raise self.error(_TOO_DEEP, i)
            return node, levels
        if number:
            try:
                node, levels = Int(int(number)) if "." not in number else _literal(number), 1
            except ValueError:  # more digits than int() takes from a string
                limit = sys.get_int_max_str_digits()
                raise self.error(f"number has more than {limit} digits", i) from None
        elif name == "pi":
            node, levels = Pi(), 1
        elif name:
            node, levels = self.call(name, i, nested)
        elif sym == "(":
            node, levels = self.expr(1, nested)
            self.expect(")")
        else:
            raise self.error("expected a value", i)
        if self.tokens[self.i][2] == "^":
            self.i = i = self.i + 1  # the exponent's first token
            exponent = self.fold(self.unary(nested)[0], i)
            if exponent is None:
                raise self.error("exponent must be a rational constant", i)
            node, levels = PowRat(node, exponent), levels + 1
            if levels > MAX_DEPTH:
                raise self.error(_TOO_DEEP, i - 1)
        return node, levels

    def call(self, name: str, i: int, nested: int) -> tuple[Expr, int]:
        """The node of name(argument, ...) at token i."""
        node = _FUNCTIONS.get(name)
        if node is None:
            raise self.error(f"unknown name {name!r}", i)
        self.expect("(")
        arg, levels = self.expr(1, nested)
        args = [arg]
        while self.tokens[self.i][2] == ",":
            self.i += 1
            arg, arg_levels = self.expr(1, nested)
            args.append(arg)
            levels = max(levels, arg_levels)
        self.expect(")")
        levels += 1
        if len(args) != _ARITY[name]:
            raise self.error(f"{name} takes {_ARITY[name]} argument(s)", i)
        if not node.rational:
            if issubclass(node, _NomeTheta) and isinstance(args[0], Nome):
                args = [args[0].q]
            tree = node(*args)
        else:
            values = [self.fold(arg, i) for arg in args]
            if node is Nome:
                sign, r = values
                if sign not in (1, -1):
                    raise self.error("qpoint sign must be +1 or -1", i)
                if r is None or r <= 0:
                    raise self.error("qpoint r must be a positive rational", i)
                tree = Nome(QPoint(int(sign), r))
            elif None in values:
                raise self.error(f"{name} needs a rational argument", i)
            else:
                tree = node(*values)
        if levels > MAX_DEPTH:
            raise self.error(_TOO_DEEP, i)
        return tree, levels

    def fold(self, e: Expr, i: int) -> Fraction | None:
        """Exact value of e, or None; a failure to fold is an error at token i."""
        try:
            v = _const_value(e, self.bits)
        except ZeroDivisionError:
            raise self.error("division by zero in a constant", i) from None
        except PowerTooLarge as exc:
            raise self.error(str(exc), i) from None
        return None if v is None else as_fraction(v)


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


# The ln7 right side 7^(-3/4) (1 + t1 + t2 + t3) and its terms, the shape that
# the completion pipeline emits, as templates in the grammar of `parse_expr`.
_LN7_TERM = "(cospi({}/7) / (2 * cospi({}/7)^2))^(2/7)"
_LN7_RHS = "7^(-3/4) * (1 + ({} + ({} + {})))"


def _ln7_text(pairs: tuple[tuple[int, int], ...]) -> str:
    return _LN7_RHS.format(*(_LN7_TERM.format(a, b) for a, b in pairs))


def ln7_cos_term(num_k: int, den_k: int) -> Expr:
    """(cos(num_k pi/7) / (2 cos^2(den_k pi/7)))^(2/7), read from its template."""
    return parse_expr(_LN7_TERM.format(num_k, den_k))


def ln7_rhs_from_terms(pairs: tuple[tuple[int, int], ...]) -> Expr:
    """7^(-3/4) (1 + t1 + t2 + t3) with the given cosine index pairs, read from its template."""
    return parse_expr(_ln7_text(pairs))


# G_169, the right side of g169, and y = x^3 + 7x at x = G_169 - 1/G_169,
# through which cb13 reads it.  The grammar has no names for subexpressions,
# so these texts repeat them; `eval_expr` evaluates each distinct subtree once.
_G169 = (
    "(13^(1/2) + 2 + ((13 + 3 * 13^(1/2)) / 2)^(1/3) * (((11 + 13^(1/2)) / 2"
    " + 3 * 3^(1/2))^(1/3) + ((11 + 13^(1/2)) / 2 - 3 * 3^(1/2))^(1/3))) / 3"
)
_X169 = f"({_G169} - ({_G169})^(-1))"
_Y169 = f"{_X169}^3 + 7 * {_X169}"

# Each row is (id, left side, right side, provenance), both sides in the
# grammar of `parse_expr`; every right side follows its printed source.
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
     f"(({_G169})^(-3) * (({_Y169} + (({_Y169})^2 + 52)^(1/2)) / 2))^(-1/2)",
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
     _ln7_text(((1, 2), (2, 3), (3, 1))),
     "lost notebook p.206, completed by Rebak"),
    ("g9",
     "classinv(9)",
     "((1 + 3^(1/2)) / 2^(1/2))^(1/3)",
     "Ramanujan's class invariant table"),
    ("g169",
     "classinv(169)",
     _G169,
     "Berndt-Chan, class invariant G_169"),
)


def _read_row(entry_id: str, lhs: str, rhs: str, provenance: str) -> Identity:
    return Identity(entry_id, parse_expr(lhs), parse_expr(rhs), provenance)


def build_catalog() -> Catalog:
    """The full value catalog, read from its text rows."""
    return Catalog(tuple(_read_row(*row) for row in _CATALOG_ROWS))


def catalog_entry(entry_id: str) -> Identity:
    """One catalog entry, read from its own row alone."""
    return _read_row(*next(row for row in _CATALOG_ROWS if row[0] == entry_id))


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
    def sides(bits: int) -> tuple[Ball, ...]:
        fw = PrecCtx(bits).work().bits
        return tuple(_eval_raw(e, fw).rescale(bits) for e in (ident.lhs, ident.rhs))

    try:
        (lhs, rhs), used = certify(sides, ctx.bits, lambda s: s if s[0].overlaps(s[1]) else ())
    except ThetavalError as exc:
        raise EvaluationError(ident.id, str(exc)) from exc
    verified = lhs.overlaps(rhs) and rad_shortfall(lhs) == rad_shortfall(rhs) == 0
    status = "verified" if verified else "unverified"
    return VerifyReport(ident.id, lhs, rhs, agreement_digits(lhs, rhs), status, used)

"""Scalar expressions over named coordinates: parsing, evaluation, exact derivatives.

Grammar (whitespace-insensitive)::

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative, binds above unary minus
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Identifiers are declared coordinate names or one of the unary functions
sin, cos, tan, exp, log, sqrt, tanh.  Exponents must fold to a numeric
constant at parse time.  Trees are immutable after construction, so
evaluation is reentrant and safe to call from concurrent workers.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence


class ExprError(Exception):
    """Base class for expression errors."""


class ParseError(ExprError):
    """Malformed expression text; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    """Identifier is neither a declared coordinate nor a known function."""


class EvalDomainError(ExprError):
    """Evaluation left the real domain (log of a non-positive value, zero division, ...)."""

    def __init__(self, message: str, node: "ScalarExpr"):
        super().__init__(f"{message} in '{node}'")
        self.node = node


class DimensionMismatchError(ExprError):
    """Coordinate vector length does not match the declared dimension."""


FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "tanh")

# Precedence levels used by the pretty printer.
_ADD, _MUL, _NEG, _POW, _ATOM = 1, 2, 3, 4, 5


@dataclass(frozen=True)
class ScalarExpr:
    """Node of an immutable expression tree."""

    def diff(self, coord: int) -> "ScalarExpr":
        raise NotImplementedError

    def _text(self) -> tuple[str, int]:
        raise NotImplementedError

    def __str__(self) -> str:
        return self._text()[0]


def _wrap(node: ScalarExpr, minimum: int) -> str:
    s, p = node._text()
    return f"({s})" if p < minimum else s


def _finite(v: float, node: ScalarExpr) -> float:
    if not math.isfinite(v):
        raise EvalDomainError("non-finite result", node)
    return v


@dataclass(frozen=True)
class Const(ScalarExpr):
    value: float

    def diff(self, coord):
        return Const(0.0)

    def _text(self):
        return repr(self.value), _ATOM if self.value >= 0 else _NEG


@dataclass(frozen=True)
class Coord(ScalarExpr):
    index: int
    name: str

    def diff(self, coord):
        return Const(1.0 if coord == self.index else 0.0)

    def _text(self):
        return self.name, _ATOM


@dataclass(frozen=True)
class Neg(ScalarExpr):
    arg: ScalarExpr

    def diff(self, coord):
        return neg(self.arg.diff(coord))

    def _text(self):
        return f"-{_wrap(self.arg, _NEG)}", _NEG


@dataclass(frozen=True)
class Add(ScalarExpr):
    a: ScalarExpr
    b: ScalarExpr

    def diff(self, coord):
        return add(self.a.diff(coord), self.b.diff(coord))

    def _text(self):
        return f"{_wrap(self.a, _ADD)} + {_wrap(self.b, _ADD + 1)}", _ADD


@dataclass(frozen=True)
class Sub(ScalarExpr):
    a: ScalarExpr
    b: ScalarExpr

    def diff(self, coord):
        return sub(self.a.diff(coord), self.b.diff(coord))

    def _text(self):
        return f"{_wrap(self.a, _ADD)} - {_wrap(self.b, _ADD + 1)}", _ADD


@dataclass(frozen=True)
class Mul(ScalarExpr):
    a: ScalarExpr
    b: ScalarExpr

    def diff(self, coord):
        da, db = self.a.diff(coord), self.b.diff(coord)
        return add(mul(da, self.b), mul(self.a, db))

    def _text(self):
        return f"{_wrap(self.a, _MUL)}*{_wrap(self.b, _MUL + 1)}", _MUL


@dataclass(frozen=True)
class Div(ScalarExpr):
    a: ScalarExpr
    b: ScalarExpr

    def diff(self, coord):
        da, db = self.a.diff(coord), self.b.diff(coord)
        return div(sub(mul(da, self.b), mul(self.a, db)), power(self.b, 2.0))

    def _text(self):
        return f"{_wrap(self.a, _MUL)}/{_wrap(self.b, _MUL + 1)}", _MUL


def _pow_value(base: float, expo: float, node: ScalarExpr) -> float:
    if base == 0.0:
        if expo < 0.0:
            raise EvalDomainError("zero raised to a negative power", node)
        return 1.0 if expo == 0.0 else 0.0
    if base < 0.0 and expo != round(expo):
        raise EvalDomainError("negative base with non-integer exponent", node)
    try:
        v = base**expo
    except OverflowError:
        raise EvalDomainError("overflow", node) from None
    return _finite(v, node)


@dataclass(frozen=True)
class Pow(ScalarExpr):
    base: ScalarExpr
    exponent: float  # constant by construction

    def diff(self, coord):
        # d(u^c) = c*u^(c-1)*u'; for non-integer c this is the exp/log form,
        # which makes negative bases an evaluation error.
        c = self.exponent
        du = self.base.diff(coord)
        return mul(mul(Const(c), power(self.base, c - 1.0)), du)

    def _text(self):
        return f"{_wrap(self.base, _ATOM)}^{self.exponent!r}", _POW


_FN_EVAL: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "tanh": math.tanh,
}


def _fn_value(name: str, v: float, node: ScalarExpr) -> float:
    if name == "log" and v <= 0.0:
        raise EvalDomainError("log of a non-positive value", node)
    if name == "sqrt" and v < 0.0:
        raise EvalDomainError("sqrt of a negative value", node)
    try:
        out = _FN_EVAL[name](v)
    except (ValueError, OverflowError):
        raise EvalDomainError(f"{name} out of domain", node) from None
    return _finite(out, node)


@dataclass(frozen=True)
class Call(ScalarExpr):
    name: str
    arg: ScalarExpr

    def diff(self, coord):
        u, du = self.arg, self.arg.diff(coord)
        if self.name == "sin":
            return mul(Call("cos", u), du)
        if self.name == "cos":
            return mul(neg(Call("sin", u)), du)
        if self.name == "tan":
            return div(du, power(Call("cos", u), 2.0))
        if self.name == "exp":
            return mul(Call("exp", u), du)
        if self.name == "log":
            return div(du, u)
        if self.name == "sqrt":
            return div(du, mul(Const(2.0), Call("sqrt", u)))
        if self.name == "tanh":
            return mul(sub(Const(1.0), power(Call("tanh", u), 2.0)), du)
        raise ExprError(f"no derivative rule for '{self.name}'")

    def _text(self):
        return f"{self.name}({self.arg})", _ATOM


# ---------------------------------------------------------------------------
# Smart constructors: fold literal subtrees, keep everything else untouched.


def add(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(_finite(a.value + b.value, Add(a, b)))
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    return Add(a, b)


def sub(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(_finite(a.value - b.value, Sub(a, b)))
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and a.value == 0.0:
        return neg(b)
    return Sub(a, b)


def mul(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(_finite(a.value * b.value, Mul(a, b)))
    if isinstance(a, Const):
        if a.value == 0.0:
            return Const(0.0)
        if a.value == 1.0:
            return b
    if isinstance(b, Const):
        if b.value == 0.0:
            return Const(0.0)
        if b.value == 1.0:
            return a
    return Mul(a, b)


def div(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr:
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return Const(_finite(a.value / b.value, Div(a, b)))
    if isinstance(b, Const) and b.value == 1.0:
        return a
    if isinstance(a, Const) and a.value == 0.0:
        return Const(0.0)
    return Div(a, b)


def neg(a: ScalarExpr) -> ScalarExpr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def power(base: ScalarExpr, expo: float) -> ScalarExpr:
    if expo == 1.0:
        return base
    if expo == 0.0:
        return Const(1.0)
    if isinstance(base, Const):
        try:
            return Const(_pow_value(base.value, expo, Pow(base, expo)))
        except EvalDomainError:
            pass
    return Pow(base, expo)


def call(name: str, arg: ScalarExpr) -> ScalarExpr:
    if isinstance(arg, Const):
        try:
            return Const(_fn_value(name, arg.value, Call(name, arg)))
        except EvalDomainError:
            pass
    return Call(name, arg)


# ---------------------------------------------------------------------------
# Parser


_TOKEN = re.compile(
    r"(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


class _Parser:
    def __init__(self, text: str, coords: Sequence[str]):
        self.coords = {name: i for i, name in enumerate(coords)}
        self.tokens: list[tuple[str, str, int]] = []
        pos, n = 0, len(text)
        while pos < n:
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            kind = m.lastgroup or "op"
            self.tokens.append((kind, m.group(), pos))
            pos = m.end()
        self.tokens.append(("end", "", n))
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected '{op}'", off)
        self.advance()

    def parse(self) -> ScalarExpr:
        e = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", off)
        return e

    def expr(self) -> ScalarExpr:
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                e = add(e, rhs) if val == "+" else sub(e, rhs)
            else:
                return e

    def term(self) -> ScalarExpr:
        e = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.unary()
                e = mul(e, rhs) if val == "*" else div(e, rhs)
            else:
                return e

    def unary(self) -> ScalarExpr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return neg(self.unary())
        return self.power()

    def power(self) -> ScalarExpr:
        base = self.atom()
        kind, val, off = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            expo = self.unary()
            if not isinstance(expo, Const):
                raise ParseError("exponent must be a constant", off)
            return power(base, expo.value)
        return base

    def atom(self) -> ScalarExpr:
        kind, val, off = self.advance()
        if kind == "num":
            return Const(float(val))
        if kind == "ident":
            nxt_kind, nxt_val, _ = self.peek()
            if nxt_kind == "op" and nxt_val == "(":
                if val not in FUNCTIONS:
                    if val in self.coords:
                        raise ParseError(f"'{val}' is a coordinate, not a function", off)
                    raise UnknownIdentifierError(f"unknown function '{val}'", off)
                self.advance()
                arg = self.expr()
                k, v, o = self.peek()
                if k == "op" and v == ",":
                    raise ParseError(f"'{val}' takes one argument (arity mismatch)", o)
                self.expect_op(")")
                return call(val, arg)
            if val in self.coords:
                return Coord(self.coords[val], val)
            raise UnknownIdentifierError(f"unknown identifier '{val}'", off)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"expected a value, got {val!r}" if val else "unexpected end of input", off)


def parse_expression(text: str, coords: Sequence[str]) -> ScalarExpr:
    """Parse ``text`` over the declared coordinate names into a ScalarExpr."""
    clash = set(coords) & set(FUNCTIONS)
    if clash:
        raise ValueError(f"coordinate names shadow function names: {sorted(clash)}")
    return _Parser(text, coords).parse()


def evaluate(expr: ScalarExpr, x: Sequence[float], dim: int | None = None) -> float:
    """IEEE double evaluation; non-finite intermediate results raise EvalDomainError.

    Compiles ``expr`` on every call; callers that evaluate one expression
    repeatedly keep the closure from ``compile_expression`` instead.
    """
    if dim is not None and len(x) != dim:
        raise DimensionMismatchError(f"expected point of length {dim}, got {len(x)}")
    return compile_expression(expr)(x)


def differentiate(expr: ScalarExpr, coord_index: int, dim: int | None = None) -> ScalarExpr:
    """Exact symbolic partial derivative with respect to coordinate ``coord_index``."""
    if coord_index < 0 or (dim is not None and coord_index >= dim):
        raise ValueError(f"coordinate index {coord_index} out of range")
    return expr.diff(coord_index)


def compile_expression(expr: ScalarExpr) -> Callable[[Sequence[float]], float]:
    """Build a closure evaluating ``expr``; the package's only expression evaluator."""
    if isinstance(expr, Const):
        v = expr.value
        return lambda x: v
    if isinstance(expr, Coord):
        i, name = expr.index, expr.name

        def _coord(x):
            try:
                return x[i]
            except IndexError:
                raise DimensionMismatchError(
                    f"coordinate '{name}' (index {i}) out of range for point of length {len(x)}"
                ) from None

        return _coord
    if isinstance(expr, Neg):
        f = compile_expression(expr.arg)
        return lambda x: -f(x)
    if isinstance(expr, (Add, Sub, Mul)):
        fa, fb = compile_expression(expr.a), compile_expression(expr.b)
        node = expr
        if isinstance(expr, Add):
            return lambda x: _finite(fa(x) + fb(x), node)
        if isinstance(expr, Sub):
            return lambda x: _finite(fa(x) - fb(x), node)
        return lambda x: _finite(fa(x) * fb(x), node)
    if isinstance(expr, Div):
        fa, fb = compile_expression(expr.a), compile_expression(expr.b)
        node = expr

        def _div(x):
            den = fb(x)
            if den == 0.0:
                raise EvalDomainError("division by zero", node)
            return _finite(fa(x) / den, node)

        return _div
    if isinstance(expr, Pow):
        fb = compile_expression(expr.base)
        c, node = expr.exponent, expr
        return lambda x: _pow_value(fb(x), c, node)
    if isinstance(expr, Call):
        fa = compile_expression(expr.arg)
        name, node = expr.name, expr
        return lambda x: _fn_value(name, fa(x), node)
    raise ExprError(f"cannot compile node {expr!r}")

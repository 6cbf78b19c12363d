"""Scalar expressions over named coordinates: parsing, evaluation, exact derivatives.

Grammar (whitespace-insensitive)::

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative, binds above unary minus
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

An IDENT is a Unicode letter or '_' followed by letters, digits and '_' (so
'ξ' and 'x_1' are identifiers); identifiers are declared coordinate names or
one of the unary functions sin, cos, tan, exp, log, sqrt, tanh.  Exponents
must fold to a numeric constant at parse time.  Trees are immutable after
construction, so evaluation is reentrant and safe to call from concurrent
workers.
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
class _Binary(ScalarExpr):
    """A binary operation: its operands and the one printing rule, read from each
    subclass's printed operator `op` and precedence `level` (left-associative)."""

    a: ScalarExpr
    b: ScalarExpr

    def _text(self):
        return f"{_wrap(self.a, self.level)}{self.op}{_wrap(self.b, self.level + 1)}", self.level


@dataclass(frozen=True)
class Add(_Binary):
    op, level = " + ", _ADD

    def diff(self, coord):
        return add(self.a.diff(coord), self.b.diff(coord))


@dataclass(frozen=True)
class Sub(_Binary):
    op, level = " - ", _ADD

    def diff(self, coord):
        return sub(self.a.diff(coord), self.b.diff(coord))


@dataclass(frozen=True)
class Mul(_Binary):
    op, level = "*", _MUL

    def diff(self, coord):
        da, db = self.a.diff(coord), self.b.diff(coord)
        return add(mul(da, self.b), mul(self.a, db))


@dataclass(frozen=True)
class Div(_Binary):
    op, level = "/", _MUL

    def diff(self, coord):
        da, db = self.a.diff(coord), self.b.diff(coord)
        return div(sub(mul(da, self.b), mul(self.a, db)), power(self.b, 2.0))


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


# The unary functions: name -> (evaluation, derivative rule d f(u) from u and du).  The
# rules run only when a tree is differentiated, after the constructors below exist.
_FUNCTIONS: dict[str, tuple[Callable[[float], float], Callable[[ScalarExpr, ScalarExpr], ScalarExpr]]] = {
    "sin": (math.sin, lambda u, du: mul(Call("cos", u), du)),
    "cos": (math.cos, lambda u, du: mul(neg(Call("sin", u)), du)),
    "tan": (math.tan, lambda u, du: div(du, power(Call("cos", u), 2.0))),
    "exp": (math.exp, lambda u, du: mul(Call("exp", u), du)),
    "log": (math.log, lambda u, du: div(du, u)),
    "sqrt": (math.sqrt, lambda u, du: div(du, mul(Const(2.0), Call("sqrt", u)))),
    "tanh": (math.tanh, lambda u, du: mul(sub(Const(1.0), power(Call("tanh", u), 2.0)), du)),
}
FUNCTIONS = tuple(_FUNCTIONS)


def _fn_value(name: str, v: float, node: ScalarExpr) -> float:
    if name == "log" and v <= 0.0:
        raise EvalDomainError("log of a non-positive value", node)
    if name == "sqrt" and v < 0.0:
        raise EvalDomainError("sqrt of a negative value", node)
    try:
        out = _FUNCTIONS[name][0](v)
    except (ValueError, OverflowError):
        raise EvalDomainError(f"{name} out of domain", node) from None
    return _finite(out, node)


@dataclass(frozen=True)
class Call(ScalarExpr):
    name: str
    arg: ScalarExpr

    def diff(self, coord):
        return _FUNCTIONS[self.name][1](self.arg, self.arg.diff(coord))

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


IDENTIFIER = re.compile(r"[^\W\d]\w*")  # a Unicode letter or '_', then letters, digits and '_'
_TOKEN = re.compile(
    r"(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    rf"|(?P<ident>{IDENTIFIER.pattern})"
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

    def _chain(self, operand: Callable[[], ScalarExpr], ops: dict) -> ScalarExpr:
        """A left-associative run `operand (symbol operand)*`, each symbol of ops folded
        by its constructor."""
        e = operand()
        while True:
            kind, val, _ = self.peek()
            if kind != "op" or val not in ops:
                return e
            self.advance()
            e = ops[val](e, operand())

    def expr(self) -> ScalarExpr:
        return self._chain(self.term, {"+": add, "-": sub})

    def term(self) -> ScalarExpr:
        return self._chain(self.unary, {"*": mul, "/": div})

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


def differentiate(expr: ScalarExpr, coord_index: int, dim: int | None = None) -> ScalarExpr:
    """Exact symbolic partial derivative with respect to coordinate ``coord_index``."""
    if coord_index < 0 or (dim is not None and coord_index >= dim):
        raise ValueError(f"coordinate index {coord_index} out of range")
    return expr.diff(coord_index)


def _short_point(x, coords: Sequence[Coord]) -> DimensionMismatchError:
    """The error of the first coordinate in `coords`, the order a generated function
    reads them, that the point x is too short for."""
    c = next(c for c in coords if c.index >= len(x))
    return DimensionMismatchError(
        f"coordinate '{c.name}' (index {c.index}) out of range for point of length {len(x)}")


# The names generated code reads besides its bound values (k<i>) and temporaries (t<i>).
_HELPERS = {"_finite": _finite, "_pow_value": _pow_value, "_fn_value": _fn_value,
            "_short_point": _short_point, "EvalDomainError": EvalDomainError}


class _Emitter:
    """Straight-line Python for a table of expressions.

    Each distinct subtree gets one temporary, keyed by its node type and the names
    of its operands; constants and Pow exponents are bound values keyed on
    float.hex, so 0.0 and -0.0 stay apart.  Lines are emitted in the order a
    recursive walk of the trees evaluates them (operands left to right, a Div's
    denominator first), so the first node that fails is the walk's first.
    """

    def __init__(self):
        self.lines: list[str] = []
        self.namespace = dict(_HELPERS)
        self.names: dict[tuple, str] = {}  # structural key -> temporary or bound name
        self.by_node: dict[int, str] = {}  # id of a node object already emitted -> its name
        self.coords: list[Coord] = []  # in the order the code reads x

    def bind(self, key: tuple, value) -> str:
        if key not in self.names:
            self.names[key] = f"k{len(self.namespace) - len(_HELPERS)}"
            self.namespace[self.names[key]] = value
        return self.names[key]

    def temporary(self, key: tuple, node: ScalarExpr, code: str, guard: tuple[int, str] | None = None) -> str:
        """The temporary holding key's value, assigned `code` on first use.  `code` and
        the `guard` statement, which goes in at line guard[0], read {node}, the bound
        node that names this operation in an error."""
        if key not in self.names:
            name = self.names[key] = f"t{len(self.names)}"
            node_name = self.bind(("node", name), node)
            if guard is not None:
                self.lines.insert(guard[0], guard[1].format(node=node_name))
            self.lines.append(f"{name} = {code.format(node=node_name)}")
        return self.names[key]

    def emit(self, node: ScalarExpr) -> str:
        if id(node) not in self.by_node:
            self.by_node[id(node)] = self._emit(node)
        return self.by_node[id(node)]

    def _emit(self, node: ScalarExpr) -> str:
        if isinstance(node, Const):
            return self.bind(("float", node.value.hex()), node.value)
        if isinstance(node, Coord):
            key = ("coord", node.index, node.name)
            if key not in self.names:
                self.coords.append(node)
            return self.temporary(key, node, f"x[{node.index}]")
        if isinstance(node, Neg):
            a = self.emit(node.arg)
            return self.temporary(("neg", a), node, f"-{a}")
        if isinstance(node, Div):
            b = self.emit(node.b)
            guard = (len(self.lines), f"if {b} == 0.0: raise EvalDomainError('division by zero', {{node}})")
            a = self.emit(node.a)
            return self.temporary(("/", a, b), node, f"_finite({a} / {b}, {{node}})", guard)
        if isinstance(node, _Binary):
            a, b, op = self.emit(node.a), self.emit(node.b), node.op.strip()
            return self.temporary((op, a, b), node, f"_finite({a} {op} {b}, {{node}})")
        if isinstance(node, Pow):
            a, c = self.emit(node.base), self.bind(("float", node.exponent.hex()), node.exponent)
            return self.temporary(("^", a, c), node, f"_pow_value({a}, {c}, {{node}})")
        if isinstance(node, Call):
            a, name = self.emit(node.arg), self.bind(("function", node.name), node.name)
            return self.temporary(("call", name, a), node, f"_fn_value({name}, {a}, {{node}})")
        raise ExprError(f"cannot compile node {node!r}")

    def function(self, result: str):
        """The generated function `table(x)` returning `result`."""
        body = self.lines
        if self.coords:
            coords = self.bind(("coords",), tuple(self.coords))
            body = ["try:", *(f"    {line}" for line in body),
                    "except IndexError:", f"    raise _short_point(x, {coords}) from None"]
        source = "\n".join(["def table(x):", *(f"    {line}" for line in body), f"    return {result}", ""])
        exec(compile(source, "<expression table>", "exec"), self.namespace)
        # the function reads the namespace as its globals; taking it out leaves no cycle,
        # so a table is freed with its field
        return self.namespace.pop("table")


def compile_table(exprs: Sequence[ScalarExpr]) -> Callable[[Sequence[float]], list[float]]:
    """One generated straight-line function giving [e(x) for e in exprs].

    Every distinct subexpression of the table is computed once, with the checks
    of a recursive evaluation, in its order: a finite result for +, -, * and /, a
    non-zero denominator (evaluated before the numerator), `_pow_value` and
    `_fn_value`; a point too short for a coordinate raises DimensionMismatchError.
    Values keep the element type of x, so Python floats give Python floats.  The
    package's only expression evaluator.
    """
    emitter = _Emitter()
    return emitter.function("[" + ", ".join(emitter.emit(e) for e in exprs) + "]")


def compile_expression(expr: ScalarExpr) -> Callable[[Sequence[float]], float]:
    """The evaluator of one expression: the table of one, returning its value."""
    emitter = _Emitter()
    return emitter.function(emitter.emit(expr))

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multifinsler.expr import (
    Const,
    DimensionMismatchError,
    EvalDomainError,
    ParseError,
    UnknownIdentifierError,
    compile_expression,
    differentiate,
    evaluate,
    parse_expression,
)

COORDS = ["x1", "x2"]


def parse(text):
    return parse_expression(text, COORDS)


class TestParseEvaluate:
    def test_polynomial(self):
        assert evaluate(parse("1 + x1^2"), [2.0, 0.0]) == 5.0

    def test_product_with_function(self):
        assert evaluate(parse("sin(x1)*x2"), [math.pi / 2, 3.0]) == pytest.approx(3.0, abs=1e-15)

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError):
            parse("x1 + q")

    def test_constant(self):
        assert evaluate(parse("7"), [0.3, -0.4]) == 7.0

    def test_sqrt_negative_is_domain_error(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("sqrt(x1)"), [-1.0, 0.0])

    def test_division_by_zero_is_domain_error(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("x1/x2"), [1.0, 0.0])

    def test_log_of_nonpositive(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("log(x1)"), [0.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            evaluate(parse("x1"), [1.0, 2.0, 3.0], dim=2)

    def test_coordinate_past_end_of_point(self):
        with pytest.raises(DimensionMismatchError):
            evaluate(parse("x2"), [1.0])
        with pytest.raises(DimensionMismatchError):
            compile_expression(parse("1 + x2"))([1.0])

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ParseError) as exc:
            parse("1 + * 2")
        assert exc.value.offset == 4

    def test_unexpected_character_offset(self):
        with pytest.raises(ParseError) as exc:
            parse("x1 + $")
        assert exc.value.offset == 5

    def test_arity_mismatch(self):
        with pytest.raises(ParseError, match="arity"):
            parse("sin(x1, x2)")

    def test_coordinate_is_not_a_function(self):
        with pytest.raises(ParseError):
            parse("x1(2)")

    def test_exponent_must_be_constant(self):
        with pytest.raises(ParseError, match="constant"):
            parse("x1^x2")

    def test_parenthesized_constant_exponent_folds(self):
        assert evaluate(parse("x1^(1+2)"), [2.0, 0.0]) == 8.0

    def test_precedence_power_over_unary_minus(self):
        # ^ binds above unary minus: -x^2 == -(x^2)
        assert evaluate(parse("-x1^2"), [3.0, 0.0]) == -9.0

    def test_power_right_associative(self):
        assert evaluate(parse("2^3^2"), [0.0, 0.0]) == 512.0

    def test_negative_exponent(self):
        assert evaluate(parse("x1^-2"), [2.0, 0.0]) == 0.25

    def test_negative_base_integer_exponent(self):
        assert evaluate(parse("(0-2)^3"), [0.0, 0.0]) == -8.0

    def test_negative_base_fractional_exponent_errors(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("x1^0.5"), [-4.0, 0.0])

    def test_whitespace_insensitive(self):
        assert evaluate(parse(" 1+ x1 * x2 "), [2.0, 3.0]) == 7.0

    def test_all_functions(self):
        x = [0.7, 0.0]
        for name, ref in [
            ("sin", math.sin), ("cos", math.cos), ("tan", math.tan),
            ("exp", math.exp), ("log", math.log), ("sqrt", math.sqrt),
            ("tanh", math.tanh),
        ]:
            assert evaluate(parse(f"{name}(x1)"), x) == ref(0.7)


class TestDifferentiate:
    def test_power_rule(self):
        d = differentiate(parse("x1^2"), 0)
        assert evaluate(d, [3.0, 0.0]) == 6.0

    def test_other_coordinate(self):
        d = differentiate(parse("x1"), 1)
        assert evaluate(d, [5.0, 5.0]) == 0.0

    def test_product_rule_value(self):
        d = differentiate(parse("sin(x1)*x1"), 0)
        assert evaluate(d, [0.0, 0.0]) == 0.0

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            differentiate(parse("x1"), 5, dim=2)

    def test_quotient_rule(self):
        d = differentiate(parse("x1/(1+x2^2)"), 1)
        x = [2.0, 0.5]
        expect = -2.0 * 2.0 * 0.5 / (1 + 0.25) ** 2
        assert evaluate(d, x) == pytest.approx(expect, rel=1e-15)

    def test_closure_under_differentiation(self):
        e = parse("exp(tanh(x1)) + log(2 + x2^2) / sqrt(1 + x1^2)")
        d = e
        for _ in range(3):
            d = differentiate(d, 0)
        assert math.isfinite(evaluate(d, [0.3, -0.8]))


def _random_expr(rng: np.random.Generator, depth: int) -> str:
    if depth == 0:
        return rng.choice(["x1", "x2", repr(round(rng.uniform(-2, 2), 3))])
    kind = rng.integers(0, 8)
    a = _random_expr(rng, depth - 1)
    b = _random_expr(rng, depth - 1)
    if kind == 0:
        return f"({a} + {b})"
    if kind == 1:
        return f"({a} - {b})"
    if kind == 2:
        return f"({a})*({b})"
    if kind == 3:
        return f"({a})/(2 + ({b})^2)"
    if kind == 4:
        return f"sin({a})"
    if kind == 5:
        return f"tanh({a})"
    if kind == 6:
        return f"sqrt(1 + ({a})^2)"
    return f"({a})^2"


def test_derivative_matches_central_differences_bulk():
    # 1000 random expressions and points, h = 1e-6, tol 1e-6 * (1 + |value|)
    rng = np.random.default_rng(2024)
    h = 1e-6
    for _ in range(1000):
        text = _random_expr(rng, int(rng.integers(1, 4)))
        e = parse(text)
        i = int(rng.integers(0, 2))
        d = differentiate(e, i)
        x = rng.uniform(-1.0, 1.0, size=2)
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd = (evaluate(e, xp) - evaluate(e, xm)) / (2 * h)
        val = evaluate(d, x)
        assert abs(val - fd) <= 1e-6 * (1.0 + abs(val)), text


def test_roundtrip_pretty_print_bulk():
    rng = np.random.default_rng(7)
    for _ in range(200):
        text = _random_expr(rng, int(rng.integers(1, 4)))
        e = parse(text)
        e2 = parse(str(e))
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, size=2)
            assert evaluate(e, x) == evaluate(e2, x)


def test_compiled_matches_python_eval():
    # independent oracle: Python evaluates the same text, whose grammar
    # (^ right-associative, binding above unary minus) is that of **
    rng = np.random.default_rng(11)
    names = {name: getattr(math, name) for name in ("sin", "tanh", "sqrt")}
    for _ in range(100):
        text = _random_expr(rng, 3)
        f = compile_expression(parse(text))
        x = rng.uniform(-1.0, 1.0, size=2)
        ref = eval(text.replace("^", "**"), {"__builtins__": {}}, {**names, "x1": x[0], "x2": x[1]})
        assert abs(f(x) - ref) <= 1e-14 * abs(ref), text


@given(st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_evaluation_deterministic(a, b):
    e = parse("sin(x1)*x2 + x1^3 - tanh(x2)/(2 + x1^2)")
    assert evaluate(e, [a, b]) == evaluate(e, [a, b])


@given(st.integers(min_value=-5, max_value=5), st.floats(min_value=0.1, max_value=2.0))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_integer_powers_match_repeated_product(n, base):
    e = parse(f"x1^{n}")
    expect = base**n
    assert evaluate(e, [base, 0.0]) == pytest.approx(expect, rel=1e-14)


def test_derivative_is_scalar_expr():
    from multifinsler.expr import ScalarExpr

    d = differentiate(parse("sqrt(1 + x1^2)*cos(x2)"), 0)
    assert isinstance(d, ScalarExpr)
    dd = differentiate(d, 1)
    assert isinstance(dd, ScalarExpr)


def test_constant_folding_of_literals():
    assert isinstance(parse("2*3 + 1"), Const)
    assert evaluate(parse("2*3 + 1"), [0.0, 0.0]) == 7.0

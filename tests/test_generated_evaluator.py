"""The generated evaluator against the tree-walking reference of expr_reference.

Expressions are drawn from a pool that grows one node at a time, so later nodes share
earlier subtrees (the same object, or a structurally equal copy); they use every node
kind, 0.0 and -0.0 constants, negative and non-integer powers, and points where logs,
roots, powers and quotients leave their domain.  Values must be equal under == with
the same sign of zero, and failures must raise the same exception with the same message.
"""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from multifinsler.expr import Add, Call, Const, Coord, Div, Mul, Neg, Pow, Sub, compile_expression, compile_table
from multifinsler.riemann import MetricField

from expr_reference import derivative_array, evaluate

COORDS = ("x1", "x2", "x3")
CONSTANTS = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.0, 1e-3, 1e200)
EXPONENTS = (2.0, 3.0, -1.0, -2.0, 0.5, -0.5, 1.5, 0.0, -0.0)
FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "tanh")
COORDINATES = st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.25, -2.5, 3.0, 1e3)) | st.floats(-4.0, 4.0)


@st.composite
def pools(draw, dim):
    """A list of expression nodes over the first dim coordinates, each built from nodes before it."""
    pool = [*(Coord(i, COORDS[i]) for i in range(dim)),
            *(Const(c) for c in draw(st.lists(st.sampled_from(CONSTANTS), min_size=1, max_size=3)))]

    def pick():
        return pool[draw(st.integers(0, len(pool) - 1))]

    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("neg", "add", "sub", "mul", "div", "pow", "call", "copy")))
        if kind == "neg":
            node = Neg(pick())
        elif kind in ("add", "sub", "mul", "div"):
            node = {"add": Add, "sub": Sub, "mul": Mul, "div": Div}[kind](pick(), pick())
        elif kind == "pow":
            node = Pow(pick(), draw(st.sampled_from(EXPONENTS)))
        elif kind == "call":
            node = Call(draw(st.sampled_from(FUNCTIONS)), pick())
        else:
            node = copy.copy(pick())  # structurally equal, another object
        pool.append(node)
    return pool


def outcome(f):
    """("value", array) or ("error", exception type, message)."""
    try:
        return ("value", np.asarray(f()))
    except Exception as e:
        return ("error", type(e), str(e))


def assert_same(got, expected):
    assert got[0] == expected[0], (got, expected)
    if got[0] == "error":
        assert got[1:] == expected[1:]
    else:
        assert got[1].shape == expected[1].shape and got[1].dtype == expected[1].dtype
        assert np.array_equal(got[1], expected[1]), (got[1], expected[1])
        assert np.array_equal(np.signbit(got[1]), np.signbit(expected[1])), (got[1], expected[1])


@given(pools(2), st.data(), COORDINATES, COORDINATES)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_metric_field_tables_equal_the_tree_walk(pool, data, a, b):
    upper = [pool[-1], *(data.draw(st.sampled_from(pool)) for _ in range(2))]
    components = [[upper[0], upper[1]], [upper[1], upper[2]]]
    float_point = [a, b]
    # long double points hold bits no float64 holds, and are rounded to float64 once stored
    ld_point = np.array(float_point, dtype=np.longdouble) * (1 + np.longdouble(2.0) ** -60)
    for order, method in enumerate(("value", "derivative", "second_derivative")):
        for x in (float_point, ld_point):
            field = MetricField("drawn", COORDS[:2], components)
            assert_same(outcome(lambda: getattr(field, method)(x)), outcome(lambda: derivative_array(field, order, x)))


@given(pools(3), COORDINATES, COORDINATES, COORDINATES)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_a_table_and_its_expressions_equal_the_tree_walk(pool, a, b, c):
    # the whole pool as one table: the first node, in pool order, that fails raises; on the
    # short points, the first coordinate read that the point lacks
    for x in ([a, b, c], [a, b], [a]):
        assert_same(outcome(lambda: compile_table(pool)(x)), outcome(lambda: [evaluate(e, x) for e in pool]))
        for e in pool:
            assert_same(outcome(lambda: [compile_expression(e)(x)]), outcome(lambda: [evaluate(e, x)]))

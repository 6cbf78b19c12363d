"""A tree-walking evaluator of expression trees and of MetricField's derivative arrays:
the reference that the generated evaluator (expr.compile_table, MetricField.evaluator)
must equal value for value, sign of zero included, and error for error.

Every node is evaluated where the walk meets it, shared subtrees again each time, with
the checks of expr: a finite result for +, -, * and /, a non-zero denominator evaluated
before the numerator, `_pow_value` and `_fn_value`, and DimensionMismatchError for a
coordinate the point is too short for.
"""

import itertools

import numpy as np

from multifinsler.expr import (
    Add,
    Call,
    Const,
    Coord,
    DimensionMismatchError,
    Div,
    EvalDomainError,
    Mul,
    Neg,
    Pow,
    Sub,
    _finite,
    _fn_value,
    _pow_value,
    differentiate,
)


def evaluate(node, x):
    """The value of node at the point x, in the element type of x."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Coord):
        if node.index >= len(x):
            raise DimensionMismatchError(
                f"coordinate '{node.name}' (index {node.index}) out of range for point of length {len(x)}")
        return x[node.index]
    if isinstance(node, Neg):
        return -evaluate(node.arg, x)
    if isinstance(node, Add):
        return _finite(evaluate(node.a, x) + evaluate(node.b, x), node)
    if isinstance(node, Sub):
        return _finite(evaluate(node.a, x) - evaluate(node.b, x), node)
    if isinstance(node, Mul):
        return _finite(evaluate(node.a, x) * evaluate(node.b, x), node)
    if isinstance(node, Div):
        den = evaluate(node.b, x)
        if den == 0.0:
            raise EvalDomainError("division by zero", node)
        return _finite(evaluate(node.a, x) / den, node)
    if isinstance(node, Pow):
        return _pow_value(evaluate(node.base, x), node.exponent, node)
    if isinstance(node, Call):
        return _fn_value(node.name, evaluate(node.arg, x), node)
    raise TypeError(f"not an expression node: {node!r}")


def derivative_array(field, order: int, x) -> np.ndarray:
    """field's order-th derivative array at x (a_ij, d a_ij / d x_s, d^2 a_ij / (d x_s d x_t)),
    as float64.  Each order is differentiated from the one below, entry (p..., i, j >= i)
    in x_t to (p..., t, i, j), in C order; then the entries are evaluated in C order,
    each into its slot and the mirrored one."""
    n = field.dim
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    exprs = {(i, j): field.components[i][j] for i, j in pairs}
    for k in range(order):
        exprs = {(*p, t, i, j): differentiate(exprs[(*p, i, j)], t, n)
                 for p in itertools.product(range(n), repeat=k) for t in range(n) for i, j in pairs}
    out = np.empty((n,) * (order + 2))
    for (*p, i, j), e in exprs.items():
        out[(*p, i, j)] = out[(*p, j, i)] = evaluate(e, x)
    return out

"""Single Riemannian metrics with symbolic components and their classical objects.

Christoffel symbols use exact symbolic derivatives of the components, never
finite differences, so downstream FD checks stay independent oracles.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .expr import (
    ScalarExpr,
    compile_expression,
    compile_table,
    differentiate,
    parse_expression,
)

# Smallest admissible eigenvalue ratio at an evaluation point.  There is no
# global SPD certificate over a patch; every point actually touched is checked.
SPD_EIG_RATIO = 1e-10


class NotPositiveDefiniteError(Exception):
    """An evaluated metric matrix failed the positive-definiteness check: an eigenvalue
    is not positive, or the smallest is at most SPD_EIG_RATIO times the largest."""


class MetricField:
    """Symmetric matrix of coordinate expressions, pointwise positive definite.

    The (i, j) and (j, i) slots share the same expression object, so the
    evaluated matrix is symmetric by construction.
    """

    def __init__(self, name: str, coords: Sequence[str], components):
        self.name = name
        self.coords = tuple(coords)
        self.dim = len(self.coords)
        n = self.dim
        if len(components) != n or any(len(row) != n for row in components):
            raise ValueError(f"metric '{name}': expected a {n}x{n} component grid")
        # canonical storage: upper-triangle entry used for both slots
        self.components: tuple[tuple[ScalarExpr, ...], ...] = tuple(
            tuple(components[min(i, j)][max(i, j)] for j in range(n)) for i in range(n)
        )
        # the expressions of the highest order built so far, flat in C order; see evaluator
        self._exprs: list[ScalarExpr] = [e for row in self.components for e in row]
        self._evaluators: list = []

    @classmethod
    def from_strings(cls, name: str, rows: Sequence[Sequence[str]], coords: Sequence[str],
                     probes: Sequence[Sequence[float]]) -> "MetricField":
        n = len(coords)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"metric '{name}': expected a {n}x{n} grid of expressions")
        parsed = [[parse_expression(rows[i][j], coords) for j in range(n)] for i in range(n)]
        # symmetry: textual match or pointwise agreement at the probe points, taken where x is sampled
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j].strip() == rows[j][i].strip():
                    continue
                fa, fb = compile_expression(parsed[i][j]), compile_expression(parsed[j][i])
                for p in probes:
                    a, b = fa(p), fb(p)
                    if abs(a - b) > 1e-12 * (1.0 + abs(a)):
                        raise ValueError(
                            f"metric '{name}': components ({i},{j}) and ({j},{i}) are not symmetric"
                        )
        return cls(name, coords, parsed)

    # -- evaluation --------------------------------------------------------

    def _check_point(self, x):
        if len(x) != self.dim:
            raise ValueError(f"metric '{self.name}': point of length {len(x)}, expected {self.dim}")

    def evaluator(self, order: int) -> Callable[[Sequence[float]], list[float]]:
        """The generated function giving the order-th derivative array at a point x, flat
        in C order: a_ij for order 0, d a_ij / d x_s for 1, d^2 a_ij / (d x_s d x_t)
        for 2.  Each order's expressions are the order below's, differentiated once
        per coordinate; each distinct subexpression is computed once, and the values
        keep the element type of x.  Built on first use."""
        n = self.dim
        while len(self._evaluators) <= order:
            if self._evaluators:
                # entry (p..., i, j) of the order below, differentiated in x_t, is (p..., t, i, j)
                prev = self._exprs
                self._exprs = [differentiate(e, t, n) for g in range(0, len(prev), n * n)
                               for t in range(n) for e in prev[g:g + n * n]]
            self._evaluators.append(compile_table(self._exprs))
        return self._evaluators[order]

    def _evaluate(self, order: int, x) -> np.ndarray:
        self._check_point(x)
        x = np.asarray(x)
        # a float64 point as Python floats, so an overflow raises its EvalDomainError and
        # not a numpy warning; a long-double point keeps its type, and the values their bits
        values = self.evaluator(order)(x if x.dtype == np.longdouble else x.tolist())
        # float64 whatever the element type of x: long-double points round here
        return np.array(values, dtype=float).reshape((self.dim,) * (order + 2))

    def value(self, x) -> np.ndarray:
        return self._evaluate(0, x)

    def derivative(self, x) -> np.ndarray:
        """dA[s, i, j] = d a_ij / d x_s, from exact symbolic derivatives."""
        return self._evaluate(1, x)

    def second_derivative(self, x) -> np.ndarray:
        """d2A[s, t, i, j] = d^2 a_ij / (d x_s d x_t)."""
        return self._evaluate(2, x)

    def spd_value(self, x) -> tuple[np.ndarray, np.ndarray, float]:
        """Evaluate and validate SPD; returns (matrix, inverse, determinant)."""
        a = self.value(x)
        inv, det = spd_inverse_det(a[None], x, (self.name,))
        return a, inv[0], float(det[0])


def spd_inverse_det(a: np.ndarray, x, names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Validate the matrices a[..., mu, :, :] of the metrics `names` at the points
    x[..., :] as SPD; returns their inverses and determinants.

    A matrix passes if its smallest eigenvalue is positive and above
    SPD_EIG_RATIO times its largest.  The first failing (point, metric) in
    C order raises.  The stack is decomposed by one eigvalsh, one inv and one
    det call; each equals the per-matrix call bit for bit.
    """
    w = np.linalg.eigvalsh(a)
    bad = (w[..., 0] <= 0.0) | (w[..., 0] <= SPD_EIG_RATIO * w[..., -1])
    if bad.any():
        *point, mu = np.unravel_index(np.argmax(bad), bad.shape)
        at, eig = np.asarray(x)[tuple(point)].tolist(), w[(*point, mu)].tolist()
        if eig[0] <= 0.0:
            raise NotPositiveDefiniteError(f"metric '{names[mu]}' is not positive definite at x={at} "
                                           f"(eigenvalues {eig})")
        raise NotPositiveDefiniteError(
            f"metric '{names[mu]}' is ill-conditioned at x={at}: eigenvalue ratio {eig[0] / eig[-1]} "
            f"at or below SPD_EIG_RATIO = {SPD_EIG_RATIO} (eigenvalues {eig})")
    return np.linalg.inv(a), np.linalg.det(a)


def _christoffel(inv: np.ndarray, dA: np.ndarray) -> np.ndarray:
    """Gamma[..., i,j,k] = (1/2) inv[i,l] (d_j a_lk + d_k a_lj - d_l a_jk) from dA[..., s,i,j]."""
    return 0.5 * (
        np.einsum("...il,...jlk->...ijk", inv, dA)
        + np.einsum("...il,...klj->...ijk", inv, dA)
        - np.einsum("...il,...ljk->...ijk", inv, dA)
    )


def christoffels_and_spray(field: MetricField, x, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Christoffel symbols Gamma[i,j,k], spray G^i = Gamma y y, and N^i_j = Gamma^i_jk y^k."""
    _, inv, _ = field.spd_value(x)
    gamma = _christoffel(inv, field.derivative(x))
    y = np.asarray(y, dtype=float)
    nonlin = np.einsum("ijk,k->ij", gamma, y)
    spray = nonlin @ y
    return gamma, spray, nonlin


def symmetric_polynomials(A: np.ndarray, B: np.ndarray) -> tuple[float, float]:
    """Trace and second symmetric polynomial of A^{-1} B for SPD 2x2 matrices."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != (2, 2) or B.shape != (2, 2):
        raise ValueError("symmetric_polynomials expects 2x2 matrices")
    X = np.linalg.solve(A, B)
    e1 = float(np.trace(X))
    e2 = float(0.5 * (e1 * e1 - np.trace(X @ X)))
    return e1, e2

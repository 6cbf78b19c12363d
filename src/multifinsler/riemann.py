"""Single Riemannian metrics with symbolic components and their classical objects.

Christoffel symbols use exact symbolic derivatives of the components, never
finite differences, so downstream FD checks stay independent oracles.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .expr import (
    ScalarExpr,
    compile_expression,
    differentiate,
    parse_expression,
)

# Smallest admissible eigenvalue ratio at an evaluation point.  There is no
# global SPD certificate over a patch; every point actually touched is checked.
SPD_EIG_RATIO = 1e-10


class NotPositiveDefiniteError(Exception):
    """An evaluated metric matrix failed the positive-definiteness check."""


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
        self._tables: list[list[tuple]] = []  # see _table

    @classmethod
    def from_strings(cls, name: str, rows: Sequence[Sequence[str]], coords: Sequence[str]) -> "MetricField":
        n = len(coords)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"metric '{name}': expected a {n}x{n} grid of expressions")
        parsed = [[parse_expression(rows[i][j], coords) for j in range(n)] for i in range(n)]
        # symmetry: textual match or pointwise agreement at a few probe points
        probes = [np.full(n, 0.1), np.linspace(-0.3, 0.3, n), np.linspace(0.2, 0.5, n)]
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

    def _table(self, order: int) -> list[tuple]:
        """(expression, closure, flat slot, mirrored slot) per upper-triangle entry of the
        order-th derivative array in the order (s, t, ..., i, j >= i); built on first
        use, each order by differentiating the one below once per coordinate."""
        n, nn = self.dim, self.dim * self.dim
        while len(self._tables) <= order:
            if not self._tables:
                entries = [(self.components[i][j], i * n + j, j * n + i) for i in range(n) for j in range(i, n)]
            else:
                # entry (p..., i, j) of the order below, differentiated in x_t, fills (p..., t, i, j)
                prev, per_index = self._tables[-1], n * (n + 1) // 2
                entries = [
                    (differentiate(e, t, n), (a // nn * n + t) * nn + a % nn, (b // nn * n + t) * nn + b % nn)
                    for g in range(0, len(prev), per_index)
                    for t in range(n)
                    for e, _, a, b in prev[g:g + per_index]
                ]
            self._tables.append([(e, compile_expression(e), a, b) for e, a, b in entries])
        return self._tables[order]

    def _evaluate(self, order: int, x) -> np.ndarray:
        self._check_point(x)
        out = np.empty(self.dim ** (order + 2))
        for _, fn, a, b in self._table(order):
            out[a] = out[b] = fn(x)
        return out.reshape((self.dim,) * (order + 2))

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
        raise NotPositiveDefiniteError(
            f"metric '{names[mu]}' is not positive definite at x={np.asarray(x)[tuple(point)].tolist()} "
            f"(eigenvalues {w[(*point, mu)].tolist()})"
        )
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


def gauss_curvature(field: MetricField, x) -> float:
    """Gauss curvature of a 2D metric via the curvature tensor of its Levi-Civita connection."""
    if field.dim != 2:
        raise ValueError("gauss_curvature is defined for 2D metrics only")
    a, inv, det = field.spd_value(x)
    dA = field.derivative(x)
    d2A = field.second_derivative(x)

    gamma = _christoffel(inv, dA)
    # d inv / d x_s = -inv dA_s inv
    dinv = -np.einsum("im,smn,nl->sil", inv, dA, inv)
    # T[j,l,k] = d_j a_lk + d_k a_lj - d_l a_jk and its x-derivative
    T = dA.transpose(0, 1, 2) + dA.transpose(2, 1, 0) - dA.transpose(1, 0, 2)
    dT = (
        d2A.transpose(0, 1, 2, 3)
        + d2A.transpose(0, 3, 2, 1)
        - d2A.transpose(0, 2, 1, 3)
    )
    dgamma = 0.5 * (np.einsum("sil,jlk->sijk", dinv, T) + np.einsum("il,sjlk->sijk", inv, dT))

    # R^i_{jkl} = d_k Gamma^i_{lj} - d_l Gamma^i_{kj} + Gamma^i_{ks} Gamma^s_{lj} - Gamma^i_{ls} Gamma^s_{kj}
    riem = (
        np.einsum("kilj->ijkl", dgamma)
        - np.einsum("likj->ijkl", dgamma)
        + np.einsum("iks,slj->ijkl", gamma, gamma)
        - np.einsum("ils,skj->ijkl", gamma, gamma)
    )
    r_low = np.einsum("im,mjkl->ijkl", a, riem)
    return float(r_low[0, 1, 0, 1] / det)


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

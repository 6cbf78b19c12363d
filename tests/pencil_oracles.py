"""The pencil integrals and the defining integrals of K and E: a closed form that
only tests use, and the adaptive-quadrature oracles of it and of measure's
AGM elliptic integrals."""

import math

import numpy as np
from scipy import integrate

from multifinsler.measure import QUAD_ABS, _form, complete_elliptic_e, complete_elliptic_k, lambda_pair


def elliptic_k_quadrature(k: float) -> float:
    """Defining integral of K(k), adaptive quadrature."""
    val, _ = integrate.quad(
        lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2), 0.0, math.pi / 2.0,
        epsabs=1e-13, epsrel=1e-13, limit=200,
    )
    return val


def elliptic_e_quadrature(k: float) -> float:
    """Defining integral of E(k), adaptive quadrature."""
    val, _ = integrate.quad(
        lambda t: math.sqrt(max(0.0, 1.0 - (k * math.sin(t)) ** 2)), 0.0, math.pi / 2.0,
        epsabs=1e-13, epsrel=1e-13, limit=200,
    )
    return val


def pencil_integrals(A, B) -> tuple[float, float]:
    """The two canonical pencil integrals over the real line:

        first  = integral dt / sqrt(a(t) b(t))
        second = integral sqrt(a(t)) / b(t)^(3/2) dt

    with a(t) = A11 t^2 + 2 A12 t + A22 and likewise b(t).  The closed forms
    are 2 sqrt(lam_-/det A) K(k) and 2 lam_+ sqrt(lam_-/det A) E(k)
    (equivalently 2 sqrt(lam_+/det B) E(k)) with the characteristic pair of
    det(A - lambda B) = 0 and k the pencil modulus.
    """
    A = np.asarray(A, dtype=float)
    pair = lambda_pair(A, np.asarray(B, dtype=float))
    k = pair.modulus
    det_a = float(np.linalg.det(A))
    first = 2.0 * math.sqrt(pair.lam_minus / det_a) * complete_elliptic_k(k)
    second = 2.0 * pair.lam_plus * math.sqrt(pair.lam_minus / det_a) * complete_elliptic_e(k)
    return first, second


def pencil_integrals_quadrature(A, B) -> tuple[float, float]:
    """The two pencil integrals by adaptive quadrature; oracle of pencil_integrals."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    # t = tan(theta) removes the improper endpoints analytically
    first, _ = integrate.quad(
        lambda th: 1.0 / math.sqrt(_form(A, th) * _form(B, th)),
        -math.pi / 2.0, math.pi / 2.0, epsabs=QUAD_ABS, epsrel=QUAD_ABS, limit=400,
    )
    second, _ = integrate.quad(
        lambda th: math.sqrt(_form(A, th)) / _form(B, th) ** 1.5,
        -math.pi / 2.0, math.pi / 2.0, epsabs=QUAD_ABS, epsrel=QUAD_ABS, limit=400,
    )
    return first, second

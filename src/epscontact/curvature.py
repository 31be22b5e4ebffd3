"""Levi-Civita connection on a left-invariant frame, curvature tensors,
the closed-form Ricci of the general 3D Lorentzian bracket (independent
oracle), and metric connections with totally skew-symmetric torsion.

A connection is its coefficient array gamma (..., n, n, n):
nabla_{e_i} e_j = sum_k gamma[i][j][k] e_k. The curvature is the array
R[i][j][k][l]: R(e_i,e_j)e_k = sum_l R[i][j][k][l] e_l.

Conventions: R(u,v)w = nabla_u nabla_v w - nabla_v nabla_u w - nabla_[u,v] w,
Ric(u,v) = Tr(w -> R(w,u)v), Scal = sum_i eta_i Ric[i][i]. The same trace
convention is applied to torsionful connections, whose Ricci is not
symmetrized.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .config import get_tol
from .errors import JacobiViolation
from .exterior import FrameMetric


@lru_cache(maxsize=None)
def _koszul_table(n: int, eta: tuple) -> tuple:
    """(idx2, sign2, idx3, sign3), integer arrays (n, n, n): entry [i, j, k]
    of the two permuted Koszul terms is c.flat[idx] * sign, at (j, k, i) with
    eta_i eta_k and at (k, i, j) with eta_j eta_k."""
    i, j, k = np.indices((n,) * 3)
    e = np.array(eta, dtype=int)
    return (j * n + k) * n + i, e[i] * e[k], (k * n + i) * n + j, e[j] * e[k]


def koszul_components(c: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Levi-Civita coefficients gamma (..., n, n, n) of stacked bracket tables
    c (..., n, n, n) from Koszul's formula,
    2 g(nabla_X Y, Z) = g([X,Y],Z) - g([Y,Z],X) + g([Z,X],Y)."""
    # gamma[i,j,k] = (c[i,j,k] - eta_i eta_k c[j,k,i] + eta_j eta_k c[k,i,j]) / 2; each
    # permuted term is a gather, + 0 turning -0.0 into +0.0 as a sum from +0.0 does
    n = c.shape[-1]
    idx2, sign2, idx3, sign3 = _koszul_table(n, tuple(eta.tolist()))
    flat = c.reshape(c.shape[:-3] + (n ** 3,))
    t2 = flat.take(idx2, axis=-1) * sign2 + 0
    t3 = flat.take(idx3, axis=-1) * sign3 + 0
    return 0.5 * (c - t2 + t3)


def riemann_components(gamma: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Riemann (..., n, n, n, n) of stacked frame connections gamma
    (..., n, n, n) with constant coefficients over bracket tables c."""
    # R[i,j,k,m] = gamma[j,k,l] gamma[i,l,m] - gamma[i,k,l] gamma[j,l,m] - c[i,j,l] gamma[l,k,m]
    r = np.einsum("...jkl,...ilm->...ijkm", gamma, gamma)
    r -= np.einsum("...ikl,...jlm->...ijkm", gamma, gamma)  # in place: one stack less alive
    r -= np.einsum("...ijl,...lkm->...ijkm", c, gamma)
    return r


def ricci_components(gamma: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Ricci (..., n, n) of stacked frame connections gamma over bracket
    tables c, without the Riemann stack: the three terms of R[i,j,k,m] are
    formed at m = i only, and subtracted in the order riemann_components
    uses, so the bits are those of its trace over i."""
    gd = np.einsum("...ili->...il", gamma)
    r = np.einsum("...jkl,...il->...ijk", gamma, gd)
    r -= np.einsum("...ikl,...jli->...ijk", gamma, gamma)
    r -= np.einsum("...ijl,...lki->...ijk", c, gamma)
    return np.einsum("...ijk->...jk", r)


def jacobi_constraints9(p9) -> np.ndarray:
    """The three Jacobi constraint expressions of the general 3D bracket."""
    a, b, c, d, f, h, g, j, k = (float(x) for x in p9)
    return np.array([
        b * d + k * d - f * a - h * g,
        j * a - g * b + k * f - h * j,
        a * k + h * b - g * c - f * c,
    ])


def check_jacobi(p9, tol: float) -> None:
    """JacobiViolation where a Jacobi constraint of the general 3D bracket
    p9 exceeds tol in absolute value."""
    cons = jacobi_constraints9(p9)
    if np.max(np.abs(cons)) > tol:
        raise JacobiViolation(f"Jacobi constraints violated: {cons.tolist()}")


def closed_form_ricci(p9, m: FrameMetric, tol: float | None = None) -> tuple:
    """Closed-form (ricci, scalar) curvature of the general 3D Lorentzian
    bracket [e0,e1]=a e0+b e1+c e2, [e1,e2]=d e0+f e1+h e2, [e0,e2]=g e0+j e1+k e2.

    Independent oracle for the Koszul -> Ricci pipeline; requires
    eta = (-1, +1, +1) and the Jacobi constraints.
    """
    if m.signs != (-1, 1, 1):
        raise ValueError("closed-form Ricci is stated for the frame metric (-1, +1, +1)")
    check_jacobi(p9, get_tol(tol))
    a, b, c, d, f, h, g, j, k = (float(x) for x in p9)
    ric = np.empty((3, 3))
    ric[0, 0] = a**2 - b**2 + g * f + g**2 - k**2 - a * h + d**2 / 2 - c * j - c**2 / 2 - j**2 / 2
    ric[0, 1] = b * h - f * j - f * c + d * g - h * k
    ric[0, 2] = h * c + h * j - f * k - d * a + f * b
    ric[1, 1] = -(a**2) + b**2 - f**2 - h**2 - f * g + b * k - j**2 / 2 + d * c + c**2 / 2 + d**2 / 2
    ric[1, 2] = f * a - a * g + b * j - b * d + c * k
    ric[2, 2] = -(g**2) + k**2 + a * h + k * b - f**2 - h**2 + j**2 / 2 - j * d + d**2 / 2 - c**2 / 2
    ric[1, 0], ric[2, 0], ric[2, 1] = ric[0, 1], ric[0, 2], ric[1, 2]
    scal = (
        -2 * a**2 + 2 * b**2 - 2 * g * f - 2 * g**2 + 2 * k**2 + 2 * a * h
        + d**2 / 2 + c * j + c**2 / 2 + j**2 / 2 - 2 * f**2 - 2 * h**2
        + 2 * b * k + d * c - j * d
    )
    return ric, float(scal)


def torsionful_connection(gamma: np.ndarray, h: np.ndarray, m: FrameMetric) -> np.ndarray:
    """Coefficients (..., n, n, n) of the metric connections with totally
    skew-symmetric torsion h, given as antisymmetric arrays (..., n, n, n) of
    three-forms, over the Levi-Civita coefficients gamma; the batch axes
    broadcast: nabla^h_u v = nabla_u v + (1/2) g^{-1} h(u, v, .)."""
    if h.shape[-3:] != (m.dim,) * 3:
        raise ValueError("torsion must be the (n, n, n) array of a three-form")
    return gamma + 0.5 * h * m.eta


def three_form_square(h: np.ndarray, m: FrameMetric) -> np.ndarray:
    """(h o h)(u,v) = sum_{k,l} eta_k eta_l h(u,e_k,e_l) h(v,e_k,e_l), (..., n, n),
    for stacked antisymmetric arrays h (..., n, n, n) of three-forms."""
    return np.einsum("...ukl,...vkl,k,l->...uv", h, h, m.eta, m.eta)

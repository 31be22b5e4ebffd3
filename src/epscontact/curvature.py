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
    """The three Jacobi constraint expressions (..., 3) of general 3D
    brackets p9 (..., 9), in Python float arithmetic's order and bits."""
    a, b, c, d, f, h, g, j, k = np.moveaxis(np.asarray(p9, dtype=float), -1, 0)
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats: inf and NaN silently
        return np.stack([
            b * d + k * d - f * a - h * g,
            j * a - g * b + k * f - h * j,
            a * k + h * b - g * c - f * c,
        ], axis=-1)


def check_jacobi(p9, tol: float) -> None:
    """JacobiViolation where a Jacobi constraint of a general 3D bracket in
    p9 (..., 9) exceeds tol in absolute value, naming the constraints of the
    first such bracket."""
    cons = jacobi_constraints9(p9)
    bad = np.abs(cons).max(axis=-1) > tol
    if bad.any():
        first = cons.reshape(-1, 3)[np.argmax(bad)]  # in C order over the batch axes
        raise JacobiViolation(f"Jacobi constraints violated: {first.tolist()}")


def closed_form_ricci(p9, m: FrameMetric, tol: float | None = None) -> tuple:
    """Closed-form (ricci (..., 3, 3), scalar (...)) curvature of general 3D
    Lorentzian brackets p9 (..., 9) of
    [e0,e1]=a e0+b e1+c e2, [e1,e2]=d e0+f e1+h e2, [e0,e2]=g e0+j e1+k e2;
    one bracket (9,) gives a (3, 3) array and a float.

    Independent oracle for the Koszul -> Ricci pipeline; requires
    eta = (-1, +1, +1) and the Jacobi constraints. Each sample's entries
    have the bits of Python float arithmetic in this order: x**2 is
    np.float_power(x, 2), libm's pow as Python's float ** calls it, not the
    x * x of an array's ** (they differ in the last bit on some doubles).
    """
    if m.signs != (-1, 1, 1):
        raise ValueError("closed-form Ricci is stated for the frame metric (-1, +1, +1)")
    p9 = np.asarray(p9, dtype=float)
    check_jacobi(p9, get_tol(tol))
    params = np.moveaxis(p9, -1, 0)
    a, b, c, d, f, h, g, j, k = params
    a2, b2, c2, d2, f2, h2, g2, j2, k2 = np.float_power(params, 2)
    ric = np.empty(p9.shape[:-1] + (3, 3))
    ric[..., 0, 0] = a2 - b2 + g * f + g2 - k2 - a * h + d2 / 2 - c * j - c2 / 2 - j2 / 2
    ric[..., 0, 1] = b * h - f * j - f * c + d * g - h * k
    ric[..., 0, 2] = h * c + h * j - f * k - d * a + f * b
    ric[..., 1, 1] = -a2 + b2 - f2 - h2 - f * g + b * k - j2 / 2 + d * c + c2 / 2 + d2 / 2
    ric[..., 1, 2] = f * a - a * g + b * j - b * d + c * k
    ric[..., 2, 2] = -g2 + k2 + a * h + k * b - f2 - h2 + j2 / 2 - j * d + d2 / 2 - c2 / 2
    ric[..., 1, 0], ric[..., 2, 0], ric[..., 2, 1] = (
        ric[..., 0, 1], ric[..., 0, 2], ric[..., 1, 2])
    scal = (
        -2 * a2 + 2 * b2 - 2 * g * f - 2 * g2 + 2 * k2 + 2 * a * h
        + d2 / 2 + c * j + c2 / 2 + j2 / 2 - 2 * f2 - 2 * h2
        + 2 * b * k + d * c - j * d
    )
    return ric, (float(scal) if p9.ndim == 1 else scal)


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

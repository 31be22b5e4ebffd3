"""Finite-difference residuals of the contact flow and constraint equations
on a spatial 2-surface.

A space-time splitting g = -beta^2 dt^2 + q_t turns the contact and
eta-Einstein conditions into evolution equations for (q, Theta, F, alpha_perp,
beta) on a 2D grid plus time-derivative-free constraints:

    r1:  d alpha_perp - F nu_q = 0
    r2:  |alpha_perp|^2_q - eps - F^2 = 0
    r3:  R^q - |Theta|^2_q + (Tr_q Theta)^2 + c - 2 kappa F^2 = 0,
         c = (5 lambda^2 + 3 kappa eps) / 2
    r4:  d Tr_q(Theta) + div_q(Theta) - kappa F alpha_perp = 0

and, for time sequences, the two flow equations

    e1:  *_q alpha_perp + (1/beta) d(beta F) - (1/beta) dt(alpha_perp) = 0
    e2:  Ric^q + Tr_q(Theta) Theta - 2 Theta(Id x W) - (1/beta)(dt Theta
         + Hess_q beta) - kappa alpha_perp (x) alpha_perp
         + (1/2)(lambda^2 + kappa eps) q = 0,   W = q^{-1} Theta.

All spatial derivatives are second-order central differences; the y axis
is periodic, and a non-periodic x axis uses one-sided second-order stencils
at its edges. Residual norms are discrete L-infinity.

The residuals are evaluated one strip of x rows at a time, so that the
component planes a strip allocates stay in cache and the memory they take
does not grow with nx. A strip reads two halo rows beyond its own on each
side (wrapped around on a periodic x axis), because the scalar curvature
takes second differences of q through the Christoffel symbols; at a
non-periodic edge there is no halo and the one-sided stencils run as on the
whole grid. Every node goes through the same floating-point operations as on
the whole grid, so the norms do not depend on the strip height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DegenerateParameters, SingularMetric


@dataclass(frozen=True)
class SurfaceGrid:
    nx: int
    ny: int
    hx: float
    hy: float
    periodic_x: bool = True

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ValueError("grid needs at least 4 nodes per axis")
        for name in ("hx", "hy"):
            h = getattr(self, name)
            if not (math.isfinite(h) and h > 0):
                raise ValueError(f"{name} must be positive and finite, got {h!r}")

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.nx)[:, None] * self.hx * np.ones((1, self.ny))

    @property
    def y(self) -> np.ndarray:
        return np.ones((self.nx, 1)) * np.arange(self.ny)[None, :] * self.hy


def _d1(f: np.ndarray, axis: int, h: float, periodic: bool, out=None) -> np.ndarray:
    """Second-order first derivative along one grid axis of f (into out if given)."""
    if out is None:
        out = np.empty_like(f)
    sl = [slice(None)] * f.ndim

    def at(idx):
        s = list(sl)
        s[axis] = idx
        return tuple(s)

    np.subtract(f[at(slice(2, None))], f[at(slice(0, -2))], out=out[at(slice(1, -1))])
    if periodic:
        out[at(0)] = f[at(1)] - f[at(-1)]
        out[at(-1)] = f[at(0)] - f[at(-2)]
    else:
        out[at(0)] = -3.0 * f[at(0)] + 4.0 * f[at(1)] - f[at(2)]
        out[at(-1)] = 3.0 * f[at(-1)] - 4.0 * f[at(-2)] + f[at(-3)]
    out /= 2.0 * h
    return out


# The geometry below works on component planes: a tensor field is a
# contiguous (2, ..., 2, nx, ny) array, so every contraction over a 2-valued
# index is an explicit sum of whole-grid plane products.


def _planes(a: np.ndarray) -> np.ndarray:
    """A field laid out (nx, ny, ...) as contiguous (..., nx, ny) planes."""
    return np.ascontiguousarray(np.moveaxis(a, (0, 1), (-2, -1)))


def _partial(f: np.ndarray, m: int, grid: SurfaceGrid, out=None) -> np.ndarray:
    """d_m f (m = 0: x, m = 1: y) of planes f (into out if given)."""
    if m == 0:
        return _d1(f, -2, grid.hx, grid.periodic_x, out)
    return _d1(f, -1, grid.hy, True, out)


def _partials(f: np.ndarray, grid: SurfaceGrid) -> np.ndarray:
    """(2, ...) stack of d_m f of planes f."""
    out = np.empty((2,) + f.shape)
    for m in range(2):
        _partial(f, m, grid, out[m])
    return out


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(ab)_ij = a_i0 b_0j + a_i1 b_1j of (2, 2, nx, ny) planes."""
    return a[:, 0, None] * b[None, 0] + a[:, 1, None] * b[None, 1]


def _pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_ij a_ij b_ij over the two leading 2-valued axes."""
    return a[0, 0] * b[0, 0] + a[0, 1] * b[0, 1] + a[1, 0] * b[1, 0] + a[1, 1] * b[1, 1]


def _quadratic(m: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_ij m_ij u_i u_j of (2, 2, nx, ny) and (2, nx, ny) planes."""
    return (m[0, 0] * u[0] * u[0] + m[0, 1] * u[0] * u[1]
            + m[1, 0] * u[1] * u[0] + m[1, 1] * u[1] * u[1])


@dataclass(frozen=True)
class SurfaceData:
    """One time slice of fields on the grid: q (nx,ny,2,2) positive definite,
    theta (nx,ny,2,2) symmetric, F (nx,ny), alpha (nx,ny,2), beta (nx,ny) > 0,
    all finite. Every field is read-only. A field given as a read-only float64
    ndarray that owns its memory is held as given, since nothing can write to
    it through another array; any other input is copied and frozen."""

    grid: SurfaceGrid
    q: np.ndarray
    theta: np.ndarray
    F: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        nx, ny = self.grid.nx, self.grid.ny
        shapes = {
            "q": (nx, ny, 2, 2),
            "theta": (nx, ny, 2, 2),
            "F": (nx, ny),
            "alpha": (nx, ny, 2),
            "beta": (nx, ny),
        }
        for name, shape in shapes.items():
            arr = getattr(self, name)
            if not (type(arr) is np.ndarray and arr.dtype == np.float64
                    and arr.base is None and not arr.flags.writeable):
                arr = np.array(arr, dtype=float)  # the caller may still write to it
                arr.flags.writeable = False
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite at every node")
            object.__setattr__(self, name, arr)
        det = self.det_q()
        if np.any(det <= 0.0) or np.any(self.q[..., 0, 0] <= 0.0):
            raise SingularMetric("q must be positive definite at every node")
        if np.any(self.beta <= 0.0):
            raise ValueError("beta must be positive")

    def det_q(self) -> np.ndarray:
        return self.q[..., 0, 0] * self.q[..., 1, 1] - self.q[..., 0, 1] * self.q[..., 1, 0]

    @cached_property
    def _metric(self) -> tuple:
        """(q, q^{-1}) as (2, 2, nx, ny) planes and det q, computed once."""
        q = _planes(self.q)
        det = self.det_q()
        inv = np.empty_like(q)
        inv[0, 0] = q[1, 1] / det
        inv[1, 1] = q[0, 0] / det
        inv[0, 1] = -q[0, 1] / det
        inv[1, 0] = -q[1, 0] / det
        for arr in (q, inv, det):
            arr.flags.writeable = False
        return q, inv, det


@dataclass(frozen=True)
class SurfaceSequence:
    """Uniformly spaced time slices on a shared grid."""

    slices: tuple
    dt: float

    def __post_init__(self):
        slices = tuple(self.slices)
        if len(slices) < 3:
            raise ValueError("a sequence needs at least three time slices")
        grid = slices[0].grid
        if any(s.grid != grid for s in slices):
            raise ValueError("all slices must share one grid")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        object.__setattr__(self, "slices", slices)

    @property
    def grid(self) -> SurfaceGrid:
        return self.slices[0].grid


def christoffel(d: SurfaceData) -> np.ndarray:
    """Gamma[..., k, i, j] of the surface metric, via central differences."""
    q, inv, _ = d._metric
    dq = _partials(q, d.grid)  # (m, i, j) = d_m q_ij
    # Gamma^k_ij = 1/2 q^{kl} (d_i q_lj + d_j q_li - d_l q_ij), term[i, j, l]
    term = (
        dq.transpose(0, 2, 1, 3, 4)
        + dq.transpose(2, 0, 1, 3, 4)
        - dq.transpose(1, 2, 0, 3, 4)
    )
    gamma = 0.5 * (inv[:, 0, None, None] * term[None, :, :, 0]
                   + inv[:, 1, None, None] * term[None, :, :, 1])
    return np.moveaxis(gamma, (0, 1, 2), (2, 3, 4))


def _geometry(d: SurfaceData) -> tuple:
    """q^{-1} (2, 2, nx, ny), sqrt(det q) (nx, ny) and Gamma^k_ij as
    (2, 2, 2, nx, ny) planes: everything a slice's residuals derive from q."""
    _, inv, det = d._metric
    gamma = np.moveaxis(christoffel(d), (2, 3, 4), (0, 1, 2))
    return inv, np.sqrt(det), gamma


def _scalar_curvature(inv: np.ndarray, gamma: np.ndarray, grid: SurfaceGrid) -> np.ndarray:
    """R = q^{kj} Ric_kj with
    Ric_kj = sum_l [d_l G^l_jk - d_j G^l_lk + sum_m (G^l_lm G^m_jk - G^l_jm G^m_lk)],
    contracted directly from the Christoffel planes gamma[k, i, j]."""
    d_gamma = (_partial(gamma[0], 0, grid), _partial(gamma[1], 1, grid))  # d_l G^l_jk
    d_trace = (_partials(gamma[0, 0], grid), _partials(gamma[1, 1], grid))  # d_j G^l_lk
    terms = [
        d_gamma[l] - d_trace[l]
        + (gamma[l, l, 0] * gamma[0] + gamma[l, l, 1] * gamma[1])
        - (gamma[l, :, 0, None] * gamma[0, l][None] + gamma[l, :, 1, None] * gamma[1, l][None])
        for l in range(2)
    ]  # [j, k]
    ric = (terms[0] + terms[1]).swapaxes(0, 1)
    return _pair(inv, ric)


def scalar_curvature(d: SurfaceData) -> np.ndarray:
    """R^q at every node (2 x Gauss curvature)."""
    inv, _, gamma = _geometry(d)
    return _scalar_curvature(inv, gamma, d.grid)


@dataclass(frozen=True)
class ConstraintResiduals:
    curl: float        # r1: d alpha - F nu_q
    norm: float        # r2: |alpha|^2 - eps - F^2
    hamiltonian: float  # r3: R - |Theta|^2 + (Tr Theta)^2 + c - 2 kappa F^2
    momentum: float    # r4: d Tr Theta + div Theta - kappa F alpha

    def as_dict(self) -> dict:
        return {
            "curl": self.curl,
            "norm": self.norm,
            "hamiltonian": self.hamiltonian,
            "momentum": self.momentum,
        }

    def max_residual(self) -> float:
        """The worst size of a residual; NaN or inf when one is not finite."""
        return float(np.max(np.abs([self.curl, self.norm, self.hamiltonian, self.momentum])))


def _max_abs(r: np.ndarray) -> float:
    return float(np.max(np.abs(r)))


# Nodes per component plane of a strip (128 KiB of floats): few enough that
# the planes a strip allocates stay in cache, enough that numpy's per-call
# overhead stays small.
_STRIP_NODES = 1 << 14
# Rows a strip reads beyond its own on each side: R^q takes second
# differences of q through the Christoffel symbols.
_HALO = 2


def _strips(grid: SurfaceGrid):
    """(rows, strip grid, own rows) per strip of x rows: the rows of the grid
    the strip reads (a slice, or wrapped indices on a periodic x axis), the
    grid of those rows, and the part of them whose residuals the strip owns.
    A grid that fits in one strip is one strip, with strip grid None."""
    nx = grid.nx
    height = max(1, _STRIP_NODES // grid.ny)
    if height >= nx:
        yield slice(None), None, slice(None)
        return
    for a in range(0, nx, height):
        b = min(a + height, nx)
        lo, hi = a - _HALO, b + _HALO
        if grid.periodic_x:
            rows = slice(lo, hi) if 0 <= lo and hi <= nx else np.arange(lo, hi) % nx
        else:
            # no halo past an edge; the one-sided stencils there reach two rows
            # in, so an edge row's curvature reads rows 0..3 from that edge
            lo, hi = max(lo, 0), min(hi, nx)
            if lo == 0:
                hi = max(hi, 4)
            if hi == nx:
                lo = min(lo, nx - 4)
            rows = slice(lo, hi)
        yield rows, replace(grid, nx=hi - lo, periodic_x=False), slice(a - lo, b - lo)


def _strip(d: SurfaceData, rows, grid) -> SurfaceData:
    """The fields of validated data d on the given x rows, on grid, without
    validating them again; d itself when grid is None."""
    if grid is None:
        return d
    view = object.__new__(SurfaceData)
    object.__setattr__(view, "grid", grid)
    for name in ("q", "theta", "F", "alpha", "beta"):
        object.__setattr__(view, name, getattr(d, name)[rows])
    return view


def _worst(fields, slices: Sequence[SurfaceData], *args) -> np.ndarray:
    """Max |r| of each residual field that fields(*slices, *args) returns,
    taken per strip of the slices' rows and then over the strips, so that a
    NaN propagates."""
    return np.max([
        [_max_abs(r[..., own, :]) for r in fields(*(_strip(s, rows, grid) for s in slices), *args)]
        for rows, grid, own in _strips(slices[0].grid)
    ], axis=0)


def _constraint_fields(d: SurfaceData, eps: int, lambda2: float, kappa: float) -> tuple:
    """The constraint residuals r1..r4 of d at every node, as planes."""
    grid = d.grid
    inv, vol, gamma = _geometry(d)
    theta, alpha = _planes(d.theta), _planes(d.alpha)
    # r1
    r1 = _partial(alpha[1], 0, grid) - _partial(alpha[0], 1, grid) - d.F * vol
    # r2
    r2 = _quadratic(inv, alpha) - eps - d.F**2
    # r3
    tr_theta = _pair(inv, theta)
    inv_t = inv.swapaxes(0, 1)
    theta2 = _pair(_matmul(inv_t, theta), _matmul(theta, inv_t))  # q^{ik} q^{jl} T_ij T_kl
    c_const = 0.5 * (5.0 * lambda2 + 3.0 * kappa * eps)
    r3 = (_scalar_curvature(inv, gamma, grid) - theta2 + tr_theta**2 + c_const
          - 2.0 * kappa * d.F**2)
    # r4: (nabla_m Theta)_ij = d_m Theta_ij - G^k_mi Theta_kj - G^k_mj Theta_ik
    cov = (
        _partials(theta, grid)
        - (gamma[0][:, :, None] * theta[0][None, None]
           + gamma[1][:, :, None] * theta[1][None, None])
        - (gamma[0][:, None] * theta[:, 0][None, :, None]
           + gamma[1][:, None] * theta[:, 1][None, :, None])
    )  # [m, i, j]
    r4 = _partials(tr_theta, grid) + _pair(inv, cov) - kappa * d.F * alpha
    return r1, r2, r3, r4


def constraint_residuals(
    d: SurfaceData, eps: int, lambda2: float, kappa: float
) -> ConstraintResiduals:
    """Discrete L-infinity norms of the four constraint expressions."""
    worst = _worst(_constraint_fields, (d,), eps, lambda2, kappa)
    return ConstraintResiduals(*map(float, worst))


@dataclass(frozen=True)
class EvolutionResiduals:
    alpha_flow: float
    ricci_flow: float

    def as_dict(self) -> dict:
        return {"alpha_flow": self.alpha_flow, "ricci_flow": self.ricci_flow}

    def max_residual(self) -> float:
        """The worst size of a residual; NaN or inf when one is not finite."""
        return float(np.max(np.abs([self.alpha_flow, self.ricci_flow])))


def _flow_fields(prev_s: SurfaceData, d: SurfaceData, next_s: SurfaceData, dt: float,
                 eps: int, lambda2: float, kappa: float) -> tuple:
    """The flow residuals e1, e2 of slice d at every node, as planes, with
    central time differences between its neighbours prev_s and next_s."""
    grid = d.grid
    inv, vol, gamma = _geometry(d)
    q, theta, alpha = d._metric[0], _planes(d.theta), _planes(d.alpha)
    dt_alpha = _planes(next_s.alpha - prev_s.alpha) / (2.0 * dt)
    dt_theta = _planes(next_s.theta - prev_s.theta) / (2.0 * dt)
    # e1; (*alpha)_i = sqrt(det q) eps_ij q^{jk} alpha_k
    raised = inv[:, 0] * alpha[0] + inv[:, 1] * alpha[1]
    star = np.stack([-vol * raised[1], vol * raised[0]])
    e1 = star + _partials(d.beta * d.F, grid) / d.beta - dt_alpha / d.beta
    # e2
    grad_beta = _partials(d.beta, grid)
    hess_beta = _partials(grad_beta, grid) - (gamma[0] * grad_beta[0]
                                              + gamma[1] * grad_beta[1])
    theta_w = _matmul(theta, _matmul(inv, theta))
    e2 = (
        0.5 * _scalar_curvature(inv, gamma, grid) * q  # Ric^q = (R/2) q in two dimensions
        + _pair(inv, theta) * theta
        - 2.0 * theta_w
        - (dt_theta + hess_beta) / d.beta
        - kappa * (alpha[:, None] * alpha[None])
        + 0.5 * (lambda2 + kappa * eps) * q
    )
    return e1, e2


def evolution_residuals(
    seq: SurfaceSequence, eps: int, lambda2: float, kappa: float
) -> EvolutionResiduals:
    """Residuals of the two flow equations on the interior time slices,
    with central time differences."""
    worst = np.max([
        _worst(_flow_fields, seq.slices[t - 1:t + 2], seq.dt, eps, lambda2, kappa)
        for t in range(1, len(seq.slices) - 1)
    ], axis=0)
    return EvolutionResiduals(*map(float, worst))


# --- closed-form example data ---------------------------------------------------


def _frozen(a: np.ndarray) -> np.ndarray:
    """a made read-only, so that SurfaceData holds it without a copy."""
    a.flags.writeable = False
    return a


def example_flat_paracontact(
    grid: SurfaceGrid, t_values: Sequence[float], l1: float, l2: float
) -> SurfaceSequence:
    """Spatially constant space-like solution on a flat torus:
    q = (l1^2 + l2^2) Id, F = 0, beta = 1, Theta = 0, with the alpha
    components rotating in time; eps = +1, lambda = kappa = 0."""
    if l1 * l1 + l2 * l2 == 0.0:
        raise DegenerateParameters("l1^2 + l2^2 must be nonzero")
    t_values = [float(t) for t in t_values]
    if len(t_values) < 3:
        raise ValueError("need at least three time samples")
    dts = np.diff(t_values)
    if np.max(np.abs(dts - dts[0])) > 1e-12 * max(1.0, abs(dts[0])):
        raise ValueError("time samples must be uniformly spaced")
    nx, ny = grid.nx, grid.ny
    e2u = l1 * l1 + l2 * l2
    slices = []
    for t in t_values:
        alpha = np.zeros((nx, ny, 2))
        alpha[..., 0] = l2 * math.cos(t) - l1 * math.sin(t)
        alpha[..., 1] = l1 * math.cos(t) + l2 * math.sin(t)
        q = np.zeros((nx, ny, 2, 2))
        q[..., 0, 0] = e2u
        q[..., 1, 1] = e2u
        slices.append(
            SurfaceData(
                grid=grid,
                q=_frozen(q),
                theta=_frozen(np.zeros((nx, ny, 2, 2))),
                F=_frozen(np.zeros((nx, ny))),
                alpha=_frozen(alpha),
                beta=_frozen(np.ones((nx, ny))),
            )
        )
    return SurfaceSequence(tuple(slices), float(dts[0]))


def example_null_isothermal(grid: SurfaceGrid, f0: float) -> SurfaceData:
    """Static null-case constraint data in isothermal form: for f0 != 0,
    q = f0^2 Id, alpha = (0, e^{f0 x}), F = e^{f0 x}/f0 (so the norm
    constraint holds exactly and the curl constraint holds analytically);
    f0 = 0 degenerates to q = Id, alpha = (0, 1), F = 0 with the curl
    constraint exact. Use a non-periodic x axis for f0 != 0."""
    nx, ny = grid.nx, grid.ny
    if f0 == 0.0:
        q_factor, alpha_y, f_field = 1.0, 1.0, 0.0
    else:
        # e^{f0 x} once per row, broadcast along y: x is the column of grid.x
        # (whose factor of ones is exact), so each node gets the same exp
        q_factor = f0 * f0
        alpha_y = np.exp(f0 * (np.arange(nx)[:, None] * grid.hx))
        f_field = alpha_y / f0
    q = np.zeros((nx, ny, 2, 2))
    q[..., 0, 0] = q_factor
    q[..., 1, 1] = q_factor
    alpha = np.zeros((nx, ny, 2))
    alpha[..., 1] = alpha_y
    return SurfaceData(
        grid=grid,
        q=_frozen(q),
        theta=_frozen(np.zeros((nx, ny, 2, 2))),
        F=_frozen(np.full((nx, ny), f_field)),
        alpha=_frozen(alpha),
        beta=_frozen(np.ones((nx, ny))),
    )


def isothermal_grid(nx: int, ny: int) -> SurfaceGrid:
    """Grid for the isothermal example: the unit square, non-periodic in x."""
    return SurfaceGrid(nx, ny, 1.0 / nx, 1.0 / ny, periodic_x=False)

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
component planes a strip computes stay in cache and the memory they take
does not grow with nx. A strip reads two halo rows beyond its own on each
side (wrapped around on a periodic x axis), because the scalar curvature
takes second differences of q through the Christoffel symbols; at a
non-periodic edge there is no halo and the one-sided stencils run as on the
whole grid. Every node goes through the same floating-point operations as on
the whole grid, so the norms do not depend on the strip height.

Each pass computes into one workspace: a buffer of component planes sized
once for the pass's tallest strip and reused by each of its strips (and, for
the flow equations, by each time slice). A strip copies its rows of the
fields there, reads nothing else, and writes every intermediate plane there
through out= arguments and in-place operations: a pass allocates once.
When each strip allocated its own, the allocator handed them back to the
operating system after the strip and the next strip faulted them in again:
some 34,000 minor page faults for one 512^2 pass on Linux, against under
1,000 with the workspace.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
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

    # along the last axis of a C-contiguous stack: one subtraction over the
    # flattened stack, which numpy runs unbuffered; the differences it takes
    # across row ends land on the edge entries the stencils below overwrite.
    # Where a difference overflows or is invalid, the strided form repeats the
    # interior, warning as it always did
    flat = axis % f.ndim == f.ndim - 1 and f.flags.c_contiguous and out.flags.c_contiguous
    if flat:
        try:
            with np.errstate(over="raise", invalid="raise"):
                np.subtract(f.reshape(-1)[2:], f.reshape(-1)[:-2], out=out.reshape(-1)[1:-1])
        except FloatingPointError:
            flat = False
    if not flat:
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
# contiguous (2, ..., 2, rows, ny) array, so every contraction over a 2-valued
# index is an explicit sum of plane products. A helper writes its result into
# out, or into planes it takes from the workspace ws.


def _partial(f: np.ndarray, m: int, grid: SurfaceGrid, out=None) -> np.ndarray:
    """d_m f (m = 0: x, m = 1: y) of planes f (into out if given)."""
    if m == 0:
        return _d1(f, -2, grid.hx, grid.periodic_x, out)
    return _d1(f, -1, grid.hy, True, out)


def _partials(f: np.ndarray, ws: _Workspace, out=None) -> np.ndarray:
    """(2, ...) stack of d_m f of planes f."""
    if out is None:
        out = ws.take(2, *f.shape[:-2])
    for m in range(2):
        _partial(f, m, ws.grid, out[m])
    return out


def _matmul(a: np.ndarray, b: np.ndarray, ws: _Workspace, out=None) -> np.ndarray:
    """(ab)_ij = a_i0 b_0j + a_i1 b_1j of (2, 2, rows, ny) planes."""
    if out is None:
        out = ws.take(2, 2)
    with ws.scratch():
        np.multiply(a[:, 0, None], b[None, 0], out=out)
        out += np.multiply(a[:, 1, None], b[None, 1], out=ws.take(2, 2))
    return out


def _pair(a: np.ndarray, b: np.ndarray, ws: _Workspace, out=None) -> np.ndarray:
    """sum_ij a_ij b_ij over the two leading 2-valued axes."""
    lead = np.broadcast_shapes(a.shape[2:], b.shape[2:])[:-2]
    if out is None:
        out = ws.take(*lead)
    with ws.scratch():
        term = ws.take(*lead)
        np.multiply(a[0, 0], b[0, 0], out=out)
        for i, j in ((0, 1), (1, 0), (1, 1)):
            out += np.multiply(a[i, j], b[i, j], out=term)
    return out


def _quadratic(m: np.ndarray, u: np.ndarray, ws: _Workspace, out=None) -> np.ndarray:
    """sum_ij m_ij u_i u_j of (2, 2, rows, ny) and (2, rows, ny) planes."""
    if out is None:
        out = ws.take()
    with ws.scratch():
        term = ws.take()
        np.multiply(m[0, 0], u[0], out=out)
        out *= u[0]
        for i, j in ((0, 1), (1, 0), (1, 1)):
            np.multiply(m[i, j], u[i], out=term)
            term *= u[j]
            out += term
    return out


def _held(arr) -> bool:
    """Whether arr is a read-only float64 ndarray over read-only arrays only:
    every array along its .base chain is read-only, down to one that owns
    its memory, so nothing can write to arr through another array."""
    if not (type(arr) is np.ndarray and arr.dtype == np.float64):
        return False
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return arr is None


def _compact(arr: np.ndarray) -> np.ndarray:
    """arr with every zero-stride grid axis cut to length 1: a view of the
    same entries, each once, so that a check of a field broadcast along a
    grid axis costs what the field holds."""
    return arr[tuple(slice(0, 1) if s == 0 else slice(None) for s in arr.strides[:2])]


@dataclass(frozen=True)
class SurfaceData:
    """One time slice of fields on the grid: q (nx,ny,2,2) symmetric positive
    definite, theta (nx,ny,2,2) symmetric (both exactly, q_01 == q_10 at every
    node), F (nx,ny), alpha (nx,ny,2), beta (nx,ny) > 0, all finite. Every
    field is read-only. A field given as a read-only float64 ndarray whose
    .base chain holds only read-only arrays (one that owns its memory, or a
    frozen np.broadcast_to view of a frozen array) is held as given, zero
    strides included, since nothing can write to it through another array;
    any other input is copied and frozen. The checks read each distinct
    entry of a field once: a field broadcast along a grid axis is checked
    at one node of that axis."""

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
            if not _held(arr):
                arr = np.array(arr, dtype=float)  # the caller may still write to it
                arr.flags.writeable = False
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(_compact(arr))):
                raise ValueError(f"{name} must be finite at every node")
            object.__setattr__(self, name, arr)
        for name in ("q", "theta"):
            arr = _compact(getattr(self, name))
            if not np.array_equal(arr[..., 0, 1], arr[..., 1, 0]):
                raise ValueError(f"{name} must be symmetric at every node")
        q = _compact(self.q)
        det = q[..., 0, 0] * q[..., 1, 1] - q[..., 0, 1] * q[..., 1, 0]
        if np.any(det <= 0.0) or np.any(q[..., 0, 0] <= 0.0):
            raise SingularMetric("q must be positive definite at every node")
        if np.any(_compact(self.beta) <= 0.0):
            raise ValueError("beta must be positive")


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


def christoffel(ws: _Workspace) -> np.ndarray:
    """Gamma^k_ij of the strip loaded in ws, via central differences, as
    (2, 2, 2, rows, ny) planes gamma[k, i, j] there."""
    q, inv = ws.q, ws.inv
    gamma = ws.take(2, 2, 2)
    with ws.scratch():
        dq = _partials(q, ws)  # (m, i, j) = d_m q_ij
        # Gamma^k_ij = 1/2 q^{kl} (d_i q_lj + d_j q_li - d_l q_ij), term[i, j, l]
        term = np.add(dq.transpose(0, 2, 1, 3, 4), dq.transpose(2, 0, 1, 3, 4),
                      out=ws.take(2, 2, 2))
        for l in range(2):  # one plane pair at a time: a transposed dq is buffered
            np.subtract(term[:, :, l], dq[l], out=term[:, :, l])
        np.multiply(inv[:, 0, None, None], term[None, :, :, 0], out=gamma)
        gamma += np.multiply(inv[:, 1, None, None], term[None, :, :, 1], out=dq)
        gamma *= 0.5
    return gamma


def _scalar_curvature(inv: np.ndarray, gamma: np.ndarray, ws: _Workspace,
                      out=None) -> np.ndarray:
    """R = q^{kj} Ric_kj with
    Ric_kj = sum_l [d_l G^l_jk - d_j G^l_lk + sum_m (G^l_lm G^m_jk - G^l_jm G^m_lk)],
    contracted directly from the Christoffel planes gamma[k, i, j]."""
    if out is None:
        out = ws.take()
    with ws.scratch():
        terms, s, u = ws.take(2, 2, 2), ws.take(2, 2), ws.take(2, 2)  # terms[l, j, k]
        for l, term in enumerate(terms):
            _partial(gamma[l], l, ws.grid, term)  # d_l G^l_jk
            term -= _partials(gamma[l, l], ws, s)  # d_j G^l_lk
            np.multiply(gamma[l, l, 0], gamma[0], out=s)
            s += np.multiply(gamma[l, l, 1], gamma[1], out=u)
            term += s
            np.multiply(gamma[l, :, 0, None], gamma[0, l][None], out=s)
            s += np.multiply(gamma[l, :, 1, None], gamma[1, l][None], out=u)
            term -= s
        terms[0] += terms[1]
        _pair(inv, terms[0].swapaxes(0, 1), ws, out)
    return out


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
    """max |r|, with |r| taken in place."""
    return float(np.max(np.abs(r, out=r)))


# Nodes per component plane of a strip (128 KiB of floats): few enough that
# the planes a strip computes stay in cache, enough that numpy's per-call
# overhead stays small.
_STRIP_NODES = 1 << 14
# Rows a strip reads beyond its own on each side: R^q takes second
# differences of q through the Christoffel symbols.
_HALO = 2
# Planes a strip body holds at its deepest: the momentum constraint r4.
_PLANES = 50


def _strips(grid: SurfaceGrid):
    """(rows, strip grid, own rows) per strip of x rows: the rows of the grid
    the strip reads, as slices in order (more than one where they wrap around
    a periodic x axis), the grid of those rows, and the part of them whose
    residuals the strip owns. A grid that fits in one strip is one strip,
    with the grid itself as its strip grid."""
    nx = grid.nx
    height = max(1, _STRIP_NODES // grid.ny)
    if height >= nx:
        yield (slice(None),), grid, slice(None)
        return
    for a in range(0, nx, height):
        b = min(a + height, nx)
        lo, hi = a - _HALO, b + _HALO
        if grid.periodic_x:
            # the rows lo..hi-1 taken modulo nx: one run per turn k around the axis
            rows = tuple(slice(max(lo, k) - k, min(hi, k + nx) - k)
                         for k in range(lo - lo % nx, hi, nx))
        else:
            # no halo past an edge; the one-sided stencils there reach two rows
            # in, so an edge row's curvature reads rows 0..3 from that edge
            lo, hi = max(lo, 0), min(hi, nx)
            if lo == 0:
                hi = max(hi, 4)
            if hi == nx:
                lo = min(lo, nx - 4)
            rows = (slice(lo, hi),)
        yield rows, replace(grid, nx=hi - lo, periodic_x=False), slice(a - lo, b - lo)


def _tallest(grid: SurfaceGrid) -> int:
    """Rows of the tallest strip of grid."""
    return max(g.nx for _, g, _ in _strips(grid))


_FIELDS = ("q", "theta", "F", "alpha", "beta")


class _Workspace:
    """The component planes of one residual pass: one buffer of _PLANES
    planes of rows x ny nodes, reused by each strip of the pass.

    start() begins a strip: it empties the stack of planes and loads the
    strip's rows of a slice and its metric. A strip body reads only these
    planes and takes every plane it computes with take(), in the same order
    on each strip; the temporaries of a step are taken inside scratch(), which
    hands them back when the step ends."""

    def __init__(self, rows: int, ny: int):
        self._buf = np.empty(_PLANES * rows * ny)
        self._top = 0

    def start(self, d: SurfaceData, rows: tuple, grid: SurfaceGrid) -> None:
        """Begins the strip of d on rows (slices of d's x rows) with grid.
        Loads the planes of d's fields as the attributes of their names,
        q^{-1} as inv and sqrt(det q) as vol."""
        self.grid, self._rows, self._top = grid, rows, 0
        self.q, self.theta, self.F, self.alpha, self.beta = (
            self.load(getattr(d, name)) for name in _FIELDS)
        q, inv, det = self.q, self.take(2, 2), self.take()
        np.multiply(q[0, 0], q[1, 1], out=det)
        det -= np.multiply(q[0, 1], q[1, 0], out=inv[0, 0])
        np.divide(q[1, 1], det, out=inv[0, 0])
        np.divide(q[0, 0], det, out=inv[1, 1])
        np.divide(np.negative(q[0, 1], out=inv[0, 1]), det, out=inv[0, 1])
        np.divide(np.negative(q[1, 0], out=inv[1, 0]), det, out=inv[1, 0])
        self.inv, self.vol = inv, np.sqrt(det, out=det)

    def load(self, field: np.ndarray, out=None) -> np.ndarray:
        """The strip's rows of a (nx, ny, ...) field as contiguous
        (..., rows, ny) planes (into out if given)."""
        if out is None:
            out = self.take(*field.shape[2:])
        at = 0
        for rows in self._rows:
            part = np.moveaxis(field[rows], (0, 1), (-2, -1))
            out[..., at:at + part.shape[-2], :] = part
            at += part.shape[-2]
        return out

    def take(self, *lead: int) -> np.ndarray:
        """(*lead, rows, ny) planes from the top of the stack."""
        shape = lead + (self.grid.nx, self.grid.ny)
        end = self._top + math.prod(shape)
        if end > self._buf.size:
            raise RuntimeError(f"a strip needs more than {_PLANES} planes")
        out = self._buf[self._top:end].reshape(shape)
        self._top = end
        return out

    @contextmanager
    def scratch(self):
        """Hands back on exit the planes taken inside."""
        top = self._top
        try:
            yield
        finally:
            self._top = top


def _worst(fields, ws: _Workspace, d: SurfaceData, *args) -> np.ndarray:
    """Max |r| of each residual field that fields(ws, *args) returns, with
    each strip of d loaded in ws: taken per strip over the rows it owns and
    then over the strips, so that a NaN propagates."""
    worst = []
    for rows, grid, own in _strips(d.grid):
        ws.start(d, rows, grid)
        worst.append([_max_abs(r[..., own, :]) for r in fields(ws, *args)])
    return np.max(worst, axis=0)


def _constraint_fields(ws: _Workspace, eps: int, lambda2: float, kappa: float) -> tuple:
    """The constraint residuals r1..r4 of the strip loaded in ws, as planes."""
    grid = ws.grid
    inv, vol, gamma = ws.inv, ws.vol, christoffel(ws)
    theta, alpha, F = ws.theta, ws.alpha, ws.F
    r1, r2, r3, tr_theta, r4 = ws.take(), ws.take(), ws.take(), ws.take(), ws.take(2)
    with ws.scratch():
        tmp = ws.take()
        # r1
        _partial(alpha[1], 0, grid, r1)
        r1 -= _partial(alpha[0], 1, grid, tmp)
        r1 -= np.multiply(F, vol, out=tmp)
        # r2
        _quadratic(inv, alpha, ws, r2)
        r2 -= eps
        r2 -= np.square(F, out=tmp)
        # r3
        _pair(inv, theta, ws, tr_theta)
        _scalar_curvature(inv, gamma, ws, r3)
        inv_t = inv.swapaxes(0, 1)
        with ws.scratch():  # q^{ik} q^{jl} T_ij T_kl
            r3 -= _pair(_matmul(inv_t, theta, ws), _matmul(theta, inv_t, ws), ws)
        r3 += np.square(tr_theta, out=tmp)
        r3 += 0.5 * (5.0 * lambda2 + 3.0 * kappa * eps)
        r3 -= np.multiply(2.0 * kappa, np.square(F, out=tmp), out=tmp)
        # r4: (nabla_m Theta)_ij = d_m Theta_ij - G^k_mi Theta_kj - G^k_mj Theta_ik
        with ws.scratch():
            cov = _partials(theta, ws)  # [m, i, j]
            s, u = ws.take(2, 2), ws.take(2, 2)
            for m in range(2):
                np.multiply(gamma[0, m][:, None], theta[0][None], out=s)
                s += np.multiply(gamma[1, m][:, None], theta[1][None], out=u)
                cov[m] -= s
                np.multiply(gamma[0, m][None], theta[:, 0][:, None], out=s)
                s += np.multiply(gamma[1, m][None], theta[:, 1][:, None], out=u)
                cov[m] -= s
            _partials(tr_theta, ws, r4)
            r4 += _pair(inv, cov, ws, s[0])
            r4 -= np.multiply(np.multiply(kappa, F, out=tmp), alpha, out=s[0])
    return r1, r2, r3, r4


def constraint_residuals(
    d: SurfaceData, eps: int, lambda2: float, kappa: float
) -> ConstraintResiduals:
    """Discrete L-infinity norms of the four constraint expressions."""
    ws = _Workspace(_tallest(d.grid), d.grid.ny)
    worst = _worst(_constraint_fields, ws, d, eps, lambda2, kappa)
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


def _flow_fields(ws: _Workspace, prev_s: SurfaceData, next_s: SurfaceData,
                 dt: float, eps: int, lambda2: float, kappa: float) -> tuple:
    """The flow residuals e1, e2 of the strip loaded in ws, as planes, with
    central time differences between the same rows of its slice's
    neighbours prev_s and next_s."""
    inv, vol, gamma = ws.inv, ws.vol, christoffel(ws)
    q, theta, alpha, F, beta = ws.q, ws.theta, ws.alpha, ws.F, ws.beta
    e1, e2 = ws.take(2), ws.take(2, 2)
    # e1; (*alpha)_i = sqrt(det q) eps_ij q^{jk} alpha_k
    with ws.scratch():
        s, u = ws.take(2), ws.take(2)
        np.multiply(inv[:, 0], alpha[0], out=s)
        s += np.multiply(inv[:, 1], alpha[1], out=u)  # raised
        np.multiply(np.negative(vol, out=u[0]), s[1], out=e1[0])
        np.multiply(vol, s[0], out=e1[1])
        _partials(np.multiply(beta, F, out=u[0]), ws, s)
        s /= beta
        e1 += s
        ws.load(next_s.alpha, s)
        s -= ws.load(prev_s.alpha, u)
        s /= 2.0 * dt  # dt alpha
        s /= beta
        e1 -= s
    # e2; Ric^q = (R/2) q in two dimensions
    with ws.scratch():
        r = _scalar_curvature(inv, gamma, ws)
        np.multiply(np.multiply(0.5, r, out=r), q, out=e2)
    with ws.scratch():
        s, u = ws.take(2, 2), ws.take(2, 2)
        e2 += np.multiply(_pair(inv, theta, ws, u[0, 0]), theta, out=s)
        e2 -= np.multiply(2.0, _matmul(theta, _matmul(inv, theta, ws, u), ws), out=s)
    with ws.scratch():
        s, u = ws.take(2, 2), ws.take(2, 2)
        grad_beta = _partials(beta, ws)
        hess_beta = _partials(grad_beta, ws)
        np.multiply(gamma[0], grad_beta[0], out=s)
        s += np.multiply(gamma[1], grad_beta[1], out=u)
        hess_beta -= s
        ws.load(next_s.theta, s)
        s -= ws.load(prev_s.theta, u)
        s /= 2.0 * dt  # dt Theta
        s += hess_beta
        s /= beta
        e2 -= s
        e2 -= np.multiply(kappa, np.multiply(alpha[:, None], alpha[None], out=s), out=s)
        e2 += np.multiply(0.5 * (lambda2 + kappa * eps), q, out=s)
    return e1, e2


def evolution_residuals(
    seq: SurfaceSequence, eps: int, lambda2: float, kappa: float
) -> EvolutionResiduals:
    """Residuals of the two flow equations on the interior time slices,
    with central time differences."""
    ws = _Workspace(_tallest(seq.grid), seq.grid.ny)  # one for every slice
    slices = seq.slices
    worst = np.max([
        _worst(_flow_fields, ws, slices[t], slices[t - 1], slices[t + 1], seq.dt,
               eps, lambda2, kappa)
        for t in range(1, len(slices) - 1)
    ], axis=0)
    return EvolutionResiduals(*map(float, worst))


# --- closed-form example data ---------------------------------------------------


def _broadcast(a, shape: tuple) -> np.ndarray:
    """a (made read-only if it is a float64 array) broadcast to shape as a
    read-only view, which SurfaceData holds without a copy: a field at the
    size of its information."""
    a = np.asarray(a, dtype=float)
    a.flags.writeable = False
    return np.broadcast_to(a, shape)


def example_flat_paracontact(
    grid: SurfaceGrid, t_values: Sequence[float], l1: float, l2: float
) -> SurfaceSequence:
    """Spatially constant space-like solution on a flat torus:
    q = (l1^2 + l2^2) Id, F = 0, beta = 1, Theta = 0, with the alpha
    components rotating in time; eps = +1, lambda = kappa = 0.

    Every field is a broadcast view of its value at one node: the slices
    share one q, Theta, F and beta, and each holds its two alpha components."""
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
    q = _broadcast([[e2u, 0.0], [0.0, e2u]], (nx, ny, 2, 2))
    theta = _broadcast(0.0, (nx, ny, 2, 2))
    F = _broadcast(0.0, (nx, ny))
    beta = _broadcast(1.0, (nx, ny))
    slices = []
    for t in t_values:
        alpha = [l2 * math.cos(t) - l1 * math.sin(t), l1 * math.cos(t) + l2 * math.sin(t)]
        slices.append(SurfaceData(grid, q, theta, F, _broadcast(alpha, (nx, ny, 2)), beta))
    return SurfaceSequence(tuple(slices), float(dts[0]))


def example_null_isothermal(grid: SurfaceGrid, f0: float) -> SurfaceData:
    """Static null-case constraint data in isothermal form: for f0 != 0,
    q = f0^2 Id, alpha = (0, e^{f0 x}), F = e^{f0 x}/f0 (so the norm
    constraint holds exactly and the curl constraint holds analytically);
    f0 = 0 degenerates to q = Id, alpha = (0, 1), F = 0 with the curl
    constraint exact. Use a non-periodic x axis for f0 != 0.

    q, Theta and beta are broadcast views of their value at one node, and F
    and alpha of their profiles along x: each field holds what it varies in."""
    nx, ny = grid.nx, grid.ny
    if f0 == 0.0:
        q_factor, alpha_y, f_field = 1.0, np.ones((1, 1)), np.zeros((1, 1))
    else:
        # e^{f0 x} once per row, broadcast along y: x is the column of grid.x
        # (whose factor of ones is exact), so each node gets the same exp
        q_factor = f0 * f0
        alpha_y = np.exp(f0 * (np.arange(nx)[:, None] * grid.hx))
        f_field = alpha_y / f0
    alpha = np.zeros(alpha_y.shape + (2,))
    alpha[..., 1] = alpha_y
    return SurfaceData(
        grid=grid,
        q=_broadcast([[q_factor, 0.0], [0.0, q_factor]], (nx, ny, 2, 2)),
        theta=_broadcast(0.0, (nx, ny, 2, 2)),
        F=_broadcast(f_field, (nx, ny)),
        alpha=_broadcast(alpha, (nx, ny, 2)),
        beta=_broadcast(1.0, (nx, ny)),
    )


def isothermal_grid(nx: int, ny: int) -> SurfaceGrid:
    """Grid for the isothermal example: the unit square, non-periodic in x."""
    return SurfaceGrid(nx, ny, 1.0 / nx, 1.0 / ny, periodic_x=False)

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
at its edges. Residual norms are discrete L-infinity. One stencil, _partial,
takes every first difference, on component planes (..., rows, ny): along y
as one subtraction over the flattened planes, which numpy runs without the
operand buffers of the strided form, and along x on their swapped view.

The residuals are evaluated one strip at a time, so that the component
planes a strip computes stay in cache and the memory they take does not
grow with nx or the number of time slices. A pass tiles (time slice, x row):
a strip holds either rows of one slice, or G whole slices of the pass grid
(see below) stacked on an axis just before (rows, ny). G is the number of
pass-grid slices that fit in the nodes of the full grid's tallest strip
when one pass-grid slice fits in a strip, and 1 otherwise, so no strip
holds more nodes than a dense pass of the same grid, and dense data run
one slice at a time. A strip reads two halo rows beyond its own on each
side (wrapped around on a periodic x axis), because the scalar curvature
takes second differences of q through the Christoffel symbols; at a
non-periodic edge there is no halo and the one-sided stencils run as on the
whole grid. Every node goes through the same floating-point operations as on
the whole grid, one slice at a time, so the norms do not depend on the
strip height or on G.

A strip copies its rows of the fields of its slices into contiguous planes
(_Strip), one copy per field, and computes its residuals as plain numpy
expressions, each returning fresh planes that are freed when their last use
ends. The flow pass loads alpha and Theta of the strip's slices and of one
neighbour on each side once, and takes each central time difference between
that stack and itself shifted by two slices. So a pass holds the planes of
one strip at a time, and the memory of a dense pass is bounded by its
tallest strip, whatever nx and the number of time slices.

A pass runs on the data's compact grid. A grid axis along which every field
of every slice the pass reads has zero stride (a broadcast view) is cut: a
periodic one to 4 nodes, a non-periodic x axis to 2 _HALO + 1 = 5 rows.
Pointwise steps keep a plane constant along a periodic axis, and a central
difference of equal values is the same at every node (0.0 where they are
finite), so each node of the cut axis takes the same floating-point
operations on the same values as the nodes it stands for, and the maximum,
NaN included, keeps its bits. A one-sided stencil of equal values a gives
fl(3a) - 3a, negated, which need not be 0.0, so at a non-periodic edge the
_HALO rows nearest each edge differ from the interior; 5 rows keep both
edges and one interior row. Dense data (no zero strides) run on the whole
grid. The null-isothermal example, broadcast along y, runs on 4 columns,
and flat-para, broadcast along both axes, on 4 x 4 nodes, G = 64 of them
per strip at 32^2 and 256 at 64^2: its flow pass at the CLI's defaults is
one strip of 7 slices, and one of 15 at the refinement.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, astuple, dataclass, replace
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
        for name in ("nx", "ny"):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {n!r}")
        if self.nx < 4 or self.ny < 4:
            raise ValueError("grid needs at least 4 nodes per axis")
        for name in ("hx", "hy"):
            _check_spacing(name, getattr(self, name))
        if not isinstance(self.periodic_x, (bool, np.bool_)):
            raise ValueError(f"periodic_x must be a bool, got {self.periodic_x!r}")


def _check_spacing(name: str, h) -> None:
    """Raises ValueError, naming the field, unless h is a positive finite real
    number: not a bool, not a string."""
    if isinstance(h, bool) or not isinstance(h, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {h!r}")
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"{name} must be positive and finite, got {h!r}")


# The geometry below works on component planes: a tensor field is a
# contiguous (2, ..., 2, slices, rows, ny) array, so every contraction over a
# 2-valued index is an explicit sum of plane products. A helper returns fresh
# planes.


def _partial(f: np.ndarray, m: int, grid: SurfaceGrid, out=None) -> np.ndarray:
    """Second-order d_m f (m = 0: x, m = 1: y) of planes f (into out if
    given), differenced along the last axis of f and out: for x, of their
    swapaxes(-2, -1) views."""
    if out is None:
        out = np.empty_like(f)
    if m == 0:
        g, d, h, periodic = f.swapaxes(-2, -1), out.swapaxes(-2, -1), grid.hx, grid.periodic_x
    else:
        g, d, h, periodic = f, out, grid.hy, True
    # on C-contiguous planes: one subtraction over the flattened stack, which
    # numpy runs unbuffered; the differences it takes across row ends land on
    # the edge entries the stencils below overwrite. Where a difference
    # overflows or is invalid, the strided form repeats the interior, and
    # warns of what does so inside a row
    flat = g.flags.c_contiguous and d.flags.c_contiguous
    if flat:
        try:
            with np.errstate(over="raise", invalid="raise"):
                np.subtract(g.reshape(-1)[2:], g.reshape(-1)[:-2], out=d.reshape(-1)[1:-1])
        except FloatingPointError:
            flat = False
    if not flat:
        np.subtract(g[..., 2:], g[..., :-2], out=d[..., 1:-1])
    if periodic:
        d[..., 0] = g[..., 1] - g[..., -1]
        d[..., -1] = g[..., 0] - g[..., -2]
    else:
        d[..., 0] = -3.0 * g[..., 0] + 4.0 * g[..., 1] - g[..., 2]
        d[..., -1] = 3.0 * g[..., -1] - 4.0 * g[..., -2] + g[..., -3]
    out /= 2.0 * h
    return out


def _partials(f: np.ndarray, grid: SurfaceGrid) -> np.ndarray:
    """(2, ...) stack of d_m f of planes f."""
    out = np.empty((2,) + f.shape)
    for m in range(2):
        _partial(f, m, grid, out[m])
    return out


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(ab)_ij = a_i0 b_0j + a_i1 b_1j of (2, 2, rows, ny) planes."""
    return a[:, 0, None] * b[None, 0] + a[:, 1, None] * b[None, 1]


def _pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_ij a_ij b_ij over the two leading 2-valued axes."""
    return a[0, 0] * b[0, 0] + a[0, 1] * b[0, 1] + a[1, 0] * b[1, 0] + a[1, 1] * b[1, 1]


def _quadratic(m: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_ij m_ij u_i u_j of (2, 2, rows, ny) and (2, rows, ny) planes."""
    return (m[0, 0] * u[0] * u[0] + m[0, 1] * u[0] * u[1]
            + m[1, 0] * u[1] * u[0] + m[1, 1] * u[1] * u[1])


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


def _zero_stride(*arrays: np.ndarray) -> tuple:
    """Per grid axis (x, y): whether every one of arrays has zero stride
    along it, so that each holds the same entries at every node of it."""
    return tuple(all(a.strides[axis] == 0 for a in arrays) for axis in (0, 1))


def _compact(arr: np.ndarray) -> np.ndarray:
    """arr with every zero-stride grid axis cut to length 1: a view of the
    same entries, each once, so that a check of a field broadcast along a
    grid axis costs what the field holds."""
    return arr[tuple(slice(0, 1) if flat else slice(None) for flat in _zero_stride(arr))]


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
        _check_spacing("dt", self.dt)
        object.__setattr__(self, "slices", slices)

    @property
    def grid(self) -> SurfaceGrid:
        return self.slices[0].grid


def christoffel(strip: _Strip) -> np.ndarray:
    """Gamma^k_ij of strip, via central differences, as (2, 2, 2, slices,
    rows, ny) planes gamma[k, i, j]."""
    dq = _partials(strip.q, strip.grid)  # (m, i, j) = d_m q_ij
    # Gamma^k_ij = 1/2 q^{kl} (d_i q_lj + d_j q_li - d_l q_ij), term[i, j, l]
    term = dq.swapaxes(1, 2) + dq.transpose(2, 0, 1, *range(3, dq.ndim))
    for l in range(2):  # one plane pair at a time: a transposed dq is buffered
        term[:, :, l] -= dq[l]
    del dq  # freed before Gamma's products: at most dq, term and Gamma are alive
    inv = strip.inv
    gamma = inv[:, 0, None, None] * term[None, :, :, 0]
    gamma += inv[:, 1, None, None] * term[None, :, :, 1]
    gamma *= 0.5
    return gamma


def _scalar_curvature(inv: np.ndarray, gamma: np.ndarray, grid: SurfaceGrid) -> np.ndarray:
    """R = q^{kj} Ric_kj with
    Ric_kj = sum_l [d_l G^l_jk - d_j G^l_lk + sum_m (G^l_lm G^m_jk - G^l_jm G^m_lk)],
    contracted directly from the Christoffel planes gamma[k, i, j]."""
    terms = [_partial(gamma[l], l, grid) - _partials(gamma[l, l], grid)  # [j, k]
             + (gamma[l, l, 0] * gamma[0] + gamma[l, l, 1] * gamma[1])
             - (gamma[l, :, 0, None] * gamma[0, l][None]
                + gamma[l, :, 1, None] * gamma[1, l][None])
             for l in range(2)]
    return _pair(inv, (terms[0] + terms[1]).swapaxes(0, 1))


def _check_parameters(eps, lambda2, kappa) -> None:
    """Raises ValueError unless eps is in {-1, 0, 1} and lambda2 and kappa
    are finite real numbers (not bools)."""
    if eps not in (-1, 0, 1):
        raise ValueError(f"eps must be -1, 0 or 1, got {eps!r}")
    for name, value in (("lambda2", lambda2), ("kappa", kappa)):
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not math.isfinite(value)):
            raise ValueError(f"{name} must be a finite real number, got {value!r}")


class _Residuals:
    """The norms of a residual pass, one float field each."""

    def as_dict(self) -> dict:
        return asdict(self)

    def max_residual(self) -> float:
        """The worst size of a residual; NaN or inf when one is not finite."""
        return float(np.max(np.abs(astuple(self))))


@dataclass(frozen=True)
class ConstraintResiduals(_Residuals):
    curl: float        # r1: d alpha - F nu_q
    norm: float        # r2: |alpha|^2 - eps - F^2
    hamiltonian: float  # r3: R - |Theta|^2 + (Tr Theta)^2 + c - 2 kappa F^2
    momentum: float    # r4: d Tr Theta + div Theta - kappa F alpha


# Nodes per component plane of a strip (128 KiB of floats): few enough that
# the planes a strip computes stay in cache, enough that numpy's per-call
# overhead stays small.
_STRIP_NODES = 1 << 14
# Rows a strip reads beyond its own on each side: R^q takes second
# differences of q through the Christoffel symbols.
_HALO = 2


def _strips(full: SurfaceGrid, grid: SurfaceGrid, n: int):
    """(group, rows, strip grid, own rows) per strip of a pass over n slices
    on grid, the pass grid of data on the full grid: the slices the strip
    holds, as a slice of range(n); the rows of grid it reads, as slices in
    order (more than one where they wrap around a periodic x axis); the grid
    of those rows; and the part of them whose residuals the strip owns.
    Where grid fits in one strip, a strip holds the whole grid for as many
    slices as fit in the nodes of the full grid's tallest strip; otherwise
    one slice, in strips of x rows. Strips run slice group by slice group."""
    row_strips = list(_row_strips(grid))
    size = 1
    if len(row_strips) == 1 and n > 1:
        tallest = max(count for _, count, _ in _row_strips(full)) * full.ny
        size = max(1, tallest // (grid.nx * grid.ny))
    # a grid that fits in one strip is its own strip grid
    grids = [grid] if len(row_strips) == 1 else [
        replace(grid, nx=count, periodic_x=False) for _, count, _ in row_strips]
    for t in range(0, n, size):
        for (rows, _, own), strip in zip(row_strips, grids):
            yield slice(t, min(t + size, n)), rows, strip, own


def _row_strips(grid: SurfaceGrid):
    """(rows, count, own rows) per strip of x rows of one slice on grid: the
    rows as _strips gives them, and how many rows that is."""
    nx = grid.nx
    height = max(1, _STRIP_NODES // grid.ny)
    if height >= nx:
        yield (slice(0, nx),), nx, slice(None)
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
        yield rows, hi - lo, slice(a - lo, b - lo)


_FIELDS = ("q", "theta", "F", "alpha", "beta")


def _compact_grid(slices: Sequence[SurfaceData]) -> SurfaceGrid:
    """The grid a pass over slices runs on: their grid with each axis along
    which every field of every slice has zero stride cut to the nodes that
    stand for all of its nodes, 4 on a periodic axis and 2 _HALO + 1 on a
    non-periodic one, whose one-sided edge stencils set its _HALO rows
    nearest each edge apart from the interior (see the module docstring).
    A field is read at the pass grid's first nodes of a cut axis."""
    grid = slices[0].grid
    flat_x, flat_y = _zero_stride(*(getattr(s, name) for s in slices for name in _FIELDS))
    nx = min(grid.nx, 4 if grid.periodic_x else 2 * _HALO + 1) if flat_x else grid.nx
    return replace(grid, nx=nx, ny=4 if flat_y else grid.ny)


class _Strip:
    """One strip of the slices d, *more: their rows (slices of the pass
    grid's x rows) of their fields on the strip grid, as contiguous
    (..., slices, rows, ny) planes, the attributes of their names, with
    q^{-1} as inv and sqrt(det q) as vol."""

    def __init__(self, d: SurfaceData, rows: tuple, grid: SurfaceGrid, *more: SurfaceData):
        self.grid, self._rows = grid, rows
        group = (d,) + more
        self.q, self.theta, self.F, self.alpha, self.beta = (
            self.load([getattr(s, name) for s in group]) for name in _FIELDS)
        q = self.q
        det = q[0, 0] * q[1, 1] - q[0, 1] * q[1, 0]
        self.inv = np.array([[q[1, 1], -q[0, 1]], [-q[1, 0], q[0, 0]]]) / det
        self.vol = np.sqrt(det)

    def load(self, fields: Sequence[np.ndarray]) -> np.ndarray:
        """The strip's rows and the strip grid's ny columns of (nx, ny, ...)
        fields, one per slice, as contiguous (..., slices, rows, ny) planes:
        one copy per run of rows."""
        ny = self.grid.ny
        out = np.empty(fields[0].shape[2:] + (len(fields), self.grid.nx, ny))
        into = out.transpose(-3, -2, -1, *range(out.ndim - 3))  # [slice, row, y, ...]
        at = 0
        for rows in self._rows:
            parts = [f[None, rows, :ny] for f in fields]
            np.concatenate(parts, out=into[:, at:at + parts[0].shape[1]])
            at += parts[0].shape[1]
        return out


def _worst(fields, slices: Sequence[SurfaceData], reach: int, *args) -> np.ndarray:
    """Max |r| of each residual field of slices[reach:len(slices) - reach]
    on their pass grid, where fields(strip, window, *args) returns the
    residual planes of a strip, window being the strip's slices with reach
    more on each side: taken per strip over the rows it owns of all its
    slices and then over the strips, so that a NaN propagates."""
    grid = _compact_grid(slices)
    worst = []
    for group, rows, strip, own in _strips(slices[0].grid, grid, len(slices) - 2 * reach):
        window = slices[group.start:group.stop + 2 * reach]
        d, *more = window[reach:len(window) - reach]
        worst.append([float(np.max(np.abs(r[..., own, :])))
                      for r in fields(_Strip(d, rows, strip, *more), window, *args)])
    return np.max(worst, axis=0)


def _constraint_fields(strip: _Strip, window, eps: int, lambda2: float, kappa: float) -> tuple:
    """The constraint residuals r1..r4 of strip, as planes; they read no
    slice of the window beyond the strip's own."""
    grid, inv, vol, gamma = strip.grid, strip.inv, strip.vol, christoffel(strip)
    theta, alpha, F = strip.theta, strip.alpha, strip.F
    r1 = _partial(alpha[1], 0, grid) - _partial(alpha[0], 1, grid) - F * vol
    r2 = _quadratic(inv, alpha) - eps - np.square(F)
    tr_theta = _pair(inv, theta)
    inv_t = inv.swapaxes(0, 1)  # q^{ik} q^{jl} T_ij T_kl below
    r3 = (_scalar_curvature(inv, gamma, grid)
          - _pair(_matmul(inv_t, theta), _matmul(theta, inv_t))
          + np.square(tr_theta)
          + 0.5 * (5.0 * lambda2 + 3.0 * kappa * eps)
          - 2.0 * kappa * np.square(F))
    # r4: (nabla_m Theta)_ij = d_m Theta_ij - G^k_mi Theta_kj - G^k_mj Theta_ik
    cov = _partials(theta, grid)  # [m, i, j]
    for m, g in enumerate(gamma.swapaxes(0, 1)):  # g[k] = G^k_m
        cov[m] -= g[0][:, None] * theta[0][None] + g[1][:, None] * theta[1][None]
        cov[m] -= g[0][None] * theta[:, 0][:, None] + g[1][None] * theta[:, 1][:, None]
    r4 = _partials(tr_theta, grid) + _pair(inv, cov) - kappa * F * alpha
    return r1, r2, r3, r4


def constraint_residuals(
    d: SurfaceData, eps: int, lambda2: float, kappa: float
) -> ConstraintResiduals:
    """Discrete L-infinity norms of the four constraint expressions.
    ValueError for an eps outside {-1, 0, 1} or a non-finite lambda2 or
    kappa."""
    _check_parameters(eps, lambda2, kappa)
    worst = _worst(_constraint_fields, (d,), 0, eps, lambda2, kappa)
    return ConstraintResiduals(*map(float, worst))


@dataclass(frozen=True)
class EvolutionResiduals(_Residuals):
    alpha_flow: float
    ricci_flow: float


def _time_difference(strip: _Strip, fields: Sequence[np.ndarray], dt: float) -> np.ndarray:
    """(f(t + dt) - f(t - dt)) / (2 dt) on strip's slices, of fields, one per
    slice of its window: loaded as one stack, minus itself shifted by two."""
    stack = strip.load(fields)
    return (stack[..., 2:, :, :] - stack[..., :-2, :, :]) / (2.0 * dt)


def _flow_fields(strip: _Strip, window: Sequence[SurfaceData], dt: float,
                 eps: int, lambda2: float, kappa: float) -> tuple:
    """The flow residuals e1, e2 of strip, as planes, with central time
    differences between the same rows of each of its slices' neighbours in
    window, its slices with one more on each side."""
    grid, inv, vol, gamma = strip.grid, strip.inv, strip.vol, christoffel(strip)
    q, theta, alpha, F, beta = strip.q, strip.theta, strip.alpha, strip.F, strip.beta
    # e1; (*alpha)_i = sqrt(det q) eps_ij q^{jk} alpha_k
    raised = inv[:, 0] * alpha[0] + inv[:, 1] * alpha[1]
    e1 = (np.stack([-vol * raised[1], vol * raised[0]])
          + _partials(beta * F, grid) / beta
          - _time_difference(strip, [s.alpha for s in window], dt) / beta)
    # e2; Ric^q = (R/2) q in two dimensions
    grad_beta = _partials(beta, grid)
    hess_beta = _partials(grad_beta, grid) - (gamma[0] * grad_beta[0] + gamma[1] * grad_beta[1])
    dt_theta = _time_difference(strip, [s.theta for s in window], dt)
    e2 = (0.5 * _scalar_curvature(inv, gamma, grid) * q
          + _pair(inv, theta) * theta
          - 2.0 * _matmul(theta, _matmul(inv, theta))
          - (dt_theta + hess_beta) / beta
          - kappa * (alpha[:, None] * alpha[None])
          + 0.5 * (lambda2 + kappa * eps) * q)
    return e1, e2


def evolution_residuals(
    seq: SurfaceSequence, eps: int, lambda2: float, kappa: float
) -> EvolutionResiduals:
    """Residuals of the two flow equations on the interior time slices,
    with central time differences. ValueError for an eps outside {-1, 0, 1}
    or a non-finite lambda2 or kappa."""
    _check_parameters(eps, lambda2, kappa)
    worst = _worst(_flow_fields, seq.slices, 1, seq.dt, eps, lambda2, kappa)
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
        # e^{f0 x} once per row, at x = i hx, broadcast along y: each node
        # of a row gets the same exp
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

"""The eta-Einstein condition for contact structures of any causal type:
fitting the constants (lambda^2, kappa) to a Ricci tensor, verifying the
classification-table rows, and parameter-grid existence scans.

The defining equation is
    Ric = (s_g/2) (lambda^2 + kappa eps) g - s_g kappa alpha (x) alpha,
with kappa >= 0 required in Lorentzian signature and lambda^2 >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np
from numpy.linalg import _umath_linalg

from .config import get_tol
from .contact import ContactStructure, _lead_positive, check_contact
from .curvature import koszul_components, ricci_components
from .errors import (
    Inadmissible,
    NotEtaEinstein,
    WrongCausalType,
)
from .exterior import FrameMetric, d_components, hodge_components
from .liealg import FAMILIES, family_tables


@dataclass(frozen=True)
class EtaEinsteinFit:
    lambda2: float
    kappa: float
    residual: float
    admissible: bool


# the six independent components (i <= j) of a symmetric 3x3 tensor, row by
# row, and as positions in its nine entries
_IU = np.triu_indices(3)
_IU9 = _IU[0] * 3 + _IU[1]
# lstsq's default cutoff (rcond=None) for the 6 x 2 design matrix
_RCOND = np.finfo(float).eps * 6


@lru_cache(maxsize=None)
def _fit_design(m: FrameMetric, eps: int) -> tuple:
    """(s_g/2) g with g = diag(eta), flattened to (9,), and the fit's design
    matrix (6, 2) without its alpha term: columns (s_g/2) g and
    (s_g/2) eps g over the six components."""
    half_g = 0.5 * m.s_g * np.diag(m.eta)
    design = np.column_stack([half_g[_IU], eps * half_g[_IU]])
    half_g.flags.writeable = design.flags.writeable = False  # shared by every caller
    return half_g.ravel(), design


def _fit_rows(ric: np.ndarray, alpha: np.ndarray, m: FrameMetric, eps: int,
              tol: float) -> tuple:
    """(lambda2, kappa, residual, admissible), arrays (K,), of the fits of
    stacked Ricci tensors ric (K, 3, 3) with one-forms alpha (K, 3) of one
    epsilon."""
    sg = m.s_g
    half_g, design = _fit_design(m, eps)
    ric = ric.reshape(-1, 9)
    aa = (alpha[:, :, None] * alpha[:, None, :]).reshape(-1, 9)
    rows = design[None].repeat(len(ric), axis=0)
    rows[..., 1] -= sg * aa.take(_IU9, axis=1)  # (s_g/2) eps g - s_g alpha (x) alpha
    rhs = ric.take(_IU9, axis=1)
    sol = _lstsq_rows(rows, rhs)
    lambda2, kappa = sol[:, 0], sol[:, 1]
    lambda2 = np.copysign(lambda2, lambda2 + tol)  # |lambda2| where it is within tol of 0
    model = (lambda2 + kappa * eps)[:, None] * half_g - (sg * kappa)[:, None] * aa
    residual = np.abs(ric - model).max(axis=1)
    admissible = (residual <= tol) & (lambda2 >= 0.0)
    if sg == -1:
        admissible &= kappa >= -tol
    return lambda2, kappa, residual, admissible


def fit_eta_einstein(
    cs: ContactStructure,
    tol: float | None = None,
    require: bool = False,
) -> EtaEinsteinFit:
    """Least-squares fit of (lambda^2, kappa) over the six independent
    components of the structure's Ricci tensor, with the full-tensor residual.

    With ``require=True`` raises NotEtaEinstein when the residual exceeds tol
    and Inadmissible when the fitted constants violate the sign constraints.
    """
    tol = get_tol(tol)
    lambda2, kappa, residual, admissible = _fit_rows(
        cs.curvature.ricci[None], cs.alpha[None], cs.m, cs.epsilon, tol)
    fit = EtaEinsteinFit(lambda2.item(), kappa.item(), residual.item(), admissible.item())
    if require:
        if fit.residual > tol:
            raise NotEtaEinstein(fit.residual)
        if fit.lambda2 < 0.0 or (cs.s_g == -1 and fit.kappa < -tol):
            raise Inadmissible(f"lambda^2={fit.lambda2:.6g}, kappa={fit.kappa:.6g}")
    return fit


def reeb_curvature_residual(cs: ContactStructure, fit: EtaEinsteinFit) -> float:
    """Residual of R(v1,v2)xi = K (alpha(v2) v1 - alpha(v1) v2) with
    K = s_g (lambda^2 - eps kappa)/4; holds on every eta-Einstein structure."""
    xi = cs.xi
    alpha = cs.alpha
    kconst = cs.s_g * (fit.lambda2 - cs.epsilon * fit.kappa) / 4.0
    lhs = np.einsum("ijkm,k->ijm", cs.curvature.riemann, xi)
    eye = np.eye(3)
    rhs = kconst * (
        np.einsum("j,im->ijm", alpha, eye) - np.einsum("i,jm->ijm", alpha, eye)
    )
    return float(np.max(np.abs(lhs - rhs)))


def lightcone_fit_residual(cs: ContactStructure, fit: EtaEinsteinFit) -> float:
    """Null-case characterization: in a light-cone frame the eta-Einstein
    condition is Ric(xi,xi)=Ric(xi,phiu)=Ric(u,phiu)=0,
    Ric(xi,u)=Ric(phiu,phiu)=-lambda^2/2, Ric(u,u)=kappa."""
    if cs.epsilon != 0:
        raise WrongCausalType("light-cone characterization needs a null Reeb field")
    ric = cs.curvature.ricci
    xi, u, phiu = cs.frame

    def r(a, b):
        return float(a @ ric @ b)

    return max(
        abs(r(xi, xi)),
        abs(r(xi, phiu)),
        abs(r(u, phiu)),
        abs(r(xi, u) + 0.5 * fit.lambda2),
        abs(r(phiu, phiu) + 0.5 * fit.lambda2),
        abs(r(u, u) - fit.kappa),
    )


# --- parameter-grid scans -----------------------------------------------------


@dataclass(frozen=True)
class ScanHit:
    family_id: str
    params: Mapping[str, float]
    orientation: int
    alpha: tuple
    fit: EtaEinsteinFit


# grid points per sample chunk of scan_family; a chunk's arrays are the
# only per-sample data held at once
SCAN_CHUNK = 256
# directions sampled on a quadric circle or cone in scan_family
N_DIRS = 8
# (cos, sin) of the angles pi k / N_DIRS (a rank-2 nullspace) and
# 2 pi k / N_DIRS (the whole space), from math.cos and math.sin: numpy's
# vectorised cos and sin need not match libm to the last bit
_HALF_TURN = np.array([(math.cos(math.pi * k / N_DIRS), math.sin(math.pi * k / N_DIRS))
                       for k in range(N_DIRS)])
_FULL_TURN = [(math.cos(2 * math.pi * k / N_DIRS), math.sin(2 * math.pi * k / N_DIRS))
              for k in range(N_DIRS)]
# directions with |v|^2_g below this (relative to the Euclidean norm) are
# treated as null; rescaling them to |alpha|^2 = +-1 would blow the
# components far beyond the O(1) range the tolerances are calibrated for
_NULL_CUT = 1e-9


def _contact_maps(c: np.ndarray, m: FrameMetric, orientations: tuple) -> np.ndarray:
    """Matrices (..., O, 3, 3) of alpha -> *alpha - s_g d(alpha) on one-form
    components, one per orientation, for bracket tables c (..., 3, 3, 3);
    d does not depend on the orientation and is formed once."""
    basis = np.eye(3)
    stars = np.stack([hodge_components(basis, m.signs, 1, o).T for o in orientations])
    d = d_components(basis, c[..., None, :, :, :], 1)  # [..., i, :]: d e^i
    return stars - (m.s_g * np.swapaxes(d, -1, -2))[..., None, :, :]


def _nullspace_rows(mats: np.ndarray, tol: float):
    """(keep, vt) for matrices (..., 3, 3): the rows vt[..., keep, :] span
    each nullspace."""
    _, s, vt = np.linalg.svd(mats)
    scale = np.maximum(1.0, s[..., 0])
    return s <= 1e3 * tol * scale[..., None], vt


def _dot_self(v: np.ndarray) -> np.ndarray:
    """v . v over the last axis, bit-equal to np.dot on each row: a
    vector @ vector matmul runs the same BLAS dot, a reduction need not."""
    return np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0]


def _inner(v: np.ndarray, w: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """g(v, w) over the last axis, with np.sum's additions."""
    return np.sum(eta * v * w, axis=-1)


def _to_quadric(v: np.ndarray, m: FrameMetric, eps: int) -> tuple:
    """(alpha, ok): directions v (..., 3) rescaled to |alpha|^2 = eps != 0,
    ok where that sign is reached away from the null cone."""
    q = _inner(v, v, m.eta)
    return v * np.sqrt(eps / q)[..., None], q * eps > _NULL_CUT * _dot_self(v)


def _rank1_candidates(v: np.ndarray, m: FrameMetric, eps: int) -> tuple:
    if eps:
        alpha, ok = _to_quadric(v, m, eps)
    else:
        alpha = _lead_positive(v / np.sqrt(_dot_self(v))[:, None])
        ok = abs(_inner(v, v, m.eta)) <= _NULL_CUT * _dot_self(v)
    return alpha[:, None], ok[:, None]


def _rank2_candidates(v1: np.ndarray, v2: np.ndarray, m: FrameMetric, eps: int) -> tuple:
    if eps:  # N_DIRS points of the circle through v1 and v2, rescaled
        return _to_quadric(_HALF_TURN[:, :1] * v1[:, None] + _HALF_TURN[:, 1:] * v2[:, None],
                           m, eps)
    # isotropic directions of Q(t, 1) = a t^2 + 2 b t + c on t v1 + v2
    a, b, c = _inner(v1, v1, m.eta), _inner(v1, v2, m.eta), _inner(v2, v2, m.eta)
    scale = np.maximum(np.maximum(np.maximum(abs(a), abs(b)), abs(c)), 1e-300)
    ztol = 1e-11 * scale
    two_roots = abs(a) > ztol
    disc = b * b - a * c
    root = np.sqrt(np.maximum(disc, 0.0))
    r1, r2 = (-b + root) / a, (-b - root) / a
    lo = np.where(r1 == r2, r1, np.minimum(r1, r2))  # the roots as a sorted set
    # Q(1, 0) = a ~ 0: v1 itself, then the other root or, with b ~ 0 too, v2
    b_live = abs(b) > ztol
    first = np.where(two_roots[:, None], lo[:, None] * v1 + v2, v1)
    second = np.where(two_roots[:, None], np.maximum(r1, r2)[:, None] * v1 + v2,
                      np.where(b_live[:, None], (-c / (2 * b))[:, None] * v1 + v2, v2))
    real = disc >= -ztol * scale
    ok = np.stack([~two_roots | real, np.where(two_roots, real & (r1 != r2), b_live | (abs(c) <= ztol))],
                  axis=1)
    v = np.stack([first, second], axis=1)
    return _lead_positive(v / np.sqrt(_dot_self(v))[..., None]), ok


@lru_cache(maxsize=None)
def _rank3_candidates(m: FrameMetric, eps: int) -> np.ndarray:
    """The fixed representatives (S, 3) taken when every one-form solves the
    linear condition."""
    if m.s_g == 1:
        out = ([(ct, st, 0.0) for ct, st in _FULL_TURN] + [(0.0, 0.0, 1.0)]) if eps == 1 else []
    elif eps == 0:
        out = [(1.0, ct, st) for ct, st in _FULL_TURN]
    else:
        ch, sh = (math.cosh, math.sinh) if eps == -1 else (math.sinh, math.cosh)
        out = [(ch(uu), sh(uu) * ct, sh(uu) * st) for ct, st in _FULL_TURN for uu in (0.0, 0.75)]
    v = np.array(out, dtype=float).reshape(-1, 3)
    v.flags.writeable = False  # shared by every caller
    return v


def _distinct(v: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """ok without each candidate of v (G, S, 3) that lies within 1e-10
    (max-abs) of a kept earlier one of the same row, as a greedy pass over
    the row would keep them; the pass is solved as a fixed point."""
    near = np.abs(v[:, :, None] - v[:, None]).max(axis=-1) < 1e-10
    near &= np.tri(v.shape[1], k=-1, dtype=bool)  # near[g, j, i] with i < j
    kept = ok
    while not np.array_equal(kept, new := ok & ~(near & kept[:, None]).any(axis=-1)):
        kept = new
    return kept


def _quadric_candidates(vt: np.ndarray, keep: np.ndarray, m: FrameMetric, eps: int) -> tuple:
    """(pair, alpha): representatives of { alpha in the nullspace : |alpha|^2
    = eps } for P stacked nullspaces, each spanned by the rows vt[p, keep[p]]
    of vt (P, 3, 3), grouped by rank; rows come in the order of p, then of
    the candidates of p."""
    rank = keep.sum(axis=-1)
    pairs, alphas = [], []
    with np.errstate(divide="ignore", invalid="ignore"):  # only in rows failing ok
        for r in (1, 2, 3):
            p = np.flatnonzero(rank == r)
            if not p.size:
                continue
            basis = vt[p][keep[p]].reshape(len(p), r, 3)
            if r == 1:
                v, ok = _rank1_candidates(basis[:, 0], m, eps)
            elif r == 2:
                v, ok = _rank2_candidates(basis[:, 0], basis[:, 1], m, eps)
            else:
                fixed = _rank3_candidates(m, eps)
                v = np.broadcast_to(fixed, (len(p), *fixed.shape))
                ok = np.ones(v.shape[:2], dtype=bool)
            kept = _distinct(v, ok)
            pairs.append(p[np.nonzero(kept)[0]])
            alphas.append(v[kept])
    if not pairs:
        return np.zeros(0, dtype=int), np.zeros((0, 3))
    pair = np.concatenate(pairs)
    order = np.argsort(pair, kind="stable")
    return pair[order], np.concatenate(alphas)[order]


def default_grid(points: int = 21, lo: float = -3.0, hi: float = 3.0) -> np.ndarray:
    return np.linspace(lo, hi, points)


def _sample_chunks(family_id: str, grid: np.ndarray, tol: float) -> Iterable[dict]:
    """The family's parameter samples as arrays by parameter name, from at
    most SCAN_CHUNK grid points at a time: the grid on each free axis of
    every sampling sheet (liealg.FAMILIES), in itertools.product order,
    filtered by the sheet's keep and completed by its solve. One chunk of
    points is built at a time, so memory stays flat however large the grid."""
    grid = np.asarray(grid, dtype=float)
    fam = FAMILIES[family_id]
    for sheet in fam.sheets:
        axes = [grid if v is None else np.array(v, dtype=float) for v in sheet.axes.values()]
        shape = tuple(map(len, axes))
        size = math.prod(shape)
        for start in range(0, size, SCAN_CHUNK):
            index = np.unravel_index(np.arange(start, min(start + SCAN_CHUNK, size)), shape)
            point = {k: x[i] for k, x, i in zip(sheet.axes, axes, index)}
            keep = np.broadcast_to(sheet.keep(tol=tol, **point), index[0].shape)
            if keep.any():
                point = {k: v[keep] for k, v in point.items()}
                point.update(sheet.solve(**point))
                yield {k: point[k] for k in fam.params}


def family_samples(family_id: str, grid: np.ndarray, tol: float) -> Iterable[dict]:
    """Deterministic parameter samples over the family's sampling sheets
    (liealg.FAMILIES), the grid on each free axis, solving the family's
    algebraic constraint where it has one: the rows of the scan's sample
    chunks as dicts of floats."""
    for chunk in _sample_chunks(family_id, grid, tol):
        for values in zip(*(v.tolist() for v in chunk.values())):
            yield dict(zip(chunk, values))


def _lstsq_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares solutions (K, n) of stacked systems a (K, m, n) x = b
    (K, m) with lstsq's default cutoff. np.linalg.lstsq runs the same gufunc
    of numpy's private _umath_linalg on one system after rejecting stacked
    input, so every row is bit-equal to its result (a test pins this)."""
    with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
        return _umath_linalg.lstsq(a, b[..., None], _RCOND, signature="ddd->ddid")[0][..., 0]


def scan_family(
    family_id: str,
    grid: np.ndarray | None = None,
    epsilon: int = 0,
    orientations: tuple = (1, -1),
    tol: float | None = None,
) -> list:
    """Scan a family's parameter grid for eta-Einstein contact structures.

    At every sample the contact condition (linear in alpha) is solved exactly
    via the nullspace of alpha -> *alpha - s_g d(alpha), intersected with the
    quadric |alpha|^2 = epsilon; each candidate is fitted and admissible hits
    are returned. An empty list is a valid result.

    The samples are built as parameter arrays straight from the family's
    sheets, SCAN_CHUNK grid points at a time; every step runs once per chunk
    on stacked arrays. One family_tables call gives the bracket tables and
    constraint mask, d of the basis one-forms is formed once for both
    orientations' contact maps, and one SVD call solves them all. The quadric
    candidates of every (sample, orientation) nullspace are drawn together,
    one nullspace rank at a time, and go through one stacked check_contact;
    the Ricci tensor of each sample left with a candidate of the wanted
    epsilon is computed once, and the fits of all those candidates are
    solved in one least-squares call. No ContactStructure is built.
    """
    tol = get_tol(tol)
    if grid is None:
        grid = default_grid()
    fam = FAMILIES[family_id]
    m = fam.metric
    if m.s_g == 1 and epsilon != 1:
        return []
    hits = []
    signs = np.array(orientations)
    for chunk in _sample_chunks(family_id, grid, tol):
        c, ok = family_tables(family_id, chunk, tol)
        valid = np.flatnonzero(ok)
        if not valid.size:
            continue
        c = c[valid]
        keep, vt = _nullspace_rows(_contact_maps(c, m, orientations), tol)
        pair, alpha = _quadric_candidates(vt.reshape(-1, 3, 3), keep.reshape(-1, 3), m, epsilon)
        if not pair.size:
            continue
        sample, orientation = np.divmod(pair, len(signs))
        orientation = signs[orientation]
        checked = check_contact(c[sample], m, orientation, alpha, tol=1e-7)
        match = np.flatnonzero(checked.ok & (checked.eps == epsilon))
        if not match.size:
            continue
        sample, orientation, alpha = sample[match], orientation[match], alpha[match]
        distinct, which = np.unique(sample, return_inverse=True)
        c_distinct = c[distinct]
        ric = ricci_components(koszul_components(c_distinct, m.eta), c_distinct)[which]
        fits = _fit_rows(ric, alpha, m, epsilon, tol)
        for k in np.flatnonzero(fits[3]):
            fit = EtaEinsteinFit(*(x[k].item() for x in fits))
            n = valid[sample[k]]
            hits.append(ScanHit(family_id, {p: chunk[p][n].item() for p in fam.params},
                                int(orientation[k]), tuple(alpha[k]), fit))
    return hits

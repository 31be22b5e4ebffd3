"""The eta-Einstein condition for contact structures of any causal type:
the curvature identities of a fit of the constants (lambda^2, kappa) (the fit
is ContactBatch.fit; cs.fit(tol).at() for one structure), and parameter-grid
existence scans.

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

from .config import get_tol
from .contact import (_EPS, _TINY, EtaEinsteinFit, _lead_positive, _not_eta_einstein, _read_only,
                      check_contact)
from .exterior import FrameMetric, _d_table, hodge_components
from .liealg import FAMILIES, family_tables


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
SCAN_CHUNK = 1024
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


@lru_cache(maxsize=None)
def _contact_map_table(m: FrameMetric, orientations: tuple) -> tuple:
    """(stars, idx, sign): the orientations' Hodge stars (O, 3, 3) and, from
    the d table, s_g d(e^i)_t = sign[t, i] * c.flat[idx[t, i]], the one
    bracket term of d(e^i)_t that reads component i of e^i."""
    stars = np.stack([hodge_components(np.eye(3), m.signs, 1, o).T for o in orientations])
    cidx, pos, sign, live = _d_table(3, 1)
    term = (live[:, None] & (pos[:, None] == np.arange(3)[:, None])).argmax(axis=-1)  # [t, i]
    sign = m.s_g * np.take_along_axis(sign, term, axis=-1).astype(int)
    return tuple(map(_read_only, (stars, np.take_along_axis(cidx, term, axis=-1), sign)))


def _contact_maps(c: np.ndarray, m: FrameMetric, orientations: tuple) -> np.ndarray:
    """Matrices (..., O, 3, 3) of alpha -> *alpha - s_g d(alpha) on one-form
    components, one per orientation, for finite bracket tables c
    (..., 3, 3, 3): one signed gather of c, with the bits of d_components on
    the basis one-forms (+ 0 as d's sum from +0.0); a non-finite entry of c
    would give inf where d gives NaN."""
    stars, idx, sign = _contact_map_table(m, tuple(orientations))
    sg_d = sign * c.reshape(*c.shape[:-3], 27).take(idx, axis=-1) + 0
    return stars - sg_d[..., None, :, :]


def _full_rank(mats: np.ndarray, tol: float) -> np.ndarray:
    """Where the matrices (..., 3, 3) are proven to have every singular
    value above the nullspace cut 1e3 tol max(1, s_1) of _nullspace_rows,
    by elementwise arithmetic: s_3 >= 2 |det| / F^2 and s_1 <= F with F the
    Frobenius norm. The proof keeps a factor 2 above the cut and a rounding
    term 64 eps F^3, which bounds both the cofactor sum's error (F^3 bounds
    the permanent of |M|) and, over F^2, the SVD's error in s_3 and s_1;
    the smallest normal number absorbs underflow. A test that is not finite
    proves nothing."""
    m = mats.reshape(*mats.shape[:-2], 9)
    a, b, c, d, e, f, g, h, i = np.moveaxis(m, -1, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        f2 = np.sum(m * m, axis=-1)
        fnorm = np.sqrt(f2)
        cut = 1e3 * tol * np.maximum(1.0, fnorm)
        bound = cut * f2 + 64 * _EPS * f2 * fnorm + _TINY
        return np.abs(det) > bound


def _nullspace_rows(mats: np.ndarray, tol: float):
    """(keep, vt) for matrices (..., 3, 3): the rows vt[..., keep, :] span
    each nullspace. Matrices proven full rank (_full_rank) keep no row and
    skip the SVD; the others run one batched SVD, matrix by matrix as on the
    whole stack, and keep the rows whose singular value is at most
    1e3 tol max(1, s_1)."""
    keep = np.zeros(mats.shape[:-1], dtype=bool)
    vt = np.zeros(mats.shape)
    rest = ~_full_rank(mats, tol)
    if rest.any():
        _, s, vt[rest] = np.linalg.svd(mats[rest])
        keep[rest] = s <= 1e3 * tol * np.maximum(1.0, s[..., :1])
    return keep, vt


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
    the row would keep them: a fixed point, or ok itself where S = 1."""
    if v.shape[1] == 1:
        return ok
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
            with np.errstate(over="ignore", invalid="ignore"):  # as family_tables: masked there
                keep = np.broadcast_to(sheet.keep(tol=tol, **point), index[0].shape)
                if not keep.any():
                    continue
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
    constraint mask, both orientations' contact maps are one signed gather
    of those tables (_contact_maps), and the maps that _full_rank does not
    prove full rank (no nullspace) are solved by one SVD call. The quadric
    candidates of every (sample, orientation) nullspace are drawn together,
    one nullspace rank at a time, and go through one stacked check_contact,
    labelled by their sample; the batch of those of the wanted epsilon forms
    the Ricci tensor of each of their samples once. A candidate whose Ricci
    tensor lies farther from the span of the fit's two design columns than
    any (lambda^2, kappa) within tol can reach is proven not eta-Einstein by
    elementwise arithmetic (contact._not_eta_einstein) and dropped; the rows
    that proof leaves, among them every admissible one and every row with a
    badly conditioned design or a non-finite test, are fitted in one
    least-squares call (ContactBatch.fit), each system solved on its own, so
    a hit keeps the bits of a fit of every row. No ContactStructure is built.
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
        checked = check_contact(c[sample], m, signs[orientation], alpha, tol=1e-7, sample=sample)
        batch = checked.take(np.flatnonzero(checked.ok & (checked.eps == epsilon)))
        del checked  # it holds the chunk's candidate tables; one chunk is alive at a time
        # the Ricci tensors, formed once per sample, go with the rows that take keeps;
        # as in family_tables, huge finite tables overflow there silently: a
        # Ricci tensor that is not finite gives no fit residual within tol
        with np.errstate(over="ignore", invalid="ignore"):
            ricci = batch.ricci
        unfit = _not_eta_einstein(ricci, batch.alpha, m, batch.eps + 0.0, tol)
        batch = batch.take(np.flatnonzero(~unfit))
        if not batch.sample.size:
            continue
        fits = batch.fit(tol)
        for k in np.flatnonzero(fits.admissible):
            n = valid[batch.sample[k]]
            hits.append(ScanHit(family_id, {p: chunk[p][n].item() for p in fam.params},
                                int(batch.orientation[k]), tuple(batch.alpha[k]), fits.at(k)))
    return hits

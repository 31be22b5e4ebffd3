"""The eta-Einstein condition for contact structures of any causal type:
fitting the constants (lambda^2, kappa) to a Ricci tensor, verifying the
classification-table rows, and parameter-grid existence scans.

The defining equation is
    Ric = (s_g/2) (lambda^2 + kappa eps) g - s_g kappa alpha (x) alpha,
with kappa >= 0 required in Lorentzian signature and lambda^2 >= 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

from .config import get_tol
from .contact import ContactStructure, check_contact
from .curvature import curvature_components, koszul_components
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


# the six independent components (i <= j) of a symmetric 3x3 tensor, row by row
_IU = np.triu_indices(3)


# the six independent components (i <= j) of a symmetric 3x3 tensor, as
# positions in its nine entries
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
    sol = np.empty((len(ric), 2))
    for k in range(len(ric)):  # numpy's lstsq takes one system per call
        sol[k] = np.linalg.lstsq(rows[k], rhs[k], rcond=_RCOND)[0]
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
        cs.curvature.ricci[None], cs.alpha.comps[None], cs.m, cs.epsilon, tol)
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
    alpha = cs.alpha.comps
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


# samples per batched contact map and SVD in scan_family; a chunk's bracket
# tables are the only per-sample data held at once
SCAN_CHUNK = 256
# directions sampled on a quadric circle or cone in scan_family
N_DIRS = 8


def _contact_maps(c: np.ndarray, m: FrameMetric, orientation: int) -> np.ndarray:
    """Matrices of alpha -> *alpha - s_g d(alpha) on one-form components, for
    bracket tables c of shape (..., 3, 3, 3)."""
    basis = np.eye(3)
    star = hodge_components(basis, m.signs, 1, orientation)  # row i: *e^i
    d = d_components(basis, c[..., None, :, :, :], 1)  # [..., i, :]: d e^i
    return star.T - m.s_g * np.swapaxes(d, -1, -2)


def _contact_map(sc, m: FrameMetric, orientation: int) -> np.ndarray:
    """Matrix of alpha -> *alpha - s_g d(alpha) on one-form components."""
    return _contact_maps(sc.c, m, orientation)


def _nullspace_rows(mats: np.ndarray, tol: float):
    """(keep, vt) for matrices (..., 3, 3): the rows vt[..., keep, :] span
    each nullspace."""
    _, s, vt = np.linalg.svd(mats)
    scale = np.maximum(1.0, s[..., 0])
    return s <= 1e3 * tol * scale[..., None], vt


def _nullspace(mat: np.ndarray, tol: float) -> np.ndarray:
    keep, vt = _nullspace_rows(mat, tol)
    return vt[keep].T  # columns span the nullspace


def _norm_sign_fix(v: np.ndarray) -> np.ndarray:
    v = v / np.linalg.norm(v)
    for comp in v:
        if abs(comp) > 1e-12:
            return v if comp > 0 else -v
    return v


def _quadric_candidates(basis: np.ndarray, m: FrameMetric, eps: int, n_dirs: int) -> list:
    """Representatives of { alpha in span(basis) : |alpha|^2 = eps }."""
    eta = m.eta
    r = basis.shape[1]
    out = []
    if r == 0:
        return out

    def norm2(v):
        return float(np.sum(eta * v * v))

    # directions with |v|^2_g below this (relative to the Euclidean norm) are
    # treated as null; rescaling them to |alpha|^2 = +-1 would blow the
    # components far beyond the O(1) range the tolerances are calibrated for
    null_cut = 1e-9

    if r == 1:
        v = basis[:, 0]
        q = norm2(v)
        if eps == 0:
            if abs(q) <= null_cut * float(np.dot(v, v)):
                out.append(_norm_sign_fix(v))
        elif q * eps > null_cut * float(np.dot(v, v)):
            out.append(v * math.sqrt(eps / q))
    elif r == 2:
        v1, v2 = basis[:, 0], basis[:, 1]
        a = norm2(v1)
        b = float(np.sum(eta * v1 * v2))
        c = norm2(v2)
        if eps == 0:
            # isotropic directions of Q(t, 1) = a t^2 + 2 b t + c on t v1 + v2
            scale = max(abs(a), abs(b), abs(c), 1e-300)
            ztol = 1e-11 * scale
            if abs(a) > ztol:
                disc = b * b - a * c
                if disc >= -ztol * scale:
                    disc = max(disc, 0.0)
                    for root in sorted({(-b + math.sqrt(disc)) / a, (-b - math.sqrt(disc)) / a}):
                        out.append(_norm_sign_fix(root * v1 + v2))
            else:
                out.append(_norm_sign_fix(v1))  # Q(1, 0) = a ~ 0
                if abs(b) > ztol:
                    out.append(_norm_sign_fix(-c / (2 * b) * v1 + v2))
                elif abs(c) <= ztol:
                    out.append(_norm_sign_fix(v2))
        else:
            for k in range(n_dirs):
                theta = math.pi * k / n_dirs
                v = math.cos(theta) * v1 + math.sin(theta) * v2
                q = norm2(v)
                if q * eps > null_cut * float(np.dot(v, v)):
                    out.append(v * math.sqrt(eps / q))
    else:  # r == 3: every one-form solves the linear condition
        if m.s_g == 1:
            if eps == 1:
                for k in range(n_dirs):
                    theta = 2 * math.pi * k / n_dirs
                    out.append(np.array([math.cos(theta), math.sin(theta), 0.0]))
                out.append(np.array([0.0, 0.0, 1.0]))
        else:
            for k in range(n_dirs):
                theta = 2 * math.pi * k / n_dirs
                ct, st = math.cos(theta), math.sin(theta)
                if eps == 0:
                    out.append(np.array([1.0, ct, st]))
                elif eps == -1:
                    for uu in (0.0, 0.75):
                        out.append(
                            np.array([math.cosh(uu), math.sinh(uu) * ct, math.sinh(uu) * st])
                        )
                else:
                    for uu in (0.0, 0.75):
                        out.append(
                            np.array([math.sinh(uu), math.cosh(uu) * ct, math.cosh(uu) * st])
                        )
    # deduplicate near-parallel representatives
    unique = []
    for v in out:
        if not any(np.max(np.abs(v - w)) < 1e-10 for w in unique):
            unique.append(v)
    return unique


def default_grid(points: int = 21, lo: float = -3.0, hi: float = 3.0) -> np.ndarray:
    return np.linspace(lo, hi, points)


def family_samples(family_id: str, grid: np.ndarray, tol: float) -> Iterable[dict]:
    """Deterministic parameter samples over the family's sampling sheets
    (liealg.FAMILIES), the grid on each free axis, solving the family's
    algebraic constraint where it has one."""
    g = [float(x) for x in grid]
    fam = FAMILIES[family_id]
    for sheet in fam.sheets:
        for values in itertools.product(*(g if v is None else v for v in sheet.axes.values())):
            point = dict(zip(sheet.axes, values))
            if sheet.keep(tol=tol, **point):
                point.update(sheet.solve(**point))
                yield {k: point[k] for k in fam.params}


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

    Samples are taken SCAN_CHUNK at a time, and each step runs once per
    chunk on stacked arrays: one family_tables call gives the bracket tables
    and constraint mask, one SVD call per orientation solves the contact
    maps, the quadric candidates of all samples with a nontrivial nullspace
    go through one stacked check_contact, the Ricci tensor of each sample
    left with a candidate of the wanted epsilon is computed once, and the
    fits of all those candidates are taken together. Only the candidates are
    drawn per sample and the 6x2 least-squares solve runs per candidate. No
    ContactStructure or Form is built.
    """
    tol = get_tol(tol)
    if grid is None:
        grid = default_grid()
    fam = FAMILIES[family_id]
    m = fam.metric
    if m.s_g == 1 and epsilon != 1:
        return []
    hits = []
    samples = family_samples(family_id, grid, tol)
    while batch := list(itertools.islice(samples, SCAN_CHUNK)):
        c, ok = family_tables(family_id, {k: [p[k] for p in batch] for k in fam.params}, tol)
        valid = np.flatnonzero(ok)
        if not valid.size:
            continue
        c = c[valid]
        solved = [(orientation, *_nullspace_rows(_contact_maps(c, m, orientation), tol))
                  for orientation in orientations]
        rows = [
            (n, orientation, alpha_c)
            for n in np.flatnonzero(np.any([keep.any(axis=-1) for _, keep, _ in solved], axis=0))
            for orientation, keep, vt in solved  # rows vt[n][keep[n]] span the nullspace
            for alpha_c in _quadric_candidates(vt[n][keep[n]].T, m, epsilon, N_DIRS)
        ]
        if not rows:
            continue
        sample, orientation, alpha = (np.array(x) for x in zip(*rows))
        checked = check_contact(c[sample], m, orientation, alpha, tol=1e-7)
        match = np.flatnonzero(checked.ok & (checked.eps == epsilon))
        if not match.size:
            continue
        sample, orientation, alpha = sample[match], orientation[match], alpha[match]
        distinct, which = np.unique(sample, return_inverse=True)
        c_distinct = c[distinct]
        ric = curvature_components(koszul_components(c_distinct, m.eta), c_distinct,
                                   m.eta)[1][which]
        fits = _fit_rows(ric, alpha, m, epsilon, tol)
        for k in np.flatnonzero(fits[3]):
            fit = EtaEinsteinFit(*(x[k].item() for x in fits))
            hits.append(ScanHit(family_id, dict(batch[valid[sample[k]]]), int(orientation[k]),
                                tuple(alpha[k]), fit))
    return hits

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
from typing import Iterable, Mapping

import numpy as np

from .config import get_tol
from .contact import ContactStructure, check_contact
from .errors import (
    Inadmissible,
    NotContact,
    NotEtaEinstein,
    WrongCausalType,
)
from .exterior import FrameMetric, d_components, hodge_components, one_form
from .liealg import FAMILIES, FamilySpec, StructureConstants, family_tables


@dataclass(frozen=True)
class EtaEinsteinFit:
    lambda2: float
    kappa: float
    residual: float
    admissible: bool


# the six independent components (i <= j) of a symmetric 3x3 tensor, row by row
_IU = np.triu_indices(3)


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
    ric = cs.curvature.ricci
    sg = cs.s_g
    eps = cs.epsilon
    g = np.diag(cs.m.eta)
    aa = np.outer(cs.alpha.comps, cs.alpha.comps)
    rows = np.column_stack([0.5 * sg * g[_IU], 0.5 * sg * eps * g[_IU] - sg * aa[_IU]])
    sol, *_ = np.linalg.lstsq(rows, ric[_IU], rcond=None)
    lambda2, kappa = float(sol[0]), float(sol[1])
    if abs(lambda2) <= tol:
        lambda2 = abs(lambda2)
    model = 0.5 * sg * (lambda2 + kappa * eps) * g - sg * kappa * aa
    residual = float(np.max(np.abs(ric - model)))
    admissible = bool(
        residual <= tol and lambda2 >= 0.0 and (kappa >= -tol if sg == -1 else True)
    )
    if require:
        if residual > tol:
            raise NotEtaEinstein(residual)
        if lambda2 < 0.0 or (sg == -1 and kappa < -tol):
            raise Inadmissible(f"lambda^2={lambda2:.6g}, kappa={kappa:.6g}")
    return EtaEinsteinFit(lambda2, kappa, residual, admissible)


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
    n_dirs: int = 8,
) -> list:
    """Scan a family's parameter grid for eta-Einstein contact structures.

    At every sample the contact condition (linear in alpha) is solved exactly
    via the nullspace of alpha -> *alpha - s_g d(alpha), intersected with the
    quadric |alpha|^2 = epsilon; each candidate is fitted and admissible hits
    are returned. An empty list is a valid result.

    Samples are taken SCAN_CHUNK at a time: one family_tables call gives the
    chunk's bracket tables and constraint mask, its contact maps are solved
    by one SVD call per orientation, and only samples with a nontrivial
    nullspace get a FamilySpec and StructureConstants and go on to the
    per-sample candidate, contact and fit steps.
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
        for n in np.flatnonzero(np.any([keep.any(axis=-1) for _, keep, _ in solved], axis=0)):
            params = batch[valid[n]]
            spec, sc = FamilySpec(family_id, params), StructureConstants.unchecked(c[n].copy())
            for orientation, keep, vt in solved:  # rows vt[n][keep[n]] span the nullspace
                for alpha_c in _quadric_candidates(vt[n][keep[n]].T, m, epsilon, n_dirs):
                    try:
                        cs = check_contact(sc, m, orientation, one_form(alpha_c), tol=1e-7,
                                           spec=spec)
                    except NotContact:
                        continue
                    if cs.epsilon != epsilon:
                        continue
                    fit = fit_eta_einstein(cs, tol=tol)
                    if fit.admissible:
                        hits.append(
                            ScanHit(family_id, dict(params), orientation, tuple(alpha_c), fit)
                        )
    return hits

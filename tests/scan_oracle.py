"""Per-sample reference pieces of the scan: the contact nullspace of one
bracket table (einstein's contact map, then a plain np.linalg.svd with the
scan's cut, sharing no code with einstein's full-rank test), and, as plain
loops that share no code with einstein's stacked drawer and solve, the
quadric candidates of one nullspace basis and the eta-Einstein fit of one
structure through the public np.linalg.lstsq."""

import math

import numpy as np

from epscontact.einstein import EtaEinsteinFit, _contact_maps


def svd_nullspace_rows(mats: np.ndarray, tol: float) -> tuple:
    """(keep, vt) of a plain SVD of matrices (..., 3, 3): the rows
    vt[..., keep, :] whose singular value is at most 1e3 tol max(1, s_1)."""
    _, s, vt = np.linalg.svd(mats)
    return s <= 1e3 * tol * np.maximum(1.0, s[..., :1]), vt


def nullspace_basis(c, m, orientation: int, tol: float) -> np.ndarray:
    """Columns spanning the nullspace of alpha -> *alpha - s_g d(alpha) of
    one bracket table c."""
    keep, vt = svd_nullspace_rows(_contact_maps(c, m, (orientation,))[0], tol)
    return vt[keep].T


def norm_sign_fix(v: np.ndarray) -> np.ndarray:
    v = v / np.linalg.norm(v)
    for comp in v:
        if abs(comp) > 1e-12:
            return v if comp > 0 else -v
    return v


def quadric_candidates(basis: np.ndarray, m, eps: int, n_dirs: int) -> list:
    """Representatives of { alpha in span(basis) : |alpha|^2 = eps }."""
    eta = m.eta
    r = basis.shape[1]
    out = []
    if r == 0:
        return out

    def norm2(v):
        return float(np.sum(eta * v * v))

    # directions with |v|^2_g below this (relative to the Euclidean norm) are
    # treated as null
    null_cut = 1e-9

    if r == 1:
        v = basis[:, 0]
        q = norm2(v)
        if eps == 0:
            if abs(q) <= null_cut * float(np.dot(v, v)):
                out.append(norm_sign_fix(v))
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
                        out.append(norm_sign_fix(root * v1 + v2))
            else:
                out.append(norm_sign_fix(v1))  # Q(1, 0) = a ~ 0
                if abs(b) > ztol:
                    out.append(norm_sign_fix(-c / (2 * b) * v1 + v2))
                elif abs(c) <= ztol:
                    out.append(norm_sign_fix(v2))
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


def fit_one(cs, tol: float) -> EtaEinsteinFit:
    """The eta-Einstein fit of one contact structure: (lambda^2, kappa) by
    np.linalg.lstsq over the six independent Ricci components, then the
    full-tensor residual and the admissibility signs."""
    m, eps = cs.m, cs.epsilon
    ric, alpha = cs.ricci, cs.alpha
    iu = np.triu_indices(3)
    half_g = 0.5 * m.s_g * np.diag(m.eta)
    aa = np.outer(alpha, alpha)
    design = np.column_stack([half_g[iu], eps * half_g[iu] - m.s_g * aa[iu]])
    lambda2, kappa = np.linalg.lstsq(design, ric[iu], rcond=None)[0]
    lambda2 = math.copysign(lambda2, lambda2 + tol)  # |lambda2| where it is within tol of 0
    model = (lambda2 + kappa * eps) * half_g - (m.s_g * kappa) * aa
    residual = float(np.max(np.abs(ric - model)))
    admissible = residual <= tol and lambda2 >= 0.0 and (m.s_g == 1 or kappa >= -tol)
    return EtaEinsteinFit(float(lambda2), float(kappa), residual, bool(admissible))

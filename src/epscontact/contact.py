"""Contact metric structures on three-dimensional Lie groups with Reeb field
of any causal type (time-like, space-like, or null), and their derived
objects: characteristic endomorphism phi, h = L_xi phi, tau = h o phi,
l(v) = R(v, xi)xi, adapted frames, Sasakian / K-contact tests, and the
nilpotent J-endomorphism of the null case with its Nijenhuis tensor.

Endomorphisms are 3x3 (4x4 for J) matrices acting on frame-component column
vectors: (E v)^i = sum_j E[i][j] v^j.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .config import get_tol
from .errors import (
    DecompositionFailure,
    EigenFailure,
    NotContact,
    NotEtaEinstein,
    WrongCausalType,
)
from .exterior import (
    FrameMetric,
    antisymmetric_array,
    d_components,
    hodge_components,
    interior_components,
    pairing_components,
)
from .curvature import ConnectionCoeffs, CurvatureTensors, levi_civita, riemann_ricci
from .liealg import (FamilySpec, StructureConstants, direct_sum, family_metric, make_family,
                     zero_algebra)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ContactStructure:
    """A verified contact structure (alpha = *d alpha, |alpha|^2 = epsilon).

    The data the structure determines (xi, phi, the Levi-Civita connection,
    its curvature, h and the adapted frame) is computed on first use by the
    module's functions and kept in read-only arrays. alpha holds the frame
    components of the one-form, read-only.
    """

    sc: StructureConstants
    m: FrameMetric
    orientation: int
    alpha: np.ndarray
    epsilon: int
    spec: Optional[FamilySpec] = None

    @property
    def s_g(self) -> int:
        return self.m.s_g

    @cached_property
    def xi(self) -> np.ndarray:
        """Reeb field: the metric dual of alpha."""
        return _read_only(self.m.eta * self.alpha)

    @cached_property
    def phi(self) -> np.ndarray:
        return _read_only(characteristic_endo(self))

    @cached_property
    def connection(self) -> ConnectionCoeffs:
        return levi_civita(self.sc, self.m)

    @cached_property
    def curvature(self) -> CurvatureTensors:
        curv = riemann_ricci(self.connection, self.sc, self.m)
        _read_only(curv.riemann)
        _read_only(curv.ricci)
        return curv

    @cached_property
    def h(self) -> np.ndarray:
        """h = L_xi phi = ad_xi phi - phi ad_xi on the frame."""
        ad = self.sc.ad(self.xi)
        return _read_only(ad @ self.phi - self.phi @ ad)

    @cached_property
    def mu(self) -> Optional[float]:
        """g(u, h u) for a null structure (the factor of h = mu xi (x) alpha
        when h factors); None when epsilon != 0."""
        if self.epsilon != 0:
            return None
        _, u, _ = self.frame
        return float(self.metric_dot(u, self.h @ u))

    @cached_property
    def frame(self) -> tuple:
        """Adapted frame (xi, u, phi(u)); see contact_frame."""
        return tuple(_read_only(v) for v in contact_frame(self))

    def metric_dot(self, u, v) -> float:
        return float(np.sum(self.m.eta * np.asarray(u) * np.asarray(v)))

    def to_json(self) -> str:
        import json

        data = {
            "orientation": self.orientation,
            "alpha": [float(x) for x in self.alpha],
            "epsilon": self.epsilon,
        }
        if self.spec is not None:
            data["family"] = self.spec.family_id
            data["params"] = dict(self.spec.params)
        return json.dumps(data, sort_keys=True)


def build_contact(spec: FamilySpec, alpha, orientation: Optional[int] = None,
                  tol: float | None = None) -> ContactStructure:
    """The verified contact structure of a family instance with the one-form
    alpha (frame components). orientation None tries +1, then -1, and
    raises the NotContact of -1."""
    tol = get_tol(tol)
    sc, m = make_family(spec, tol=tol), family_metric(spec.family_id)
    if orientation is None:
        # a NotContact kept in a local would form a cycle with its traceback
        # and hold the failed attempt's arrays until the next garbage collection
        try:
            return check_contact(sc, m, 1, alpha, tol=tol, spec=spec)
        except NotContact:
            orientation = -1
    return check_contact(sc, m, orientation, alpha, tol=tol, spec=spec)


# the conditions check_contact tests, in this order
CONTACT_CONDITIONS = (
    "alpha != 0",
    "alpha = *d(alpha)",
    "|alpha|^2 in {-1, 0, +1}",
    "Riemannian signature forces epsilon = +1",
)


class ContactRows(NamedTuple):
    """A stacked contact check: fails[k] marks the rows failing condition k of
    CONTACT_CONDITIONS. norm and res are max |alpha| and the residual of
    alpha = *d(alpha); eps is |alpha|^2 = n2 rounded to an integer (a
    float), off is |n2 - eps|."""

    fails: np.ndarray
    norm: np.ndarray
    res: np.ndarray
    n2: np.ndarray
    eps: np.ndarray
    off: np.ndarray

    @property
    def ok(self) -> np.ndarray:
        """Rows that are contact structures."""
        return ~self.fails.any(axis=0)

    @property
    def failed(self) -> np.ndarray:
        """Per row, the index of the first failed condition; -1 where none fails."""
        return np.where(self.ok, -1, self.fails.argmax(axis=0))

    @property
    def residuals(self) -> tuple:
        """Per condition, its residual on every row."""
        # an overflowed |alpha|^2 reports itself
        norm2 = np.where(np.isfinite(self.n2), self.off, np.abs(self.n2))
        return self.norm, self.res, norm2, self.eps


def _contact_rows(c: np.ndarray, m: FrameMetric, orientation, alpha: np.ndarray,
                  tol: float) -> ContactRows:
    """The contact conditions on stacked one-forms alpha (..., 3) over bracket
    tables c (..., 3, 3, 3) and orientations; the batch axes broadcast."""
    # non-finite values end as failed conditions, not as numpy warnings; every
    # row runs every condition, and a row is reported by its first failure
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.abs(alpha).max(axis=-1)
        star_dalpha = hodge_components(d_components(alpha, c, 1), m.signs, 2, orientation)
        res = np.abs(alpha - star_dalpha).max(axis=-1)
        n2 = pairing_components(alpha, alpha, m.signs, 1)
        eps = np.rint(n2)
        off = np.abs(n2 - eps)  # NaN where |alpha|^2 overflowed
        fails = np.array([
            norm <= tol,
            ~(res <= tol),  # a NaN residual fails too
            (np.abs(eps) > 1.0) | ~(off <= tol),
            (m.s_g == 1) & (eps != 1.0),
        ])
    return ContactRows(fails, norm, res, n2, eps, off)


def check_contact(
    sc: StructureConstants | np.ndarray,
    m: FrameMetric,
    orientation,
    alpha,
    tol: float | None = None,
    spec: Optional[FamilySpec] = None,
) -> ContactStructure | ContactRows:
    """Verify alpha = *d alpha and |alpha|^2 in {-1, 0, +1} for the one-form
    with frame components alpha (3,); returns the structure with epsilon
    computed from the norm.

    Raises NotContact naming the failed condition and its residual.

    Stacked form: with sc an array of bracket tables (..., 3, 3, 3), alpha
    an array of one-form components (..., 3) and orientation a sign or an
    array of signs, every row is checked at once and a ContactRows is
    returned instead; no structure is built and nothing is raised for a
    row that is not contact.
    """
    tol = get_tol(tol)
    if not isinstance(sc, StructureConstants):
        c, alpha = np.asarray(sc, dtype=float), np.asarray(alpha, dtype=float)
        if m.dim != 3 or c.shape[-3:] != (3, 3, 3) or alpha.shape[-1:] != (3,):
            raise ValueError("contact structures are three-dimensional here")
        return _contact_rows(c, m, orientation, alpha, tol)
    if sc.dim != 3 or m.dim != 3:
        raise ValueError("contact structures are three-dimensional here")
    alpha = np.array(alpha, dtype=float)
    if alpha.shape != (3,):
        raise ValueError(f"alpha must be a one-form of 3 components, got shape {alpha.shape}")
    rows = _contact_rows(sc.c, m, orientation, alpha, tol)
    if rows.fails.any():
        k = int(rows.fails.argmax())  # the first failed condition
        raise NotContact(CONTACT_CONDITIONS[k], float(rows.residuals[k]))
    return ContactStructure(sc, m, int(orientation), _read_only(alpha), int(rows.eps), spec)


def characteristic_endo(cs: ContactStructure) -> np.ndarray:
    """phi(v) = -s_g (iota_v * alpha)^sharp as a frame matrix."""
    star_alpha = hodge_components(cs.alpha, cs.m.signs, 1, cs.orientation)
    rows = interior_components(np.eye(3), star_alpha, 2)  # row j: iota_{e_j} *alpha
    return np.ascontiguousarray((-cs.s_g * (cs.m.eta * rows)).T)


def lie_derivative_metric(cs: ContactStructure, v: np.ndarray) -> np.ndarray:
    """(L_v g)(e_i, e_j) = -g([v, e_i], e_j) - g(e_i, [v, e_j]) on the frame,
    that is -(ad_v^T G + G ad_v) with G = diag(eta)."""
    ad, g = cs.sc.ad(v), np.diag(cs.m.eta)
    return -(ad.T @ g + g @ ad)


def h_tensor(cs: ContactStructure, tol: float | None = None):
    """h = L_xi phi on the frame; for a null structure also the factor mu
    of the decomposition h = mu xi (x) alpha.

    Returns (matrix, mu) with mu = None when epsilon != 0.
    """
    tol = get_tol(tol)
    h = cs.h
    if cs.epsilon != 0:
        return h, None
    mu = cs.mu
    model = mu * np.outer(cs.xi, cs.alpha)
    res = float(np.max(np.abs(h - model)))
    if res > max(tol, 1e2 * tol * max(1.0, abs(mu))):
        raise DecompositionFailure(
            f"null h-tensor is not mu xi (x) alpha (residual {res:.3e})"
        )
    return h, mu


def _ker_alpha_basis(cs: ContactStructure) -> np.ndarray:
    """Columns b_1, b_2: a basis of ker(alpha) (eps != 0) with g(b_p, b_q) =
    +-delta_pq.

    Deterministic: Gram-Schmidt on the projections of (e_1, e_2, e_0) to
    ker(alpha), skipping null ones; when fewer than two non-null directions
    turn up, the restricted metric is diagonalized over an orthonormal basis
    of ker(alpha) instead.
    """
    eta, alpha = cs.m.eta, cs.alpha
    proj = np.eye(3) - np.outer(cs.xi, alpha) / cs.epsilon  # column i: e_i projected
    basis = []
    for v in proj[:, [1, 2, 0]].T:
        for w in basis:
            v = v - (np.sum(eta * v * w) / np.sum(eta * w * w)) * w
        nrm = float(np.sum(eta * v * v))
        if np.linalg.norm(v) > 1e-12 and abs(nrm) > 1e-12 * float(np.dot(v, v)):
            basis.append(v / np.sqrt(abs(nrm)))
        if len(basis) == 2:
            return np.column_stack(basis)
    ker = np.linalg.svd(alpha.reshape(1, 3))[2][1:].T  # columns span ker(alpha)
    evals, evecs = np.linalg.eigh(ker.T @ np.diag(eta) @ ker)
    return ker @ evecs / np.sqrt(np.abs(evals))


def _lead_positive(v: np.ndarray) -> np.ndarray:
    """Each row of v (..., n) or its negative, whichever has its first
    component above 1e-12 in size positive."""
    big = np.abs(v) > 1e-12
    first = np.take_along_axis(v, big.argmax(axis=-1)[..., None], axis=-1)[..., 0]
    return np.where((big.any(axis=-1) & (first < 0))[..., None], -v, v)


def contact_frame(cs: ContactStructure):
    """Adapted frame (xi, u, phi(u)) with g(u,u) = s_g eps, g(u,xi) = 1 - eps^2.

    Deterministic tie-break: for eps != 0, u is the first vector of the
    ker(alpha) basis (see _ker_alpha_basis) whose norm has the required sign;
    for eps = 0, u is the unique null vector with g(u, xi) = 1 lying in the
    span of the sign-flipped dual of alpha.
    """
    xi, alpha, eps = cs.xi, cs.alpha, cs.epsilon
    if eps == 0:
        u = alpha / float(np.sum(alpha * alpha))  # componentwise dual: null iff alpha is
    else:
        b = _ker_alpha_basis(cs)
        fits = np.sign(cs.m.eta @ (b * b)) == np.sign(cs.s_g * eps)
        if not fits.any():
            raise WrongCausalType("no frame vector of the required causal type in ker(alpha)")
        u = _lead_positive(b[:, np.argmax(fits)])
    return xi, u, cs.phi @ u


def is_sasakian(cs: ContactStructure, tol: float | None = None) -> bool:
    """h = 0."""
    tol = get_tol(tol)
    h, _ = h_tensor(cs, tol=tol)
    return float(np.max(np.abs(h))) <= tol


def is_k_contact(cs: ContactStructure, tol: float | None = None):
    """Whether the Reeb field is Killing; witness is max |(L_xi g)(e_i, e_j)|."""
    tol = get_tol(tol)
    witness = float(np.max(np.abs(lie_derivative_metric(cs, cs.xi))))
    return witness <= tol, witness


def k_contact_null_witness(cs: ContactStructure) -> float:
    """Light-cone shortcut for Sasakian null structures: g([xi, u], u),
    which vanishes iff the structure is K-contact."""
    if cs.epsilon != 0:
        raise WrongCausalType("light-cone witness requires a null Reeb field")
    xi, u, _ = cs.frame
    return float(cs.metric_dot(cs.sc.bracket(xi, u), u))


def _j_and_frame(cs: ContactStructure):
    """J = [[phi, xi], [alpha, 0]], the matrix of J(v + c dq) = phi(v) + c xi
    + alpha(v) dq on R^3 + R(dq), and P, whose columns are (xi, u, phi(u), dq)."""
    if cs.epsilon != 0:
        raise WrongCausalType("J is defined for null structures")
    j, p = np.zeros((4, 4)), np.eye(4)
    j[:3, :3], j[:3, 3], j[3, :3] = cs.phi, cs.xi, cs.alpha
    p[:3, :3] = np.column_stack(cs.frame)
    return j, p


def j_endo_matrix(cs: ContactStructure) -> np.ndarray:
    """Matrix P^-1 J P of J in the frame (xi, u, phi(u), dq); constant for
    every null structure: columns (0, (0,0,1,1), (-1,0,0,0), (1,0,0,0))."""
    j, p = _j_and_frame(cs)
    return np.linalg.solve(p, j @ p)


def nijenhuis_J(cs: ContactStructure, tol: float | None = None):
    """Nijenhuis tensor of J on the frame (xi, u, phi(u), dq).

    Returns (max-abs of N_J over all frame pairs, whether ker J is involutive).
    N_J vanishes iff the structure is Sasakian.
    """
    tol = get_tol(tol)
    j, p = _j_and_frame(cs)
    br = direct_sum(cs.sc, zero_algebra(1)).bracket  # dq is central
    max_nj = max(
        float(np.max(np.abs(br(j @ x, j @ y) - j @ br(x, j @ y) - j @ br(j @ x, y))))
        for x, y in itertools.combinations(p.T, 2)
    )
    # ker J = span{xi, phi(u) + dq}; involutive iff [xi, phi(u)] lies in the span
    xi, _, phiu = cs.frame
    coeffs = np.linalg.solve(p[:3, :3], cs.sc.bracket(xi, phiu))
    involutive = bool(abs(coeffs[1]) <= tol and abs(coeffs[2]) <= tol)
    return max_nj, involutive


def l_endo(cs: ContactStructure) -> np.ndarray:
    """l(v) = R(v, xi) xi via the Levi-Civita curvature."""
    xi = cs.xi
    # l[m][j] = R[j, a, b, m] xi^a xi^b
    return np.einsum("jabm,a,b->mj", cs.curvature.riemann, xi, xi)


def reeb_gradient(cs: ContactStructure) -> np.ndarray:
    """Matrix of v -> nabla_v xi on the frame."""
    return np.einsum("jik,i->kj", cs.connection.gamma, cs.xi)


def contact_identity_residuals(cs: ContactStructure) -> dict:
    """Residuals of the structural identities every contact structure obeys
    (plus the null-case extras when epsilon = 0); all should be ~0."""
    sg, eps, alpha, xi, phi = cs.s_g, cs.epsilon, cs.alpha, cs.xi, cs.phi
    g, eye, ad = np.diag(cs.m.eta), np.eye(3), cs.sc.ad(xi)
    h, mu = h_tensor(cs)
    tau = h @ phi
    dmat = np.einsum("j,jik->ki", xi, cs.connection.gamma)  # v -> nabla_xi v on the frame
    res = {
        "g_phi_is_dalpha": g @ phi - antisymmetric_array(d_components(alpha, cs.sc.c, 1), 3, 2),
        "phi_xi": phi @ xi,
        "alpha_phi": alpha @ phi,
        "phi_squared": phi @ phi - sg * (-eps * eye + np.outer(xi, alpha)),
        # g(phi . , phi .) = s_g (eps g - alpha (x) alpha)
        "phi_isometry": phi.T @ g @ phi - sg * (eps * g - np.outer(alpha, alpha)),
        "phi_skew": g @ phi + phi.T @ g,
        "nabla_xi_xi": dmat @ xi,
        "nabla_xi_phi": dmat @ phi - phi @ dmat,
        "h_xi": h @ xi,
        "l_xi": l_endo(cs) @ xi,
        "trace_h": np.trace(h),
        "trace_tau": np.trace(tau),
        "h_phi_anticommute": h @ phi + phi @ h,
        "lie_xi_alpha": -alpha @ ad,
        "h_symmetric": g @ h - (g @ h).T,
        "tau_symmetric": g @ tau - (g @ tau).T,
        # 2 phi(nabla xi) = h + s_g (eps Id - xi (x) alpha)
        "reeb_gradient_eq": 2.0 * phi @ reeb_gradient(cs) - h
        - sg * (eps * eye - np.outer(xi, alpha)),
    }
    if eps != 0:
        ric_xixi = xi @ cs.curvature.ricci @ xi
        res["ricci_reeb"] = ric_xixi - eps * sg * (0.5 - 0.25 * np.trace(h @ h))
    else:
        res.update(phi_cubed=phi @ phi @ phi, phi_h=phi @ h, h_phi=h @ phi, tau_null=tau)
        # light-cone bracket pattern: the frame coefficients of [xi, u],
        # [xi, phi(u)] and [u, phi(u)]
        _, u, phiu = cs.frame
        c1, c2, c3 = np.linalg.solve(
            np.column_stack(cs.frame),
            np.column_stack([ad @ u, ad @ phiu, cs.sc.bracket(u, phiu)]),
        ).T
        res["lightcone_brackets"] = np.array([
            c1[1],                 # [xi,u] has no u part
            c2[1], c2[2],          # [xi,phi(u)] proportional to xi
            c2[0] - (mu - c1[2]),  # with coefficient mu - c
            c3[1] - 1.0,           # [u,phi(u)] = e xi + u + f phi(u)
        ])
    return {name: float(np.max(np.abs(r))) for name, r in res.items()}


def timelike_special_frame(cs: ContactStructure, tol: float | None = None):
    """Orthonormal frame (xi, X, phi(X)) with h(X) = mu X for a time-like
    eta-Einstein structure; mu = sqrt(1 - (lambda^2 + kappa)) >= 0.

    Returns (xi, X, phi(X), mu).
    """
    from .einstein import fit_eta_einstein  # local import avoids a module cycle

    tol = get_tol(tol)
    if cs.epsilon != -1:
        raise WrongCausalType("the special frame requires a time-like Reeb field")
    fit = fit_eta_einstein(cs, tol=tol)
    if not fit.admissible:
        raise NotEtaEinstein(fit.residual)
    mu = float(np.sqrt(max(0.0, 1.0 - (fit.lambda2 + fit.kappa))))
    b = _ker_alpha_basis(cs)  # g-orthonormal: ker(alpha) is space-like here
    s = b.T @ np.diag(cs.m.eta) @ cs.h @ b  # g(b_p, h b_q)
    evals, evecs = np.linalg.eigh(0.5 * (s + s.T))
    if max(abs(evals[0] + evals[1]), abs(evals[1] - mu)) > max(100 * tol, 1e-12):
        raise EigenFailure(f"h spectrum {evals.tolist()} does not match +-mu with mu={mu:.6g}")
    x = _lead_positive(b @ evecs[:, 1])
    return cs.xi, x, cs.phi @ x, mu

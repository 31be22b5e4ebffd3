"""Contact metric structures on three-dimensional Lie groups with Reeb field
of any causal type (time-like, space-like, or null), and their derived
objects: characteristic endomorphism phi, h = L_xi phi, tau = h o phi,
l(v) = R(v, xi)xi, adapted frames, Sasakian / K-contact tests, and the
nilpotent J-endomorphism of the null case with its Nijenhuis tensor.

Endomorphisms are 3x3 (4x4 for J) matrices acting on frame-component column
vectors: (E v)^i = sum_j E[i][j] v^j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

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
    Form,
    FrameMetric,
    hodge,
    hodge_components,
    interior_components,
    mc_differential,
    one_form,
    pairing_full,
    sharp,
)
from .curvature import ConnectionCoeffs, CurvatureTensors, levi_civita, riemann_ricci
from .liealg import FamilySpec, StructureConstants, family_metric, make_family


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ContactStructure:
    """A verified contact structure (alpha = *d alpha, |alpha|^2 = epsilon).

    The data the structure determines (xi, phi, the Levi-Civita connection,
    its curvature, h and the adapted frame) is computed on first use by the
    module's functions and kept in read-only arrays.
    """

    sc: StructureConstants
    m: FrameMetric
    orientation: int
    alpha: Form
    epsilon: int
    spec: Optional[FamilySpec] = None

    @property
    def s_g(self) -> int:
        return self.m.s_g

    @cached_property
    def xi(self) -> np.ndarray:
        """Reeb field: the metric dual of alpha."""
        return _read_only(sharp(self.alpha, self.m))

    def reeb(self) -> np.ndarray:
        return self.xi

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
        """h = L_xi phi on the frame."""
        xi, phi = self.xi, self.phi
        cols = []
        for j in range(3):
            ej = np.eye(3)[j]
            cols.append(self.sc.bracket(xi, phi @ ej) - phi @ self.sc.bracket(xi, ej))
        return _read_only(np.column_stack(cols))

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
            "alpha": [float(x) for x in self.alpha.comps],
            "epsilon": self.epsilon,
        }
        if self.spec is not None:
            data["family"] = self.spec.family_id
            data["params"] = dict(self.spec.params)
        return json.dumps(data, sort_keys=True)


def contact_from_json(text: str, tol: float | None = None) -> ContactStructure:
    import json

    data = json.loads(text)
    return build_contact(FamilySpec(data["family"], data["params"]), data["alpha"],
                         data["orientation"], tol=tol)


def build_contact(spec: FamilySpec, alpha, orientation: Optional[int] = None,
                  tol: float | None = None) -> ContactStructure:
    """The verified contact structure of a family instance with the one-form
    alpha (frame components). orientation None tries +1, then -1, and
    re-raises the last NotContact."""
    tol = get_tol(tol)
    sc, m, form = make_family(spec, tol=tol), family_metric(spec.family_id), one_form(alpha)
    for sign in (1, -1) if orientation is None else (orientation,):
        try:
            return check_contact(sc, m, sign, form, tol=tol, spec=spec)
        except NotContact as exc:
            last = exc
    raise last


def check_contact(
    sc: StructureConstants,
    m: FrameMetric,
    orientation: int,
    alpha: Form,
    tol: float | None = None,
    spec: Optional[FamilySpec] = None,
) -> ContactStructure:
    """Verify alpha = *d alpha and |alpha|^2 in {-1, 0, +1}; returns the
    structure with epsilon computed from the norm.

    Raises NotContact naming the failed condition and its residual.
    """
    tol = get_tol(tol)
    if sc.dim != 3 or m.dim != 3:
        raise ValueError("contact structures are three-dimensional here")
    if alpha.degree != 1:
        raise ValueError("alpha must be a one-form")
    norm_alpha = alpha.max_abs()
    if norm_alpha <= tol:
        raise NotContact("alpha != 0", norm_alpha)
    star_dalpha = hodge(mc_differential(alpha, sc), m, orientation)
    res = (alpha - star_dalpha).max_abs()
    if not res <= tol:  # a NaN residual fails too
        raise NotContact("alpha = *d(alpha)", res)
    n2 = pairing_full(alpha, alpha, m)
    if not math.isfinite(n2):  # |alpha|^2 overflowed
        raise NotContact("|alpha|^2 in {-1, 0, +1}", abs(n2))
    eps = int(round(n2))
    if eps not in (-1, 0, 1) or not abs(n2 - eps) <= tol:
        raise NotContact("|alpha|^2 in {-1, 0, +1}", abs(n2 - round(n2)))
    if m.s_g == 1 and eps != 1:
        raise NotContact("Riemannian signature forces epsilon = +1", float(eps))
    return ContactStructure(sc, m, int(orientation), alpha, eps, spec)


def characteristic_endo(cs: ContactStructure) -> np.ndarray:
    """phi(v) = -s_g (iota_v * alpha)^sharp as a frame matrix."""
    star_alpha = hodge_components(cs.alpha.comps, cs.m.signs, 1, cs.orientation)
    rows = interior_components(np.eye(3), star_alpha, 2)  # row j: iota_{e_j} *alpha
    return np.ascontiguousarray((-cs.s_g * (cs.m.eta * rows)).T)


def lie_derivative_metric(cs: ContactStructure, v: np.ndarray) -> np.ndarray:
    """(L_v g)(e_i, e_j) = -g([v, e_i], e_j) - g(e_i, [v, e_j]) on the frame."""
    out = np.zeros((3, 3))
    brackets = [cs.sc.bracket(v, np.eye(3)[i]) for i in range(3)]
    for i in range(3):
        for j in range(3):
            out[i, j] = -cs.metric_dot(brackets[i], np.eye(3)[j]) - cs.metric_dot(
                np.eye(3)[i], brackets[j]
            )
    return out


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
    model = mu * np.outer(cs.xi, cs.alpha.comps)
    res = float(np.max(np.abs(h - model)))
    if res > max(tol, 1e2 * tol * max(1.0, abs(mu))):
        raise DecompositionFailure(
            f"null h-tensor is not mu xi (x) alpha (residual {res:.3e})"
        )
    return h, mu


def contact_frame(cs: ContactStructure):
    """Adapted frame (xi, u, phi(u)) with g(u,u) = s_g eps, g(u,xi) = 1 - eps^2.

    Deterministic tie-break: for eps != 0, u is obtained by Gram-Schmidt on
    the projections of (e_1, e_2, e_0) to ker(alpha), picking the first basis
    vector whose norm has the required sign; for eps = 0, u is the unique
    null vector with g(u, xi) = 1 lying in the span of the sign-flipped dual
    of alpha.
    """
    xi = cs.xi
    alpha = cs.alpha.comps
    eps = cs.epsilon
    if eps == 0:
        ut = alpha.copy()  # componentwise dual: null iff alpha is null
        u = ut / float(np.sum(alpha * alpha))
    else:
        basis = []
        for idx in (1, 2, 0):
            v = np.eye(3)[idx] - (alpha[idx] / eps) * xi
            for w in basis:
                v = v - (cs.metric_dot(v, w) / cs.metric_dot(w, w)) * w
            if np.linalg.norm(v) > 1e-12:
                nrm = cs.metric_dot(v, v)
                if abs(nrm) > 1e-12 * float(np.dot(v, v)):
                    basis.append(v)
            if len(basis) == 2:
                break
        target = cs.s_g * eps
        u = None
        for v in basis:
            if np.sign(cs.metric_dot(v, v)) == np.sign(target):
                u = v / np.sqrt(abs(cs.metric_dot(v, v)))
                break
        if u is None:
            # Gram-Schmidt hit only null directions; diagonalize the restricted
            # metric over an orthonormal basis of ker(alpha) instead
            ker = np.linalg.svd(alpha.reshape(1, 3))[2][1:].T  # columns span ker
            gram = ker.T @ np.diag(cs.m.eta) @ ker
            evals, evecs = np.linalg.eigh(gram)
            for pos in range(2):
                if np.sign(evals[pos]) == np.sign(target):
                    u = ker @ evecs[:, pos] / np.sqrt(abs(evals[pos]))
                    break
        if u is None:
            raise WrongCausalType("no frame vector of the required causal type in ker(alpha)")
        for comp in u:
            if abs(comp) > 1e-12:
                if comp < 0:
                    u = -u
                break
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


def _j_action(cs: ContactStructure, v4: np.ndarray):
    """J(v + c dq) = phi(v) + c xi + alpha(v) dq on R^3 + R(dq) components."""
    v, c = v4[:3], v4[3]
    out = np.zeros(4)
    out[:3] = cs.phi @ v + c * cs.xi
    out[3] = float(np.dot(cs.alpha.comps, v))
    return out


def j_endo_matrix(cs: ContactStructure) -> np.ndarray:
    """Matrix of J in the frame (xi, u, phi(u), dq); constant for every
    null structure: columns (0, (0,0,1,1), (-1,0,0,0), (1,0,0,0))."""
    if cs.epsilon != 0:
        raise WrongCausalType("J is defined for null structures")
    frame = np.column_stack(cs.frame)
    cols = []
    for k in range(4):
        v4 = np.zeros(4)
        if k < 3:
            v4[:3] = frame[:, k]
        else:
            v4[3] = 1.0
        w4 = _j_action(cs, v4)
        coeffs = np.linalg.solve(frame, w4[:3])
        cols.append(np.concatenate([coeffs, [w4[3]]]))
    return np.column_stack(cols)


def nijenhuis_J(cs: ContactStructure, tol: float | None = None):
    """Nijenhuis tensor of J on the frame (xi, u, phi(u), dq).

    Returns (max-abs of N_J over all frame pairs, whether ker J is involutive).
    N_J vanishes iff the structure is Sasakian.
    """
    if cs.epsilon != 0:
        raise WrongCausalType("the Nijenhuis test applies to null structures")
    tol = get_tol(tol)
    xi, u, phiu = cs.frame

    def bracket4(a4, b4):
        out = np.zeros(4)
        out[:3] = cs.sc.bracket(a4[:3], b4[:3])
        return out

    vectors = [
        np.concatenate([xi, [0.0]]),
        np.concatenate([u, [0.0]]),
        np.concatenate([phiu, [0.0]]),
        np.array([0.0, 0.0, 0.0, 1.0]),
    ]
    max_nj = 0.0
    for p in range(4):
        for q in range(p + 1, 4):
            v1, v2 = vectors[p], vectors[q]
            jv1, jv2 = _j_action(cs, v1), _j_action(cs, v2)
            nj = (
                bracket4(jv1, jv2)
                - _j_action(cs, bracket4(v1, jv2))
                - _j_action(cs, bracket4(jv1, v2))
            )
            max_nj = max(max_nj, float(np.max(np.abs(nj))))
    # ker J = span{xi, phi(u) + dq}; involutive iff [xi, phi(u)] lies in the span
    br = cs.sc.bracket(xi, phiu)
    frame = np.column_stack([xi, u, phiu])
    coeffs = np.linalg.solve(frame, br)
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
    m = cs.m
    eta = m.eta
    sg = cs.s_g
    eps = cs.epsilon
    alpha = cs.alpha.comps
    xi = cs.xi
    phi = cs.phi
    h, mu = h_tensor(cs)
    tau = h @ phi
    dalpha = mc_differential(cs.alpha, cs.sc)
    res = {}
    # g(. , phi .) = d alpha
    gphi = np.einsum("i,ij->ij", eta, phi)
    dal = np.array([[dalpha.value((i, j)) for j in range(3)] for i in range(3)])
    res["g_phi_is_dalpha"] = float(np.max(np.abs(gphi - dal)))
    res["phi_xi"] = float(np.max(np.abs(phi @ xi)))
    res["alpha_phi"] = float(np.max(np.abs(alpha @ phi)))
    res["phi_squared"] = float(
        np.max(np.abs(phi @ phi - sg * (-eps * np.eye(3) + np.outer(xi, alpha))))
    )
    # g(phi . , phi .) = s_g (eps g - alpha (x) alpha)
    gphiphi = phi.T @ np.diag(eta) @ phi
    res["phi_isometry"] = float(
        np.max(np.abs(gphiphi - sg * (eps * np.diag(eta) - np.outer(alpha, alpha))))
    )
    res["phi_skew"] = float(np.max(np.abs(np.diag(eta) @ phi + phi.T @ np.diag(eta))))
    conn = cs.connection
    nabla_xi_vec = np.einsum("i,ijk,j->k", xi, conn.gamma, xi)
    res["nabla_xi_xi"] = float(np.max(np.abs(nabla_xi_vec)))
    dmat = np.einsum("j,jik->ki", xi, conn.gamma)  # v -> nabla_xi v on the frame
    res["nabla_xi_phi"] = float(np.max(np.abs(dmat @ phi - phi @ dmat)))
    res["h_xi"] = float(np.max(np.abs(h @ xi)))
    lmat = l_endo(cs)
    res["l_xi"] = float(np.max(np.abs(lmat @ xi)))
    res["trace_h"] = abs(float(np.trace(h)))
    res["trace_tau"] = abs(float(np.trace(tau)))
    res["h_phi_anticommute"] = float(np.max(np.abs(h @ phi + phi @ h)))
    lie_alpha = np.array(
        [-float(np.dot(alpha, cs.sc.bracket(xi, np.eye(3)[i]))) for i in range(3)]
    )
    res["lie_xi_alpha"] = float(np.max(np.abs(lie_alpha)))
    gh = np.diag(eta) @ h
    res["h_symmetric"] = float(np.max(np.abs(gh - gh.T)))
    gtau = np.diag(eta) @ tau
    res["tau_symmetric"] = float(np.max(np.abs(gtau - gtau.T)))
    # 2 phi(nabla xi) = h + s_g (eps Id - xi (x) alpha)
    res["reeb_gradient_eq"] = float(
        np.max(
            np.abs(
                2.0 * phi @ reeb_gradient(cs)
                - h
                - sg * (eps * np.eye(3) - np.outer(xi, alpha))
            )
        )
    )
    if eps != 0:
        ric = cs.curvature.ricci
        ric_xixi = float(xi @ ric @ xi)
        res["ricci_reeb"] = abs(
            ric_xixi - eps * sg * (0.5 - 0.25 * float(np.trace(h @ h)))
        )
    else:
        res["phi_cubed"] = float(np.max(np.abs(phi @ phi @ phi)))
        res["phi_h"] = float(np.max(np.abs(phi @ h)))
        res["h_phi"] = float(np.max(np.abs(h @ phi)))
        res["tau_null"] = float(np.max(np.abs(tau)))
        # light-cone bracket pattern
        _, u, phiu = cs.frame
        frame = np.column_stack(cs.frame)
        c1 = np.linalg.solve(frame, cs.sc.bracket(xi, u))
        c2 = np.linalg.solve(frame, cs.sc.bracket(xi, phiu))
        c3 = np.linalg.solve(frame, cs.sc.bracket(u, phiu))
        res["lightcone_brackets"] = float(
            max(
                abs(c1[1]),                 # [xi,u] has no u part
                abs(c2[1]), abs(c2[2]),     # [xi,phi(u)] proportional to xi
                abs(c2[0] - (mu - c1[2])),  # with coefficient mu - c
                abs(c3[1] - 1.0),           # [u,phi(u)] = e xi + u + f phi(u)
            )
        )
    return res


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
    h = cs.h
    xi = cs.xi
    alpha = cs.alpha.comps
    basis = []
    for idx in (1, 2, 0):
        v = np.eye(3)[idx] + alpha[idx] * xi  # projection to ker(alpha), eps = -1
        for w in basis:
            v = v - cs.metric_dot(v, w) * w
        if np.linalg.norm(v) > 1e-12:
            v = v / np.sqrt(cs.metric_dot(v, v))
            basis.append(v)
        if len(basis) == 2:
            break
    b = np.column_stack(basis)
    s = np.array(
        [[cs.metric_dot(basis[p], h @ basis[q]) for q in range(2)] for p in range(2)]
    )
    evals, evecs = np.linalg.eigh(0.5 * (s + s.T))
    if abs(evals[0] + evals[1]) > max(100 * tol, 1e-12) or abs(evals[1] - mu) > max(
        100 * tol, 1e-12
    ):
        raise EigenFailure(
            f"h spectrum {evals.tolist()} does not match +-mu with mu={mu:.6g}"
        )
    x = b @ evecs[:, 1]
    for comp in x:
        if abs(comp) > 1e-12:
            if comp < 0:
                x = -x
            break
    return xi, x, cs.phi @ x, mu

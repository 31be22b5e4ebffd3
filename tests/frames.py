"""Frames and frame readings of one contact structure that only the tests
use: the time-like special frame, the matrix of J in the frame
(xi, u, phi(u), dq), the light-cone form of the eta-Einstein fit, the
Reeb-curvature residual, the metric pairing of two frame vectors, and the
bracket of two vectors; and the reference forms of the Koszul terms and of
phi, which the library computes by index-table gathers, with a bytewise
comparison and the values whose signs it shows."""

import numpy as np

from epscontact.config import get_tol
from epscontact.contact import _j_and_frame, _ker_alpha_basis, _lead_positive
from epscontact.errors import WrongCausalType
from epscontact.exterior import hodge_components, interior_components, pairing_components
from epscontact.liealg import ad_components

# finite entries of both signs, the two zeros and the non-finite values: the
# bits of a product, or of a sum from +0.0, show in each
SIGNED_VALUES = np.array([0.0, -0.0, 1.5, -2.25, np.inf, -np.inf, np.nan, -np.nan])


def same_bits(got, want) -> bool:
    """Equal shape, dtype and bytes: signed zeros and NaN signs included."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def einsum_koszul(c, eta) -> np.ndarray:
    """Levi-Civita coefficients of stacked bracket tables c (..., n, n, n)
    with the two permuted Koszul terms as einsums, each summed from +0.0: the
    reference for curvature.koszul_components, signed zeros included."""
    t2 = np.einsum("...jki,i,k->...ijk", c, eta, eta)
    t3 = np.einsum("...kij,j,k->...ijk", c, eta, eta)
    return 0.5 * (c - t2 + t3)


def hodge_interior_phi(alpha, m, orientation) -> np.ndarray:
    """phi(v) = -s_g (iota_v * alpha)^sharp (..., 3, 3) by the Hodge dual and
    the interior products: the reference for contact.phi_components."""
    star_alpha = hodge_components(alpha, m.signs, 1, orientation)
    rows = interior_components(np.eye(3), star_alpha[..., None, :], 2)  # row j: iota_{e_j} *alpha
    return np.ascontiguousarray(np.swapaxes(-m.s_g * (m.eta * rows), -1, -2))


def bracket(c, u, v) -> np.ndarray:
    """[u, v] of frame-component vectors over the bracket table c."""
    return ad_components(u, c) @ v


def metric_dot(cs, u, v) -> float:
    """g(u, v) of frame-component vectors, by the metric pairing."""
    return float(pairing_components(np.asarray(u, dtype=float), np.asarray(v, dtype=float),
                                    cs.m.signs, 1))


def timelike_special_frame(cs, tol=None):
    """Orthonormal frame (xi, X, phi(X)) with h(X) = mu X for a time-like
    eta-Einstein structure; mu = sqrt(1 - (lambda^2 + kappa)) >= 0.

    Returns (xi, X, phi(X), mu).
    """
    tol = get_tol(tol)
    if cs.epsilon != -1:
        raise WrongCausalType("the special frame requires a time-like Reeb field")
    fit = cs.fit(tol).at()
    if not fit.admissible:
        raise AssertionError(
            f"Ricci does not fit the eta-Einstein form (residual {fit.residual:.3e})")
    mu = float(np.sqrt(max(0.0, 1.0 - (fit.lambda2 + fit.kappa))))
    b = _ker_alpha_basis(cs)  # g-orthonormal: ker(alpha) is space-like here
    s = b.T @ np.diag(cs.m.eta) @ cs.h @ b  # g(b_p, h b_q)
    evals, evecs = np.linalg.eigh(0.5 * (s + s.T))
    if max(abs(evals[0] + evals[1]), abs(evals[1] - mu)) > max(100 * tol, 1e-12):
        raise AssertionError(f"h spectrum {evals.tolist()} does not match +-mu with mu={mu:.6g}")
    x = _lead_positive(b @ evecs[:, 1])
    return cs.xi, x, cs.phi @ x, mu


def j_endo_matrix(cs) -> np.ndarray:
    """Matrix P^-1 J P of J in the frame (xi, u, phi(u), dq); constant for
    every null structure: columns (0, (0,0,1,1), (-1,0,0,0), (1,0,0,0))."""
    j, p = _j_and_frame(cs)
    return np.linalg.solve(p, j @ p)


def lightcone_fit_residual(cs, fit) -> float:
    """Null-case characterization: in a light-cone frame the eta-Einstein
    condition is Ric(xi,xi)=Ric(xi,phiu)=Ric(u,phiu)=0,
    Ric(xi,u)=Ric(phiu,phiu)=-lambda^2/2, Ric(u,u)=kappa."""
    if cs.epsilon != 0:
        raise WrongCausalType("light-cone characterization needs a null Reeb field")
    ric = cs.ricci
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


def reeb_curvature_residual(cs, fit) -> float:
    """Residual of R(v1,v2)xi = K (alpha(v2) v1 - alpha(v1) v2) with
    K = s_g (lambda^2 - eps kappa)/4; holds on every eta-Einstein structure."""
    kconst = cs.m.s_g * (fit.lambda2 - cs.epsilon * fit.kappa) / 4.0
    lhs = np.einsum("ijkm,k->ijm", cs.riemann, cs.xi)
    eye = np.eye(3)
    rhs = kconst * (
        np.einsum("j,im->ijm", cs.alpha, eye) - np.einsum("i,jm->ijm", cs.alpha, eye)
    )
    return float(np.max(np.abs(lhs - rhs)))

"""Frames and frame readings of one contact structure that only the tests
use: the time-like special frame, the matrix of J in the frame
(xi, u, phi(u), dq), the light-cone form of the eta-Einstein fit, the
Reeb-curvature residual, the metric pairing of two frame vectors, and the
bracket of two vectors; the interior product (from an index table of its
own), the wedge product and the 3D -> 6D lift of forms;
and the reference forms of what the library computes by index-table gathers,
reads off other arrays or solves by numpy's gufunc (the Koszul terms, phi,
the light-cone bracket pattern, and the 6D product's torsion form,
Levi-Civita coefficients and Ricci tensor), with a bytewise comparison and
the values whose signs it shows."""

import math
from functools import lru_cache

import numpy as np

from epscontact.config import get_tol
from epscontact.contact import _j_and_frame, _ker_alpha_basis, _lead_positive, contact_frame
from epscontact.curvature import koszul_components, ricci_components
from epscontact.errors import WrongCausalType
from epscontact.exterior import (_ordered_sum, hodge_components, index_tuples, pairing_components,
                                 sort_sign, tuple_positions)
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


@lru_cache(maxsize=None)
def _interior_table(n: int, k: int):
    """(pos, sign, live), each of shape (C(n, k-1), n): (iota_v w)_t = sum_i
    v_i * sign * w[pos] in order of i; live is False, and w counts as zero,
    for i in t."""
    wpos = tuple_positions(n, k)
    rows = []
    for t in index_tuples(n, k - 1):
        row = []
        for i in range(n):
            sign, key = sort_sign((i,) + t)
            row.append((wpos[key] if sign else 0, sign or 1, sign != 0))
        rows.append(row)
    table = np.array(rows, dtype=np.intp).reshape(len(rows), n, 3)
    return table[..., 0], table[..., 1].astype(float), table[..., 2] == 1


def interior_components(v: np.ndarray, comps: np.ndarray, degree: int) -> np.ndarray:
    """iota_v of stacked degree-k components (..., C(n, k)) by vectors v (..., n)."""
    pos, sign, live = _interior_table(v.shape[-1], degree)
    v = v[..., None, :]
    w = np.where((v != 0.0) & live, sign * comps[..., pos], 0.0)
    return _ordered_sum(v * w)


@lru_cache(maxsize=None)
def _wedge_table(n: int, ka: int, kb: int):
    """(ia, ib, sign), each of shape (C(n, ka+kb), C(ka+kb, ka)): the splits of
    every output tuple into a ka-tuple and a kb-tuple, in loop order of the
    (ka-tuple, kb-tuple) pairs."""
    pos = tuple_positions(n, ka + kb)
    rows = [[] for _ in pos]
    for ia, ta in enumerate(index_tuples(n, ka)):
        for ib, tb in enumerate(index_tuples(n, kb)):
            sign, key = sort_sign(ta + tb)
            if sign:
                rows[pos[key]].append((ia, ib, sign))
    table = np.array(rows, dtype=np.intp).reshape(len(rows), math.comb(ka + kb, ka), 3)
    return table[..., 0], table[..., 1], table[..., 2].astype(float)


def wedge_components(a: np.ndarray, b: np.ndarray, n: int, ka: int, kb: int) -> np.ndarray:
    """Exterior product of stacked degree-ka and degree-kb component vectors
    on an n-dimensional frame: concatenated index tuples with permutation
    sign, skipping the terms with a zero factor."""
    ia, ib, sign = _wedge_table(n, ka, kb)
    va, vb = a[..., ia], b[..., ib]
    live = (va != 0.0) & (vb != 0.0)
    return _ordered_sum(sign * np.where(live, va, 0.0) * np.where(live, vb, 0.0))


@lru_cache(maxsize=None)
def _embed_table(k: int, offset: int) -> np.ndarray:
    """Positions among the 6D k-tuples of the 3D k-tuples shifted by offset."""
    pos = tuple_positions(6, k)
    return np.array([pos[tuple(i + offset for i in t)] for t in index_tuples(3, k)],
                    dtype=np.intp)


def embed_components(comps: np.ndarray, degree: int, offset: int) -> np.ndarray:
    """Lift stacked degree-k components of a 3D factor into the 6D frame at
    index offset 0 or 3; zero components give +0.0."""
    out = np.zeros(comps.shape[:-1] + (math.comb(6, degree),))
    out[..., _embed_table(degree, offset)] += comps
    return out


def wedge_torsion_form(n, x, lam, l) -> np.ndarray:
    """H = lam nu_N + l (*alpha_N) ^ alpha_X + l alpha_N ^ (*alpha_X) + lam nu_X
    (..., 20) by lifts, Hodge duals and wedges: the reference for
    product6d.torsion_form, signed zeros included."""
    lam, l = (np.asarray(v, dtype=float)[..., None] for v in (lam, l))
    nu_n = embed_components(np.asarray(n.orientation, dtype=float)[..., None], 3, 0)
    nu_x = embed_components(np.asarray(x.orientation, dtype=float)[..., None], 3, 3)
    alpha_n, alpha_x = embed_components(n.alpha, 1, 0), embed_components(x.alpha, 1, 3)
    star_alpha_n = embed_components(hodge_components(n.alpha, n.m.signs, 1, n.orientation), 2, 0)
    star_alpha_x = embed_components(hodge_components(x.alpha, x.m.signs, 1, x.orientation), 2, 3)
    return (
        lam * nu_n
        + l * wedge_components(star_alpha_n, alpha_x, 6, 2, 1)
        + l * wedge_components(alpha_n, star_alpha_x, 6, 1, 2)
        + lam * nu_x
    )


def koszul_gamma6(sol) -> np.ndarray:
    """The Levi-Civita coefficients of a ProductSolution by Koszul's formula
    on its 6D bracket tables: the reference for its gamma."""
    return koszul_components(sol.c6, sol.m6.eta)


def ricci_g6(sol) -> np.ndarray:
    """The 6D Ricci tensor of koszul_gamma6: the reference for the factors'
    Ricci tensors summed into Ric^g."""
    return ricci_components(koszul_gamma6(sol), sol.c6)


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


def lightcone_brackets(cs, mu) -> np.ndarray:
    """The light-cone bracket pattern of a null structure with h = mu xi (x)
    alpha, from the frame coefficients of [xi, u], [xi, phi(u)] and
    [u, phi(u)] by np.linalg.solve in the frame of contact_frame: the
    reference for the lightcone_brackets term of the identity suite."""
    frame = contact_frame(cs)
    _, u, phiu = frame
    ad = cs.ad_xi
    c1, c2, c3 = np.linalg.solve(
        np.stack(frame, axis=1),
        np.stack([ad @ u, ad @ phiu, ad_components(u, cs.c) @ phiu], axis=1),
    ).T
    return np.array([c1[1], c2[1], c2[2], c2[0] - (mu - c1[2]), c3[1] - 1.0])

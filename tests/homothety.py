"""Generic contact structures met by homothety, a population of structures
with h != 0, most of them not eta-Einstein, for the tests of the identity
suite.

For a family whose brackets are linear in its parameters, scaling them by t
scales d by t: with M(p) = einstein._contact_maps at the parameters p (the
map alpha -> *alpha - s_g d alpha) and S = M at zero brackets,
M(t p) = S - t (S - M(p)). So alpha is contact at t p exactly when it is an
eigenvector of K(p) = S^-1 (S - M(p)) of eigenvalue 1/t, and the
directions p need no nullspace search."""

import numpy as np

from epscontact.config import get_tol
from epscontact.contact import ContactStructure, check_contact
from epscontact.einstein import _NULL_CUT, _contact_maps, _sample_chunks, default_grid
from epscontact.liealg import FAMILIES, family_tables

# (family, epsilon) pairs of families with brackets linear in their
# parameters (and homogeneous constraints), each meeting structures at grid 5
HOMOTHETY_CASES = (("g3", 1), ("g3", -1), ("g5", 1), ("g7", 1), ("riemannian_unimodular", 1))


def homothety_structures(family_id: str, eps: int, grid: int) -> list:
    """The contact structures of |alpha|^2 = eps, eps != 0, at t = 1/mu
    along the directions of the family's sampling sheets at grid points on
    [-3, 3] (einstein._sample_chunks), for every real eigenvalue mu of K
    with |mu| > 1e-6 max(1, max |K|) and both orientations: one stacked
    contact check of every candidate, whose ok rows are returned as
    ContactStructures, all at the default tolerance."""
    fam, tol = FAMILIES[family_id], get_tol()
    m = fam.metric
    p_hat = np.concatenate([np.stack(list(chunk.values()), axis=-1)
                            for chunk in _sample_chunks(family_id, default_grid(grid), tol)])
    c_hat, _ = family_tables(family_id, dict(zip(fam.params, p_hat.T)), tol)
    params, alpha, orientation = [], [], []
    for o in (1, -1):
        s = _contact_maps(np.zeros((3, 3, 3)), m, (o,))[0]
        k = np.linalg.solve(s, s - _contact_maps(c_hat, m, (o,))[:, 0])
        mu, vec = np.linalg.eig(k)
        scale = np.maximum(1.0, np.abs(k).max(axis=(-2, -1)))[:, None]
        n, j = np.nonzero((mu.imag == 0) & (np.abs(mu.real) > 1e-6 * scale))
        v = vec[n, :, j].real
        q = np.sum(m.eta * v * v, axis=-1)
        keep = q * eps > _NULL_CUT * np.sum(v * v, axis=-1)  # of the sign of eps, off the cone
        n, j, v, q = n[keep], j[keep], v[keep], q[keep]
        params.append(p_hat[n] / mu[n, j].real[:, None])
        alpha.append(v * np.sqrt(eps / q)[:, None])
        orientation.append(np.full(len(n), o))
    c, valid = family_tables(family_id, dict(zip(fam.params, np.concatenate(params).T)), tol)
    batch = check_contact(c, m, np.concatenate(orientation), np.concatenate(alpha), tol)
    return [ContactStructure(batch.c[k], m, int(batch.orientation[k]), batch.alpha[k], tol)
            for k in np.flatnonzero(batch.ok & valid)]

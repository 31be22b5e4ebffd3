"""Contact metric structures on three-dimensional Lie groups with Reeb field
of any causal type (time-like, space-like, or null), and their derived
objects: characteristic endomorphism phi, h = L_xi phi, tau = h o phi,
l(v) = R(v, xi)xi, adapted frames, Sasakian / K-contact tests, the
eta-Einstein fit, and the nilpotent J-endomorphism of the null case with its
Nijenhuis tensor. ContactBatch checks stacked one-forms at once and holds
the data of the structures they give, for the table rows, the catalog
factors and the scan; a ContactStructure is the batch of one one-form.

Endomorphisms are 3x3 (4x4 for J) matrices acting on frame-component column
vectors: (E v)^i = sum_j E[i][j] v^j.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np
from numpy.linalg import _umath_linalg

from .config import get_tol
from .errors import (
    ConstraintViolation,
    DecompositionFailure,
    EpsContactError,
    NotContact,
    WrongCausalType,
)
from .exterior import (
    FrameMetric,
    antisymmetric_array,
    d_components,
    hodge_components,
    pairing_components,
)
from .curvature import check_jacobi, koszul_components, ricci_components, riemann_components
from .liealg import (FAMILIES, FamilySpec, _validate, ad_components, direct_sum_components,
                     family_tables, make_family, nine_params)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class EtaEinsteinFit:
    """The constants of Ric = (s_g/2) (lambda^2 + kappa eps) g - s_g kappa
    alpha (x) alpha fitted to a structure's Ricci tensor, the full-tensor
    residual and admissibility (residual <= tol, lambda^2 >= 0 and, in
    Lorentzian signature, kappa >= -tol): numbers for one structure, or
    arrays over the axes of a ContactBatch (ContactBatch.fit)."""

    lambda2: float
    kappa: float
    residual: float
    admissible: bool

    def at(self, *index) -> "EtaEinsteinFit":
        """The fit at index into the batch axes (none for one structure), as
        Python numbers."""
        return EtaEinsteinFit(self.lambda2.item(*index), self.kappa.item(*index),
                              self.residual.item(*index), self.admissible.item(*index))


# the six independent components (i <= j) of a symmetric 3x3 tensor, row by
# row, as positions in its nine entries
_IU9 = np.ravel_multi_index(np.triu_indices(3), (3, 3))
# lstsq's default cutoff (rcond=None) for the 6 x 2 design matrix
_RCOND = np.finfo(float).eps * 6
# machine epsilon and smallest normal number, for the rounding terms of the
# elementwise proofs (_not_eta_einstein, einstein._full_rank)
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny
_EYE3 = _read_only(np.eye(3))  # shared by every identity suite


@lru_cache(maxsize=None)
def _half_metric(m: FrameMetric) -> tuple:
    """(s_g/2) g with g = diag(eta), flattened to (9,), and its six
    independent components."""
    half_g = (0.5 * m.s_g * np.diag(m.eta)).ravel()
    return _read_only(half_g), _read_only(half_g[_IU9])  # shared by every caller


def _lstsq_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares solutions (K, n) of stacked systems a (K, m, n) x = b
    (K, m) with lstsq's default cutoff. np.linalg.lstsq runs the same gufunc
    of numpy's private _umath_linalg on one system after rejecting stacked
    input, so every row is bit-equal to its result (a test pins this)."""
    with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
        return _umath_linalg.lstsq(a, b[..., None], _RCOND, signature="ddd->ddid")[0][..., 0]


def _design(alpha: np.ndarray, m: FrameMetric, eps: np.ndarray) -> tuple:
    """(rows, aa): the design matrices (K, 6, 2) of the fits of one-forms
    alpha (K, 3) of epsilons eps (K,), columns (s_g/2) g and
    (s_g/2) eps g - s_g alpha (x) alpha on the six independent components,
    and alpha (x) alpha flattened to (K, 9)."""
    half_g6 = _half_metric(m)[1]
    aa = (alpha[:, :, None] * alpha[:, None, :]).reshape(-1, 9)
    rows = np.empty((len(aa), 6, 2))
    rows[..., 0] = half_g6
    rows[..., 1] = eps[:, None] * half_g6 - m.s_g * aa.take(_IU9, axis=1)
    return rows, aa


def _fit_rows(ric: np.ndarray, alpha: np.ndarray, m: FrameMetric, eps: np.ndarray,
              tol: float) -> tuple:
    """(lambda2, kappa, residual, admissible), arrays (K,), of the fits of
    stacked Ricci tensors ric (K, 3, 3) with one-forms alpha (K, 3) of
    epsilons eps (K,), each -1.0, +0.0 or +1.0."""
    sg, half_g = m.s_g, _half_metric(m)[0]
    ric = ric.reshape(-1, 9)
    rows, aa = _design(alpha, m, eps)
    sol = _lstsq_rows(rows, ric.take(_IU9, axis=1))
    lambda2, kappa = sol[:, 0], sol[:, 1]
    lambda2 = np.copysign(lambda2, lambda2 + tol)  # |lambda2| where it is within tol of 0
    model = (lambda2 + kappa * eps)[:, None] * half_g - (sg * kappa)[:, None] * aa
    residual = np.abs(ric - model).max(axis=1)
    admissible = (residual <= tol) & (lambda2 >= 0.0)
    if sg == -1:
        admissible &= kappa >= -tol
    return lambda2, kappa, residual, admissible


def _not_eta_einstein(ric: np.ndarray, alpha: np.ndarray, m: FrameMetric, eps: np.ndarray,
                      tol: float) -> np.ndarray:
    """Where the fit of _fit_rows is proven, without solving it, to leave a
    residual above tol, for the arguments of _fit_rows: elementwise.

    With b the six independent Ricci components and D their Euclidean
    distance to the span of the design columns c0 and c1 (_design), every
    (lambda^2, kappa), the copysign-adjusted lambda^2 included, leaves some
    component of b off by D/sqrt(6) at least, and the full-tensor residual
    is a max over a superset of them. D is the norm of what is left of b
    after its projections on c0 and on u, c1 orthogonalised against c0. A
    row is proven only where u keeps a quarter of c1's norm, so that
    |kappa| <= |b|/|u| and |lambda^2| <= 6|b| bound the model's terms, and
    where D/sqrt(6) exceeds tol by a rounding margin 1024 eps |b| (1 + 1/|u|),
    which bounds the errors of D, of lstsq's solution and of the residual's
    arithmetic; the smallest normal number absorbs underflow. A test that is
    not finite proves nothing."""
    rows, _ = _design(alpha, m, eps)
    b = ric.reshape(-1, 9).take(_IU9, axis=1)
    c0, c1 = _half_metric(m)[1], rows[..., 1]  # c0 . c0 = 3/4 exactly
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u = c1 - (c1 @ c0 / 0.75)[:, None] * c0
        uu = np.sum(u * u, axis=-1)
        r = b - (b @ c0 / 0.75)[:, None] * c0 - (np.sum(b * u, axis=-1) / uu)[:, None] * u
        d2 = np.sum(r * r, axis=-1)
        margin = 1024 * _EPS * np.sqrt(np.sum(b * b, axis=-1)) * (1 + 1 / np.sqrt(uu)) + _TINY
        return (16 * uu > np.sum(c1 * c1, axis=-1)) & np.isfinite(d2) & (d2 > 6 * (tol + margin) ** 2)


# the conditions a contact check tests, in this order
CONTACT_CONDITIONS = (
    "alpha != 0",
    "alpha = *d(alpha)",
    "|alpha|^2 in {-1, 0, +1}",
    "Riemannian signature forces epsilon = +1",
)


class ContactBatch:
    """One-forms alpha (..., 3) checked for the contact conditions over
    bracket tables c (..., 3, 3, 3) with the same batch axes, a frame metric
    m and orientations (a sign, or signs over the batch axes), and the data
    of the structures they give.

    Orientation None takes, row by row, +1 where alpha is contact at +1,
    else -1, whose failure is then reported. fails[k] marks the rows failing
    condition k of CONTACT_CONDITIONS; dalpha holds the components of
    d(alpha), norm and res are max |alpha| and the residual of
    alpha = *d(alpha), eps is |alpha|^2 = n2 rounded to an integer (a float)
    and off is |n2 - eps|. A batch built from_specs
    also holds the specs and valid, the mask of those satisfying their
    family's constraints; ok marks the rows that are contact structures (of
    valid parameters).

    The derived data (xi, phi, the Levi-Civita coefficients gamma, the ricci
    and riemann tensors, h, the null factor and the L_xi g witness) is
    computed on first use, on every row, by the stacked formulas below, and
    kept in read-only arrays.
    """

    def __init__(self, c: np.ndarray, m: FrameMetric, orientation, alpha: np.ndarray,
                 tol: float, valid: Optional[np.ndarray] = None, specs: Optional[list] = None):
        if m.dim != 3 or c.shape[-3:] != (3, 3, 3):
            raise ValueError("contact structures are three-dimensional here")
        if alpha.shape[-1:] != (3,):
            raise ValueError(f"alpha must be one-forms of 3 components, got shape {alpha.shape}")
        axes = {"c": c.shape[:-3], "alpha": alpha.shape[:-1]}
        for name, a in (("orientation", orientation), ("valid", valid)):
            if a is not None and np.ndim(a):  # a sign, or None, holds for every row
                axes[name] = np.shape(a)
        if len(set(axes.values())) > 1:
            raise ValueError(f"the arrays of a batch must share its batch axes, got {axes}")
        self.c, self.m, self.alpha, self.tol = c, m, alpha, tol
        self.valid, self.specs = valid, specs
        # non-finite values end as failed conditions, not as numpy warnings; every
        # row runs every condition, and a row is reported by its first failure
        with np.errstate(over="ignore", invalid="ignore"):
            self.dalpha = d_components(alpha, c, 1)
            star_dalpha = hodge_components(self.dalpha, m.signs, 2,
                                           1 if orientation is None else orientation)
            res = np.abs(alpha - star_dalpha).max(axis=-1)
            self.norm = np.abs(alpha).max(axis=-1)
            self.n2 = pairing_components(alpha, alpha, m.signs, 1)
            self.eps = np.rint(self.n2)
            self.off = np.abs(self.n2 - self.eps)  # NaN where |alpha|^2 overflowed
            zero, norm2 = self.norm <= tol, (np.abs(self.eps) > 1.0) | ~(self.off <= tol)
            signature = (m.s_g == 1) & (self.eps != 1.0)
            if orientation is None:  # the star at -1 is minus the star at +1
                minus = ~(res <= tol) | zero | norm2 | signature  # not contact at +1
                orientation = np.where(minus, -1, 1)
                res = np.where(minus, np.abs(alpha + star_dalpha).max(axis=-1), res)
            self.fails = np.array([zero, ~(res <= tol), norm2, signature])  # NaN fails too
        self.orientation, self.res = orientation, res
        self.ok = ~self.fails.any(axis=0)
        if valid is not None:
            self.ok &= valid

    @classmethod
    def from_specs(cls, specs: list, alpha, orientation=None,
                   tol: float | None = None) -> "ContactBatch":
        """The batch of family instances, FamilySpecs specs of any families of
        one frame metric, with one-forms alpha (K, 3): each family's rows of
        the bracket tables and the constraint mask from one family_tables
        call; ValueError for no specs or specs of several metrics."""
        tol = get_tol(tol)
        metrics = {FAMILIES[s.family_id].metric for s in specs}
        if len(metrics) != 1:
            raise ValueError("from_specs takes specs of one frame metric, got "
                             f"{sorted(m.signs for m in metrics)}")
        rows = {}
        for k, s in enumerate(specs):
            rows.setdefault(s.family_id, []).append(k)
        c, valid = np.empty((len(specs), 3, 3, 3)), np.empty(len(specs), dtype=bool)
        for family_id, ks in rows.items():
            params = {p: [specs[k][p] for k in ks] for p in FAMILIES[family_id].params}
            c[ks], valid[ks] = family_tables(family_id, params, tol)
        return cls(c, metrics.pop(), orientation, np.asarray(alpha, dtype=float), tol, valid, specs)

    @property
    def failed(self) -> np.ndarray:
        """Per row, the index of the first failed condition; -1 where none fails."""
        return np.where(self.fails.any(axis=0), self.fails.argmax(axis=0), -1)

    @property
    def residuals(self) -> tuple:
        """Per condition, its residual on every row."""
        # an overflowed |alpha|^2 reports itself
        norm2 = np.where(np.isfinite(self.n2), self.off, np.abs(self.n2))
        return self.norm, self.res, norm2, self.eps

    def error(self, index=()) -> EpsContactError:
        """What building the row at index on its own raises, for a row that is
        not ok: the ConstraintViolation of its family parameters, else the
        NotContact of its first failed condition with that condition's
        residual."""
        if self.valid is not None and not self.valid[index]:
            try:
                _validate(self.specs[index], self.tol)
            except ConstraintViolation as exc:
                return exc.with_traceback(None)
        cond = int(self.failed[index])
        return NotContact(CONTACT_CONDITIONS[cond], float(self.residuals[cond][index]))

    def take(self, rows) -> "ContactBatch":
        """The batch of the given rows (indices into the batch axis), with
        copies of the data computed so far."""
        rows = np.asarray(rows, dtype=np.intp)
        out = object.__new__(ContactBatch)
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):  # the conditions are the first axis of fails
                value = value[:, rows] if name == "fails" else value[rows]
            out.__dict__[name] = value
        if self.specs is not None:
            out.specs = [self.specs[k] for k in rows]
        return out

    @cached_property
    def xi(self) -> np.ndarray:
        """Reeb field: the metric dual of alpha."""
        return _read_only(self.m.eta * self.alpha)

    @cached_property
    def phi(self) -> np.ndarray:
        return _read_only(phi_components(self.alpha, self.m, self.orientation))

    @cached_property
    def gamma(self) -> np.ndarray:
        """Levi-Civita coefficients (..., 3, 3, 3)."""
        return _read_only(koszul_components(self.c, self.m.eta))

    @cached_property
    def ricci(self) -> np.ndarray:
        return _read_only(ricci_components(self.gamma, self.c))

    @cached_property
    def riemann(self) -> np.ndarray:
        return _read_only(riemann_components(self.gamma, self.c))

    @cached_property
    def ad_xi(self) -> np.ndarray:
        """The matrices (..., 3, 3) of v -> [xi, v], for h, L_xi g and the identities."""
        return _read_only(ad_components(self.xi, self.c))

    @cached_property
    def h(self) -> np.ndarray:
        """h = L_xi phi = ad_xi phi - phi ad_xi on the frame."""
        return _read_only(h_components(self.ad_xi, self.phi))

    @cached_property
    def null(self) -> np.ndarray:
        """(..., 2): mu and the residual of h = mu xi (x) alpha (see
        null_factor), which mean something on the null rows only."""
        null = np.empty(self.eps.shape + (2,))
        null[..., 0], null[..., 1] = null_factor(self.h, self.alpha, self.m)
        return _read_only(null)

    @cached_property
    def k_contact_witness(self) -> np.ndarray:
        """max |(L_xi g)(e_i, e_j)|, zero exactly where xi is Killing."""
        lie = np.abs(lie_metric_components(self.ad_xi, self.m))
        return _read_only(np.asarray(lie.max(axis=(-2, -1))))  # an array with no batch axes too

    def fit(self, tol: float | None = None) -> EtaEinsteinFit:
        """The least-squares fit of (lambda^2, kappa) over the six independent
        components of each row's Ricci tensor, with the full-tensor residual,
        as arrays over the batch axes: one stacked fit over the rows of every
        epsilon. ValueError unless every row is a contact structure (take the
        ok rows of a batch)."""
        tol = get_tol(tol)
        if not self.ok.all():
            raise ValueError("the fit is of contact structures: take the ok rows")
        eps, shape = self.eps.reshape(-1) + 0.0, self.eps.shape  # an eps of -0.0 fits as +0.0
        lambda2, kappa, residual, admissible = _fit_rows(
            self.ricci.reshape(-1, 3, 3), self.alpha.reshape(-1, 3), self.m, eps, tol)
        return EtaEinsteinFit(lambda2.reshape(shape), kappa.reshape(shape),
                              residual.reshape(shape), admissible.reshape(shape))


class ContactStructure(ContactBatch):
    """The ContactBatch of one one-form alpha (3,) over one bracket table c
    (3, 3, 3), with no batch axes. A table that is a read-only float64 array
    owning its memory (as make_family returns) is held as given, since
    nothing can write to it; any other table, and alpha, as a read-only copy.
    check_contact returns it where alpha is contact, and raises otherwise.
    It adds the family spec, orientation and epsilon as ints, the adapted
    frame and the JSON form; the derived data are the batch's, as 0-d arrays
    for its numbers. ValueError for a c that is not exactly antisymmetric;
    without a spec, JacobiViolation for a c that fails the Jacobi identity
    beyond tol (see curvature.check_jacobi)."""

    def __init__(self, c, m: FrameMetric, orientation, alpha,
                 tol: float | None = None, spec: Optional[FamilySpec] = None):
        if not (type(c) is np.ndarray and c.dtype == np.float64
                and c.base is None and not c.flags.writeable):
            c = _read_only(np.array(c, dtype=float))  # the caller may still write to it
        if c.ndim != 3:
            raise ValueError(f"a contact structure has one bracket table, got shape {c.shape}")
        alpha = _read_only(np.array(alpha, dtype=float))
        super().__init__(c, m, orientation, alpha, get_tol(tol))
        if np.count_nonzero(c != -c.swapaxes(0, 1)):
            raise ValueError("bracket coefficients must be antisymmetric in (i, j)")
        if spec is None:  # a family's constraints are its Jacobi conditions (make_family)
            check_jacobi(nine_params(c), self.tol)
        self.spec, self.orientation = spec, int(self.orientation)

    @property
    def epsilon(self) -> int:
        return int(self.eps)

    @cached_property
    def frame(self) -> tuple:
        """Adapted frame (xi, u, phi(u)); see contact_frame."""
        return tuple(_read_only(v) for v in contact_frame(self))

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
    alpha (frame components); orientation None takes +1 where alpha is
    contact there, else -1 (see ContactBatch)."""
    tol = get_tol(tol)
    return check_contact(make_family(spec, tol=tol), FAMILIES[spec.family_id].metric, orientation,
                         alpha, tol=tol, spec=spec)


def check_contact(
    c,
    m: FrameMetric,
    orientation,
    alpha,
    tol: float | None = None,
    spec: Optional[FamilySpec] = None,
) -> ContactBatch:
    """Verify alpha = *d alpha and |alpha|^2 in {-1, 0, +1} for the one-form
    alpha (3,) over one bracket table c (3, 3, 3); returns the
    ContactStructure, with epsilon computed from the norm. Orientation None
    tries +1, then -1.

    Raises NotContact naming the failed condition and its residual.

    Stacked form: with c bracket tables with batch axes (..., 3, 3, 3),
    alpha an array of one-form components (..., 3) and orientation None, a
    sign or an array of signs, every row is checked at once and their
    ContactBatch is returned; nothing is raised for a row that is not
    contact.
    """
    tol = get_tol(tol)
    c = np.asarray(c, dtype=float)
    if c.ndim == 3:
        cs = ContactStructure(c, m, orientation, alpha, tol, spec)
        if not cs.ok:
            raise cs.error()
        return cs
    return ContactBatch(c, m, orientation, np.asarray(alpha, dtype=float), tol)


# --- the derived tensors on stacks ---------------------------------------------
#
# Each takes stacked arrays with any batch axes (none for one structure) and is
# the one formula for its tensor: ContactStructure and the functions below run
# them on one structure, ContactBatch on every row of a batch at once.


def phi_components(alpha: np.ndarray, m: FrameMetric, orientation) -> np.ndarray:
    """phi(v) = -s_g (iota_v *alpha)^sharp as frame matrices (..., 3, 3) of
    stacked one-forms alpha (..., 3) and orientations: phi[i, j] =
    -s_g eta_i (*alpha)(e_j, e_i), read off the antisymmetric array of *alpha."""
    star = antisymmetric_array(hodge_components(alpha, m.signs, 1, orientation), 3, 2)
    # a copy, not the transposed view: matmul takes another path, and other
    # bits, on a view
    return np.ascontiguousarray(np.swapaxes(-m.s_g * (m.eta * star), -1, -2))


def h_components(ad: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """h = L_xi phi = ad phi - phi ad (..., 3, 3) from ad = ad_xi (see ad_components)."""
    return ad @ phi - phi @ ad


def _null_dual(alpha: np.ndarray) -> np.ndarray:
    """u = alpha / |alpha|^2_E (..., 3), the componentwise dual of stacked
    one-forms alpha (..., 3): null iff alpha is, with alpha(u) = 1."""
    return alpha / (alpha * alpha).sum(axis=-1)[..., None]


def null_factor(h: np.ndarray, alpha: np.ndarray, m: FrameMetric) -> tuple:
    """(mu, residual) of null structures: mu = g(u, h u) with u the
    componentwise dual of alpha (see _null_dual), and max |h - mu xi (x)
    alpha|, the residual of the decomposition h = mu xi (x) alpha."""
    xi = m.eta * alpha
    u = _null_dual(alpha)
    mu = (m.eta * u * np.matmul(h, u[..., None])[..., 0]).sum(axis=-1)
    model = mu[..., None, None] * (xi[..., :, None] * alpha[..., None, :])
    return mu, np.abs(h - model).max(axis=(-2, -1))


def check_decomposition(mu: float, residual: float, tol: float) -> None:
    """Raise DecompositionFailure when a null h does not factor as mu xi (x) alpha."""
    if residual > max(tol, 1e2 * tol * max(1.0, abs(mu))):
        raise DecompositionFailure(
            f"null h-tensor is not mu xi (x) alpha (residual {residual:.3e})"
        )


def lie_metric_components(ad: np.ndarray, m: FrameMetric) -> np.ndarray:
    """(L_v g)(e_i, e_j) = -g([v, e_i], e_j) - g(e_i, [v, e_j]) on the frame,
    that is -(ad^T G + G ad) with G = diag(eta), from stacked ad = ad_v
    (..., 3, 3) (see ad_components)."""
    g = np.diag(m.eta)
    return -(np.swapaxes(ad, -1, -2) @ g + g @ ad)


def h_tensor(cs: ContactStructure, tol: float | None = None):
    """h = L_xi phi on the frame; for a null structure also the factor mu
    of the decomposition h = mu xi (x) alpha.

    Returns (matrix, mu) with mu = None when epsilon != 0.
    """
    tol = get_tol(tol)
    if cs.epsilon != 0:
        return cs.h, None
    mu, res = cs.null.tolist()
    check_decomposition(mu, res, tol)
    return cs.h, mu


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
        u = _null_dual(alpha)
    else:
        b = _ker_alpha_basis(cs)
        fits = np.sign(cs.m.eta @ (b * b)) == np.sign(cs.m.s_g * eps)
        if not fits.any():
            raise WrongCausalType("no frame vector of the required causal type in ker(alpha)")
        u = _lead_positive(b[:, np.argmax(fits)])
    return xi, u, cs.phi @ u


def is_sasakian(cs: ContactStructure, tol: float | None = None) -> bool:
    """h = 0."""
    tol = get_tol(tol)
    h, _ = h_tensor(cs, tol=tol)
    return bool(np.abs(h).max(axis=(-2, -1)) <= tol)


def is_k_contact(cs: ContactStructure, tol: float | None = None):
    """Whether the Reeb field is Killing; witness is max |(L_xi g)(e_i, e_j)|."""
    tol = get_tol(tol)
    witness = float(cs.k_contact_witness)
    return witness <= tol, witness


def k_contact_null_witness(cs: ContactStructure) -> float:
    """Light-cone shortcut for Sasakian null structures: g([xi, u], u),
    which vanishes iff the structure is K-contact."""
    if cs.epsilon != 0:
        raise WrongCausalType("light-cone witness requires a null Reeb field")
    _, u, _ = cs.frame
    return float(pairing_components(cs.ad_xi @ u, u, cs.m.signs, 1))


def _j_and_frame(cs: ContactStructure):
    """J = [[phi, xi], [alpha, 0]], the matrix of J(v + c dq) = phi(v) + c xi
    + alpha(v) dq on R^3 + R(dq), and P, whose columns are (xi, u, phi(u), dq)."""
    if cs.epsilon != 0:
        raise WrongCausalType("J is defined for null structures")
    j, p = np.zeros((4, 4)), np.eye(4)
    j[:3, :3], j[:3, 3], j[3, :3] = cs.phi, cs.xi, cs.alpha
    p[:3, :3] = np.column_stack(cs.frame)
    return j, p


def nijenhuis_J(cs: ContactStructure, tol: float | None = None):
    """Nijenhuis tensor of J on the frame (xi, u, phi(u), dq).

    Returns (max-abs of N_J over all frame pairs, whether ker J is involutive).
    N_J vanishes iff the structure is Sasakian.
    """
    tol = get_tol(tol)
    j, p = _j_and_frame(cs)
    c4 = direct_sum_components(cs.c, np.zeros((1, 1, 1)))  # dq is central

    def br(u, v):
        return ad_components(u, c4) @ v

    max_nj = max(
        float(np.max(np.abs(br(j @ x, j @ y) - j @ br(x, j @ y) - j @ br(j @ x, y))))
        for x, y in itertools.combinations(p.T, 2)
    )
    # ker J = span{xi, phi(u) + dq}; involutive iff [xi, phi(u)] lies in the span
    phiu = cs.frame[2]
    coeffs = np.linalg.solve(p[:3, :3], cs.ad_xi @ phiu)
    involutive = bool(abs(coeffs[1]) <= tol and abs(coeffs[2]) <= tol)
    return max_nj, involutive


def l_endo(cs: ContactStructure) -> np.ndarray:
    """l(v) = R(v, xi) xi via the Levi-Civita curvature."""
    xi = cs.xi
    # l[m][j] = R[j, a, b, m] xi^a xi^b
    return np.einsum("jabm,a,b->mj", cs.riemann, xi, xi)


def contact_identity_residuals(cs: ContactStructure) -> dict:
    """Residuals of the structural identities every contact structure obeys
    (plus the null-case extras when epsilon = 0); all should be ~0. Each is
    the max-abs of its identity's terms (see _identity_terms), all taken in
    one reduction over the terms laid end to end."""
    terms = _identity_terms(cs)
    starts = list(itertools.accumulate([r.size for r in terms.values()][:-1], initial=0))
    worst = np.maximum.reduceat(np.abs(np.concatenate(list(terms.values()), axis=None)), starts)
    return dict(zip(terms, worst.tolist()))


def _identity_terms(cs: ContactStructure) -> dict:
    """The terms, by identity, that vanish on every contact structure, ten
    per structure. Each ties phi, xi and eps, built from alpha alone, to the
    brackets (through d alpha, ad_xi, Gamma, Ric or R) or to |alpha|^2, so
    each can fail where alpha is not contact. blair is Blair's identity
    1/2 (l - s_g eps phi l phi) = -1/4 (phi^2 + s_g eps h^2)."""
    sg, eps, alpha, xi, phi = cs.m.s_g, cs.epsilon, cs.alpha, cs.xi, cs.phi
    eta, ad = cs.m.eta[:, None], cs.ad_xi  # g @ x is eta * x
    h, mu = h_tensor(cs)
    phi2, xa, g_h = phi @ phi, xi[:, None] * alpha, eta * h  # xa = xi (x) alpha
    dmat = ad_components(xi, cs.gamma)  # v -> nabla_xi v on the frame
    res = {
        "g_phi_is_dalpha": eta * phi - antisymmetric_array(cs.dalpha, 3, 2),
        "phi_squared": phi2 - sg * (-eps * _EYE3 + xa),
        "nabla_xi_xi": dmat @ xi,
        "nabla_xi_phi": dmat @ phi - phi @ dmat,
        "h_phi_anticommute": h @ phi + phi @ h,
        "lie_xi_alpha": -alpha @ ad,
        "h_symmetric": g_h - g_h.T,
        # 2 phi(nabla xi) = h + s_g (eps Id - xi (x) alpha)
        "reeb_gradient_eq": 2.0 * phi @ (xi @ cs.gamma).T - h - sg * (eps * _EYE3 - xa),
    }
    if eps != 0:
        h2, l, se = h @ h, l_endo(cs), sg * eps
        res["ricci_reeb"] = xi @ cs.ricci @ xi - se * (0.5 - 0.25 * np.trace(h2))
        res["blair"] = 0.5 * (l - se * phi @ l @ phi) + 0.25 * (phi2 + se * h2)
    else:
        res["phi_cubed"] = phi2 @ phi
        # light-cone bracket pattern: the frame coefficients of [xi, u],
        # [xi, phi(u)] and [u, phi(u)], solved in the frame (xi, u, phi(u))
        # of contact_frame
        f, r = np.empty((3, 3)), np.empty((3, 3))  # rows: the frame and the brackets
        f[0], f[1] = xi, _null_dual(alpha)
        np.matmul(phi, f[1], out=f[2])
        np.matmul(ad, f[1], out=r[0])
        np.matmul(ad, f[2], out=r[1])
        np.matmul(ad_components(f[1], cs.c), f[2], out=r[2])
        c1, c2, c3 = np.linalg.solve(f.T, r.T).T
        res["lightcone_brackets"] = np.array([
            c1[1],                 # [xi,u] has no u part
            c2[1], c2[2],          # [xi,phi(u)] proportional to xi
            c2[0] - (mu - c1[2]),  # with coefficient mu - c
            c3[1] - 1.0,           # [u,phi(u)] = e xi + u + f phi(u)
        ])
    return res

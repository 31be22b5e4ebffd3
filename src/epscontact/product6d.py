"""Six-dimensional product solutions: a Lorentzian contact three-factor times
a Riemannian contact three-factor carrying the two-parameter torsion form

    H = lambda nu_L + l (*_L alpha_N) ^ alpha_X
      + l alpha_N ^ (*_R alpha_X) + lambda nu_R,

whose torsionful connection is Ricci-flat with closed, co-closed and
isotropic torsion whenever the factor constants satisfy
lambda^2(N) = lambda^2(X) = lambda^2, kappa_N = l^2, kappa_X = eps_N l^2.

The mixed-term coefficient is stated for the determinant wedge convention
used by this library ((e^a ^ e^b) ^ e^c evaluates to 1 on (e_a, e_b, e_c));
conventions that normalize mixed-degree products differently quote it as l/3.

Frame ordering: indices 0-2 the Lorentzian factor, 3-5 the Riemannian factor;
the 6D volume form is nu_L ^ nu_R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .config import get_tol
from .contact import ContactBatch, ContactStructure, EtaEinsteinFit, _read_only, build_contact
from .curvature import ricci_components, three_form_square, torsionful_connection
from .errors import EpsContactError, IncompatibleFactors
from .exterior import (
    FrameMetric,
    _product_table,
    antisymmetric_array,
    d_components,
    hodge_components,
    index_tuples,
    pairing_components,
)
from .liealg import FAMILIES, direct_sum_components
from .tables import table_row


class ProductSolution:
    """The 6D product data of a Lorentzian and a Riemannian factor,
    ContactBatches with the same batch axes (a ContactStructure each for one
    solution), with lam and l numbers or arrays over those axes, held as
    given. It forms, once and read-only: the bracket tables c6 (..., 6, 6, 6),
    the frame metric m6 (one per pair of factor metrics), orientation6 (an
    int for one solution) and h_form, the C(6, 3) components (..., 20) of H;
    h_array, gamma and torsion_ricci on first use. The product metric is
    block-diagonal, so gamma is the direct sum of the factors' (cached)
    Levi-Civita coefficients."""

    def __init__(self, n_struct: ContactBatch, x_struct: ContactBatch, lam, l):
        self.n_struct, self.x_struct, self.lam, self.l = n_struct, x_struct, lam, l
        self.c6 = _read_only(direct_sum_components(n_struct.c, x_struct.c))
        self.m6 = _product_metric(n_struct.m, x_struct.m)
        self.orientation6 = n_struct.orientation * x_struct.orientation
        if isinstance(self.orientation6, np.ndarray):
            _read_only(self.orientation6)
        self.h_form = _read_only(torsion_form(n_struct, x_struct, lam, l))

    @cached_property
    def h_array(self) -> np.ndarray:
        """The antisymmetric (..., 6, 6, 6) array of H."""
        return _read_only(antisymmetric_array(self.h_form, 6, 3))

    @cached_property
    def gamma(self) -> np.ndarray:
        """Levi-Civita coefficients of the 6D product metric."""
        return _read_only(direct_sum_components(self.n_struct.gamma, self.x_struct.gamma))

    @cached_property
    def torsion_ricci(self) -> np.ndarray:
        """Ricci tensor of the connection with torsion H."""
        return _read_only(ricci_components(
            torsionful_connection(self.gamma, self.h_array, self.m6), self.c6))

    def to_json(self) -> str:
        """The JSON form of one solution."""
        import json

        data = {
            "lambda": self.lam,
            "l": self.l,
            "n": json.loads(self.n_struct.to_json()),
            "x": json.loads(self.x_struct.to_json()),
            "H": {"degree": 3, "dim": 6, "comps": {
                ",".join(map(str, t)): float(v)
                for t, v in zip(index_tuples(6, 3), self.h_form) if v != 0.0}},
        }
        return json.dumps(data, sort_keys=True)


@dataclass(frozen=True)
class SugraResiduals:
    """Residuals of the four field equations; a solution iff all <= tol."""

    ricci_h: float
    d_h: float
    d_star_h: float
    norm_h: float

    def max_residual(self) -> float:
        """The worst size of a residual; NaN or inf when one is not finite, so
        that is_solution fails."""
        return float(np.max(np.abs([self.ricci_h, self.d_h, self.d_star_h, self.norm_h])))

    def is_solution(self, tol: float | None = None) -> bool:
        return self.max_residual() <= get_tol(tol)


# --- the formulas, on stacks ----------------------------------------------------
#
# Each takes stacked data with any batch axes (none for one solution):
# ProductSolution, verify_supergravity and run_catalog run them.


@lru_cache(maxsize=None)
def _product_metric(m_n: FrameMetric, m_x: FrameMetric) -> FrameMetric:
    """The 6D frame metric of the factor metrics, built (with its eta) once."""
    return FrameMetric(m_n.signs + m_x.signs)


def torsion_form(n_struct, x_struct, lam, l) -> np.ndarray:
    """The C(6, 3) components (..., 20) of H on the 6D frame from the factors'
    alpha, m and orientation: ContactBatches (a contact structure is one)
    with lam and l numbers or arrays over the batch axes. nu_N, (*alpha_N) ^
    alpha_X, alpha_N ^ (*alpha_X) and nu_X are one gather of the factors'
    alpha by exterior._product_table, with the bits of their lifts, Hodge
    duals and wedges; a zero factor gives +0.0."""
    n, x = n_struct, x_struct
    ka, kb, sign, live, of_n = _product_table(n.m.signs, x.m.signs)
    a, b = (np.concatenate([s.alpha, np.ones(s.alpha.shape[:-1] + (1,))], axis=-1) for s in (n, x))
    o = np.where(of_n, *(np.asarray(s.orientation, dtype=float)[..., None, None] for s in (n, x)))
    va, vb = a[..., ka], b[..., kb]
    # + 0 turns an underflowed -0.0 into +0.0, as the wedge's sum from +0.0 does
    forms = np.where(live & (va != 0.0) & (vb != 0.0), sign * o * va * vb, 0.0) + 0
    nu_n, w_n, w_x, nu_x = (forms[..., f, :] for f in range(4))
    lam, l = (np.asarray(v, dtype=float)[..., None] for v in (lam, l))
    return lam * nu_n + l * w_n + l * w_x + lam * nu_x


def field_residuals(sol: ProductSolution) -> tuple:
    """The four field equations of the solutions, as arrays over the batch
    axes: max |Ric(nabla^H)|, max |dH|, max |d*H| and |H|^2 = H_{ijk} H^{ijk}."""
    h, c6, m6 = sol.h_form, sol.c6, sol.m6
    d_h = d_components(h, c6, 3)
    d_star_h = d_components(hodge_components(h, m6.signs, 3, sol.orientation6), c6, 3)
    # the all-tuples contraction H_{ijk} H^{ijk}: 3! times the sorted-tuple pairing
    norm_h = math.factorial(3) * pairing_components(h, h, m6.signs, 3)
    return (np.abs(sol.torsion_ricci).max(axis=(-2, -1)), np.abs(d_h).max(axis=-1),
            np.abs(d_star_h).max(axis=-1), norm_h)


def factor_bound(tol: float) -> float:
    """How far _check_factors lets a factor's lambda^2 and kappa lie from
    the product's: so a nonzero l with l^2 within it cannot be told from 0."""
    return 1e2 * tol


# the rounding term of the factor comparisons, in units of the larger of the
# fitted and expected magnitudes: a fitted kappa_N of 1e10 lies ulps from l^2
_ROUNDING = 64 * np.finfo(float).eps


def _matches(fitted: float, expected: float, bound: float) -> bool:
    """|fitted - expected| <= bound, plus the rounding term _ROUNDING
    max(|fitted|, |expected|); False where the difference is NaN or infinite."""
    diff = abs(fitted - expected)
    return diff <= bound + _ROUNDING * max(abs(fitted), abs(expected)) and diff != math.inf


def _check_factors(sg_n: int, sg_x: int, eps_n: int, fit_n: EtaEinsteinFit,
                   fit_x: EtaEinsteinFit, lam: float, l: float, tol: float) -> None:
    """Raise IncompatibleFactors naming the first violated condition of the
    product: the signatures, both fits, lambda^2, kappa_N, then kappa_X."""
    if sg_n != -1:
        raise IncompatibleFactors("first factor must be Lorentzian")
    if sg_x != 1:
        raise IncompatibleFactors("second factor must be Riemannian")
    check_tol = factor_bound(tol)
    if not fit_n.residual <= tol or not fit_n.admissible:
        raise IncompatibleFactors(
            f"Lorentzian factor is not admissibly eta-Einstein (residual {fit_n.residual:.3e})"
        )
    if not fit_x.residual <= tol:
        raise IncompatibleFactors(
            f"Riemannian factor is not eta-Einstein (residual {fit_x.residual:.3e})"
        )
    lam2 = lam * lam
    l2 = l * l
    # a NaN lambda or l fails each check
    if not (_matches(fit_n.lambda2, lam2, check_tol) and _matches(fit_x.lambda2, lam2, check_tol)):
        raise IncompatibleFactors(
            f"lambda^2 mismatch: factors ({fit_n.lambda2:.6g}, {fit_x.lambda2:.6g}) vs lambda^2={lam2:.6g}"
        )
    if not _matches(fit_n.kappa, l2, check_tol):
        raise IncompatibleFactors(f"kappa_N={fit_n.kappa:.6g} != l^2={l2:.6g}")
    if not _matches(fit_x.kappa, eps_n * l2, check_tol):
        raise IncompatibleFactors(
            f"kappa_X={fit_x.kappa:.6g} != eps_N l^2={eps_n * l2:.6g}"
        )


# --- one solution ---------------------------------------------------------------


def build_solution(
    n_struct: ContactStructure,
    x_struct: ContactStructure,
    lam: float,
    l: float,
    tol: float | None = None,
) -> ProductSolution:
    """Construct the 6D product data, validating factor compatibility:
    both factors eta-Einstein with lambda^2 = lam^2, kappa_N = l^2 and
    kappa_X = eps_N l^2. Raises IncompatibleFactors naming the violation."""
    tol = get_tol(tol)
    _check_factors(n_struct.m.s_g, x_struct.m.s_g, n_struct.epsilon,
                   n_struct.fit(tol).at(), x_struct.fit(tol).at(), lam, l, tol)
    return ProductSolution(n_struct, x_struct, lam, l)


def verify_supergravity(sol: ProductSolution) -> SugraResiduals:
    """Evaluate the four field equations on the data of one solution."""
    return SugraResiduals(*(float(r) for r in field_residuals(sol)))


def ricci_torsion_identity_residual(sol: ProductSolution) -> float:
    """Residual of Ric(nabla^H) = Ric^g - (1/4) H o H, valid whenever H is
    closed and co-closed. Ric^g is the direct sum of the factors' (cached)
    Ricci tensors."""
    ric_g = direct_sum_components(sol.n_struct.ricci, sol.x_struct.ricci, rank=2)
    square = three_form_square(sol.h_array, sol.m6)
    return float(np.max(np.abs(sol.torsion_ricci - (ric_g - 0.25 * square))))


# --- catalog of product rows ----------------------------------------------------
#
# A row pairs two classification-table rows. n maps l to the (table, row id,
# sample point, orientation) of the Lorentzian factor N, x maps l to the
# (thm-4.14 row id, sample point) of the Riemannian factor X, which has
# orientation -1, and lam gives lambda at l.


@dataclass(frozen=True)
class CatalogRow:
    epsilon_n: int
    name: str
    n: Callable[[float], tuple]
    x: Callable[[float], tuple]
    lam: Callable[[float], float]
    l2_max: Optional[float] = None  # None: any l^2 >= 0; otherwise exclusive bound
    fixed_l2: Optional[float] = None  # row only defined at this l^2

    def ls(self, l_samples) -> list:
        """The l values the row is instantiated at: sqrt(fixed_l2), or the
        samples inside the l^2 bound."""
        if self.fixed_l2 is not None:
            return [math.sqrt(self.fixed_l2)]
        return [float(l) for l in l_samples if self.l2_max is None or l * l < self.l2_max - 1e-12]

    def factors(self, l: float) -> tuple:
        """(table row, instance fields, orientation) of N and of X at l."""
        table, n_id, n_point, orientation = self.n(l)
        x_id, x_point = self.x(l)
        n_row, x_row = table_row(table, n_id), table_row("thm-4.14", x_id)
        return (n_row, n_row.make(**n_point), orientation), (x_row, x_row.make(**x_point), -1)

    def representable(self, l: float) -> bool:
        """Whether floating point holds the row at l: finite sample points,
        hence finite factor parameters, and one-forms whose |alpha|^2 does
        not overflow (the null rows' a0 = 1/|l| does at tiny l)."""
        if not all(map(math.isfinite, (*self.n(l)[2].values(), *self.x(l)[1].values()))):
            return False
        for _, f, _ in self.factors(l):
            signs = FAMILIES[f["spec"].family_id].metric.signs
            if not math.isfinite(sum(s * a * a for s, a in zip(signs, f["alpha"]))):
                return False
        return True

    def build(self, l: float) -> tuple:
        """(n_struct, x_struct, lambda) at l."""
        n, x = (build_contact(f["spec"], f["alpha"], o) for _, f, o in self.factors(l))
        return n, x, self.lam(l)


def _su2(m: float) -> tuple:
    """The Riemannian Sasakian factor with lambda^2 = m."""
    return "su2-sasakian", {"m": m}


def _mh(l: float) -> float:
    """The thm-4.14 parameter of the non-Sasakian rows with lambda^2 = l^2."""
    return math.sqrt(1.0 - 2.0 * (l * l))


def _null_sl2r(l: float) -> tuple:
    """The g3 factor with alpha = e^0 + e^1 at l = 0, else the g4 factor with
    kappa = 1/a0^2 = l^2."""
    if l == 0.0:
        return "thm-4.25", "g3-sl2r", {"s": 1.0, "theta": 0.0, "a0": 1.0}, 1
    return "thm-4.25", "g4-sl2r", {"s": 1.0, "a0": 1.0 / abs(l)}, 1


def _null_e11(l: float) -> tuple:
    """The flat g3 factor at l = 0, else the g4 factor with kappa = 2/a0^2 = l^2."""
    if l == 0.0:
        return "thm-4.25", "g3-e11", {"s": 1.0, "mu": 1.0, "a0": 1.0}, 1
    return "thm-4.25", "g4-e11", {"s": 1.0, "a0": math.sqrt(2.0) / abs(l)}, 1


CATALOG = [
    # time-like table (eps_N = -1)
    CatalogRow(-1, "sl2r-sasakian_x_su2-sasakian",
               lambda l: ("thm-1.2", "g3-sasakian", {"a": 1.0 - l * l}, 1),
               lambda l: _su2(1.0 - l * l), lambda l: math.sqrt(1.0 - l * l), l2_max=1.0),
    CatalogRow(-1, "g6-sasakian_x_su2-sasakian",
               lambda l: ("thm-1.2", "g6-sasakian", {"a": math.sqrt(1.0 - l * l)}, -1),
               lambda l: _su2(1.0 - l * l), lambda l: math.sqrt(1.0 - l * l), l2_max=1.0),
    CatalogRow(-1, "h3_x_h3", lambda l: ("thm-1.2", "g3-h3", {}, -1),
               lambda l: ("h3-sasakian", {}), lambda l: 0.0, fixed_l2=1.0),
    # both factors have lambda^2 = l^2 < 1/2; X is non-Sasakian with kappa_X = -l^2
    CatalogRow(-1, "sl2r-nonsasakian_x_su2-nonsasakian",
               lambda l: ("thm-1.2", "g3-nonsasakian", {"b": 0.5 * (1.0 + _mh(l))}, 1),
               lambda l: ("su2-nonsasakian", {"mh": _mh(l)}), lambda l: math.sqrt(l * l),
               l2_max=0.5),
    CatalogRow(-1, "e11_x_e2", lambda l: ("thm-1.2", "g3-e11", {}, 1),
               lambda l: ("e2-nonsasakian", {}), lambda l: 0.0, fixed_l2=0.0),
    # space-like table (eps_N = +1)
    CatalogRow(1, "sl2r-parasasakian_x_su2-sasakian",
               lambda l: ("thm-4.22", "g3-sasakian-alpha1",
                          {"s": 1.0, "t": 1.0 + l * l, "sign": 1.0}, 1),
               lambda l: _su2(1.0 + l * l), lambda l: math.sqrt(1.0 + l * l)),
    CatalogRow(1, "g6-parasasakian_x_su2-sasakian",
               lambda l: ("thm-4.22", "g6-axis", {"s": 1.0, "d": math.sqrt(1.0 + l * l)}, 1),
               lambda l: _su2(1.0 + l * l), lambda l: math.sqrt(1.0 + l * l)),
    CatalogRow(1, "e11_x_e2", lambda l: ("thm-4.22", "g3-e11", {"s": 1.0, "a0": 0.0}, 1),
               lambda l: ("e2-nonsasakian", {}), lambda l: 0.0, fixed_l2=0.0),
    CatalogRow(1, "e2_x_e2", lambda l: ("thm-4.22", "g3-e2", {"s": 1.0, "theta": 0.0}, 1),
               lambda l: ("e2-nonsasakian", {}), lambda l: 0.0, fixed_l2=0.0),
    # null table (eps_N = 0); kappa_X = 0 for every l
    CatalogRow(0, "sl2r-sasakian-null_x_su2", _null_sl2r,
               lambda l: _su2(1.0), lambda l: 1.0),
    CatalogRow(0, "g6-sasakian-null_x_su2",
               lambda l: ("thm-4.25", "g6", {"s": 1.0, "mu": 1.0, "b": -0.5, "a0": 1.0}, 1),
               lambda l: _su2(1.0), lambda l: 1.0, fixed_l2=0.0),
    CatalogRow(0, "g6-nonsasakian-null_x_su2",
               lambda l: ("thm-4.25", "g6", {"s": 1.0, "mu": 1.0, "b": -1.5, "a0": 1.0}, 1),
               lambda l: _su2(1.0), lambda l: 1.0, fixed_l2=0.0),
    CatalogRow(0, "e11-sasakian-null_x_su2",
               lambda l: ("thm-4.25", "g2-e11", {"s": 1.0, "mu": 1.0, "b": 0.5, "a0": 1.0}, 1),
               lambda l: _su2(1.0), lambda l: 1.0, fixed_l2=0.0),
    CatalogRow(0, "e11-nonsasakian-null_x_su2",
               lambda l: ("thm-4.25", "g2-e11", {"s": 1.0, "mu": 1.0, "b": 1.5, "a0": 1.0}, 1),
               lambda l: _su2(1.0), lambda l: 1.0, fixed_l2=0.0),
    CatalogRow(0, "e11-null_x_e2", _null_e11,
               lambda l: ("e2-nonsasakian", {}), lambda l: 0.0),
]


DEFAULT_L_SAMPLES = (0.0, 0.25, 0.5, 0.75, 0.9)


def catalog_rows(epsilon_n: int) -> list:
    """The catalog rows of one table; ValueError for an epsilon_n outside {-1, 0, 1}."""
    if epsilon_n not in (-1, 0, 1):
        raise ValueError(f"epsilon_n must be -1, 0 or 1, got {epsilon_n!r}")
    return [row for row in CATALOG if row.epsilon_n == epsilon_n]


@dataclass
class CatalogResult:
    """One catalog row at one l; a row that could not be built or verified
    has ``failure`` set, lam = NaN and infinite residuals."""

    row: str
    epsilon_n: int
    l: float
    lam: float
    residuals: SugraResiduals
    passed: bool
    failure: Optional[str] = None


def run_catalog(epsilon_n: int, l_samples, tol: float | None = None) -> list:
    """Instantiate and verify every catalog row of one table at the given
    l samples (rows pinned to a specific l^2 use that value instead). A
    library error (NotContact, ConstraintViolation, IncompatibleFactors, ...)
    is reported as the failure of its row and l; any other exception is a bug
    and propagates.

    A row's l values are verified together in one stacked pass (see
    _verify_row), with the results of building and verifying each (row, l)
    on its own: row.build, build_solution and verify_supergravity."""
    tol = get_tol(tol)
    return [res for row in catalog_rows(epsilon_n) for res in _verify_row(row, l_samples, tol)]


def _failed(row: CatalogRow, l: float, exc: EpsContactError) -> CatalogResult:
    return CatalogResult(row.name, row.epsilon_n, l, float("nan"),
                         SugraResiduals(np.inf, np.inf, np.inf, np.inf), False,
                         f"{type(exc).__name__}: {exc}")


def _verify_row(row: CatalogRow, l_samples, tol: float) -> list:
    """The CatalogResults of a row at its l values, in l order. Both
    factors' ContactBatches, of any families, their Koszul -> Ricci and
    fits, and one ProductSolution of the l values that pass build_solution's
    checks, with its field residuals, each run once on the stack. Each l then
    reads its results in the order of row.build and build_solution, so a
    failure reports the error raised first there."""
    ls = row.ls(l_samples)
    out, lams, factors = [None] * len(ls), [None] * len(ls), {}
    for k, l in enumerate(ls):
        try:
            factors[k] = row.factors(l)
        except EpsContactError as exc:
            out[k] = _failed(row, l, exc)
    if not factors:
        return out
    # each factor's (table row, instance fields, orientation) at the l values,
    # checked at the default tolerance, as row.build checks it
    n, x = (ContactBatch.from_specs([f["spec"] for _, f, _ in fs], [f["alpha"] for _, f, _ in fs],
                                    np.array([o for _, _, o in fs]))
            for fs in zip(*factors.values()))
    ks, live = list(factors), []  # ks[j]: the index into ls of batch row j
    for j, k in enumerate(ks):
        try:
            for factor in (n, x):
                if not factor.ok[j]:
                    raise factor.error(j)
            lams[k] = row.lam(ls[k])
        except EpsContactError as exc:
            out[k] = _failed(row, ls[k], exc)
            continue
        live.append(j)
    n, x, ks, live = n.take(live), x.take(live), [ks[j] for j in live], []
    fits_n, fits_x = n.fit(tol), x.fit(tol)
    for j, k in enumerate(ks):
        try:
            _check_factors(n.m.s_g, x.m.s_g, int(n.eps[j]), fits_n.at(j), fits_x.at(j),
                           lams[k], ls[k], tol)
        except IncompatibleFactors as exc:
            out[k] = _failed(row, ls[k], exc)
            continue
        live.append(j)
    if not live:
        return out
    ks = [ks[j] for j in live]
    sol = ProductSolution(n.take(live), x.take(live), [lams[k] for k in ks], [ls[k] for k in ks])
    fields = field_residuals(sol)
    for j, k in enumerate(ks):
        res = SugraResiduals(*(float(f[j]) for f in fields))
        out[k] = CatalogResult(row.name, row.epsilon_n, ls[k], lams[k], res, res.is_solution(tol))
    return out


def preset_ads3xs3() -> ProductSolution:
    """The row sl2r-sasakian-null_x_su2 at l = 0: the unit-constants g3 factor
    (null alpha) times the round Riemannian Sasakian factor, H = nu_L + nu_R."""
    row = next(r for r in catalog_rows(0) if r.name == "sl2r-sasakian-null_x_su2")
    n, x, lam = row.build(0.0)
    return build_solution(n, x, lam, 0.0)

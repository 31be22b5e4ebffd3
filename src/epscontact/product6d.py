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
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .config import get_tol
from .contact import ContactStructure, build_contact
from .curvature import (
    ConnectionCoeffs,
    levi_civita,
    riemann_ricci,
    three_form_square,
    torsionful_connection,
)
from .einstein import fit_eta_einstein
from .errors import EpsContactError, IncompatibleFactors
from .exterior import (
    FrameMetric,
    antisymmetric_array,
    d_components,
    embed_components,
    hodge_components,
    index_tuples,
    pairing_components,
    wedge_components,
)
from .liealg import StructureConstants, direct_sum
from .tables import table_row


@dataclass(frozen=True)
class ProductSolution:
    """The 6D product data; h_form holds the C(6, 3) components of H."""

    n_struct: ContactStructure
    x_struct: ContactStructure
    lam: float
    l: float
    sc6: StructureConstants
    m6: FrameMetric
    orientation6: int
    h_form: np.ndarray

    @cached_property
    def h_array(self) -> np.ndarray:
        """The antisymmetric (6, 6, 6) array of H."""
        arr = antisymmetric_array(self.h_form, 6, 3)
        arr.flags.writeable = False
        return arr

    @cached_property
    def connection(self) -> ConnectionCoeffs:
        """Levi-Civita connection of the 6D product metric."""
        return levi_civita(self.sc6, self.m6)

    @cached_property
    def torsion_connection(self) -> ConnectionCoeffs:
        """Metric connection with torsion H."""
        return torsionful_connection(self.connection, self.h_array, self.m6)

    @cached_property
    def torsion_ricci(self) -> np.ndarray:
        """Ricci tensor of the connection with torsion H."""
        ricci = riemann_ricci(self.torsion_connection, self.sc6, self.m6).ricci
        ricci.flags.writeable = False
        return ricci

    def to_json(self) -> str:
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
        return max(self.ricci_h, self.d_h, self.d_star_h, abs(self.norm_h))

    def is_solution(self, tol: float | None = None) -> bool:
        return self.max_residual() <= get_tol(tol)


def torsion_form(n_struct: ContactStructure, x_struct: ContactStructure,
                 lam: float, l: float) -> np.ndarray:
    """The C(6, 3) components of H on the 6D frame from the factor data."""
    n, x = n_struct, x_struct
    nu_n = embed_components(np.array([float(n.orientation)]), 3, 0)
    nu_x = embed_components(np.array([float(x.orientation)]), 3, 3)
    alpha_n, alpha_x = embed_components(n.alpha, 1, 0), embed_components(x.alpha, 1, 3)
    star_alpha_n = embed_components(hodge_components(n.alpha, n.m.signs, 1, n.orientation), 2, 0)
    star_alpha_x = embed_components(hodge_components(x.alpha, x.m.signs, 1, x.orientation), 2, 3)
    return (
        lam * nu_n
        + l * wedge_components(star_alpha_n, alpha_x, 6, 2, 1)
        + l * wedge_components(alpha_n, star_alpha_x, 6, 1, 2)
        + lam * nu_x
    )


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
    if n_struct.m.s_g != -1:
        raise IncompatibleFactors("first factor must be Lorentzian")
    if x_struct.m.s_g != 1:
        raise IncompatibleFactors("second factor must be Riemannian")
    check_tol = 1e2 * tol
    fit_n = fit_eta_einstein(n_struct, tol=tol)
    fit_x = fit_eta_einstein(x_struct, tol=tol)
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
    # each check reads "not ... <= bound", so that a NaN lambda or l fails it
    if not (abs(fit_n.lambda2 - lam2) <= check_tol and abs(fit_x.lambda2 - lam2) <= check_tol):
        raise IncompatibleFactors(
            f"lambda^2 mismatch: factors ({fit_n.lambda2:.6g}, {fit_x.lambda2:.6g}) vs lambda^2={lam2:.6g}"
        )
    if not abs(fit_n.kappa - l2) <= check_tol:
        raise IncompatibleFactors(f"kappa_N={fit_n.kappa:.6g} != l^2={l2:.6g}")
    if not abs(fit_x.kappa - n_struct.epsilon * l2) <= check_tol:
        raise IncompatibleFactors(
            f"kappa_X={fit_x.kappa:.6g} != eps_N l^2={n_struct.epsilon * l2:.6g}"
        )
    sc6 = direct_sum(n_struct.sc, x_struct.sc)
    m6 = FrameMetric(n_struct.m.signs + x_struct.m.signs)
    orientation6 = n_struct.orientation * x_struct.orientation
    h_form = torsion_form(n_struct, x_struct, lam, l)
    h_form.flags.writeable = False
    return ProductSolution(n_struct, x_struct, lam, l, sc6, m6, orientation6, h_form)


def verify_supergravity(sol: ProductSolution) -> SugraResiduals:
    """Evaluate the four field equations on the product data."""
    h, c, signs = sol.h_form, sol.sc6.c, sol.m6.signs
    d_h = d_components(h, c, 3)
    d_star_h = d_components(hodge_components(h, signs, 3, sol.orientation6), c, 3)
    # the all-tuples contraction H_{ijk} H^{ijk}: 3! times the sorted-tuple pairing
    norm_h = math.factorial(3) * float(pairing_components(h, h, signs, 3))
    return SugraResiduals(
        ricci_h=float(np.max(np.abs(sol.torsion_ricci))),
        d_h=float(np.max(np.abs(d_h))),
        d_star_h=float(np.max(np.abs(d_star_h))),
        norm_h=norm_h,
    )


def ricci_torsion_identity_residual(sol: ProductSolution) -> float:
    """Residual of Ric(nabla^H) = Ric^g - (1/4) H o H, valid whenever H is
    closed and co-closed."""
    ric_g = riemann_ricci(sol.connection, sol.sc6, sol.m6).ricci
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
    and propagates."""
    tol = get_tol(tol)
    results = []
    for row in catalog_rows(epsilon_n):
        for l in row.ls(l_samples):
            try:
                n, x, lam = row.build(l)
                res = verify_supergravity(build_solution(n, x, lam, l, tol=tol))
            except EpsContactError as exc:
                results.append(
                    CatalogResult(row.name, epsilon_n, l, float("nan"),
                                  SugraResiduals(np.inf, np.inf, np.inf, np.inf), False,
                                  f"{type(exc).__name__}: {exc}")
                )
                continue
            results.append(CatalogResult(row.name, epsilon_n, l, lam, res, res.is_solution(tol)))
    return results


def preset_ads3xs3() -> ProductSolution:
    """The row sl2r-sasakian-null_x_su2 at l = 0: the unit-constants g3 factor
    (null alpha) times the round Riemannian Sasakian factor, H = nu_L + nu_R."""
    row = next(r for r in catalog_rows(0) if r.name == "sl2r-sasakian-null_x_su2")
    n, x, lam = row.build(0.0)
    return build_solution(n, x, lam, 0.0)

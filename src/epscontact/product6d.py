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
from .errors import IncompatibleFactors, RowFailure
from .exterior import (
    Form,
    FrameMetric,
    hodge,
    index_tuples,
    mc_differential,
    pairing_full,
    volume_form,
    wedge,
)
from .liealg import FamilySpec, StructureConstants, direct_sum


def embed_form(form: Form, dim: int, offset: int) -> Form:
    """Lift a form on a 3D factor into the 6D frame at the given index offset."""
    entries = {}
    for t, val in zip(index_tuples(form.dim, form.degree), form.comps):
        if val != 0.0:
            entries[tuple(i + offset for i in t)] = float(val)
    return Form.from_components(form.degree, dim, entries)


@dataclass(frozen=True)
class ProductSolution:
    n_struct: ContactStructure
    x_struct: ContactStructure
    lam: float
    l: float
    sc6: StructureConstants
    m6: FrameMetric
    orientation6: int
    h_form: Form

    @cached_property
    def connection(self) -> ConnectionCoeffs:
        """Levi-Civita connection of the 6D product metric."""
        return levi_civita(self.sc6, self.m6)

    @cached_property
    def torsion_connection(self) -> ConnectionCoeffs:
        """Metric connection with torsion H."""
        return torsionful_connection(self.connection, self.h_form, self.m6)

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
            "H": json.loads(self.h_form.to_json()),
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
                 lam: float, l: float) -> Form:
    """Assemble H on the 6D frame from the factor data."""
    nu_n = embed_form(volume_form(n_struct.m, n_struct.orientation), 6, 0)
    nu_x = embed_form(volume_form(x_struct.m, x_struct.orientation), 6, 3)
    alpha_n = embed_form(n_struct.alpha, 6, 0)
    alpha_x = embed_form(x_struct.alpha, 6, 3)
    star_alpha_n = embed_form(
        hodge(n_struct.alpha, n_struct.m, n_struct.orientation), 6, 0
    )
    star_alpha_x = embed_form(
        hodge(x_struct.alpha, x_struct.m, x_struct.orientation), 6, 3
    )
    return (
        lam * nu_n
        + l * wedge(star_alpha_n, alpha_x)
        + l * wedge(alpha_n, star_alpha_x)
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
    return ProductSolution(n_struct, x_struct, lam, l, sc6, m6, orientation6, h_form)


def verify_supergravity(sol: ProductSolution) -> SugraResiduals:
    """Evaluate the four field equations on the product data."""
    d_h = mc_differential(sol.h_form, sol.sc6)
    star_h = hodge(sol.h_form, sol.m6, sol.orientation6)
    d_star_h = mc_differential(star_h, sol.sc6)
    norm_h = pairing_full(sol.h_form, sol.h_form, sol.m6)
    return SugraResiduals(
        ricci_h=float(np.max(np.abs(sol.torsion_ricci))),
        d_h=d_h.max_abs(),
        d_star_h=d_star_h.max_abs(),
        norm_h=float(norm_h),
    )


def ricci_torsion_identity_residual(sol: ProductSolution) -> float:
    """Residual of Ric(nabla^H) = Ric^g - (1/4) H o H, valid whenever H is
    closed and co-closed."""
    ric_g = riemann_ricci(sol.connection, sol.sc6, sol.m6).ricci
    square = three_form_square(sol.h_form, sol.m6)
    return float(np.max(np.abs(sol.torsion_ricci - (ric_g - 0.25 * square))))


# --- catalog of product rows ----------------------------------------------------


def _factor(family: str, params: dict, alpha, orientation: int) -> ContactStructure:
    """A verified contact factor of a classification family."""
    return build_contact(FamilySpec(family, params), alpha, orientation)


def _unimodular(mu2: float, mu3: float) -> ContactStructure:
    """Riemannian factor: the unimodular family at mu1 = 1 with alpha = e^0."""
    return _factor("riemannian_unimodular", {"mu1": 1.0, "mu2": mu2, "mu3": mu3},
                   [1.0, 0.0, 0.0], -1)


def _su2_sasakian(kappa_x: float) -> ContactStructure:
    """Riemannian Sasakian factor with lambda^2 = 1 + kappa_x."""
    m = 1.0 + kappa_x
    if m <= 0:
        raise RowFailure(f"Sasakian factor needs kappa_x > -1, got {kappa_x}")
    return _unimodular(m, m)


@dataclass(frozen=True)
class CatalogRow:
    epsilon_n: int
    name: str
    l2_max: Optional[float]  # None: any l^2 >= 0; otherwise exclusive bound
    fixed_l2: Optional[float]  # row only defined at this l^2
    lorentz_sasakian: bool
    riemann_sasakian: bool
    build: Callable[[float], tuple]  # l -> (n_struct, x_struct, lambda)


def _catalog_rows() -> list:
    rows = []

    # --- time-like table (eps_N = -1) ---
    def tl_sl2r_sas(l):
        lam2 = 1.0 - l * l
        n = _factor("g3", {"a": lam2, "b": lam2, "c": 1.0}, [1.0, 0.0, 0.0], 1)
        return n, _su2_sasakian(-l * l), math.sqrt(lam2)

    def tl_g6_sas(l):
        lam2 = 1.0 - l * l
        n = _factor(
            "g6", {"a": math.sqrt(lam2), "b": 1.0, "c": 0.0, "d": 0.0}, [1.0, 0.0, 0.0], -1
        )
        return n, _su2_sasakian(-l * l), math.sqrt(lam2)

    def tl_h3_h3(l):
        n = _factor("g3", {"a": 0.0, "b": 0.0, "c": -1.0}, [-1.0, 0.0, 0.0], -1)
        return n, _unimodular(0.0, 0.0), 0.0

    def tl_nonsas(l):
        # both factors have lambda^2 = l^2 < 1/2; X is non-Sasakian with kappa_X = -l^2
        l2 = l * l
        mh = math.sqrt(1.0 - 2.0 * l2)
        b = 0.5 * (1.0 + mh)
        n = _factor("g3", {"a": 1.0 - b, "b": b, "c": 1.0}, [1.0, 0.0, 0.0], 1)
        return n, _unimodular(0.5 * (1.0 - mh), b), math.sqrt(l2)

    def tl_e11_e2(l):
        n = _factor("g3", {"a": 1.0, "b": 0.0, "c": 1.0}, [-1.0, 0.0, 0.0], 1)
        return n, _unimodular(0.0, 1.0), 0.0

    rows += [
        CatalogRow(-1, "sl2r-sasakian_x_su2-sasakian", 1.0, None, True, True, tl_sl2r_sas),
        CatalogRow(-1, "g6-sasakian_x_su2-sasakian", 1.0, None, True, True, tl_g6_sas),
        CatalogRow(-1, "h3_x_h3", None, 1.0, True, True, tl_h3_h3),
        CatalogRow(-1, "sl2r-nonsasakian_x_su2-nonsasakian", 0.5, None, False, False, tl_nonsas),
        CatalogRow(-1, "e11_x_e2", None, 0.0, False, False, tl_e11_e2),
    ]

    # --- space-like table (eps_N = +1) ---
    def sl_sl2r_sas(l):
        t = 1.0 + l * l
        n = _factor("g3", {"a": 1.0, "b": t, "c": t}, [0.0, 1.0, 0.0], 1)
        return n, _su2_sasakian(l * l), math.sqrt(t)

    def sl_g6_sas(l):
        t = 1.0 + l * l
        n = _factor(
            "g6", {"a": 0.0, "b": 0.0, "c": -1.0, "d": math.sqrt(t)}, [0.0, 0.0, 1.0], 1
        )
        return n, _su2_sasakian(l * l), math.sqrt(t)

    def sl_e11_e2(l):
        n = _factor("g3", {"a": 1.0, "b": 0.0, "c": 1.0}, [0.0, 1.0, 0.0], 1)
        return n, _unimodular(0.0, 1.0), 0.0

    def sl_e2_e2(l):
        n = _factor("g3", {"a": 1.0, "b": 1.0, "c": 0.0}, [0.0, 1.0, 0.0], 1)
        return n, _unimodular(0.0, 1.0), 0.0

    rows += [
        CatalogRow(1, "sl2r-parasasakian_x_su2-sasakian", None, None, True, True, sl_sl2r_sas),
        CatalogRow(1, "g6-parasasakian_x_su2-sasakian", None, None, True, True, sl_g6_sas),
        CatalogRow(1, "e11_x_e2", None, 0.0, False, False, sl_e11_e2),
        CatalogRow(1, "e2_x_e2", None, 0.0, False, False, sl_e2_e2),
    ]

    # --- null table (eps_N = 0); kappa_X = 0 for every l ---
    def nu_sl2r_sas(l):
        if l == 0.0:
            n = _factor("g3", {"a": 1.0, "b": 1.0, "c": 1.0}, [1.0, 1.0, 0.0], 1)
        else:
            a0 = 1.0 / abs(l)
            n = _factor("g4", {"a": 1.0, "b": 0.0, "mu": -1.0}, [a0, 0.0, -a0], 1)
        return n, _su2_sasakian(0.0), 1.0

    def nu_g6_sas(l):
        n = _factor(
            "g6", {"a": 0.5, "b": -0.5, "c": -0.5, "d": 0.5}, [1.0, 0.0, -1.0], 1
        )
        return n, _su2_sasakian(0.0), 1.0

    def nu_g6_nonsas(l):
        n = _factor(
            "g6", {"a": -0.5, "b": -1.5, "c": -1.5, "d": -0.5}, [1.0, 0.0, -1.0], 1
        )
        return n, _su2_sasakian(0.0), 1.0

    def nu_e11_sas(l):
        n = _factor("g2", {"a": 0.0, "b": 0.5, "c": -0.5}, [1.0, 0.0, 1.0], 1)
        return n, _su2_sasakian(0.0), 1.0

    def nu_e11_nonsas(l):
        n = _factor("g2", {"a": 0.0, "b": 1.5, "c": 0.5}, [1.0, 0.0, 1.0], 1)
        return n, _su2_sasakian(0.0), 1.0

    def nu_e11_e2(l):
        if l == 0.0:
            n = _factor("g3", {"a": 1.0, "b": 0.0, "c": 1.0}, [1.0, 1.0, 0.0], 1)
        else:
            a0 = math.sqrt(2.0) / abs(l)
            n = _factor("g4", {"a": 0.0, "b": 0.0, "mu": -1.0}, [a0, 0.0, -a0], 1)
        return n, _unimodular(0.0, 1.0), 0.0

    rows += [
        CatalogRow(0, "sl2r-sasakian-null_x_su2", None, None, True, True, nu_sl2r_sas),
        CatalogRow(0, "g6-sasakian-null_x_su2", None, 0.0, True, True, nu_g6_sas),
        CatalogRow(0, "g6-nonsasakian-null_x_su2", None, 0.0, False, True, nu_g6_nonsas),
        CatalogRow(0, "e11-sasakian-null_x_su2", None, 0.0, True, True, nu_e11_sas),
        CatalogRow(0, "e11-nonsasakian-null_x_su2", None, 0.0, False, True, nu_e11_nonsas),
        CatalogRow(0, "e11-null_x_e2", None, None, False, False, nu_e11_e2),
    ]
    return rows


CATALOG = _catalog_rows()


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


def run_catalog(
    epsilon_n: int,
    l_samples,
    tol: float | None = None,
    strict: bool = False,
) -> list:
    """Instantiate and verify every catalog row of one table at the given
    l samples (rows pinned to a specific l^2 use that value instead)."""
    tol = get_tol(tol)
    results = []
    for row in catalog_rows(epsilon_n):
        if row.fixed_l2 is not None:
            ls = [math.sqrt(row.fixed_l2)]
        else:
            ls = [
                float(l)
                for l in l_samples
                if row.l2_max is None or l * l < row.l2_max - 1e-12
            ]
        for l in ls:
            try:
                n, x, lam = row.build(l)
                sol = build_solution(n, x, lam, l, tol=tol)
                res = verify_supergravity(sol)
                ok = res.is_solution(tol)
            except Exception as exc:  # noqa: BLE001 - reported, not swallowed
                if strict:
                    raise RowFailure(f"{row.name} at l={l}: {exc}") from exc
                results.append(
                    CatalogResult(row.name, epsilon_n, l, float("nan"),
                                  SugraResiduals(np.inf, np.inf, np.inf, np.inf), False,
                                  f"{type(exc).__name__}: {exc}")
                )
                continue
            if strict and not ok:
                raise RowFailure(
                    f"{row.name} at l={l}: residual {res.max_residual():.3e} > {tol:.1e}"
                )
            results.append(CatalogResult(row.name, epsilon_n, l, lam, res, ok))
    return results


def preset_ads3xs3(lam: float = 1.0) -> ProductSolution:
    """The l = 0 configuration on the product of the unit-constants g3 factor
    (null alpha) and the round Riemannian Sasakian factor: H = lam (nu_L + nu_R)."""
    n = _factor("g3", {"a": 1.0, "b": 1.0, "c": 1.0}, [1.0, 1.0, 0.0], 1)
    x = _su2_sasakian(0.0)
    return build_solution(n, x, lam, 0.0)

"""Classification tables of left-invariant contact structures on simply
connected three-dimensional Lie groups, and their row-by-row verification.

Table identifiers (CLI tokens):
  thm-1.2   eta-Einstein structures with time-like Reeb field
  thm-1.3 / thm-4.22   eta-Einstein para-contact structures (space-like Reeb)
  thm-1.4 / thm-4.25   eta-Einstein null contact structures
  thm-4.14  eta-Einstein Riemannian contact structures
  prop-3.8  null contact structures (existence)
  prop-3.16 Sasakian null contact structures
  prop-3.22 K-contact null contact structures

Each row is instantiated at five deterministic samples per free parameter
(boundary values included where the row permits) and checked directly:
contact condition, causal type, constants fit, Sasakian / K-contact flags,
and group lookup.

Note: rows of the g2 family are restricted to a = 0; the g2 bracket table
satisfies the Jacobi identity only when a c = 0, so with c != 0 the a != 0
sub-rows are not realizable as Lie algebras and are excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .config import get_tol
from .contact import check_contact, is_k_contact, is_sasakian
from .einstein import fit_eta_einstein
from .errors import EpsContactError, NotContact, RowFailure
from .exterior import one_form
from .liealg import FamilySpec, GroupName, family_metric, identify_group, make_family

SIGNS = (1, -1)
ALPHA0 = (0.5, 1.0, 1.5, 2.0, 3.0)
THETAS = (0.45, 1.1, 2.2, 3.7, 5.3)


@dataclass(frozen=True)
class RowInstance:
    """One concrete (family parameters, alpha) sample of a table row."""

    spec: FamilySpec
    alpha: tuple
    epsilon: int
    label: str
    lambda2: Optional[float] = None
    kappa: Optional[float] = None
    sasakian: Optional[bool] = None
    k_contact: Optional[bool] = None
    group: Optional[GroupName] = None
    orientation: Optional[int] = None  # None: determined by the contact condition


@dataclass(frozen=True)
class TableRow:
    table: str
    row_id: str
    instances: Callable[[], list]


@dataclass
class InstanceReport:
    label: str
    params: dict
    alpha: tuple
    orientation: Optional[int]
    passed: bool
    epsilon: Optional[int] = None
    lambda2: Optional[float] = None
    kappa: Optional[float] = None
    residual: Optional[float] = None
    failure: Optional[str] = None
    checks: dict = field(default_factory=dict)


@dataclass
class TableRowReport:
    table: str
    row_id: str
    passed: bool
    instances: list = field(default_factory=list)

    def checks(self) -> dict:
        """Per-check conjunction over the row's instances (absent checks
        count as passed)."""
        keys = ("contact_ok", "group_ok", "fit_ok", "sasakian_ok", "k_contact_ok")
        return {
            key: all(inst.checks.get(key, True) for inst in self.instances)
            for key in keys
        }


# --- row instantiations -------------------------------------------------------


def _lorentz(spec_params, family="g3"):
    return FamilySpec(family, spec_params)


def _null_alpha(alpha0, mu):
    """alpha = alpha0 (e^0 + mu e^2)."""
    return (alpha0, 0.0, mu * alpha0)


def _rows_timelike() -> list:
    rows = []

    def g3_nonsasakian():
        out = []
        for b in (0.55, 0.65, 0.75, 0.85, 0.95):
            lam2 = 2.0 * b * (1.0 - b)
            out.append(
                RowInstance(
                    _lorentz({"a": 1.0 - b, "b": b, "c": 1.0}),
                    (1.0, 0.0, 0.0), -1, f"b={b}",
                    lambda2=lam2, kappa=lam2, sasakian=False, k_contact=False,
                    group=GroupName.SL2R_COVER,
                )
            )
        return out

    def g3_e11():
        return [
            RowInstance(
                _lorentz({"a": 1.0, "b": 0.0, "c": 1.0}),
                (-1.0, 0.0, 0.0), -1, "a=c=1,b=0",
                lambda2=0.0, kappa=0.0, sasakian=False, k_contact=False,
                group=GroupName.E11_COVER,
            )
        ]

    def g3_sasakian():
        out = []
        for a in (0.2, 0.4, 0.6, 0.8, 1.0):
            out.append(
                RowInstance(
                    _lorentz({"a": a, "b": a, "c": 1.0}),
                    (1.0, 0.0, 0.0), -1, f"a={a}",
                    lambda2=a, kappa=1.0 - a, sasakian=True, k_contact=True,
                    group=GroupName.SL2R_COVER,
                )
            )
        return out

    def g3_h3():
        return [
            RowInstance(
                _lorentz({"a": 0.0, "b": 0.0, "c": -1.0}),
                (-1.0, 0.0, 0.0), -1, "a=b=0,c=-1",
                lambda2=0.0, kappa=1.0, sasakian=True, k_contact=True,
                group=GroupName.H3,
            )
        ]

    def g6_sasakian():
        out = []
        for a in (-1.0, -0.5, 0.3, 0.7, 1.0):
            out.append(
                RowInstance(
                    FamilySpec("g6", {"a": a, "b": 1.0, "c": 0.0, "d": 0.0}),
                    (1.0, 0.0, 0.0), -1, f"a={a}",
                    lambda2=a * a, kappa=1.0 - a * a, sasakian=True, k_contact=True,
                    group=GroupName.NON_UNIMODULAR,
                )
            )
        return out

    rows.append(TableRow("thm-1.2", "g3-nonsasakian", g3_nonsasakian))
    rows.append(TableRow("thm-1.2", "g3-e11", g3_e11))
    rows.append(TableRow("thm-1.2", "g3-sasakian", g3_sasakian))
    rows.append(TableRow("thm-1.2", "g3-h3", g3_h3))
    rows.append(TableRow("thm-1.2", "g6-sasakian", g6_sasakian))
    return rows


def _rows_para() -> list:
    rows = []
    ts = (1.0, 1.5, 2.0, 2.5, 3.0)  # t = s*c >= 1, boundary included

    def g3_axis(alpha_index, row_id):
        def build():
            out = []
            for s in SIGNS:
                for t in ts:
                    if alpha_index == 1:
                        params = {"a": s, "b": s * t, "c": s * t}
                    else:
                        params = {"a": s * t, "b": s, "c": s * t}
                    for sign in (1.0, -1.0):
                        alpha = [0.0, 0.0, 0.0]
                        alpha[alpha_index] = sign
                        out.append(
                            RowInstance(
                                _lorentz(params), tuple(alpha), 1,
                                f"s={s},t={t},sign={sign}",
                                lambda2=t, kappa=t - 1.0, sasakian=True, k_contact=True,
                                group=GroupName.SL2R_COVER,
                            )
                        )
            return out

        return TableRow("thm-4.22", row_id, build)

    def g3_e11():
        out = []
        for s in SIGNS:
            for a0 in (0.0, 0.5, -0.5, 1.0, 2.0):
                a1 = math.sqrt(1.0 + a0 * a0)
                out.append(
                    RowInstance(
                        _lorentz({"a": s, "b": 0.0, "c": s}),
                        (a0, a1, 0.0), 1, f"s={s},a0={a0}",
                        lambda2=0.0, kappa=0.0, sasakian=False, k_contact=False,
                        group=GroupName.E11_COVER,
                    )
                )
        return out

    def g3_e2():
        out = []
        for s in SIGNS:
            for theta in THETAS:
                out.append(
                    RowInstance(
                        _lorentz({"a": s, "b": s, "c": 0.0}),
                        (0.0, math.cos(theta), math.sin(theta)), 1,
                        f"s={s},theta={theta}",
                        lambda2=0.0, kappa=0.0, sasakian=False, k_contact=False,
                        group=GroupName.E2_COVER,
                    )
                )
        return out

    def g3_generic():
        out = []
        for s in SIGNS:
            for a0 in (0.0, 0.5, 1.0, 1.5, 2.0):
                r = math.sqrt(1.0 + a0 * a0)
                for theta in THETAS:
                    out.append(
                        RowInstance(
                            _lorentz({"a": s, "b": s, "c": s}),
                            (a0, r * math.cos(theta), r * math.sin(theta)), 1,
                            f"s={s},a0={a0},theta={theta}",
                            lambda2=1.0, kappa=0.0, sasakian=True, k_contact=True,
                            group=GroupName.SL2R_COVER,
                        )
                    )
        return out

    def g6_axis():
        out = []
        for s in SIGNS:
            for d in (-2.0, -1.5, -1.0, 1.0, 1.75):
                out.append(
                    RowInstance(
                        FamilySpec("g6", {"a": 0.0, "b": 0.0, "c": -s, "d": d}),
                        (0.0, 0.0, 1.0), 1, f"s={s},d={d}",
                        lambda2=d * d, kappa=d * d - 1.0, sasakian=True, k_contact=True,
                        group=GroupName.NON_UNIMODULAR,
                    )
                )
        return out

    def g6_generic():
        out = []
        for s in SIGNS:
            for mu in SIGNS:
                for a in (-0.5, -0.25, 0.1, 0.25, 0.45):
                    if mu * a * s >= 0.5 or a == 0.0:
                        continue
                    alpha0 = abs(a) / math.sqrt(1.0 - 2.0 * mu * a * s)
                    alpha2 = (mu * a - s) * alpha0 / a
                    out.append(
                        RowInstance(
                            FamilySpec(
                                "g6",
                                {"a": a, "b": -mu * a, "c": -s + mu * a, "d": -a + mu * s},
                            ),
                            (alpha0, 0.0, alpha2), 1, f"s={s},mu={mu},a={a}",
                            lambda2=1.0, kappa=0.0, sasakian=True, k_contact=True,
                            group=GroupName.NON_UNIMODULAR,
                        )
                    )
        return out

    rows.append(g3_axis(1, "g3-sasakian-alpha1"))
    rows.append(g3_axis(2, "g3-sasakian-alpha2"))
    rows.append(TableRow("thm-4.22", "g3-e11", g3_e11))
    rows.append(TableRow("thm-4.22", "g3-e2", g3_e2))
    rows.append(TableRow("thm-4.22", "g3-generic", g3_generic))
    rows.append(TableRow("thm-4.22", "g6-axis", g6_axis))
    rows.append(TableRow("thm-4.22", "g6-generic", g6_generic))
    return rows


def _g2_b_samples(s):
    """Five b values with b != s, including the Sasakian boundary b = s/2."""
    return (0.5 * s, 0.0, -1.0 * s, 2.0 * s, -2.5 * s)


def _rows_null() -> list:
    rows = []

    def g2():
        out = []
        for s in SIGNS:
            for mu in SIGNS:
                for b in _g2_b_samples(s):
                    for a0 in ALPHA0:
                        sas = abs(b - 0.5 * s) < 1e-12
                        out.append(
                            RowInstance(
                                FamilySpec("g2", {"a": 0.0, "b": b, "c": mu * (b - s)}),
                                _null_alpha(a0, mu), 0, f"s={s},mu={mu},b={b},a0={a0}",
                                lambda2=4.0 * (b - s) ** 2, kappa=0.0,
                                sasakian=sas, k_contact=sas,
                                group=GroupName.E11_COVER,
                            )
                        )
        return out

    def g3_sl2r():
        out = []
        for s in SIGNS:
            for theta in THETAS:
                for a0 in ALPHA0:
                    out.append(
                        RowInstance(
                            _lorentz({"a": s, "b": s, "c": s}),
                            (a0, a0 * math.cos(theta), a0 * math.sin(theta)), 0,
                            f"s={s},theta={theta},a0={a0}",
                            lambda2=1.0, kappa=0.0, sasakian=True, k_contact=True,
                            group=GroupName.SL2R_COVER,
                        )
                    )
        return out

    def g3_e11():
        out = []
        for s in SIGNS:
            for mu in SIGNS:
                for a0 in ALPHA0:
                    out.append(
                        RowInstance(
                            _lorentz({"a": s, "b": 0.0, "c": s}),
                            (a0, mu * a0, 0.0), 0, f"s={s},mu={mu},a0={a0}",
                            lambda2=0.0, kappa=0.0, sasakian=False, k_contact=False,
                            group=GroupName.E11_COVER,
                        )
                    )
        return out

    def g4_sl2r():
        out = []
        for s in SIGNS:
            mu = -s  # kappa >= 0 forces s mu = -1, i.e. b = s + mu = 0
            for a0 in (0.5, 1.0, 1.5, 2.0, 3.0):
                out.append(
                    RowInstance(
                        FamilySpec("g4", {"a": s, "b": 0.0, "mu": mu}),
                        _null_alpha(a0, mu), 0, f"s={s},a0={a0}",
                        lambda2=1.0, kappa=1.0 / a0**2, sasakian=True, k_contact=True,
                        group=GroupName.SL2R_COVER,
                    )
                )
        return out

    def g4_e11():
        out = []
        for s in SIGNS:
            mu = -s
            for a0 in (0.5, 1.0, 1.5, 2.0, 3.0):
                out.append(
                    RowInstance(
                        FamilySpec("g4", {"a": 0.0, "b": 0.0, "mu": mu}),
                        _null_alpha(a0, mu), 0, f"s={s},a0={a0}",
                        lambda2=0.0, kappa=2.0 / a0**2, sasakian=False, k_contact=False,
                        group=GroupName.E11_COVER,
                    )
                )
        return out

    def g6():
        out = []
        for s in SIGNS:
            for mu in SIGNS:
                for b in (-0.5 * s, 0.0, 0.5, 1.0, -2.0 * s):
                    a = mu * (b + s)
                    if abs(a) < 1e-12:
                        continue
                    sas = abs(a - 0.5 * mu * s) < 1e-12
                    for a0 in ALPHA0:
                        out.append(
                            RowInstance(
                                FamilySpec("g6", {"a": a, "b": b, "c": b, "d": a}),
                                _null_alpha(a0, -mu), 0, f"s={s},mu={mu},b={b},a0={a0}",
                                lambda2=4.0 * a * a, kappa=0.0,
                                sasakian=sas, k_contact=sas,
                                group=GroupName.NON_UNIMODULAR,
                            )
                        )
        return out

    rows.append(TableRow("thm-4.25", "g2-e11", g2))
    rows.append(TableRow("thm-4.25", "g3-sl2r", g3_sl2r))
    rows.append(TableRow("thm-4.25", "g3-e11", g3_e11))
    rows.append(TableRow("thm-4.25", "g4-sl2r", g4_sl2r))
    rows.append(TableRow("thm-4.25", "g4-e11", g4_e11))
    rows.append(TableRow("thm-4.25", "g6", g6))
    return rows


def _rows_riemannian() -> list:
    rows = []

    def unimodular(mu1, mu2, mu3):
        return FamilySpec("riemannian_unimodular", {"mu1": mu1, "mu2": mu2, "mu3": mu3})

    def su2_sasakian():
        out = []
        for m in (0.25, 0.5, 1.0, 1.5, 2.0):
            out.append(
                RowInstance(
                    unimodular(1.0, m, m), (1.0, 0.0, 0.0), 1, f"m={m}",
                    lambda2=m, kappa=m - 1.0, sasakian=True, k_contact=True,
                    group=GroupName.SU2,
                )
            )
        return out

    def h3_sasakian():
        return [
            RowInstance(
                unimodular(1.0, 0.0, 0.0), (1.0, 0.0, 0.0), 1, "h3",
                lambda2=0.0, kappa=-1.0, sasakian=True, k_contact=True,
                group=GroupName.H3,
            )
        ]

    def su2_nonsasakian():
        out = []
        for mh in (0.2, 0.4, 0.5, 0.6, 0.8):
            lam2 = 0.5 * (1.0 - mh * mh)
            out.append(
                RowInstance(
                    unimodular(1.0, 0.5 * (1.0 - mh), 0.5 * (1.0 + mh)),
                    (1.0, 0.0, 0.0), 1, f"mh={mh}",
                    lambda2=lam2, kappa=-lam2, sasakian=False, k_contact=False,
                    group=GroupName.SU2,
                )
            )
        return out

    def e2_nonsasakian():
        return [
            RowInstance(
                unimodular(1.0, 0.0, 1.0), (1.0, 0.0, 0.0), 1, "e2",
                lambda2=0.0, kappa=0.0, sasakian=False, k_contact=False,
                group=GroupName.E2_COVER,
            )
        ]

    rows.append(TableRow("thm-4.14", "su2-sasakian", su2_sasakian))
    rows.append(TableRow("thm-4.14", "h3-sasakian", h3_sasakian))
    rows.append(TableRow("thm-4.14", "su2-nonsasakian", su2_nonsasakian))
    rows.append(TableRow("thm-4.14", "e2-nonsasakian", e2_nonsasakian))
    return rows


def _rows_null_existence() -> list:
    """Null contact structures without the eta-Einstein expectation; the rows
    additionally carrying Sasakian / K-contact expectations are produced by
    the factory arguments."""

    def make(table, expect_flags):
        a_samples = (-2.0, -1.0, 0.5, 1.0, 2.0)

        def g1():
            out = []
            for s in SIGNS:
                for a in a_samples:
                    for a0 in ALPHA0:
                        out.append(
                            RowInstance(
                                FamilySpec("g1", {"a": a, "b": s}),
                                (a0, 0.0, -a0), 0, f"s={s},a={a},a0={a0}",
                                sasakian=True if expect_flags else None,
                                k_contact=False if expect_flags else None,
                                group=GroupName.SL2R_COVER,
                            )
                        )
            return out

        def g2_existence():
            out = []
            for s in SIGNS:
                for mu in SIGNS:
                    for b in _g2_b_samples(s):
                        out.append(
                            RowInstance(
                                FamilySpec("g2", {"a": 0.0, "b": b, "c": mu * (b - s)}),
                                _null_alpha(1.0, mu), 0, f"s={s},mu={mu},b={b}",
                                group=GroupName.E11_COVER,
                            )
                        )
            return out

        def g2_sasakian():
            out = []
            for s in SIGNS:
                for mu in SIGNS:
                    for a0 in ALPHA0:
                        out.append(
                            RowInstance(
                                FamilySpec(
                                    "g2", {"a": 0.0, "b": 0.5 * s, "c": -0.5 * mu * s}
                                ),
                                _null_alpha(a0, mu), 0, f"s={s},mu={mu},a0={a0}",
                                sasakian=True, k_contact=True,
                                group=GroupName.E11_COVER,
                            )
                        )
            return out

        def g3_b_eq_c():
            out = []
            for s in SIGNS:
                for a in a_samples:
                    for mu in SIGNS:
                        out.append(
                            RowInstance(
                                _lorentz({"a": a, "b": s, "c": s}),
                                _null_alpha(1.0, mu), 0, f"s={s},a={a},mu={mu}",
                                group=GroupName.SL2R_COVER,
                            )
                        )
            return out

        def g3_a_eq_c():
            out = []
            for s in SIGNS:
                for b in (-2.0, -1.0, 0.5, 1.0, 2.0):
                    for mu in SIGNS:
                        out.append(
                            RowInstance(
                                _lorentz({"a": s, "b": b, "c": s}),
                                (1.0, mu, 0.0), 0, f"s={s},b={b},mu={mu}",
                                group=GroupName.SL2R_COVER if b != 0.0 else GroupName.E11_COVER,
                            )
                        )
            return out

        def g3_e11():
            out = []
            for s in SIGNS:
                for mu in SIGNS:
                    out.append(
                        RowInstance(
                            _lorentz({"a": s, "b": 0.0, "c": s}),
                            (1.0, mu, 0.0), 0, f"s={s},mu={mu}",
                            group=GroupName.E11_COVER,
                        )
                    )
            return out

        def g3_generic():
            out = []
            for s in SIGNS:
                for theta in THETAS:
                    out.append(
                        RowInstance(
                            _lorentz({"a": s, "b": s, "c": s}),
                            (1.0, math.cos(theta), math.sin(theta)), 0,
                            f"s={s},theta={theta}",
                            sasakian=True if expect_flags else None,
                            k_contact=True if expect_flags else None,
                            group=GroupName.SL2R_COVER,
                        )
                    )
            return out

        def g4(a_values, row_sasakian):
            out = []
            for s in SIGNS:
                for mu in SIGNS:
                    b = s + mu
                    for a in a_values(s):
                        group = (
                            GroupName.SL2R_COVER if abs(a) > 1e-12 else GroupName.E11_COVER
                        )
                        out.append(
                            RowInstance(
                                FamilySpec("g4", {"a": a, "b": b, "mu": mu}),
                                _null_alpha(1.0, mu), 0, f"s={s},mu={mu},a={a}",
                                sasakian=row_sasakian, k_contact=row_sasakian,
                                group=group,
                            )
                        )
            return out

        def g6_existence():
            out = []
            for s in SIGNS:
                for mu in SIGNS:
                    for b in (-0.5 * s, 0.0, 0.5, 1.0, -2.0 * s):
                        a = mu * (b + s)
                        if abs(a) < 1e-12:
                            continue
                        out.append(
                            RowInstance(
                                FamilySpec("g6", {"a": a, "b": b, "c": b, "d": a}),
                                _null_alpha(1.0, -mu), 0, f"s={s},mu={mu},b={b}",
                                group=GroupName.NON_UNIMODULAR,
                            )
                        )
            return out

        def g6_sasakian():
            out = []
            for s in SIGNS:
                for mu in SIGNS:
                    for a0 in ALPHA0:
                        out.append(
                            RowInstance(
                                FamilySpec(
                                    "g6",
                                    {
                                        "a": 0.5 * mu * s,
                                        "b": -0.5 * s,
                                        "c": -0.5 * s,
                                        "d": 0.5 * mu * s,
                                    },
                                ),
                                _null_alpha(a0, -mu), 0, f"s={s},mu={mu},a0={a0}",
                                sasakian=True, k_contact=True,
                                group=GroupName.NON_UNIMODULAR,
                            )
                        )
            return out

        rows = []
        if table == "prop-3.8":
            rows.append(TableRow(table, "g1", g1))
            rows.append(TableRow(table, "g2-e11", g2_existence))
            rows.append(TableRow(table, "g3-b-eq-c", g3_b_eq_c))
            rows.append(TableRow(table, "g3-a-eq-c", g3_a_eq_c))
            rows.append(TableRow(table, "g3-e11", g3_e11))
            rows.append(TableRow(table, "g3-generic", g3_generic))
            rows.append(
                TableRow(table, "g4-sl2r", lambda: g4(lambda s: (-2.0, -1.0, 0.5, 1.0, 2.0), None))
            )
            rows.append(TableRow(table, "g4-e11", lambda: g4(lambda s: (0.0,), None)))
            rows.append(TableRow(table, "g6", g6_existence))
        else:
            if table == "prop-3.16":
                rows.append(TableRow(table, "g1", g1))
            rows.append(TableRow(table, "g2-e11", g2_sasakian))
            rows.append(TableRow(table, "g3", g3_generic))
            rows.append(
                TableRow(
                    table, "g4",
                    lambda: g4(lambda s: (float(s),), True),
                )
            )
            rows.append(TableRow(table, "g6", g6_sasakian))
        return rows

    return (
        make("prop-3.8", False)
        + make("prop-3.16", True)
        + make("prop-3.22", True)
    )


def _build_tables() -> dict:
    rows = (
        _rows_timelike()
        + _rows_para()
        + _rows_null()
        + _rows_riemannian()
        + _rows_null_existence()
    )
    tables: dict = {}
    for row in rows:
        tables.setdefault(row.table, []).append(row)
    return tables


TABLES = _build_tables()
TABLE_ALIASES = {"thm-1.3": "thm-4.22", "thm-1.4": "thm-4.25"}


def resolve_table(table_id: str) -> str:
    table_id = table_id.lower()
    table_id = TABLE_ALIASES.get(table_id, table_id)
    if table_id not in TABLES:
        known = sorted(set(TABLES) | set(TABLE_ALIASES))
        raise KeyError(f"unknown table {table_id!r}; known: {known}")
    return table_id


def table_rows(table_id: str) -> list:
    return TABLES[resolve_table(table_id)]


def iter_instances(table_id: str):
    for row in table_rows(table_id):
        for inst in row.instances():
            yield row, inst


def build_instance(inst: RowInstance, tol: float | None = None):
    """Realize a row instance as a verified contact structure (trying both
    orientations when the row does not pin one)."""
    tol = get_tol(tol)
    sc = make_family(inst.spec, tol=tol)
    m = family_metric(inst.spec.family_id)
    orientations = (inst.orientation,) if inst.orientation else (1, -1)
    last_exc: Exception | None = None
    for orientation in orientations:
        try:
            return check_contact(sc, m, orientation, one_form(inst.alpha), tol=tol, spec=inst.spec)
        except NotContact as exc:
            last_exc = exc
    raise last_exc if last_exc is not None else NotContact("alpha != 0", 0.0)


def verify_instance(inst: RowInstance, tol: float | None = None) -> InstanceReport:
    tol = get_tol(tol)
    report = InstanceReport(
        label=inst.label,
        params=dict(inst.spec.params),
        alpha=tuple(float(x) for x in inst.alpha),
        orientation=None,
        passed=False,
    )

    def fail(check, msg):
        report.checks[check] = False
        report.failure = msg
        return report

    try:
        cs = build_instance(inst, tol=tol)
    except EpsContactError as exc:
        return fail("contact_ok", f"contact: {exc}")
    report.orientation = cs.orientation
    report.epsilon = cs.epsilon
    if cs.epsilon != inst.epsilon:
        return fail("contact_ok", f"epsilon {cs.epsilon} != expected {inst.epsilon}")
    report.checks["contact_ok"] = True
    if inst.group is not None:
        found = identify_group(inst.spec, tol=tol)
        if found != inst.group:
            return fail("group_ok", f"group {found.value} != expected {inst.group.value}")
        report.checks["group_ok"] = True
    if inst.lambda2 is not None:
        fit = fit_eta_einstein(cs, tol=tol)
        report.lambda2, report.kappa, report.residual = fit.lambda2, fit.kappa, fit.residual
        if not fit.admissible:
            return fail("fit_ok", f"fit not admissible (residual {fit.residual:.3e})")
        if abs(fit.lambda2 - inst.lambda2) > 10.0 * tol:
            return fail("fit_ok", f"lambda2 {fit.lambda2:.6g} != expected {inst.lambda2:.6g}")
        if abs(fit.kappa - inst.kappa) > 10.0 * tol:
            return fail("fit_ok", f"kappa {fit.kappa:.6g} != expected {inst.kappa:.6g}")
        report.checks["fit_ok"] = True
    if inst.sasakian is not None:
        if is_sasakian(cs, tol=tol) != inst.sasakian:
            return fail("sasakian_ok", f"sasakian != expected {inst.sasakian}")
        report.checks["sasakian_ok"] = True
    if inst.k_contact is not None:
        if is_k_contact(cs, tol=tol)[0] != inst.k_contact:
            return fail("k_contact_ok", f"k_contact != expected {inst.k_contact}")
        report.checks["k_contact_ok"] = True
    report.passed = True
    return report


def verify_table_row(table_id: str, row: TableRow, tol: float | None = None,
                     strict: bool = False) -> TableRowReport:
    """Verify every instance of a table row; with strict=True raise RowFailure
    on the first failed check."""
    report = TableRowReport(table=resolve_table(table_id), row_id=row.row_id, passed=True)
    for inst in row.instances():
        inst_report = verify_instance(inst, tol=tol)
        report.instances.append(inst_report)
        if not inst_report.passed:
            report.passed = False
            if strict:
                raise RowFailure(
                    f"{report.table}/{row.row_id}[{inst.label}]: {inst_report.failure}"
                )
    return report


def verify_table(table_id: str, tol: float | None = None, strict: bool = False) -> list:
    return [verify_table_row(table_id, row, tol=tol, strict=strict)
            for row in table_rows(table_id)]

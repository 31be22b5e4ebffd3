"""Classification tables of left-invariant contact structures on simply
connected three-dimensional Lie groups, and their verification, one stacked
pass per row.

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
and group_names. The instances of a row are checked together on stacked
arrays, with the reports of checking each on its own. A row is declared by
its sample axes and one function from a sample point to the instance fields
(see "row declarations" below); the null parametrisations of Prop. 3.8 are
written once and shared by thm-4.25 and the prop-3.* tables.

Note on g2: its table satisfies the Jacobi identity only when a c = 0 and
the family requires c != 0, so its rows take a = 0. There tr ad(e1) = 2c:
the rows, whose data all hold on these brackets, lie on a non-unimodular
group, not on E(1,1); on the table with the e0 coefficient of [e1, e0]
negated, which is unimodular, they are not contact. Ids stay "g2-e11".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .config import get_tol
from .contact import ContactBatch, build_contact, check_decomposition
from .liealg import FamilySpec, GroupName, group_names

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


@dataclass(frozen=True)
class TableRow:
    """A declared row (see "row declarations" below): its sample axes, the
    function make from a sample point to the instance fields, and epsilon."""

    table: str
    row_id: str
    axes: dict
    make: Callable
    epsilon: int

    def instances(self) -> list:
        """The instances of the row, in the order of the product of its axes."""
        points = [{}]
        for name, values in self.axes.items():
            points = [{**p, name: v} for p in points
                      for v in (values(**p) if callable(values) else values)]
        out = []
        for p in points:
            fields = self.make(**p)
            if fields is not None:
                label = ",".join(f"{k}={v}" for k, v in p.items())
                out.append(RowInstance(epsilon=self.epsilon, **{"label": label, **fields}))
        return out


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


# --- row declarations ---------------------------------------------------------
#
# A row is declared as (row_id, axes, make). The axes map each free parameter,
# in label order, to its sample values, or to a function of the earlier axis
# values (passed by keyword) that returns them. make maps a sample point to
# the RowInstance fields, or to None to skip the point. The label is "k=v,..."
# over the point unless make gives one.


def _flags(sasakian: bool) -> dict:
    return {"sasakian": sasakian, "k_contact": sasakian}


SAS, NONSAS = _flags(True), _flags(False)
SL2R, E11, E2 = GroupName.SL2R_COVER, GroupName.E11_COVER, GroupName.E2_COVER
H3, SU2, NONUNI = GroupName.H3, GroupName.SU2, GroupName.NON_UNIMODULAR
E0 = (1.0, 0.0, 0.0)


def _table(table: str, epsilon: int, rows: list) -> tuple:
    return table, [TableRow(table, row_id, axes, make, epsilon) for row_id, axes, make in rows]


def _spec(family: str, **params) -> FamilySpec:
    return FamilySpec(family, params)


def _circle(r: float, theta: float) -> tuple:
    return (r * math.cos(theta), r * math.sin(theta))


def _null_alpha(a0, mu):
    """alpha = a0 (e^0 + mu e^2)."""
    return (a0, 0.0, mu * a0)


# --- the null parametrisations (Prop. 3.8), shared by thm-4.25 and prop-3.* ---


def _null_g1(s, a, a0=1.0):
    return dict(spec=_spec("g1", a=a, b=s), alpha=(a0, 0.0, -a0), group=SL2R)


def _null_g2(s, mu, b, a0=1.0):
    """g2 at a = 0 with c = mu (b - s): non-unimodular, tr ad(e1) = 2c."""
    return dict(spec=_spec("g2", a=0.0, b=b, c=mu * (b - s)), alpha=_null_alpha(a0, mu),
                group=NONUNI)


def _g2_b_samples(s, **_):
    """Five b values with b != s, including the Sasakian boundary b = s/2."""
    return (0.5 * s, 0.0, -1.0 * s, 2.0 * s, -2.5 * s)


def _null_g3_a_eq_c(s, b, mu, a0=1.0):
    """g3 with a = c = s and alpha = a0 (e^0 + mu e^1); E(1,1) at b = 0."""
    return dict(spec=_spec("g3", a=s, b=b, c=s), alpha=(a0, mu * a0, 0.0),
                group=SL2R if b != 0.0 else E11)


def _null_g3_generic(s, theta, a0=1.0):
    """g3 with a = b = c = s and alpha = a0 (e^0 + cos theta e^1 + sin theta e^2)."""
    return dict(spec=_spec("g3", a=s, b=s, c=s), alpha=(a0, *_circle(a0, theta)), group=SL2R)


def _null_g4(s, mu, a, a0=1.0):
    """g4 with b = s + mu; E(1,1) at a = 0."""
    return dict(spec=_spec("g4", a=a, b=s + mu, mu=mu), alpha=_null_alpha(a0, mu),
                group=SL2R if abs(a) > 1e-12 else E11)


def _null_g6(s, mu, b, a0=1.0):
    """g6 with a = d = mu (b + s) and c = b; None at a = 0."""
    a = mu * (b + s)
    if abs(a) < 1e-12:
        return None
    return dict(spec=_spec("g6", a=a, b=b, c=b, d=a), alpha=_null_alpha(a0, -mu), group=NONUNI)


def _g6_b_samples(s, **_):
    """b samples of the null g6 rows. For s = -1, b = 1 gives a = 0 and is
    skipped, and -s/2 = 0.5 is sampled twice."""
    return (-0.5 * s, 0.0, 0.5, 1.0, -2.0 * s)


def _eta_einstein_g6(s, mu, b, a0):
    """Thm 4.25: lambda^2 = 4 a^2, kappa = 0, Sasakian exactly at a = mu s / 2."""
    inst = _null_g6(s, mu, b, a0)
    if inst is None:
        return None
    a = inst["spec"]["a"]
    return dict(inst, lambda2=4.0 * a * a, kappa=0.0, **_flags(abs(a - 0.5 * mu * s) < 1e-12))


# --- the tables ---------------------------------------------------------------

_TIMELIKE = _table("thm-1.2", -1, [
    ("g3-nonsasakian", {"b": (0.55, 0.65, 0.75, 0.85, 0.95)},
     lambda b: dict(spec=_spec("g3", a=1.0 - b, b=b, c=1.0), alpha=E0,
                    lambda2=2.0 * b * (1.0 - b), kappa=2.0 * b * (1.0 - b), group=SL2R, **NONSAS)),
    ("g3-e11", {},
     lambda: dict(label="a=c=1,b=0", spec=_spec("g3", a=1.0, b=0.0, c=1.0),
                  alpha=(-1.0, 0.0, 0.0), lambda2=0.0, kappa=0.0, group=E11, **NONSAS)),
    ("g3-sasakian", {"a": (0.2, 0.4, 0.6, 0.8, 1.0)},
     lambda a: dict(spec=_spec("g3", a=a, b=a, c=1.0), alpha=E0,
                    lambda2=a, kappa=1.0 - a, group=SL2R, **SAS)),
    ("g3-h3", {},
     lambda: dict(label="a=b=0,c=-1", spec=_spec("g3", a=0.0, b=0.0, c=-1.0),
                  alpha=(-1.0, 0.0, 0.0), lambda2=0.0, kappa=1.0, group=H3, **SAS)),
    ("g6-sasakian", {"a": (-1.0, -0.5, 0.3, 0.7, 1.0)},
     lambda a: dict(spec=_spec("g6", a=a, b=1.0, c=0.0, d=0.0), alpha=E0,
                    lambda2=a * a, kappa=1.0 - a * a, group=NONUNI, **SAS)),
])


def _para_g6(s, mu, a):
    """thm-4.22 g6 generic row; needs a != 0 and 2 mu a s < 1."""
    if mu * a * s >= 0.5 or a == 0.0:
        return None
    alpha0 = abs(a) / math.sqrt(1.0 - 2.0 * mu * a * s)
    return dict(spec=_spec("g6", a=a, b=-mu * a, c=-s + mu * a, d=-a + mu * s),
                alpha=(alpha0, 0.0, (mu * a - s) * alpha0 / a),
                lambda2=1.0, kappa=0.0, group=NONUNI, **SAS)


_PARA_AXES = {"s": SIGNS, "t": (1.0, 1.5, 2.0, 2.5, 3.0), "sign": (1.0, -1.0)}  # t = s c >= 1
_PARA = _table("thm-4.22", 1, [
    ("g3-sasakian-alpha1", _PARA_AXES,
     lambda s, t, sign: dict(spec=_spec("g3", a=s, b=s * t, c=s * t), alpha=(0.0, sign, 0.0),
                             lambda2=t, kappa=t - 1.0, group=SL2R, **SAS)),
    ("g3-sasakian-alpha2", _PARA_AXES,
     lambda s, t, sign: dict(spec=_spec("g3", a=s * t, b=s, c=s * t), alpha=(0.0, 0.0, sign),
                             lambda2=t, kappa=t - 1.0, group=SL2R, **SAS)),
    ("g3-e11", {"s": SIGNS, "a0": (0.0, 0.5, -0.5, 1.0, 2.0)},
     lambda s, a0: dict(spec=_spec("g3", a=s, b=0.0, c=s),
                        alpha=(a0, math.sqrt(1.0 + a0 * a0), 0.0),
                        lambda2=0.0, kappa=0.0, group=E11, **NONSAS)),
    ("g3-e2", {"s": SIGNS, "theta": THETAS},
     lambda s, theta: dict(spec=_spec("g3", a=s, b=s, c=0.0), alpha=(0.0, *_circle(1.0, theta)),
                           lambda2=0.0, kappa=0.0, group=E2, **NONSAS)),
    ("g3-generic", {"s": SIGNS, "a0": (0.0, 0.5, 1.0, 1.5, 2.0), "theta": THETAS},
     lambda s, a0, theta: dict(spec=_spec("g3", a=s, b=s, c=s),
                               alpha=(a0, *_circle(math.sqrt(1.0 + a0 * a0), theta)),
                               lambda2=1.0, kappa=0.0, group=SL2R, **SAS)),
    ("g6-axis", {"s": SIGNS, "d": (-2.0, -1.5, -1.0, 1.0, 1.75)},
     lambda s, d: dict(spec=_spec("g6", a=0.0, b=0.0, c=-s, d=d), alpha=(0.0, 0.0, 1.0),
                       lambda2=d * d, kappa=d * d - 1.0, group=NONUNI, **SAS)),
    ("g6-generic", {"s": SIGNS, "mu": SIGNS, "a": (-0.5, -0.25, 0.1, 0.25, 0.45)}, _para_g6),
])

_NULL = _table("thm-4.25", 0, [
    ("g2-e11", {"s": SIGNS, "mu": SIGNS, "b": _g2_b_samples, "a0": ALPHA0},
     lambda s, mu, b, a0: dict(_null_g2(s, mu, b, a0), lambda2=4.0 * (b - s) ** 2, kappa=0.0,
                               **_flags(abs(b - 0.5 * s) < 1e-12))),
    ("g3-sl2r", {"s": SIGNS, "theta": THETAS, "a0": ALPHA0},
     lambda s, theta, a0: dict(_null_g3_generic(s, theta, a0), lambda2=1.0, kappa=0.0, **SAS)),
    ("g3-e11", {"s": SIGNS, "mu": SIGNS, "a0": ALPHA0},
     lambda s, mu, a0: dict(_null_g3_a_eq_c(s, 0.0, mu, a0), lambda2=0.0, kappa=0.0, **NONSAS)),
    # kappa >= 0 forces s mu = -1, i.e. b = s + mu = 0. kappa = 1 / a0^2 is written
    # as two divisions, which give inf or 0 where a0^2 would raise: the product
    # catalog makes these rows at a0 = 1/|l| for any finite l
    ("g4-sl2r", {"s": SIGNS, "a0": ALPHA0},
     lambda s, a0: dict(_null_g4(s, -s, s, a0), lambda2=1.0, kappa=1.0 / a0 / a0, **SAS)),
    ("g4-e11", {"s": SIGNS, "a0": ALPHA0},
     lambda s, a0: dict(_null_g4(s, -s, 0.0, a0), lambda2=0.0, kappa=2.0 / a0 / a0, **NONSAS)),
    ("g6", {"s": SIGNS, "mu": SIGNS, "b": _g6_b_samples, "a0": ALPHA0}, _eta_einstein_g6),
])


def _unimodular(mu2, mu3):
    return _spec("riemannian_unimodular", mu1=1.0, mu2=mu2, mu3=mu3)


_RIEMANNIAN = _table("thm-4.14", 1, [
    ("su2-sasakian", {"m": (0.25, 0.5, 1.0, 1.5, 2.0)},
     lambda m: dict(spec=_unimodular(m, m), alpha=E0, lambda2=m, kappa=m - 1.0, group=SU2, **SAS)),
    ("h3-sasakian", {},
     lambda: dict(label="h3", spec=_unimodular(0.0, 0.0), alpha=E0,
                  lambda2=0.0, kappa=-1.0, group=H3, **SAS)),
    ("su2-nonsasakian", {"mh": (0.2, 0.4, 0.5, 0.6, 0.8)},
     lambda mh: dict(spec=_unimodular(0.5 * (1.0 - mh), 0.5 * (1.0 + mh)), alpha=E0,
                     lambda2=0.5 * (1.0 - mh * mh), kappa=-0.5 * (1.0 - mh * mh),
                     group=SU2, **NONSAS)),
    ("e2-nonsasakian", {},
     lambda: dict(label="e2", spec=_unimodular(0.0, 1.0), alpha=E0,
                  lambda2=0.0, kappa=0.0, group=E2, **NONSAS)),
])

_A_SAMPLES = (-2.0, -1.0, 0.5, 1.0, 2.0)
_G1_AXES = {"s": SIGNS, "a": _A_SAMPLES, "a0": ALPHA0}
_EXISTENCE = _table("prop-3.8", 0, [
    ("g1", _G1_AXES, _null_g1),
    ("g2-e11", {"s": SIGNS, "mu": SIGNS, "b": _g2_b_samples}, _null_g2),
    ("g3-b-eq-c", {"s": SIGNS, "a": _A_SAMPLES, "mu": SIGNS},
     lambda s, a, mu: dict(spec=_spec("g3", a=a, b=s, c=s), alpha=_null_alpha(1.0, mu),
                           group=SL2R)),
    ("g3-a-eq-c", {"s": SIGNS, "b": _A_SAMPLES, "mu": SIGNS}, _null_g3_a_eq_c),
    ("g3-e11", {"s": SIGNS, "mu": SIGNS}, lambda s, mu: _null_g3_a_eq_c(s, 0.0, mu)),
    ("g3-generic", {"s": SIGNS, "theta": THETAS}, _null_g3_generic),
    ("g4-sl2r", {"s": SIGNS, "mu": SIGNS, "a": _A_SAMPLES}, _null_g4),
    ("g4-e11", {"s": SIGNS, "mu": SIGNS, "a": (0.0,)}, _null_g4),
    ("g6", {"s": SIGNS, "mu": SIGNS, "b": _g6_b_samples}, _null_g6),
])


def _sasakian_null(table: str, rows: list) -> tuple:
    """prop-3.16 / prop-3.22: the null structures of Prop. 3.8 that are
    Sasakian and K-contact, after the table's own leading rows."""
    return _table(table, 0, rows + [
        ("g2-e11", {"s": SIGNS, "mu": SIGNS, "a0": ALPHA0},
         lambda s, mu, a0: dict(_null_g2(s, mu, 0.5 * s, a0), **SAS)),
        ("g3", {"s": SIGNS, "theta": THETAS},
         lambda s, theta: dict(_null_g3_generic(s, theta), **SAS)),
        ("g4", {"s": SIGNS, "mu": SIGNS, "a": lambda s, **_: (float(s),)},
         lambda s, mu, a: dict(_null_g4(s, mu, a), **SAS)),
        ("g6", {"s": SIGNS, "mu": SIGNS, "a0": ALPHA0},
         lambda s, mu, a0: dict(_null_g6(s, mu, -0.5 * s, a0), **SAS)),
    ])


TABLES = dict([
    _TIMELIKE, _PARA, _NULL, _RIEMANNIAN, _EXISTENCE,
    # g1 is Sasakian but not K-contact
    _sasakian_null("prop-3.16", [("g1", _G1_AXES, lambda s, a, a0: dict(
        _null_g1(s, a, a0), sasakian=True, k_contact=False))]),
    _sasakian_null("prop-3.22", []),
])

TABLE_ALIASES = {"thm-1.3": "thm-4.22", "thm-1.4": "thm-4.25"}


def resolve_table(table_id: str) -> str:
    table_id = table_id.lower()
    table_id = TABLE_ALIASES.get(table_id, table_id)
    if table_id not in TABLES:
        known = sorted(set(TABLES) | set(TABLE_ALIASES))
        raise ValueError(f"unknown table {table_id!r}; known: {known}")
    return table_id


def table_rows(table_id: str) -> list:
    return TABLES[resolve_table(table_id)]


def table_row(table_id: str, row_id: str) -> TableRow:
    return {row.row_id: row for row in table_rows(table_id)}[row_id]


def build_instance(inst: RowInstance, tol: float | None = None):
    """Realize a row instance as a verified contact structure at orientation
    +1 if alpha is contact there, else at -1 (see build_contact)."""
    return build_contact(inst.spec, inst.alpha, tol=tol)


def verify_table_row(table_id: str, row: TableRow, tol: float | None = None) -> TableRowReport:
    """Verify every instance of a table row; table_id (or its alias) must name
    the row's own table. One stacked pass over the instances, of any
    families: their ContactBatch, and of its structures of the row's epsilon
    the group, fit, h, null factor mu and L_xi g witness, read off the batch
    of those. The checks then run per instance in the order of a single
    verification, reading the stacked results, and stop at the first failure."""
    if resolve_table(table_id) != row.table:
        raise ValueError(f"row {row.row_id!r} belongs to table {row.table!r}, not {table_id!r}")
    tol, insts = get_tol(tol), row.instances()
    batch = ContactBatch.from_specs([i.spec for i in insts], [i.alpha for i in insts], tol=tol)
    # the structures of the row's epsilon, stacked in instance order
    found = np.flatnonzero(batch.ok & (batch.eps == row.epsilon))
    at = dict(zip(found.tolist(), range(len(found))))
    structs = batch.take(found)
    groups = group_names(structs.c, tol)
    fits = structs.fit(tol)
    sasakian = np.abs(structs.h).max(axis=(-2, -1)) <= tol
    k_contact = structs.k_contact_witness <= tol

    def report(k: int, inst: RowInstance) -> InstanceReport:
        out = InstanceReport(
            label=inst.label,
            params=dict(inst.spec.params),
            alpha=tuple(float(x) for x in inst.alpha),
            orientation=None,
            passed=False,
        )

        def fail(check, msg):
            out.checks[check] = False
            out.failure = msg
            return out

        if not batch.ok[k]:
            return fail("contact_ok", f"contact: {batch.error(k)}")
        out.orientation, out.epsilon = int(batch.orientation[k]), int(batch.eps[k])
        if out.epsilon != inst.epsilon:
            return fail("contact_ok", f"epsilon {out.epsilon} != expected {inst.epsilon}")
        out.checks["contact_ok"] = True
        n = at[k]
        if inst.group is not None:
            if groups[n] != inst.group:
                return fail("group_ok", f"group {groups[n].value} != expected {inst.group.value}")
            out.checks["group_ok"] = True
        if inst.lambda2 is not None:
            fit = fits.at(n)
            out.lambda2, out.kappa, out.residual = fit.lambda2, fit.kappa, fit.residual
            if not fit.admissible:
                return fail("fit_ok", f"fit not admissible (residual {fit.residual:.3e})")
            if abs(fit.lambda2 - inst.lambda2) > 10.0 * tol:
                return fail("fit_ok", f"lambda2 {fit.lambda2:.6g} != expected {inst.lambda2:.6g}")
            if abs(fit.kappa - inst.kappa) > 10.0 * tol:
                return fail("fit_ok", f"kappa {fit.kappa:.6g} != expected {inst.kappa:.6g}")
            out.checks["fit_ok"] = True
        if inst.sasakian is not None:
            if row.epsilon == 0:
                check_decomposition(*structs.null[n].tolist(), tol)
            if bool(sasakian[n]) != inst.sasakian:
                return fail("sasakian_ok", f"sasakian != expected {inst.sasakian}")
            out.checks["sasakian_ok"] = True
        if inst.k_contact is not None:
            if bool(k_contact[n]) != inst.k_contact:
                return fail("k_contact_ok", f"k_contact != expected {inst.k_contact}")
            out.checks["k_contact_ok"] = True
        out.passed = True
        return out

    reports = [report(k, inst) for k, inst in enumerate(insts)]
    return TableRowReport(table=row.table, row_id=row.row_id,
                          passed=all(r.passed for r in reports), instances=reports)

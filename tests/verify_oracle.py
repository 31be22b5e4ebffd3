"""Per-instance references for the stacked verification passes: a table row
verified one instance at a time through a built ContactStructure, the
curvature oracle run one sample at a time with the closed-form Ricci in
Python floats, and a structure built by trying orientation +1, then -1.
tables.verify_table_row, oracle.run_oracle, curvature.closed_form_ricci and
contact.build_contact must give the same results, bit for bit."""

import numpy as np

from epscontact.config import get_tol
from epscontact.contact import check_contact, is_k_contact, is_sasakian
from epscontact.curvature import koszul_components, ricci_components
from epscontact.errors import EpsContactError, JacobiViolation, NotContact
from epscontact.liealg import FAMILIES, identify_group, make_family, nine_params
from epscontact.oracle import LORENTZ_FAMILIES, OracleReport, sample_spec
from epscontact.tables import InstanceReport, TableRowReport


def build_contact_retry(spec, alpha, tol=None):
    """build_contact without an orientation, as two checks: +1, then -1
    after a NotContact, raising the NotContact of -1."""
    tol = get_tol(tol)
    sc, m = make_family(spec, tol=tol), FAMILIES[spec.family_id].metric
    try:
        return check_contact(sc, m, 1, alpha, tol=tol, spec=spec)
    except NotContact:
        pass
    return check_contact(sc, m, -1, alpha, tol=tol, spec=spec)


def verify_instance(inst, tol=None) -> InstanceReport:
    """One instance: build its structure, then check epsilon, group, fit,
    Sasakian and K-contact flags in turn, stopping at the first failure."""
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
        cs = build_contact_retry(inst.spec, inst.alpha, tol=tol)
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
        fit = cs.fit(tol).at()
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


def verify_row(row, tol=None) -> TableRowReport:
    report = TableRowReport(table=row.table, row_id=row.row_id, passed=True)
    for inst in row.instances():
        inst_report = verify_instance(inst, tol=tol)
        report.instances.append(inst_report)
        report.passed = report.passed and inst_report.passed
    return report


def run_oracle(samples: int, seed: int, tol=None) -> OracleReport:
    """The curvature oracle one sample at a time, deviations folded in order."""
    rng = np.random.default_rng(seed)
    per_family = {fam: {"samples": 0, "max_ricci_dev": 0.0, "max_scalar_dev": 0.0}
                  for fam in LORENTZ_FAMILIES}
    for k in range(samples):
        fam = LORENTZ_FAMILIES[k % len(LORENTZ_FAMILIES)]
        spec = sample_spec(fam, rng)
        sc, m = make_family(spec), FAMILIES[fam].metric
        ricci = ricci_components(koszul_components(sc, m.eta), sc)
        scalar = float(np.einsum("i,ii->", m.eta, ricci))
        oracle_ricci, oracle_scalar = closed_form_ricci(nine_params(sc), m, tol=tol)
        entry = per_family[fam]
        entry["samples"] += 1
        entry["max_ricci_dev"] = max(entry["max_ricci_dev"],
                                     float(np.max(np.abs(ricci - oracle_ricci))))
        entry["max_scalar_dev"] = max(entry["max_scalar_dev"], abs(scalar - oracle_scalar))
    return OracleReport(
        samples=samples,
        per_family=per_family,
        max_ricci_dev=max(e["max_ricci_dev"] for e in per_family.values()),
        max_scalar_dev=max(e["max_scalar_dev"] for e in per_family.values()),
    )


def jacobi_constraints9(p9) -> np.ndarray:
    """The three Jacobi constraint expressions of one general 3D bracket, in
    Python floats."""
    a, b, c, d, f, h, g, j, k = (float(x) for x in p9)
    return np.array([
        b * d + k * d - f * a - h * g,
        j * a - g * b + k * f - h * j,
        a * k + h * b - g * c - f * c,
    ])


def closed_form_ricci(p9, m, tol=None) -> tuple:
    """Closed-form (ricci, scalar) of one general 3D Lorentzian bracket p9
    (9,) in Python floats, with Python's float ** (libm pow): the reference
    for curvature.closed_form_ricci."""
    assert m.signs == (-1, 1, 1)
    cons = jacobi_constraints9(p9)
    if np.max(np.abs(cons)) > get_tol(tol):
        raise JacobiViolation(f"Jacobi constraints violated: {cons.tolist()}")
    a, b, c, d, f, h, g, j, k = (float(x) for x in p9)
    ric = np.empty((3, 3))
    ric[0, 0] = a**2 - b**2 + g * f + g**2 - k**2 - a * h + d**2 / 2 - c * j - c**2 / 2 - j**2 / 2
    ric[0, 1] = b * h - f * j - f * c + d * g - h * k
    ric[0, 2] = h * c + h * j - f * k - d * a + f * b
    ric[1, 1] = -(a**2) + b**2 - f**2 - h**2 - f * g + b * k - j**2 / 2 + d * c + c**2 / 2 + d**2 / 2
    ric[1, 2] = f * a - a * g + b * j - b * d + c * k
    ric[2, 2] = -(g**2) + k**2 + a * h + k * b - f**2 - h**2 + j**2 / 2 - j * d + d**2 / 2 - c**2 / 2
    ric[1, 0], ric[2, 0], ric[2, 1] = ric[0, 1], ric[0, 2], ric[1, 2]
    scal = (
        -2 * a**2 + 2 * b**2 - 2 * g * f - 2 * g**2 + 2 * k**2 + 2 * a * h
        + d**2 / 2 + c * j + c**2 / 2 + j**2 / 2 - 2 * f**2 - 2 * h**2
        + 2 * b * k + d * c - j * d
    )
    return ric, float(scal)

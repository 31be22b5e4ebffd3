import hashlib

import pytest

from epscontact import tables
from epscontact.contact import contact_identity_residuals
from epscontact.einstein import fit_eta_einstein, reeb_curvature_residual
from epscontact.liealg import GroupName

ALL_TABLES = ("thm-1.2", "thm-4.22", "thm-4.25", "thm-4.14", "prop-3.8", "prop-3.16", "prop-3.22")


def test_aliases_resolve():
    assert tables.resolve_table("thm-1.3") == "thm-4.22"
    assert tables.resolve_table("thm-1.4") == "thm-4.25"
    with pytest.raises(KeyError):
        tables.resolve_table("thm-9.9")


@pytest.mark.parametrize("table_id", ALL_TABLES)
def test_every_row_passes(table_id):
    for row in tables.table_rows(table_id):
        report = tables.verify_table_row(table_id, row)
        assert report.passed
        assert report.instances


def test_row_reported_under_its_own_table():
    row = tables.table_row("thm-1.2", "g3-sasakian")
    with pytest.raises(ValueError, match="thm-1.2"):
        tables.verify_table_row("thm-4.14", row)
    para = tables.table_row("thm-4.22", "g3-e11")
    assert tables.verify_table_row("thm-1.3", para).table == "thm-4.22"  # alias


def test_spot_anchor_g3_nonsasakian():
    row = {r.row_id: r for r in tables.table_rows("thm-1.2")}["g3-nonsasakian"]
    report = tables.verify_table_row("thm-1.2", row)
    by_label = {i.label: i for i in report.instances}
    inst = by_label["b=0.75"]
    assert inst.passed
    assert abs(inst.lambda2 - 0.375) < 1e-9 and abs(inst.kappa - 0.375) < 1e-9


def test_spot_anchor_para_sc2():
    # a = s, b = c with s c = 2 -> lambda^2 = 2, kappa = 1
    row = {r.row_id: r for r in tables.table_rows("thm-4.22")}["g3-sasakian-alpha1"]
    report = tables.verify_table_row("thm-4.22", row)
    inst = [i for i in report.instances if i.label.startswith("s=1,t=2.0")][0]
    assert inst.passed
    assert abs(inst.lambda2 - 2.0) < 1e-9 and abs(inst.kappa - 1.0) < 1e-9


def test_spot_anchor_null_g2_sasakian():
    # b = s/2 -> lambda^2 = 4 (b - s)^2 = 1, kappa = 0, Sasakian
    row = {r.row_id: r for r in tables.table_rows("thm-4.25")}["g2-e11"]
    report = tables.verify_table_row("thm-4.25", row)
    sas = [i for i in report.instances if i.label.startswith("s=1,mu=1,b=0.5,")]
    assert sas and all(i.passed for i in sas)
    assert all(abs(i.lambda2 - 1.0) < 1e-9 and abs(i.kappa) < 1e-9 for i in sas)


def test_spot_anchor_null_g4():
    row = {r.row_id: r for r in tables.table_rows("thm-4.25")}["g4-sl2r"]
    report = tables.verify_table_row("thm-4.25", row)
    inst = [i for i in report.instances if i.label == "s=1,a0=1.0"][0]
    assert abs(inst.lambda2 - 1.0) < 1e-9 and abs(inst.kappa - 1.0) < 1e-9


def test_forced_failure_is_reported():
    row = tables.TableRow(
        "thm-1.2",
        "bogus",
        {},
        lambda: dict(
            label="x",
            spec=tables.FamilySpec("g3", {"a": 1, "b": 1, "c": 1}),
            alpha=(1.0, 0.0, 0.0),
            lambda2=2.0,  # wrong on purpose
            kappa=0.0,
            group=GroupName.SL2R_COVER,
        ),
        -1,
    )
    report = tables.verify_table_row("thm-1.2", row)
    assert not report.passed
    (inst,) = report.instances
    assert not inst.passed and inst.checks["fit_ok"] is False
    assert inst.failure.startswith("lambda2 ")


def test_row_report_checks_dict():
    row = {r.row_id: r for r in tables.table_rows("thm-1.2")}["g3-sasakian"]
    report = tables.verify_table_row("thm-1.2", row)
    checks = report.checks()
    assert checks == {
        "contact_ok": True,
        "group_ok": True,
        "fit_ok": True,
        "sasakian_ok": True,
        "k_contact_ok": True,
    }
    assert all(i.checks["fit_ok"] for i in report.instances)


def test_identity_suite_on_all_table_instances():
    worst = 0.0
    for table_id in ALL_TABLES:
        for inst in (i for row in tables.table_rows(table_id) for i in row.instances()):
            cs = tables.build_instance(inst)
            res = contact_identity_residuals(cs)
            worst = max(worst, max(res.values()))
            fit = fit_eta_einstein(cs)
            if fit.admissible:
                worst = max(worst, reeb_curvature_residual(cs, fit))
    assert worst < 1e-9


# sha256 of the instance list below; any change to a table instance changes it
INSTANCE_LIST_SHA256 = "092c0ae76116e900bfdc937bff661ed0aac7af9141128b31d57155385465c6f0"


def test_instance_list_fingerprint():
    """Every table instance, in order, with floats compared bit for bit."""

    def hx(x):
        return None if x is None else float(x).hex()

    keys = [
        (
            table, row.row_id, inst.label, inst.spec.family_id,
            tuple(sorted((k, hx(v)) for k, v in inst.spec.params.items())),
            tuple(hx(a) for a in inst.alpha),
            inst.epsilon, hx(inst.lambda2), hx(inst.kappa), inst.sasakian, inst.k_contact,
            None if inst.group is None else inst.group.value,
        )
        for table, rows in tables.TABLES.items()
        for row in rows
        for inst in row.instances()
    ]
    assert len(keys) == 771
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == INSTANCE_LIST_SHA256

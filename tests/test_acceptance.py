"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line. Run with `pytest -s tests/test_acceptance.py` to see
the lines; every criterion is asserted at its stated tolerance."""

import time

import numpy as np
import pytest

from epscontact import tables
from epscontact.cauchy import (
    SurfaceGrid,
    constraint_residuals,
    evolution_residuals,
    example_flat_paracontact,
    example_null_isothermal,
    isothermal_grid,
)
from epscontact.contact import (
    check_contact,
    contact_identity_residuals,
    is_k_contact,
    is_sasakian,
    k_contact_null_witness,
    nijenhuis_J,
)
from epscontact.curvature import levi_civita, riemann_ricci, torsionful_connection
from epscontact.einstein import default_grid, fit_eta_einstein, reeb_curvature_residual, scan_family
from epscontact.errors import NotContact
from epscontact.exterior import FrameMetric, antisymmetric_array
from epscontact.liealg import FamilySpec, make_family
from epscontact.oracle import run_oracle
from epscontact.product6d import (
    preset_ads3xs3,
    ricci_torsion_identity_residual,
    run_catalog,
    torsion_form,
    verify_supergravity,
)

TOL = 1e-9
ALL_TABLES = ("thm-1.2", "thm-4.22", "thm-4.25", "thm-4.14", "prop-3.8", "prop-3.16", "prop-3.22")


def report(number: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {text}")


def table_instances(table_id):
    return [inst for row in tables.table_rows(table_id) for inst in row.instances()]


def all_table_structures():
    for table_id in ALL_TABLES:
        for inst in table_instances(table_id):
            yield tables.build_instance(inst)


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    rep = run_oracle(samples=1000, seed=0)
    elapsed = time.perf_counter() - t0
    ok = rep.max_ricci_dev <= TOL and rep.max_scalar_dev <= TOL and elapsed < 5.0
    report(1, ok, f"oracle equivalence on {rep.samples} samples "
                  f"(max ricci dev {rep.max_ricci_dev:.2e}, max scalar dev "
                  f"{rep.max_scalar_dev:.2e}, {elapsed:.2f}s)")
    assert rep.max_ricci_dev <= TOL
    assert rep.max_scalar_dev <= TOL
    assert elapsed < 5.0


def test_criterion_2_tables():
    failures = []
    counts = {}
    anchors_ok = True
    for table_id in ALL_TABLES:
        reports = [tables.verify_table_row(table_id, row, tol=TOL)
                   for row in tables.table_rows(table_id)]
        counts[table_id] = sum(len(r.instances) for r in reports)
        for r in reports:
            failures += [
                f"{table_id}/{r.row_id}[{i.label}]: {i.failure}"
                for i in r.instances
                if not i.passed
            ]
    # spot anchors
    def fit_of(family, params, alpha):
        spec = FamilySpec(family, params)
        cs = check_contact(make_family(spec), FrameMetric.lorentzian(3), 1, alpha)
        return fit_eta_einstein(cs)

    f1 = fit_of("g3", {"a": 1, "b": 1, "c": 1}, [1, 0, 0])
    f2 = fit_of("g3", {"a": 0.25, "b": 0.75, "c": 1}, [1, 0, 0])
    f3 = fit_of("g4", {"a": 1.0, "b": 0.0, "mu": -1.0}, [1.0, 0.0, -1.0])
    anchors_ok = (
        abs(f1.lambda2 - 1.0) <= TOL and abs(f1.kappa) <= TOL
        and abs(f2.lambda2 - 0.375) <= TOL and abs(f2.kappa - 0.375) <= TOL
        and abs(f3.lambda2 - 1.0) <= TOL and abs(f3.kappa - 1.0) <= TOL
    )
    ok = not failures and anchors_ok
    report(2, ok, f"classification tables verified "
                  f"({sum(counts.values())} instances over {len(counts)} tables; "
                  f"anchors (1,0), (3/8,3/8), (1,1))")
    assert anchors_ok
    assert not failures, failures[:5]


def test_criterion_3_nonexistence_scans(monkeypatch):
    # a scan that meets no contact structure of the requested epsilon proves
    # nothing: count those that scan_family hands to check_contact
    import epscontact.einstein as einstein

    check = einstein.check_contact
    found = {}
    for name, family, epsilon in (("g5 para", "g5", 1), ("g7 para", "g7", 1),
                                  ("g1 null", "g1", 0)):
        met = []

        def counting(*args, **kwargs):
            rows = check(*args, **kwargs)
            met.append(int((rows.ok & (rows.eps == epsilon)).sum()))
            return rows

        monkeypatch.setattr(einstein, "check_contact", counting)
        hits = scan_family(family, default_grid(13), epsilon=epsilon, orientations=(1, -1))
        found[name] = (len(hits), sum(met))
    ok = all(hits == 0 and met >= 1 for hits, met in found.values())
    report(3, ok, "non-existence scans: " + ", ".join(
        f"{name} {hits} hits among {met} contact structures"
        for name, (hits, met) in found.items()))
    assert ok, found


def test_criterion_4_identity_suite():
    worst = 0.0
    count = 0
    structures = list(all_table_structures())
    # also include the contact structures a finer g1 scan encounters
    from epscontact.einstein import family_samples
    from scan_oracle import nullspace_basis, quadric_candidates

    m = FrameMetric.lorentzian(3)
    for params in family_samples("g1", default_grid(25), 1e-9):
        if abs(abs(params["b"]) - 1.0) > 1e-12:
            continue
        sc = make_family(FamilySpec("g1", params))
        for orientation in (1, -1):
            basis = nullspace_basis(sc, m, orientation, 1e-9)
            for cand in quadric_candidates(basis, m, 0, 4):
                try:
                    structures.append(check_contact(sc, m, orientation, cand))
                except NotContact:
                    continue
    for cs in structures:
        res = contact_identity_residuals(cs)
        worst = max(worst, max(res.values()))
        fit = fit_eta_einstein(cs)
        if fit.admissible:
            worst = max(worst, reeb_curvature_residual(cs, fit))
        count += 1
    ok = worst <= TOL
    report(4, ok, f"contact identity suite on {count} structures "
                  f"(worst residual {worst:.2e})")
    assert ok


def test_criterion_5_sasakian_vs_k_contact():
    # the Sasakian-but-not-K-contact family instance: a = 1, b = s = 1, alpha0 = 2
    a, alpha0 = 1.0, 2.0
    g1 = make_family(FamilySpec("g1", {"a": a, "b": 1.0}))
    cs = check_contact(g1, FrameMetric.lorentzian(3), 1, [alpha0, 0.0, -alpha0])
    sas = is_sasakian(cs)
    kcon, _ = is_k_contact(cs)
    witness = k_contact_null_witness(cs)
    nj, _ = nijenhuis_J(cs)
    g1_ok = sas and not kcon and abs(witness - a / alpha0) <= TOL and nj <= TOL

    nonsas_checked = 0
    nonsas_ok = True
    for table_id in ALL_TABLES:
        for inst in table_instances(table_id):
            if inst.epsilon != 0:
                continue
            cs_i = tables.build_instance(inst)
            if is_sasakian(cs_i):
                continue
            nj_i, involutive = nijenhuis_J(cs_i)
            nonsas_checked += 1
            nonsas_ok = nonsas_ok and nj_i > TOL and involutive
    ok = g1_ok and nonsas_ok and nonsas_checked > 0
    report(5, ok, f"Sasakian/K-contact split: witness {witness:.6g} = a/alpha0, "
                  f"N_J = {nj:.1e}; {nonsas_checked} non-Sasakian null instances "
                  f"have N_J != 0 with involutive ker J")
    assert g1_ok
    assert nonsas_ok and nonsas_checked > 0


def test_criterion_6_supergravity():
    sol = preset_ads3xs3()
    res = verify_supergravity(sol)
    preset_ok = res.max_residual() < 1e-12

    t0 = time.perf_counter()
    ls = (0.0, 0.25, 0.5, 0.75, 0.9)
    catalog_ok = True
    identity_worst = 0.0
    rows_per_table = {}
    for eps_n in (-1, 0, 1):
        results = run_catalog(eps_n, ls, tol=TOL)
        rows_per_table[eps_n] = len({r.row for r in results})
        catalog_ok = catalog_ok and all(r.passed for r in results)
    # cross-check the torsionful Ricci identity on a representative solution
    identity_worst = ricci_torsion_identity_residual(sol)
    elapsed = time.perf_counter() - t0

    h_bad = torsion_form(sol.n_struct, sol.x_struct, sol.lam + 0.1, sol.l)
    conn = levi_civita(sol.sc6, sol.m6)
    ric_bad = riemann_ricci(
        torsionful_connection(conn, antisymmetric_array(h_bad, 6, 3), sol.m6), sol.sc6, sol.m6
    ).ricci
    detector = float(np.max(np.abs(ric_bad)))

    ok = (preset_ok and catalog_ok and identity_worst <= TOL
          and detector > 1e-3 and elapsed < 10.0)
    report(6, ok, f"supergravity: preset max residual {res.max_residual():.1e}, "
                  f"catalog rows {rows_per_table} all pass in {elapsed:.2f}s, "
                  f"identity {identity_worst:.1e}, detector {detector:.3f}")
    assert preset_ok and catalog_ok
    assert identity_worst <= TOL
    assert detector > 1e-3
    assert elapsed < 10.0


def test_criterion_7_cauchy_convergence():
    # flat space-like family: time flow residual, second order
    flow = []
    for factor in (1, 2):
        n = 32 * factor
        steps = 8 * factor + 1
        dt = 0.08 / factor
        grid = SurfaceGrid(n, n, 1.0 / n, 1.0 / n)
        seq = example_flat_paracontact(grid, [k * dt for k in range(steps)], 1.0, 0.5)
        evo = evolution_residuals(seq, 1, 0.0, 0.0)
        con = constraint_residuals(seq.slices[1], 1, 0.0, 0.0)
        assert con.max_residual() < 1e-12
        flow.append(evo.alpha_flow)
    ratio_flow = flow[0] / flow[1]

    # null isothermal: curl constraint, second order under grid halving
    curls = []
    for n in (32, 64):
        data = example_null_isothermal(isothermal_grid(n, n), 1.0)
        res = constraint_residuals(data, 0, 0.0, 0.0)
        assert res.norm < 1e-12 and res.hamiltonian < 1e-12 and res.momentum < 1e-12
        curls.append(res.curl)
    ratio_curl = curls[0] / curls[1]

    # F = 0 flat case: exactly zero constraint residuals
    n = 32
    grid = SurfaceGrid(n, n, 1.0 / n, 1.0 / n)
    q = np.zeros((n, n, 2, 2))
    q[..., 0, 0] = 1.0
    q[..., 1, 1] = 1.0
    alpha = np.zeros((n, n, 2))
    alpha[..., 0] = 1.0
    from epscontact.cauchy import SurfaceData

    flat = SurfaceData(grid, q, np.zeros((n, n, 2, 2)), np.zeros((n, n)), alpha,
                       np.ones((n, n)))
    flat_res = constraint_residuals(flat, 1, 0.0, 0.0)
    flat_exact = flat_res.max_residual() == 0.0

    ok = ratio_flow >= 3.5 and ratio_curl >= 3.5 and flat_exact
    report(7, ok, f"cauchy residuals: flow ratio {ratio_flow:.2f}, "
                  f"curl ratio {ratio_curl:.2f} (32^2 -> 64^2), flat case exact")
    assert ratio_flow >= 3.5
    assert ratio_curl >= 3.5
    assert flat_exact

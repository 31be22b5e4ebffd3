import numpy as np
import pytest

from epscontact import product6d as p6
from epscontact import tables
from epscontact.contact import build_contact, check_contact
from epscontact.curvature import levi_civita, riemann_ricci, torsionful_connection
from epscontact.errors import IncompatibleFactors
from epscontact.exterior import FrameMetric, index_tuples, one_form, pairing_full
from epscontact.liealg import FamilySpec, make_family

L3 = FrameMetric.lorentzian(3)
R3 = FrameMetric.riemannian(3)


def su2_factor(kappa_x=0.0):
    """The Riemannian Sasakian factor with lambda^2 = 1 + kappa_x."""
    fields = tables.table_row("thm-4.14", "su2-sasakian").make(m=1.0 + kappa_x)
    return build_contact(fields["spec"], fields["alpha"], -1)


def null_g3_factor():
    spec = FamilySpec("g3", {"a": 1.0, "b": 1.0, "c": 1.0})
    return check_contact(make_family(spec), L3, 1, one_form([1.0, 1.0, 0.0]), spec=spec)


def test_preset_is_exact_solution():
    sol = p6.preset_ads3xs3()
    res = p6.verify_supergravity(sol)
    assert res.max_residual() < 1e-12
    assert res.is_solution(1e-12)
    # H = nu_L + nu_R componentwise (factor orientations +1 and -1)
    comps = dict(zip(index_tuples(6, 3), sol.h_form.comps))
    nonzero = {t: v for t, v in comps.items() if v != 0.0}
    assert nonzero == {(0, 1, 2): 1.0, (3, 4, 5): -1.0}


def test_h_formula_componentwise_l_nonzero():
    n = check_contact(
        make_family(FamilySpec("g4", {"a": 1.0, "b": 0.0, "mu": -1.0})),
        L3, 1, one_form([1.0, 0.0, -1.0]),
    )
    x = su2_factor(0.0)
    lam, l = 1.0, 1.0
    sol = p6.build_solution(n, x, lam, l)
    from epscontact.exterior import hodge, volume_form, wedge

    manual = (
        lam * p6.embed_form(volume_form(n.m, n.orientation), 6, 0)
        + l * wedge(p6.embed_form(hodge(n.alpha, n.m, n.orientation), 6, 0),
                    p6.embed_form(x.alpha, 6, 3))
        + l * wedge(p6.embed_form(n.alpha, 6, 0),
                    p6.embed_form(hodge(x.alpha, x.m, x.orientation), 6, 3))
        + lam * p6.embed_form(volume_form(x.m, x.orientation), 6, 3)
    )
    assert np.allclose(sol.h_form.comps, manual.comps)
    res = p6.verify_supergravity(sol)
    assert res.max_residual() < 1e-9


def test_incompatible_factors():
    n = null_g3_factor()  # lambda^2 = 1, kappa = 0
    x = su2_factor(0.0)   # lambda^2 = 1
    with pytest.raises(IncompatibleFactors, match="lambda"):
        p6.build_solution(n, x, np.sqrt(0.5), 0.0)
    with pytest.raises(IncompatibleFactors, match="kappa_N"):
        p6.build_solution(n, x, 1.0, 0.7)  # kappa_N = 0 != l^2
    x2 = su2_factor(0.5)  # lambda^2 = 1.5 mismatch
    with pytest.raises(IncompatibleFactors, match="lambda"):
        p6.build_solution(n, x2, 1.0, 0.0)
    with pytest.raises(IncompatibleFactors, match="Lorentzian"):
        p6.build_solution(x, x, 1.0, 0.0)


def test_isotropy_closure_independent_of_fit():
    # dH = 0, d*H = 0, |H|^2 = 0 hold for contact factors regardless of the
    # eta-Einstein matching; only the Ricci equation needs it
    n = null_g3_factor()
    x = su2_factor(0.0)
    for lam, l in ((0.3, 0.9), (1.2, 0.4), (0.0, 1.0)):
        h = p6.torsion_form(n, x, lam, l)
        from epscontact.exterior import hodge, mc_differential
        from epscontact.liealg import direct_sum

        sc6 = direct_sum(n.sc, x.sc)
        m6 = FrameMetric(n.m.signs + x.m.signs)
        o6 = n.orientation * x.orientation
        assert mc_differential(h, sc6).max_abs() < 1e-13
        assert mc_differential(hodge(h, m6, o6), sc6).max_abs() < 1e-13
        assert abs(pairing_full(h, h, m6)) < 1e-12


def test_ricci_identity_holds_off_shell():
    # Ric(nabla^H) = Ric^g - (1/4) H o H for closed + co-closed H, even when
    # the configuration does not solve the Ricci equation
    n = null_g3_factor()
    x = su2_factor(0.0)
    sol = p6.ProductSolution(
        n, x, 0.7, 0.3,
        p6.direct_sum(n.sc, x.sc),
        FrameMetric(n.m.signs + x.m.signs),
        n.orientation * x.orientation,
        p6.torsion_form(n, x, 0.7, 0.3),
    )
    res = p6.verify_supergravity(sol)
    assert res.ricci_h > 1e-3  # genuinely off shell
    assert p6.ricci_torsion_identity_residual(sol) < 1e-12


def test_mixed_square_blocks_vanish():
    from epscontact.curvature import three_form_square

    n = null_g3_factor()
    x = su2_factor(0.0)
    sol = p6.build_solution(n, x, 1.0, 0.0)
    for lam, l in ((1.0, 0.0), (0.5, 0.5)):
        h = p6.torsion_form(n, x, lam, l)
        sq = three_form_square(h, sol.m6)
        assert np.max(np.abs(sq[:3, 3:])) < 1e-13
        assert np.max(np.abs(sq[3:, :3])) < 1e-13


def test_quarter_square_block_formulas():
    # (1/4) H o H restricted to each factor block:
    #   N-block: -(lam^2/2) chi - (l^2/2) |alpha_N|^2 chi + l^2 alpha_N (x) alpha_N
    #   X-block: +(lam^2/2) h + (l^2/2) |alpha_N|^2 h - l^2 |alpha_N|^2 alpha_X (x) alpha_X
    from epscontact.curvature import three_form_square
    from epscontact.exterior import pairing_full

    cases = []
    n_null = null_g3_factor()
    cases.append((n_null, su2_factor(0.0), 1.0, 0.8))
    n_time = check_contact(
        make_family(FamilySpec("g3", {"a": 0.75, "b": 0.75, "c": 1.0})),
        L3, 1, one_form([1.0, 0.0, 0.0]),
    )
    cases.append((n_time, su2_factor(-0.25), np.sqrt(0.75), 0.5))
    for n, x, lam, l in cases:
        h = p6.torsion_form(n, x, lam, l)
        m6 = FrameMetric(n.m.signs + x.m.signs)
        quarter = 0.25 * three_form_square(h, m6)
        eps_n = float(pairing_full(n.alpha, n.alpha, n.m))
        chi = np.diag(n.m.eta)
        an = n.alpha.comps
        expected_n = (
            -(lam**2) / 2 * chi - l**2 / 2 * eps_n * chi + l**2 * np.outer(an, an)
        )
        assert np.allclose(quarter[:3, :3], expected_n, atol=1e-12)
        hmat = np.diag(x.m.eta)
        ax = x.alpha.comps
        expected_x = (
            lam**2 / 2 * hmat + l**2 / 2 * eps_n * hmat - l**2 * eps_n * np.outer(ax, ax)
        )
        assert np.allclose(quarter[3:, 3:], expected_x, atol=1e-12)


def test_torsionful_ricci_symmetric_for_closed_coclosed():
    n = null_g3_factor()
    x = su2_factor(0.0)
    for lam, l in ((1.0, 0.0), (0.7, 0.3)):  # second pair is off shell but closed
        h = p6.torsion_form(n, x, lam, l)
        from epscontact.liealg import direct_sum

        sc6 = p6.direct_sum(n.sc, x.sc)
        m6 = FrameMetric(n.m.signs + x.m.signs)
        conn_h = torsionful_connection(levi_civita(sc6, m6), h, m6)
        ric = riemann_ricci(conn_h, sc6, m6).ricci
        assert np.max(np.abs(ric - ric.T)) < 1e-13


def test_torsionful_connection_mixes_blocks_iff_l_nonzero():
    n = check_contact(
        make_family(FamilySpec("g4", {"a": 1.0, "b": 0.0, "mu": -1.0})),
        L3, 1, one_form([1.0, 0.0, -1.0]),
    )
    x = su2_factor(0.0)
    sol = p6.build_solution(n, x, 1.0, 1.0)
    conn = levi_civita(sol.sc6, sol.m6)
    assert np.max(np.abs(conn.gamma[:3, 3:, :])) == 0.0  # product connection
    assert np.max(np.abs(conn.gamma[:3, :3, 3:])) == 0.0
    conn_h = torsionful_connection(conn, sol.h_form, sol.m6)
    assert np.max(np.abs(conn_h.gamma[:3, :3, 3:])) > 0.01  # torsion mixes factors

    sol0 = p6.preset_ads3xs3()
    conn_h0 = torsionful_connection(levi_civita(sol0.sc6, sol0.m6), sol0.h_form, sol0.m6)
    assert np.max(np.abs(conn_h0.gamma[:3, :3, 3:])) == 0.0


def test_perturbed_lambda_detected():
    sol = p6.preset_ads3xs3()
    h_bad = p6.torsion_form(sol.n_struct, sol.x_struct, sol.lam + 0.1, sol.l)
    conn = levi_civita(sol.sc6, sol.m6)
    ric = riemann_ricci(torsionful_connection(conn, h_bad, sol.m6), sol.sc6, sol.m6).ricci
    assert np.max(np.abs(ric)) > 0.01


def test_catalog_all_rows_all_tables():
    ls = (0.0, 0.25, 0.5, 0.75, 0.9)
    for eps_n in (-1, 0, 1):
        results = p6.run_catalog(eps_n, ls)
        assert results
        names = {r.row for r in results}
        assert len(names) == len(p6.catalog_rows(eps_n))
        for r in results:
            assert r.passed
            assert r.residuals.max_residual() < 1e-9


def test_catalog_spot_values():
    # time-like table, Sasakian x Sasakian row at l^2 = 1/2:
    # lambda^2 = 1/2, factors g3(a=b=1/2, c=1) and the Riemannian (1, 1/2, 1/2)
    row = {r.name: r for r in p6.catalog_rows(-1)}["sl2r-sasakian_x_su2-sasakian"]
    l = np.sqrt(0.5)
    n, x, lam = row.build(l)
    assert abs(lam**2 - 0.5) < 1e-12
    assert abs(n.spec.params["a"] - 0.5) < 1e-12 and abs(n.spec.params["b"] - 0.5) < 1e-12
    assert abs(x.spec.params["mu2"] - 0.5) < 1e-12 and abs(x.spec.params["mu3"] - 0.5) < 1e-12
    sol = p6.build_solution(n, x, lam, l)
    assert p6.verify_supergravity(sol).max_residual() < 1e-9

    # space-like table, para-Sasakian row at l^2 = 1: lambda^2 = 2 (b = c = 2 s)
    row = {r.name: r for r in p6.catalog_rows(1)}["sl2r-parasasakian_x_su2-sasakian"]
    n, x, lam = row.build(1.0)
    assert abs(lam**2 - 2.0) < 1e-12
    assert abs(n.spec.params["c"] - 2.0) < 1e-12
    sol = p6.build_solution(n, x, lam, 1.0)
    assert p6.verify_supergravity(sol).max_residual() < 1e-9

    # null table, flat-factor row at l = 0: lambda^2 = 0
    row = {r.name: r for r in p6.catalog_rows(0)}["e11-null_x_e2"]
    n, x, lam = row.build(0.0)
    assert lam == 0.0
    sol = p6.build_solution(n, x, lam, 0.0)
    assert p6.verify_supergravity(sol).max_residual() < 1e-9


def test_catalog_declarations_agree_with_the_theorem():
    # the declared table constants of the two factors, not a fit:
    # lambda^2_N = lambda^2_X = lambda^2, kappa_N = l^2, kappa_X = eps_N l^2
    for row in p6.CATALOG:
        for l in row.ls(p6.DEFAULT_L_SAMPLES):
            (n_row, n, _), (x_row, x, _) = row.factors(l)
            lam2, l2 = row.lam(l) ** 2, l * l
            assert n_row.epsilon == row.epsilon_n and x_row.epsilon == 1
            for got, want in ((n["lambda2"], lam2), (x["lambda2"], lam2),
                              (n["kappa"], l2), (x["kappa"], row.epsilon_n * l2)):
                assert abs(got - want) <= 1e-12, (row.name, l, got, want)


def test_catalog_programming_errors_propagate(monkeypatch):
    # only library errors become failed rows; a bug such as a sample point that
    # misses a parameter of its table row raises
    bad = p6.CatalogRow(0, "bad", lambda l: ("thm-4.25", "g6", {"s": 1.0}, 1),
                        lambda l: ("su2-sasakian", {"m": 1.0}), lambda l: 1.0)
    monkeypatch.setattr(p6, "CATALOG", [bad])
    with pytest.raises(TypeError):
        p6.run_catalog(0, [0.0])


def test_catalog_l_range_filtering():
    results = p6.run_catalog(-1, [0.0, 0.999999, 2.0])
    sl2r = [r for r in results if r.row == "sl2r-sasakian_x_su2-sasakian"]
    assert all(r.l < 1.0 for r in sl2r)  # l^2 < 1 enforced


def test_product_ricci_is_block_diagonal_factor_ricci():
    # independent 6D check: the Levi-Civita Ricci of the product equals the
    # factor Riccis on the diagonal blocks with vanishing mixed block
    n = null_g3_factor()
    x = su2_factor(0.25)
    sc6 = p6.direct_sum(n.sc, x.sc)
    m6 = FrameMetric(n.m.signs + x.m.signs)
    ric6 = riemann_ricci(levi_civita(sc6, m6), sc6, m6).ricci
    ric_n = riemann_ricci(levi_civita(n.sc, n.m), n.sc, n.m).ricci
    ric_x = riemann_ricci(levi_civita(x.sc, x.m), x.sc, x.m).ricci
    assert np.allclose(ric6[:3, :3], ric_n, atol=1e-13)
    assert np.allclose(ric6[3:, 3:], ric_x, atol=1e-13)
    assert np.max(np.abs(ric6[:3, 3:])) < 1e-13


def test_both_lambda_signs_solve():
    n = null_g3_factor()
    x = su2_factor(0.0)
    for lam in (1.0, -1.0):
        sol = p6.build_solution(n, x, lam, 0.0)
        assert p6.verify_supergravity(sol).max_residual() < 1e-12


def test_solution_json_bundle():
    import json

    sol = p6.preset_ads3xs3()
    data = json.loads(sol.to_json())
    assert data["lambda"] == 1.0 and data["l"] == 0.0
    assert data["n"]["family"] == "g3"
    assert data["x"]["family"] == "riemannian_unimodular"
    assert "comps" in data["H"]


def test_solution_computes_its_connections_once(monkeypatch):
    sol = p6.preset_ads3xs3()
    counts = {"levi_civita": 0, "riemann_ricci": 0}
    for name in counts:
        original = getattr(p6, name)

        def counting(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(p6, name, counting)
    p6.verify_supergravity(sol)
    p6.ricci_torsion_identity_residual(sol)
    # one Levi-Civita connection; the Ricci of it and of the torsionful one
    assert counts == {"levi_civita": 1, "riemann_ricci": 2}
    assert not sol.torsion_ricci.flags.writeable

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

import catalog_oracle
from frames import SIGNED_VALUES, koszul_gamma6, ricci_g6, same_bits, wedge_torsion_form
from epscontact import product6d as p6
from epscontact import tables
from epscontact.config import get_tol
from epscontact.contact import ContactBatch, build_contact, check_contact
from epscontact.curvature import (
    koszul_components,
    ricci_components,
    riemann_components,
    three_form_square,
    torsionful_connection,
)
from epscontact.errors import IncompatibleFactors
from epscontact.exterior import (
    FrameMetric,
    _product_table,
    antisymmetric_array,
    d_components,
    hodge_components,
    index_tuples,
    pairing_components,
    sort_sign,
)
from epscontact.liealg import FamilySpec, direct_sum_components, make_family

L3 = FrameMetric.lorentzian(3)
R3 = FrameMetric.riemannian(3)


def su2_factor(kappa_x=0.0):
    """The Riemannian Sasakian factor with lambda^2 = 1 + kappa_x."""
    fields = tables.table_row("thm-4.14", "su2-sasakian").make(m=1.0 + kappa_x)
    return build_contact(fields["spec"], fields["alpha"], -1)


def null_g3_factor():
    spec = FamilySpec("g3", {"a": 1.0, "b": 1.0, "c": 1.0})
    return check_contact(make_family(spec), L3, 1, [1.0, 1.0, 0.0], spec=spec)


def test_preset_is_exact_solution():
    sol = p6.preset_ads3xs3()
    res = p6.verify_supergravity(sol)
    assert res.max_residual() < 1e-12
    assert res.is_solution(1e-12)
    # H = nu_L + nu_R componentwise (factor orientations +1 and -1)
    comps = dict(zip(index_tuples(6, 3), sol.h_form))
    nonzero = {t: v for t, v in comps.items() if v != 0.0}
    assert nonzero == {(0, 1, 2): 1.0, (3, 4, 5): -1.0}


def test_h_formula_componentwise_l_nonzero():
    n = check_contact(
        make_family(FamilySpec("g4", {"a": 1.0, "b": 0.0, "mu": -1.0})),
        L3, 1, [1.0, 0.0, -1.0],
    )
    x = su2_factor(0.0)
    lam, l = 1.0, 1.0
    sol = p6.build_solution(n, x, lam, l)
    # H as a full array from Levi-Civita symbols: nu = o eps_{abc},
    # (*alpha)_{bc} = o sum_a eta_a alpha_a eps_{abc} and
    # (beta ^ gamma)_{ijk} = beta_{ij} gamma_k + beta_{jk} gamma_i + beta_{ki} gamma_j
    eps3 = np.zeros((3, 3, 3))
    for perm in itertools.permutations(range(3)):
        eps3[perm] = sort_sign(perm)[0]

    def lift(arr, offset):
        out = np.zeros((6,) * arr.ndim)
        out[(slice(offset, offset + 3),) * arr.ndim] = arr
        return out

    def star(cs):
        return cs.orientation * np.einsum("a,abc->bc", cs.m.eta * cs.alpha, eps3)

    def wedge21(b, g):
        return (np.einsum("ij,k->ijk", b, g) + np.einsum("jk,i->ijk", b, g)
                + np.einsum("ki,j->ijk", b, g))

    manual = (
        lam * lift(n.orientation * eps3, 0)
        + l * wedge21(lift(star(n), 0), lift(x.alpha, 3))
        + l * wedge21(lift(star(x), 3), lift(n.alpha, 0))  # alpha_N ^ *alpha_X
        + lam * lift(x.orientation * eps3, 3)
    )
    assert np.allclose(sol.h_array, manual)
    res = p6.verify_supergravity(sol)
    assert res.max_residual() < 1e-9


@pytest.mark.parametrize("l", [1e5, 1e6, 1e7])
def test_catalog_passes_at_large_l(l):
    # kappa_N = l^2 of size 1e10 to 1e14 is fitted ulps off l^2: the factor
    # comparisons carry a rounding term of a few ulps of the larger value
    results = p6.run_catalog(0, [l])
    assert results and all(r.passed for r in results)


def test_kappa_n_off_by_one_fails_at_large_l():
    import dataclasses

    row = next(r for r in p6.CATALOG if r.name == "sl2r-sasakian-null_x_su2")
    n, x, lam = row.build(1e5)
    fit_n, fit_x = n.fit().at(), x.fit().at()
    p6._check_factors(-1, 1, 0, fit_n, fit_x, lam, 1e5, get_tol())
    off = dataclasses.replace(fit_n, kappa=fit_n.kappa + 1.0)
    with pytest.raises(IncompatibleFactors, match="kappa_N"):
        p6._check_factors(-1, 1, 0, off, fit_x, lam, 1e5, get_tol())
    # an infinite kappa_N makes the rounding term infinite too
    inf = dataclasses.replace(fit_n, kappa=math.inf)
    with pytest.raises(IncompatibleFactors, match="kappa_N"):
        p6._check_factors(-1, 1, 0, inf, fit_x, lam, 1e5, get_tol())


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
        c6 = direct_sum_components(n.c, x.c)
        signs6 = n.m.signs + x.m.signs
        o6 = n.orientation * x.orientation
        assert np.max(np.abs(d_components(h, c6, 3))) < 1e-13
        assert np.max(np.abs(d_components(hodge_components(h, signs6, 3, o6), c6, 3))) < 1e-13
        assert abs(pairing_components(h, h, signs6, 3)) < 1e-12


def test_ricci_identity_holds_off_shell():
    # Ric(nabla^H) = Ric^g - (1/4) H o H for closed + co-closed H, even when
    # the configuration does not solve the Ricci equation
    n = null_g3_factor()
    x = su2_factor(0.0)
    sol = p6.ProductSolution(n, x, 0.7, 0.3)
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
        sq = three_form_square(antisymmetric_array(h, 6, 3), sol.m6)
        assert np.max(np.abs(sq[:3, 3:])) < 1e-13
        assert np.max(np.abs(sq[3:, :3])) < 1e-13


def test_quarter_square_block_formulas():
    # (1/4) H o H restricted to each factor block:
    #   N-block: -(lam^2/2) chi - (l^2/2) |alpha_N|^2 chi + l^2 alpha_N (x) alpha_N
    #   X-block: +(lam^2/2) h + (l^2/2) |alpha_N|^2 h - l^2 |alpha_N|^2 alpha_X (x) alpha_X
    from epscontact.curvature import three_form_square

    cases = []
    n_null = null_g3_factor()
    cases.append((n_null, su2_factor(0.0), 1.0, 0.8))
    n_time = check_contact(
        make_family(FamilySpec("g3", {"a": 0.75, "b": 0.75, "c": 1.0})),
        L3, 1, [1.0, 0.0, 0.0],
    )
    cases.append((n_time, su2_factor(-0.25), np.sqrt(0.75), 0.5))
    for n, x, lam, l in cases:
        h = p6.torsion_form(n, x, lam, l)
        m6 = FrameMetric(n.m.signs + x.m.signs)
        quarter = 0.25 * three_form_square(antisymmetric_array(h, 6, 3), m6)
        eps_n = float(pairing_components(n.alpha, n.alpha, n.m.signs, 1))
        chi = np.diag(n.m.eta)
        an = n.alpha
        expected_n = (
            -(lam**2) / 2 * chi - l**2 / 2 * eps_n * chi + l**2 * np.outer(an, an)
        )
        assert np.allclose(quarter[:3, :3], expected_n, atol=1e-12)
        hmat = np.diag(x.m.eta)
        ax = x.alpha
        expected_x = (
            lam**2 / 2 * hmat + l**2 / 2 * eps_n * hmat - l**2 * eps_n * np.outer(ax, ax)
        )
        assert np.allclose(quarter[3:, 3:], expected_x, atol=1e-12)


def test_torsionful_ricci_symmetric_for_closed_coclosed():
    n = null_g3_factor()
    x = su2_factor(0.0)
    for lam, l in ((1.0, 0.0), (0.7, 0.3)):  # second pair is off shell but closed
        h = p6.torsion_form(n, x, lam, l)
        c6 = direct_sum_components(n.c, x.c)
        m6 = FrameMetric(n.m.signs + x.m.signs)
        gamma_h = torsionful_connection(koszul_components(c6, m6.eta),
                                        antisymmetric_array(h, 6, 3), m6)
        ric = ricci_components(gamma_h, c6)
        assert np.max(np.abs(ric - ric.T)) < 1e-13


def test_torsionful_connection_mixes_blocks_iff_l_nonzero():
    n = check_contact(
        make_family(FamilySpec("g4", {"a": 1.0, "b": 0.0, "mu": -1.0})),
        L3, 1, [1.0, 0.0, -1.0],
    )
    x = su2_factor(0.0)
    sol = p6.build_solution(n, x, 1.0, 1.0)
    gamma = sol.gamma
    assert np.max(np.abs(gamma[:3, 3:, :])) == 0.0  # product connection
    assert np.max(np.abs(gamma[:3, :3, 3:])) == 0.0
    gamma_h = torsionful_connection(gamma, sol.h_array, sol.m6)
    assert np.max(np.abs(gamma_h[:3, :3, 3:])) > 0.01  # torsion mixes factors

    sol0 = p6.preset_ads3xs3()
    gamma_h0 = torsionful_connection(sol0.gamma, sol0.h_array, sol0.m6)
    assert np.max(np.abs(gamma_h0[:3, :3, 3:])) == 0.0


def test_perturbed_lambda_detected():
    sol = p6.preset_ads3xs3()
    h_bad = p6.torsion_form(sol.n_struct, sol.x_struct, sol.lam + 0.1, sol.l)
    gamma_h = torsionful_connection(sol.gamma, antisymmetric_array(h_bad, 6, 3), sol.m6)
    assert np.max(np.abs(ricci_components(gamma_h, sol.c6))) > 0.01


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


def test_catalog_rejects_an_epsilon_n_without_a_table():
    for eps_n in (2, -2, 0.5):
        with pytest.raises(ValueError, match="epsilon_n"):
            p6.run_catalog(eps_n, [0.5])
    assert p6.run_catalog(1, [0.5])


def test_catalog_l_range_filtering():
    results = p6.run_catalog(-1, [0.0, 0.999999, 2.0])
    sl2r = [r for r in results if r.row == "sl2r-sasakian_x_su2-sasakian"]
    assert all(r.l < 1.0 for r in sl2r)  # l^2 < 1 enforced


def test_product_ricci_is_block_diagonal_factor_ricci():
    # independent 6D check: the Levi-Civita Ricci of the product equals the
    # factor Riccis on the diagonal blocks with vanishing mixed block
    n = null_g3_factor()
    x = su2_factor(0.25)
    c6 = direct_sum_components(n.c, x.c)
    m6 = FrameMetric(n.m.signs + x.m.signs)
    ric6 = ricci_components(koszul_components(c6, m6.eta), c6)
    ric_n, ric_x = n.ricci, x.ricci
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
    assert data["H"] == {"degree": 3, "dim": 6, "comps": {"0,1,2": 1.0, "3,4,5": -1.0}}


def test_solution_computes_its_connections_once(count_calls):
    sol = p6.preset_ads3xs3()
    counts = count_calls(["koszul_components", "ricci_components", "riemann_components"])
    p6.verify_supergravity(sol)
    p6.ricci_torsion_identity_residual(sol)
    # the Levi-Civita connection and its Ricci are the factors' blocks, which
    # build_solution's fits formed; the one 6D Ricci is the torsionful one's,
    # without a 6D Riemann stack
    assert counts == {"koszul_components": 0, "ricci_components": 1, "riemann_components": 0}
    assert not sol.torsion_ricci.flags.writeable


def test_solution_ricci_is_the_trace_of_riemann_on_the_catalog():
    # the solutions' Ricci route, bit for bit against the traced 6D Riemann
    # stack, for the Levi-Civita and the torsionful connection
    checked = 0
    for row in p6.CATALOG:
        for l in row.ls(p6.DEFAULT_L_SAMPLES):
            n, x, lam = row.build(l)
            sol = p6.build_solution(n, x, lam, l)
            gamma_h = torsionful_connection(sol.gamma, sol.h_array, sol.m6)
            for gamma in (sol.gamma, gamma_h):
                traced = np.einsum("ijki->jk", riemann_components(gamma, sol.c6))
                assert ricci_components(gamma, sol.c6).tobytes() == traced.tobytes()
                checked += 1
            assert sol.torsion_ricci.tobytes() == ricci_components(gamma_h, sol.c6).tobytes()
    assert checked == 82  # 41 catalog solutions, two connections each


@pytest.mark.parametrize("field", ["ricci_h", "d_h", "d_star_h", "norm_h"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_residual_is_no_solution(field, bad):
    fields = {"ricci_h": 1e-16, "d_h": 0.0, "d_star_h": 0.0, "norm_h": -1e-16}
    assert p6.SugraResiduals(**fields).is_solution(1e-9)
    res = p6.SugraResiduals(**{**fields, field: bad})
    assert not res.is_solution(1e-9)
    assert not np.isfinite(res.max_residual())


# --- the stacked catalog pass against the per-solution reference -----------------


def hx(x):
    """A float by its bits (signed zeros kept), anything else as it is."""
    return float(x).hex() if isinstance(x, float) else x


def hexed(results):
    return [(r.row, r.epsilon_n, hx(r.l), hx(r.lam), r.passed, r.failure,
             tuple(hx(v) for v in (r.residuals.ricci_h, r.residuals.d_h, r.residuals.d_star_h,
                                   r.residuals.norm_h)))
            for r in results]


# the defaults plus one draw in each of 32 strata of [0, 1), as the benchmark's
# product workload samples l
_DRAWN = (np.arange(32) + np.random.default_rng(2019).uniform(0.0, 1.0, 32)) / 32
L_SETS = {
    "default": p6.DEFAULT_L_SAMPLES,
    "strata-37": sorted(set(p6.DEFAULT_L_SAMPLES) | set(_DRAWN.tolist())),
    # overflowing, underflowing and subnormal l, boundaries of the l^2 bounds,
    # an l beyond every bound, repeated and negative l
    "failures": (1e200, -1e200, 1e-200, 5e-324, 0.999999999999, 0.7071067811865, 3.0,
                 0.5, 0.5, -0.25, -0.9, 0.0),
}


@pytest.mark.parametrize("eps_n", [-1, 0, 1])
@pytest.mark.parametrize("l_set", sorted(L_SETS))
def test_catalog_bit_equal_to_per_solution_reference(eps_n, l_set):
    ls = L_SETS[l_set]
    got = hexed(p6.run_catalog(eps_n, ls))
    assert len(L_SETS["strata-37"]) == 37
    assert got == hexed(catalog_oracle.run_catalog(eps_n, ls))
    if l_set == "failures" and eps_n >= 0:  # NotContact at eps_N = 0, ConstraintViolation at 1
        assert any(r[5] is not None for r in got)


def _su2(m):
    return "su2-sasakian", {"m": m}


# rows that fail build_solution's checks or build_contact at some l, each
# against a theorem condition: (row, the failures it must report)
FORCED_ROWS = [
    (p6.CatalogRow(0, "lambda-mismatch",
                   lambda l: ("thm-1.2", "g3-sasakian", {"a": 1.0 - l * l}, 1),
                   lambda l: _su2(1.0 - l * l), lambda l: 2.0),
     {"IncompatibleFactors: lambda^2 mismatch"}),
    (p6.CatalogRow(0, "kappa-n", lambda l: ("thm-1.2", "g3-sasakian", {"a": 0.5}, 1),
                   lambda l: _su2(0.5), lambda l: math.sqrt(0.5)),
     {"IncompatibleFactors: kappa_N"}),
    (p6.CatalogRow(0, "kappa-x", lambda l: ("thm-1.2", "g3-sasakian", {"a": 1.0 - l * l}, 1),
                   lambda l: ("su2-nonsasakian", {"mh": abs(2.0 * l * l - 1.0) ** 0.5}),
                   lambda l: math.sqrt(1.0 - l * l)),
     {"IncompatibleFactors: kappa_X", "IncompatibleFactors: lambda^2 mismatch"}),
    (p6.CatalogRow(0, "riemannian-n", lambda l: ("thm-4.14", "su2-sasakian", {"m": 1.0}, -1),
                   lambda l: _su2(1.0), lambda l: 1.0),
     {"IncompatibleFactors: first factor must be Lorentzian"}),
    (p6.CatalogRow(0, "not-eta-einstein", lambda l: ("prop-3.8", "g1", {"s": 1, "a": 1.0 + l}, 1),
                   lambda l: _su2(1.0), lambda l: 1.0),
     {"IncompatibleFactors: Lorentzian factor is not admissibly eta-Einstein"}),
    (p6.CatalogRow(0, "constraint",
                   lambda l: ("thm-4.22", "g6-axis", {"s": 1.0, "d": 2.0 * l}, 1),
                   lambda l: _su2(4.0 * l * l), lambda l: abs(2.0 * l)),
     {"ConstraintViolation: g6: constraint a + d != 0", "IncompatibleFactors: kappa_N"}),
    (p6.CatalogRow(0, "wrong-orientation",
                   lambda l: ("thm-1.2", "g3-sasakian", {"a": 1.0 - l * l}, -1),
                   lambda l: _su2(1.0 - l * l), lambda l: math.sqrt(1.0 - l * l)),
     {"NotContact: not a contact structure: alpha = *d(alpha)"}),
    (p6.CATALOG[0], set()),
]


def test_every_catalog_failure_path_matches_reference(monkeypatch):
    monkeypatch.setattr(p6, "CATALOG", [row for row, _ in FORCED_ROWS])
    ls = (0.0, 0.5, 0.8, -0.8, 0.9)
    got = p6.run_catalog(0, ls)
    assert hexed(got) == hexed(catalog_oracle.run_catalog(0, ls))
    for row, failures in FORCED_ROWS:
        seen = [r.failure for r in got if r.row == row.name and not r.passed]
        kinds = {next(f for f in failures if msg.startswith(f)) for msg in seen}
        assert kinds == failures, (row.name, seen)  # the catalog row passes at every l


def test_one_6d_curvature_call_per_row_and_family_pair(count_calls):
    ls = L_SETS["strata-37"]
    counts = count_calls(["koszul_components", "ricci_components"], by_dim=True)
    pairs = 0
    for eps_n in (-1, 0, 1):
        p6.run_catalog(eps_n, ls)
        for row in p6.catalog_rows(eps_n):
            pairs += len({tuple(f["spec"].family_id for _, f, _ in row.factors(l))
                          for l in row.ls(ls)})
    # two null rows switch from g3 to g4 at l != 0, within their one pass; the
    # 6D Levi-Civita coefficients are the factors' blocks, the one 6D Ricci
    # the torsionful connection's
    rows = len(p6.CATALOG)
    assert pairs == rows + 2
    assert counts == {("ricci_components", 6): rows,
                      ("koszul_components", 3): 2 * rows, ("ricci_components", 3): 2 * rows}


def stack(structs):
    """The ContactBatch of contact structures of one frame metric."""
    return check_contact(np.array([s.c for s in structs]), structs[0].m,
                         np.array([s.orientation for s in structs]),
                         np.array([s.alpha for s in structs]))


def _reference_fields(sol) -> dict:
    """h_form, gamma, Ric^g and the torsionful Ricci of a solution by the 6D
    routes the factor blocks and the gather replace: lifts, Hodge duals and
    wedges, Koszul -> Ricci on c6, and the connection with their torsion."""
    h = wedge_torsion_form(sol.n_struct, sol.x_struct, sol.lam, sol.l)
    gamma_h = torsionful_connection(koszul_gamma6(sol), antisymmetric_array(h, 6, 3), sol.m6)
    return {"h_form": h, "gamma": koszul_gamma6(sol), "ricci_g": ricci_g6(sol),
            "torsion_ricci": ricci_components(gamma_h, sol.c6)}


def _library_fields(sol) -> dict:
    ric_g = direct_sum_components(sol.n_struct.ricci, sol.x_struct.ricci, rank=2)
    return {"h_form": sol.h_form, "gamma": sol.gamma, "ricci_g": ric_g,
            "torsion_ricci": sol.torsion_ricci}


@pytest.mark.parametrize("l_set", ["default", "strata-37"])
def test_factor_blocks_and_gather_bit_equal_to_6d_references(l_set):
    # at all four sign choices of (lambda, l), -0.0 included, one solution at
    # a time and all stacked; the Riemannian factors and some Lorentzian ones
    # have orientation -1
    sols = []
    for row in p6.CATALOG:
        for l in row.ls(L_SETS[l_set]):
            n, x, lam = row.build(l)
            for s_lam, s_l in itertools.product((1.0, -1.0), repeat=2):
                sol = p6.build_solution(n, x, s_lam * lam, s_l * l)
                ref = _reference_fields(sol)
                for name, got in _library_fields(sol).items():
                    assert same_bits(got, ref[name]), (row.name, l, s_lam, s_l, name)
                square = three_form_square(sol.h_array, sol.m6)
                assert p6.ricci_torsion_identity_residual(sol) == float(np.max(np.abs(
                    ref["torsion_ricci"] - (ref["ricci_g"] - 0.25 * square))))
                sols.append(sol)
    assert len(sols) == 4 * {"default": 41, "strata-37": 256}[l_set]
    assert {s.n_struct.orientation for s in sols} == {-1, 1}
    assert {s.x_struct.orientation for s in sols} == {-1}

    stacked = p6.ProductSolution(stack([s.n_struct for s in sols]), stack([s.x_struct for s in sols]),
                                 np.array([s.lam for s in sols]), np.array([s.l for s in sols]))
    ref = _reference_fields(stacked)
    for name, got in _library_fields(stacked).items():
        assert same_bits(got, ref[name]), name


def test_torsion_gather_bit_equal_on_signed_zeros_non_finite_and_underflow():
    # the gather reads only alpha, m and orientation of the factors; products
    # of the tiny entries underflow to a signed zero
    rng = np.random.default_rng(25)
    values = np.concatenate([SIGNED_VALUES, [1e-200, -1e-200, 3e-170]])
    k = 2000
    n, x = (SimpleNamespace(alpha=rng.choice(values, (k, 3)), m=m,
                            orientation=rng.choice([-1, 1], k)) for m in (L3, R3))
    lam, l = rng.choice(values, k), rng.choice(values, k)
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        assert same_bits(p6.torsion_form(n, x, lam, l), wedge_torsion_form(n, x, lam, l))
        for j in range(0, k, 97):
            nj, xj = (SimpleNamespace(alpha=f.alpha[j], m=f.m, orientation=int(f.orientation[j]))
                      for f in (n, x))
            assert same_bits(p6.torsion_form(nj, xj, lam[j], l[j]),
                             wedge_torsion_form(nj, xj, lam[j], l[j]))


def test_stacked_formulas_bit_equal_to_single_solutions():
    # one ProductSolution over the stacked factors of the 41 catalog solutions
    # holds, row by row, the data of each solution built alone
    sols = [p6.build_solution(*row.build(l), l)
            for row in p6.CATALOG for l in row.ls(p6.DEFAULT_L_SAMPLES)]
    assert len(sols) == 41

    n, x = stack([s.n_struct for s in sols]), stack([s.x_struct for s in sols])
    assert {s.n_struct.m for s in sols} == {L3} and {s.x_struct.m for s in sols} == {R3}
    stacked = p6.ProductSolution(n, x, [s.lam for s in sols], [s.l for s in sols])
    fields = p6.field_residuals(stacked)
    for k, sol in enumerate(sols):
        for name in ("h_form", "gamma", "torsion_ricci"):
            assert getattr(stacked, name)[k].tobytes() == getattr(sol, name).tobytes(), name
        assert ([np.asarray(f[k]).tobytes() for f in fields]
                == [np.asarray(f).tobytes() for f in p6.field_residuals(sol)])
    held = {k: v for k, v in vars(stacked).items() if isinstance(v, np.ndarray)}
    assert set(held) == {"c6", "orientation6", "h_form", "h_array", "gamma", "torsion_ricci"}
    assert not any(a.flags.writeable for a in held.values())


def test_torsion_identity_of_verify_row_stacks_bit_equal_to_single_solutions(monkeypatch):
    # ricci_torsion_identity_residual takes the stacked ProductSolution of each
    # catalog row's _verify_row whole: at DEFAULT_L_SAMPLES its residuals are
    # those of each solution built alone, an np.float64 each, bit for bit
    stacks, field_residuals = [], p6.field_residuals

    def keep(sol):
        stacks.append(sol)
        return field_residuals(sol)

    monkeypatch.setattr(p6, "field_residuals", keep)
    solutions = 0
    for row in p6.CATALOG:
        ls = row.ls(p6.DEFAULT_L_SAMPLES)
        assert all(r.passed for r in p6._verify_row(row, p6.DEFAULT_L_SAMPLES, get_tol()))
        got = p6.ricci_torsion_identity_residual(stacks.pop())
        want = [p6.ricci_torsion_identity_residual(p6.build_solution(*row.build(l), l)) for l in ls]
        assert {type(w) for w in want} == {np.float64}
        assert same_bits(got, want), row.name
        solutions += len(ls)
    assert solutions == 41 and not stacks


def product_forms(a, b, o_n, o_x):
    """nu_N, (*a) ^ b, a ^ (*b) and nu_X, (4, 20), for one-forms a on the
    Lorentzian and b on the Riemannian factor: the gather of torsion_form."""
    ka, kb, sign, live, of_n = _product_table(L3.signs, R3.signs)
    a, b = np.append(a, 1.0), np.append(b, 1.0)
    return np.where(live, sign * np.where(of_n, o_n, o_x) * a[ka] * b[kb], 0.0)


def test_lambda_part_of_h_anti_self_dual_and_l_part_self_dual():
    # * nu_N = -nu_X, * nu_X = -nu_N, *((*a) ^ b) = a ^ (*b) and back, bit for
    # bit, at both orientations of each factor: lambda (nu_N + nu_X) is
    # anti-self-dual and l ((*a) ^ b + a ^ (*b)) self-dual
    rng = np.random.default_rng(13)
    m6 = p6._product_metric(L3, R3)
    for o_n, o_x in itertools.product((1, -1), repeat=2):
        for a, b in rng.normal(size=(20, 2, 3)):
            nu_n, w_n, w_x, nu_x = product_forms(a, b, o_n, o_x)
            star = [hodge_components(f, m6.signs, 3, o_n * o_x) for f in (nu_n, w_n, w_x, nu_x)]
            assert np.array_equal(star[0], -nu_x) and np.array_equal(star[3], -nu_n)
            assert np.array_equal(star[1], w_x) and np.array_equal(star[2], w_n)
            assert np.count_nonzero(w_n) == 9 and np.count_nonzero(nu_n) == 1


def test_preset_h_anti_self_dual():
    # H = nu_L + nu_R with lambda = 1, l = 0: *H = -H bit for bit (the + 0.0
    # gives the Hodge dual's +0.0 zeros)
    sol = p6.preset_ads3xs3()
    star = hodge_components(sol.h_form, sol.m6.signs, 3, sol.orientation6)
    assert star.tobytes() == (-sol.h_form + 0.0).tobytes()
    assert np.count_nonzero(sol.h_form) == 2


def test_para_row_h_mixed_with_self_dual_part_2l():
    # lambda != 0 and l != 0: H + *H = 2 l ((*a) ^ b + a ^ (*b)), the
    # self-dual part, of max-abs 2 l; H - *H = 2 lambda (nu_L + nu_R)
    row = next(r for r in p6.catalog_rows(1) if r.name == "sl2r-parasasakian_x_su2-sasakian")
    n, x, lam = row.build(0.5)
    sol = p6.build_solution(n, x, lam, 0.5)
    star = hodge_components(sol.h_form, sol.m6.signs, 3, sol.orientation6)
    assert np.abs(sol.h_form + star).max() == 1.0
    assert np.abs(sol.h_form - star).max() == 2 * lam


def table_batch(table_id):
    """The ContactBatch of every instance of a table, and its fit."""
    insts = [i for row in tables.table_rows(table_id) for i in row.instances()]
    batch = ContactBatch.from_specs([i.spec for i in insts], [i.alpha for i in insts])
    assert batch.ok.all()
    return batch, batch.fit()


def test_main_theorem_on_every_pairing_of_table_structures():
    # every admissible Lorentzian table structure N and thm-4.14 structure X
    # with lambda^2_N = lambda^2_X and kappa_X = eps_N kappa_N solve the field
    # equations at lambda = +-sqrt(lambda^2), l = +-sqrt(kappa_N); pairs of
    # equal lambda^2 whose kappa_X misses eps_N kappa_N by 1 fail at l >= 0
    x, fit_x = table_batch("thm-4.14")
    tol, bound = get_tol(), 1e-12
    pairs, worst, misses = {}, 0.0, []
    for table_id in ("thm-1.2", "thm-4.22", "thm-4.25"):
        n, fit_n = table_batch(table_id)
        adm = np.flatnonzero(fit_n.admissible)
        same = np.abs(fit_n.lambda2[adm, None] - fit_x.lambda2) <= bound
        gap = np.abs(fit_x.kappa - n.eps[adm, None] * fit_n.kappa[adm, None])

        def solve(pairing, s_lam, s_l):
            """l and the worst field residual of each pair, in one stacked pass."""
            j_n, j_x = np.nonzero(pairing)
            j_n = adm[j_n]
            # a kappa_N rounded below 0 is 0
            lam, l = (np.sqrt(np.maximum(v[j_n], 0.0)) for v in (fit_n.lambda2, fit_n.kappa))
            sol = p6.ProductSolution(n.take(j_n), x.take(j_x), s_lam * lam, s_l * l)
            return l, np.max(np.abs(p6.field_residuals(sol)), axis=0)

        match, miss = same & (gap <= bound), same & (gap > bound)
        pairs[table_id] = np.count_nonzero(match)
        for s_lam, s_l in itertools.product((1.0, -1.0), repeat=2):
            worst = max(worst, solve(match, s_lam, s_l)[1].max())
        assert (gap[miss] > 0.5).all()
        l, res = solve(miss, 1.0, 1.0)
        assert ((l == 0.0) | (l * l > p6.factor_bound(tol))).all()  # l the factor checks resolve
        misses.append(res)
    assert pairs == {"thm-1.2": 7, "thm-4.22": 116, "thm-4.25": 140}
    assert worst <= 1e2 * np.finfo(float).eps
    misses = np.concatenate(misses)
    assert len(misses) == 52 and (misses > 0.4).all()

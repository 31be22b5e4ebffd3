import math

import numpy as np
import pytest

from epscontact.curvature import (
    closed_form_ricci,
    curvature_components,
    jacobi_constraints9,
    koszul_components,
    levi_civita,
    ricci_components,
    riemann_ricci,
    three_form_square,
    torsionful_connection,
)
from epscontact.errors import JacobiViolation
from epscontact.exterior import (FrameMetric, antisymmetric_array, interior_components, sort_sign,
                                 tuple_positions)
from epscontact.liealg import FamilySpec, make_family, nine_params, zero_algebra
from epscontact.oracle import LORENTZ_FAMILIES, sample_spec

L3 = FrameMetric.lorentzian(3)


def compatibility_defect(conn, m) -> float:
    """Max-abs of g(nabla_i e_j, e_k) + g(e_j, nabla_i e_k)."""
    low = conn.gamma * m.eta
    return float(np.max(np.abs(low + np.swapaxes(low, 1, 2))))


def koszul_brute(sc, m):
    """Independent oracle: 2 g(nabla_i e_j, e_k) from the explicit formula."""
    eta = m.eta
    gamma = np.zeros((3, 3, 3))
    e = np.eye(3)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                val = (
                    eta[k] * sc.bracket(e[i], e[j])[k]
                    - eta[i] * sc.bracket(e[j], e[k])[i]
                    + eta[j] * sc.bracket(e[k], e[i])[j]
                )
                gamma[i, j, k] = 0.5 * val / eta[k]
    return gamma


def test_levi_civita_abelian():
    conn = levi_civita(zero_algebra(3), L3)
    assert np.max(np.abs(conn.gamma)) == 0.0


def test_levi_civita_g3_unit():
    sc = make_family(FamilySpec("g3", {"a": 1, "b": 1, "c": 1}))
    conn = levi_civita(sc, L3)
    assert np.allclose(conn.gamma[0, 1], [0, 0, 0.5])  # nabla_{e0} e1 = e2 / 2
    assert np.allclose(conn.gamma, koszul_brute(sc, L3))


def test_levi_civita_properties_random():
    rng = np.random.default_rng(0)
    count = 0
    while count < 100:
        fam = LORENTZ_FAMILIES[count % len(LORENTZ_FAMILIES)]
        sc = make_family(sample_spec(fam, rng))
        conn = levi_civita(sc, L3)
        assert compatibility_defect(conn, L3) < 1e-13
        # torsion: nabla_u v - nabla_v u - [u, v] on the frame
        assert np.max(np.abs(conn.gamma - np.swapaxes(conn.gamma, 0, 1) - sc.c)) < 1e-13
        assert np.max(np.abs(conn.gamma - koszul_brute(sc, L3))) < 1e-13
        count += 1


def test_ricci_g3_unit():
    sc = make_family(FamilySpec("g3", {"a": 1, "b": 1, "c": 1}))
    curv = riemann_ricci(levi_civita(sc, L3), sc, L3)
    assert np.allclose(curv.ricci, np.diag([0.5, -0.5, -0.5]), atol=1e-14)
    assert abs(curv.scalar + 1.5) < 1e-14  # contraction of diag(1/2,-1/2,-1/2) with eta


def test_ricci_abelian_zero():
    curv = riemann_ricci(levi_civita(zero_algebra(3), L3), zero_algebra(3), L3)
    assert np.max(np.abs(curv.riemann)) == 0.0
    assert np.max(np.abs(curv.ricci)) == 0.0
    assert curv.scalar == 0.0


def test_first_bianchi_and_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(30):
        fam = LORENTZ_FAMILIES[int(rng.integers(len(LORENTZ_FAMILIES)))]
        sc = make_family(sample_spec(fam, rng))
        curv = riemann_ricci(levi_civita(sc, L3), sc, L3)
        r = curv.riemann
        cyc = r + np.transpose(r, (1, 2, 0, 3)) + np.transpose(r, (2, 0, 1, 3))
        assert np.max(np.abs(cyc)) < 1e-12  # first Bianchi, torsion-free
        assert np.max(np.abs(r + np.transpose(r, (1, 0, 2, 3)))) < 1e-13
        assert np.max(np.abs(curv.ricci - curv.ricci.T)) < 1e-12
        eta = L3.eta
        assert abs(curv.scalar - float(np.sum(eta * np.diag(curv.ricci)))) < 1e-12


def test_closed_form_examples():
    assert np.max(np.abs(closed_form_ricci(np.zeros(9), L3).ricci)) == 0.0
    # g3 family maps to (0, 0, b, -c, 0, 0, 0, -a, 0)
    for a, b, c in ((1.0, 1.0, 1.0), (0.25, 0.75, 1.0), (-0.3, 1.2, 0.4)):
        p9 = (0, 0, b, -c, 0, 0, 0, -a, 0)
        ric = closed_form_ricci(p9, L3).ricci
        assert abs(ric[0, 0] - (c * c / 2 + b * a - b * b / 2 - a * a / 2)) < 1e-14
    p9 = nine_params(make_family(FamilySpec("g3", {"a": 1, "b": 1, "c": 1})))
    assert np.allclose(closed_form_ricci(p9, L3).ricci, np.diag([0.5, -0.5, -0.5]))


def test_closed_form_rejects_invalid():
    bad = (1, 0, 1, 0, 1, 0, 0, 0, 0)
    assert np.allclose(jacobi_constraints9(bad), [-1.0, 0.0, -1.0])
    with pytest.raises(JacobiViolation):
        closed_form_ricci(bad, L3)
    with pytest.raises(ValueError):
        closed_form_ricci(np.zeros(9), FrameMetric.riemannian(3))


def test_oracle_equivalence_sample():
    rng = np.random.default_rng(2)
    for k in range(200):
        fam = LORENTZ_FAMILIES[k % len(LORENTZ_FAMILIES)]
        sc = make_family(sample_spec(fam, rng))
        curv = riemann_ricci(levi_civita(sc, L3), sc, L3)
        oracle = closed_form_ricci(nine_params(sc), L3)
        assert np.max(np.abs(curv.ricci - oracle.ricci)) < 1e-12
        assert abs(curv.scalar - oracle.scalar) < 1e-12


def random_three_form(rng, dim):
    return rng.normal(size=math.comb(dim, 3))


def test_torsionful_zero_torsion_is_identity():
    sc = make_family(FamilySpec("g3", {"a": 1, "b": 1, "c": 1}))
    conn = levi_civita(sc, L3)
    same = torsionful_connection(conn, np.zeros((3, 3, 3)), L3)
    assert np.allclose(same.gamma, conn.gamma)


def test_torsionful_metric_compatible_and_torsion_matches():
    rng = np.random.default_rng(3)
    L6 = FrameMetric((-1, 1, 1, 1, 1, 1))
    from epscontact.liealg import direct_sum

    g3 = make_family(FamilySpec("g3", {"a": 1, "b": 1, "c": 1}))
    su2 = make_family(FamilySpec("riemannian_unimodular", {"mu1": 1, "mu2": 1, "mu3": 1}))
    cases = [(g3, L3, 3), (direct_sum(g3, su2), L6, 6)]
    for sc, m, dim in cases:
        conn = levi_civita(sc, m)
        for _ in range(5):
            h = random_three_form(rng, dim)
            conn_h = torsionful_connection(conn, antisymmetric_array(h, dim, 3), m)
            assert compatibility_defect(conn_h, m) < 1e-13
            # brute-force torsion: T(u,v) = nabla_u v - nabla_v u - [u, v]
            e = np.eye(dim)
            for i in range(dim):
                for j in range(dim):
                    t_vec = conn_h.gamma[i, j] - conn_h.gamma[j, i] - sc.bracket(e[i], e[j])
                    # (h(e_i, e_j, .))^sharp
                    expected = m.eta * interior_components(
                        e[j], interior_components(e[i], h, 3), 2)
                    assert np.max(np.abs(t_vec - expected)) < 1e-13


def test_three_form_square_matches_brute_force():
    rng = np.random.default_rng(4)
    L6 = FrameMetric((-1, 1, 1, 1, 1, 1))
    h = random_three_form(rng, 6)
    sq = three_form_square(antisymmetric_array(h, 6, 3), L6)
    eta = L6.eta

    def value(indices):  # h on any index triple, by antisymmetry
        sign, key = sort_sign(indices)
        return sign * h[tuple_positions(6, 3)[key]] if sign else 0.0

    brute = np.zeros((6, 6))
    for u in range(6):
        for v in range(6):
            brute[u, v] = sum(
                eta[k] * eta[l] * value((u, k, l)) * value((v, k, l))
                for k in range(6)
                for l in range(6)
            )
    assert np.allclose(sq, brute)


def test_batched_curvature_bit_equal_to_single_on_table_instances():
    from epscontact.liealg import family_metric
    from epscontact.tables import TABLES

    instances = [inst for rows in TABLES.values() for row in rows for inst in row.instances()]
    assert len(instances) == 771
    by_metric = {}
    for inst in instances:
        sc = make_family(inst.spec)
        by_metric.setdefault(family_metric(inst.spec.family_id), []).append(sc)
    for m, tables in by_metric.items():
        c = np.stack([sc.c for sc in tables])
        gamma = koszul_components(c, m.eta)
        riemann, ricci, scalar = curvature_components(gamma, c, m.eta)
        ricci_only = ricci_components(gamma, c)
        for k, sc in enumerate(tables):
            conn = levi_civita(sc, m)
            single = riemann_ricci(conn, sc, m)
            # bitwise, signed zeros included
            assert gamma[k].tobytes() == conn.gamma.tobytes()
            assert riemann[k].tobytes() == single.riemann.tobytes()
            assert ricci[k].tobytes() == single.ricci.tobytes()
            assert ricci_only[k].tobytes() == single.ricci.tobytes()
            assert float(scalar[k]).hex() == single.scalar.hex()


@pytest.mark.parametrize("signs", [(-1, 1, 1), (1, 1, 1)])
def test_ricci_components_bit_equal_to_trace_of_riemann_on_random_tables(signs):
    # generic entries, where the order of the subtractions shows in the bits
    rng = np.random.default_rng(12)
    c = rng.normal(size=(2000, 3, 3, 3))
    c = c - np.swapaxes(c, -3, -2)
    eta = np.array(signs, dtype=float)
    gamma = koszul_components(c, eta)
    assert ricci_components(gamma, c).tobytes() == curvature_components(gamma, c, eta)[1].tobytes()

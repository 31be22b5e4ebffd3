import math

import numpy as np
import pytest

from frames import SIGNED_VALUES, bracket, einsum_koszul, interior_components, same_bits
from epscontact.curvature import (
    closed_form_ricci,
    jacobi_constraints9,
    koszul_components,
    ricci_components,
    riemann_components,
    three_form_square,
    torsionful_connection,
)
from epscontact.errors import JacobiViolation
from epscontact.exterior import FrameMetric, antisymmetric_array, sort_sign, tuple_positions
from epscontact.liealg import FamilySpec, direct_sum_components, make_family, nine_params
from epscontact.oracle import LORENTZ_FAMILIES, sample_spec

L3 = FrameMetric.lorentzian(3)


def scalar_of(ricci, m):
    return float(np.sum(m.eta * np.diag(ricci)))


def compatibility_defect(gamma, m) -> float:
    """Max-abs of g(nabla_i e_j, e_k) + g(e_j, nabla_i e_k)."""
    low = gamma * m.eta
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
                    eta[k] * bracket(sc, e[i], e[j])[k]
                    - eta[i] * bracket(sc, e[j], e[k])[i]
                    + eta[j] * bracket(sc, e[k], e[i])[j]
                )
                gamma[i, j, k] = 0.5 * val / eta[k]
    return gamma


def test_levi_civita_abelian():
    assert np.max(np.abs(koszul_components(np.zeros((3, 3, 3)), L3.eta))) == 0.0


def test_levi_civita_g3_unit():
    sc = make_family(FamilySpec("g3", {"a": 1, "b": 1, "c": 1}))
    gamma = koszul_components(sc, L3.eta)
    assert np.allclose(gamma[0, 1], [0, 0, 0.5])  # nabla_{e0} e1 = e2 / 2
    assert np.allclose(gamma, koszul_brute(sc, L3))


def test_levi_civita_properties_random():
    rng = np.random.default_rng(0)
    count = 0
    while count < 100:
        fam = LORENTZ_FAMILIES[count % len(LORENTZ_FAMILIES)]
        sc = make_family(sample_spec(fam, rng))
        gamma = koszul_components(sc, L3.eta)
        assert compatibility_defect(gamma, L3) < 1e-13
        # torsion: nabla_u v - nabla_v u - [u, v] on the frame
        assert np.max(np.abs(gamma - np.swapaxes(gamma, 0, 1) - sc)) < 1e-13
        assert np.max(np.abs(gamma - koszul_brute(sc, L3))) < 1e-13
        count += 1


def test_ricci_g3_unit():
    sc = make_family(FamilySpec("g3", {"a": 1, "b": 1, "c": 1}))
    ricci = ricci_components(koszul_components(sc, L3.eta), sc)
    assert np.allclose(ricci, np.diag([0.5, -0.5, -0.5]), atol=1e-14)
    assert abs(scalar_of(ricci, L3) + 1.5) < 1e-14  # contraction of diag(1/2,-1/2,-1/2) with eta


def test_ricci_abelian_zero():
    sc = np.zeros((3, 3, 3))
    gamma = koszul_components(sc, L3.eta)
    assert np.max(np.abs(riemann_components(gamma, sc))) == 0.0
    ricci = ricci_components(gamma, sc)
    assert np.max(np.abs(ricci)) == 0.0
    assert scalar_of(ricci, L3) == 0.0


def test_first_bianchi_and_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(30):
        fam = LORENTZ_FAMILIES[int(rng.integers(len(LORENTZ_FAMILIES)))]
        sc = make_family(sample_spec(fam, rng))
        r = riemann_components(koszul_components(sc, L3.eta), sc)
        cyc = r + np.transpose(r, (1, 2, 0, 3)) + np.transpose(r, (2, 0, 1, 3))
        assert np.max(np.abs(cyc)) < 1e-12  # first Bianchi, torsion-free
        assert np.max(np.abs(r + np.transpose(r, (1, 0, 2, 3)))) < 1e-13
        ricci = np.einsum("ijki->jk", r)
        assert np.max(np.abs(ricci - ricci.T)) < 1e-12


def test_closed_form_examples():
    assert closed_form_ricci(np.zeros(9), L3)[1] == 0.0
    assert np.max(np.abs(closed_form_ricci(np.zeros(9), L3)[0])) == 0.0
    # g3 family maps to (0, 0, b, -c, 0, 0, 0, -a, 0)
    for a, b, c in ((1.0, 1.0, 1.0), (0.25, 0.75, 1.0), (-0.3, 1.2, 0.4)):
        p9 = (0, 0, b, -c, 0, 0, 0, -a, 0)
        ric = closed_form_ricci(p9, L3)[0]
        assert abs(ric[0, 0] - (c * c / 2 + b * a - b * b / 2 - a * a / 2)) < 1e-14
    p9 = nine_params(make_family(FamilySpec("g3", {"a": 1, "b": 1, "c": 1})))
    assert np.allclose(closed_form_ricci(p9, L3)[0], np.diag([0.5, -0.5, -0.5]))


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
        ricci = ricci_components(koszul_components(sc, L3.eta), sc)
        oracle_ricci, oracle_scalar = closed_form_ricci(nine_params(sc), L3)
        assert np.max(np.abs(ricci - oracle_ricci)) < 1e-12
        assert abs(scalar_of(ricci, L3) - oracle_scalar) < 1e-12


def random_three_form(rng, dim):
    return rng.normal(size=math.comb(dim, 3))


def test_torsionful_zero_torsion_is_identity():
    sc = make_family(FamilySpec("g3", {"a": 1, "b": 1, "c": 1}))
    gamma = koszul_components(sc, L3.eta)
    assert np.allclose(torsionful_connection(gamma, np.zeros((3, 3, 3)), L3), gamma)


def test_torsionful_metric_compatible_and_torsion_matches():
    rng = np.random.default_rng(3)
    L6 = FrameMetric((-1, 1, 1, 1, 1, 1))
    g3 = make_family(FamilySpec("g3", {"a": 1, "b": 1, "c": 1}))
    su2 = make_family(FamilySpec("riemannian_unimodular", {"mu1": 1, "mu2": 1, "mu3": 1}))
    cases = [(g3, L3, 3), (direct_sum_components(g3, su2), L6, 6)]
    for sc, m, dim in cases:
        gamma = koszul_components(sc, m.eta)
        for _ in range(5):
            h = random_three_form(rng, dim)
            gamma_h = torsionful_connection(gamma, antisymmetric_array(h, dim, 3), m)
            assert compatibility_defect(gamma_h, m) < 1e-13
            # brute-force torsion: T(u,v) = nabla_u v - nabla_v u - [u, v]
            e = np.eye(dim)
            for i in range(dim):
                for j in range(dim):
                    t_vec = gamma_h[i, j] - gamma_h[j, i] - bracket(sc, e[i], e[j])
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
    from epscontact.liealg import FAMILIES
    from epscontact.tables import TABLES

    instances = [inst for rows in TABLES.values() for row in rows for inst in row.instances()]
    assert len(instances) == 771
    by_metric = {}
    for inst in instances:
        sc = make_family(inst.spec)
        by_metric.setdefault(FAMILIES[inst.spec.family_id].metric, []).append(sc)
    for m, tables in by_metric.items():
        c = np.stack(tables)
        gamma = koszul_components(c, m.eta)
        riemann = riemann_components(gamma, c)
        ricci = ricci_components(gamma, c)
        for k, sc in enumerate(tables):
            single_gamma = koszul_components(sc, m.eta)
            single_riemann = riemann_components(single_gamma, sc)
            # bitwise, signed zeros included
            assert gamma[k].tobytes() == single_gamma.tobytes()
            assert riemann[k].tobytes() == single_riemann.tobytes()
            assert ricci[k].tobytes() == np.einsum("ijki->jk", single_riemann).tobytes()
            assert ricci[k].tobytes() == ricci_components(single_gamma, sc).tobytes()


@pytest.mark.parametrize("signs", [(-1, 1, 1), (1, 1, 1)])
def test_ricci_components_bit_equal_to_trace_of_riemann_on_random_tables(signs):
    # generic entries, where the order of the subtractions shows in the bits
    rng = np.random.default_rng(12)
    c = rng.normal(size=(2000, 3, 3, 3))
    c = c - np.swapaxes(c, -3, -2)
    eta = np.array(signs, dtype=float)
    gamma = koszul_components(c, eta)
    traced = np.einsum("...ijki->...jk", riemann_components(gamma, c))
    assert ricci_components(gamma, c).tobytes() == traced.tobytes()


# --- the Koszul gather against the einsum reference, bit for bit ---------------


def test_koszul_gather_bit_equal_to_einsum_on_table_instances():
    from epscontact.liealg import FAMILIES
    from epscontact.tables import TABLES

    by_metric = {}
    for rows in TABLES.values():
        for row in rows:
            for inst in row.instances():
                m = FAMILIES[inst.spec.family_id].metric
                by_metric.setdefault(m, []).append(make_family(inst.spec))
    assert sum(map(len, by_metric.values())) == 771
    for m, tables in by_metric.items():
        for sc in tables:
            assert same_bits(koszul_components(sc, m.eta), einsum_koszul(sc, m.eta))
        c = np.stack(tables)
        assert same_bits(koszul_components(c, m.eta), einsum_koszul(c, m.eta))


def test_koszul_gather_bit_equal_to_einsum_on_the_catalog():
    from epscontact import product6d as p6

    sols = [p6.build_solution(*row.build(l), l)
            for row in p6.CATALOG for l in row.ls(p6.DEFAULT_L_SAMPLES)]
    assert len(sols) == 41
    for sol in sols:
        assert same_bits(koszul_components(sol.c6, sol.m6.eta), einsum_koszul(sol.c6, sol.m6.eta))
        assert same_bits(sol.gamma, einsum_koszul(sol.c6, sol.m6.eta))
    for m6 in {sol.m6 for sol in sols}:
        c6 = np.stack([sol.c6 for sol in sols if sol.m6 == m6])
        assert same_bits(koszul_components(c6, m6.eta), einsum_koszul(c6, m6.eta))


@pytest.mark.parametrize("signs", [(-1, 1, 1), (1, 1, 1), (1, -1, 1), (-1, 1, 1, 1, 1, 1)])
def test_koszul_gather_bit_equal_on_signed_zeros_and_non_finite_tables(signs):
    rng = np.random.default_rng(24)
    n, eta = len(signs), FrameMetric(signs).eta
    c = rng.choice(SIGNED_VALUES, size=(300, n, n, n))
    c[:100] = np.where(rng.random((100, n, n, n)) < 0.5, 0.0, -0.0)  # zeros only
    with np.errstate(invalid="ignore"):  # inf - inf
        assert same_bits(koszul_components(c, eta), einsum_koszul(c, eta))
        for sc in c[::37]:
            assert same_bits(koszul_components(sc, eta), einsum_koszul(sc, eta))

import hashlib

import numpy as np
import pytest

from frames import bracket
from epscontact.contact import check_contact
from epscontact.errors import ConstraintViolation
from epscontact.exterior import FrameMetric
from epscontact.liealg import (
    FAMILIES,
    FamilySpec,
    GroupName,
    ad_components,
    direct_sum_components,
    group_names,
    make_family,
    nine_params,
)


def jacobi_defect(c: np.ndarray) -> float:
    """Max-abs cyclic Jacobi sum over all index quadruples; zero iff Jacobi holds."""
    j = np.einsum("ijl,lkm->ijkm", c, c)
    return float(np.max(np.abs(j + np.transpose(j, (1, 2, 0, 3)) + np.transpose(j, (2, 0, 1, 3)))))


def from_nine_params(p9) -> np.ndarray:
    """[e0,e1] = a e0 + b e1 + c e2, [e1,e2] = d e0 + f e1 + h e2,
    [e0,e2] = g e0 + j e1 + k e2 for p9 = (a,b,c,d,f,h,g,j,k)."""
    c = np.zeros((3, 3, 3))
    c[0, 1], c[1, 2], c[0, 2] = np.reshape(p9, (3, 3))
    return c - np.swapaxes(c, 0, 1)


def brute_jacobi(c: np.ndarray) -> float:
    """Independent oracle: cyclic triple bracket via explicit bracket calls."""
    n = len(c)
    worst = 0.0
    eye = np.eye(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                total = (
                    bracket(c, bracket(c, eye[i], eye[j]), eye[k])
                    + bracket(c, bracket(c, eye[j], eye[k]), eye[i])
                    + bracket(c, bracket(c, eye[k], eye[i]), eye[j])
                )
                worst = max(worst, float(np.max(np.abs(total))))
    return worst


def test_abelian_defect_zero():
    assert jacobi_defect(np.zeros((3, 3, 3))) == 0.0


def test_g3_unit_defect_zero():
    sc = make_family(FamilySpec("g3", {"a": 1, "b": 1, "c": 1}))
    assert jacobi_defect(sc) == 0.0


def test_invalid_nine_params_defect():
    # parameters violating two of the three bracket constraints (both equal -1)
    sc = from_nine_params((1, 0, 1, 0, 1, 0, 0, 0, 0))
    defect = jacobi_defect(sc)
    assert defect > 0.5
    assert abs(defect - brute_jacobi(sc)) < 1e-14


def test_defect_matches_brute_force_on_random_tables():
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = rng.normal(size=(3, 3, 3))
        c = 0.5 * (c - np.swapaxes(c, 0, 1))
        assert abs(jacobi_defect(c) - brute_jacobi(c)) < 1e-12


def test_ad_and_bracket_match_the_index_definition():
    # [u, v]^k = u^i v^j c[i][j][k] and ad(u)[k][j] = u^i c[i][j][k], summed
    # index by index, on random 3D tables and a 6D direct sum
    rng = np.random.default_rng(11)
    tables = []
    for _ in range(6):
        c = rng.normal(size=(3, 3, 3))
        tables.append(0.5 * (c - np.swapaxes(c, 0, 1)))
    tables.append(direct_sum_components(tables[0], tables[1]))
    for c in tables:
        n = len(c)
        for u, v in rng.normal(size=(4, 2, n)):
            ad = [[sum(u[i] * c[i, j, k] for i in range(n)) for j in range(n)] for k in range(n)]
            br = [sum(u[i] * v[j] * c[i, j, k] for i in range(n) for j in range(n))
                  for k in range(n)]
            assert ad_components(u, c).shape == (n, n)
            assert np.allclose(ad_components(u, c), ad, rtol=0, atol=1e-12)
            assert np.allclose(bracket(c, u, v), br, rtol=0, atol=1e-12)
            assert np.allclose(bracket(c, u, v), -bracket(c, v, u), rtol=0, atol=1e-12)


def test_g3_brackets_match_table():
    sc = make_family(FamilySpec("g3", {"a": 1, "b": 1, "c": 1}))
    e = np.eye(3)
    assert np.allclose(bracket(sc, e[1], e[2]), [-1, 0, 0])
    assert np.allclose(bracket(sc, e[1], e[0]), [0, 0, -1])
    assert np.allclose(bracket(sc, e[2], e[0]), [0, 1, 0])


def test_g2_constraint_violation():
    with pytest.raises(ConstraintViolation, match="c != 0"):
        make_family(FamilySpec("g2", {"a": 0, "b": 0, "c": 0}))
    # the bracket table only satisfies Jacobi when a c = 0
    with pytest.raises(ConstraintViolation, match="Jacobi"):
        make_family(FamilySpec("g2", {"a": 1, "b": 0, "c": 1}))


def test_g5_constraints():
    sc = make_family(FamilySpec("g5", {"a": 1, "b": 0, "c": 0, "d": 1}))
    assert jacobi_defect(sc) == 0.0
    with pytest.raises(ConstraintViolation, match="a c \\+ b d"):
        make_family(FamilySpec("g5", {"a": 1, "b": 1, "c": 1, "d": 1}))
    with pytest.raises(ConstraintViolation, match="a \\+ d"):
        make_family(FamilySpec("g5", {"a": 1, "b": 0, "c": 0, "d": -1}))


def test_all_families_satisfy_jacobi():
    rng = np.random.default_rng(11)
    from epscontact.oracle import LORENTZ_FAMILIES, sample_spec

    for fam in LORENTZ_FAMILIES:
        for _ in range(25):
            sc = make_family(sample_spec(fam, rng))
            assert jacobi_defect(sc) < 1e-13
    riem = make_family(
        FamilySpec("riemannian_unimodular", {"mu1": 1.3, "mu2": -0.4, "mu3": 2.0})
    )
    assert jacobi_defect(riem) == 0.0
    nonuni = make_family(
        FamilySpec("riemannian_nonunimodular", {"a": 1.5, "b": 0.2, "c": -0.3, "f": 0.5})
    )
    assert jacobi_defect(nonuni) == 0.0


def group_of(family, tol=None, **params):
    return group_names(make_family(FamilySpec(family, params), tol), tol)


def test_identify_group_examples():
    assert group_of("g3", a=1, b=2, c=-1) is GroupName.SU2
    assert group_of("g1", a=1, b=0) is GroupName.E11_COVER
    assert group_of("g1", a=1, b=2) is GroupName.SL2R_COVER
    assert group_of("g3", a=0, b=0, c=0) is GroupName.R3
    assert group_of("g3", a=1, b=1, c=1) is GroupName.SL2R_COVER
    # sign-orbit normalization: all-negative parameters match the all-positive row
    assert group_of("g3", a=-1, b=-1, c=-1) is GroupName.SL2R_COVER
    assert group_of("g3", a=-1, b=0, c=-1) is GroupName.E11_COVER
    assert group_of("g5", a=1, b=0, c=0, d=1) is GroupName.NON_UNIMODULAR


def test_identify_group_g4_total():
    for mu in (-1.0, 1.0):
        assert group_of("g4", a=1, b=0, mu=mu) is GroupName.SL2R_COVER
        assert group_of("g4", a=0, b=0, mu=mu) is GroupName.E11_COVER
        assert group_of("g4", a=0, b=mu, mu=mu) is GroupName.H3
        assert group_of("g4", a=mu, b=mu, mu=mu) is GroupName.E2_COVER
        assert group_of("g4", a=-mu, b=mu, mu=mu) is GroupName.E11_COVER


def test_identify_group_riemannian():
    def uni(m1, m2, m3):
        return group_of("riemannian_unimodular", mu1=m1, mu2=m2, mu3=m3)

    assert uni(1, 1, 1) is GroupName.SU2
    assert uni(-1, -1, -1) is GroupName.SU2
    assert uni(1, 1, -1) is GroupName.SL2R_COVER
    assert uni(1, 0, 1) is GroupName.E2_COVER
    assert uni(1, -1, 0) is GroupName.E11_COVER
    assert uni(1, 0, 0) is GroupName.H3
    assert uni(0, 0, 0) is GroupName.R3


def test_group_names_stacked():
    c = np.stack([make_family(FamilySpec("riemannian_unimodular", {"mu1": 1, "mu2": 1, "mu3": m}))
                  for m in (1.0, -1.0, 0.0, 2.0, -0.5, 0.0)]).reshape(2, 3, 3, 3, 3)
    c[1, 2] = 0.0
    assert group_names(c).tolist() == [
        [GroupName.SU2, GroupName.SL2R_COVER, GroupName.E2_COVER],
        [GroupName.SU2, GroupName.SL2R_COVER, GroupName.R3]]
    assert group_names(c[:0]).shape == (0, 3)
    assert group_names(c[0, 0]) is GroupName.SU2  # one table, one name


@pytest.mark.parametrize("p9, match", [
    ((0.0, 0.0, np.inf, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), "finite"),
    ((0.0, 0.0, np.nan, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), "finite"),
    # type V at 1e308: tr ad(e0) = 2e308 overflows
    ((0.0, 1e308, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e308), "overflow"),
    # n with entries 1.5e308 and an eigenvalue beyond the largest float
    (np.array([0, 1, 1, 1, 1, 0, -1, 1, -1]) * 1.5e308, "overflow"),
])
def test_group_names_non_finite_invariants_raise(p9, match):
    with pytest.raises(ConstraintViolation, match=match):
        group_names(from_nine_params(p9))


def test_group_names_near_degenerate_g1():
    # g1 has n = [[-b, a, 0], [a, b, a], [0, a, b]] and det n = -b^3: at a = 1
    # its smallest eigenvalue is about b^3 / 2, and the cut is tol times the
    # largest, about sqrt(2). So b = 1e-4 is SL(2,R) at tol 1e-13 and within
    # the cut of E(1,1) at tol 1e-9, where a per-family rule on |b| > tol
    # would say SL(2,R)
    c = make_family(FamilySpec("g1", {"a": 1.0, "b": 1e-4}))
    assert np.linalg.det(c[[1, 2, 0], [2, 0, 1]]) == pytest.approx(-1e-12, rel=1e-9)
    assert group_names(c, 1e-9) is GroupName.E11_COVER
    assert group_names(c, 1e-13) is GroupName.SL2R_COVER
    assert group_of("g1", 1e-13, a=1.0, b=1e-4) is GroupName.SL2R_COVER
    assert group_of("g1", 1e-9, a=1.0, b=1e-2) is GroupName.SL2R_COVER


def test_direct_sum_block_structure():
    g3 = make_family(FamilySpec("g3", {"a": 1, "b": 1, "c": 1}))
    su2 = make_family(FamilySpec("riemannian_unimodular", {"mu1": 1, "mu2": 1, "mu3": 1}))
    both = direct_sum_components(g3, su2)
    assert both.shape == (6, 6, 6)
    e, e3 = np.eye(6), np.eye(3)
    assert np.allclose(bracket(both, e[1], e[4]), np.zeros(6))
    assert np.allclose(bracket(both, e[1], e[2])[:3], bracket(g3, e3[1], e3[2]))
    assert np.allclose(bracket(both, e[4], e[5])[3:], bracket(su2, e3[1], e3[2]))
    assert jacobi_defect(both) == 0.0
    zero = np.zeros((3, 3, 3))
    assert jacobi_defect(direct_sum_components(zero, zero)) == 0.0


def test_nine_params_roundtrip():
    rng = np.random.default_rng(3)
    p9 = tuple(rng.normal(size=9))
    assert np.allclose(nine_params(from_nine_params(p9)), p9)


def test_antisymmetry_enforced():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0  # missing the (1,0) counterpart
    with pytest.raises(ValueError, match="antisymmetric"):
        check_contact(c, FrameMetric.lorentzian(3), 1, [1.0, 0.0, 0.0])


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_metric(family):
    expected = (1, 1, 1) if family.startswith("riemannian") else (-1, 1, 1)
    assert FAMILIES[family].metric.signs == expected


def test_family_metric_unknown_family():
    with pytest.raises(ConstraintViolation, match="unknown family"):
        FAMILIES["riemannian_g9"]


def test_family_spec_rejects_non_finite_parameters():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ConstraintViolation, match="finite"):
            FamilySpec("g3", {"a": 1.0, "b": bad, "c": 1.0})


# sha256 over every family's sample stream at four grids: each sample (keys in
# order, values as float.hex), then its make_family table bytes (signed zeros
# included) or its ConstraintViolation text; at 21 points on [-1e6, 1e6] g5
# and g6 each reject 336 samples whose solved constraint rounds off
FAMILY_STREAM_SHA256 = "f3e3da30128c2c2434d948e58048c46845973cd22486c24dcb5cacf34bd575c5"
STREAM_FAMILIES = ("g1", "g2", "g3", "g4", "g5", "g6", "g7",
                   "riemannian_unimodular", "riemannian_nonunimodular")
STREAM_GRIDS = ((3, -3.0, 3.0), (13, -3.0, 3.0), (21, -3.0, 3.0), (21, -1e6, 1e6))


def test_family_stream_fingerprint():
    from epscontact.einstein import default_grid, family_samples

    digest = hashlib.sha256()
    rejected = {}
    for family in STREAM_FAMILIES:
        for points, lo, hi in STREAM_GRIDS:
            for params in family_samples(family, default_grid(points, lo, hi), 1e-9):
                digest.update(repr([(k, float(v).hex()) for k, v in params.items()]).encode())
                try:
                    digest.update(make_family(FamilySpec(family, params), tol=1e-9).tobytes())
                except ConstraintViolation as exc:
                    rejected[family, lo] = rejected.get((family, lo), 0) + 1
                    digest.update(str(exc).encode())
    assert rejected == {("g5", -1e6): 336, ("g6", -1e6): 336}
    assert digest.hexdigest() == FAMILY_STREAM_SHA256


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_tables_match_make_family(family):
    """The batched tables equal make_family's read-only (3, 3, 3) arrays bit
    for bit, and so do the nine parameters read off them; the mask marks
    exactly the samples FamilySpec or make_family rejects."""
    from epscontact.einstein import default_grid, family_samples
    from epscontact.liealg import family_tables

    rng = np.random.default_rng(5)
    samples = list(family_samples(family, default_grid(7, -1e6, 1e6), 1e-9))
    names = FAMILIES[family].params
    # perturbed copies break the constraints; non-finite ones must be masked
    samples += [{k: v * (1 + rng.normal()) for k, v in p.items()} for p in samples[::5]]
    samples += [dict(samples[0], **{names[-1]: bad}) for bad in (np.nan, np.inf)]
    c, ok = family_tables(family, {k: [p[k] for p in samples] for k in names}, tol=1e-9)
    assert c.shape == (len(samples), 3, 3, 3)
    for n, params in enumerate(samples):
        try:
            want = make_family(FamilySpec(family, params), tol=1e-9)
        except ConstraintViolation:
            assert not ok[n], params
            continue
        assert ok[n] and c[n].tobytes() == want.tobytes(), params
        assert want.shape == (3, 3, 3) and not want.flags.writeable
        assert np.array(nine_params(want)).tobytes() == np.array(nine_params(c[n])).tobytes()
    assert not ok.all() and ok.any()


def test_families_derive_the_family_api():
    from epscontact.oracle import LORENTZ_FAMILIES

    assert LORENTZ_FAMILIES == ("g1", "g2", "g3", "g4", "g5", "g6", "g7")
    for family_id, fam in FAMILIES.items():
        for sheet in fam.sheets:  # every sheet point completes to the full parameter set
            point = {k: 0.5 if v is None else v[0] for k, v in sheet.axes.items()}
            assert set(point) | set(sheet.solve(**point)) == set(fam.params)

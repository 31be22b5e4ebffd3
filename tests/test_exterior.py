import math

import numpy as np
import pytest

from epscontact.errors import DegreeMismatch, DegreeOverflow
from epscontact.exterior import (
    Form,
    FrameMetric,
    basis_one_form,
    d_components,
    flat,
    hodge,
    hodge_components,
    index_tuples,
    interior_components,
    interior_product,
    mc_differential,
    one_form,
    pairing_full,
    sharp,
    sort_sign,
    tuple_positions,
    volume_form,
    wedge,
)
from epscontact.liealg import FamilySpec, StructureConstants, direct_sum, make_family
from epscontact.oracle import LORENTZ_FAMILIES, sample_spec

L3 = FrameMetric.lorentzian(3)
R3 = FrameMetric.riemannian(3)
L6 = FrameMetric((-1, 1, 1, 1, 1, 1))


def random_form(rng, degree, dim):
    return Form(degree, dim, rng.normal(size=math.comb(dim, degree)))


def test_wedge_basis():
    e0, e1 = basis_one_form(0, 3), basis_one_form(1, 3)
    w = wedge(e0, e1)
    assert w.value((0, 1)) == 1.0
    assert wedge(e0, w).max_abs() == 0.0  # repeated factor
    e12 = Form.from_components(2, 3, {(1, 2): 1.0})
    res = wedge(e12, e0)
    assert res.value((0, 1, 2)) == 1.0  # even permutation


def test_wedge_overflow_and_mismatch():
    with pytest.raises(DegreeOverflow):
        wedge(Form.from_components(2, 3, {(0, 1): 1.0}), Form.from_components(2, 3, {(1, 2): 1.0}))
    with pytest.raises(DegreeMismatch):
        pairing_full(basis_one_form(0, 3), Form.from_components(2, 3, {(0, 1): 1.0}), L3)


def test_wedge_graded_commutativity():
    rng = np.random.default_rng(0)
    for p, q in ((1, 1), (1, 2), (2, 1), (2, 3), (3, 3)):
        a, b = random_form(rng, p, 6), random_form(rng, q, 6)
        left = wedge(a, b)
        right = (-1.0) ** (p * q) * wedge(b, a)
        assert np.allclose(left.comps, right.comps)


def test_wedge_associative():
    rng = np.random.default_rng(1)
    a, b, c = (random_form(rng, k, 6) for k in (1, 2, 1))
    assert np.allclose(wedge(wedge(a, b), c).comps, wedge(a, wedge(b, c)).comps)


def test_hodge_lorentzian_3d():
    assert np.allclose(hodge(basis_one_form(0, 3), L3, 1).comps, [0, 0, -1])  # -e1^e2
    assert np.allclose(hodge(basis_one_form(1, 3), L3, 1).comps, [0, -1, 0])  # -e0^e2
    assert np.allclose(hodge(basis_one_form(2, 3), L3, 1).comps, [1, 0, 0])  # +e0^e1


def test_hodge_riemannian_3d():
    # Euclidean duality: *e^0 = e^1 ^ e^2 and cyclic
    assert np.allclose(hodge(basis_one_form(0, 3), R3, 1).comps, [0, 0, 1])
    assert np.allclose(hodge(basis_one_form(1, 3), R3, 1).comps, [0, -1, 0])
    assert np.allclose(hodge(basis_one_form(2, 3), R3, 1).comps, [1, 0, 0])


def test_hodge_orientation_flip():
    rng = np.random.default_rng(2)
    for k in range(4):
        w = random_form(rng, k, 3)
        assert np.allclose(hodge(w, L3, -1).comps, -hodge(w, L3, 1).comps)


def test_hodge_squares_to_identity_on_6d_three_forms():
    rng = np.random.default_rng(3)
    for _ in range(5):
        w = random_form(rng, 3, 6)
        again = hodge(hodge(w, L6, 1), L6, 1)
        assert np.allclose(again.comps, w.comps)


def test_hodge_involution_signs_3d():
    rng = np.random.default_rng(4)
    # Lorentzian 3D: ** = -(-1)^{k(3-k)} = -1 on degrees 1, 2; +... on 0 and 3 it is -1 too
    for k, sign in ((0, -1), (1, -1), (2, -1), (3, -1)):
        w = random_form(rng, k, 3)
        assert np.allclose(hodge(hodge(w, L3, 1), L3, 1).comps, sign * w.comps)
    for k in range(4):  # Riemannian 3D: ** = +1 in every degree
        w = random_form(rng, k, 3)
        assert np.allclose(hodge(hodge(w, R3, 1), R3, 1).comps, w.comps)


def test_hodge_product_rule_on_split_frame():
    # *(rho ^ sigma) = (-1)^{r(3-q)} *_L rho ^ *_R sigma for factor forms
    from epscontact.product6d import embed_form

    rng = np.random.default_rng(5)
    for q in range(4):
        for r in range(4 - 0):
            if q + r > 6 or r > 3:
                continue
            rho3 = random_form(rng, q, 3)
            sig3 = random_form(rng, r, 3)
            rho = embed_form(rho3, 6, 0)
            sig = embed_form(sig3, 6, 3)
            left = hodge(wedge(rho, sig), L6, 1)
            right = (-1.0) ** (r * (3 - q)) * wedge(
                embed_form(hodge(rho3, L3, 1), 6, 0),
                embed_form(hodge(sig3, R3, 1), 6, 3),
            )
            assert np.allclose(left.comps, right.comps), (q, r)


def test_hodge_product_rule_mixed_orientations():
    # with factor orientations (o_L, o_R) and the product orientation o_L o_R,
    # the split rule still holds (used by the product-solution co-closure path)
    from epscontact.product6d import embed_form

    rng = np.random.default_rng(11)
    for o_l in (1, -1):
        for o_r in (1, -1):
            rho3 = random_form(rng, 1, 3)
            sig3 = random_form(rng, 2, 3)
            left = hodge(
                wedge(embed_form(rho3, 6, 0), embed_form(sig3, 6, 3)), L6, o_l * o_r
            )
            right = (-1.0) ** (2 * (3 - 1)) * wedge(
                embed_form(hodge(rho3, L3, o_l), 6, 0),
                embed_form(hodge(sig3, R3, o_r), 6, 3),
            )
            assert np.allclose(left.comps, right.comps)


def test_mc_differential_examples():
    g3 = make_family(FamilySpec("g3", {"a": 1, "b": 1, "c": 1}))
    de0 = mc_differential(basis_one_form(0, 3), g3)
    assert np.allclose(de0.comps, [0, 0, 1])  # e1 ^ e2
    de2 = mc_differential(basis_one_form(2, 3), g3)
    assert np.allclose(de2.comps, [-1, 0, 0])  # -e0 ^ e1
    from epscontact.liealg import zero_algebra

    for k in range(3):
        w = Form(1, 3, np.ones(3))
        assert mc_differential(w, zero_algebra(3)).max_abs() == 0.0


def test_d_squared_zero_over_family_samples():
    rng = np.random.default_rng(6)
    for fam in LORENTZ_FAMILIES:
        for _ in range(10):
            sc = make_family(sample_spec(fam, rng))
            for degree in (0, 1):
                w = random_form(rng, degree, 3)
                dd = mc_differential(mc_differential(w, sc), sc)
                assert dd.max_abs() < 1e-13


def test_d_squared_zero_on_6d_products():
    from epscontact.liealg import direct_sum

    rng = np.random.default_rng(7)
    g3 = make_family(FamilySpec("g3", {"a": 1, "b": 1, "c": 1}))
    su2 = make_family(FamilySpec("riemannian_unimodular", {"mu1": 1, "mu2": 1, "mu3": 1}))
    sc6 = direct_sum(g3, su2)
    for degree in (1, 2, 3):
        w = random_form(rng, degree, 6)
        assert mc_differential(mc_differential(w, sc6), sc6).max_abs() < 1e-13


def test_pairing_values():
    assert pairing_full(volume_form(L3, 1), volume_form(L3, 1), L3) == -6.0
    assert pairing_full(volume_form(R3, 1), volume_form(R3, 1), R3) == 6.0
    e0 = basis_one_form(0, 3)
    assert pairing_full(e0, e0, L3) == -1.0


def test_sharp_flat():
    al = one_form([2.0, -1.0, 3.0])
    xi = sharp(al, L3)
    assert np.allclose(xi, [-2.0, -1.0, 3.0])
    assert np.allclose(flat(xi, L3).comps, al.comps)
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = one_form(rng.normal(size=3))
        assert np.allclose(flat(sharp(a, L3), L3).comps, a.comps)


def test_interior_product():
    e01 = Form.from_components(2, 3, {(0, 1): 1.0})
    e = np.eye(3)
    assert np.allclose(interior_product(e[0], e01).comps, [0, 1, 0])  # e^1
    assert np.allclose(interior_product(e[2], e01).comps, [0, 0, 0])
    rng = np.random.default_rng(9)
    for _ in range(10):
        v = rng.normal(size=3)
        w = random_form(rng, 2, 3)
        assert interior_product(v, interior_product(v, w)).max_abs() < 1e-14


def test_form_json_roundtrip():
    rng = np.random.default_rng(10)
    w = random_form(rng, 2, 6)
    back = Form.from_json(w.to_json())
    assert back.degree == 2 and back.dim == 6
    assert np.allclose(back.comps, w.comps)


def test_form_antisymmetric_entry_handling():
    w = Form.from_components(2, 3, {(1, 0): 2.0})
    assert w.value((0, 1)) == -2.0
    assert w.value((1, 0)) == 2.0
    assert w.value((1, 1)) == 0.0


# --- bit-exactness of the table-driven operators -------------------------------
#
# The reference implementations below are the per-tuple loops the operators
# are defined by. The tables must reproduce them bit for bit, signed zeros
# included, because reports print last-bit residuals and the SVD of the
# contact map picks its singular-vector signs from signed zeros.


def ref_value(comps, n, k, indices):
    sign, key = sort_sign(tuple(indices))
    if sign == 0:
        return 0.0
    return sign * float(comps[tuple_positions(n, k)[key]])


def ref_hodge(comps, signs, k, o):
    n = len(signs)
    out = np.zeros(math.comb(n, n - k))
    pos = tuple_positions(n, n - k)
    for t, val in zip(index_tuples(n, k), comps):
        if val == 0.0:
            continue
        comp = tuple(i for i in range(n) if i not in t)
        sign, _ = sort_sign(t + comp)
        eta_i = 1
        for i in t:
            eta_i *= signs[i]
        out[pos[comp]] += o * eta_i * sign * val
    return out


def ref_d(comps, c, k):
    n = c.shape[0]
    out = np.zeros(math.comb(n, k + 1))
    for p_out, t in enumerate(index_tuples(n, k + 1)):
        acc = 0.0
        for p in range(k + 1):
            for q in range(p + 1, k + 1):
                rest = t[:p] + t[p + 1:q] + t[q + 1:]
                coeffs = c[t[p], t[q]]
                for l in range(n):
                    if coeffs[l] != 0.0:
                        acc += (-1) ** (p + q) * coeffs[l] * ref_value(comps, n, k, (l,) + rest)
        out[p_out] = acc
    return out


def ref_wedge(a, b, n, ka, kb):
    out = np.zeros(math.comb(n, ka + kb))
    pos = tuple_positions(n, ka + kb)
    for ta, va in zip(index_tuples(n, ka), a):
        if va == 0.0:
            continue
        for tb, vb in zip(index_tuples(n, kb), b):
            if vb == 0.0:
                continue
            sign, key = sort_sign(ta + tb)
            if sign:
                out[pos[key]] += sign * va * vb
    return out


def ref_interior(v, comps, n, k):
    out = np.zeros(math.comb(n, k - 1))
    for p_out, t in enumerate(index_tuples(n, k - 1)):
        out[p_out] = sum(
            v[i] * ref_value(comps, n, k, (i,) + t) for i in range(n) if v[i] != 0.0
        )
    return out


def assert_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    finite = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[finite]), np.signbit(want[finite]))


def sparse_components(rng, size, special=False):
    """Random components with +0.0 and -0.0 entries (and inf/nan if asked)."""
    v = rng.normal(size=size)
    v[rng.random(size) < 0.3] = 0.0
    v[rng.random(size) < 0.2] = -0.0
    if special:
        v[rng.random(size) < 0.15] = np.inf
        v[rng.random(size) < 0.1] = np.nan
    return v


def bracket_tables(rng):
    """make_family tables of every family (they carry -0.0 entries), and
    dense random antisymmetric tables."""
    tables = []
    for fam in LORENTZ_FAMILIES:
        for _ in range(3):
            tables.append(make_family(sample_spec(fam, rng)).c)
    tables.append(make_family(FamilySpec("g3", {"a": 1.0, "b": 0.0, "c": -2.0})).c)
    tables.append(make_family(
        FamilySpec("riemannian_unimodular", {"mu1": 1.0, "mu2": 0.0, "mu3": -1.0})).c)
    for _ in range(3):
        c = rng.normal(size=(3, 3, 3))
        tables.append(c - c.swapaxes(0, 1))
    return tables


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf, 0 * inf
@pytest.mark.parametrize("special", [False, True])
def test_tables_match_loops_3d_every_degree(special):
    rng = np.random.default_rng(20)
    tables = bracket_tables(rng)
    assert any(np.signbit(c[c == 0.0]).any() for c in tables)  # -0.0 entries present
    for k in range(4):
        for _ in range(4):
            w = sparse_components(rng, math.comb(3, k), special)
            for signs in (L3.signs, R3.signs):
                for o in (1, -1):
                    assert_bits(hodge_components(w, signs, k, o), ref_hodge(w, signs, k, o))
            for c in tables:
                assert_bits(d_components(w, c, k), ref_d(w, c, k))
            if k >= 1:
                for v in (np.eye(3)[1], sparse_components(rng, 3, special)):
                    assert_bits(interior_components(v, w, k), ref_interior(v, w, 3, k))
            for kb in range(4 - k):
                u = sparse_components(rng, math.comb(3, kb), special)
                got = wedge(Form(k, 3, w), Form(kb, 3, u)).comps
                assert_bits(got, ref_wedge(w, u, 3, k, kb))


def test_tables_match_loops_6d_degrees_2_and_3():
    rng = np.random.default_rng(21)
    tables3 = bracket_tables(rng)
    tables6 = [
        direct_sum(StructureConstants(a), StructureConstants(b)).c
        for a, b in zip(tables3[::2], tables3[1::2])
    ]
    c = rng.normal(size=(6, 6, 6))
    tables6.append(c - c.swapaxes(0, 1))
    for k in (2, 3):
        for _ in range(4):
            w = sparse_components(rng, math.comb(6, k))
            for o in (1, -1):
                assert_bits(hodge_components(w, L6.signs, k, o), ref_hodge(w, L6.signs, k, o))
            for c in tables6:
                assert_bits(d_components(w, c, k), ref_d(w, c, k))
            v = sparse_components(rng, 6)
            assert_bits(interior_components(v, w, k), ref_interior(v, w, 6, k))
            for kb in range(1, 7 - k):
                u = sparse_components(rng, math.comb(6, kb))
                got = wedge(Form(k, 6, w), Form(kb, 6, u)).comps
                assert_bits(got, ref_wedge(w, u, 6, k, kb))


def test_stacked_components_match_single_calls():
    rng = np.random.default_rng(22)
    c = np.stack(bracket_tables(rng))
    w = np.stack([sparse_components(rng, 3) for _ in c])
    stacked = d_components(w, c, 1)
    star = hodge_components(w, L3.signs, 1, -1)
    for n in range(len(c)):
        assert_bits(stacked[n], d_components(w[n], c[n], 1))
        assert_bits(star[n], hodge_components(w[n], L3.signs, 1, -1))

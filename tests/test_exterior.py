import itertools
import math

import numpy as np
import pytest

from frames import embed_components, interior_components, wedge_components
from epscontact.exterior import (
    FrameMetric,
    antisymmetric_array,
    d_components,
    hodge_components,
    index_tuples,
    pairing_components,
    sort_sign,
    tuple_positions,
)
from epscontact.liealg import FamilySpec, direct_sum_components, make_family
from epscontact.oracle import LORENTZ_FAMILIES, sample_spec

L3 = FrameMetric.lorentzian(3)
R3 = FrameMetric.riemannian(3)
L6 = FrameMetric((-1, 1, 1, 1, 1, 1))
E = list(np.eye(3))  # the basis one-forms e^0, e^1, e^2


def random_form(rng, degree, dim):
    return rng.normal(size=math.comb(dim, degree))


def test_wedge_basis():
    w = wedge_components(E[0], E[1], 3, 1, 1)
    assert ref_value(w, 3, 2, (0, 1)) == 1.0
    assert not wedge_components(E[0], w, 3, 1, 2).any()  # repeated factor
    e12 = np.array([0.0, 0.0, 1.0])  # over the tuples (0, 1), (0, 2), (1, 2)
    res = wedge_components(e12, E[0], 3, 2, 1)
    assert ref_value(res, 3, 3, (0, 1, 2)) == 1.0  # even permutation


def test_wedge_past_top_degree_is_the_zero_space():
    e01, e12 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
    assert wedge_components(e01, e12, 3, 2, 2).shape == (0,)


def test_wedge_graded_commutativity():
    rng = np.random.default_rng(0)
    for p, q in ((1, 1), (1, 2), (2, 1), (2, 3), (3, 3)):
        a, b = random_form(rng, p, 6), random_form(rng, q, 6)
        left = wedge_components(a, b, 6, p, q)
        right = (-1.0) ** (p * q) * wedge_components(b, a, 6, q, p)
        assert np.allclose(left, right)


def test_wedge_associative():
    rng = np.random.default_rng(1)
    a, b, c = (random_form(rng, k, 6) for k in (1, 2, 1))
    left = wedge_components(wedge_components(a, b, 6, 1, 2), c, 6, 3, 1)
    right = wedge_components(a, wedge_components(b, c, 6, 2, 1), 6, 1, 3)
    assert np.allclose(left, right)


def test_hodge_lorentzian_3d():
    assert np.allclose(hodge_components(E[0], L3.signs, 1, 1), [0, 0, -1])  # -e1^e2
    assert np.allclose(hodge_components(E[1], L3.signs, 1, 1), [0, -1, 0])  # -e0^e2
    assert np.allclose(hodge_components(E[2], L3.signs, 1, 1), [1, 0, 0])  # +e0^e1


def test_hodge_riemannian_3d():
    # Euclidean duality: *e^0 = e^1 ^ e^2 and cyclic
    assert np.allclose(hodge_components(E[0], R3.signs, 1, 1), [0, 0, 1])
    assert np.allclose(hodge_components(E[1], R3.signs, 1, 1), [0, -1, 0])
    assert np.allclose(hodge_components(E[2], R3.signs, 1, 1), [1, 0, 0])


def test_hodge_orientation_flip():
    rng = np.random.default_rng(2)
    for k in range(4):
        w = random_form(rng, k, 3)
        assert np.allclose(hodge_components(w, L3.signs, k, -1),
                           -hodge_components(w, L3.signs, k, 1))


def test_hodge_squares_to_identity_on_6d_three_forms():
    rng = np.random.default_rng(3)
    for _ in range(5):
        w = random_form(rng, 3, 6)
        again = hodge_components(hodge_components(w, L6.signs, 3, 1), L6.signs, 3, 1)
        assert np.allclose(again, w)


def test_hodge_involution_signs_3d():
    rng = np.random.default_rng(4)
    # Lorentzian 3D: ** = -(-1)^{k(3-k)} = -1 on degrees 1, 2; +... on 0 and 3 it is -1 too
    for k, sign in ((0, -1), (1, -1), (2, -1), (3, -1)):
        w = random_form(rng, k, 3)
        twice = hodge_components(hodge_components(w, L3.signs, k, 1), L3.signs, 3 - k, 1)
        assert np.allclose(twice, sign * w)
    for k in range(4):  # Riemannian 3D: ** = +1 in every degree
        w = random_form(rng, k, 3)
        twice = hodge_components(hodge_components(w, R3.signs, k, 1), R3.signs, 3 - k, 1)
        assert np.allclose(twice, w)


def split_hodge_sides(rho3, q, sig3, r, o_l, o_r):
    """*(rho ^ sigma) on the 6D frame, with rho on the Lorentzian factor and
    sigma on the Riemannian one, and *_L rho ^ *_R sigma."""
    rho, sig = embed_components(rho3, q, 0), embed_components(sig3, r, 3)
    left = hodge_components(wedge_components(rho, sig, 6, q, r), L6.signs, q + r, o_l * o_r)
    right = wedge_components(
        embed_components(hodge_components(rho3, L3.signs, q, o_l), 3 - q, 0),
        embed_components(hodge_components(sig3, R3.signs, r, o_r), 3 - r, 3),
        6, 3 - q, 3 - r,
    )
    return left, right


def test_hodge_product_rule_on_split_frame():
    # *(rho ^ sigma) = (-1)^{r(3-q)} *_L rho ^ *_R sigma for factor forms
    rng = np.random.default_rng(5)
    for q in range(4):
        for r in range(4):
            left, right = split_hodge_sides(random_form(rng, q, 3), q, random_form(rng, r, 3), r,
                                            1, 1)
            assert np.allclose(left, (-1.0) ** (r * (3 - q)) * right), (q, r)


def test_hodge_product_rule_mixed_orientations():
    # with factor orientations (o_L, o_R) and the product orientation o_L o_R,
    # the split rule still holds (used by the product-solution co-closure path)
    rng = np.random.default_rng(11)
    for o_l in (1, -1):
        for o_r in (1, -1):
            left, right = split_hodge_sides(random_form(rng, 1, 3), 1, random_form(rng, 2, 3), 2,
                                            o_l, o_r)
            assert np.allclose(left, (-1.0) ** (2 * (3 - 1)) * right)


def test_mc_differential_examples():
    g3 = make_family(FamilySpec("g3", {"a": 1, "b": 1, "c": 1}))
    assert np.allclose(d_components(E[0], g3, 1), [0, 0, 1])  # e1 ^ e2
    assert np.allclose(d_components(E[2], g3, 1), [-1, 0, 0])  # -e0 ^ e1
    assert not d_components(np.ones(3), np.zeros((3, 3, 3)), 1).any()


def test_d_squared_zero_over_family_samples():
    rng = np.random.default_rng(6)
    for fam in LORENTZ_FAMILIES:
        for _ in range(10):
            c = make_family(sample_spec(fam, rng))
            for degree in (0, 1):
                w = random_form(rng, degree, 3)
                dd = d_components(d_components(w, c, degree), c, degree + 1)
                assert np.max(np.abs(dd), initial=0.0) < 1e-13


def test_d_squared_zero_on_6d_products():
    rng = np.random.default_rng(7)
    g3 = make_family(FamilySpec("g3", {"a": 1, "b": 1, "c": 1}))
    su2 = make_family(FamilySpec("riemannian_unimodular", {"mu1": 1, "mu2": 1, "mu3": 1}))
    c6 = direct_sum_components(g3, su2)
    for degree in (1, 2, 3):
        w = random_form(rng, degree, 6)
        assert np.max(np.abs(d_components(d_components(w, c6, degree), c6, degree + 1))) < 1e-13


def test_pairing_values():
    # sum_I a_I b_I prod_{i in I} eta_i over the sorted tuples I
    vol = np.array([1.0])
    assert pairing_components(vol, vol, L3.signs, 3) == -1.0
    assert pairing_components(vol, vol, R3.signs, 3) == 1.0
    assert pairing_components(E[0], E[0], L3.signs, 1) == -1.0
    assert pairing_components(E[1], E[0] + E[1], L3.signs, 1) == 1.0


def test_interior_product():
    e01 = np.array([1.0, 0.0, 0.0])
    e = np.eye(3)
    assert np.allclose(interior_components(e[0], e01, 2), [0, 1, 0])  # e^1
    assert np.allclose(interior_components(e[2], e01, 2), [0, 0, 0])
    rng = np.random.default_rng(9)
    for _ in range(10):
        v = rng.normal(size=3)
        w = random_form(rng, 2, 3)
        assert abs(interior_components(v, interior_components(v, w, 2), 1)) < 1e-14


def test_form_antisymmetric_entry_handling():
    w = np.array([-2.0, 0.0, 0.0])  # -2 e^0 ^ e^1, that is 2 e^1 ^ e^0
    arr = antisymmetric_array(w, 3, 2)
    assert arr[0, 1] == ref_value(w, 3, 2, (0, 1)) == -2.0
    assert arr[1, 0] == ref_value(w, 3, 2, (1, 0)) == 2.0
    assert arr[1, 1] == ref_value(w, 3, 2, (1, 1)) == 0.0


# --- bit-exactness of the table-driven operators -------------------------------
#
# sort_sign against the determinant of the permutation matrix that sorts a
# sequence, on every sequence of length 0-4 over range(6), repeats included.


def test_sort_sign_equals_permutation_parity():
    checked = 0
    for length in range(5):
        for seq in itertools.product(range(6), repeat=length):
            order = sorted(range(length), key=seq.__getitem__)
            parity = round(np.linalg.det(np.eye(length)[order])) if len(set(seq)) == length else 0
            assert sort_sign(seq) == (parity, tuple(sorted(seq))), seq
            assert sort_sign(list(seq)) == sort_sign(iter(seq)) == sort_sign(seq)
            checked += 1
    assert checked == 1 + 6 + 36 + 216 + 1296


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


def ref_array(comps, n, k):
    """The fully antisymmetric array, entry by entry over the permutations."""
    arr = np.zeros((n,) * k)
    for t, val in zip(index_tuples(n, k), comps):
        if val == 0.0:
            continue
        for perm in itertools.permutations(t):
            sign, _ = sort_sign(perm)
            arr[perm] = sign * val
    return arr


def ref_embed(comps, k, offset):
    """A 3D factor form lifted into the 6D frame through {index-tuple: value}
    entries, accumulated from +0.0."""
    entries = {}
    for t, val in zip(index_tuples(3, k), comps):
        if val != 0.0:
            entries[tuple(i + offset for i in t)] = float(val)
    out = np.zeros(math.comb(6, k))
    pos = tuple_positions(6, k)
    for idx, val in entries.items():
        sign, key = sort_sign(idx)
        out[pos[key]] += sign * val
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
            tables.append(make_family(sample_spec(fam, rng)))
    tables.append(make_family(FamilySpec("g3", {"a": 1.0, "b": 0.0, "c": -2.0})))
    tables.append(make_family(
        FamilySpec("riemannian_unimodular", {"mu1": 1.0, "mu2": 0.0, "mu3": -1.0})))
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
                assert_bits(wedge_components(w, u, 3, k, kb), ref_wedge(w, u, 3, k, kb))
            assert_bits(antisymmetric_array(w, 3, k), ref_array(w, 3, k))
            for offset in (0, 3):
                assert_bits(embed_components(w, k, offset), ref_embed(w, k, offset))


def test_tables_match_loops_6d_degrees_2_and_3():
    rng = np.random.default_rng(21)
    tables3 = bracket_tables(rng)
    tables6 = [direct_sum_components(a, b) for a, b in zip(tables3[::2], tables3[1::2])]
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
                assert_bits(wedge_components(w, u, 6, k, kb), ref_wedge(w, u, 6, k, kb))
            assert_bits(antisymmetric_array(w, 6, k), ref_array(w, 6, k))


def test_stacked_components_match_single_calls():
    rng = np.random.default_rng(22)
    c = np.stack(bracket_tables(rng))
    w = np.stack([sparse_components(rng, 3) for _ in c])
    stacked = d_components(w, c, 1)
    star = hodge_components(w, L3.signs, 1, -1)
    wedged = wedge_components(star, w, 3, 2, 1)
    arrays = antisymmetric_array(stacked, 3, 2)
    embedded = embed_components(star, 2, 3)
    for n in range(len(c)):
        assert_bits(stacked[n], d_components(w[n], c[n], 1))
        assert_bits(star[n], hodge_components(w[n], L3.signs, 1, -1))
        assert_bits(wedged[n], wedge_components(star[n], w[n], 3, 2, 1))
        assert_bits(arrays[n], antisymmetric_array(stacked[n], 3, 2))
        assert_bits(embedded[n], embed_components(star[n], 2, 3))

import gc
import sys

import numpy as np
import pytest

from epscontact import curvature
from epscontact.contact import (
    build_contact,
    characteristic_endo,
    check_contact,
    contact_frame,
    contact_identity_residuals,
    h_tensor,
    is_k_contact,
    is_sasakian,
    j_endo_matrix,
    k_contact_null_witness,
    l_endo,
    lie_derivative_metric,
    nijenhuis_J,
    timelike_special_frame,
)
from epscontact.einstein import fit_eta_einstein
from epscontact.errors import NotContact, WrongCausalType
from epscontact.exterior import FrameMetric
from epscontact.liealg import FamilySpec, family_metric, make_family, zero_algebra

L3 = FrameMetric.lorentzian(3)
R3 = FrameMetric.riemannian(3)


def g3(a, b, c):
    return make_family(FamilySpec("g3", {"a": a, "b": b, "c": c}))


def make_cs(sc, alpha, orientation=1, m=L3):
    return check_contact(sc, m, orientation, alpha)


def test_check_contact_epsilons():
    cs = make_cs(g3(1, 1, 1), [1, 0, 0])
    assert cs.epsilon == -1
    csn = make_cs(g3(1, 1, 1), [1, 1, 0])
    assert csn.epsilon == 0
    csp = make_cs(g3(1, 1, 1), [0, 1, 0])
    assert csp.epsilon == 1


def test_check_contact_rejects_flat():
    with pytest.raises(NotContact):
        make_cs(zero_algebra(3), [1, 0, 0])


def test_check_contact_rejects_non_unit_norm():
    # alpha = 2 e^0 solves the linear equation after scaling but has norm -4
    with pytest.raises(NotContact, match="alpha"):
        make_cs(g3(1, 1, 1), [2, 0, 0])


def test_check_contact_rejects_nan_component():
    with pytest.raises(NotContact, match=r"\*d\(alpha\)"):
        make_cs(g3(1, 1, 1), [float("nan"), 0, 0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # |alpha|^2 overflows on purpose
def test_check_contact_rejects_overflowing_norm():
    # alpha = *d(alpha) is linear, so it holds for 1e200 times a null contact
    # form; its norm overflows to inf - inf
    for alpha in ([1e200, 1e200, 0], [1e200, 0, 0]):
        with pytest.raises(NotContact, match="in {-1, 0, \\+1}"):
            make_cs(g3(1, 1, 1), alpha)


def test_stacked_check_contact_agrees_with_single_calls():
    from epscontact.contact import CONTACT_CONDITIONS

    inf, nan, r2 = float("inf"), float("nan"), 2.0 ** 0.5
    lor = g3(1, 1, 1)
    rie = make_family(FamilySpec("riemannian_unimodular", {"mu1": 1, "mu2": 0.5, "mu3": 0.5}))
    cases = {
        L3: [(lor, o, alpha) for o in (1, -1) for alpha in (
            [1, 0, 0], [1, 1, 0], [0, 1, 0], [2.0, 1.2, 1.6],   # epsilon -1, 0, +1, 0
            [0, 0, 0], [nan, 0, 0], [0, inf, 0], [-inf, inf, 0], [1e200, 1e200, 0],
            [0, r2, 0], [0, 1 / r2, 0], [r2, 0, 0],             # |alpha|^2 = 2, 0.5, -2
            [0.3, 0.1, 0.2],
        )],
        # +1 orientation fails alpha = *d(alpha); 1e-5 e^0 has |alpha|^2 ~ 0
        R3: [(rie, o, alpha) for o in (1, -1) for alpha in ([1, 0, 0], [1e-5, 0, 0], [0, 0, 0])],
    }
    seen = set()
    for m, rows in cases.items():
        stacked = check_contact(np.array([sc.c for sc, _, _ in rows]), m,
                                np.array([o for _, o, _ in rows]),
                                np.array([alpha for _, _, alpha in rows], dtype=float))
        failed, residuals = stacked.failed, stacked.residuals
        assert failed.shape == (len(rows),)
        for k, (sc, o, alpha) in enumerate(rows):
            try:
                cs = check_contact(sc, m, o, alpha)
            except NotContact as exc:
                j = failed[k]
                assert j >= 0 and not stacked.ok[k], (m, o, alpha)
                assert str(exc) == str(NotContact(CONTACT_CONDITIONS[j], float(residuals[j][k])))
                seen.add(CONTACT_CONDITIONS[j])
            else:
                assert failed[k] == -1 and stacked.ok[k], (m, o, alpha)
                assert stacked.eps[k] == cs.epsilon
                seen.add(cs.epsilon)
    assert seen == {-1, 0, 1, *CONTACT_CONDITIONS}


def test_orientation_must_be_a_sign():
    spec = FamilySpec("g3", {"a": 1.0, "b": 1.0, "c": 1.0})
    for orientation in (1.5, -1.5, 0, 2, float("nan")):
        with pytest.raises(ValueError, match="orientation"):
            build_contact(spec, (1.0, 0.0, 0.0), orientation)
    with pytest.raises(ValueError, match="orientation"):
        check_contact(np.stack([g3(1, 1, 1).c] * 2), L3, np.array([1, 0.5]),
                      np.array([[1.0, 0.0, 0.0]] * 2))
    assert build_contact(spec, (1.0, 0.0, 0.0), 1.0).orientation == 1


def test_characteristic_endo_null_matrix():
    # phi = [[0, a2, -a1], [a2, 0, a0], [-a1, -a0, 0]] on the frame
    for alpha in ([1.0, 1.0, 0.0], [2.0, 1.2, 1.6], [1.0, 0.6, -0.8]):
        cs = make_cs(g3(1, 1, 1), alpha)
        assert cs.epsilon == 0
        a0, a1, a2 = alpha
        expected = np.array([[0, a2, -a1], [a2, 0, a0], [-a1, -a0, 0]], dtype=float)
        assert np.allclose(characteristic_endo(cs), expected)


def test_phi_kills_reeb_and_nilpotency():
    cs = make_cs(g3(1, 1, 1), [1, 0.6, -0.8])
    phi = characteristic_endo(cs)
    assert np.max(np.abs(phi @ cs.xi)) < 1e-14
    assert np.max(np.abs(phi @ phi @ phi)) < 1e-14  # nilpotent in the null case


def test_identity_suite_all_causal_types():
    cases = [
        make_cs(g3(1, 1, 1), [1, 0, 0]),          # time-like
        make_cs(g3(1, 1, 1), [0, 1, 0]),          # space-like
        make_cs(g3(1, 1, 1), [1, 0.6, -0.8]),     # null
        make_cs(g3(2, 1, 1), [1, 0, 1]),          # null, non-Sasakian
        check_contact(
            make_family(FamilySpec("riemannian_unimodular", {"mu1": 1, "mu2": 1, "mu3": 1})),
            R3, -1, [1, 0, 0],
        ),
    ]
    for cs in cases:
        res = contact_identity_residuals(cs)
        worst = max(res.values())
        assert worst < 1e-9, (cs.epsilon, res)


def test_h_tensor_decomposition_and_mu():
    cs = make_cs(g3(1, 1, 1), [1, 1, 0])
    h, mu = h_tensor(cs)
    assert np.max(np.abs(h)) < 1e-14
    assert mu == 0.0
    cs2 = make_cs(g3(2, 1, 1), [1, 0, 1])
    h2, mu2 = h_tensor(cs2)
    assert abs(mu2 - 1.0) < 1e-12  # h = xi (x) alpha
    assert np.allclose(h2, np.outer(cs2.xi, cs2.alpha))
    cs3 = make_cs(g3(1, 1, 1), [1, 0, 0])
    h3, mu3 = h_tensor(cs3)
    assert np.max(np.abs(h3)) < 1e-14 and mu3 is None


def test_contact_frame_timelike():
    cs = make_cs(g3(1, 1, 1), [1, 0, 0])
    xi, u, phiu = contact_frame(cs)
    assert np.allclose(xi, [-1, 0, 0])
    assert np.allclose(u, [0, 1, 0])
    assert abs(cs.metric_dot(u, u) - 1.0) < 1e-14
    assert abs(cs.metric_dot(phiu, phiu) - 1.0) < 1e-14
    assert abs(cs.metric_dot(u, xi)) < 1e-14


def test_contact_frame_spacelike_timelike_u():
    cs = make_cs(g3(1, 1, 1), [0, 1, 0])
    xi, u, phiu = contact_frame(cs)
    assert abs(cs.metric_dot(u, u) + 1.0) < 1e-14  # g(u,u) = s_g eps = -1
    assert np.allclose(np.abs(u), [1, 0, 0])  # proportional to e_0
    assert abs(cs.metric_dot(phiu, phiu) - 1.0) < 1e-14


def test_contact_frame_null_matches_known_form():
    cs = make_cs(g3(1, 1, 1), [2.0, 0.0, 2.0])
    xi, u, phiu = contact_frame(cs)
    assert np.allclose(xi, [-2, 0, 2])
    assert np.allclose(u, [0.25, 0, 0.25])
    assert np.allclose(phiu, [0, 1, 0])
    assert abs(cs.metric_dot(u, u)) < 1e-14
    assert abs(cs.metric_dot(u, xi) - 1.0) < 1e-14
    assert abs(cs.metric_dot(phiu, phiu) - 1.0) < 1e-14


def test_sasakian_and_k_contact_flags():
    cs = make_cs(g3(1, 1, 1), [1, 0.6, -0.8])
    assert is_sasakian(cs)
    k, _ = is_k_contact(cs)
    assert k

    g1 = make_family(FamilySpec("g1", {"a": 1.0, "b": 1.0}))
    cs1 = check_contact(g1, L3, 1, [2.0, 0.0, -2.0])
    assert cs1.epsilon == 0
    assert is_sasakian(cs1)
    k1, witness = is_k_contact(cs1)
    assert not k1 and witness > 0.1
    # the light-cone witness is a / alpha0 = 1 / 2
    assert abs(k_contact_null_witness(cs1) - 0.5) < 1e-12


def test_su2_sasakian_riemannian():
    spec = FamilySpec("riemannian_unimodular", {"mu1": 1, "mu2": 1, "mu3": 1})
    cs = check_contact(make_family(spec), R3, -1, [1, 0, 0])
    assert cs.epsilon == 1
    assert is_sasakian(cs)
    assert is_k_contact(cs)[0]


def test_nijenhuis_sasakian_vs_not():
    cs = make_cs(g3(1, 1, 1), [1, 1, 0])
    nj, involutive = nijenhuis_J(cs)
    assert nj < 1e-12 and involutive
    # non-Sasakian null instance: g2 with b != s/2
    g2 = make_family(FamilySpec("g2", {"a": 0.0, "b": 2.0, "c": 1.0}))
    cs2 = check_contact(g2, L3, 1, [1.0, 0.0, 1.0])
    assert cs2.epsilon == 0 and not is_sasakian(cs2)
    nj2, involutive2 = nijenhuis_J(cs2)
    assert nj2 > 1e-3 and involutive2
    # N_J(u, dq) = -h(u): its size matches |mu| here
    _, mu = h_tensor(cs2)
    _, u, _ = contact_frame(cs2)
    assert abs(nj2) > 0.0 and abs(mu) > 0.0
    with pytest.raises(WrongCausalType):
        nijenhuis_J(make_cs(g3(1, 1, 1), [1, 0, 0]))


def test_j_matrix_constant_normal_form():
    expected = np.array(
        [[0, 0, -1, 1], [0, 0, 0, 0], [0, 1, 0, 0], [0, 1, 0, 0]], dtype=float
    )
    for alpha in ([1, 1, 0], [1, 0.6, -0.8], [2, 0, 2]):
        cs = make_cs(g3(1, 1, 1), alpha)
        assert np.allclose(j_endo_matrix(cs), expected, atol=1e-12)


def test_l_endo():
    cs = make_cs(g3(1, 1, 1), [1, 0, 0])
    lmat = l_endo(cs)
    assert np.max(np.abs(lmat @ cs.xi)) < 1e-14
    # eta-Einstein instance: l = K (eps Id - xi (x) alpha), K = s_g(lambda^2 - eps kappa)/4
    kconst = -1.0 * (1.0 - 0.0 * (-1)) / 4.0
    model = kconst * (-1 * np.eye(3) - np.outer(cs.xi, cs.alpha))
    assert np.allclose(lmat, model)
    assert np.allclose(lmat, np.diag([0.0, 0.25, 0.25]))


def test_lie_derivative_metric_killing():
    cs = make_cs(g3(1, 1, 1), [1, 0, 0])
    assert np.max(np.abs(lie_derivative_metric(cs, cs.xi))) < 1e-14


def test_timelike_special_frame():
    sc = g3(0.25, 0.75, 1.0)
    cs = make_cs(sc, [1, 0, 0])
    xi, x, phix, mu = timelike_special_frame(cs)
    assert abs(mu - 0.5) < 1e-12  # sqrt(1 - 2 lambda^2), lambda^2 = 3/8
    h, _ = h_tensor(cs)
    assert np.max(np.abs(h @ x - mu * x)) < 1e-12
    assert abs(cs.metric_dot(x, x) - 1.0) < 1e-12
    # bracket relations of the non-Sasakian special frame
    root = np.sqrt(1.0 - 2.0 * (3.0 / 8.0))
    frame = np.column_stack([xi, x, phix])
    c1 = np.linalg.solve(frame, sc.bracket(xi, x))
    c2 = np.linalg.solve(frame, sc.bracket(xi, phix))
    c3 = np.linalg.solve(frame, sc.bracket(x, phix))
    assert np.allclose(c1, [0, 0, 0.5 * (1 + root)], atol=1e-12)
    assert np.allclose(c2, [0, 0.5 * (-1 + root), 0], atol=1e-12)
    assert np.allclose(c3, [-1, 0, 0], atol=1e-12)


def test_timelike_special_frame_sasakian_case():
    cs = make_cs(g3(1, 1, 1), [1, 0, 0])
    _, x, _, mu = timelike_special_frame(cs)
    assert abs(mu) < 1e-12
    assert abs(cs.metric_dot(x, x) - 1.0) < 1e-12


def test_timelike_special_frame_wrong_type():
    with pytest.raises(WrongCausalType):
        timelike_special_frame(make_cs(g3(1, 1, 1), [1, 1, 0]))


def test_h_decomposition_guard_on_invalid_structure():
    # bypassing the contact check with a null alpha that is NOT contact leaves
    # an h tensor that no longer factors as mu xi (x) alpha
    from epscontact.contact import ContactStructure
    from epscontact.errors import DecompositionFailure

    g1 = make_family(FamilySpec("g1", {"a": 1.0, "b": 0.3}))  # needs b = s for contact
    fake = ContactStructure(g1, L3, 1, np.array([1.0, 0.6, -0.8]), 0)
    with pytest.raises(DecompositionFailure):
        h_tensor(fake)


def test_sasakian_iff_ricci_reeb_on_unit_norm():
    # for eps s_g = 1: Sasakian <-> Ric(xi, xi) = s_g eps / 2
    from epscontact.curvature import levi_civita, riemann_ricci

    cases = [
        (make_cs(g3(1, 1, 1), [1, 0, 0]), True),           # Lorentzian eps = -1
        (make_cs(g3(0.25, 0.75, 1.0), [1, 0, 0]), False),
        (check_contact(
            make_family(FamilySpec("riemannian_unimodular", {"mu1": 1, "mu2": 0.4, "mu3": 0.6})),
            R3, -1, [1, 0, 0]), False),
        (check_contact(
            make_family(FamilySpec("riemannian_unimodular", {"mu1": 1, "mu2": 0.5, "mu3": 0.5})),
            R3, -1, [1, 0, 0]), True),
    ]
    for cs, expect_sas in cases:
        assert cs.epsilon * cs.s_g == 1
        ric = riemann_ricci(levi_civita(cs.sc, cs.m), cs.sc, cs.m).ricci
        xi = cs.xi
        value = float(xi @ ric @ xi)
        is_half = abs(value - cs.s_g * cs.epsilon / 2.0) < 1e-12
        assert is_half == expect_sas == is_sasakian(cs)


def test_null_k_contact_implies_sasakian_over_tables():
    from epscontact import tables

    checked = 0
    for table_id in ("prop-3.8", "thm-4.25"):
        for inst in (i for row in tables.TABLES[table_id] for i in row.instances()):
            if inst.epsilon != 0:
                continue
            cs = tables.build_instance(inst)
            if is_k_contact(cs)[0]:
                checked += 1
                assert is_sasakian(cs)
    assert checked > 0


def test_build_contact_picks_the_working_orientation():
    # as a table row calls it: no orientation given, +1 tried first, then -1
    plus = FamilySpec("g3", {"a": 1.0, "b": 1.0, "c": 1.0})
    minus = FamilySpec("g3", {"a": -1.0, "b": -1.0, "c": -1.0})
    cs = build_contact(plus, (1.0, 1.0, 0.0))
    assert (cs.orientation, cs.epsilon, cs.spec) == (1, 0, plus)
    cs = build_contact(minus, (0.0, 1.0, 0.0))
    assert (cs.orientation, cs.epsilon, cs.spec) == (-1, 1, minus)
    assert build_contact(minus, (0.0, 1.0, 0.0), orientation=-1).orientation == -1


def test_build_contact_leaves_no_reference_cycle():
    # the failed +1 attempt must not stay alive in a cycle with its traceback
    minus = FamilySpec("g3", {"a": -1.0, "b": -1.0, "c": -1.0})
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            assert build_contact(minus, (0.0, 1.0, 0.0)).orientation == -1
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_build_contact_pinned_wrong_orientation_raises():
    minus = FamilySpec("g3", {"a": -1.0, "b": -1.0, "c": -1.0})
    with pytest.raises(NotContact, match=r"\*d\(alpha\)"):
        build_contact(minus, (0.0, 1.0, 0.0), orientation=1)
    # +1 fails alpha = *d(alpha), -1 fails the norm; the last failure is raised
    with pytest.raises(NotContact, match=r"in \{-1, 0, \+1\}"):
        build_contact(minus, (0.0, 2.0, 0.0))


# --- derived data computed once per structure -----------------------------------

CAUSAL_CASES = {
    "time-like": (("g3", {"a": 1, "b": 1, "c": 1}), [1, 0, 0], 1),
    "space-like": (("g3", {"a": 1, "b": 1, "c": 1}), [0, 1, 0], 1),
    "null": (("g3", {"a": 1, "b": 1, "c": 1}), [1, 0.6, -0.8], 1),
    "null-nonsasakian": (("g3", {"a": 2, "b": 1, "c": 1}), [1, 0, 1], 1),
    "riemannian": (("riemannian_unimodular", {"mu1": 1, "mu2": 0.4, "mu3": 0.6}), [1, 0, 0], -1),
}


def causal_case(name):
    (family, params), alpha, orientation = CAUSAL_CASES[name]
    sc = make_family(FamilySpec(family, params))
    return check_contact(sc, family_metric(family), orientation, alpha)


def bit_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("case", sorted(CAUSAL_CASES))
def test_cached_data_equals_free_functions(case):
    cs = causal_case(case)
    fresh = causal_case(case)  # nothing computed on it yet
    conn = curvature.levi_civita(fresh.sc, fresh.m)
    curv = curvature.riemann_ricci(conn, fresh.sc, fresh.m)
    xi = fresh.m.eta * fresh.alpha
    phi = characteristic_endo(fresh)
    h = np.column_stack([
        fresh.sc.bracket(xi, phi @ e) - phi @ fresh.sc.bracket(xi, e) for e in np.eye(3)
    ])
    assert bit_equal(cs.xi, xi)
    assert bit_equal(cs.phi, phi)
    assert bit_equal(cs.connection.gamma, conn.gamma)
    assert bit_equal(cs.curvature.riemann, curv.riemann)
    assert bit_equal(cs.curvature.ricci, curv.ricci)
    assert cs.curvature.scalar == curv.scalar
    assert bit_equal(cs.h, h)
    assert h_tensor(cs)[0] is cs.h
    frame = contact_frame(fresh)
    assert all(bit_equal(got, want) for got, want in zip(cs.frame, frame))
    if cs.epsilon == 0:
        u = frame[1]
        assert cs.mu == float(np.sum(cs.m.eta * u * (h @ u))) == h_tensor(cs)[1]
    else:
        assert cs.mu is None


@pytest.mark.parametrize("case", sorted(CAUSAL_CASES))
def test_cached_arrays_are_read_only(case):
    cs = causal_case(case)
    arrays = [cs.xi, cs.phi, cs.connection.gamma, cs.curvature.riemann,
              cs.curvature.ricci, cs.h, *cs.frame]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


@pytest.mark.parametrize("case", sorted(CAUSAL_CASES))
def test_structure_computes_levi_civita_once(case, monkeypatch):
    original = curvature.levi_civita
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for name, mod in list(sys.modules.items()):
        if name.startswith("epscontact") and getattr(mod, "levi_civita", None) is original:
            monkeypatch.setattr(mod, "levi_civita", counting)
    cs = causal_case(case)
    fit_eta_einstein(cs)
    is_sasakian(cs)
    contact_identity_residuals(cs)
    assert len(calls) == 1


# --- reference loops: the per-vector definitions behind the matrix forms --------


def loop_bracket(sc, u, v):
    """[u, v] from the bracket table, index by index."""
    return np.einsum("i,j,ijk->k", u, v, sc.c)


def loop_h(cs):
    """h = L_xi phi, one frame column at a time."""
    cols = []
    for j in range(3):
        ej = np.eye(3)[j]
        cols.append(loop_bracket(cs.sc, cs.xi, cs.phi @ ej)
                    - cs.phi @ loop_bracket(cs.sc, cs.xi, ej))
    return np.column_stack(cols)


def loop_lie_metric(cs, v):
    """(L_v g)(e_i, e_j) = -g([v, e_i], e_j) - g(e_i, [v, e_j]), entry by entry."""
    out = np.zeros((3, 3))
    brackets = [loop_bracket(cs.sc, v, np.eye(3)[i]) for i in range(3)]
    for i in range(3):
        for j in range(3):
            out[i, j] = -cs.metric_dot(brackets[i], np.eye(3)[j]) - cs.metric_dot(
                np.eye(3)[i], brackets[j]
            )
    return out


def loop_lie_alpha(cs):
    """(L_xi alpha)(e_i) = -alpha([xi, e_i])."""
    return np.array(
        [-float(np.dot(cs.alpha, loop_bracket(cs.sc, cs.xi, np.eye(3)[i])))
         for i in range(3)]
    )


def loop_j_action(cs, v4):
    """J(v + c dq) = phi(v) + c xi + alpha(v) dq on R^3 + R(dq) components."""
    v, c = v4[:3], v4[3]
    out = np.zeros(4)
    out[:3] = cs.phi @ v + c * cs.xi
    out[3] = float(np.dot(cs.alpha, v))
    return out


def loop_frame4(cs):
    return [np.concatenate([w, [0.0]]) for w in cs.frame] + [np.array([0.0, 0.0, 0.0, 1.0])]


def loop_j_matrix(cs):
    """Matrix of J in the frame (xi, u, phi(u), dq), one column at a time."""
    frame = np.column_stack(cs.frame)
    cols = []
    for v4 in loop_frame4(cs):
        w4 = loop_j_action(cs, v4)
        cols.append(np.concatenate([np.linalg.solve(frame, w4[:3]), [w4[3]]]))
    return np.column_stack(cols)


def loop_nijenhuis(cs):
    """Max-abs of N_J over the pairs of (xi, u, phi(u), dq)."""

    def bracket4(a4, b4):
        return np.concatenate([loop_bracket(cs.sc, a4[:3], b4[:3]), [0.0]])

    vectors = loop_frame4(cs)
    max_nj = 0.0
    for p in range(4):
        for q in range(p + 1, 4):
            v1, v2 = vectors[p], vectors[q]
            jv1, jv2 = loop_j_action(cs, v1), loop_j_action(cs, v2)
            nj = (bracket4(jv1, jv2) - loop_j_action(cs, bracket4(v1, jv2))
                  - loop_j_action(cs, bracket4(jv1, v2)))
            max_nj = max(max_nj, float(np.max(np.abs(nj))))
    return max_nj


@pytest.fixture(scope="module")
def table_structures():
    from epscontact import tables

    return [tables.build_instance(inst) for rows in tables.TABLES.values()
            for row in rows for inst in row.instances()]


def close(got, want, rel=1e-12):
    """|got - want| within rel of the larger of 1 and |want|, entrywise max."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want))) <= rel * max(1.0, float(np.max(np.abs(want))))


def test_matrix_forms_match_reference_loops_on_every_table_instance(table_structures):
    assert len(table_structures) == 771
    for cs in table_structures:
        assert close(cs.h, loop_h(cs))
        assert close(lie_derivative_metric(cs, cs.xi), loop_lie_metric(cs, cs.xi))
        assert close(contact_identity_residuals(cs)["lie_xi_alpha"],
                     np.max(np.abs(loop_lie_alpha(cs))))


def test_j_forms_match_reference_loops_on_null_table_instances(table_structures):
    null = [cs for cs in table_structures if cs.epsilon == 0]
    assert len(null) > 100
    for cs in null:
        assert close(j_endo_matrix(cs), loop_j_matrix(cs), rel=1e-10)
        assert close(nijenhuis_J(cs)[0], loop_nijenhuis(cs), rel=1e-10)

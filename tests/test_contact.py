import gc
import hashlib

import numpy as np
import pytest

import verify_oracle
from frames import (SIGNED_VALUES, bracket, hodge_interior_phi, j_endo_matrix, lightcone_brackets,
                    metric_dot, same_bits, timelike_special_frame)
from homothety import HOMOTHETY_CASES, homothety_structures
from epscontact import contact, curvature, tables
from epscontact.contact import (
    ContactBatch,
    _identity_terms,
    build_contact,
    check_contact,
    contact_frame,
    contact_identity_residuals,
    h_components,
    h_tensor,
    is_k_contact,
    is_sasakian,
    k_contact_null_witness,
    l_endo,
    lie_metric_components,
    nijenhuis_J,
    null_factor,
    phi_components,
)
from epscontact.errors import EpsContactError, JacobiViolation, NotContact, WrongCausalType
from epscontact.exterior import FrameMetric
from epscontact.liealg import FAMILIES, FamilySpec, ad_components, make_family, nine_params

L3 = FrameMetric.lorentzian(3)
R3 = FrameMetric.riemannian(3)


def g3(a, b, c):
    return make_family(FamilySpec("g3", {"a": a, "b": b, "c": c}))


def make_cs(c, alpha, orientation=1, m=L3):
    return check_contact(c, m, orientation, alpha)


def test_check_contact_epsilons():
    cs = make_cs(g3(1, 1, 1), [1, 0, 0])
    assert cs.epsilon == -1
    csn = make_cs(g3(1, 1, 1), [1, 1, 0])
    assert csn.epsilon == 0
    csp = make_cs(g3(1, 1, 1), [0, 1, 0])
    assert csp.epsilon == 1


def test_check_contact_rejects_flat():
    with pytest.raises(NotContact):
        make_cs(np.zeros((3, 3, 3)), [1, 0, 0])


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
        stacked = check_contact(np.array([c for c, _, _ in rows]), m,
                                np.array([o for _, o, _ in rows]),
                                np.array([alpha for _, _, alpha in rows], dtype=float))
        failed, residuals = stacked.failed, stacked.residuals
        assert failed.shape == (len(rows),)
        for k, (c, o, alpha) in enumerate(rows):
            try:
                cs = check_contact(c, m, o, alpha)
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


def test_check_contact_decides_by_table_shape():
    # one table: the ContactStructure, or NotContact; a table with batch
    # axes: the ContactBatch, with nothing raised for a row that is not contact
    c = g3(1, 1, 1)
    cs = check_contact(c, L3, 1, [1, 0, 0])
    assert type(cs) is contact.ContactStructure and cs.epsilon == -1
    with pytest.raises(NotContact):
        check_contact(c, L3, 1, [0.3, 0.1, 0.2])
    for alpha, ok in (([1, 0, 0], True), ([0.3, 0.1, 0.2], False)):
        batch = check_contact(c[None], L3, 1, [alpha])
        assert type(batch) is ContactBatch and batch.ok.tolist() == [ok]
    with pytest.raises(ValueError, match="three-dimensional"):
        check_contact(np.zeros((6, 6, 6)), L3, 1, [1, 0, 0])
    with pytest.raises(ValueError, match="one bracket table"):
        contact.ContactStructure(c[None], L3, 1, [[1, 0, 0]])


def test_structure_holds_a_read_only_copy_of_its_table():
    c = np.array(g3(1, 1, 1))  # a writeable table of the caller's
    cs = check_contact(c, L3, 1, [1, 0, 0])
    assert not cs.c.flags.writeable
    with pytest.raises(ValueError):
        cs.c[0, 1, 2] = 1.0
    c[...] = 0.0  # before cs.ricci is first read
    want = check_contact(g3(1, 1, 1), L3, 1, [1, 0, 0])
    assert cs.c.tobytes() == g3(1, 1, 1).tobytes()
    assert cs.ricci.tobytes() == want.ricci.tobytes() and cs.ricci.any()


def test_structure_holds_a_family_table_as_given():
    c = g3(1, 1, 1)  # read-only, float64 and owning its memory
    assert check_contact(c, L3, 1, [1, 0, 0]).c is c
    for other in (c[...], c.astype(">f8"), c.tolist()):  # a view, another byte order, a list
        held = check_contact(other, L3, 1, [1, 0, 0]).c
        assert held is not other and held.base is None and not held.flags.writeable
    skew = np.zeros((3, 3, 3))
    skew[0, 1, 2] = 1.0  # [e0, e1] = e2 without [e1, e0] = -e2
    skew.flags.writeable = False
    with pytest.raises(ValueError, match="antisymmetric"):
        contact.ContactStructure(skew, L3, 1, [1, 0, 0])


def test_structure_without_spec_rejects_a_table_that_fails_jacobi():
    # g3 at a = b = c = 1 with [e0, e1] moved by 0.1 e1: alpha = e^0 would
    # pass as a time-like contact structure, but no Lie algebra has this table
    c = np.array(g3(1, 1, 1))
    c[0, 1, 1] += 0.1
    c[1, 0, 1] -= 0.1
    assert np.allclose(curvature.jacobi_constraints9(nine_params(c)), [-0.1, 0.0, 0.0])
    with pytest.raises(JacobiViolation, match="Jacobi constraints violated"):
        check_contact(c, L3, None, [1, 0, 0])


def test_every_table_instance_is_a_lie_algebra_at_tol_1e_13(table_structures):
    # without a spec the Jacobi identity is checked; every table's bracket passes it
    for cs in table_structures:
        contact.ContactStructure(cs.c, cs.m, cs.orientation, cs.alpha, tol=1e-13)


def test_from_specs_builds_each_family_with_its_own_brackets():
    # g5 and g6 share the parameters (a, b, c, d), so reading one family's
    # brackets for the other's rows would go unnoticed; (1, 1, -1, 1) meets
    # g5's constraint a c + b d = 0 but not g6's a c - b d = 0
    specs = [FamilySpec(f, {"a": 1.0, "b": b, "c": -b, "d": 1.0})
             for b in (0.0, 1.0) for f in ("g5", "g6")]
    batch = ContactBatch.from_specs(specs, [[1.0, 0.0, 0.0]] * 4)
    assert batch.valid.tolist() == [True, True, True, False]
    for k, spec in enumerate(specs[:3]):
        assert batch.c[k].tobytes() == make_family(spec).tobytes()
    assert str(batch.error(3)) == "g6: constraint a c - b d = 0 violated"


def test_from_specs_takes_specs_of_one_frame_metric():
    specs = [FamilySpec("g3", {"a": 1.0, "b": 1.0, "c": 1.0}),
             FamilySpec("riemannian_unimodular", {"mu1": 1.0, "mu2": 1.0, "mu3": 1.0})]
    for given in (specs, []):
        with pytest.raises(ValueError, match="one frame metric"):
            ContactBatch.from_specs(given, [[1.0, 0.0, 0.0]] * len(given))


def test_batch_arrays_share_their_batch_axes():
    spec, c = FamilySpec("g3", {"a": 1.0, "b": 1.0, "c": 1.0}), g3(1, 1, 1)
    with pytest.raises(ValueError, match=r"batch axes, got \{'c': \(1,\), 'alpha': \(2,\)\}"):
        check_contact(c[None], L3, None, np.array([[1.0, 0.0, 0.0]] * 2))
    with pytest.raises(ValueError, match=r"'c': \(1,\), 'alpha': \(2,\)"):
        ContactBatch.from_specs([spec], [[1.0, 0.0, 0.0]] * 2)
    with pytest.raises(ValueError, match=r"3 components, got shape \(1, 2\)"):
        ContactBatch.from_specs([spec], [[1.0, 0.0]])
    with pytest.raises(ValueError, match=r"'c': \(2,\), 'alpha': \(2,\), 'orientation': \(3,\)"):
        check_contact(np.stack([c] * 2), L3, np.array([1, 1, -1]), np.array([[1.0, 0.0, 0.0]] * 2))
    with pytest.raises(ValueError, match=r"'orientation': \(1,\)"):
        ContactBatch.from_specs([spec] * 2, [[1.0, 0.0, 0.0]] * 2, np.array([1]))


def test_orientation_must_be_a_sign():
    spec = FamilySpec("g3", {"a": 1.0, "b": 1.0, "c": 1.0})
    for orientation in (1.5, -1.5, 0, 2, float("nan")):
        with pytest.raises(ValueError, match="orientation"):
            build_contact(spec, (1.0, 0.0, 0.0), orientation)
        with pytest.raises(ValueError, match="orientation"):  # phi's own gather checks it too
            phi_components(np.array([1.0, 0.0, 0.0]), L3, orientation)
    with pytest.raises(ValueError, match="orientation"):
        check_contact(np.stack([g3(1, 1, 1)] * 2), L3, np.array([1, 0.5]),
                      np.array([[1.0, 0.0, 0.0]] * 2))
    with pytest.raises(ValueError, match="orientation"):
        phi_components(np.array([[1.0, 0.0, 0.0]] * 2), L3, np.array([1, 0.5]))
    assert build_contact(spec, (1.0, 0.0, 0.0), 1.0).orientation == 1


def test_characteristic_endo_null_matrix():
    # phi = [[0, a2, -a1], [a2, 0, a0], [-a1, -a0, 0]] on the frame
    for alpha in ([1.0, 1.0, 0.0], [2.0, 1.2, 1.6], [1.0, 0.6, -0.8]):
        cs = make_cs(g3(1, 1, 1), alpha)
        assert cs.epsilon == 0
        a0, a1, a2 = alpha
        expected = np.array([[0, a2, -a1], [a2, 0, a0], [-a1, -a0, 0]], dtype=float)
        assert np.allclose(phi_components(cs.alpha, cs.m, cs.orientation), expected)


def test_phi_kills_reeb_and_nilpotency():
    cs = make_cs(g3(1, 1, 1), [1, 0.6, -0.8])
    phi = phi_components(cs.alpha, cs.m, cs.orientation)
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
    assert abs(metric_dot(cs, u, u) - 1.0) < 1e-14
    assert abs(metric_dot(cs, phiu, phiu) - 1.0) < 1e-14
    assert abs(metric_dot(cs, u, xi)) < 1e-14


def test_contact_frame_spacelike_timelike_u():
    cs = make_cs(g3(1, 1, 1), [0, 1, 0])
    xi, u, phiu = contact_frame(cs)
    assert abs(metric_dot(cs, u, u) + 1.0) < 1e-14  # g(u,u) = s_g eps = -1
    assert np.allclose(np.abs(u), [1, 0, 0])  # proportional to e_0
    assert abs(metric_dot(cs, phiu, phiu) - 1.0) < 1e-14


def test_contact_frame_null_matches_known_form():
    cs = make_cs(g3(1, 1, 1), [2.0, 0.0, 2.0])
    xi, u, phiu = contact_frame(cs)
    assert np.allclose(xi, [-2, 0, 2])
    assert np.allclose(u, [0.25, 0, 0.25])
    assert np.allclose(phiu, [0, 1, 0])
    assert abs(metric_dot(cs, u, u)) < 1e-14
    assert abs(metric_dot(cs, u, xi) - 1.0) < 1e-14
    assert abs(metric_dot(cs, phiu, phiu) - 1.0) < 1e-14


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
    assert np.max(np.abs(lie_metric_components(cs.ad_xi, cs.m))) < 1e-14


def test_timelike_special_frame():
    c = g3(0.25, 0.75, 1.0)
    cs = make_cs(c, [1, 0, 0])
    xi, x, phix, mu = timelike_special_frame(cs)
    assert abs(mu - 0.5) < 1e-12  # sqrt(1 - 2 lambda^2), lambda^2 = 3/8
    h, _ = h_tensor(cs)
    assert np.max(np.abs(h @ x - mu * x)) < 1e-12
    assert abs(metric_dot(cs, x, x) - 1.0) < 1e-12
    # bracket relations of the non-Sasakian special frame
    root = np.sqrt(1.0 - 2.0 * (3.0 / 8.0))
    frame = np.column_stack([xi, x, phix])
    c1 = np.linalg.solve(frame, bracket(c, xi, x))
    c2 = np.linalg.solve(frame, bracket(c, xi, phix))
    c3 = np.linalg.solve(frame, bracket(c, x, phix))
    assert np.allclose(c1, [0, 0, 0.5 * (1 + root)], atol=1e-12)
    assert np.allclose(c2, [0, 0.5 * (-1 + root), 0], atol=1e-12)
    assert np.allclose(c3, [-1, 0, 0], atol=1e-12)


def test_timelike_special_frame_sasakian_case():
    cs = make_cs(g3(1, 1, 1), [1, 0, 0])
    _, x, _, mu = timelike_special_frame(cs)
    assert abs(mu) < 1e-12
    assert abs(metric_dot(cs, x, x) - 1.0) < 1e-12


def test_timelike_special_frame_wrong_type():
    with pytest.raises(WrongCausalType):
        timelike_special_frame(make_cs(g3(1, 1, 1), [1, 1, 0]))


def test_h_decomposition_guard_on_invalid_structure():
    # bypassing the contact check with a null alpha that is NOT contact leaves
    # an h tensor that no longer factors as mu xi (x) alpha
    from epscontact.contact import ContactStructure
    from epscontact.errors import DecompositionFailure

    g1 = make_family(FamilySpec("g1", {"a": 1.0, "b": 0.3}))  # needs b = s for contact
    fake = ContactStructure(g1, L3, 1, [1.0, 0.6, -0.8])  # check_contact would raise
    assert not fake.ok and fake.epsilon == 0
    with pytest.raises(DecompositionFailure):
        h_tensor(fake)


def test_sasakian_iff_ricci_reeb_on_unit_norm():
    # for eps s_g = 1: Sasakian <-> Ric(xi, xi) = s_g eps / 2
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
        assert cs.epsilon * cs.m.s_g == 1
        ric = curvature.ricci_components(curvature.koszul_components(cs.c, cs.m.eta), cs.c)
        xi = cs.xi
        value = float(xi @ ric @ xi)
        is_half = abs(value - cs.m.s_g * cs.epsilon / 2.0) < 1e-12
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


def built(build, spec, alpha):
    """A build's (orientation, alpha bits, epsilon, spec), or its error."""
    try:
        cs = build(spec, alpha)
    except EpsContactError as exc:
        return type(exc).__name__, str(exc)
    return cs.orientation, cs.alpha.tobytes(), cs.epsilon, cs.spec


def test_build_contact_equals_trying_plus_then_minus():
    # every table instance, and three perturbations of its alpha that fail
    # at one orientation or both, against the two-attempt reference
    insts = [inst for rows in tables.TABLES.values() for row in rows for inst in row.instances()]
    assert len(insts) == 771
    cases = [(inst.spec, alpha) for inst in insts
             for alpha in (inst.alpha, 1.5 * np.array(inst.alpha),
                           np.array(inst.alpha) + (0.0, 0.1, 0.0))]
    cases += [(insts[0].spec, alpha) for alpha in
              ((0.0, 0.0, 0.0), (np.nan, 0.0, 0.0), (np.inf, 0.0, 0.0), (1e200, 0.0, 1e200))]
    got = [built(build_contact, spec, alpha) for spec, alpha in cases]
    assert got == [built(verify_oracle.build_contact_retry, spec, alpha) for spec, alpha in cases]
    orientations = [g[0] for g in got]
    assert orientations.count(-1) > 300 and orientations.count("NotContact") > 700


def test_build_contact_makes_one_stacked_check(monkeypatch):
    calls = []
    init = contact.ContactBatch.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    # a ContactStructure is a ContactBatch: its check is the batch's __init__
    monkeypatch.setattr(contact.ContactBatch, "__init__", counting)
    plus = FamilySpec("g3", {"a": 1.0, "b": 1.0, "c": 1.0})
    minus = FamilySpec("g3", {"a": -1.0, "b": -1.0, "c": -1.0})
    cases = [(plus, (1.0, 1.0, 0.0), None, 1), (minus, (0.0, 1.0, 0.0), None, -1),
             (minus, (0.0, 2.0, 0.0), None, "NotContact"), (minus, (0.0, 1.0, 0.0), -1, -1)]
    for spec, alpha, orientation, want in cases:
        calls.clear()
        assert built(lambda s, a: build_contact(s, a, orientation), spec, alpha)[0] == want
        assert calls == [1]


def test_contact_batch_reads_what_each_build_gives():
    """A family's ContactBatch, over every table instance, the instance with
    1.5 alpha (contact at neither orientation, or at the other one) and a
    spec violating its family's constraint, gives row by row the structure
    build_contact builds or the error it raises, and the derived data of
    each structure bit for bit, whether computed before or after take: its
    tensors, its fit (one stacked fit over the family's structures of every
    epsilon) as cs.fit().at() gives it, and, on the null rows, the mu of
    null as h_tensor gives it."""
    insts = [inst for rows in tables.TABLES.values() for row in rows for inst in row.instances()]
    groups = {}
    for inst in insts:
        for alpha in (inst.alpha, 1.5 * np.array(inst.alpha)):
            groups.setdefault(inst.spec.family_id, []).append((inst.spec, alpha))
    groups["g6"].append((FamilySpec("g6", {"a": 1.0, "b": 0.0, "c": 0.0, "d": -1.0}), (1.0, 0.0, 0.0)))
    errors, checked_eps = set(), set()
    for group in groups.values():
        batch = ContactBatch.from_specs([spec for spec, _ in group], [alpha for _, alpha in group])
        structs = []
        for k, (spec, alpha) in enumerate(group):
            try:
                cs = build_contact(spec, alpha)
            except EpsContactError as exc:
                assert not batch.ok[k]
                assert (type(batch.error(k)), str(batch.error(k))) == (type(exc), str(exc))
                errors.add(type(exc).__name__)
                continue
            assert batch.ok[k] and batch.orientation[k] == cs.orientation
            assert batch.eps[k] == cs.epsilon
            structs.append(cs)
        rows = np.flatnonzero(batch.ok)
        after = batch.take(rows)
        before = ContactBatch.from_specs([spec for spec, _ in group], [alpha for _, alpha in group])
        names = ("xi", "phi", "h", "ricci", "null", "k_contact_witness")
        for name in names:  # computed on every row, then taken
            getattr(before, name)
        fits = [cs.fit().at() for cs in structs]
        mus = [h_tensor(cs)[1] for cs in structs]
        for got in (after, before.take(rows)):
            assert bit_equal(got.alpha, [cs.alpha for cs in structs])
            for name in names[:-2]:
                assert bit_equal(getattr(got, name), [getattr(cs, name) for cs in structs])
            assert got.k_contact_witness.tolist() == [is_k_contact(cs)[1] for cs in structs]
            fit = got.fit()
            for field in ("lambda2", "kappa", "residual", "admissible"):
                assert bit_equal(getattr(fit, field), [getattr(f, field) for f in fits])
            assert [fit.at(j) for j in range(len(structs))] == fits
            want = np.array([mu for mu in mus if mu is not None], dtype=float)
            assert got.null[got.eps == 0, 0].tobytes() == want.tobytes()
        checked_eps.update(cs.epsilon for cs in structs)
    assert errors == {"ConstraintViolation", "NotContact"}
    assert checked_eps == {-1, 0, 1}


def test_fit_needs_contact_structures():
    # |alpha|^2 = 4 rounds to eps = -4: no eta-Einstein equation to fit
    batch = check_contact(np.stack([g3(1, 1, 1)] * 2), L3, 1,
                          np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
    assert batch.eps.tolist() == [-1.0, -4.0]
    with pytest.raises(ValueError, match="ok rows"):
        batch.fit()
    want = make_cs(g3(1, 1, 1), [1, 0, 0]).fit().at()
    assert batch.take(np.flatnonzero(batch.ok)).fit().at(0) == want


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
    c = make_family(FamilySpec(family, params))
    return check_contact(c, FAMILIES[family].metric, orientation, alpha)


def bit_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("case", sorted(CAUSAL_CASES))
def test_cached_data_equals_free_functions(case):
    cs = causal_case(case)
    fresh = causal_case(case)  # nothing computed on it yet
    gamma = curvature.koszul_components(fresh.c, fresh.m.eta)
    riemann = curvature.riemann_components(gamma, fresh.c)
    xi = fresh.m.eta * fresh.alpha
    phi = phi_components(fresh.alpha, fresh.m, fresh.orientation)
    h = np.column_stack([
        bracket(fresh.c, xi, phi @ e) - phi @ bracket(fresh.c, xi, e) for e in np.eye(3)
    ])
    assert bit_equal(cs.xi, xi)
    assert bit_equal(cs.phi, phi)
    assert bit_equal(cs.gamma, gamma)
    assert bit_equal(cs.riemann, riemann)
    assert bit_equal(cs.ricci, np.einsum("ijki->jk", riemann))
    assert bit_equal(cs.h, h)
    assert h_tensor(cs)[0] is cs.h
    frame = contact_frame(fresh)
    assert all(bit_equal(got, want) for got, want in zip(cs.frame, frame))
    if cs.epsilon == 0:
        u = frame[1]
        assert cs.null[0] == float(np.sum(cs.m.eta * u * (h @ u))) == h_tensor(cs)[1]
    else:
        assert h_tensor(cs)[1] is None


@pytest.mark.parametrize("case", sorted(CAUSAL_CASES))
def test_cached_arrays_are_read_only(case):
    cs = causal_case(case)
    arrays = [cs.xi, cs.phi, cs.gamma, cs.riemann, cs.ricci, cs.h, *cs.frame]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


@pytest.mark.parametrize("case", sorted(CAUSAL_CASES))
def test_structure_computes_levi_civita_once(case, count_calls):
    counts = count_calls(["koszul_components", "riemann_components"])
    cs = causal_case(case)
    cs.fit().at()
    is_sasakian(cs)
    # the fit needs the Ricci tensor only, not the Riemann stack
    assert counts == {"koszul_components": 1, "riemann_components": 0}
    contact_identity_residuals(cs)
    # the Blair term of a non-null structure reads it; a null structure's suite does not
    assert counts == {"koszul_components": 1, "riemann_components": int(cs.epsilon != 0)}


# --- reference loops: the per-vector definitions behind the matrix forms --------


def loop_bracket(c, u, v):
    """[u, v] from the bracket table c, index by index."""
    return np.einsum("i,j,ijk->k", u, v, c)


def loop_h(cs):
    """h = L_xi phi, one frame column at a time."""
    cols = []
    for j in range(3):
        ej = np.eye(3)[j]
        cols.append(loop_bracket(cs.c, cs.xi, cs.phi @ ej)
                    - cs.phi @ loop_bracket(cs.c, cs.xi, ej))
    return np.column_stack(cols)


def loop_lie_metric(cs, v):
    """(L_v g)(e_i, e_j) = -g([v, e_i], e_j) - g(e_i, [v, e_j]), entry by entry."""
    out = np.zeros((3, 3))
    brackets = [loop_bracket(cs.c, v, np.eye(3)[i]) for i in range(3)]
    for i in range(3):
        for j in range(3):
            out[i, j] = -metric_dot(cs, brackets[i], np.eye(3)[j]) - metric_dot(cs, 
                np.eye(3)[i], brackets[j]
            )
    return out


def loop_lie_alpha(cs):
    """(L_xi alpha)(e_i) = -alpha([xi, e_i])."""
    return np.array(
        [-float(np.dot(cs.alpha, loop_bracket(cs.c, cs.xi, np.eye(3)[i])))
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
        return np.concatenate([loop_bracket(cs.c, a4[:3], b4[:3]), [0.0]])

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
        assert close(lie_metric_components(cs.ad_xi, cs.m), loop_lie_metric(cs, cs.xi))
        assert close(contact_identity_residuals(cs)["lie_xi_alpha"],
                     np.max(np.abs(loop_lie_alpha(cs))))


def test_j_forms_match_reference_loops_on_null_table_instances(table_structures):
    null = [cs for cs in table_structures if cs.epsilon == 0]
    assert len(null) > 100
    for cs in null:
        assert close(j_endo_matrix(cs), loop_j_matrix(cs), rel=1e-10)
        assert close(nijenhuis_J(cs)[0], loop_nijenhuis(cs), rel=1e-10)


def test_identity_residuals_equal_per_identity_maxima(table_structures):
    """The one reduction gives each identity's max-abs, as a float per name."""
    for cs in table_structures:
        want = {name: float(np.max(np.abs(r))) for name, r in _identity_terms(cs).items()}
        got = contact_identity_residuals(cs)
        assert repr(got) == repr(want)


# --- the identity suite: terms that hold on contact structures and can fail ----

IDENTITY_TERMS = ("g_phi_is_dalpha", "phi_squared", "nabla_xi_xi", "nabla_xi_phi",
                  "h_phi_anticommute", "lie_xi_alpha", "h_symmetric", "reeb_gradient_eq")


@pytest.mark.parametrize("case", sorted(CAUSAL_CASES))
def test_identity_suite_names(case):
    cs = causal_case(case)
    extras = ("phi_cubed", "lightcone_brackets") if cs.epsilon == 0 else ("ricci_reeb", "blair")
    assert tuple(_identity_terms(cs)) == IDENTITY_TERMS + extras


# per term, a causal case whose alpha (by index) or bracket coefficient
# c[i, j, k] (and so c[j, i, k]) is moved by 0.1, which makes it no contact
# structure, and on which the term exceeds 1e-3: no term passes vacuously.
# A moved table still satisfies the Jacobi identity (ContactStructure checks)
IDENTITY_MUTANTS = {
    "g_phi_is_dalpha": ("riemannian", "c", (1, 2, 0)),
    "phi_squared": ("time-like", "alpha", 0),
    "nabla_xi_xi": ("riemannian", "alpha", 1),
    "nabla_xi_phi": ("riemannian", "alpha", 2),
    "h_phi_anticommute": ("riemannian", "alpha", 1),
    "lie_xi_alpha": ("riemannian", "alpha", 1),
    "h_symmetric": ("riemannian", "alpha", 2),
    "reeb_gradient_eq": ("time-like", "alpha", 0),
    "ricci_reeb": ("riemannian", "alpha", 0),
    "blair": ("riemannian", "c", (1, 2, 0)),
    "phi_cubed": ("null", "alpha", 0),
    "lightcone_brackets": ("null", "alpha", 1),
}


def mutant(case, what, where):
    (family, params), alpha, orientation = CAUSAL_CASES[case]
    c, alpha = make_family(FamilySpec(family, params)).copy(), np.array(alpha, dtype=float)
    if what == "alpha":
        alpha[where] += 0.1
    else:
        i, j, k = where
        c[i, j, k] += 0.1
        c[j, i, k] -= 0.1
    return contact.ContactStructure(c, FAMILIES[family].metric, orientation, alpha)


@pytest.mark.parametrize("term", sorted(IDENTITY_MUTANTS))
def test_identity_term_fails_on_its_mutant(term):
    cs = mutant(*IDENTITY_MUTANTS[term])
    assert not cs.ok
    assert contact_identity_residuals(cs)[term] > 1e-3


def test_identity_mutants_cover_every_term():
    names = {name for case in CAUSAL_CASES for name in _identity_terms(causal_case(case))}
    assert set(IDENTITY_MUTANTS) == names and len(names) == 12


def test_lightcone_brackets_bit_equal_to_solve_in_contact_frame(table_structures):
    """The suite's light-cone term, solved by the gufunc in a frame filled in
    place, is np.linalg.solve's in the frame of contact_frame, bit for bit,
    on every null table structure and on the null mutants."""
    null = [cs for cs in table_structures if cs.epsilon == 0]
    assert len(null) == 604
    mutants = [mutant(*where) for where in IDENTITY_MUTANTS.values() if where[0] == "null"]
    assert len(mutants) == 2 and not any(cs.ok for cs in mutants)
    for cs in null + mutants:
        want = lightcone_brackets(cs, h_tensor(cs)[1])
        assert same_bits(_identity_terms(cs)["lightcone_brackets"], want), (cs.spec, cs.alpha)


def test_lightcone_brackets_singular_frame_raises_as_solve_does():
    cs = causal_case("null")
    cs.__dict__["phi"] = np.zeros((3, 3))  # phi(u) = 0: the frame (xi, u, phi(u)) is singular
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        _identity_terms(cs)


@pytest.fixture(scope="module")
def homothety_population():
    return [cs for family_id, eps in HOMOTHETY_CASES
            for cs in homothety_structures(family_id, eps, grid=5)]


def relative_scale(cs):
    """max(1, max |l|, max |h^2|): the size the identities' terms are rounded at."""
    return max(1.0, float(np.abs(l_endo(cs)).max()), float(np.abs(cs.h @ cs.h).max()))


def test_homothety_population_is_generic(homothety_population):
    assert len(homothety_population) > 1000
    generic = [cs for cs in homothety_population if np.abs(cs.h).max() > 1e-3]
    assert len(generic) > 0.7 * len(homothety_population)
    assert sum(not cs.fit().at().admissible for cs in homothety_population) > 1000


def test_sasakian_iff_k_contact_off_the_tables(homothety_population):
    # the two notions differ only for a light-like Reeb field; the homothety
    # population, epsilon != 0, has structures of both kinds, well apart
    tol = 1e-9
    h = np.array([np.abs(cs.h).max() for cs in homothety_population])
    witness = np.array([float(cs.k_contact_witness) for cs in homothety_population])
    assert np.array_equal(h <= tol, witness <= tol)
    assert (len(h), np.count_nonzero(h <= tol)) == (1504, 336)
    assert min(h[h > tol].min(), witness[witness > tol].min()) >= 0.5


def test_identity_suite_holds_on_tables_and_homothety_population(table_structures,
                                                                  homothety_population):
    for cs in table_structures + homothety_population:
        worst = max(contact_identity_residuals(cs).values())
        assert worst <= 1e-14 * relative_scale(cs), (cs.spec, cs.alpha)


def test_phi_and_h_hold_by_construction(table_structures, homothety_population):
    """What phi, h and l satisfy on any one-form, as built: phi xi = 0,
    alpha phi = 0, g phi skew, h xi = 0, tr h = tr h phi = 0, l(xi) = 0,
    and on null structures phi h = h phi = 0."""
    for cs in table_structures + homothety_population:
        phi, h, g_phi = cs.phi, cs.h, cs.m.eta[:, None] * cs.phi
        terms = [phi @ cs.xi, cs.alpha @ phi, g_phi + g_phi.T, h @ cs.xi, np.trace(h),
                 np.trace(h @ phi), l_endo(cs) @ cs.xi]
        if cs.epsilon == 0:
            terms += [phi @ h, h @ phi]
        worst = max(float(np.max(np.abs(t))) for t in terms)
        assert worst <= 1e-14 * relative_scale(cs), (cs.spec, cs.alpha)


def test_stacked_tensors_bit_equal_to_single_structures(table_structures):
    """phi, h, mu and L_xi g of all table structures of one family and
    epsilon, stacked, are those of each structure on its own."""
    groups = {}
    for cs in table_structures:
        groups.setdefault((cs.spec.family_id, cs.epsilon), []).append(cs)
    assert len(groups) == 10
    for (_, eps), group in groups.items():
        m = group[0].m
        alpha = np.array([cs.alpha for cs in group])
        c = np.array([cs.c for cs in group])
        xi = m.eta * alpha
        phi = phi_components(alpha, m, np.array([cs.orientation for cs in group]))
        ad = ad_components(xi, c)
        h = h_components(ad, phi)
        lie = lie_metric_components(ad, m)
        assert bit_equal(ad, [cs.ad_xi for cs in group])
        assert bit_equal(phi, [cs.phi for cs in group])
        assert bit_equal(h, [cs.h for cs in group])
        assert bit_equal(lie, [lie_metric_components(cs.ad_xi, cs.m) for cs in group])
        if eps == 0:
            mu, residual = null_factor(h, alpha, m)
            assert mu.tolist() == [cs.null[0] for cs in group]
            assert bit_equal(mu, [h_tensor(cs)[1] for cs in group])
            assert np.all(residual <= 1e-9)


# --- phi against the Hodge + interior reference, bit for bit -------------------

FRAME_METRICS = [L3, R3, FrameMetric((1, -1, 1)), FrameMetric((1, 1, -1))]


def test_phi_bit_equal_to_hodge_interior_on_table_instances(table_structures):
    by_metric = {}
    for cs in table_structures:
        assert same_bits(cs.phi, hodge_interior_phi(cs.alpha, cs.m, cs.orientation))
        by_metric.setdefault(cs.m, []).append(cs)
    rng = np.random.default_rng(23)
    for m, group in by_metric.items():
        alpha = np.array([cs.alpha for cs in group])
        # each structure's own orientation, then drawn signs: both signs on every alpha
        for o in (np.array([cs.orientation for cs in group]), rng.choice([-1, 1], len(group))):
            assert same_bits(phi_components(alpha, m, o), hodge_interior_phi(alpha, m, o))
        for o in (1, -1):
            assert same_bits(phi_components(alpha, m, o), hodge_interior_phi(alpha, m, o))


@pytest.mark.parametrize("m", FRAME_METRICS, ids=lambda m: str(m.signs))
def test_phi_bit_equal_on_signed_zeros_and_non_finite_alpha(m):
    rng = np.random.default_rng(25)
    alpha = rng.choice(SIGNED_VALUES, size=(400, 3))
    alpha[:50] = np.where(rng.random((50, 3)) < 0.5, 0.0, -0.0)  # zeros only
    o = rng.choice([-1, 1], len(alpha))
    for orientation in (o, o.reshape(20, 20), 1, -1):
        a = alpha.reshape(np.shape(orientation) + (3,)) if np.ndim(orientation) else alpha
        assert same_bits(phi_components(a, m, orientation), hodge_interior_phi(a, m, orientation))
    for k in range(0, len(alpha), 7):
        assert same_bits(phi_components(alpha[k], m, int(o[k])),
                         hodge_interior_phi(alpha[k], m, int(o[k])))


# --- the contact layer's bits on every table instance -------------------------

# sha256 digests of contact_layer_digests, recorded when phi was still a
# gather of alpha by a table of its own: reading phi off the antisymmetric
# array of *alpha changes no bit of phi or of anything derived from it
CONTACT_LAYER_DIGESTS = {
    "batch phi": "5a66877c351a2b86cc0c30a4b124b343594f8d229e1fda442a828384f1792e45",
    "batch h": "548aeeae514c556876d8be77b51b0194ad958fa14df36963cc0cdb7dbb58b22e",
    "batch null": "137d738eb307509cd58b1002ed546bc0103a1912cd173f8bd07ae446d4ff28d1",
    "batch k_contact_witness": "3ccd40f57e8d61c521aae34328f41b88b8fa3c61c1924ad8e44b7dc051550231",
    "structure phi": "ae81320bf6aadb8562d3e0abae828d4205ed804d5a59798acb20b0c1d2113af3",
    "structure h": "75e35a12ad877529a2e0a2e09eacb08634f46e65b4808389130bdc1d30d7e5a0",
    "structure null": "adec1c87a05063f93e4d5c9f172ff27c95f4b7ca183b7713d11100b9dbcbc01f",
    "structure k_contact_witness": "3f6d9e6a2d449a1599ba9674dd5915af66d7195258a10779e6f37344ea28c601",
    "structure identity residuals": "0ac21ff4bd61667e4dfa763e365d05f6e74bdc8c2f37a6e0de646e82fd30d653",
}


def contact_layer_digests(structures) -> dict:
    """sha256 over the shapes and bytes of phi, h, null and the L_xi g
    witness of each table row's stacked batch of contact rows, and of those
    and the repr of the identity residuals of each built structure."""
    digests = {}

    def add(key, data):
        digests.setdefault(key, hashlib.sha256()).update(data)

    names = ("phi", "h", "null", "k_contact_witness")
    for rows in tables.TABLES.values():
        for row in rows:
            insts = row.instances()
            batch = ContactBatch.from_specs([i.spec for i in insts], [i.alpha for i in insts])
            structs = batch.take(np.flatnonzero(batch.ok))
            for name in names:
                a = getattr(structs, name)
                add(f"batch {name}", repr(a.shape).encode() + a.tobytes())
    for cs in structures:
        for name in names:
            a = getattr(cs, name)
            add(f"structure {name}", repr(a.shape).encode() + a.tobytes())
        add("structure identity residuals", repr(contact_identity_residuals(cs)).encode())
    return {key: h.hexdigest() for key, h in digests.items()}


def test_contact_layer_bits_pinned_on_every_table_instance(table_structures):
    assert len(table_structures) == 771
    got = contact_layer_digests(table_structures)
    differ = sorted(key for key, want in CONTACT_LAYER_DIGESTS.items() if got.get(key) != want)
    assert not differ, f"bits differ in: {', '.join(differ)}"
    assert got.keys() == CONTACT_LAYER_DIGESTS.keys()
    assert all(cs.phi.flags.c_contiguous for cs in table_structures)

import numpy as np
import pytest

from epscontact.contact import check_contact, is_sasakian
from epscontact.einstein import (
    default_grid,
    fit_eta_einstein,
    lightcone_fit_residual,
    reeb_curvature_residual,
    scan_family,
)
from epscontact.errors import Inadmissible, NotEtaEinstein
from epscontact.exterior import FrameMetric
from epscontact.liealg import FamilySpec, make_family
from scan_oracle import fit_one, nullspace_basis, quadric_candidates

L3 = FrameMetric.lorentzian(3)


def fit_for(family, params, alpha, orientation=1, m=L3):
    spec = FamilySpec(family, params)
    cs = check_contact(make_family(spec), m, orientation, alpha, spec=spec)
    return cs, fit_eta_einstein(cs)


def test_fit_anchor_values():
    cs, fit = fit_for("g3", {"a": 1, "b": 1, "c": 1}, [1, 0, 0])
    assert cs.epsilon == -1
    assert abs(fit.lambda2 - 1.0) < 1e-12 and abs(fit.kappa) < 1e-12
    assert fit.residual < 1e-12 and fit.admissible

    cs, fit = fit_for("g3", {"a": 1, "b": 1, "c": 1}, [1, 1, 0])
    assert cs.epsilon == 0
    assert abs(fit.lambda2 - 1.0) < 1e-12 and abs(fit.kappa) < 1e-12

    # null g4 row with alpha0 = 2: kappa = 1 / alpha0^2 = 1/4
    cs, fit = fit_for("g4", {"a": 1.0, "b": 0.0, "mu": -1.0}, [2.0, 0.0, -2.0])
    assert cs.epsilon == 0
    assert abs(fit.lambda2 - 1.0) < 1e-12 and abs(fit.kappa - 0.25) < 1e-12

    # non-Sasakian time-like anchor: lambda^2 = kappa = 3/8
    cs, fit = fit_for("g3", {"a": 0.25, "b": 0.75, "c": 1.0}, [1, 0, 0])
    assert abs(fit.lambda2 - 0.375) < 1e-12 and abs(fit.kappa - 0.375) < 1e-12


def test_fit_require_raises():
    spec = FamilySpec("g1", {"a": 1.0, "b": 1.0})
    cs = check_contact(make_family(spec), L3, 1, [1.0, 0.0, -1.0], spec=spec)
    fit = fit_eta_einstein(cs)
    assert not fit.admissible and fit.residual > 1e-3
    with pytest.raises(NotEtaEinstein):
        fit_eta_einstein(cs, require=True)


def test_fit_inadmissible_lorentzian_negative_kappa():
    # para-contact structure on the non-unimodular family with kappa < 0
    spec = FamilySpec("g5", {"a": 0.0, "b": 0.0, "c": 1.0, "d": 1.0})
    sc = make_family(spec)
    hit = None
    for orientation in (1, -1):
        for alpha in ([0.0, 1.0, 0.0], [0.0, 0.0, 1.0]):
            try:
                hit = check_contact(sc, L3, orientation, alpha)
                break
            except Exception:
                continue
        if hit:
            break
    assert hit is not None, "expected a para-contact structure on this sample"
    fit = fit_eta_einstein(hit)
    assert not fit.admissible  # lambda^2 = -(a+d)^2 < 0 cannot fit admissibly
    with pytest.raises((Inadmissible, NotEtaEinstein)):
        fit_eta_einstein(hit, require=True)


def test_reeb_curvature_identity_on_fits():
    cases = [
        ("g3", {"a": 1, "b": 1, "c": 1}, [1, 0, 0], 1),
        ("g3", {"a": 0.25, "b": 0.75, "c": 1.0}, [1, 0, 0], 1),
        ("g3", {"a": 1, "b": 1, "c": 1}, [1, 0.6, -0.8], 1),
        ("g4", {"a": 1.0, "b": 0.0, "mu": -1.0}, [1.0, 0.0, -1.0], 1),
        ("g2", {"a": 0.0, "b": 0.5, "c": -0.5}, [1.0, 0.0, 1.0], 1),
    ]
    for family, params, alpha, orientation in cases:
        cs, fit = fit_for(family, params, alpha, orientation)
        assert fit.admissible
        assert reeb_curvature_residual(cs, fit) < 1e-9


def test_sasakian_iff_lambda2_on_unit_norm_reeb():
    # eps * s_g = 1 cases: Sasakian <-> lambda^2 = 1 + kappa eps
    cases = [
        ("g3", {"a": 0.6, "b": 0.6, "c": 1.0}, [1, 0, 0], 1, L3),
        ("g3", {"a": 0.25, "b": 0.75, "c": 1.0}, [1, 0, 0], 1, L3),
        ("riemannian_unimodular", {"mu1": 1, "mu2": 0.5, "mu3": 0.5}, [1, 0, 0], -1,
         FrameMetric.riemannian(3)),
        ("riemannian_unimodular", {"mu1": 1, "mu2": 0.3, "mu3": 0.7}, [1, 0, 0], -1,
         FrameMetric.riemannian(3)),
    ]
    for family, params, alpha, orientation, m in cases:
        cs, fit = fit_for(family, params, alpha, orientation, m)
        predicted = abs(fit.lambda2 - (1.0 + fit.kappa * cs.epsilon)) < 1e-9
        assert predicted == is_sasakian(cs)


def test_lightcone_characterization():
    cs, fit = fit_for("g4", {"a": 1.0, "b": 0.0, "mu": -1.0}, [2.0, 0.0, -2.0])
    assert lightcone_fit_residual(cs, fit) < 1e-12
    cs2, fit2 = fit_for("g3", {"a": 1, "b": 1, "c": 1}, [1, 0.6, -0.8])
    assert lightcone_fit_residual(cs2, fit2) < 1e-12


def test_null_scale_covariance():
    # rescaling alpha -> t alpha keeps contact and lambda^2, maps kappa -> kappa/t^2
    base, fit1 = fit_for("g4", {"a": 1.0, "b": 0.0, "mu": -1.0}, [1.0, 0.0, -1.0])
    t = 1.7
    scaled, fit2 = fit_for("g4", {"a": 1.0, "b": 0.0, "mu": -1.0}, [t, 0.0, -t])
    assert abs(fit1.lambda2 - fit2.lambda2) < 1e-12
    assert abs(fit2.kappa - fit1.kappa / t**2) < 1e-12
    assert fit1.admissible and fit2.admissible


def test_timelike_nonsasakian_fits_satisfy_lambda2_eq_kappa():
    for b in (0.6, 0.75, 0.9):
        cs, fit = fit_for("g3", {"a": 1 - b, "b": b, "c": 1.0}, [1, 0, 0])
        assert abs(fit.lambda2 - fit.kappa) < 1e-12
        assert fit.lambda2 < 0.5
        assert not is_sasakian(cs)


def test_scan_g5_para_no_hits():
    assert scan_family("g5", default_grid(21), epsilon=1) == []


def test_scan_g5_finds_contact_but_inadmissible():
    # grid containing the para-contact sample a=0, b=0, c=1, d=1
    grid = np.array([-1.0, 0.0, 1.0])
    from epscontact.einstein import family_samples
    from epscontact.errors import NotContact

    found = 0
    for params in family_samples("g5", grid, 1e-9):
        sc = make_family(FamilySpec("g5", params))
        for orientation in (1, -1):
            basis = nullspace_basis(sc, L3, orientation, 1e-9)
            for cand in quadric_candidates(basis, L3, 1, 8):
                try:
                    cs = check_contact(sc, L3, orientation, cand, tol=1e-7)
                except NotContact:
                    continue
                if cs.epsilon == 1:
                    found += 1
                    assert not fit_eta_einstein(cs).admissible
    assert found > 0
    assert scan_family("g5", grid, epsilon=1) == []


def test_scan_g1_null_contact_exists_but_no_eta_hits():
    grid = default_grid(25)  # contains +-1, so the b = s rows are sampled
    assert scan_family("g1", grid, epsilon=0) == []

    # contact structures do exist at b = s
    from epscontact.einstein import family_samples
    from epscontact.errors import NotContact

    found = 0
    for params in family_samples("g1", grid, 1e-9):
        if abs(abs(params["b"]) - 1.0) > 1e-12:
            continue
        sc = make_family(FamilySpec("g1", params))
        for orientation in (1, -1):
            basis = nullspace_basis(sc, L3, orientation, 1e-9)
            for cand in quadric_candidates(basis, L3, 0, 8):
                try:
                    cs = check_contact(sc, L3, orientation, cand, tol=1e-7)
                except NotContact:
                    continue
                if cs.epsilon == 0:
                    found += 1
    assert found > 0


def test_scan_g3_unit_family_hits():
    hits = scan_family("g3", np.array([-1.0, 0.0, 1.0]), epsilon=0)
    unit = [h for h in hits if h.params["a"] == h.params["b"] == h.params["c"] != 0.0]
    assert unit, "expected hits on the all-equal parameter samples"
    for h in unit:
        assert abs(h.fit.lambda2 - 1.0) < 1e-9
        assert abs(h.fit.kappa) < 1e-9


def test_scan_riemannian_nonunimodular_empty():
    assert scan_family("riemannian_nonunimodular", default_grid(9), epsilon=1) == []


def test_riemannian_scan_hits_match_classification_branches():
    # every admissible Riemannian hit is either Sasakian with lambda^2 = 1 + kappa
    # or non-Sasakian with lambda^2 = -kappa <= 1/2
    hits = scan_family("riemannian_unimodular", np.linspace(-1.5, 1.5, 7), epsilon=1)
    assert hits
    for h in hits:
        spec = FamilySpec("riemannian_unimodular", h.params)
        cs = check_contact(
            make_family(spec), FrameMetric.riemannian(3), h.orientation,
            h.alpha, spec=spec,
        )
        if is_sasakian(cs):
            assert abs(h.fit.lambda2 - (1.0 + h.fit.kappa)) < 1e-9
        else:
            assert abs(h.fit.lambda2 + h.fit.kappa) < 1e-9
            assert h.fit.lambda2 <= 0.5 + 1e-12


def test_null_g2_scan_hits_match_row_formula():
    # admissible null hits on the a = 0 family obey lambda^2 = 4 (b - s)^2, kappa = 0
    hits = scan_family("g2", np.linspace(-1.5, 1.5, 7), epsilon=0)
    assert hits
    for h in hits:
        b = h.params["b"]
        values = {4.0 * (b - s) ** 2 for s in (1.0, -1.0)}
        assert any(abs(h.fit.lambda2 - v) < 1e-9 for v in values)
        assert abs(h.fit.kappa) < 1e-9


# --- the chunked batch against the per-sample loop ------------------------------


def looped_scan(family, grid, epsilon, orientations=(1, -1), tol=1e-9, n_dirs=8):
    """The scan as a plain per-sample loop over one contact nullspace, the
    per-sample candidate drawer and the one-row fit of scan_oracle."""
    from epscontact.einstein import ScanHit, family_samples
    from epscontact.errors import ConstraintViolation, NotContact

    m = FrameMetric.riemannian(3) if family.startswith("riemannian") else L3
    if m.s_g == 1 and epsilon != 1:
        return []
    hits = []
    for params in family_samples(family, grid, tol):
        try:
            spec = FamilySpec(family, params)
            sc = make_family(spec, tol=tol)
        except ConstraintViolation:
            continue
        for orientation in orientations:
            basis = nullspace_basis(sc, m, orientation, tol)
            for alpha_c in quadric_candidates(basis, m, epsilon, n_dirs):
                try:
                    cs = check_contact(sc, m, orientation, alpha_c, tol=1e-7,
                                       spec=spec)
                except NotContact:
                    continue
                if cs.epsilon != epsilon:
                    continue
                fit = fit_one(cs, tol)
                if fit.admissible:
                    hits.append(
                        ScanHit(family, dict(params), orientation, tuple(alpha_c), fit))
    return hits


def test_batched_scan_matches_per_sample_loop(monkeypatch):
    import epscontact.einstein as einstein
    from epscontact.liealg import FAMILIES

    grid = np.linspace(-2.0, 2.0, 5)  # holds +-1 and +-2, where the hits live
    total = 0
    for family in FAMILIES:
        samples = len(list(einstein.family_samples(family, grid, 1e-9)))
        for epsilon in (-1, 0, 1):
            want = looped_scan(family, grid, epsilon)
            total += len(want)
            # chunks below, at and above the family's sample count
            for chunk in (samples + 1, samples, max(1, samples // 3)):
                monkeypatch.setattr(einstein, "SCAN_CHUNK", chunk)
                got = scan_family(family, grid, epsilon=epsilon)
                assert repr(got) == repr(want), (family, epsilon, chunk)
    assert total > 0


def test_batched_scan_matches_loop_across_default_chunks():
    from epscontact.einstein import SCAN_CHUNK, family_samples

    grid = np.linspace(-1.5, 1.5, 7)
    assert len(list(family_samples("riemannian_unimodular", grid, 1e-9))) > SCAN_CHUNK
    want = looped_scan("riemannian_unimodular", grid, 1)
    assert want
    assert repr(scan_family("riemannian_unimodular", grid, epsilon=1)) == repr(want)


# the scan workload of the benchmark: five (family, epsilon) scans at 13 grid points
BENCHMARK_SCANS = [("g3", -1), ("g3", 0), ("g3", 1), ("g5", 1), ("riemannian_unimodular", 1)]


@pytest.mark.parametrize("family, epsilon", BENCHMARK_SCANS)
def test_stacked_scan_matches_loop_on_benchmark_scans(family, epsilon):
    grid = default_grid(13)
    assert repr(scan_family(family, grid, epsilon=epsilon)) == repr(
        looped_scan(family, grid, epsilon))


def test_scan_g5_is_not_vacuous(monkeypatch):
    # g5 admits no eta-Einstein structure at epsilon = +1, but its scan must
    # still meet contact candidates and hand them to check_contact
    import epscontact.einstein as einstein

    calls = []
    check = einstein.check_contact

    def counting(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(einstein, "check_contact", counting)
    assert scan_family("g5", default_grid(13), epsilon=1) == []
    assert len(calls) >= 1
    assert sum(int(check(*args, tol=1e-7).ok.sum()) for args in calls) > 0


def test_family_samples_stream_a_huge_grid():
    # 10^15 grid points: only the first chunk of points is built
    import itertools

    from epscontact.einstein import family_samples

    first = list(itertools.islice(family_samples("g3", default_grid(100_000), 1e-9), 2))
    assert first[0] == {"a": -3.0, "b": -3.0, "c": -3.0}
    assert first[1]["a"] == first[1]["b"] == -3.0 < first[1]["c"]


def test_scan_builds_no_structures(monkeypatch):
    from epscontact.contact import ContactStructure

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"scan_family built a {type(self).__name__}")

    monkeypatch.setattr(ContactStructure, "__init__", refuse)
    assert scan_family("g3", default_grid(13), epsilon=0)


# --- the stacked candidate drawer and solve against the per-sample ones --------


def hex_row(p, alpha):
    return int(p), tuple(float(x).hex() for x in alpha)


def oracle_rows(vt, keep, m, eps):
    from epscontact.einstein import N_DIRS

    return [hex_row(p, a) for p in range(len(vt))
            for a in quadric_candidates(vt[p][keep[p]].T, m, eps, N_DIRS)]


def stacked_bases(bases):
    """(vt, keep) holding each basis (rows, rank r) in the last r rows."""
    vt = np.zeros((len(bases), 3, 3))
    keep = np.zeros((len(bases), 3), dtype=bool)
    for p, rows in enumerate(bases):
        r = len(rows)
        vt[p, :3 - r] = 7.0  # not part of the nullspace
        vt[p, 3 - r:] = rows
        keep[p, 3 - r:] = True
    return vt, keep


S2 = np.sqrt(0.5)
NULL, NULL2 = [S2, S2, 0.0], [S2, -S2, 0.0]
# bases that reach each branch of the drawer
DEGENERATE_BASES = [
    [NULL], [[-S2, S2, -0.0]], [[1.0, 1.0 + 1e-12, 0.0]], [[-0.0, 0.0, -1.0]],
    [[1.0, 0.0, 0.0]], [[0.6, 0.8, 0.0]],
    [NULL, NULL2],  # a = 0, b != 0: v1 and the other null line
    [NULL, [0.0, 0.0, 1.0]],  # a = b = 0: v1 only
    [[0.0, 0.0, 1.0], NULL],  # a plane tangent to the light cone: disc = 0
    [[0.0, 0.0, 1.0], [1.0, 1.0 + 1e-13, 0.0]],  # disc slightly below 0, within tolerance
    [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # space-like plane: no null line
    [[0.0, 1e-12, 1.0], [1.0, 1.0, 0.0]],  # two null lines 1.4e-12 apart: one kept
    [[0.0, 1e-10, 1.0], [1.0, 1.0, 0.0]],  # 1.4e-10 apart: both kept
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],  # the circle crosses the light cone
    [[S2, 0.0, S2], [0.0, 1.0, 0.0]],
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
]


@pytest.mark.parametrize("m", [L3, FrameMetric.riemannian(3)], ids=["lorentzian", "riemannian"])
@pytest.mark.parametrize("eps", [-1, 0, 1])
def test_stacked_drawer_matches_per_sample_drawer(m, eps):
    from epscontact.einstein import _quadric_candidates

    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.normal(size=(300, 3, 3)))
    vt_random = np.swapaxes(q, -1, -2) * rng.choice([1.0, 3.0], size=(300, 1, 1))
    keep_random = np.arange(3) >= 3 - rng.integers(0, 4, size=300)[:, None]  # ranks 0..3
    vt_degenerate, keep_degenerate = stacked_bases(DEGENERATE_BASES)
    vt = np.concatenate([vt_random, vt_degenerate])
    keep = np.concatenate([keep_random, keep_degenerate])
    assert set(keep.sum(axis=1)) == {0, 1, 2, 3}
    want = oracle_rows(vt, keep, m, eps)
    assert [hex_row(p, a) for p, a in zip(*_quadric_candidates(vt, keep, m, eps))] == want
    if m.s_g == -1 or eps == 1:
        assert len({p for p, _ in want}) > 100


def test_degenerate_bases_reach_every_null_branch():
    vt, keep = stacked_bases(DEGENERATE_BASES)
    counts = {}
    for p, _ in oracle_rows(vt, keep, L3, 0):
        counts[p] = counts.get(p, 0) + 1
    assert [counts.get(p, 0) for p in range(6, 13)] == [2, 1, 1, 1, 0, 1, 2]


def test_candidate_dedup_is_the_greedy_pass():
    # 0 ~ 1 and 1 ~ 2 but not 0 ~ 2: the greedy pass keeps 0 and 2
    from epscontact.einstein import _distinct

    v = np.zeros((2, 3, 3))
    v[:, :, 0] = (0.0, 0.6e-10, 1.2e-10)
    ok = np.array([[True, True, True], [False, True, True]])
    assert _distinct(v, ok).tolist() == [[True, False, True], [False, True, False]]


def test_stacked_lstsq_bit_equal_to_public_lstsq(monkeypatch):
    import epscontact.einstein as einstein
    from epscontact import tables

    systems = []
    solve = einstein._lstsq_rows

    def recording(a, b):
        x = solve(a, b)
        systems.append((a, b, x))
        return x

    monkeypatch.setattr(einstein, "_lstsq_rows", recording)
    for family, epsilon in BENCHMARK_SCANS:
        scan_family(family, default_grid(13), epsilon=epsilon)
    scan_rows = sum(len(a) for a, _, _ in systems)
    for rows in tables.TABLES.values():
        for inst in (i for row in rows for i in row.instances()):
            fit_eta_einstein(tables.build_instance(inst))
    assert scan_rows > 3000 and sum(len(a) for a, _, _ in systems) == scan_rows + 771
    for a, b, x in systems:
        for k in range(len(a)):
            assert x[k].tobytes() == np.linalg.lstsq(a[k], b[k], rcond=None)[0].tobytes()


@pytest.mark.parametrize("family, epsilon", BENCHMARK_SCANS)
def test_scan_ricci_is_the_trace_of_riemann(family, epsilon, monkeypatch):
    import epscontact.einstein as einstein
    from epscontact.curvature import curvature_components

    eta = (FrameMetric.riemannian(3) if family.startswith("riemannian") else L3).eta
    rows = []
    ricci = einstein.ricci_components

    def compared(gamma, c):
        got = ricci(gamma, c)
        assert got.tobytes() == curvature_components(gamma, c, eta)[1].tobytes()
        rows.append(len(got))
        return got

    monkeypatch.setattr(einstein, "ricci_components", compared)
    scan_family(family, default_grid(13), epsilon=epsilon)
    assert sum(rows) > 0

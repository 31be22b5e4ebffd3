import numpy as np
import pytest

from epscontact.contact import check_contact, is_sasakian
from frames import reeb_curvature_residual
from epscontact.einstein import (
    default_grid,
    scan_family,
)
from epscontact.exterior import FrameMetric
from epscontact.liealg import FamilySpec, make_family
from frames import lightcone_fit_residual
from scan_oracle import fit_one, nullspace_basis, quadric_candidates, svd_nullspace_rows

L3 = FrameMetric.lorentzian(3)


def fit_for(family, params, alpha, orientation=1, m=L3):
    spec = FamilySpec(family, params)
    cs = check_contact(make_family(spec), m, orientation, alpha, spec=spec)
    return cs, cs.fit().at()


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


def test_fit_not_eta_einstein():
    spec = FamilySpec("g1", {"a": 1.0, "b": 1.0})
    cs = check_contact(make_family(spec), L3, 1, [1.0, 0.0, -1.0], spec=spec)
    fit = cs.fit().at()
    assert not fit.admissible and fit.residual > 1e-3


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
    fit = hit.fit().at()
    assert not fit.admissible  # lambda^2 = -(a+d)^2 < 0 cannot fit admissibly


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
                    assert not cs.fit().at().admissible
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

    grid = np.linspace(-2.5, 2.5, 11)  # step 0.5: holds +-1 and +-2, where the hits live
    assert len(list(family_samples("riemannian_unimodular", grid, 1e-9))) > SCAN_CHUNK
    want = looped_scan("riemannian_unimodular", grid, 1)
    assert want
    assert repr(scan_family("riemannian_unimodular", grid, epsilon=1)) == repr(want)


@pytest.mark.parametrize("family, epsilon", [("g3", 0), ("g5", 1)])
def test_scan_independent_of_chunk_at_cli_default_grid(family, epsilon, monkeypatch):
    # these scans have no hits at the CLI default grid, whose maps are all
    # of full rank, so the contact maps met and their nullspaces are
    # compared too, concatenated over the chunks, and against the plain SVD
    import epscontact.einstein as einstein

    nullspace = einstein._nullspace_rows
    grid = default_grid()
    samples = len(list(einstein.family_samples(family, grid, 1e-9)))
    reports, solved = set(), set()
    for chunk in (256, einstein.SCAN_CHUNK, samples):
        stacks = []

        def recording(mats, tol):
            keep, vt = nullspace(mats, tol)
            stacks.append((mats.reshape(-1, 3, 3), keep.reshape(-1, 3)))
            return keep, vt

        monkeypatch.setattr(einstein, "SCAN_CHUNK", chunk)
        monkeypatch.setattr(einstein, "_nullspace_rows", recording)
        reports.add(repr(scan_family(family, grid, epsilon=epsilon)))
        mats, keep = (np.concatenate(part) for part in zip(*stacks))
        assert len(mats) == 2 * samples
        assert keep.tobytes() == svd_nullspace_rows(mats, 1e-9)[0].tobytes()
        solved.add((mats.tobytes(), keep.tobytes()))
    assert len(reports) == 1 and len(solved) == 1


# --- the contact maps against the general d of the basis one-forms -------------


def assert_maps_bit_equal(c, m):
    """einstein's gathered contact maps of tables c have the bits of the d
    form of scan_oracle, signed zeros included, at every orientation set."""
    from epscontact.einstein import _contact_maps
    from scan_oracle import contact_maps

    for orientations in ((1, -1), (1,), (-1,)):
        got, want = _contact_maps(c, m, orientations), contact_maps(c, m, orientations)
        assert got.shape == want.shape == c.shape[:-3] + (len(orientations), 3, 3)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), orientations


@pytest.mark.parametrize("points, tables", [(13, 15197), (21, 64365)])
def test_contact_maps_bit_equal_to_the_d_form_on_every_chunk(points, tables):
    from epscontact.einstein import _sample_chunks
    from epscontact.liealg import FAMILIES, family_tables

    seen = 0
    for family, fam in FAMILIES.items():
        for chunk in _sample_chunks(family, default_grid(points), 1e-9):
            c, ok = family_tables(family, chunk, 1e-9)
            assert_maps_bit_equal(c[ok], fam.metric)
            seen += ok.sum()
    assert seen == tables


def test_contact_maps_bit_equal_to_the_d_form_on_zero_and_homothety_tables():
    from homothety import HOMOTHETY_CASES, homothety_structures

    for m in (L3, FrameMetric.riemannian(3)):
        for zero in (0.0, -0.0):
            assert_maps_bit_equal(np.full((3, 3, 3), zero), m)
            assert_maps_bit_equal(np.full((2, 3, 3, 3), zero), m)
    by_metric = {}
    for cs in (cs for f, e in HOMOTHETY_CASES for cs in homothety_structures(f, e, grid=5)):
        by_metric.setdefault(cs.m, []).append(cs.c)
    for m, tables in by_metric.items():
        assert_maps_bit_equal(np.stack(tables), m)
    assert sum(map(len, by_metric.values())) > 1000


def test_family_tables_finite_at_the_extreme_grid():
    # the gathered contact maps need finite tables (a non-finite entry gives
    # inf where d gives NaN): every valid sample at the largest grid points,
    # whose sheet solves overflow, has one
    from epscontact.einstein import _sample_chunks
    from epscontact.liealg import FAMILIES, family_tables

    grid = np.array([-1.7e308, -1e308, 1.0, 1e308, 1.7e308])
    valid = 0
    for family in FAMILIES:
        for chunk in _sample_chunks(family, grid, 1e-9):
            c, ok = family_tables(family, chunk, 1e-9)
            assert np.isfinite(c[ok]).all(), family
            valid += ok.sum()
    assert valid == 737


@pytest.mark.parametrize("family", ["g5", "g6"])
@pytest.mark.parametrize("epsilon", [-1, 0])
def test_scan_overflowing_sheet_solves_raise_no_warning(family, epsilon):
    # c = -+b d / a overflows at these grid points (filterwarnings = error):
    # family_tables masks those samples, and the hits are those of the
    # finite points alone
    finite = [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]
    got = scan_family(family, np.array([-1e300, *finite, 1e200, 1e300]), epsilon=epsilon)
    assert repr(got) == repr(scan_family(family, np.array(finite), epsilon=epsilon))


HUGE_GRID = (-1.7e308, -1e308, 1.0, 1e308, 1.7e308)


@pytest.mark.parametrize("family, epsilon, grid, hits", [
    ("g1", 0, HUGE_GRID, 0), ("g3", -1, HUGE_GRID, 9), ("g3", 1, HUGE_GRID, 16),
    ("g4", -1, HUGE_GRID, 0), ("g4", 0, HUGE_GRID, 0), ("g4", 1, HUGE_GRID, 0),
    ("g5", -1, HUGE_GRID, 0), ("g5", 0, HUGE_GRID, 0), ("g5", 1, HUGE_GRID, 0),
    ("g6", 1, HUGE_GRID, 1), ("g7", 0, HUGE_GRID, 0), ("g7", 1, HUGE_GRID, 0),
    ("riemannian_unimodular", 1, HUGE_GRID, 9),
    ("g5", 1, (-1e300, -2.0, 1e200, 1e300), 0), ("g6", 1, (-1e300, -2.0, 1e200, 1e300), 0),
])
def test_scan_overflowing_curvature_raises_no_warning(family, epsilon, grid, hits):
    # the Koszul and Ricci terms of the huge tables overflow (filterwarnings
    # = error); the hits are those of the grid's finite points of moderate size
    got = scan_family(family, np.array(grid), epsilon=epsilon)
    moderate = np.array([x for x in grid if abs(x) < 1e100])
    assert len(got) == hits
    assert repr(got) == repr(scan_family(family, moderate, epsilon=epsilon))


# --- the full-rank test of the contact maps against the plain SVD ---------------


def with_singular_values(rng, s: np.ndarray) -> np.ndarray:
    """Matrices (N, 3, 3) with singular values s (N, 3) and random rotations."""
    u, _ = np.linalg.qr(rng.normal(size=(len(s), 3, 3)))
    v, _ = np.linalg.qr(rng.normal(size=(len(s), 3, 3)))
    return u * s[:, None, :] @ v


def adversarial_maps(tol: float) -> tuple:
    """(mats, straddle): random, singular, zero and near-cut 3x3 matrices at
    scales 1, 1e-150 and 1e150, the rows where a full-rank proof could go
    wrong, and the mask of those at scale 1 with s_3 within 1% of the cut."""
    rng = np.random.default_rng(5)
    random = rng.normal(size=(400, 3, 3))
    singular = random[:60].copy()
    singular[:30, 2] = singular[:30, 0] + singular[:30, 1]  # rank 2
    singular[30:, 1:] = singular[30:, :1] * rng.normal(size=(30, 2, 1))  # rank 1
    s1 = 10.0 ** rng.uniform(-3, 3, size=200)
    cut = 1e3 * tol * np.maximum(1.0, s1)
    # s_3 within 1% of the cut, and around the proof's factor-2 margin
    s3 = cut * np.concatenate([rng.uniform(0.99, 1.01, 100), rng.uniform(1.5, 3.0, 100)])
    s = np.stack([s1, s1 * rng.uniform(0.01, 1, 200), s3], axis=1)
    near = with_singular_values(rng, np.sort(s, axis=1)[:, ::-1])
    base = np.concatenate([random, singular, np.zeros((5, 3, 3)), near])
    straddle = np.zeros(3 * len(base), dtype=bool)
    straddle[len(base) - 200:len(base) - 100] = True
    return np.concatenate([base, base * 1e-150, base * 1e150]), straddle


@pytest.mark.parametrize("tol", [1e-4, 1e-9, 1e-18, 1e-19, 1e-20, 5e-324])
def test_full_rank_proof_holds_and_the_rest_match_the_plain_svd(tol):
    from epscontact.einstein import _full_rank, _nullspace_rows

    mats, straddle = adversarial_maps(tol)
    proven = _full_rank(mats, tol)
    s = np.linalg.svd(mats, compute_uv=False)
    assert (s[proven] > 1e3 * tol * np.maximum(1.0, s[proven, :1])).all()
    keep, vt = _nullspace_rows(mats, tol)
    want_keep, want_vt = svd_nullspace_rows(mats, tol)
    assert not keep[proven].any()
    assert keep.tobytes() == want_keep.tobytes()
    assert vt[~proven].tobytes() == want_vt[~proven].tobytes()
    # neither everything nor nothing is proven, and some rows have a nullspace
    assert 0 < proven.sum() < len(mats) and want_keep.any(axis=1).sum() >= 15
    if tol >= 1e-9:  # a cut far above rounding: the near-cut rows fall on both sides
        assert 0 < want_keep[straddle].any(axis=1).sum() < straddle.sum()


def outcome(nullspace, mats: np.ndarray, tol: float):
    """The bytes of (keep, vt), or the error raised."""
    try:
        keep, vt = nullspace(mats, tol)
    except np.linalg.LinAlgError as exc:
        return repr(exc)
    return keep.tobytes(), vt.tobytes()


def test_full_rank_proof_rejects_non_finite_maps():
    from epscontact.einstein import _full_rank, _nullspace_rows

    mats = np.repeat(np.eye(3)[None], 4, axis=0)
    mats[1, 0, 0], mats[2, 1, 2], mats[3, 2, 2] = np.nan, np.inf, -np.inf
    assert _full_rank(mats, 1e-9).tolist() == [True, False, False, False]
    for k in range(1, 4):  # they reach the SVD and end as they do in it
        one = mats[k:k + 1]
        assert outcome(_nullspace_rows, one, 1e-9) == outcome(svd_nullspace_rows, one, 1e-9)


def test_full_rank_proof_covers_every_full_rank_benchmark_map(monkeypatch):
    # on the benchmark's scans the SVD runs on the rank-deficient maps only
    import epscontact.einstein as einstein

    stacks = []
    nullspace = einstein._nullspace_rows

    def recording(mats, tol):
        stacks.append(mats.reshape(-1, 3, 3))
        return nullspace(mats, tol)

    monkeypatch.setattr(einstein, "_nullspace_rows", recording)
    for family, epsilon in BENCHMARK_SCANS:
        scan_family(family, default_grid(13), epsilon=epsilon)
    mats = np.concatenate(stacks)
    keep, vt = einstein._nullspace_rows(mats, 1e-9)
    want_keep, want_vt = svd_nullspace_rows(mats, 1e-9)
    deficient = want_keep.any(axis=1)
    assert len(mats) == 21632 and deficient.sum() == 3812
    assert (einstein._full_rank(mats, 1e-9) == ~deficient).all()
    assert keep.tobytes() == want_keep.tobytes()
    assert vt[deficient].tobytes() == want_vt[deficient].tobytes()


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


@pytest.mark.parametrize("family, epsilon", [("g3", 0), ("riemannian_unimodular", 1)])
def test_scan_forms_ricci_once_per_distinct_sample(family, epsilon, monkeypatch):
    # the candidates of one sample share its bracket table: the batch labels
    # them by sample and forms one Ricci tensor per sample with a match
    import epscontact.contact as contact
    import epscontact.einstein as einstein

    matched, distinct, formed = [], [], []
    check, ricci = einstein.check_contact, contact.ricci_components

    def labelled(*args, **kwargs):
        batch = check(*args, **kwargs)
        samples = batch.sample[batch.ok & (batch.eps == epsilon)]
        matched.append(len(samples))
        distinct.append(len(np.unique(samples)))
        return batch

    def counted(gamma, c):
        formed.append(len(c))
        return ricci(gamma, c)

    monkeypatch.setattr(einstein, "check_contact", labelled)
    monkeypatch.setattr(contact, "ricci_components", counted)
    hits = scan_family(family, default_grid(13), epsilon=epsilon)
    assert hits and sum(formed) == sum(distinct) > 0
    assert sum(formed) < sum(matched)  # some samples have several candidates


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
    # nothing to drop in rows of one candidate: ok itself, False rows included
    ok = np.array([[True], [False], [True]])
    assert _distinct(np.zeros((3, 1, 3)), ok) is ok


def test_stacked_lstsq_bit_equal_to_public_lstsq(monkeypatch):
    # the scan fits only the candidates _not_eta_einstein cannot rule out, so
    # the design systems of every epsilon-matched candidate are built here,
    # before the proof, and solved by _lstsq_rows too
    import epscontact.contact as contact
    import epscontact.einstein as einstein
    from epscontact import tables

    systems, candidates = [], []
    solve, proof = contact._lstsq_rows, einstein._not_eta_einstein

    def recording(a, b):
        x = solve(a, b)
        systems.append((a, b, x))
        return x

    def every_candidate(ric, alpha, m, eps, tol):
        rows, _ = contact._design(alpha, m, eps)
        candidates.append((rows, ric.reshape(-1, 9).take(contact._IU9, axis=1)))
        return proof(ric, alpha, m, eps, tol)

    monkeypatch.setattr(contact, "_lstsq_rows", recording)
    monkeypatch.setattr(einstein, "_not_eta_einstein", every_candidate)
    for family, epsilon in BENCHMARK_SCANS:
        scan_family(family, default_grid(13), epsilon=epsilon)
    fitted = sum(len(a) for a, _, _ in systems)
    for rows in tables.TABLES.values():
        for inst in (i for row in rows for i in row.instances()):
            tables.build_instance(inst).fit().at()
    scan_rows = sum(len(a) for a, _ in candidates)
    assert scan_rows > 3000 and sum(len(a) for a, _, _ in systems) == fitted + 771
    for a, b, x in systems + [(a, b, solve(a, b)) for a, b in candidates]:
        for k in range(len(a)):
            assert x[k].tobytes() == np.linalg.lstsq(a[k], b[k], rcond=None)[0].tobytes()


# --- the proof that a candidate is not eta-Einstein ------------------------------

PROOF_TOLS = (1e-13, 1e-9, 1e-6, 1e-3, 0.1)


def scan_candidates(monkeypatch, scans, tol) -> list:
    """(ric, alpha, m, eps) of every epsilon-matched candidate the scans
    hand to _not_eta_einstein at tol."""
    import epscontact.einstein as einstein

    seen, proof = [], einstein._not_eta_einstein

    def recording(ric, alpha, m, eps, tol):
        seen.append((ric.copy(), alpha.copy(), m, eps.copy()))
        return proof(ric, alpha, m, eps, tol)

    monkeypatch.setattr(einstein, "_not_eta_einstein", recording)
    for family, epsilon in scans:
        scan_family(family, default_grid(13), epsilon=epsilon, tol=tol)
    monkeypatch.undo()
    return seen


def test_proof_rules_out_most_benchmark_candidates(monkeypatch):
    from epscontact.contact import _not_eta_einstein

    seen = scan_candidates(monkeypatch, BENCHMARK_SCANS, 1e-9)
    assert sum(len(a) for _, a, _, _ in seen) == 3024
    assert sum(_not_eta_einstein(*rows, 1e-9).sum() for rows in seen) >= 2500


@pytest.fixture(scope="module")
def proof_population():
    """(ric, alpha, m, eps) stacks: the candidates of every family and
    epsilon at grid 13, scanned at each tol of PROOF_TOLS, and the homothety
    population."""
    from homothety import HOMOTHETY_CASES, homothety_structures
    from epscontact.liealg import FAMILIES

    with pytest.MonkeyPatch.context() as monkeypatch:
        scans = [(f, e) for f in FAMILIES for e in (-1, 0, 1)]
        seen = [rows for tol in PROOF_TOLS for rows in scan_candidates(monkeypatch, scans, tol)]
    by_metric = {}
    for cs in (cs for f, e in HOMOTHETY_CASES for cs in homothety_structures(f, e, grid=5)):
        by_metric.setdefault(cs.m, []).append(cs)
    for m, structures in by_metric.items():
        seen.append((np.stack([cs.ricci for cs in structures]),
                     np.stack([cs.alpha for cs in structures]), m,
                     np.array([cs.eps + 0.0 for cs in structures])))
    return seen


@pytest.mark.parametrize("tol", PROOF_TOLS)
def test_proof_keeps_every_admissible_row(proof_population, tol):
    from epscontact.contact import _fit_rows, _not_eta_einstein

    admitted = ruled_out = 0
    for ric, alpha, m, eps in proof_population:
        unfit = _not_eta_einstein(ric, alpha, m, eps, tol)
        admissible = _fit_rows(ric, alpha, m, eps, tol)[3]
        assert not (unfit & admissible).any()
        admitted, ruled_out = admitted + admissible.sum(), ruled_out + unfit.sum()
    assert admitted > 0 and ruled_out > 0


@pytest.mark.parametrize("tol", PROOF_TOLS)
@pytest.mark.parametrize("m", [L3, FrameMetric.riemannian(3)], ids=["lorentzian", "riemannian"])
def test_proof_keeps_rows_within_tol_of_a_model(m, tol):
    # Ric = model(lambda^2, kappa) + E with max |E| = tol (1 - 1e-6): some
    # (lambda^2, kappa) fits within tol, so the proof must not rule the row
    # out. Each row takes the sign pattern of E's six independent entries
    # farthest from the span of its design, which brings D/sqrt(6) closest
    # to max |E|
    import itertools

    from epscontact.contact import _design, _half_metric, _IU9, _not_eta_einstein

    rng = np.random.default_rng(7)
    rows = []
    for eps in ((1,) if m.s_g == 1 else (-1, 0, 1)):
        v = rng.normal(size=(400, 3))
        q = np.sum(m.eta * v * v, axis=-1)
        if eps:
            v = v[q * eps > 0.1 * np.sum(v * v, axis=-1)]
            alpha = v * np.sqrt(eps / np.sum(m.eta * v * v, axis=-1))[:, None]
        else:  # the null cone of diag(-1, 1, 1): (1, cos t, sin t) up to scale
            t = rng.uniform(0, 2 * np.pi, size=400)
            alpha = np.stack([np.ones_like(t), np.cos(t), np.sin(t)], axis=-1) / np.sqrt(2)
        rows.append((alpha, np.full(len(alpha), eps + 0.0)))
    alpha, eps = (np.concatenate(x) for x in zip(*rows))
    lam2, kappa = rng.uniform(-3, 3, size=len(alpha)), rng.uniform(0, 3, size=len(alpha))
    design, aa = _design(alpha, m, eps)
    model = ((lam2 + kappa * eps)[:, None] * _half_metric(m)[0]
             - (m.s_g * kappa)[:, None] * aa)
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=6)))  # (64, 6)
    q, _ = np.linalg.qr(design)  # (K, 6, 2)
    left = signs[None] - np.einsum("kij,ksj->ksi", q, np.einsum("kij,si->ksj", q, signs))
    best = signs[np.argmax(np.sum(left * left, axis=-1), axis=1)]  # (K, 6)
    e = np.zeros((len(alpha), 3, 3))
    e.reshape(-1, 9)[:, _IU9] = best
    e = np.triu(e) + np.triu(e, 1).swapaxes(-1, -2)
    ric = model.reshape(-1, 3, 3) + tol * (1 - 1e-6) * e
    assert not _not_eta_einstein(ric, alpha, m, eps, tol).any()


def test_proof_keeps_non_finite_rows():
    from epscontact.contact import _not_eta_einstein

    alpha = np.array([[1.0, 0.0, 0.0]] * 4)
    ric = np.zeros((4, 3, 3))
    ric[0, 0, 0], ric[1, 1, 2], ric[2, 2, 2], ric[3] = np.nan, np.inf, -np.inf, np.nan
    far = np.full((1, 3, 3), 5.0)  # a finite row far from any model is ruled out
    got = _not_eta_einstein(np.concatenate([ric, far]), np.concatenate([alpha, alpha[:1]]),
                            FrameMetric.riemannian(3), np.ones(5), 1e-9)
    assert got.tolist() == [False] * 4 + [True]


@pytest.mark.parametrize("family, epsilon", BENCHMARK_SCANS)
def test_scan_ricci_is_the_trace_of_riemann(family, epsilon, monkeypatch):
    import epscontact.contact as contact
    from epscontact.curvature import riemann_components

    rows = []
    ricci = contact.ricci_components

    def compared(gamma, c):
        got = ricci(gamma, c)
        traced = np.einsum("...ijki->...jk", riemann_components(gamma, c))
        assert got.tobytes() == traced.tobytes()
        rows.append(len(got))
        return got

    monkeypatch.setattr(contact, "ricci_components", compared)
    scan_family(family, default_grid(13), epsilon=epsilon)
    assert sum(rows) > 0

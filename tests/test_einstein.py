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
from epscontact.exterior import FrameMetric, one_form
from epscontact.liealg import FamilySpec, make_family

L3 = FrameMetric.lorentzian(3)


def fit_for(family, params, alpha, orientation=1, m=L3):
    spec = FamilySpec(family, params)
    cs = check_contact(make_family(spec), m, orientation, one_form(alpha), spec=spec)
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
    cs = check_contact(make_family(spec), L3, 1, one_form([1.0, 0.0, -1.0]), spec=spec)
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
                hit = check_contact(sc, L3, orientation, one_form(alpha))
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
    from epscontact.einstein import _contact_map, _nullspace, _quadric_candidates, family_samples
    from epscontact.errors import NotContact

    found = 0
    for params in family_samples("g5", grid, 1e-9):
        sc = make_family(FamilySpec("g5", params))
        for orientation in (1, -1):
            basis = _nullspace(_contact_map(sc, L3, orientation), 1e-9)
            for cand in _quadric_candidates(basis, L3, 1, 8):
                try:
                    cs = check_contact(sc, L3, orientation, one_form(cand), tol=1e-7)
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
    from epscontact.einstein import _contact_map, _nullspace, _quadric_candidates, family_samples
    from epscontact.errors import NotContact

    found = 0
    for params in family_samples("g1", grid, 1e-9):
        if abs(abs(params["b"]) - 1.0) > 1e-12:
            continue
        sc = make_family(FamilySpec("g1", params))
        for orientation in (1, -1):
            basis = _nullspace(_contact_map(sc, L3, orientation), 1e-9)
            for cand in _quadric_candidates(basis, L3, 0, 8):
                try:
                    cs = check_contact(sc, L3, orientation, one_form(cand), tol=1e-7)
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
            one_form(h.alpha), spec=spec,
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
    """The scan as a plain per-sample loop over _contact_map and _nullspace."""
    from epscontact.einstein import (
        ScanHit, _contact_map, _nullspace, _quadric_candidates, family_samples,
    )
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
            basis = _nullspace(_contact_map(sc, m, orientation), tol)
            for alpha_c in _quadric_candidates(basis, m, epsilon, n_dirs):
                try:
                    cs = check_contact(sc, m, orientation, one_form(alpha_c), tol=1e-7,
                                       spec=spec)
                except NotContact:
                    continue
                if cs.epsilon != epsilon:
                    continue
                fit = fit_eta_einstein(cs, tol=tol)
                if fit.admissible:
                    hits.append(
                        ScanHit(family, dict(params), orientation, tuple(alpha_c), fit))
    return hits


def test_batched_scan_matches_per_sample_loop(monkeypatch):
    import epscontact.einstein as einstein
    from epscontact.liealg import FAMILY_PARAMS

    grid = np.linspace(-2.0, 2.0, 5)  # holds +-1 and +-2, where the hits live
    total = 0
    for family in FAMILY_PARAMS:
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

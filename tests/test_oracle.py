import json

import numpy as np
import pytest

import verify_oracle
from frames import same_bits
from epscontact import cli, oracle
from epscontact.curvature import closed_form_ricci, jacobi_constraints9
from epscontact.errors import JacobiViolation
from epscontact.exterior import FrameMetric
from epscontact.liealg import FAMILIES, family_tables, nine_params
from epscontact.oracle import LORENTZ_FAMILIES, sample_spec

L3 = FrameMetric.lorentzian(3)


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("samples", [7, 1000, 3000])
def test_family_stacked_oracle_equals_per_sample_reference(seed, samples):
    assert repr(oracle.run_oracle(samples, seed)) == repr(verify_oracle.run_oracle(samples, seed))


def test_fewer_samples_than_families_rejected(capsys):
    # with fewer samples some family gets none and would report 0.0 deviations
    assert len(LORENTZ_FAMILIES) == 7
    for samples in (1, 3, 6):
        with pytest.raises(ValueError, match="at least 7"):
            oracle.run_oracle(samples, 0)
    assert cli.main(["oracle", "--samples", "6"]) == 2
    assert "at least 7" in capsys.readouterr().err
    assert cli.main(["oracle", "--samples", "7"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert [item["samples"] for item in report["items"]] == [1] * 7


def test_one_curvature_call_per_family(count_calls):
    counts = count_calls(["koszul_components", "ricci_components"])
    oracle.run_oracle(1000, 0)
    assert counts == {"koszul_components": 7, "ricci_components": 7}


@pytest.fixture
def nan_in_one_sample(monkeypatch):
    """ricci_components with a NaN entry in the Ricci tensor of one sample
    of the first family."""
    original = oracle.ricci_components
    calls = []

    def with_nan(gamma, c):
        ricci = original(gamma, c)
        if not calls:
            ricci[len(ricci) // 2, 1, 1] = np.nan
        calls.append(1)
        return ricci

    monkeypatch.setattr(oracle, "ricci_components", with_nan)


def test_nan_deviation_fails_the_oracle(nan_in_one_sample):
    report = oracle.run_oracle(20, 0)
    first, *others = report.per_family.values()
    assert np.isnan(first["max_ricci_dev"]) and np.isnan(first["max_scalar_dev"])
    assert all(e["max_ricci_dev"] <= 1e-9 for e in others)
    assert np.isnan(report.max_ricci_dev) and np.isnan(report.max_scalar_dev)
    assert not report.passed()


def test_nan_deviation_exits_1_with_strict_json(nan_in_one_sample, capsys):
    assert cli.main(["oracle", "--samples", "20"]) == 1

    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    report = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert report["pass"] is False
    assert report["max_ricci_dev"] is None and report["max_scalar_dev"] is None
    assert report["reason"] == "non-finite max_ricci_dev, max_scalar_dev"
    assert [i["family"] for i in report["items"] if "reason" in i] == ["g1"]


# --- the stacked closed form against the per-sample Python floats ------------

def square_differs(v: float) -> bool:
    """Python's float v**2 (libm pow) is not the product v*v."""
    return v**2 != v * v


def generic_brackets():
    """Uniform nine-parameter brackets, most of which fail Jacobi: checked at
    a tolerance no constraint reaches."""
    return np.random.default_rng(41).uniform(-3.0, 3.0, size=(4000, 9)), 1e300


def family_brackets():
    """The nine parameters of the oracle's family samples, 600 a family."""
    rng = np.random.default_rng(42)
    c = [family_tables(fam, {p: [s.params[p] for s in specs] for p in FAMILIES[fam].params})[0]
         for fam in LORENTZ_FAMILIES for specs in [[sample_spec(fam, rng) for _ in range(600)]]]
    return nine_params(np.concatenate(c)), None


@pytest.mark.parametrize("brackets", [generic_brackets, family_brackets])
def test_stacked_closed_form_bit_equal_to_per_sample_reference(brackets):
    p9, tol = brackets()
    # samples whose x**2 the x*x of an array's ** would round differently
    differs = [k for k, p in enumerate(p9.tolist()) if any(map(square_differs, p))]
    assert len(differs) >= 1
    ricci, scalar = closed_form_ricci(p9, L3, tol=tol)
    assert ricci.shape == (len(p9), 3, 3) and scalar.shape == (len(p9),)
    want = [verify_oracle.closed_form_ricci(p, L3, tol=tol) for p in p9]
    assert same_bits(ricci, np.array([r for r, _ in want]))
    assert same_bits(scalar, np.array([s for _, s in want]))
    cons = jacobi_constraints9(p9)
    assert same_bits(cons, np.array([verify_oracle.jacobi_constraints9(p) for p in p9]))
    for k in differs[:20]:  # one sample of the stack: a (3, 3) array and a float
        ric, scal = closed_form_ricci(p9[k], L3, tol=tol)
        assert type(scal) is float and ric.shape == (3, 3)
        assert same_bits(ric, want[k][0]) and scal == want[k][1]


def test_stacked_nine_params_are_each_tables():
    c = family_tables("g7", {"a": [0.5, 0.0], "b": [1.5, -0.25], "c": [0.0, 2.0],
                             "d": [0.75, 1.0]})[0]
    p9 = nine_params(c.reshape(2, 1, 3, 3, 3))
    assert p9.shape == (2, 1, 9)
    assert same_bits(p9[:, 0], np.array([nine_params(ck) for ck in c]))
    with pytest.raises(ValueError, match="3D bracket tables"):
        nine_params(np.zeros((2, 4, 4, 4)))


def test_stack_failing_jacobi_raises_the_first_failing_samples_message():
    rng = np.random.default_rng(43)
    c, _ = family_tables("g3", {p: rng.uniform(-2, 2, 6) for p in ("a", "b", "c")})
    p9 = nine_params(c)
    p9[3, 0] += 0.5  # a moved at samples 3 and 5: each then fails Jacobi
    p9[5, 0] -= 0.25
    with pytest.raises(JacobiViolation) as want:
        verify_oracle.closed_form_ricci(p9[3], L3)
    with pytest.raises(JacobiViolation) as got:
        closed_form_ricci(p9, L3)
    assert str(got.value) == str(want.value)
    with pytest.raises(JacobiViolation) as got:
        closed_form_ricci(p9.reshape(2, 3, 9), L3)  # the first in C order over the batch axes
    assert str(got.value) == str(want.value)
    closed_form_ricci(np.delete(p9, [3, 5], axis=0), L3)  # the other samples pass

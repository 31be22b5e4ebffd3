import json

import numpy as np
import pytest

import verify_oracle
from epscontact import cli, oracle


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("samples", [1, 7, 1000, 3000])
def test_family_stacked_oracle_equals_per_sample_reference(seed, samples):
    assert repr(oracle.run_oracle(samples, seed)) == repr(verify_oracle.run_oracle(samples, seed))


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

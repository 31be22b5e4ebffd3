"""Cross-check of the Koszul -> Ricci pipeline against the
closed-form Ricci of the general 3D Lorentzian bracket, over random valid
samples of the classification families."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import get_tol
from .curvature import closed_form_ricci, koszul_components, ricci_components
from .liealg import FAMILIES, FamilySpec, make_family, nine_params

LORENTZ_FAMILIES = tuple(f for f, fam in FAMILIES.items() if fam.metric.s_g == -1)


def sample_spec(family_id: str, rng: np.random.Generator) -> FamilySpec:
    """A random valid parameter sample of a Lorentzian family."""

    def u(lo=-2.0, hi=2.0):
        return float(rng.uniform(lo, hi))

    def nonzero(lo=-2.0, hi=2.0, cutoff=0.1):
        while True:
            v = u(lo, hi)
            if abs(v) >= cutoff:
                return v

    if family_id == "g1":
        return FamilySpec("g1", {"a": nonzero(), "b": u()})
    if family_id == "g2":
        return FamilySpec("g2", {"a": 0.0, "b": u(), "c": nonzero()})
    if family_id == "g3":
        return FamilySpec("g3", {"a": u(), "b": u(), "c": u()})
    if family_id == "g4":
        return FamilySpec("g4", {"a": u(), "b": u(), "mu": float(rng.choice([-1.0, 1.0]))})
    if family_id == "g5":
        while True:
            a, b, d = nonzero(), u(), u()
            if abs(a + d) >= 0.1:
                return FamilySpec("g5", {"a": a, "b": b, "c": -b * d / a, "d": d})
    if family_id == "g6":
        while True:
            a, b, d = nonzero(), u(), u()
            if abs(a + d) >= 0.1:
                return FamilySpec("g6", {"a": a, "b": b, "c": b * d / a, "d": d})
    if family_id == "g7":
        if rng.uniform() < 0.5:
            while True:
                a, b, d = nonzero(), u(), u()
                if abs(a + d) >= 0.1:
                    return FamilySpec("g7", {"a": a, "b": b, "c": 0.0, "d": d})
        return FamilySpec("g7", {"a": 0.0, "b": u(), "c": u(), "d": nonzero()})
    raise ValueError(f"not a Lorentzian family: {family_id}")


@dataclass(frozen=True)
class OracleReport:
    samples: int
    per_family: dict
    max_ricci_dev: float
    max_scalar_dev: float

    def passed(self, tol: float | None = None) -> bool:
        tol = get_tol(tol)
        return self.max_ricci_dev <= tol and self.max_scalar_dev <= tol


def run_oracle(samples: int = 1000, seed: int = 0, tol: float | None = None) -> OracleReport:
    """Compare the generic curvature pipeline with the closed-form Ricci on
    random family samples mapped to the nine-parameter bracket."""
    rng = np.random.default_rng(seed)
    per_family = {fam: {"samples": 0, "max_ricci_dev": 0.0, "max_scalar_dev": 0.0}
                  for fam in LORENTZ_FAMILIES}
    for k in range(samples):
        fam = LORENTZ_FAMILIES[k % len(LORENTZ_FAMILIES)]
        spec = sample_spec(fam, rng)
        sc, m = make_family(spec), FAMILIES[fam].metric
        ricci = ricci_components(koszul_components(sc.c, m.eta), sc.c)
        scalar = float(np.einsum("i,ii->", m.eta, ricci))
        oracle_ricci, oracle_scalar = closed_form_ricci(nine_params(sc), m, tol=tol)
        dev_r = float(np.max(np.abs(ricci - oracle_ricci)))
        dev_s = abs(scalar - oracle_scalar)
        entry = per_family[fam]
        entry["samples"] += 1
        entry["max_ricci_dev"] = max(entry["max_ricci_dev"], dev_r)
        entry["max_scalar_dev"] = max(entry["max_scalar_dev"], dev_s)
    return OracleReport(
        samples=samples,
        per_family=per_family,
        max_ricci_dev=max(e["max_ricci_dev"] for e in per_family.values()),
        max_scalar_dev=max(e["max_scalar_dev"] for e in per_family.values()),
    )

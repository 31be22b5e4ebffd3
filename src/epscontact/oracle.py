"""Cross-check of the Koszul -> Ricci pipeline against the
closed-form Ricci of the general 3D Lorentzian bracket, over random valid
samples of the classification families."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .config import get_tol
from .curvature import closed_form_ricci, koszul_components, ricci_components
from .liealg import FAMILIES, FamilySpec, family_tables, make_family, nine_params

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
    random family samples mapped to the nine-parameter bracket.

    The samples are drawn first, cycling through the families; then each
    family's bracket tables, Koszul -> Ricci and the closed form each run in
    one stacked call. A NaN deviation is reported as such, so it fails the
    check. ValueError for fewer samples than families, some unchecked."""
    if samples < len(LORENTZ_FAMILIES):
        raise ValueError(f"samples must be at least {len(LORENTZ_FAMILIES)}, one per "
                         f"Lorentzian family, got {samples}")
    rng = np.random.default_rng(seed)
    # the samples' parameters by family and name, in the order they are drawn
    draws = {fam: {p: [] for p in FAMILIES[fam].params} for fam in LORENTZ_FAMILIES}
    for fam in itertools.islice(itertools.cycle(LORENTZ_FAMILIES), samples):
        for p, v in sample_spec(fam, rng).params.items():
            draws[fam][p].append(v)
    per_family = {}
    for fam, params in draws.items():
        c, ok = family_tables(fam, params)
        if not ok.all():  # raise the ConstraintViolation of the first invalid sample
            k = int(np.argmin(ok))
            make_family(FamilySpec(fam, {p: v[k] for p, v in params.items()}))
        m = FAMILIES[fam].metric
        ricci = ricci_components(koszul_components(c, m.eta), c)
        scalar = np.einsum("i,...ii->...", m.eta, ricci)
        oracle_ricci, oracle_scalar = closed_form_ricci(nine_params(c), m, tol=tol)
        per_family[fam] = {
            "samples": len(c),
            "max_ricci_dev": _worst(np.abs(ricci - oracle_ricci)),
            "max_scalar_dev": _worst(np.abs(scalar - oracle_scalar)),
        }
    return OracleReport(
        samples=samples,
        per_family=per_family,
        max_ricci_dev=_worst([e["max_ricci_dev"] for e in per_family.values()]),
        max_scalar_dev=_worst([e["max_scalar_dev"] for e in per_family.values()]),
    )


def _worst(devs) -> float:
    """The largest of non-negative deviations, 0.0 for none; NaN if any is NaN."""
    return float(np.max(devs, initial=0.0))

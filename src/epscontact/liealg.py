"""Structure constants of three- and six-dimensional Lie algebras.

Provides the bracket-coefficient representation, the classification families
of simply connected three-dimensional Lorentzian Lie groups (g1..g7) and the
Riemannian unimodular/non-unimodular families, validity checks, and the group
lookup tables.

Frame convention: index 0 is the time-like frame vector in Lorentzian
signature; a bracket table c[i][j][k] means [e_i, e_j] = sum_k c[i][j][k] e_k.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np

from .config import get_tol
from .errors import ConstraintViolation
from .exterior import FrameMetric


class GroupName(Enum):
    SL2R_COVER = "SL2R_cover"
    SU2 = "SU2"
    E2_COVER = "E2_cover"
    E11_COVER = "E11_cover"
    H3 = "H3"
    R3 = "R3"
    NON_UNIMODULAR = "NonUnimodular"


@dataclass(frozen=True)
class StructureConstants:
    """Antisymmetric bracket coefficients of an n-dimensional Lie algebra."""

    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise ValueError("structure constants must have shape (n, n, n)")
        if np.max(np.abs(c + np.swapaxes(c, 0, 1))) > 0:
            # symmetrize exactly-representable inputs, reject genuine asymmetry
            if np.max(np.abs(c + np.swapaxes(c, 0, 1))) > 1e-12 * max(1.0, np.max(np.abs(c))):
                raise ValueError("bracket coefficients must be antisymmetric in (i, j)")
            c = 0.5 * (c - np.swapaxes(c, 0, 1))
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "c", c)

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    def bracket(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """[u, v] for frame-component vectors u, v."""
        return np.einsum("i,j,ijk->k", u, v, self.c)

    def to_json(self) -> str:
        pairs = []
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                coeffs = self.c[i, j]
                if np.any(coeffs != 0.0):
                    pairs.append({"i": i, "j": j, "coeffs": [float(x) for x in coeffs]})
        return json.dumps({"dim": self.dim, "brackets": pairs}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "StructureConstants":
        data = json.loads(text)
        n = int(data["dim"])
        c = np.zeros((n, n, n))
        for entry in data.get("brackets", []):
            i, j = int(entry["i"]), int(entry["j"])
            coeffs = np.asarray(entry["coeffs"], dtype=float)
            c[i, j] = coeffs
            c[j, i] = -coeffs
        return cls(c)


def zero_algebra(dim: int = 3) -> StructureConstants:
    return StructureConstants(np.zeros((dim, dim, dim)))


def jacobi_defect(sc: StructureConstants) -> float:
    """Max-abs cyclic Jacobi sum over all index quadruples; zero iff Jacobi holds."""
    c = sc.c
    j = np.einsum("ijl,lkm->ijkm", c, c)
    total = j + np.transpose(j, (1, 2, 0, 3)) + np.transpose(j, (2, 0, 1, 3))
    return float(np.max(np.abs(total)))


def direct_sum(sc1: StructureConstants, sc2: StructureConstants) -> StructureConstants:
    """Block-diagonal bracket table; all cross brackets vanish."""
    n1, n2 = sc1.dim, sc2.dim
    c = np.zeros((n1 + n2,) * 3)
    c[:n1, :n1, :n1] = sc1.c
    c[n1:, n1:, n1:] = sc2.c
    return StructureConstants(c)


# --- the nine-parameter general 3D bracket -----------------------------------
#
# [e0,e1] = a e0 + b e1 + c e2,  [e1,e2] = d e0 + f e1 + h e2,
# [e0,e2] = g e0 + j e1 + k e2;  parameter order (a,b,c,d,f,h,g,j,k).

def nine_params(sc: StructureConstants):
    """Extract (a,b,c,d,f,h,g,j,k) of the general 3D bracket from a table."""
    if sc.dim != 3:
        raise ValueError("nine_params needs a 3D bracket table")
    c = sc.c
    return (
        c[0, 1, 0], c[0, 1, 1], c[0, 1, 2],
        c[1, 2, 0], c[1, 2, 1], c[1, 2, 2],
        c[0, 2, 0], c[0, 2, 1], c[0, 2, 2],
    )


def from_nine_params(p9) -> StructureConstants:
    a, b, c_, d, f, h, g, j, k = (float(x) for x in p9)
    c = np.zeros((3, 3, 3))
    c[0, 1] = (a, b, c_)
    c[1, 2] = (d, f, h)
    c[0, 2] = (g, j, k)
    c[1, 0], c[2, 1], c[2, 0] = -c[0, 1], -c[1, 2], -c[0, 2]
    return StructureConstants(c)


# --- classification families --------------------------------------------------

FAMILY_PARAMS = {
    "g1": ("a", "b"),
    "g2": ("a", "b", "c"),
    "g3": ("a", "b", "c"),
    "g4": ("a", "b", "mu"),
    "g5": ("a", "b", "c", "d"),
    "g6": ("a", "b", "c", "d"),
    "g7": ("a", "b", "c", "d"),
    "riemannian_unimodular": ("mu1", "mu2", "mu3"),
    "riemannian_nonunimodular": ("a", "b", "c", "f"),
}


@dataclass(frozen=True)
class FamilySpec:
    """A classification family together with concrete parameter values."""

    family_id: str
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.family_id not in FAMILY_PARAMS:
            raise ConstraintViolation(f"unknown family {self.family_id!r}")
        wanted = FAMILY_PARAMS[self.family_id]
        params = {k: float(v) for k, v in dict(self.params).items()}
        missing = [k for k in wanted if k not in params]
        if missing:
            raise ConstraintViolation(f"{self.family_id}: missing parameters {missing}")
        extra = [k for k in params if k not in wanted]
        if extra:
            raise ConstraintViolation(f"{self.family_id}: unknown parameters {extra}")
        object.__setattr__(self, "params", params)

    def __getitem__(self, key: str) -> float:
        return self.params[key]

    def to_json(self) -> str:
        return json.dumps({"family": self.family_id, "params": self.params}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FamilySpec":
        data = json.loads(text)
        return cls(data["family"], data["params"])


def family_metric(family_id: str) -> FrameMetric:
    """Frame metric of a classification family: Riemannian for the
    riemannian_* families, Lorentzian (-1, +1, +1) for g1..g7."""
    if family_id not in FAMILY_PARAMS:
        raise ConstraintViolation(f"unknown family {family_id!r}")
    if family_id.startswith("riemannian"):
        return FrameMetric.riemannian(3)
    return FrameMetric.lorentzian(3)


def _require(cond: bool, family: str, constraint: str) -> None:
    if not cond:
        raise ConstraintViolation(f"{family}: constraint {constraint} violated")


def _validate(spec: FamilySpec, tol: float) -> None:
    p = spec.params
    fam = spec.family_id
    if fam == "g1":
        _require(abs(p["a"]) > tol, fam, "a != 0")
    elif fam == "g2":
        _require(abs(p["c"]) > tol, fam, "c != 0")
        # Jacobi on this bracket table forces a*c = 0; with c != 0 that means a = 0
        _require(abs(p["a"] * p["c"]) <= tol, fam, "a c = 0 (Jacobi identity)")
    elif fam == "g4":
        _require(p["mu"] in (-1.0, 1.0), fam, "mu in {-1, +1}")
    elif fam == "g5":
        _require(abs(p["a"] + p["d"]) > tol, fam, "a + d != 0")
        _require(abs(p["a"] * p["c"] + p["b"] * p["d"]) <= tol, fam, "a c + b d = 0")
    elif fam == "g6":
        _require(abs(p["a"] + p["d"]) > tol, fam, "a + d != 0")
        _require(abs(p["a"] * p["c"] - p["b"] * p["d"]) <= tol, fam, "a c - b d = 0")
    elif fam == "g7":
        _require(abs(p["a"] + p["d"]) > tol, fam, "a + d != 0")
        _require(abs(p["a"] * p["c"]) <= tol, fam, "a c = 0")
    elif fam == "riemannian_nonunimodular":
        _require(abs(p["a"] + p["f"] - 2.0) <= tol, fam, "a + f = 2")


def make_family(spec: FamilySpec, tol: float | None = None) -> StructureConstants:
    """Bracket table of a classification family instance.

    Raises ConstraintViolation (naming the constraint) when a family parameter
    condition fails; the result always has zero Jacobi defect.
    """
    tol = get_tol(tol)
    _validate(spec, tol)
    p = spec.params
    fam = spec.family_id
    if fam == "g1":
        a, b = p["a"], p["b"]
        entries = [(1, 2, (-b, a, 0.0)), (1, 0, (0.0, -a, -b)), (2, 0, (a, b, a))]
    elif fam == "g2":
        a, b, cc = p["a"], p["b"], p["c"]
        entries = [(1, 2, (-b, 0.0, cc)), (1, 0, (cc, 0.0, -b)), (2, 0, (0.0, a, 0.0))]
    elif fam == "g3":
        a, b, cc = p["a"], p["b"], p["c"]
        entries = [(1, 2, (-cc, 0.0, 0.0)), (1, 0, (0.0, 0.0, -b)), (2, 0, (0.0, a, 0.0))]
    elif fam == "g4":
        a, b, mu = p["a"], p["b"], p["mu"]
        entries = [
            (1, 2, (2.0 * mu - b, 0.0, -1.0)),
            (1, 0, (1.0, 0.0, -b)),
            (2, 0, (0.0, a, 0.0)),
        ]
    elif fam == "g5":
        a, b, cc, d = p["a"], p["b"], p["c"], p["d"]
        entries = [(1, 0, (0.0, a, b)), (2, 0, (0.0, cc, d))]
    elif fam == "g6":
        a, b, cc, d = p["a"], p["b"], p["c"], p["d"]
        entries = [(1, 2, (b, 0.0, a)), (1, 0, (d, 0.0, cc))]
    elif fam == "g7":
        a, b, cc, d = p["a"], p["b"], p["c"], p["d"]
        entries = [(1, 2, (-b, -a, -b)), (1, 0, (b, a, b)), (2, 0, (d, cc, d))]
    elif fam == "riemannian_unimodular":
        m1, m2, m3 = p["mu1"], p["mu2"], p["mu3"]
        entries = [(1, 2, (m1, 0.0, 0.0)), (2, 0, (0.0, m2, 0.0)), (0, 1, (0.0, 0.0, m3))]
    else:  # riemannian_nonunimodular
        a, b, cc, f = p["a"], p["b"], p["c"], p["f"]
        entries = [(0, 1, (0.0, a, b)), (0, 2, (0.0, cc, f))]
    c = np.zeros((3, 3, 3))
    for i, j, coeffs in entries:
        c[i, j] = coeffs
        c[j, i] = [-x for x in coeffs]
    return StructureConstants(c)


def _sign(x: float, tol: float) -> int:
    if x > tol:
        return 1
    if x < -tol:
        return -1
    return 0


_G3_TABLE = {
    (1, 1, 1): GroupName.SL2R_COVER,
    (1, -1, -1): GroupName.SL2R_COVER,
    (1, 1, -1): GroupName.SU2,
    (1, 1, 0): GroupName.E2_COVER,
    (1, 0, -1): GroupName.E2_COVER,
    (1, -1, 0): GroupName.E11_COVER,
    (1, 0, 1): GroupName.E11_COVER,
    (1, 0, 0): GroupName.H3,
    (0, 0, -1): GroupName.H3,
    (0, 0, 0): GroupName.R3,
}


def identify_group(spec: FamilySpec, tol: float | None = None) -> GroupName:
    """Simply connected group of a family instance, by table lookup."""
    tol = get_tol(tol)
    _validate(spec, tol)
    p = spec.params
    fam = spec.family_id
    if fam in ("g5", "g6", "g7", "riemannian_nonunimodular"):
        return GroupName.NON_UNIMODULAR
    if fam == "g1":
        return GroupName.SL2R_COVER if abs(p["b"]) > tol else GroupName.E11_COVER
    if fam == "g2":
        return GroupName.SL2R_COVER if abs(p["a"]) > tol else GroupName.E11_COVER
    if fam == "g3":
        a, b, c = p["a"], p["b"], p["c"]
        # single frame flips negate (a,b,c); the e1<->e2 swap exchanges a,b
        for cand in ((a, b, c), (b, a, c), (-a, -b, -c), (-b, -a, -c)):
            pattern = tuple(_sign(x, tol) for x in cand)
            if pattern in _G3_TABLE:
                return _G3_TABLE[pattern]
        raise ConstraintViolation(f"g3: sign pattern of {(a, b, c)} not tabulated")
    if fam == "g4":
        a, b, mu = p["a"], p["b"], p["mu"]
        if abs(b - mu) > tol:
            return GroupName.SL2R_COVER if abs(a) > tol else GroupName.E11_COVER
        s = _sign(mu * a, tol)
        if s == 0:
            return GroupName.H3
        return GroupName.E2_COVER if s > 0 else GroupName.E11_COVER
    if fam == "riemannian_unimodular":
        signs = sorted(_sign(p[k], tol) for k in ("mu1", "mu2", "mu3"))
        pos, neg = signs.count(1), signs.count(-1)
        if neg > pos:
            pos, neg = neg, pos
        table = {
            (3, 0): GroupName.SU2,
            (2, 1): GroupName.SL2R_COVER,
            (2, 0): GroupName.E2_COVER,
            (1, 1): GroupName.E11_COVER,
            (1, 0): GroupName.H3,
            (0, 0): GroupName.R3,
        }
        return table[(pos, neg)]
    raise ConstraintViolation(f"unknown family {fam!r}")

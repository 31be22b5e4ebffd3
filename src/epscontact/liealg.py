"""Structure constants of three- and six-dimensional Lie algebras.

Provides the bracket-coefficient representation and the classification
families of simply connected three-dimensional Lorentzian Lie groups (g1..g7)
and the Riemannian unimodular/non-unimodular families, each declared once in
FAMILIES with its metric, brackets, constraints, sampling sheets and group
rule.

Frame convention: index 0 is the time-like frame vector in Lorentzian
signature; a bracket table c[i][j][k] means [e_i, e_j] = sum_k c[i][j][k] e_k.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping

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

    @classmethod
    def unchecked(cls, c: np.ndarray) -> "StructureConstants":
        """Wrap a float table built antisymmetric (c[j, i] = -c[i, j] entry by
        entry) without re-checking it; c is taken over, not copied."""
        sc = object.__new__(cls)
        c.flags.writeable = False
        object.__setattr__(sc, "c", c)
        return sc

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    def ad(self, u: np.ndarray) -> np.ndarray:
        """Matrix of v -> [u, v] on frame components: ad(u)[k, j] = u^i c[i][j][k]."""
        return np.einsum("i,ijk->kj", u, self.c)

    def bracket(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """[u, v] for frame-component vectors u, v."""
        return self.ad(u) @ v

    def to_json(self) -> str:
        pairs = [{"i": i, "j": j, "coeffs": [float(x) for x in self.c[i, j]]}
                 for i in range(self.dim) for j in range(i + 1, self.dim)
                 if np.any(self.c[i, j] != 0.0)]
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


@dataclass(frozen=True)
class Sheet:
    """A sampling sheet: axes map parameters, in loop order, to their values
    (None: the grid; a one-value axis fixes the parameter); keep filters a
    point and solve gives the remaining parameters from it."""

    axes: dict
    keep: Callable = lambda **_: True
    solve: Callable = lambda **_: {}


@dataclass(frozen=True)
class Family:
    """A classification family, declared once: parameter names, frame metric,
    bracket entries (i, j, coefficients of [e_i, e_j]), constraints as
    (message, test), sampling sheets and the rule giving its simply connected
    group. Entries, tests, filters, solves and the rule are called with the
    parameters (and tol) by keyword; entries and tests evaluate the same on
    floats and on equal-length arrays, for make_family and family_tables."""

    params: tuple
    metric: FrameMetric
    brackets: Callable
    constraints: tuple
    sheets: tuple
    group: Callable


class _Families(dict):
    def __missing__(self, family_id):
        raise ConstraintViolation(f"unknown family {family_id!r}")


def _sign(x: float, tol: float) -> int:
    if x > tol:
        return 1
    if x < -tol:
        return -1
    return 0


_G3_TABLE = {
    (1, 1, 1): GroupName.SL2R_COVER, (1, -1, -1): GroupName.SL2R_COVER,
    (1, 1, -1): GroupName.SU2,
    (1, 1, 0): GroupName.E2_COVER, (1, 0, -1): GroupName.E2_COVER,
    (1, -1, 0): GroupName.E11_COVER, (1, 0, 1): GroupName.E11_COVER,
    (1, 0, 0): GroupName.H3, (0, 0, -1): GroupName.H3,
    (0, 0, 0): GroupName.R3,
}

# (positive, negative) sign counts of (mu1, mu2, mu3), up to an overall sign
_UNIMODULAR_TABLE = {
    (3, 0): GroupName.SU2, (2, 1): GroupName.SL2R_COVER, (2, 0): GroupName.E2_COVER,
    (1, 1): GroupName.E11_COVER, (1, 0): GroupName.H3, (0, 0): GroupName.R3,
}


def _g3_group(a, b, c, tol):
    # single frame flips negate (a,b,c); the e1<->e2 swap exchanges a,b
    for cand in ((a, b, c), (b, a, c), (-a, -b, -c), (-b, -a, -c)):
        pattern = tuple(_sign(x, tol) for x in cand)
        if pattern in _G3_TABLE:
            return _G3_TABLE[pattern]
    raise ConstraintViolation(f"g3: sign pattern of {(a, b, c)} not tabulated")


def _g4_group(a, b, mu, tol):
    if abs(b - mu) > tol:
        return GroupName.SL2R_COVER if abs(a) > tol else GroupName.E11_COVER
    return (GroupName.E11_COVER, GroupName.H3, GroupName.E2_COVER)[_sign(mu * a, tol) + 1]


def _unimodular_group(mu1, mu2, mu3, tol):
    signs = [_sign(x, tol) for x in (mu1, mu2, mu3)]
    pos, neg = sorted((signs.count(1), signs.count(-1)), reverse=True)
    return _UNIMODULAR_TABLE[(pos, neg)]


def _nonunimodular(**_):
    return GroupName.NON_UNIMODULAR


def _generic_a_d(a, d, tol, **_):  # a != 0 and a + d != 0
    return abs(a) > tol and abs(a + d) > tol


_LORENTZIAN, _RIEMANNIAN = FrameMetric.lorentzian(3), FrameMetric.riemannian(3)
_A_PLUS_D = ("a + d != 0", lambda a, d, tol, **_: abs(a + d) > tol)
# the a = 0 sheet of g5 and g6: the constraint becomes b d = 0, and a + d != 0
# forces d != 0
_A0_SHEET = Sheet({"a": (0.0,), "b": (0.0,), "d": None, "c": None},
                  keep=lambda d, tol, **_: abs(d) > tol)

FAMILIES = _Families({
    "g1": Family(("a", "b"), _LORENTZIAN,
        lambda a, b: ((1, 2, (-b, a, 0.0)), (1, 0, (0.0, -a, -b)), (2, 0, (a, b, a))),
        (("a != 0", lambda a, tol, **_: abs(a) > tol),),
        (Sheet({"a": None, "b": None}, keep=lambda a, tol, **_: abs(a) > tol),),
        lambda b, tol, **_: GroupName.SL2R_COVER if abs(b) > tol else GroupName.E11_COVER),
    "g2": Family(("a", "b", "c"), _LORENTZIAN,
        lambda a, b, c: ((1, 2, (-b, 0.0, c)), (1, 0, (c, 0.0, -b)), (2, 0, (0.0, a, 0.0))),
        # Jacobi on this bracket table forces a*c = 0; with c != 0 that means a = 0
        (("c != 0", lambda c, tol, **_: abs(c) > tol),
         ("a c = 0 (Jacobi identity)", lambda a, c, tol, **_: abs(a * c) <= tol)),
        (Sheet({"a": (0.0,), "b": None, "c": None}, keep=lambda c, tol, **_: abs(c) > tol),),
        lambda a, tol, **_: GroupName.SL2R_COVER if abs(a) > tol else GroupName.E11_COVER),
    "g3": Family(("a", "b", "c"), _LORENTZIAN,
        lambda a, b, c: ((1, 2, (-c, 0.0, 0.0)), (1, 0, (0.0, 0.0, -b)), (2, 0, (0.0, a, 0.0))),
        (), (Sheet({"a": None, "b": None, "c": None}),),
        _g3_group),
    "g4": Family(("a", "b", "mu"), _LORENTZIAN,
        lambda a, b, mu: ((1, 2, (2.0 * mu - b, 0.0, -1.0)), (1, 0, (1.0, 0.0, -b)),
                          (2, 0, (0.0, a, 0.0))),
        (("mu in {-1, +1}", lambda mu, **_: abs(mu) == 1.0),),
        (Sheet({"mu": (-1.0, 1.0), "a": None, "b": None}),),
        _g4_group),
    "g5": Family(("a", "b", "c", "d"), _LORENTZIAN,
        lambda a, b, c, d: ((1, 0, (0.0, a, b)), (2, 0, (0.0, c, d))),
        (_A_PLUS_D,
         ("a c + b d = 0", lambda a, b, c, d, tol: abs(a * c + b * d) <= tol)),
        (Sheet({"a": None, "b": None, "d": None}, keep=_generic_a_d,
               solve=lambda a, b, d: {"c": -b * d / a}), _A0_SHEET),
        _nonunimodular),
    "g6": Family(("a", "b", "c", "d"), _LORENTZIAN,
        lambda a, b, c, d: ((1, 2, (b, 0.0, a)), (1, 0, (d, 0.0, c))),
        (_A_PLUS_D,
         ("a c - b d = 0", lambda a, b, c, d, tol: abs(a * c - b * d) <= tol)),
        (Sheet({"a": None, "b": None, "d": None}, keep=_generic_a_d,
               solve=lambda a, b, d: {"c": b * d / a}), _A0_SHEET),
        _nonunimodular),
    "g7": Family(("a", "b", "c", "d"), _LORENTZIAN,
        lambda a, b, c, d: ((1, 2, (-b, -a, -b)), (1, 0, (b, a, b)), (2, 0, (d, c, d))),
        (_A_PLUS_D,
         ("a c = 0", lambda a, c, tol, **_: abs(a * c) <= tol)),
        (Sheet({"a": (0.0,), "b": None, "d": None, "c": None},
               keep=lambda d, tol, **_: abs(d) > tol),
         Sheet({"a": None, "b": None, "c": (0.0,), "d": None}, keep=_generic_a_d)),
        _nonunimodular),
    "riemannian_unimodular": Family(("mu1", "mu2", "mu3"), _RIEMANNIAN,
        lambda mu1, mu2, mu3: ((1, 2, (mu1, 0.0, 0.0)), (2, 0, (0.0, mu2, 0.0)),
                               (0, 1, (0.0, 0.0, mu3))),
        (), (Sheet({"mu1": None, "mu2": None, "mu3": None}),),
        _unimodular_group),
    "riemannian_nonunimodular": Family(("a", "b", "c", "f"), _RIEMANNIAN,
        lambda a, b, c, f: ((0, 1, (0.0, a, b)), (0, 2, (0.0, c, f))),
        (("a + f = 2", lambda a, f, tol, **_: abs(a + f - 2.0) <= tol),),
        (Sheet({"a": None, "b": None, "c": None}, solve=lambda a, **_: {"f": 2.0 - a}),),
        _nonunimodular),
})

FAMILY_PARAMS = {family_id: fam.params for family_id, fam in FAMILIES.items()}


@dataclass(frozen=True)
class FamilySpec:
    """A classification family together with concrete parameter values."""

    family_id: str
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        wanted = FAMILIES[self.family_id].params
        params = {k: float(v) for k, v in dict(self.params).items()}
        missing = [k for k in wanted if k not in params]
        if missing:
            raise ConstraintViolation(f"{self.family_id}: missing parameters {missing}")
        extra = [k for k in params if k not in wanted]
        if extra:
            raise ConstraintViolation(f"{self.family_id}: unknown parameters {extra}")
        if not all(map(math.isfinite, params.values())):
            raise ConstraintViolation(f"{self.family_id}: parameters must be finite, got {params}")
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
    return FAMILIES[family_id].metric


def _validate(spec: FamilySpec, tol: float) -> None:
    for constraint, holds in FAMILIES[spec.family_id].constraints:
        if not holds(tol=tol, **spec.params):
            raise ConstraintViolation(f"{spec.family_id}: constraint {constraint} violated")


def make_family(spec: FamilySpec, tol: float | None = None) -> StructureConstants:
    """Bracket table of a classification family instance.

    Raises ConstraintViolation (naming the constraint) when a family parameter
    condition fails; the result always has zero Jacobi defect.
    """
    _validate(spec, get_tol(tol))
    c = np.zeros((3, 3, 3))
    for i, j, coeffs in FAMILIES[spec.family_id].brackets(**spec.params):
        c[i, j] = coeffs
        c[j, i] = [-x for x in coeffs]
    return StructureConstants.unchecked(c)


def family_tables(family_id: str, params: Mapping, tol: float | None = None):
    """(c, ok) for N instances of a family given as parameter arrays of
    length N: the bracket tables c of shape (N, 3, 3, 3), bit-identical to
    make_family's, and the mask of the instances that are finite and satisfy
    every constraint (the others would raise in FamilySpec or make_family)."""
    tol = get_tol(tol)
    fam = FAMILIES[family_id]
    p = {k: np.asarray(params[k], dtype=float) for k in fam.params}
    c = np.zeros((len(p[fam.params[0]]), 3, 3, 3))
    with np.errstate(over="ignore", invalid="ignore"):  # such samples are masked out
        ok = np.logical_and.reduce([np.isfinite(v) for v in p.values()])
        for _, holds in fam.constraints:
            ok &= holds(tol=tol, **p)
        for i, j, coeffs in fam.brackets(**p):
            for k, x in enumerate(coeffs):
                c[:, i, j, k] = x
                c[:, j, i, k] = -x
    return c, ok


def identify_group(spec: FamilySpec, tol: float | None = None) -> GroupName:
    """Simply connected group of a family instance, by table lookup."""
    tol = get_tol(tol)
    _validate(spec, tol)
    return FAMILIES[spec.family_id].group(tol=tol, **spec.params)

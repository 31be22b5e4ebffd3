"""Structure constants of three- and six-dimensional Lie algebras.

A bracket table is a plain float array c (..., n, n, n), stacked over any
batch axes. Provides the bracket action and the classification families of
simply connected three-dimensional Lorentzian Lie groups (g1..g7) and the
Riemannian unimodular/non-unimodular families, each declared once in
FAMILIES with its metric, brackets, constraints and sampling sheets. The
simply connected group is read off the brackets alone, of any table, by one
basis-free rule (group_names).

Frame convention: index 0 is the time-like frame vector in Lorentzian
signature; a bracket table c[i][j][k] means [e_i, e_j] = sum_k c[i][j][k] e_k.
"""

from __future__ import annotations

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


def ad_components(u: np.ndarray, c: np.ndarray) -> np.ndarray:
    """ad(u)[k, j] = u^i c[i][j][k], the matrix of v -> [u, v], of stacked
    vectors u (..., n) over stacked bracket tables c (..., n, n, n); the
    batch axes broadcast. The one home of the bracket action."""
    return np.einsum("...i,...ijk->...kj", u, c)


def direct_sum_components(c1: np.ndarray, c2: np.ndarray, rank: int = 3) -> np.ndarray:
    """Block-diagonal arrays (..., n1 + n2, ...) of stacked rank-r arrays c1
    (..., n1, ..., n1) and c2 (..., n2, ..., n2), +0.0 off the blocks: bracket
    tables and connections (rank 3) or 2-tensors; the batch axes broadcast."""
    n1, n2 = c1.shape[-1], c2.shape[-1]
    c = np.zeros(np.broadcast_shapes(c1.shape[:-rank], c2.shape[:-rank]) + (n1 + n2,) * rank)
    c[(...,) + (slice(None, n1),) * rank] = c1
    c[(...,) + (slice(n1, None),) * rank] = c2
    return c


# --- the nine-parameter general 3D bracket -----------------------------------
#
# [e0,e1] = a e0 + b e1 + c e2,  [e1,e2] = d e0 + f e1 + h e2,
# [e0,e2] = g e0 + j e1 + k e2;  parameter order (a,b,c,d,f,h,g,j,k).

# the entries (i, j, k) of (a,b,c,d,f,h,g,j,k) in a bracket table, as index arrays
_NINE = (np.array([0, 0, 0, 1, 1, 1, 0, 0, 0]), np.array([1, 1, 1, 2, 2, 2, 2, 2, 2]),
         np.array([0, 1, 2, 0, 1, 2, 0, 1, 2]))


def nine_params(c: np.ndarray) -> np.ndarray:
    """(a,b,c,d,f,h,g,j,k) (..., 9) of the general 3D bracket from stacked
    tables c (..., 3, 3, 3)."""
    if np.shape(c)[-3:] != (3, 3, 3):
        raise ValueError("nine_params needs 3D bracket tables")
    return np.asarray(c)[(...,) + _NINE]


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
    (message, test) and sampling sheets. Entries, tests, filters and solves
    are called with the parameters (and tol) by keyword, and evaluate the
    same on floats and on equal-length arrays, for make_family, family_tables
    and the scan's sample chunks."""

    params: tuple
    metric: FrameMetric
    brackets: Callable
    constraints: tuple
    sheets: tuple


class _Families(dict):
    def __missing__(self, family_id):
        raise ConstraintViolation(f"unknown family {family_id!r}")


def _generic_a_d(a, d, tol, **_):  # a != 0 and a + d != 0, on floats and arrays
    return (abs(a) > tol) & (abs(a + d) > tol)


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
        (Sheet({"a": None, "b": None}, keep=lambda a, tol, **_: abs(a) > tol),)),
    "g2": Family(("a", "b", "c"), _LORENTZIAN,
        lambda a, b, c: ((1, 2, (-b, 0.0, c)), (1, 0, (c, 0.0, -b)), (2, 0, (0.0, a, 0.0))),
        # Jacobi on this bracket table forces a*c = 0; with c != 0 that means a = 0
        (("c != 0", lambda c, tol, **_: abs(c) > tol),
         ("a c = 0 (Jacobi identity)", lambda a, c, tol, **_: abs(a * c) <= tol)),
        (Sheet({"a": (0.0,), "b": None, "c": None}, keep=lambda c, tol, **_: abs(c) > tol),)),
    "g3": Family(("a", "b", "c"), _LORENTZIAN,
        lambda a, b, c: ((1, 2, (-c, 0.0, 0.0)), (1, 0, (0.0, 0.0, -b)), (2, 0, (0.0, a, 0.0))),
        (), (Sheet({"a": None, "b": None, "c": None}),)),
    "g4": Family(("a", "b", "mu"), _LORENTZIAN,
        lambda a, b, mu: ((1, 2, (2.0 * mu - b, 0.0, -1.0)), (1, 0, (1.0, 0.0, -b)),
                          (2, 0, (0.0, a, 0.0))),
        (("mu in {-1, +1}", lambda mu, **_: abs(mu) == 1.0),),
        (Sheet({"mu": (-1.0, 1.0), "a": None, "b": None}),)),
    "g5": Family(("a", "b", "c", "d"), _LORENTZIAN,
        lambda a, b, c, d: ((1, 0, (0.0, a, b)), (2, 0, (0.0, c, d))),
        (_A_PLUS_D,
         ("a c + b d = 0", lambda a, b, c, d, tol: abs(a * c + b * d) <= tol)),
        (Sheet({"a": None, "b": None, "d": None}, keep=_generic_a_d,
               solve=lambda a, b, d: {"c": -b * d / a}), _A0_SHEET)),
    "g6": Family(("a", "b", "c", "d"), _LORENTZIAN,
        lambda a, b, c, d: ((1, 2, (b, 0.0, a)), (1, 0, (d, 0.0, c))),
        (_A_PLUS_D,
         ("a c - b d = 0", lambda a, b, c, d, tol: abs(a * c - b * d) <= tol)),
        (Sheet({"a": None, "b": None, "d": None}, keep=_generic_a_d,
               solve=lambda a, b, d: {"c": b * d / a}), _A0_SHEET)),
    "g7": Family(("a", "b", "c", "d"), _LORENTZIAN,
        lambda a, b, c, d: ((1, 2, (-b, -a, -b)), (1, 0, (b, a, b)), (2, 0, (d, c, d))),
        (_A_PLUS_D,
         ("a c = 0", lambda a, c, tol, **_: abs(a * c) <= tol)),
        (Sheet({"a": (0.0,), "b": None, "d": None, "c": None},
               keep=lambda d, tol, **_: abs(d) > tol),
         Sheet({"a": None, "b": None, "c": (0.0,), "d": None}, keep=_generic_a_d))),
    "riemannian_unimodular": Family(("mu1", "mu2", "mu3"), _RIEMANNIAN,
        lambda mu1, mu2, mu3: ((1, 2, (mu1, 0.0, 0.0)), (2, 0, (0.0, mu2, 0.0)),
                               (0, 1, (0.0, 0.0, mu3))),
        (), (Sheet({"mu1": None, "mu2": None, "mu3": None}),)),
    "riemannian_nonunimodular": Family(("a", "b", "c", "f"), _RIEMANNIAN,
        lambda a, b, c, f: ((0, 1, (0.0, a, b)), (0, 2, (0.0, c, f))),
        (("a + f = 2", lambda a, f, tol, **_: abs(a + f - 2.0) <= tol),),
        (Sheet({"a": None, "b": None, "c": None}, solve=lambda a, **_: {"f": 2.0 - a}),)),
})

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


def _validate(spec: FamilySpec, tol: float) -> None:
    for constraint, holds in FAMILIES[spec.family_id].constraints:
        if not holds(tol=tol, **spec.params):
            raise ConstraintViolation(f"{spec.family_id}: constraint {constraint} violated")


def make_family(spec: FamilySpec, tol: float | None = None) -> np.ndarray:
    """Bracket table (3, 3, 3), read-only, of a classification family instance.

    Raises ConstraintViolation (naming the constraint) when a family parameter
    condition fails; the result always satisfies the Jacobi identity.
    """
    _validate(spec, get_tol(tol))
    c = np.zeros((3, 3, 3))
    for i, j, coeffs in FAMILIES[spec.family_id].brackets(**spec.params):
        c[i, j] = coeffs
        c[j, i] = [-x for x in coeffs]
    c.flags.writeable = False
    return c


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


# (positive, negative) counts of the eigenvalue signs of n, up to an overall sign
_UNIMODULAR_TABLE = {
    (3, 0): GroupName.SU2, (2, 1): GroupName.SL2R_COVER, (2, 0): GroupName.E2_COVER,
    (1, 1): GroupName.E11_COVER, (1, 0): GroupName.H3, (0, 0): GroupName.R3,
}
_name = np.frompyfunc(lambda unimodular, pos, neg: _UNIMODULAR_TABLE[max(pos, neg), min(pos, neg)]
                      if unimodular else GroupName.NON_UNIMODULAR, 3, 1)


def group_names(c: np.ndarray, tol: float | None = None) -> np.ndarray | GroupName:
    """Simply connected groups of stacked 3D bracket tables c (..., 3, 3, 3):
    an object array (...) of GroupName, or one GroupName for one table. Read
    off the brackets alone, in any basis and with no metric (Milnor 1976; the
    Bianchi types of Ellis and MacCallum 1969): an algebra is unimodular when
    its modular form tr ad(e_i) = c[i, j, j] vanishes, and then the eigenvalue
    signs of the symmetric n^{lk} = 1/2 eps^{ijl} c_ij^k (rows c[1, 2],
    c[2, 0], c[0, 1]), up to an overall sign, name the group; all others are
    NON_UNIMODULAR. Both cuts are relative: a trace or eigenvalue is zero when
    it is at most tol times the largest of them in its table, so any multiple
    of a table keeps its name. Non-finite tables or invariants raise
    ConstraintViolation."""
    c = np.asarray(c, dtype=float)
    if not np.isfinite(c).all():
        raise ConstraintViolation("group_names: bracket tables must be finite")
    n = c[..., (1, 2, 0), (2, 0, 1), :]
    trace = np.einsum("...ijj->...i", c)
    ev = np.linalg.eigvalsh(0.5 * n + 0.5 * np.swapaxes(n, -1, -2))
    cut = get_tol(tol) * np.maximum(np.abs(ev).max(-1), np.abs(trace).max(-1))[..., None]
    if not np.isfinite(cut).all():
        raise ConstraintViolation("group_names: the invariants of a bracket table overflow")
    return _name((np.abs(trace) <= cut).all(-1), (ev > cut).sum(-1), (ev < -cut).sum(-1))

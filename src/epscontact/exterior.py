"""Exterior algebra on a fixed frame with signature-aware Hodge duality.

Forms are stored over strictly increasing frame index tuples (lexicographic
order). The exterior derivative of a left-invariant form keeps only the
bracket terms:

    (d w)(X_0, ..., X_p) = sum_{i<j} (-1)^{i+j} w([X_i, X_j], ..., ^X_i, ..., ^X_j, ...)

with no 1/(p+1) normalization factor. The Hodge dual is fixed by
eta ^ *w = <eta, w> nu on sorted tuples, with <e^I, e^I> = prod_{i in I} eta_i
and nu = o * e^0 ^ ... ^ e^{n-1} for the orientation sign o.

Hodge, d, wedge and the interior product run from index tables built on
first use, once per dimension and degree (and metric signs, for Hodge). Each output component is summed term by term in
the order of the per-tuple definition, starting from +0.0, with the terms
the definition skips held at zero: the results, signed zeros included, are
those of the plain loops over index tuples. The component functions act on
stacked arrays, with leading axes as batch axes.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegreeMismatch, DegreeOverflow


@dataclass(frozen=True)
class FrameMetric:
    """Diagonal frame metric g(e_i, e_j) = eta_i delta_ij, eta_i in {-1, +1}."""

    signs: tuple

    def __post_init__(self):
        signs = tuple(int(s) for s in self.signs)
        if any(s not in (-1, 1) for s in signs):
            raise ValueError("metric signs must be +-1")
        if signs.count(-1) > 1:
            raise ValueError("at most one negative sign (Riemannian or Lorentzian)")
        object.__setattr__(self, "signs", signs)

    @property
    def dim(self) -> int:
        return len(self.signs)

    @property
    def s_g(self) -> int:
        """+1 for Riemannian, -1 for Lorentzian signature."""
        return -1 if -1 in self.signs else 1

    @property
    def eta(self) -> np.ndarray:
        return np.asarray(self.signs, dtype=float)

    @classmethod
    def lorentzian(cls, dim: int = 3) -> "FrameMetric":
        return cls((-1,) + (1,) * (dim - 1))

    @classmethod
    def riemannian(cls, dim: int = 3) -> "FrameMetric":
        return cls((1,) * dim)


def _check_orientation(o: int) -> int:
    o = int(o)
    if o not in (-1, 1):
        raise ValueError("orientation sign must be +-1")
    return o


@lru_cache(maxsize=None)
def index_tuples(n: int, k: int):
    """Strictly increasing k-tuples from range(n), lexicographic."""
    return tuple(itertools.combinations(range(n), k))


@lru_cache(maxsize=None)
def tuple_positions(n: int, k: int):
    return {t: p for p, t in enumerate(index_tuples(n, k))}


def sort_sign(indices):
    """(sign, sorted tuple) of an index sequence; sign 0 on repeats."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return 0, tuple(idx)
    return sign, tuple(idx)


def _ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis in index order, starting from +0.0."""
    acc = np.zeros(terms.shape[:-1])
    for t in range(terms.shape[-1]):
        acc += terms[..., t]
    return acc


@lru_cache(maxsize=None)
def _hodge_table(signs: tuple, k: int):
    """(perm, fac) with *e^I = o * fac[I] * e^{perm[I]} over the sorted k-tuples I."""
    n = len(signs)
    pos = tuple_positions(n, n - k)
    perm, fac = [], []
    for t in index_tuples(n, k):
        comp = tuple(i for i in range(n) if i not in t)
        sign, _ = sort_sign(t + comp)
        perm.append(pos[comp])
        fac.append(sign * math.prod(signs[i] for i in t))
    return np.array(perm, dtype=np.intp), np.array(fac, dtype=float)


@lru_cache(maxsize=None)
def _d_table(n: int, k: int):
    """(cidx, pos, sign, live), each of shape (C(n, k+1), C(k+1, 2) * n): the
    terms sign * c.flat[cidx] * w[pos] of every component of d w, in the order
    of (p, q, l) in the bracket formula; where an index repeats, live is False
    and w counts as zero."""
    wpos = tuple_positions(n, k)
    rows = []
    for t in index_tuples(n, k + 1):
        row = []
        for p in range(k + 1):
            for q in range(p + 1, k + 1):
                rest = t[:p] + t[p + 1:q] + t[q + 1:]
                for l in range(n):
                    sign, key = sort_sign((l,) + rest)
                    row.append((
                        (t[p] * n + t[q]) * n + l,
                        wpos[key] if sign else 0,
                        (-1) ** (p + q) * (sign or 1),
                        sign != 0,
                    ))
        rows.append(row)
    table = np.array(rows, dtype=np.intp).reshape(len(rows), math.comb(k + 1, 2) * n, 4)
    return table[..., 0], table[..., 1], table[..., 2].astype(float), table[..., 3] == 1


@lru_cache(maxsize=None)
def _wedge_table(n: int, ka: int, kb: int):
    """(ia, ib, sign), each of shape (C(n, ka+kb), C(ka+kb, ka)): the splits of
    every output tuple into a ka-tuple and a kb-tuple, in loop order of the
    (ka-tuple, kb-tuple) pairs."""
    pos = tuple_positions(n, ka + kb)
    rows = [[] for _ in pos]
    for ia, ta in enumerate(index_tuples(n, ka)):
        for ib, tb in enumerate(index_tuples(n, kb)):
            sign, key = sort_sign(ta + tb)
            if sign:
                rows[pos[key]].append((ia, ib, sign))
    table = np.array(rows, dtype=np.intp).reshape(len(rows), math.comb(ka + kb, ka), 3)
    return table[..., 0], table[..., 1], table[..., 2].astype(float)


@lru_cache(maxsize=None)
def _interior_table(n: int, k: int):
    """(pos, sign, live), each of shape (C(n, k-1), n): (iota_v w)_t = sum_i
    v_i * sign * w[pos] in order of i; live is False, and w counts as zero,
    for i in t."""
    wpos = tuple_positions(n, k)
    rows = []
    for t in index_tuples(n, k - 1):
        row = []
        for i in range(n):
            sign, key = sort_sign((i,) + t)
            row.append((wpos[key] if sign else 0, sign or 1, sign != 0))
        rows.append(row)
    table = np.array(rows, dtype=np.intp).reshape(len(rows), n, 3)
    return table[..., 0], table[..., 1].astype(float), table[..., 2] == 1


def hodge_components(comps: np.ndarray, signs: tuple, degree: int, orientation: int) -> np.ndarray:
    """Hodge dual of stacked degree-k component vectors (..., C(n, k))."""
    perm, fac = _hodge_table(tuple(signs), degree)
    out = np.zeros(comps.shape[:-1] + (perm.size,))
    out[..., perm] += _check_orientation(orientation) * fac * comps
    return out


def d_components(comps: np.ndarray, c: np.ndarray, degree: int) -> np.ndarray:
    """d of stacked left-invariant degree-k components (..., C(n, k)) over
    stacked bracket tables c (..., n, n, n); the batch axes broadcast."""
    n = c.shape[-1]
    cidx, pos, sign, live = _d_table(n, degree)
    coef = c.reshape(c.shape[:-3] + (n ** 3,))[..., cidx]
    # the bracket formula skips zero coefficients: with a non-finite w the
    # product would not be zero
    w = np.where((coef != 0.0) & live, comps[..., pos], 0.0)
    return _ordered_sum(sign * coef * w)


def interior_components(v: np.ndarray, comps: np.ndarray, degree: int) -> np.ndarray:
    """iota_v of stacked degree-k components (..., C(n, k)) by vectors v (..., n)."""
    pos, sign, live = _interior_table(v.shape[-1], degree)
    v = v[..., None, :]
    w = np.where((v != 0.0) & live, sign * comps[..., pos], 0.0)
    return _ordered_sum(v * w)


@dataclass(frozen=True)
class Form:
    """Degree-k alternating form with constant (left-invariant) coefficients."""

    degree: int
    dim: int
    comps: np.ndarray

    def __post_init__(self):
        # degree dim+1 is the zero space (no components); needed so that the
        # differential of a top-degree form has a representation
        if not 0 <= self.degree <= self.dim + 1:
            raise ValueError("degree out of range")
        comps = np.asarray(self.comps, dtype=float).copy()
        if comps.shape != (math.comb(self.dim, self.degree),):
            raise ValueError("component vector has wrong length")
        comps.flags.writeable = False
        object.__setattr__(self, "comps", comps)

    @classmethod
    def zero(cls, degree: int, dim: int) -> "Form":
        return cls(degree, dim, np.zeros(math.comb(dim, degree)))

    @classmethod
    def from_components(cls, degree: int, dim: int, entries) -> "Form":
        """Build from {index-tuple: value} entries (tuples need not be sorted)."""
        comps = np.zeros(math.comb(dim, degree))
        pos = tuple_positions(dim, degree)
        for idx, val in dict(entries).items():
            sign, key = sort_sign(tuple(idx))
            if sign == 0:
                continue
            comps[pos[key]] += sign * val
        return cls(degree, dim, comps)

    def value(self, indices) -> float:
        """Evaluate on an arbitrary frame index tuple (antisymmetric extension)."""
        sign, key = sort_sign(tuple(indices))
        if sign == 0:
            return 0.0
        return sign * float(self.comps[tuple_positions(self.dim, self.degree)[key]])

    def to_array(self) -> np.ndarray:
        """Fully antisymmetric coefficient array of shape (dim,) * degree."""
        arr = np.zeros((self.dim,) * self.degree)
        for t, val in zip(index_tuples(self.dim, self.degree), self.comps):
            if val == 0.0:
                continue
            for perm in itertools.permutations(t):
                sign, _ = sort_sign(perm)
                arr[perm] = sign * val
        return arr

    def __add__(self, other: "Form") -> "Form":
        if (self.degree, self.dim) != (other.degree, other.dim):
            raise DegreeMismatch("cannot add forms of different degree or dimension")
        return Form(self.degree, self.dim, self.comps + other.comps)

    def __sub__(self, other: "Form") -> "Form":
        return self + (-1.0) * other

    def __rmul__(self, scalar: float) -> "Form":
        return Form(self.degree, self.dim, float(scalar) * self.comps)

    def __neg__(self) -> "Form":
        return (-1.0) * self

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.comps))) if self.comps.size else 0.0

    def to_json(self) -> str:
        entries = {
            ",".join(map(str, t)): float(v)
            for t, v in zip(index_tuples(self.dim, self.degree), self.comps)
            if v != 0.0
        }
        return json.dumps(
            {"degree": self.degree, "dim": self.dim, "comps": entries}, sort_keys=True
        )

    @classmethod
    def from_json(cls, text: str) -> "Form":
        data = json.loads(text)
        entries = {
            tuple(int(i) for i in key.split(",")) if key else (): val
            for key, val in data["comps"].items()
        }
        return cls.from_components(int(data["degree"]), int(data["dim"]), entries)


def basis_one_form(i: int, dim: int) -> Form:
    comps = np.zeros(dim)
    comps[i] = 1.0
    return Form(1, dim, comps)


def one_form(coeffs) -> Form:
    coeffs = np.asarray(coeffs, dtype=float)
    return Form(1, coeffs.size, coeffs)


def wedge(a: Form, b: Form) -> Form:
    """Exterior product; concatenated index tuples with permutation sign."""
    if a.dim != b.dim:
        raise DegreeMismatch("forms live on frames of different dimension")
    k = a.degree + b.degree
    if k > a.dim:
        raise DegreeOverflow(f"degree {k} exceeds dimension {a.dim}")
    ia, ib, sign = _wedge_table(a.dim, a.degree, b.degree)
    va, vb = a.comps[ia], b.comps[ib]
    live = (va != 0.0) & (vb != 0.0)
    return Form(k, a.dim, _ordered_sum(sign * np.where(live, va, 0.0) * np.where(live, vb, 0.0)))


def volume_form(m: FrameMetric, orientation: int) -> Form:
    o = _check_orientation(orientation)
    return Form(m.dim, m.dim, np.array([float(o)]))


def hodge(w: Form, m: FrameMetric, orientation: int) -> Form:
    """Hodge dual: *e^I = o * (prod_{i in I} eta_i) * sign(I, I^c) * e^{I^c}."""
    if w.dim != m.dim:
        raise DegreeMismatch("form and metric dimension differ")
    return Form(w.dim - w.degree, w.dim, hodge_components(w.comps, m.signs, w.degree, orientation))


def mc_differential(w: Form, sc) -> Form:
    """Exterior derivative of a left-invariant form via the bracket terms."""
    n, k = w.dim, w.degree
    if sc.dim != n:
        raise DegreeMismatch("form and bracket table dimension differ")
    return Form(k + 1, n, d_components(w.comps, sc.c, k))


def pairing_sorted(a: Form, b: Form, m: FrameMetric) -> float:
    """Sorted-tuple metric pairing: sum_I a_I b_I prod_{i in I} eta_i."""
    if a.degree != b.degree or a.dim != b.dim:
        raise DegreeMismatch("pairing requires forms of equal degree and dimension")
    eta = m.signs
    total = 0.0
    for t, va, vb in zip(index_tuples(a.dim, a.degree), a.comps, b.comps):
        if va == 0.0 or vb == 0.0:
            continue
        eta_i = 1
        for i in t:
            eta_i *= eta[i]
        total += eta_i * va * vb
    return total


def pairing_full(a: Form, b: Form, m: FrameMetric) -> float:
    """All-tuples contraction a_{i1..ik} b^{i1..ik} = k! * sorted pairing."""
    return math.factorial(a.degree) * pairing_sorted(a, b, m)


def sharp(alpha: Form, m: FrameMetric) -> np.ndarray:
    """Vector frame components of a one-form: v^i = eta_i alpha_i."""
    if alpha.degree != 1:
        raise DegreeMismatch("sharp acts on one-forms")
    return m.eta * alpha.comps


def flat(v: np.ndarray, m: FrameMetric) -> Form:
    """One-form dual of a frame-component vector: alpha_i = eta_i v^i."""
    v = np.asarray(v, dtype=float)
    return Form(1, m.dim, m.eta * v)


def interior_product(v: np.ndarray, w: Form) -> Form:
    """Contraction (iota_v w)(...) = w(v, ...)."""
    if w.degree < 1:
        raise DegreeMismatch("interior product needs degree >= 1")
    v = np.asarray(v, dtype=float)
    return Form(w.degree - 1, w.dim, interior_components(v, w.comps, w.degree))

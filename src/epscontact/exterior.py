"""Exterior algebra on a fixed frame with signature-aware Hodge duality.

A left-invariant degree-k form on an n-dimensional frame is its component
vector: a float array of length C(n, k) over the strictly increasing index
tuples in lexicographic order. Its degree is passed explicitly to every
operator. The exterior derivative keeps only the bracket terms:

    (d w)(X_0, ..., X_p) = sum_{i<j} (-1)^{i+j} w([X_i, X_j], ..., ^X_i, ..., ^X_j, ...)

with no 1/(p+1) normalization factor. The Hodge dual is fixed by
eta ^ *w = <eta, w> nu on sorted tuples, with <e^I, e^I> = prod_{i in I} eta_i
and nu = o * e^0 ^ ... ^ e^{n-1} for the orientation sign o.

Hodge, d, wedge, the interior product, the full antisymmetric array and the
3D -> 6D embedding run from index tables built on first use, once per
dimension and degree (and metric signs, for Hodge). Each output component is
summed term by term in the order of the per-tuple definition, starting from
+0.0, with the terms the definition skips held at zero: the results, signed
zeros included, are those of the plain loops over index tuples. Every
operator acts on stacked arrays, with leading axes as batch axes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


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


def _check_orientation(o):
    """o as an int, or an int array for stacked orientations; each must equal
    +-1 exactly (1.5 is not +1)."""
    if isinstance(o, np.ndarray) and o.ndim:
        if not np.all((o == 1) | (o == -1)):
            raise ValueError("orientation sign must be +-1")
        return o.astype(int)
    if o not in (-1, 1):
        raise ValueError("orientation sign must be +-1")
    return int(o)


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
    if terms.ndim == 1:  # a single sum costs less in Python floats than in 0-d arrays
        total = 0.0
        for t in terms.tolist():
            total += t
        return np.float64(total)
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


@lru_cache(maxsize=None)
def _antisymmetric_table(n: int, k: int):
    """(pos, sign, live), each of shape (n ** k,): entry i_1..i_k of the full
    array is sign * w[pos]; live is False, and the entry +0.0, where an index
    repeats."""
    wpos = tuple_positions(n, k)
    rows = []
    for idx in itertools.product(range(n), repeat=k):
        sign, key = sort_sign(idx)
        rows.append((wpos[key] if sign else 0, sign or 1, sign != 0))
    table = np.array(rows, dtype=np.intp).reshape(n ** k, 3)
    return table[:, 0], table[:, 1].astype(float), table[:, 2] == 1


@lru_cache(maxsize=None)
def _embed_table(k: int, offset: int) -> np.ndarray:
    """Positions among the 6D k-tuples of the 3D k-tuples shifted by offset."""
    pos = tuple_positions(6, k)
    return np.array([pos[tuple(i + offset for i in t)] for t in index_tuples(3, k)],
                    dtype=np.intp)


def hodge_components(comps: np.ndarray, signs: tuple, degree: int, orientation) -> np.ndarray:
    """Hodge dual of stacked degree-k component vectors (..., C(n, k)); the
    orientation is one sign or an array of signs over the batch axes."""
    perm, fac = _hodge_table(tuple(signs), degree)
    o = _check_orientation(orientation)
    if isinstance(o, np.ndarray):
        o = o[..., None]
    terms = o * fac * comps
    out = np.zeros(terms.shape)
    out[..., perm] += terms
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


def wedge_components(a: np.ndarray, b: np.ndarray, n: int, ka: int, kb: int) -> np.ndarray:
    """Exterior product of stacked degree-ka and degree-kb component vectors
    on an n-dimensional frame: concatenated index tuples with permutation
    sign, skipping the terms with a zero factor."""
    ia, ib, sign = _wedge_table(n, ka, kb)
    va, vb = a[..., ia], b[..., ib]
    live = (va != 0.0) & (vb != 0.0)
    return _ordered_sum(sign * np.where(live, va, 0.0) * np.where(live, vb, 0.0))


def antisymmetric_array(comps: np.ndarray, n: int, degree: int) -> np.ndarray:
    """Fully antisymmetric coefficient arrays (..., n, ..., n) of stacked
    degree-k component vectors; zero components give +0.0 entries."""
    pos, sign, live = _antisymmetric_table(n, degree)
    w = comps[..., pos]
    out = np.where(live & (w != 0.0), sign * w, 0.0)
    return out.reshape(comps.shape[:-1] + (n,) * degree)


def embed_components(comps: np.ndarray, degree: int, offset: int) -> np.ndarray:
    """Lift stacked degree-k components of a 3D factor into the 6D frame at
    index offset 0 or 3; zero components give +0.0."""
    out = np.zeros(comps.shape[:-1] + (math.comb(6, degree),))
    out[..., _embed_table(degree, offset)] += comps
    return out


@lru_cache(maxsize=None)
def _pairing_signs(signs: tuple, k: int) -> np.ndarray:
    """prod_{i in I} eta_i over the sorted k-tuples I."""
    out = np.array([math.prod(signs[i] for i in t) for t in index_tuples(len(signs), k)],
                   dtype=float)
    out.flags.writeable = False  # shared by every caller
    return out


def pairing_components(a: np.ndarray, b: np.ndarray, signs: tuple, degree: int) -> np.ndarray:
    """Sorted-tuple pairing of stacked degree-k component vectors (..., C(n, k)):
    sum_I a_I b_I prod_{i in I} eta_i, skipping the terms with a zero factor."""
    if a is not b:  # a zero times an inf or NaN is skipped, not NaN
        live = (a != 0.0) & (b != 0.0)
        a, b = np.where(live, a, 0.0), np.where(live, b, 0.0)
    return _ordered_sum(_pairing_signs(tuple(signs), degree) * a * b)

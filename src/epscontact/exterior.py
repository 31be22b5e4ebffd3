"""Exterior algebra on a fixed frame with signature-aware Hodge duality.

A left-invariant degree-k form on an n-dimensional frame is its component
vector: a float array of length C(n, k) over the strictly increasing index
tuples in lexicographic order. Its degree is passed explicitly to every
operator. The exterior derivative keeps only the bracket terms:

    (d w)(X_0, ..., X_p) = sum_{i<j} (-1)^{i+j} w([X_i, X_j], ..., ^X_i, ..., ^X_j, ...)

with no 1/(p+1) normalization factor. The Hodge dual is fixed by
eta ^ *w = <eta, w> nu on sorted tuples, with <e^I, e^I> = prod_{i in I} eta_i
and nu = o * e^0 ^ ... ^ e^{n-1} for the orientation sign o.

Hodge, d, the full antisymmetric array and the 6D torsion form's gather
run from index tables built on first use, once per dimension and degree
(and metric signs), whose entries one rule places (_placed): the position
of the sorted index tuple, the sign of the sort, and whether an index
repeats. Each output component is summed term by term in the
order of the per-tuple definition, starting from +0.0, with the terms the
definition skips held at zero: the results, signed zeros included, are
those of the plain loops over index tuples. Every operator acts on stacked
arrays, with leading axes as batch axes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

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

    @cached_property
    def eta(self) -> np.ndarray:
        """The signs as a float array, built once per metric and read-only."""
        eta = np.asarray(self.signs, dtype=float)
        eta.flags.writeable = False  # shared by every caller
        return eta

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
        if not ((o == 1) | (o == -1)).all():
            raise ValueError("orientation sign must be +-1")
        return o.astype(int, copy=False)
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
    """(sign, sorted tuple) of an index sequence: the parity of its
    inversions, or 0 on repeats."""
    idx = tuple(indices)
    key = tuple(sorted(idx))
    if len(set(idx)) < len(idx):
        return 0, key
    return (-1) ** sum(a > b for a, b in itertools.combinations(idx, 2)), key


def _placed(idx, n: int) -> tuple:
    """(pos, sign, live) of an index sequence on an n-dimensional frame:
    w(e_idx) = sign * w[pos] for the components w of degree len(idx); where
    an index repeats, live is False, pos 0 and sign 1."""
    sign, key = sort_sign(idx)
    return (tuple_positions(n, len(key))[key] if sign else 0), sign or 1, sign != 0


def _columns(rows: list, shape: tuple) -> tuple:
    """The columns of a table of rows (index, ..., sign, live) of the given
    shape, the last axis the row: integer indices, float signs and boolean
    live flags."""
    *index, sign, live = np.moveaxis(np.array(rows, dtype=np.intp).reshape(shape), -1, 0)
    return (*index, sign.astype(float), live == 1)


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
    """(src, fac) with (*w)_J = o * fac[J] * w[src[J]] over the sorted
    (n-k)-tuples J: *e^I = o * fac[J] * e^J for I the complement of J."""
    n = len(signs)
    pos, rows = tuple_positions(n, k), []
    for comp in index_tuples(n, n - k):
        t = tuple(i for i in range(n) if i not in comp)
        _, sign, live = _placed(t + comp, n)  # nu(e_t, e_comp) = o * sign
        rows.append((pos[t], sign * math.prod(signs[i] for i in t), live))
    return _columns(rows, (len(rows), 3))[:2]


@lru_cache(maxsize=None)
def _d_table(n: int, k: int):
    """(cidx, pos, sign, live), each of shape (C(n, k+1), C(k+1, 2) * n): the
    terms sign * c.flat[cidx] * w[pos] of every component of d w, in the order
    of (p, q, l) in the bracket formula; where an index repeats, live is False
    and w counts as zero."""
    rows = []
    for t in index_tuples(n, k + 1):
        for p in range(k + 1):
            for q in range(p + 1, k + 1):
                rest = t[:p] + t[p + 1:q] + t[q + 1:]
                for l in range(n):
                    pos, sign, live = _placed((l,) + rest, n)
                    rows.append(((t[p] * n + t[q]) * n + l, pos, (-1) ** (p + q) * sign, live))
    return _columns(rows, (math.comb(n, k + 1), math.comb(k + 1, 2) * n, 4))


@lru_cache(maxsize=None)
def _antisymmetric_table(n: int, k: int):
    """(pos, sign, live), each of shape (n ** k,): entry i_1..i_k of the full
    array is sign * w[pos]; live is False, and the entry +0.0, where an index
    repeats."""
    rows = [_placed(idx, n) for idx in itertools.product(range(n), repeat=k)]
    return _columns(rows, (n ** k, 3))


@lru_cache(maxsize=None)
def _product_table(signs_n: tuple, signs_x: tuple):
    """(ka, kb, sign, live), each of shape (4, 20), and of_n (4, 1): the
    3-forms nu_N, (*a) ^ b, a ^ (*b) and nu_X on the 6D frame of a product of
    3D frames N (indices 0-2) and X (3-5), for one-forms a on N and b on X.
    Component t of form f is sign * o * a[ka] * b[kb] with a and b extended
    by a 1 and o the orientation of N where of_n[f], else of X; where live is
    False it is +0.0. The signs are the Hodge tables' times the wedge's."""
    pairs = index_tuples(3, 2)
    (src_n, fac_n), (src_x, fac_x) = _hodge_table(signs_n, 1), _hodge_table(signs_x, 1)
    terms = [(0, (0, 1, 2), 3, 3, 1.0), (3, (3, 4, 5), 3, 3, 1.0)]
    for q, i in itertools.product(range(3), repeat=2):  # q: the pair of *a or *b
        terms.append((1, pairs[q] + (3 + i,), src_n[q], i, fac_n[q]))
        terms.append((2, (i,) + tuple(3 + j for j in pairs[q]), i, src_x[q], fac_x[q]))
    table = np.tile(np.intp([0, 0, 1, 0]), (4, 20, 1))  # rows (ka, kb, sign, live)
    for f, t, a, b, fac in terms:
        pos, wedge_sign, _ = _placed(t, 6)
        table[f, pos] = a, b, wedge_sign * fac, True
    return (*_columns(table, table.shape), np.array([[True], [True], [False], [False]]))


def hodge_components(comps: np.ndarray, signs: tuple, degree: int, orientation) -> np.ndarray:
    """Hodge dual of stacked degree-k component vectors (..., C(n, k)); the
    orientation is one sign or an array of signs over the batch axes."""
    src, fac = _hodge_table(tuple(signs), degree)
    o = _check_orientation(orientation)
    if isinstance(o, np.ndarray):
        o = o[..., None]
    return o * fac * np.take(comps, src, axis=-1) + 0.0  # + 0.0: the definition's sum from +0.0


def d_components(comps: np.ndarray, c: np.ndarray, degree: int) -> np.ndarray:
    """d of stacked left-invariant degree-k components (..., C(n, k)) over
    stacked bracket tables c (..., n, n, n); the batch axes broadcast."""
    n = c.shape[-1]
    cidx, pos, sign, live = _d_table(n, degree)
    coef = c.reshape(c.shape[:-3] + (n ** 3,)).take(cidx, axis=-1)
    # the bracket formula skips zero coefficients: with a non-finite w the
    # product would not be zero
    w = np.where((coef != 0.0) & live, comps.take(pos, axis=-1), 0.0)
    return _ordered_sum(sign * coef * w)


def antisymmetric_array(comps: np.ndarray, n: int, degree: int) -> np.ndarray:
    """Fully antisymmetric coefficient arrays (..., n, ..., n) of stacked
    degree-k component vectors; zero components give +0.0 entries."""
    pos, sign, live = _antisymmetric_table(n, degree)
    w = comps[..., pos]
    out = np.where(live & (w != 0.0), sign * w, 0.0)
    return out.reshape(comps.shape[:-1] + (n,) * degree)


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

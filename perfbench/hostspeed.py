"""Host-speed probe.

The benchmark runs on shared cores whose speed drifts by tens of percent
within seconds: CPU time tracks wall time, so the program runs slower, it
is not preempted. Each timed piece of work is bracketed by :func:`probe`,
a fixed kernel that uses nothing from the library. A piece's time is
reported at reference speed:

    normalized = raw * REFERENCE_S / (mean of the probes before and after)

so a host that runs everything 30% slower for a few seconds leaves the
normalized time unchanged, while a change of the library's own speed moves
it fully, because the probe does not run library code. The kernel mixes
what the library does: Python loops over index tuples with dict and float
work, small 3x3 and 6x6 numpy operations and linear algebra, and
finite-difference stencils on a grid of a few hundred kB.
"""

from __future__ import annotations

import itertools
import statistics
from time import perf_counter

import numpy as np

# median probe time on a 2-vCPU VM (Python 3.11, numpy 2.4) in a quiet
# minute; only a unit for the normalized times, any fixed value would do
REFERENCE_S = 0.010

_RNG = np.random.default_rng(20191220)
_M3 = _RNG.standard_normal((3, 3))
_C3 = _RNG.standard_normal((3, 3, 3))
_M6 = _RNG.standard_normal((6, 6))
_V6 = _RNG.standard_normal(6)
_FIELD = _RNG.standard_normal((192, 192))
_TRIPLES = list(itertools.product(range(3), repeat=3))


def _kernel() -> float:
    acc = 0.0
    table: dict = {}
    for _ in range(18):
        for i, j, k in _TRIPLES:
            key = (i, j, k)
            table[key] = table.get(key, 0.0) + _C3[i, j, k] * (1.0 if i < j else -0.5)
        acc += sum(v * v for v in table.values())
    for _ in range(120):
        g = _M3 @ _M3.T + np.eye(3)
        acc += float(np.linalg.det(g))
        acc += float(np.einsum("ijk,jk->i", _C3, g).sum())
        acc += float(np.linalg.svd(_M6, compute_uv=False)[0])
        acc += float(np.linalg.solve(_M6 + 6 * np.eye(6), _V6)[0])
    f = _FIELD
    for _ in range(12):
        lap = (np.roll(f, 1, 0) + np.roll(f, -1, 0) + np.roll(f, 1, 1)
               + np.roll(f, -1, 1) - 4.0 * f)
        acc += float(np.abs(lap).max())
    return acc


def probe() -> float:
    """Wall time of one run of the fixed kernel."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


class Clock:
    """Runs pieces of work, each between two probes, and sums their raw and
    their normalized times. With ``probes`` > 1 each probe is the median of
    that many kernel runs, for pieces too few to average out a probe's own
    jitter."""

    def __init__(self, probes: int = 1):
        self.probes = probes
        self.raw_s = 0.0
        self.norm_s = 0.0
        self._last = self._probe()

    def _probe(self) -> float:
        return statistics.median(probe() for _ in range(self.probes))

    def __call__(self, fn, *args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        dt = perf_counter() - t0
        after = self._probe()
        self.raw_s += dt
        self.norm_s += dt * REFERENCE_S / ((self._last + after) / 2)
        self._last = after
        return out

    def lap(self) -> tuple:
        """(raw, normalized) seconds since the last lap; starts a new one."""
        out = (self.raw_s, self.norm_s)
        self.raw_s = self.norm_s = 0.0
        return out

"""Global numerical tolerance.

"Zero" throughout the library means |x| <= tol on O(1)-normalized inputs.
The default is 1e-9 absolute and can be overridden per call.
"""

from __future__ import annotations

import math

DEFAULT_TOL = 1e-9


def get_tol(tol: float | None = None) -> float:
    """Resolve an optional per-call tolerance against the default."""
    if tol is None:
        return DEFAULT_TOL
    try:
        value = float(tol)
    except (TypeError, ValueError):
        raise ValueError(f"tolerance must be a number, got {tol!r}") from None
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    return value

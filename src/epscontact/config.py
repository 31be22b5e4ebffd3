"""Global numerical tolerance.

"Zero" throughout the library means |x| <= tol on O(1)-normalized inputs.
The default is 1e-9 absolute and can be overridden per call or by the
``EPSCONTACT_TOL`` environment variable, which is read on first use.
"""

from __future__ import annotations

import math
import os

DEFAULT_TOL = 1e-9

_tol: float | None = None


def _checked(tol, source: str) -> float:
    try:
        value = float(tol)
    except (TypeError, ValueError):
        raise ValueError(f"{source} must be a number, got {tol!r}") from None
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{source} must be positive and finite, got {tol!r}")
    return value


def get_tol(tol: float | None = None) -> float:
    """Resolve an optional per-call tolerance against EPSCONTACT_TOL or the default."""
    global _tol
    if tol is not None:
        return _checked(tol, "tolerance")
    if _tol is None:
        _tol = _checked(os.environ.get("EPSCONTACT_TOL", DEFAULT_TOL), "EPSCONTACT_TOL")
    return _tol

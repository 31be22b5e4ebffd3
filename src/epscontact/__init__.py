"""Curvature, contact-metric and product-solution toolkit for left-invariant
structures on three-dimensional Lie groups.

Core entry points:

- liealg: structure constants, classification families, group lookup
- exterior: forms as component vectors: wedge, Hodge dual, invariant exterior derivative
- curvature: Koszul connection, Riemann/Ricci, closed-form oracle, torsion
- contact: contact structures of any causal type and their invariants
- einstein: eta-Einstein fits, table verification, parameter scans
- product6d: six-dimensional product solutions and their field equations
- cauchy: finite-difference constraint/evolution residuals on 2D grids
- cli: the `epscontact` command
"""

from .config import get_tol
from .exterior import FrameMetric
from .liealg import FamilySpec, GroupName, StructureConstants

__all__ = [
    "FamilySpec",
    "FrameMetric",
    "GroupName",
    "StructureConstants",
    "get_tol",
]

__version__ = "0.1.0"

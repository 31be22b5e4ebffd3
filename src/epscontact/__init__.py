"""Curvature, contact-metric and product-solution toolkit for left-invariant
structures on three-dimensional Lie groups.

Core entry points:

- liealg: bracket tables as plain arrays, classification families, group_names
- exterior: forms as component vectors: Hodge dual, invariant exterior derivative
- curvature: Koszul connection, Riemann/Ricci, closed-form oracle, torsion
- contact: contact structures of any causal type and their invariants
- einstein: eta-Einstein fits and parameter scans
- tables: the classification tables and their row-by-row verification
- product6d: six-dimensional product solutions and their field equations
- cauchy: finite-difference constraint/evolution residuals on 2D grids
- oracle: the curvature pipeline against the closed-form Ricci
- cli: the `epscontact` command

Importing the package loads none of them: import names from their modules.
"""

__version__ = "0.1.0"

"""Per-solution reference for the stacked catalog pass: each (row, l)
built with row.build and verified with build_solution and
verify_supergravity on its own. product6d.run_catalog must give the same
results, bit for bit."""

import numpy as np

from epscontact.config import get_tol
from epscontact.errors import EpsContactError
from epscontact.product6d import (CatalogResult, SugraResiduals, build_solution, catalog_rows,
                                  verify_supergravity)


def run_catalog(epsilon_n, l_samples, tol=None) -> list:
    tol = get_tol(tol)
    results = []
    for row in catalog_rows(epsilon_n):
        for l in row.ls(l_samples):
            try:
                n, x, lam = row.build(l)
                res = verify_supergravity(build_solution(n, x, lam, l, tol=tol))
            except EpsContactError as exc:
                results.append(
                    CatalogResult(row.name, epsilon_n, l, float("nan"),
                                  SugraResiduals(np.inf, np.inf, np.inf, np.inf), False,
                                  f"{type(exc).__name__}: {exc}")
                )
                continue
            results.append(CatalogResult(row.name, epsilon_n, l, lam, res, res.is_solution(tol)))
    return results

"""Command-line front end.

Subcommands: oracle, verify-tables, scan, solution, catalog, cauchy.
Reports are deterministic (same command, seed and tol produce byte-identical
output) and are written as JSON or CSV to stdout or --output.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage/config error
(bad input is rejected with a one-line message before any work; a report
that cannot be written exits 2 the same way, after it).

Each handler imports the library modules it runs, so a command loads only
those.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from .config import get_tol
from .errors import EpsContactError


# numeric flags, by argparse dest, that must be a positive count or finite
POSITIVE_FLAGS = ("samples", "grid", "nx", "ny", "parallelism")
FINITE_FLAGS = ("lo", "hi", "dt", "l1", "l2", "f0")


def _check_args(args) -> None:
    """Reject out-of-range numeric input before any work is done."""
    for name in POSITIVE_FLAGS:
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise ValueError(f"--{name} must be a positive integer, got {value}")
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    for name in FINITE_FLAGS:
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"--{name} must be finite, got {value}")


def _flatten(prefix: str, value, row: dict) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, row)
    elif isinstance(value, (list, tuple)):
        row[prefix] = json.dumps(value, sort_keys=True)
    else:
        row[prefix] = value


def write_report(report: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2, default=float) + "\n"
    else:
        rows = []
        for item in report.get("items", []):
            row: dict = {}
            _flatten("", item, row)
            rows.append(row)
        header = list(dict.fromkeys(key for row in rows for key in row))
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_oracle(args) -> tuple:
    from .oracle import run_oracle

    report = run_oracle(samples=args.samples, seed=args.seed, tol=args.tol)
    items = [
        {"family": fam, **vals} for fam, vals in sorted(report.per_family.items())
    ]
    out = {
        "samples": report.samples,
        "max_ricci_dev": report.max_ricci_dev,
        "max_scalar_dev": report.max_scalar_dev,
        "items": items,
    }
    for item in (*items, out):  # a NaN deviation already fails passed()
        _null_non_finite(item)
    return report.passed(args.tol), out


def cmd_verify_tables(args) -> tuple:
    from . import tables

    table_ids = [tables.resolve_table(args.theorem)] if args.theorem else list(tables.TABLES)
    items = []
    passed = True
    for table_id in table_ids:
        rows = []
        for row in tables.table_rows(table_id):
            rep = tables.verify_table_row(table_id, row, tol=args.tol)
            passed = passed and rep.passed
            rows.append(
                {
                    "row": rep.row_id,
                    "pass": rep.passed,
                    "params": rep.instances[0].params,
                    "instances": len(rep.instances),
                    "checks": rep.checks(),
                    "failures": [
                        {"label": i.label, "reason": i.failure}
                        for i in rep.instances
                        if not i.passed
                    ],
                    "lambda2": rep.instances[0].lambda2,
                    "kappa": rep.instances[0].kappa,
                }
            )
        items.append({"theorem": table_id, "rows": rows})
    return passed, {"items": items}


def cmd_scan(args) -> tuple:
    from .einstein import default_grid, scan_family
    from .liealg import FAMILIES

    if FAMILIES[args.family].metric.s_g == 1 and args.epsilon != 1:  # nothing to sample
        raise ValueError(f"--epsilon {args.epsilon}: a Riemannian family has epsilon = 1 only")
    if args.grid > 1 and args.lo == args.hi:  # every grid point would be the same sample
        raise ValueError(f"--lo and --hi must differ for --grid {args.grid}, both are {args.lo}")
    grid = default_grid(args.grid, args.lo, args.hi)
    hits = scan_family(
        args.family,
        grid=grid,
        epsilon=args.epsilon,
        orientations=(1, -1) if args.orientation == "both" else (int(args.orientation),),
        tol=args.tol,
    )
    items = [
        {
            "family": h.family_id,
            "params": dict(sorted(h.params.items())),
            "orientation": h.orientation,
            "alpha": list(h.alpha),
            "lambda2": h.fit.lambda2,
            "kappa": h.fit.kappa,
            "residual": h.fit.residual,
        }
        for h in hits
    ]
    return True, {"family": args.family, "epsilon": args.epsilon,
                  "grid_points": args.grid, "hit_count": len(items), "items": items}


def _config_field(value, kind: str, what: str):
    """value if it is a JSON object, array, number or string (kind), else
    ValueError: well-formed JSON of the wrong shape is bad input, not a crash."""
    types = {"object": dict, "array": list, "number": (int, float), "string": str}[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"solution config: {what} must be a JSON {kind}, got {json.dumps(value)}")
    return value


def _check_resolved(l: float, tol: float, name: str) -> None:
    from . import product6d

    bound = product6d.factor_bound(tol)
    if l != 0.0 and l * l <= bound:  # kappa_N = l^2 would pass for any kappa_N near 0
        raise ValueError(f"{name} = {l!r} is below resolution: l^2 = {l * l:.3g} is within "
                         f"{bound:.3g} of 0, the bound of the kappa_N = l^2 check")


def _solution_from_config(path: str, tol: float):
    from . import product6d
    from .contact import build_contact
    from .liealg import FamilySpec

    with open(path) as fh:
        data = _config_field(json.load(fh), "object", "the top level")
    factors = []
    for key in ("n", "x"):
        e = _config_field(data.get(key), "object", f'"{key}"')
        family = _config_field(e.get("family"), "string", f'"{key}.family"')
        params = _config_field(e.get("params"), "object", f'"{key}.params"')
        for name, value in params.items():
            _config_field(value, "number", f'"{key}.params.{name}"')
        alpha = _config_field(e.get("alpha"), "array", f'"{key}.alpha"')
        for value in alpha:
            _config_field(value, "number", f'"{key}.alpha" entry')
        orientation = e.get("orientation", 1)  # null: try +1, then -1
        if orientation is not None:
            _config_field(orientation, "number", f'"{key}.orientation"')
        factors.append(build_contact(FamilySpec(family, params), alpha, orientation, tol))
    lam, l = (float(_config_field(data.get(k), "number", f'"{k}"')) for k in ("lambda", "l"))
    _check_resolved(l, tol, '"l"')
    return product6d.build_solution(*factors, lam, l, tol)


def cmd_solution(args) -> tuple:
    from . import product6d

    if args.preset:
        if args.preset != "ads3xs3":
            raise EpsContactError(f"unknown preset {args.preset!r}")
        sol = product6d.preset_ads3xs3()
    else:
        sol = _solution_from_config(args.config, args.tol)
    res = product6d.verify_supergravity(sol)
    identity = product6d.ricci_torsion_identity_residual(sol)
    passed = res.is_solution(args.tol) and identity <= args.tol
    item = {
        "lambda": sol.lam,
        "l": sol.l,
        "ricci_h": res.ricci_h,
        "d_h": res.d_h,
        "d_star_h": res.d_star_h,
        "norm_h": res.norm_h,
        "ricci_identity": identity,
        "pass": passed,
    }
    return passed, {"items": [item], "solution": json.loads(sol.to_json())}


def _l_samples(args) -> list:
    """The --l-samples values: finite numbers, resolved by the factor checks,
    at which every row of the table is representable; ValueError otherwise."""
    from . import product6d

    if args.l_samples is None:
        return product6d.DEFAULT_L_SAMPLES
    try:
        l_samples = [float(x) for x in args.l_samples.split(",")]
    except ValueError:
        raise ValueError(f"--l-samples must be numbers, got {args.l_samples!r}") from None
    if not all(math.isfinite(l) for l in l_samples):
        raise ValueError(f"--l-samples must be finite, got {args.l_samples}")
    for row in product6d.catalog_rows(args.epsilon_n):
        for l in row.ls(l_samples):
            _check_resolved(l, args.tol, "--l-samples: l")
            if not row.representable(l):
                raise ValueError(f"--l-samples: l = {l!r} overflows the factors of row {row.name}")
    return l_samples


def cmd_catalog(args) -> tuple:
    from . import product6d

    l_samples = _l_samples(args)
    results = product6d.run_catalog(args.epsilon_n, l_samples, tol=args.tol)
    items = []
    for r in results:
        res = r.residuals
        values = {"lambda": r.lam, "ricci_h": res.ricci_h, "d_h": res.d_h,
                  "d_star_h": res.d_star_h, "norm_h": res.norm_h}
        if r.failure is not None:  # null, not NaN or Infinity: the report stays strict JSON
            values = dict.fromkeys(values)
        items.append({"row": r.row, "l": r.l, **values, "pass": r.passed})
        if r.failure is not None:
            items[-1]["reason"] = r.failure
    return all(r.passed for r in results), {"epsilon_n": args.epsilon_n, "items": items}


def _null_non_finite(item: dict) -> bool:
    """Write null for each non-finite number of a report item, name them in a
    "reason" (the report stays strict JSON) and return whether all were finite."""
    bad = [k for k, v in item.items() if isinstance(v, float) and not math.isfinite(v)]
    for k in bad:
        item[k] = None
    if bad:
        item["reason"] = "non-finite " + ", ".join(bad)
    return not bad


def cmd_cauchy(args) -> tuple:
    from . import cauchy

    flat = args.example == "flat-para"
    if flat:
        # the finer run halves dt; k dt must stay finite, or the example's cos(k dt) fails
        if args.steps < 3:
            raise ValueError(f"--steps must be at least 3, got {args.steps}")
        if not (args.dt / 2 > 0 and math.isfinite((args.steps - 1) * args.dt)):
            raise ValueError(f"--dt must be positive, also halved, and (--steps - 1) * --dt "
                             f"finite, got {args.dt!r}")
        # q = (l1^2 + l2^2) Id must be finite at every node
        if not math.isfinite(args.l1 * args.l1 + args.l2 * args.l2):
            raise ValueError(f"--l1^2 + --l2^2 must be finite, got --l1 {args.l1!r} "
                             f"and --l2 {args.l2!r}")
    items = []
    for factor in (1, 2):
        nx, ny = args.nx * factor, args.ny * factor
        item = {"refinement": factor, "nx": nx, "ny": ny}
        if flat:
            item["dt"] = dt = args.dt / factor
            grid = cauchy.SurfaceGrid(nx, ny, 1.0 / nx, 1.0 / ny)
            ts = [k * dt for k in range((args.steps - 1) * factor + 1)]
            seq = cauchy.example_flat_paracontact(grid, ts, args.l1, args.l2)
            data = seq.slices[1]
        else:  # null-isothermal
            data = cauchy.example_null_isothermal(cauchy.isothermal_grid(nx, ny), args.f0)
        con = cauchy.constraint_residuals(data, 1 if flat else 0, 0.0, 0.0)
        item.update((f"constraint_{k}", v) for k, v in con.as_dict().items())
        if flat:
            item.update(cauchy.evolution_residuals(seq, 1, 0.0, 0.0).as_dict())
        items.append(item)
    key = "alpha_flow" if flat else "constraint_curl"
    if not flat and args.f0 == 0.0:
        ratio = None
        passed = items[0][key] == 0.0
    else:
        ratio = items[0][key] / max(items[1][key], 1e-300)
        passed = ratio >= 3.5
    items.append({"refinement": "ratio", "alpha_flow_ratio" if flat else "curl_ratio": ratio})
    if flat:
        passed = passed and max(
            v for k, v in items[0].items() if str(k).startswith("constraint_")
        ) <= args.tol
    finite = all([_null_non_finite(item) for item in items])  # every item, no short cut
    return passed and finite, {"example": args.example, "items": items}


def _common_flags(defaults: bool) -> argparse.ArgumentParser:
    """Global flags, attachable before or after the subcommand."""
    common = argparse.ArgumentParser(add_help=False)
    sup = argparse.SUPPRESS

    def dflt(value):
        return value if defaults else sup

    common.add_argument("--tol", type=float, default=dflt(None), help="numerical tolerance")
    common.add_argument("--seed", type=int, default=dflt(0), help="RNG seed")
    common.add_argument("--parallelism", type=int, default=dflt(1),
                        help="accepted for compatibility; has no effect, all work runs "
                        "in one thread")
    common.add_argument("--output", type=str, default=dflt(None), help="report file path")
    common.add_argument("--format", choices=("json", "csv"), default=dflt("json"))
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epscontact",
        description="Curvature, contact-metric and product-solution toolkit "
        "for left-invariant structures on three-dimensional Lie groups.",
        parents=[_common_flags(defaults=True)],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = [_common_flags(defaults=False)]

    p = sub.add_parser("oracle", parents=common,
                       help="cross-check curvature against the closed form")
    p.add_argument("--samples", type=int, default=1000)

    p = sub.add_parser("verify-tables", parents=common,
                       help="verify classification table rows")
    p.add_argument("--theorem", default=None,
                   help="table id or alias, any case; all tables when omitted")

    p = sub.add_parser("scan", parents=common,
                       help="grid scan for eta-Einstein contact structures")
    p.add_argument("--family", required=True)
    p.add_argument("--epsilon", type=int, choices=(-1, 0, 1), default=0)
    p.add_argument("--grid", type=int, default=21)
    p.add_argument("--lo", type=float, default=-3.0)
    p.add_argument("--hi", type=float, default=3.0)
    p.add_argument("--orientation", choices=("both", "1", "-1"), default="both")

    p = sub.add_parser("solution", parents=common,
                       help="build and verify one product solution")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", type=str)
    group.add_argument("--config", type=str)

    p = sub.add_parser("catalog", parents=common,
                       help="verify the product-solution catalog")
    p.add_argument("--epsilon-n", dest="epsilon_n", type=int, choices=(-1, 0, 1), required=True)
    p.add_argument("--l-samples", dest="l_samples", type=str, default=None,
                   help="comma-separated l values")

    p = sub.add_parser("cauchy", parents=common,
                       help="constraint/evolution residual demo")
    p.add_argument("--example", choices=("flat-para", "null-isothermal"), required=True)
    p.add_argument("--nx", type=int, default=32)
    p.add_argument("--ny", type=int, default=32)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--steps", type=int, default=9)
    p.add_argument("--l1", type=float, default=1.0)
    p.add_argument("--l2", type=float, default=0.5)
    p.add_argument("--f0", type=float, default=1.0)
    return parser


COMMANDS = {
    "oracle": cmd_oracle,
    "verify-tables": cmd_verify_tables,
    "scan": cmd_scan,
    "solution": cmd_solution,
    "catalog": cmd_catalog,
    "cauchy": cmd_cauchy,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args.tol = get_tol(args.tol)
        _check_args(args)
        # overflowing input ends as a "reason" or an exit 2, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            passed, body = COMMANDS[args.command](args)
        report = {"command": args.command, "tol": args.tol, "seed": args.seed,
                  "pass": bool(passed), **body}
        write_report(report, args)
    except (EpsContactError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())

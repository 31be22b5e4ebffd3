"""Command-line front end.

Subcommands: oracle, verify-tables, scan, solution, catalog, cauchy.
Reports are deterministic (same command, seed and tol produce byte-identical
output) and are written as JSON or CSV to stdout or --output.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage/config error
(bad input is rejected with a one-line message before any work).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import cauchy, product6d, tables
from .config import get_tol
from .contact import build_contact
from .einstein import default_grid, scan_family
from .errors import EpsContactError
from .liealg import FamilySpec, family_metric
from .oracle import run_oracle

@dataclass
class RunConfig:
    command: str
    tol: float
    seed: int
    output: str | None
    format: str


# numeric flags, by argparse dest, that must be a positive count or finite
POSITIVE_FLAGS = ("samples", "grid", "nx", "ny")
FINITE_FLAGS = ("lo", "hi", "dt", "l1", "l2", "f0")


def _check_args(args) -> None:
    """Reject out-of-range numeric input before any work is done."""
    for name in POSITIVE_FLAGS:
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise ValueError(f"--{name} must be a positive integer, got {value}")
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


def write_report(report: dict, cfg: RunConfig) -> None:
    if cfg.format == "json":
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
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_oracle(args, cfg: RunConfig) -> tuple:
    report = run_oracle(samples=args.samples, seed=cfg.seed, tol=cfg.tol)
    items = [
        {"family": fam, **vals} for fam, vals in sorted(report.per_family.items())
    ]
    passed = report.passed(cfg.tol)
    return passed, {
        "samples": report.samples,
        "max_ricci_dev": report.max_ricci_dev,
        "max_scalar_dev": report.max_scalar_dev,
        "items": items,
    }


def cmd_verify_tables(args, cfg: RunConfig) -> tuple:
    table_ids = [tables.resolve_table(args.theorem)] if args.theorem else list(tables.TABLES)
    reports = [
        tables.verify_table_row(table_id, row, tol=cfg.tol)
        for table_id in table_ids
        for row in tables.table_rows(table_id)
    ]
    items = []
    passed = True
    for table_id in table_ids:
        rows = []
        for rep in reports:
            if rep.table != table_id:
                continue
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


def cmd_scan(args, cfg: RunConfig) -> tuple:
    if family_metric(args.family).s_g == 1 and args.epsilon != 1:  # nothing to sample
        raise ValueError(f"--epsilon {args.epsilon}: a Riemannian family has epsilon = 1 only")
    grid = default_grid(args.grid, args.lo, args.hi)
    hits = scan_family(
        args.family,
        grid=grid,
        epsilon=args.epsilon,
        orientations=(1, -1) if args.orientation == "both" else (int(args.orientation),),
        tol=cfg.tol,
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
    """value if it is a JSON object, array or number (kind), else ValueError:
    well-formed JSON of the wrong shape is bad input, not a crash."""
    types = {"object": dict, "array": list, "number": (int, float)}[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"solution config: {what} must be a JSON {kind}, got {json.dumps(value)}")
    return value


def _solution_from_config(path: str):
    with open(path) as fh:
        data = _config_field(json.load(fh), "object", "the top level")
    factors = []
    for key in ("n", "x"):
        e = _config_field(data.get(key), "object", f'"{key}"')
        params = _config_field(e.get("params"), "object", f'"{key}.params"')
        alpha = _config_field(e.get("alpha"), "array", f'"{key}.alpha"')
        orientation = e.get("orientation", 1)  # null: try +1, then -1
        if orientation is not None:
            _config_field(orientation, "number", f'"{key}.orientation"')
        factors.append(build_contact(FamilySpec(e.get("family"), params), alpha, orientation))
    lam, l = (float(_config_field(data.get(k), "number", f'"{k}"')) for k in ("lambda", "l"))
    return product6d.build_solution(*factors, lam, l)


def cmd_solution(args, cfg: RunConfig) -> tuple:
    if args.preset:
        if args.preset != "ads3xs3":
            raise EpsContactError(f"unknown preset {args.preset!r}")
        sol = product6d.preset_ads3xs3()
    else:
        sol = _solution_from_config(args.config)
    res = product6d.verify_supergravity(sol)
    identity = product6d.ricci_torsion_identity_residual(sol)
    passed = res.is_solution(cfg.tol) and identity <= cfg.tol
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


def cmd_catalog(args, cfg: RunConfig) -> tuple:
    l_samples = [float(x) for x in args.l_samples.split(",")] if args.l_samples else [
        0.0, 0.25, 0.5, 0.75, 0.9,
    ]
    if not all(math.isfinite(l) for l in l_samples):
        raise ValueError(f"--l-samples must be finite, got {args.l_samples}")
    results = product6d.run_catalog(args.epsilon_n, l_samples, tol=cfg.tol)
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


def cmd_cauchy(args, cfg: RunConfig) -> tuple:
    items = []
    passed = True
    if args.example == "flat-para":
        for factor in (1, 2):
            nx, ny = args.nx * factor, args.ny * factor
            steps = (args.steps - 1) * factor + 1
            dt = args.dt / factor
            grid = cauchy.SurfaceGrid(nx, ny, 1.0 / nx, 1.0 / ny)
            ts = [k * dt for k in range(steps)]
            seq = cauchy.example_flat_paracontact(grid, ts, args.l1, args.l2)
            con = cauchy.constraint_residuals(seq.slices[1], 1, 0.0, 0.0)
            evo = cauchy.evolution_residuals(seq, 1, 0.0, 0.0)
            items.append(
                {
                    "refinement": factor,
                    "nx": nx, "ny": ny, "dt": dt,
                    **{f"constraint_{k}": v for k, v in con.as_dict().items()},
                    **evo.as_dict(),
                }
            )
        ratio = items[0]["alpha_flow"] / max(items[1]["alpha_flow"], 1e-300)
        items.append({"refinement": "ratio", "alpha_flow_ratio": ratio})
        passed = ratio >= 3.5 and max(
            v for k, v in items[0].items() if str(k).startswith("constraint_")
        ) <= cfg.tol
    else:  # null-isothermal
        for factor in (1, 2):
            nx, ny = args.nx * factor, args.ny * factor
            grid = cauchy.isothermal_grid(nx, ny)
            data = cauchy.example_null_isothermal(grid, args.f0)
            con = cauchy.constraint_residuals(data, 0, 0.0, 0.0)
            items.append(
                {
                    "refinement": factor,
                    "nx": nx, "ny": ny,
                    **{f"constraint_{k}": v for k, v in con.as_dict().items()},
                }
            )
        cur = items[1]["constraint_curl"]
        if args.f0 == 0.0:
            passed = items[0]["constraint_curl"] == 0.0
            items.append({"refinement": "ratio", "curl_ratio": None})
        else:
            ratio = items[0]["constraint_curl"] / max(cur, 1e-300)
            items.append({"refinement": "ratio", "curl_ratio": ratio})
            passed = ratio >= 3.5
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
    p.add_argument("--theorem", choices=(*tables.TABLES, *tables.TABLE_ALIASES), default=None)

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
        cfg = RunConfig(
            command=args.command,
            tol=get_tol(args.tol),
            seed=args.seed,
            output=args.output,
            format=args.format,
        )
        _check_args(args)
        # overflowing input ends as a "reason" or an exit 2, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            passed, body = COMMANDS[args.command](args, cfg)
    except (EpsContactError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {
        "command": cfg.command,
        "tol": cfg.tol,
        "seed": cfg.seed,
        "pass": bool(passed),
    }
    report.update(body)
    write_report(report, cfg)
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())

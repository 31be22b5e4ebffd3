"""The four benchmark workloads.

Each workload drives the library's public entry points from outside. One
round is a fixed amount of work; ``items`` says how many items it holds.
``record`` turns a round's outputs into the seed-independent values stored
as the reference (``make_reference.py``); ``check`` compares a round with
the reference and tests the seed-dependent outputs by their own invariants.
``cold`` lists the CLI commands a user would run for the same work, each
timed in a fresh process; ``traced_cli`` lists the ones run in-process,
through ``cli.main``, in the traced pass.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from epscontact.cauchy import (
    SurfaceGrid,
    constraint_residuals,
    evolution_residuals,
    example_flat_paracontact,
    example_null_isothermal,
    isothermal_grid,
)
from epscontact.cli import main as cli_main  # noqa: F401 - called by run.py, traced here
from epscontact.config import get_tol
from epscontact.contact import contact_identity_residuals
from epscontact.einstein import default_grid, family_samples, scan_family
from epscontact.errors import EpsContactError
from epscontact.liealg import FamilySpec, make_family
from epscontact.oracle import run_oracle
from epscontact.product6d import (
    build_solution,
    catalog_rows,
    preset_ads3xs3,
    ricci_torsion_identity_residual,
    run_catalog,
    verify_supergravity,
)
from epscontact.tables import TABLES, build_instance, verify_table_row
from tracer import Tracer

TOL = 1e-9


def call(fn, *args, **kwargs):
    """Runs one piece of a round; a timing clock takes its place when measured."""
    return fn(*args, **kwargs)


def chunks(seq: list, n: int) -> list:
    """``seq`` cut into ``n`` consecutive pieces of near-equal length."""
    bounds = [round(k * len(seq) / n) for k in range(n + 1)]
    return [seq[a:b] for a, b in zip(bounds, bounds[1:])]


def close(got, want, rel: float = 1e-9, abs_: float = 1e-9) -> bool:
    """Deep comparison: floats within tolerance, everything else exact."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(close(got[k], want[k], rel, abs_) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(close(g, w, rel, abs_) for g, w in zip(got, want)))
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        return math.isclose(got, want, rel_tol=rel, abs_tol=abs_)
    return type(got) is type(want) and got == want


class Checks:
    """Counts checks attempted and failed, keeping the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok

    def compare(self, got: dict, want: dict, what: str) -> None:
        """One check per reference unit; units missing on either side fail."""
        for key in sorted(set(got) | set(want)):
            self.check(key in got and key in want and close(got[key], want[key]),
                       f"{what}: {key} differs from the reference")


class Workload:
    """One round of fixed work; subclasses define ``round``, ``record`` and
    ``items``, and may extend ``check`` and ``after``. ``round(clock)`` runs
    its work as pieces of a fraction of a second through ``clock``, so that
    each piece can be timed against the host's speed at that moment."""

    name: str
    cold: list
    cold_reps = 3  # about a third of a run goes to the fresh-process samples

    @property
    def traced_cli(self) -> list:
        return self.cold

    def check(self, out, ref: dict, checks: Checks) -> None:
        checks.compare(self.record(out), ref, self.name)

    def after(self, out, checks: Checks) -> dict:
        """Checks that need more than one round's outputs; extra detail."""
        return {}


# --- scan ---------------------------------------------------------------------

# 13 points on [-3, 3] (step 0.5) contain +-1 and +-2, where the table rows
# live; at 25 points one round of the five scans takes about 22 s on a
# 2-vCPU VM, which leaves no room for several rounds in a run
SCAN_GRID_POINTS = 13
SCANS = (("g3", -1), ("g3", 0), ("g3", 1), ("g5", 1), ("riemannian_unimodular", 1))
ORIENTATIONS = (1, -1)


def _scan_argv(family: str, eps: int, points: int) -> list:
    return ["scan", "--family", family, "--epsilon", str(eps), "--grid", str(points)]


def _scan_items(family: str, grid) -> int:
    """(sample, orientation) pairs whose contact map a scan solves."""
    n = 0
    for params in family_samples(family, grid, get_tol()):
        try:
            make_family(FamilySpec(family, params))
        except EpsContactError:
            continue
        n += len(ORIENTATIONS)
    return n


class Scan(Workload):
    name = "scan"
    cold = [_scan_argv(f, e, SCAN_GRID_POINTS) for f, e in SCANS]
    cold_reps = 2

    def __init__(self, seed: int):
        self.grid = default_grid(SCAN_GRID_POINTS)
        self.items = sum(_scan_items(f, self.grid) for f, _ in SCANS)

    def scan(self, family: str, eps: int) -> list:
        return scan_family(family, grid=self.grid, epsilon=eps, orientations=ORIENTATIONS)

    def round(self, clock=call) -> dict:
        return {(family, eps): clock(self.scan, family, eps) for family, eps in SCANS}

    def record(self, out: dict) -> dict:
        rec = {}
        for (family, eps), hits in out.items():
            rows = sorted(
                [sorted(h.params.items()), h.orientation, [float(a) for a in h.alpha],
                 h.fit.lambda2, h.fit.kappa, h.fit.residual]
                for h in hits
            )
            rec[f"{family}/{eps}/hits"] = len(rows)
            for k, row in enumerate(rows):
                rec[f"{family}/{eps}/{k}"] = [[list(p) for p in row[0]], *row[1:]]
        return rec

    def check(self, out: dict, ref: dict, checks: Checks) -> None:
        super().check(out, ref, checks)
        for (family, eps), hits in out.items():
            for h in hits:
                checks.check(h.fit.admissible and h.fit.residual <= TOL,
                             f"scan {family}/{eps}: hit {h.params} not admissible")

    def after(self, out: dict, checks: Checks) -> dict:
        """Non-vacuity: a scan that returns no hits must still have met
        contact structures. Those scans run again, untimed, under a tracer
        that counts the candidates ``scan_family`` passed to
        ``check_contact``."""
        met = {}
        for (family, eps), hits in out.items():
            if hits:
                continue
            with Tracer([sys.modules[__name__]]) as tracer:
                self.scan(family, eps)
            met[f"{family}/{eps}"] = n = tracer.edge("einstein.scan_family",
                                                     "contact.check_contact")
            checks.check(n > 0, f"scan {family}/{eps}: no hits and no contact "
                                f"structures met, the scan is vacuous")
        return {"candidates_of_empty_scans": met}


# --- verify -------------------------------------------------------------------

ORACLE_SAMPLES = 1000
VERIFY_PIECES = 6  # table rows and identity suites are each timed in this many pieces


class Verify(Workload):
    name = "verify"
    cold = [["verify-tables", "--parallelism", "1"],
            ["verify-tables", "--parallelism", "2"],
            ["oracle"]]
    # the in-process pass keeps one thread, so every span has its caller as parent
    traced_cli = cold[::2]
    cold_reps = 5

    def __init__(self, seed: int):
        self.seed = seed
        self.rows = [(table_id, row) for table_id, rows in TABLES.items() for row in rows]
        self.instances = [inst for _, row in self.rows for inst in row.instances()]
        self.items = 2 * len(self.instances) + ORACLE_SAMPLES

    def round(self, clock=call):
        reports, identities = [], []
        for rows in chunks(self.rows, VERIFY_PIECES):
            reports += clock(lambda: [verify_table_row(t, row, tol=TOL) for t, row in rows])
        for instances in chunks(self.instances, VERIFY_PIECES):
            identities += clock(self.identities, instances)
        oracle = clock(run_oracle, ORACLE_SAMPLES, self.seed, tol=TOL)
        return reports, identities, oracle

    @staticmethod
    def identities(instances) -> list:
        out = []
        for inst in instances:
            try:
                cs = build_instance(inst, tol=TOL)
            except EpsContactError as exc:
                out.append((inst.label, str(exc)))
                continue
            out.append((inst.label, max(contact_identity_residuals(cs).values())))
        return out

    def record(self, out) -> dict:
        reports, _, _ = out
        rec = {}
        for rep in reports:
            for k, i in enumerate(rep.instances):
                rec[f"{rep.table}/{rep.row_id}/{k}"] = [
                    i.label, i.passed, i.orientation, i.epsilon, i.lambda2, i.kappa,
                    i.residual, dict(sorted(i.checks.items())), i.failure,
                ]
        return rec

    def check(self, out, ref: dict, checks: Checks) -> None:
        reports, identities, oracle = out
        super().check(out, ref, checks)
        for rep in reports:
            checks.check(rep.passed, f"verify: row {rep.table}/{rep.row_id} failed")
        for label, worst in identities:
            checks.check(isinstance(worst, float) and worst <= TOL,
                         f"verify: identity suite on {label}: {worst}")
        checks.check(oracle.samples == ORACLE_SAMPLES and oracle.passed(TOL),
                     f"verify: oracle deviations {oracle.max_ricci_dev:.2e}, "
                     f"{oracle.max_scalar_dev:.2e}")


# --- product ------------------------------------------------------------------

DEFAULT_LS = (0.0, 0.25, 0.5, 0.75, 0.9)
DRAWN_LS = 32
EPSILON_N = (-1, 0, 1)


def _row_ls(row, ls) -> list:
    """The l values ``run_catalog`` instantiates a row at."""
    if row.fixed_l2 is not None:
        return [math.sqrt(row.fixed_l2)]
    return [l for l in ls if row.l2_max is None or l * l < row.l2_max - 1e-12]


class Product(Workload):
    name = "product"
    cold = [["catalog", "--epsilon-n", str(e)] for e in EPSILON_N] + [
        ["solution", "--preset", "ads3xs3"]]
    cold_reps = 7

    def __init__(self, seed: int):
        # one draw in each of DRAWN_LS equal strata of [0, 1): every seed puts
        # the same number of samples below each row's l^2 bound, so the row
        # mix, and with it the cost of an item, does not depend on the seed
        offsets = np.random.default_rng(seed).uniform(0.0, 1.0, DRAWN_LS)
        drawn = (np.arange(DRAWN_LS) + offsets) / DRAWN_LS
        self.ls = sorted(set(DEFAULT_LS) | {float(l) for l in drawn})
        self.items = 1 + sum(len(_row_ls(row, self.ls))
                             for e in EPSILON_N for row in catalog_rows(e))

    def round(self, clock=call):
        catalog, identities = {}, []
        for eps in EPSILON_N:
            catalog[eps] = clock(run_catalog, eps, self.ls, tol=TOL)
            identities += clock(self.identities, eps)
        preset_out = clock(self.preset)
        return catalog, identities, preset_out

    def identities(self, eps: int) -> list:
        out = []
        for row in catalog_rows(eps):
            for l in _row_ls(row, self.ls):
                n, x, lam = row.build(l)
                sol = build_solution(n, x, lam, l, tol=TOL)
                out.append((row.name, l, ricci_torsion_identity_residual(sol)))
        return out

    @staticmethod
    def preset():
        preset = preset_ads3xs3()
        return verify_supergravity(preset), ricci_torsion_identity_residual(preset)

    def record(self, out) -> dict:
        catalog, _, (res, identity) = out
        rec = {}
        for eps, results in catalog.items():
            for r in results:
                if r.l in DEFAULT_LS:
                    rec[f"{eps}/{r.row}/{r.l}"] = [r.lam, r.passed, r.residuals.max_residual()]
        rec["preset"] = [res.ricci_h, res.d_h, res.d_star_h, res.norm_h, identity]
        return rec

    def check(self, out, ref: dict, checks: Checks) -> None:
        catalog, identities, (res, identity) = out
        super().check(out, ref, checks)
        for eps, results in catalog.items():
            for r in results:
                checks.check(r.passed and r.residuals.max_residual() <= TOL,
                             f"product: {eps}/{r.row} at l={r.l} failed")
        for row, l, worst in identities:
            checks.check(worst <= TOL, f"product: identity {row} at l={l}: {worst:.2e}")
        solutions = sum(len(results) for results in catalog.values())
        checks.check(solutions + 1 == self.items, f"product: {solutions} catalog solutions")
        checks.check(res.max_residual() < 1e-12 and identity <= TOL, "product: preset")


# --- cauchy -------------------------------------------------------------------

ISOTHERMAL_SIZES = (64, 512)
FLAT_PARA = dict(nx=32, steps=9, dt=0.05, l1=1.0, l2=0.5)  # the CLI's defaults


class Cauchy(Workload):
    name = "cauchy"
    cold = [["cauchy", "--example", "flat-para"],
            ["cauchy", "--example", "null-isothermal", "--nx", "256", "--ny", "256"]]
    cold_reps = 7

    def __init__(self, seed: int):
        self.items = sum(n * n for n in ISOTHERMAL_SIZES)
        for factor in (1, 2):
            nodes = (FLAT_PARA["nx"] * factor) ** 2
            steps = (FLAT_PARA["steps"] - 1) * factor + 1
            self.items += nodes * (1 + steps - 2)  # one constraint slice, interior flow slices

    def round(self, clock=call) -> dict:
        out = {}
        for n in ISOTHERMAL_SIZES:
            out[f"null-isothermal/{n}"] = clock(self.isothermal, n)
        for factor in (1, 2):
            out[f"flat-para/{factor}"] = clock(self.flat_para, factor)
        return out

    @staticmethod
    def isothermal(n: int) -> dict:
        data = example_null_isothermal(isothermal_grid(n, n), 1.0)
        return constraint_residuals(data, 0, 0.0, 0.0).as_dict()

    @staticmethod
    def flat_para(factor: int) -> dict:
        nx = FLAT_PARA["nx"] * factor
        steps = (FLAT_PARA["steps"] - 1) * factor + 1
        dt = FLAT_PARA["dt"] / factor
        grid = SurfaceGrid(nx, nx, 1.0 / nx, 1.0 / nx)
        seq = example_flat_paracontact(grid, [k * dt for k in range(steps)],
                                       FLAT_PARA["l1"], FLAT_PARA["l2"])
        return {
            **constraint_residuals(seq.slices[1], 1, 0.0, 0.0).as_dict(),
            **evolution_residuals(seq, 1, 0.0, 0.0).as_dict(),
        }

    def record(self, out: dict) -> dict:
        return dict(out)


WORKLOADS = {w.name: w for w in (Scan, Verify, Product, Cauchy)}

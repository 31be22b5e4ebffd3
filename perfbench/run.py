"""epscontact benchmark.

    python3 perfbench/run.py --workload {scan,verify,product,cauchy} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``. One process, one caller, closed loop; numpy/BLAS threads are
pinned to 1, and this process and its children to one CPU.

``--trace 0`` measures, for about ``S`` seconds of wall time in all, warm
rounds interleaved with fresh-process imports and CLI commands. Every
piece of work is timed between two runs of a fixed host-speed probe
(``hostspeed.py``) and reported at the probe's reference speed, so that the
drift of a shared host's speed cancels while a change of the library's
speed does not. The end-to-end metrics:

- ``items_per_s``: items / median normalized round time;
- ``setup_s``: median normalized time of a fresh interpreter importing the
  whole package (module-level tables and catalog included);
- ``cold_s``: the sum over the workload's CLI commands, each in a fresh
  process, of the median normalized time of that command;
- ``peak_rss_mb``: peak resident memory of this process;
- ``pass_ratio``: checks passed / checks attempted (1 - fail ratio).

The raw (wall-clock) values of the three timings are in the detail line.

``--trace 1`` runs a fixed amount of work instead: an untraced round, a
traced round, the workload's CLI commands in-process through ``cli.main``
(traced), and another untraced round. It prints the per-layer metrics and
writes the spans to ``perfbench/out/``.

Every output is checked against ``perfbench/reference`` (recorded by
``make_reference.py``); CLI reports must match byte for byte. The last line
of stdout is the result; the line before it holds the timing distributions,
the funnel and provenance.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
OUT = BENCH / "out"
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
SETUP_SAMPLES = 9
SIDE_PROBES = 3
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 150
IMPORT_ALL = "import epscontact.cli"

END_TO_END = {
    "items_per_s": "1/s",
    "setup_s": "s",
    "cold_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}
FUNCTION_METRICS = (
    ("exterior.hodge", "us_per_call"),
    ("exterior.mc_differential", "us_per_call"),
    ("exterior.wedge", "us_per_call"),
    ("curvature.levi_civita", "calls"),
    ("curvature.riemann_ricci", "calls"),
    ("contact.characteristic_endo", "calls"),
    ("contact.h_tensor", "calls"),
    ("contact.contact_frame", "calls"),
    ("contact.check_contact", "us_per_call"),
    ("contact.contact_identity_residuals", "us_per_call"),
    ("einstein.fit_eta_einstein", "us_per_call"),
    ("product6d.verify_supergravity", "us_per_call"),
    ("cauchy.christoffel", "calls"),
    ("cauchy.constraint_residuals", "us_per_call"),
)
LAYER_UNITS = {"calls": "count", "self_s": "s", "self_share": "ratio", "failed": "count"}
FUNNEL = ("samples", "candidates", "eps_matched", "hits", "hit_ratio")


def per_layer_units(layers) -> dict:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {f"{layer}.{kind}": unit for layer in layers for kind, unit in LAYER_UNITS.items()}
    units.update({f"{name}.{kind}": "us" if kind == "us_per_call" else "count"
                  for name, kind in FUNCTION_METRICS})
    units["cauchy.bytes_computed"] = "B"
    units.update({f"einstein.scan.{k}": "ratio" if k == "hit_ratio" else "count"
                  for k in FUNNEL})
    units["trace.overhead"] = "ratio"
    return units


def prepare() -> None:
    """Pin threads and import the library from this checkout's ``src/``."""
    if not (SRC / "epscontact" / "__init__.py").is_file():
        raise SystemExit(f"error: no epscontact sources under {SRC}")
    os.environ.update(THREAD_ENV)
    os.environ.pop("EPSCONTACT_TOL", None)
    # one CPU for this process and its children, so that the host-speed
    # probes run where the work they normalize runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import epscontact

    if Path(epscontact.__file__).resolve().parent != SRC / "epscontact":
        raise SystemExit(f"error: epscontact imported from {epscontact.__file__}, not {SRC}")


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env.pop("EPSCONTACT_TOL", None)
    return env


def run_child(args: list, env: dict) -> tuple:
    """Wall time, exit code and stdout of one fresh Python process."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, None, b""
    return time.perf_counter() - t0, proc.returncode, proc.stdout


def cli_slug(argv: list) -> str:
    return "_".join(a.removeprefix("--") for a in argv)


def load_reference(directory: Path = REFERENCE) -> dict:
    warm = json.loads((directory / "warm.json").read_text())
    cli = {p.stem: p.read_bytes() for p in (directory / "cli").glob("*.out")}
    return {"warm": warm, "cli": cli}


def distribution(samples: list) -> dict:
    """Median, and the highest percentile that has at least ten samples
    beyond it (given from 20 samples, where it reaches the median), with the
    sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered) if ordered else None,
           "samples": samples}
    if n >= 20:
        out["tail_pct"] = math.floor(100 * (n - 10) / n)
        out["tail"] = ordered[n - 11]
    return out


def src_facts() -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def provenance() -> dict:
    import numpy

    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit or None,
        **src_facts(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": THREAD_ENV,
    }


def check_cli(argv: list, code, stdout: bytes, ref: dict, checks) -> None:
    want = ref["cli"].get(cli_slug(argv))
    state = "missing" if want is None else "matches" if stdout == want else "differs"
    checks.check(code == 0 and stdout == want,
                 f"cli {' '.join(argv)}: exit {code}, reference report {state}")


def measured_run(wl, ref: dict, seconds: float, setup_samples: int = SETUP_SAMPLES,
                 cold_reps: int | None = None, min_rounds: int = MIN_ROUNDS):
    """Warm rounds and fresh-process samples, interleaved, for about
    ``seconds`` of wall time in all. Every piece of work is timed between
    two host-speed probes (``hostspeed.py``); the metrics are the normalized
    times, the raw ones go to the detail line."""
    from hostspeed import Clock
    from workloads import Checks

    checks = Checks()
    env = child_env()
    deadline = time.perf_counter() + seconds
    cold_reps = wl.cold_reps if cold_reps is None else cold_reps
    side = [("setup", None)] * setup_samples
    side += [("cold", argv) for _ in range(cold_reps) for argv in wl.cold]
    side_n = len(side)
    setup, cold = [], []
    side_clock = Clock(probes=SIDE_PROBES)

    def side_task(kind, argv):
        if kind == "setup":
            _, code, _ = side_clock(run_child, ["-c", IMPORT_ALL], env)
            checks.check(code == 0, f"fresh import exited {code}")
            setup.append(side_clock.lap())
        else:
            _, code, stdout = side_clock(run_child, ["-m", "epscontact.cli", *argv], env)
            check_cli(argv, code, stdout, ref, checks)
            cold.append(side_clock.lap())

    # untimed: compiles bytecode the way a first user run would leave it
    _, code, _ = run_child(["-c", IMPORT_ALL], env)
    checks.check(code == 0, f"fresh import exited {code}")

    clock = Clock()
    rounds, side_s = [], 0.0
    out = None
    while True:
        out = wl.round(clock)
        rounds.append(clock.lap())
        wl.check(out, ref["warm"][wl.name], checks)
        round_s = statistics.mean(raw for raw, _ in rounds)
        left = deadline - time.perf_counter()
        if side:
            per_side = side_s / (side_n - len(side)) if len(side) < side_n else round_s / 4
            rounds_left = (left - per_side * len(side)) / round_s
            t0 = time.perf_counter()
            for _ in range(math.ceil(len(side) / max(1.0, rounds_left))):
                side_task(*side.pop(0))
            side_s += time.perf_counter() - t0
            left = deadline - time.perf_counter()
        if not side and len(rounds) >= min_rounds and left < round_s / 2:
            break
    extra = wl.after(out, checks)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    per_rep = len(wl.cold)
    per_command = [[norm for _, norm in cold[k::per_rep]] for k in range(per_rep)]
    metrics = {
        "items_per_s": wl.items / statistics.median(norm for _, norm in rounds),
        "setup_s": statistics.median(norm for _, norm in setup),
        "cold_s": sum(statistics.median(c) for c in per_command),
        "peak_rss_mb": peak_mb,
        "pass_ratio": 1.0 - checks.failed / checks.attempted,
    }
    detail = {
        "items_per_round": wl.items,
        "round_s": distribution([raw for raw, _ in rounds]),
        "round_norm_s": distribution([norm for _, norm in rounds]),
        "setup_s": distribution([raw for raw, _ in setup]),
        "setup_norm_s": distribution([norm for _, norm in setup]),
        "cold_command_s": {cli_slug(argv): distribution([raw for raw, _ in cold[k::per_rep]])
                           for k, argv in enumerate(wl.cold)},
        "cold_command_norm_s": {cli_slug(argv): distribution(per_command[k])
                                for k, argv in enumerate(wl.cold)},
        "raw": {"items_per_s": wl.items / statistics.median(raw for raw, _ in rounds),
                "setup_s": statistics.median(raw for raw, _ in setup),
                "cold_s": sum(statistics.median(raw for raw, _ in cold[k::per_rep])
                              for k in range(per_rep))},
        **extra,
    }
    return checks, metrics, detail


def traced_run(wl, ref: dict, seed: int):
    """Fixed work, so that counts repeat exactly: untraced round, traced
    round, traced in-process CLI commands, untraced round."""
    import workloads
    from tracer import Tracer

    checks = workloads.Checks()

    def timed_round():
        t0 = time.perf_counter()
        out = wl.round()
        dt = time.perf_counter() - t0
        wl.check(out, ref["warm"][wl.name], checks)
        return out, dt

    _, untraced_1 = timed_round()
    tracer = Tracer([workloads])
    with tracer:
        out, traced = timed_round()
    with tracer:
        for argv in wl.traced_cli:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = workloads.cli_main(list(argv))
            check_cli(argv, code, buf.getvalue().encode(), ref, checks)
    _, untraced_2 = timed_round()
    extra = wl.after(out, checks)

    metrics = tracer.layer_metrics()
    for name, kind in FUNCTION_METRICS:
        metrics[f"{name}.{kind}"] = (tracer.us_per_call(name) if kind == "us_per_call"
                                     else tracer.calls(name))
    metrics["cauchy.bytes_computed"] = tracer.measure("cauchy.")
    scan = "einstein.scan_family"
    candidates = tracer.edge(scan, "contact.check_contact")
    hits = tracer.measure(scan)
    metrics.update({
        "einstein.scan.samples": tracer.edge(scan, "liealg.make_family"),
        "einstein.scan.candidates": candidates,
        "einstein.scan.eps_matched": tracer.edge(scan, "einstein.fit_eta_einstein"),
        "einstein.scan.hits": hits,
        "einstein.scan.hit_ratio": hits / candidates if candidates else 0.0,
        "trace.overhead": traced / ((untraced_1 + untraced_2) / 2) - 1,
    })
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{seed}.jsonl.gz"
    detail = {
        "spans_file": spans_path.relative_to(ROOT).as_posix(),
        "spans": tracer.write(spans_path, **{"trace.overhead": metrics["trace.overhead"]}),
        "round_s": {"untraced": [untraced_1, untraced_2], "traced": traced},
        **extra,
    }
    return checks, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan", "verify", "product", "cauchy"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    prepare()
    from tracer import ALL_LAYERS
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    ref = load_reference()
    if args.trace:
        checks, metrics, detail = traced_run(wl, ref, args.seed)
        units = per_layer_units(ALL_LAYERS)
    else:
        checks, metrics, detail = measured_run(wl, ref, args.seconds)
        units = END_TO_END
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  failures=checks.messages, provenance=provenance())
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` names exactly the metrics ``run.py`` prints,
that every workload passes once in a short measured run and once traced,
and that a perturbed reference (one warm value, one CLI report byte) is
caught, giving a pass ratio below 1. Exits 1 on the first broken
expectation. Takes about two minutes.
"""

from __future__ import annotations

import copy
import json

import run


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}", flush=True)


def short_run(wl, ref):
    return run.measured_run(wl, ref, seconds=0.01, setup_samples=1, cold_reps=1, min_rounds=1)


def main() -> int:
    run.prepare()
    from tracer import ALL_LAYERS
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json lists the workloads")
    expect([m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json lists the end-to-end metrics")
    expect([m["name"] for m in spec["per_layer"]] == list(run.per_layer_units(ALL_LAYERS)),
           "BENCHMARK.json lists the per-layer metrics")

    ref = run.load_reference()
    for name, cls in WORKLOADS.items():
        checks, metrics, _ = short_run(cls(1), ref)
        expect(checks.failed == 0 and checks.attempted > 0 and metrics["pass_ratio"] == 1.0,
               f"{name}: short measured run passes {checks.attempted} checks")
        checks, metrics, _ = run.traced_run(cls(1), ref, 1)
        expect(checks.failed == 0 and set(metrics) == set(run.per_layer_units(ALL_LAYERS)),
               f"{name}: traced run passes {checks.attempted} checks and reports every metric")

    bad = copy.deepcopy(ref)
    bad["warm"]["cauchy"]["null-isothermal/64"]["curl"] *= 1.001
    cauchy = WORKLOADS["cauchy"](1)
    slug = run.cli_slug(cauchy.cold[0])
    bad["cli"][slug] = bad["cli"][slug].replace(b"true", b"True", 1)
    checks, metrics, _ = short_run(cauchy, bad)
    expect(checks.failed == 2 and metrics["pass_ratio"] < 1.0,
           f"perturbed reference gives {checks.failed} failures: {checks.messages}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

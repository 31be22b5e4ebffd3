"""Record the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Run once, from the root of a checkout of the commit whose behaviour is the
reference. Writes ``perfbench/reference/warm.json`` (the seed-independent
outputs of one round of each workload) and one report per CLI command under
``perfbench/reference/cli/``. Refuses to record a failing round or command.
"""

from __future__ import annotations

import json

import run


def main() -> int:
    run.prepare()
    from workloads import WORKLOADS, Checks

    env = run.child_env()
    (run.REFERENCE / "cli").mkdir(parents=True, exist_ok=True)
    warm = {}
    for name, cls in WORKLOADS.items():
        wl = cls(0)
        out = wl.round()
        warm[name] = json.loads(json.dumps(wl.record(out)))
        checks = Checks()
        wl.check(out, warm[name], checks)
        wl.after(out, checks)
        if checks.failed:
            raise SystemExit(f"{name}: {checks.messages}")
        for argv in {run.cli_slug(a): a for a in wl.cold + wl.traced_cli}.values():
            _, code, stdout = run.run_child(["-m", "epscontact.cli", *argv], env)
            if code != 0:
                raise SystemExit(f"{' '.join(argv)} exited {code}")
            (run.REFERENCE / "cli" / f"{run.cli_slug(argv)}.out").write_bytes(stdout)
        print(name, len(warm[name]), "reference units")
    (run.REFERENCE / "warm.json").write_text(json.dumps(warm, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

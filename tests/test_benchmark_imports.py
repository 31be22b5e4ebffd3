import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_workloads_import(monkeypatch):
    # the benchmark imports library names directly; deleting one breaks it here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ in perfbench/
    workloads = importlib.import_module("workloads")
    assert set(workloads.WORKLOADS) == {"scan", "verify", "product", "cauchy"}

"""The library API that the benchmark calls, exercised through the benchmark's
own operations and checks.

``bench/`` is loaded read-only: its modules are imported from their files,
without writing bytecode next to them, and nothing there is changed.  Each
workload that ``BENCHMARK.json`` declares makes its seed-1 round at one copy
of its table of kinds, and every case goes through the workload's ``op`` and
its ``check``.  A renamed function, a changed signature or a changed output
shape fails here, in the tier-1 suite, before a benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    # bench/workloads.py imports its sibling checks.py by name, and its
    # dataclasses look their module up in sys.modules while it runs
    names = ("bench_workloads", "checks")
    saved = sys.path[:], sys.dont_write_bytecode, {k: sys.modules.get(k) for k in names}
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(names[0], BENCH / "workloads.py")
        module = sys.modules[names[0]] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:], sys.dont_write_bytecode = saved[:2]
        for k, v in saved[2].items():
            if v is None:
                sys.modules.pop(k, None)
            else:
                sys.modules[k] = v
    return module


def test_benchmark_declares_the_workloads_it_runs(workloads):
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_every_benchmark_case_passes_its_own_check(workloads, name):
    workload = workloads.WORKLOADS[name]
    cases = workloads.make_cases(name, 1, copies=1)
    assert cases
    failures = [(case.kind, problem) for case in cases
                if (problem := workload.check(case, workload.op(case))) is not None]
    assert failures == []

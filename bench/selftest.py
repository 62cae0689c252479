"""Tests of the benchmark itself (not part of the repository's test suite).

    python3 -m pytest -q bench/selftest.py

Short runs use one copy of each workload's table of kinds.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402

_spec = importlib.util.spec_from_file_location("bench_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

NAMES = list(workloads.WORKLOADS)
LAYER_COUNTS = [m for m in run.LAYER_SPANS if m.endswith("_calls")] + [
    "sampling.frame_draws_per_frame"]
PAIR_ONLY = ["linalg.right_eigen_ms", "isometry.construct_self_ms",
             "isometry.conjugate_single_ms", "pairs.pair_conjugate_self_ms",
             "pairs.common_fixed_point_ms", "pairs.eigenframe_ms"]
GRAM = [m for m in run.LAYER_SPANS if m.startswith("gram.")]
BENCHMARK_PER_LAYER = [m["name"] for m in
                       json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def _cases(name: str, seed: int = 7) -> list:
    return workloads.make_cases(name, seed, copies=1)


def _first(name: str, positive: bool):
    case = next(c for c in _cases(name) if c.positive is positive)
    return case, json.loads(workloads.WORKLOADS[name].op(case))


def _check(name: str, case, result: dict):
    return workloads.WORKLOADS[name].check(case, json.dumps(result))


def _sixth_digit(x: float) -> float:
    """x with its sixth significant digit moved by one."""
    return x + 10.0 ** (math.floor(math.log10(abs(x))) - 5)


@pytest.mark.parametrize("name", NAMES)
def test_short_run_completes_and_checks_every_output(name):
    result = run.timed(workloads, name, 3, 0.2, copies=1)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_SAMPLES
    assert set(result["metrics"]) == {"ops_per_s", "latency_p50_ms", "latency_p90_ms",
                                      "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", ["congruence", "pair_conjugacy"])
def test_checks_reject_a_nudged_witness(name):
    case, result = _first(name, positive=True)
    assert _check(name, case, result) is None
    bad = copy.deepcopy(result)
    bad["witness"]["rows"][1][2][3] += 1e-4
    assert _check(name, case, bad) is not None


@pytest.mark.parametrize("name,positive,flipped", [
    ("congruence", True, "not_congruent"), ("congruence", False, "congruent"),
    ("pair_conjugacy", True, "not_conjugate"), ("pair_conjugacy", False, "conjugate")])
def test_checks_reject_a_flipped_verdict(name, positive, flipped):
    case, result = _first(name, positive)
    assert _check(name, case, result) is None
    assert _check(name, case, dict(result, verdict=flipped)) is not None


@pytest.mark.parametrize("path", [
    ("a23",), ("pair_slots", 0, "d"), ("x_slots", 0, "value", 0), ("x_slots", 2, "value", 2)])
def test_checks_reject_a_profile_field_changed_in_its_sixth_digit(path):
    case = next(c for c in _cases("invariants") if c.kind == "4,8,4")
    result = json.loads(workloads.invariants_op(case))
    assert checks.check_invariants(json.loads(case.docs[0]), result) is None
    bad = copy.deepcopy(result)
    node = bad["profile"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = _sixth_digit(node[path[-1]])
    assert checks.check_invariants(json.loads(case.docs[0]), bad) is not None


def test_checks_reject_a_changed_rebuilt_gram_entry():
    case = next(c for c in _cases("invariants") if c.kind == "2,5,3")
    result = json.loads(workloads.invariants_op(case))
    bad = copy.deepcopy(result)
    bad["gram"][1][3][0] = _sixth_digit(bad["gram"][1][3][0])
    assert checks.check_invariants(json.loads(case.docs[0]), bad) is not None


DIGEST = """
import hashlib, sys
import workloads
docs = [d for c in workloads.make_cases(sys.argv[1], int(sys.argv[2]), copies=1) for d in c.docs]
print(hashlib.sha256("\\n".join(docs).encode()).hexdigest())
"""


def _digest(name: str, seed: int) -> str:
    """Digest of the documents, computed in a fresh process."""
    proc = subprocess.run([sys.executable, "-c", DIGEST, name, str(seed)],
                          cwd=HERE, capture_output=True, text=True, check=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    return proc.stdout.strip()


@pytest.mark.parametrize("name", NAMES)
def test_one_seed_gives_byte_identical_documents(name):
    assert _digest(name, 11) == _digest(name, 11)
    assert _digest(name, 11) != _digest(name, 12)


@pytest.mark.parametrize("name", NAMES)
def test_two_traced_runs_report_identical_counts(name):
    first = run.traced(workloads, name, 5, 0.1, copies=1)
    second = run.traced(workloads, name, 5, 0.1, copies=1)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(BENCHMARK_PER_LAYER)
    for metric in LAYER_COUNTS:
        assert first["metrics"][metric] == second["metrics"][metric], metric
    values = {k: v["value"] for k, v in first["metrics"].items()}
    if name == "pair_conjugacy":
        assert all(values[m] == 0 for m in GRAM)
        assert all(values[m] != 0 for m in PAIR_ONLY)
    else:
        assert all(values[m] == 0 for m in PAIR_ONLY)
        assert values["gram.gram_of_ms"] > 0 and values["linalg.herm_calls"] > 0


def test_refuses_to_run_without_the_sources():
    bare = run.OUT_DIR / "selftest-no-sources"  # holds the benchmark and nothing else
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "congruence",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

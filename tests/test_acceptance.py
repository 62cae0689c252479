"""Acceptance suite: one test per criterion, printed as a pass/fail table.

Runs the same criterion functions as ``qhyp verify``.  Full trial counts are
used unless QHYP_ACCEPTANCE_QUICK is set in the environment.

Criterion 6 checks the profile round trip and two slot counts: the
enumerated cross-ratio slots against the family closed form
m*i - i(i+3)/2, and the stated closed form i(i-3)/2 + (m-i)^2 against the
family form wherever the two coincide, (m-i)(m-2i) = 0.  Elsewhere the
stated form is reported but not required: at (m, i) = (4, 3) it gives 1
slot, too few to determine the configuration (see the test body).
"""

import os

import numpy as np
import pytest

from qhyp import verify
from qhyp.decision import Decision, Verdict
from qhyp.gram import PointConfig
from qhyp.linalg import HermitianSpace
from qhyp.sampling import sample_config
from qhyp.verify import CRITERIA, CriterionResult, _perturbed_config

QUICK = bool(os.environ.get("QHYP_ACCEPTANCE_QUICK"))


def _run(index: int) -> CriterionResult:
    result = CRITERIA[index](QUICK)
    print("\n" + result.line())
    return result


@pytest.mark.parametrize("index", [1, 2, 3, 4, 5])
def test_criteria_1_to_5(index):
    result = _run(index)
    assert result.passed, result.detail


def test_criterion_6_round_trip_and_counts():
    result = _run(6)
    # The round-trip subresults must all pass; assert them separately so the
    # reader can see the functional core is sound regardless of the count
    # crosscheck below.
    assert "roundtrip" in result.detail
    for part in result.detail.split(";"):
        if "roundtrip" in part:
            frac = part.split("roundtrip")[1].split(",")[0].strip()
            done, total = frac.split("/")
            assert done == total, f"round trip failed: {part.strip()}"
    # Count crosscheck: the enumerated slots must equal the family form
    # m*i - i(i+3)/2 at every shape, and the stated form i(i-3)/2 + (m-i)^2
    # must equal it at (4, 4), (5, 5) and (6, 3), where (m-i)(m-2i) = 0.
    # At (4, 3) the stated form gives 1 against 3 family slots and is only
    # reported: a profile with a single cross ratio holds at most 5 real
    # numbers once the residual unit-quaternion conjugation is divided out,
    # while dim M(n, 3, 1) is 8 for n = 2 and 9 for n >= 3.
    assert result.passed, result.detail


@pytest.mark.parametrize("index", [7, 8, 9, 10, 11])
def test_criteria_7_to_11(index):
    result = _run(index)
    assert result.passed, result.detail


def test_perturbed_config_is_none_only_without_a_separated_neighbour():
    # at n = 1 any three distinct boundary points are congruent, so no
    # neighbour of a (3, 3, 1) configuration has a separated invariant
    rng = np.random.default_rng(7)
    line = sample_config(HermitianSpace(1), 3, 3, rng)
    assert _perturbed_config(line, rng) is None
    cfg = sample_config(HermitianSpace(2), 4, 4, rng)
    other = _perturbed_config(cfg, rng)
    assert isinstance(other, PointConfig) and other.kinds == cfg.kinds


def test_perturbed_config_lets_programming_errors_through(monkeypatch):
    # only a qhyp error means "no usable neighbour"; anything else is a bug
    def broken(*args, **kwargs):
        raise TypeError("injected")

    cfg = sample_config(HermitianSpace(2), 4, 4, np.random.default_rng(7))
    monkeypatch.setattr(verify, "gram_of", broken)
    with pytest.raises(TypeError, match="injected"):
        _perturbed_config(cfg, np.random.default_rng(8))


def test_a_bounded_check_over_its_bound_fails(monkeypatch):
    # a witness residual ten times the bound must fail the criterion and say so
    monkeypatch.setattr(verify, "congruent",
                        lambda *args: Decision(Verdict.CONGRUENT, residual=1e-6))
    result = CRITERIA[4](True)
    assert result.passed is False and "FAIL" in result.line()
    assert result.bound_ratio > 1


def test_a_failed_count_check_fails(monkeypatch):
    monkeypatch.setattr(verify, "orbit_equal", lambda *args: None)
    result = CRITERIA[5](True)
    assert result.passed is False and "FAIL" in result.line()
    assert "0/100 rescaling trials aligned" in result.detail and result.bound_ratio is None

"""The sampled lifts and configurations, bit for bit against the
quaternion-list construction they are drawn as arrays in place of."""

import numpy as np
import pytest

from qhyp.errors import DegenerateConfigurationError
from qhyp.gram import gram_of
from qhyp.invariants import ProjPoint
from qhyp.linalg import (HermitianSpace, HVector, PointType, components_from_stacked,
                         stacked_from_components)
from qhyp.quaternion import Quaternion, quaternion_array
from qhyp.sampling import _lift_components, random_quaternion, sample_config, sample_null_lift


def _reference_lift(space, rng, negative):
    """A chart lift from a list of quaternions: n - 1 random middle entries,
    then the first entry's imaginary part; its real part balances the middle
    norms, less a random depth for a negative point."""
    middle = [random_quaternion(rng) for _ in range(space.n - 1)]
    im = random_quaternion(rng).im()
    if negative:
        depth = rng.uniform(0.2, 2.0)
        re = -0.5 * (sum(q.norm_sq() for q in middle) + depth)
    else:
        re = -0.5 * sum(q.norm_sq() for q in middle)
    z1 = Quaternion.real(re) + im
    return stacked_from_components(quaternion_array([z1] + middle + [Quaternion.one()]))


def _reference_config(space, m, i, rng, scramble_lifts=False):
    for _ in range(50):
        pts = [ProjPoint(HVector(_reference_lift(space, rng, k >= i)),
                         PointType.NEGATIVE if k >= i else PointType.NULL) for k in range(m)]
        if scramble_lifts:
            pts = [ProjPoint(p.lift.times(random_quaternion(rng, 1.0)), p.kind)
                   if rng.uniform() < 0.8 else p for p in pts]
        try:
            return gram_of(space, pts)
        except DegenerateConfigurationError:
            continue
    raise AssertionError("no nondegenerate reference configuration")


@pytest.mark.parametrize("n", range(1, 9))
def test_lift_draws_are_the_quaternion_list_lifts_bitwise(n):
    # signed zeros included: at n = 1 the real part of the first entry is
    # -0.5 * 0 added to +0.0, so +0.0; and the two streams stay in step
    sp = HermitianSpace(n)
    for seed in range(20):
        rng, ref = (np.random.default_rng(900 + 10 * n + seed) for _ in range(2))
        assert sample_null_lift(sp, rng).s.tobytes() == _reference_lift(sp, ref, False).tobytes()
        got = stacked_from_components(_lift_components(sp, rng, True))
        assert got.tobytes() == _reference_lift(sp, ref, True).tobytes()
        assert rng.bytes(8) == ref.bytes(8)
    if n == 1:
        re = components_from_stacked(sample_null_lift(sp, np.random.default_rng(5)).s)[0, 0]
        assert re == 0.0 and not np.signbit(re)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("scramble", [False, True])
def test_sample_config_is_the_quaternion_list_config_bitwise(n, scramble):
    sp = HermitianSpace(n)
    for seed, (m, i) in enumerate([(3, 3), (4, 0), (5, 3), (6, 4), (2, 0), (7, 3)]):
        rng, ref = (np.random.default_rng(960 + 10 * n + seed) for _ in range(2))
        got = sample_config(sp, m, i, rng, scramble_lifts=scramble)
        want = _reference_config(sp, m, i, ref, scramble_lifts=scramble)
        assert got.kinds == want.kinds
        assert got.lifts.tobytes() == want.lifts.tobytes()
        assert got.gram.tobytes() == want.gram.tobytes()
        assert rng.bytes(8) == ref.bytes(8)

"""Seeded random generators for points, configurations, members, and pairs.

Everything takes an explicit ``numpy.random.Generator`` (or seed) so that
sampled objects are reproducible byte-for-byte.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import DegenerateConfigurationError, NumericalError
from .gram import PointConfig, gram_of
from .isometry import (
    Classification,
    EllipticSpec,
    HyperbolicSpec,
    Isometry,
    random_semisimple,
)
from .linalg import (HermitianSpace, HMatrix, HVector, PointType, right_times,
                     stacked_from_components)
from .pairs import have_common_fixed_point
from .quaternion import Quaternion, complex_pairs


def random_quaternion(rng: np.random.Generator, scale: float = 1.0) -> Quaternion:
    return Quaternion.from_seq(rng.uniform(-scale, scale, 4))


def random_unit_quaternion(rng: np.random.Generator) -> Quaternion:
    return Quaternion.from_seq(rng.normal(size=4)).unit()


def _lift_components(space: HermitianSpace, rng: np.random.Generator,
                     negative: bool) -> np.ndarray:
    """(N, 4) components of a random lift in the unbounded-domain chart (last
    coordinate 1): n - 1 random middle entries, then the imaginary part of
    the first, whose real part balances the middle norms so that the
    self-pairing vanishes exactly, or is -depth for a negative point."""
    n = space.n
    draws = rng.uniform(-1.0, 1.0, (n, 4))  # the middle rows, then Im of the first
    depth = rng.uniform(0.2, 2.0) if negative else 0.0
    sq = draws[:-1] * draws[:-1]
    norms_sq = sq[:, 0] + sq[:, 1] + sq[:, 2] + sq[:, 3]
    z = np.zeros((n + 1, 4))
    z[0, 1:], z[1:n], z[n, 0] = draws[-1, 1:], draws[:-1], 1.0
    z[0, 0] += -0.5 * (sum(norms_sq.tolist()) + depth)  # onto +0.0: never a -0.0 at n = 1
    return z


def sample_null_lift(space: HermitianSpace, rng: np.random.Generator) -> HVector:
    """Random boundary point in the unbounded-domain chart (last coordinate 1)."""
    return HVector(stacked_from_components(_lift_components(space, rng, False)))


def sample_config(space: HermitianSpace, m: int, i: int,
                  rng: np.random.Generator, scramble_lifts: bool = False) -> PointConfig:
    """Random configuration of i null points then m - i negative ones, in 50 draws at most."""
    if not (i == 0 or 3 <= i <= m):
        raise ValueError("null count must be 0 or at least 3")
    kinds = [PointType.NULL] * i + [PointType.NEGATIVE] * (m - i)
    for _ in range(50):
        S = stacked_from_components(np.array([_lift_components(space, rng, k >= i)
                                              for k in range(m)]))
        if scramble_lifts:
            for k in range(m):
                if rng.uniform() < 0.8:
                    S[:, k] = right_times(S[:, k], *complex_pairs(rng.uniform(-1.0, 1.0, 4)))
        try:
            return gram_of(space, S, kinds=kinds)
        except DegenerateConfigurationError:
            continue
    raise NumericalError("failed to sample a nondegenerate configuration")


def apply_isometry(config: PointConfig, C: HMatrix) -> PointConfig:
    """Image configuration under an isometry (same kinds, mapped lifts)."""
    return gram_of(config.space, C.emb @ config.lifts, kinds=config.kinds)


def _repeated(values: np.ndarray) -> np.ndarray:
    """Each leading value twice (an odd count keeps one single): repeated classes."""
    return np.repeat(values[:(len(values) + 1) // 2], 2)[:len(values)]


def random_hyperbolic_spec(n: int, rng: np.random.Generator,
                           regular: bool = True) -> HyperbolicSpec:
    r = float(rng.uniform(1.3, 2.5))
    theta = float(rng.uniform(0.1, math.pi - 0.1))
    angles = np.sort(rng.uniform(0.1, math.pi - 0.1, n - 1))
    if not regular:
        angles = _repeated(angles)
    return HyperbolicSpec(r, theta, tuple(float(a) for a in angles))


def random_elliptic_spec(n: int, rng: np.random.Generator,
                         regular: bool = True) -> EllipticSpec:
    """Angles kept pairwise more than 0.15 apart, so all classes are regular unless
    ``regular`` is False, which repeats the positive-class angles in pairs."""
    while True:
        angles = np.sort(rng.uniform(0.1, math.pi - 0.1, n + 1))
        if n == 0 or np.min(np.diff(angles)) > 0.15:
            positive = angles[1:] if regular else _repeated(angles[1:])
            return EllipticSpec((float(angles[0]),) + tuple(float(a) for a in positive))


def sample_semisimple(space: HermitianSpace, rng: np.random.Generator,
                      kind: Optional[Classification] = None,
                      regular: bool = True) -> Isometry:
    """Random semisimple element with a fresh seed drawn from ``rng``.

    ``regular=False`` repeats the unit angles of a hyperbolic element (n >= 3)
    or the positive-class angles of an elliptic one (n >= 2) in pairs; below
    those dimensions every element of the kind drawn here is regular.
    """
    n = space.n
    if kind is None:
        kind = Classification.HYPERBOLIC if rng.uniform() < 0.5 else Classification.ELLIPTIC
    seed = int(rng.integers(0, 2 ** 31 - 1))
    if kind is Classification.HYPERBOLIC:
        spec = random_hyperbolic_spec(n, rng, regular=regular)
    else:
        spec = random_elliptic_spec(n, rng, regular=regular)
    return random_semisimple(kind, n, spec, seed, space=space)


def sample_pair(space: HermitianSpace, rng: np.random.Generator,
                kinds: Optional[tuple[Classification, Classification]] = None,
                regular: bool = True) -> tuple[Isometry, Isometry]:
    """Semisimple pair without a common fixed point (20 draws at most);
    ``regular`` as in :func:`sample_semisimple`."""
    for _ in range(20):
        A = sample_semisimple(space, rng, kinds[0] if kinds else None, regular)
        B = sample_semisimple(space, rng, kinds[1] if kinds else None, regular)
        if not have_common_fixed_point(A, B):
            return A, B
    raise NumericalError("failed to sample a pair without common fixed points")

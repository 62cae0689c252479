"""The acceptance suite: eleven verification criteria run at desk scale.

Each criterion is a body of seeded draws and checks, listed in
``CRITERIA`` and run on a small trial harness that tallies every check,
keeps each bounded quantity's largest value and times the criterion.  The
pytest acceptance module and the ``qhyp verify`` command both call the
registered criteria.  All randomness is seeded, so every detail line is
byte-identical on a rerun; only the printed wall time varies.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .decision import Decision, Verdict
from .errors import DegenerateConfigurationError, QhypError
from .gram import congruent, gram_of, orbit_equal, reconstruct_gram, semi_normalize
from .invariants import (
    InvariantProfile,
    angular_invariant,
    boundary_quadruple_slack,
    cross_ratio,
    cross_ratio_triple,
    distance_invariant,
    profile_from_gram,
    x_slot_indices,
)
from .isometry import (
    Classification,
    EllipticSpec,
    HyperbolicSpec,
    Isometry,
    conjugate_single,
    equal_by_invariants,
    random_member,
    random_semisimple,
)
from .linalg import (HermitianSpace, HMatrix, HVector, PointType, components_from_stacked,
                     right_times, stacked, stacked_from_components)
from .pairs import (
    REASON_CLASSES,
    REASON_NO_CONJUGATOR,
    eigenframe,
    have_common_fixed_point,
    pair_conjugate,
)
from .quaternion import (Quaternion, complex_pairs, qconj_array, quaternion_array,
                         rotation_matrix, sp1_align)
from .sampling import (
    apply_isometry,
    random_elliptic_spec,
    random_hyperbolic_spec,
    random_quaternion,
    random_unit_quaternion,
    sample_config,
    sample_null_lift,
    sample_pair,
    sample_semisimple,
)

HYP = Classification.HYPERBOLIC
ELL = Classification.ELLIPTIC

# The acceptance bounds.  They judge the library's thresholds from outside,
# so they live here and not in tolerances.py; tests/test_package.py pins each.
DRIFT_BOUND = 1e-8  # relative drift of what a group element or a gauge change keeps
IMAG_BOUND = 1e-10  # imaginary part of a characteristic coefficient of the embedding
PALINDROME_BOUND = 1e-9  # palindromy defect of those coefficients
RELATION_BOUND = 1e-8  # defect of the boundary-quadruple relations
ANGLE_BOUND = 1e-9  # angular invariant away from its extreme value
RESIDUAL_BOUND = 1e-7  # a witness's residual; also the tolerance every decider runs at
ORACLE_GAP = 0.25  # the brute-force oracle's "found" threshold


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float
    #: the largest value / bound over the bounded checks; None for count-only criteria
    bound_ratio: Optional[float]

    def line(self) -> str:
        ratio = "-" if self.bound_ratio is None else f"{self.bound_ratio:.1e}"
        return (f"[criterion {self.index:>2}] {'PASS' if self.passed else 'FAIL'}  "
                f"{self.name}: {self.detail} ({self.seconds:.2f} s, closest to bound {ratio})")


class _Trials:
    """One criterion's tallies.  ``check`` counts a trial of a bounded
    quantity and keeps its largest value, ``require`` counts a verdict; the
    criterion passes when every tally is full.  A skipped draw records no
    trial."""

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.tried: Counter[str] = Counter()
        self.ok: Counter[str] = Counter()
        self.worst: dict[str, float] = {}
        self.bounds: dict[str, float] = {}

    def require(self, name: str, ok: bool) -> None:
        self.tried[name] += 1
        self.ok[name] += bool(ok)

    def check(self, name: str, value: float, bound: float) -> None:
        # -inf, not 0: a check of a negated quantity (a minimum) may stay negative
        self.worst[name] = max(self.worst.get(name, -math.inf), value)
        self.bounds[name] = bound
        self.require(name, value < bound)

    def score(self, name: str) -> str:
        return f"{self.ok[name]}/{self.tried[name]}"

    def result(self, index: int, name: str, detail: str) -> CriterionResult:
        ratios = [self.worst[k] / self.bounds[k] for k in self.worst]
        return CriterionResult(index, name, self.ok == self.tried, detail,
                               time.perf_counter() - self.start, max(ratios, default=None))


def _criterion(index: int, name: str, seed: int):
    """Make ``body(tally, rng, quick) -> detail`` criterion ``index``, run on a
    fresh harness and a generator seeded with ``seed``."""
    def wrap(body: Callable[[_Trials, np.random.Generator, bool], str]):
        def run(quick: bool = False) -> CriterionResult:
            tally = _Trials()
            detail = body(tally, np.random.default_rng(seed), quick)
            return tally.result(index, name, detail)
        return run
    return wrap


def _scaled(full: int, quick: bool, floor: int = 10) -> int:
    return max(floor, full // 10) if quick else full


def _residual(dec: Decision) -> float:
    """A positive decision's witness residual; any other verdict fails loudly."""
    return dec.residual if dec.positive else math.inf


def _moved(C: HMatrix, X: Isometry) -> Isometry:
    """C X C^-1, projected back onto the group."""
    return Isometry(X.space.project_to_group(C @ X.matrix @ C.inverse()), X.space)


def _null_lifts(sp: HermitianSpace, rng, k: int) -> np.ndarray:
    return stacked([sample_null_lift(sp, rng) for _ in range(k)])


def _bumped(spec, step: float = 1e-3):
    """The same class with its first parameter moved by ``step``."""
    if isinstance(spec, HyperbolicSpec):
        return HyperbolicSpec(spec.r + step, spec.theta, spec.unit_angles)
    angles = list(spec.angles)
    angles[0] = min(math.pi - step, angles[0] + step)
    return EllipticSpec(tuple(angles))


def _similarity_class(x: Quaternion) -> tuple[float, float]:
    # the similarity class of a quaternion is its (norm, real part)
    return x.norm(), x.re


@_criterion(1, "invariance under conjugation/congruence", seed=1001)
def criterion_1(tally: _Trials, rng: np.random.Generator, quick: bool) -> str:
    """Invariance of the basic invariants under conjugation / congruence."""
    per_kind = _scaled(200, quick)

    for _ in range(per_kind):
        sp = HermitianSpace(int(rng.integers(1, 5)))
        A = sample_semisimple(sp, rng)
        B = _moved(random_member(sp, rng), A)
        ta, tb = A.real_trace(), B.real_trace()
        drift = float(np.max(np.abs(ta - tb))) / max(1.0, float(np.max(np.abs(ta))))
        tally.check("drift", drift, DRIFT_BOUND)
        tally.require("class", B.classification is A.classification)

    # per invariant: its trial count, its point sampler, and the values a
    # group element keeps, the first of them the scale the drift is taken at
    invariants = [
        (per_kind, lambda sp: _null_lifts(sp, rng, 3),
         lambda sp, lifts: (angular_invariant(sp, lifts),)),
        (per_kind, lambda sp: sample_config(sp, 2, 0, rng).lifts,
         lambda sp, lifts: (distance_invariant(sp, lifts),)),
        (2 * per_kind, lambda sp: _null_lifts(sp, rng, 4),
         lambda sp, lifts: _similarity_class(cross_ratio(sp, lifts))),
    ]
    for count, draw, values in invariants:
        for _ in range(count):
            sp = HermitianSpace(int(rng.integers(1, 4)))
            lifts = draw(sp)
            v0 = values(sp, lifts)
            v1 = values(sp, random_member(sp, rng).emb @ lifts)
            drift = max(abs(a - b) for a, b in zip(v0, v1)) / max(1.0, v0[0])
            tally.check("drift", drift, DRIFT_BOUND)

    return f"{5 * per_kind} trials, max relative drift {tally.worst['drift']:.2e}"


@_criterion(2, "embedding characteristic coefficients", seed=1002)
def criterion_2(tally: _Trials, rng: np.random.Generator, quick: bool) -> str:
    """Embedding contract: real palindromic characteristic coefficients."""
    trials = _scaled(500, quick)
    for t in range(trials):
        sp = HermitianSpace(int(rng.integers(1, 5)))
        if t % 3 == 0:
            M = random_member(sp, rng) @ random_member(sp, rng)
        elif t % 3 == 1:
            M = sample_semisimple(sp, rng).matrix
        else:
            M = random_member(sp, rng)
        coeffs = np.poly(np.linalg.eigvals(M.emb))
        full = coeffs.real[1:-1]
        tally.check("im", float(np.max(np.abs(coeffs.imag))), IMAG_BOUND)
        tally.check("pal", float(np.max(np.abs(full - full[::-1]))), PALINDROME_BOUND)
    return (f"{trials} members, max |Im| {tally.worst['im']:.2e}, "
            f"max palindromy defect {tally.worst['pal']:.2e}")


@_criterion(3, "cross-ratio relations on boundary quadruples", seed=1003)
def criterion_3(tally: _Trials, rng: np.random.Generator, quick: bool) -> str:
    """Cross-ratio relations on boundary quadruples."""
    trials = _scaled(500, quick)
    for _ in range(trials):
        sp = HermitianSpace(int(rng.integers(1, 5)))
        try:
            x1, x2, x3 = cross_ratio_triple(sp, _null_lifts(sp, rng, 4))
        except DegenerateConfigurationError:  # the library refused the quadruple: a failed trial
            tally.check("mod", math.inf, RELATION_BOUND)
            continue
        tally.check("mod", abs(x2.norm() - x1.norm() * x3.norm()) / max(1.0, x2.norm()),
                    RELATION_BOUND)
        tally.check("slack", -boundary_quadruple_slack(x1, x2, x3), RELATION_BOUND)
    return (f"{trials} quadruples, |X2|=|X1||X3| defect {tally.worst['mod']:.2e}, "
            f"min slack of 2|X3|^2 Re(X1) >= |X2|^2+|X3|^2-2Re(X2)-2Re(X3)+1: "
            f"{-tally.worst['slack']:.2e}")


def _boundary_triple(sp: HermitianSpace, aval: float, axis: Quaternion):
    """Gram of the null points infinity, origin and u, where u's first entry
    is -cos(aval) + axis sin(aval) for a unit imaginary ``axis``."""
    z = np.zeros((3, sp.dim, 4))
    z[:, -1, 0] = [0.0, 1.0, 1.0]
    z[0, 0, 0] = 1.0
    z[2, 0] = np.array([-math.cos(aval), 0.0, 0.0, 0.0]) + axis.to_array() * math.sin(aval)
    if sp.n >= 2:
        z[2, 1, 0] = math.sqrt(2 * math.cos(aval))
    return gram_of(sp, stacked_from_components(z))


def _unit_axis(rng, fallback: Quaternion) -> Quaternion:
    ax = random_unit_quaternion(rng).im()
    return ax * (1.0 / ax.norm()) if ax.norm() > 1e-6 else fallback


@_criterion(4, "triple classification by the angular invariant", seed=1004)
def criterion_4(tally: _Trials, rng: np.random.Generator, quick: bool) -> str:
    """Triple classification: extremes and congruence at equal invariant."""
    trials = _scaled(100, quick)
    # every boundary triple at n=1 lies on one quaternionic line: A = pi/2
    sp1 = HermitianSpace(1)
    for _ in range(trials):
        a = angular_invariant(sp1, _null_lifts(sp1, rng, 3))
        tally.check("line", abs(a - math.pi / 2), ANGLE_BOUND)
    # totally real triples: invariant 0
    sp2 = HermitianSpace(2)
    for _ in range(trials):
        base = rng.uniform(0.2, 1.0, 3)
        vals = 0.3 + np.cumsum(base)  # separated parameters: distinct points
        z = np.zeros((3, 3, 4))
        z[:, :, 0] = np.stack([-vals, np.sqrt(2 * vals), np.ones(3)], axis=1)
        a = angular_invariant(sp2, stacked_from_components(z))
        tally.check("real", a, ANGLE_BOUND)
    # equal invariant implies congruent, with a verified witness; alternating
    # the dimension exercises witness construction both with and without
    # orthogonal basis completion
    for t in range(trials):
        sp = HermitianSpace(2 + t % 2)
        aval = float(rng.uniform(0.05, math.pi / 2 - 0.05))
        ax1 = _unit_axis(rng, Quaternion.i())
        ax2 = _unit_axis(rng, Quaternion.j())
        dec = congruent(_boundary_triple(sp, aval, ax1), _boundary_triple(sp, aval, ax2),
                        RESIDUAL_BOUND)
        tally.check("witness", _residual(dec), RESIDUAL_BOUND)
    return (f"line-triple deviation {tally.worst['line']:.2e}, real-triple max "
            f"{tally.worst['real']:.2e}, equal-invariant witnesses <= {tally.worst['witness']:.2e}")


@_criterion(5, "gauge freedom of semi-normalized Gram matrices", seed=1005)
def criterion_5(tally: _Trials, rng: np.random.Generator, quick: bool) -> str:
    """Gauge theorem: unit rescalings stay in one conjugation orbit."""
    trials = _scaled(1000, quick)
    for t in range(trials):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(3, 9))
        i = m if t % 3 == 0 else (0 if t % 3 == 1 else min(3, m))
        sp = HermitianSpace(n)
        cfg = sample_config(sp, m, i, rng)
        s1 = semi_normalize(cfg)
        lam = quaternion_array(random_unit_quaternion(rng) for _ in range(m))
        s2 = semi_normalize(gram_of(sp, right_times(cfg.lifts, *complex_pairs(lam))))
        tally.require("aligned", orbit_equal(s1, s2, DRIFT_BOUND) is not None)
    return f"{tally.score('aligned')} rescaling trials aligned"


ROUND_TRIP_SHAPES = [(4, 4, 2), (4, 3, 2), (5, 5, 3), (5, 0, 2), (6, 3, 3)]


@_criterion(6, "profile reconstruction round trip and counts", seed=1006)
def criterion_6(tally: _Trials, rng: np.random.Generator, quick: bool) -> str:
    """Profile -> reconstruction round trip and slot counts."""
    per_shape = _scaled(100, quick)
    detail_parts = []
    for (m, i, n) in ROUND_TRIP_SHAPES:
        sp = HermitianSpace(n)
        trip = f"roundtrip {m},{i}"
        for _ in range(per_shape):
            cfg = sample_config(sp, m, i, rng)
            sng = semi_normalize(cfg)
            prof = profile_from_gram(sng)
            rebuilt = reconstruct_gram(prof)
            mu = orbit_equal(sng, rebuilt, RESIDUAL_BOUND)
            resid = math.inf if mu is None else float(np.max(np.linalg.norm(
                rebuilt.conjugated(mu).v_entries() - sng.v_entries(), axis=1)))
            # a profile with the wrong number of pair slots fails its round trip
            if prof.t_count != InvariantProfile.closed_form_pairs(m, i) - prof.l_count:
                resid = math.inf
            tally.check(trip, resid, RESIDUAL_BOUND)
        # slot-count crosschecks: the enumerated slots must match the family
        # closed form everywhere.  The stated closed form applies to shapes
        # with a null block (i >= 3) and differs from the family form by
        # (m-i)(m-2i), so it must match only where that product is zero and
        # is just reported elsewhere
        d_actual = len(x_slot_indices(m, i))
        d_family = InvariantProfile.closed_form_family_d(m, i)
        count_ok = d_actual == d_family
        stated = ""
        if i >= 3:
            d_stated = InvariantProfile.closed_form_d(m, i)
            if (m - i) * (m - 2 * i) == 0:
                count_ok = count_ok and d_stated == d_family
            stated = f" (stated form {d_stated})"
        tally.require(f"slots {m},{i}", count_ok)
        detail_parts.append(
            f"(m={m},i={i}): roundtrip {tally.score(trip)}, "
            f"max residual {tally.worst[trip]:.1e}, slots {d_actual} vs family form {d_family}"
            f"{stated}" + ("" if count_ok else " MISMATCH"))
    return "; ".join(detail_parts)


@_criterion(7, "congruence decider", seed=1007)
def criterion_7(tally: _Trials, rng: np.random.Generator, quick: bool) -> str:
    """Congruence decider soundness and completeness."""
    half = _scaled(500, quick)
    shapes = [(4, 4, 2), (4, 3, 2), (5, 0, 2), (5, 5, 3), (6, 3, 3), (3, 3, 1)]
    for t in range(half):
        m, i, n = shapes[t % len(shapes)]
        sp = HermitianSpace(n)
        cfg = sample_config(sp, m, i, rng, scramble_lifts=True)
        moved = apply_isometry(cfg, random_member(sp, rng))
        tally.check("accepted", _residual(congruent(cfg, moved, RESIDUAL_BOUND)),
                    RESIDUAL_BOUND)
    # at n = 1 any three boundary points are congruent, so no neighbour of a
    # (3, 3, 1) configuration is separated: the negative half leaves it out
    separable = shapes[:-1]
    for t in range(half):
        m, i, n = separable[t % len(separable)]
        sp = HermitianSpace(n)
        cfg = sample_config(sp, m, i, rng)
        other = _perturbed_config(cfg, rng)
        if other is None:  # no neighbour found with a separated invariant
            continue
        dec = congruent(cfg, other, RESIDUAL_BOUND)
        tally.require("rejected", dec.verdict is Verdict.NOT_CONGRUENT)
    return (f"{tally.score('accepted')} congruent accepted (max witness residual "
            f"{tally.worst['accepted']:.2e}), {tally.score('rejected')} separated rejected, "
            f"{half - tally.tried['rejected']} undecided (no neighbour with a separated "
            f"invariant found)")


def _perturbed_config(cfg, rng, delta: float = 1e-3):
    """Visibly move one point; certify that an invariant actually changed."""
    sp = cfg.space
    base = semi_normalize(cfg)
    for _ in range(10):
        idx = int(rng.integers(0, cfg.m))
        lifts = cfg.lifts.copy()
        if cfg.kinds[idx] == PointType.NULL:
            z = (components_from_stacked(lifts[:, idx])
                 + components_from_stacked(sample_null_lift(sp, rng).s) * 0.05)
            # re-null: moving z_1 along z_last by a real shift adds 2 shift |z_last|^2 to <z, z>
            lift = HVector(stacked_from_components(z))
            shift = -sp.herm(lift, lift).re / (2 * np.dot(z[-1], z[-1]))
            z[0] = z[0] + z[-1] * shift
            lifts[:, idx] = stacked_from_components(z)
        else:
            lifts[:, idx] += sample_null_lift(sp, rng).times(delta * 10).s
        try:
            other = gram_of(sp, lifts)
            if other.kinds != cfg.kinds:  # the moved point changed its type
                continue
            probe = semi_normalize(other)
        except QhypError:
            continue
        a, b = base.v_entries(), probe.v_entries()
        sep = max(np.max(np.abs(np.linalg.norm(a, axis=1) - np.linalg.norm(b, axis=1))),
                  np.max(np.abs(a[:, 0] - b[:, 0])))
        if sep > 1e-5:
            return other
    return None


@_criterion(8, "single-element conjugacy", seed=1008)
def criterion_8(tally: _Trials, rng: np.random.Generator, quick: bool) -> str:
    """Single-element conjugacy."""
    half = _scaled(500, quick)
    # conjugates must be accepted, elements of a bumped class rejected
    for name, bump in (("accepted", False), ("rejected", True)):
        for t in range(half):
            n = int(rng.integers(1, 4))
            sp = HermitianSpace(n)
            kind = HYP if t % 2 == 0 else ELL
            spec = (random_hyperbolic_spec if kind is HYP else random_elliptic_spec)(n, rng)
            s1, s2 = int(rng.integers(0, 2 ** 31)), int(rng.integers(0, 2 ** 31))
            A = random_semisimple(kind, n, spec, s1, space=sp)
            B = random_semisimple(kind, n, _bumped(spec) if bump else spec, s2, space=sp)
            tally.require(name, conjugate_single(A, B) != bump)
    return (f"{tally.score('accepted')} conjugates accepted, "
            f"{tally.score('rejected')} class-perturbed rejected")


@_criterion(9, "pair decider", seed=1009)
def criterion_9(tally: _Trials, rng: np.random.Generator, quick: bool) -> str:
    """Pair decider on regular pairs and on pairs with repeated classes."""
    count = _scaled(500, quick)
    kind_cycle = [(HYP, HYP), (ELL, ELL), (HYP, ELL)]
    for t in range(count):
        sp = HermitianSpace(int(rng.integers(1, 5)))
        A, B = sample_pair(sp, rng, kinds=kind_cycle[t % 3])
        C0 = random_member(sp, rng)
        dec = pair_conjugate(A, B, _moved(C0, A), _moved(C0, B), RESIDUAL_BOUND)
        tally.check("conjugate", _residual(dec), RESIDUAL_BOUND)

    for t in range(_scaled(300, quick)):
        n = int(rng.integers(1, 3))
        sp = HermitianSpace(n)
        mode = t % 3
        if mode == 0:
            spec = random_hyperbolic_spec(n, rng)
            A = random_semisimple(HYP, n, spec, int(rng.integers(0, 2 ** 31)), space=sp)
            A2 = random_semisimple(HYP, n, _bumped(spec, 1e-2), int(rng.integers(0, 2 ** 31)),
                                   space=sp)
            B = sample_semisimple(sp, rng)
            if have_common_fixed_point(A, B) or have_common_fixed_point(A2, B):
                continue
            dec = pair_conjugate(A, B, A2, B, RESIDUAL_BOUND)
            tally.require("classes", dec.verdict is Verdict.NOT_CONJUGATE
                          and dec.reason == REASON_CLASSES)
        elif mode == 1:
            A, B = sample_pair(sp, rng)
            B2 = _moved(random_member(sp, rng), B)
            if have_common_fixed_point(A, B2):
                continue
            dec = pair_conjugate(A, B, A, B2, RESIDUAL_BOUND)
            # repositioning may land in the same orbit; verified, so valid
            tally.require("orbit", dec.verdict is Verdict.NOT_CONJUGATE
                          and dec.reason == REASON_NO_CONJUGATOR
                          or _residual(dec) < RESIDUAL_BOUND)
        else:
            A, B = sample_pair(sp, rng, kinds=(HYP, HYP))
            if abs(max(A.eigen.angles)) < 1e-3:
                continue
            f = eigenframe(A)
            D = HMatrix.from_components(np.eye(sp.dim)[..., None] * [0.0, 0.0, 1.0, 0.0])  # diag(j)
            A_moved = Isometry(
                sp.project_to_group(f.C @ D @ f.E @ D.inverse() @ f.C.inverse()), sp)
            dec = pair_conjugate(A, B, A_moved, B, RESIDUAL_BOUND)
            tally.require("grassmannian", dec.verdict is Verdict.NOT_CONJUGATE
                          and dec.reason == REASON_NO_CONJUGATOR)

    # repeated eigenvalue classes, drawn from their own stream so that the
    # regular draws above stay as they were
    rng = np.random.default_rng(2009)
    half = _scaled(60, quick)
    for t in range(2 * half):
        sp = HermitianSpace(2 + t % 3)
        A, B = sample_pair(sp, rng, kinds=kind_cycle[t % 3], regular=False)
        C1 = random_member(sp, rng)
        B2 = _moved(C1, B)
        if t < half:  # conjugate: both members moved by C1
            dec = pair_conjugate(A, B, _moved(C1, A), B2, RESIDUAL_BOUND)
            tally.check("repeated", _residual(dec), RESIDUAL_BOUND)
        elif not have_common_fixed_point(A, B2):  # only B moved
            dec = pair_conjugate(A, B, A, B2, RESIDUAL_BOUND)
            tally.require("moved", dec.verdict is Verdict.NOT_CONJUGATE
                          or _residual(dec) < RESIDUAL_BOUND)
    return (f"{tally.score('conjugate')} conjugate pairs accepted (max residual "
            f"{tally.worst['conjugate']:.2e}); separated: classes {tally.score('classes')}, "
            f"orbit {tally.score('orbit')}, Grassmannian {tally.score('grassmannian')}; "
            f"repeated classes: {tally.score('repeated')} conjugate accepted, "
            f"{tally.score('moved')} moved decided")


@_criterion(10, "equality by invariants vs matrix equality", seed=1010)
def criterion_10(tally: _Trials, rng: np.random.Generator, quick: bool) -> str:
    """Equality by invariants agrees with matrix equality."""
    trials = _scaled(1000, quick)
    for t in range(trials):
        n = int(rng.integers(1, 4))
        sp = HermitianSpace(n)
        spec = random_hyperbolic_spec(n, rng)
        seed = int(rng.integers(0, 2 ** 31))
        A = random_semisimple(HYP, n, spec, seed, space=sp)
        mode = t % 3
        if mode == 0:
            B = Isometry(A.matrix.copy(), sp)
        elif mode == 1:
            B = _moved(random_member(sp, rng), A)
        else:
            B = random_semisimple(HYP, n, _bumped(spec), seed, space=sp)
        same_matrix = (A.matrix - B.matrix).norm() <= RESIDUAL_BOUND * max(1.0, A.matrix.norm())
        tally.require("agree", equal_by_invariants(A, B) == same_matrix)
    return f"{trials} sampled pairs, {tally.tried['agree'] - tally.ok['agree']} disagreements"


@_criterion(11, "alignment solver vs brute-force oracle", seed=1011)
def criterion_11(tally: _Trials, rng: np.random.Generator, quick: bool) -> str:
    """Alignment solver vs brute-force oracle."""
    instances = _scaled(200, quick, floor=20)
    samples = 100_000
    for t in range(instances):
        k = int(rng.integers(1, 4))
        if t % 2 == 0:
            mu0 = random_unit_quaternion(rng)
            w = [random_quaternion(rng, 1.0) for _ in range(k)]
            v = [mu0.conj() * q * mu0 for q in w]
            solvable = True
        else:
            # distort the right angle between unit imaginary parts by a full
            # radian: no rotation gets closer than about 0.49
            bent = math.pi / 2 - 1.0
            w1 = Quaternion.from_vector(rng.normal(), [1.0, 0.0, 0.0])
            w2 = Quaternion.from_vector(rng.normal(), [0.0, 1.0, 0.0])
            v1 = Quaternion.from_vector(w1.re, [1.0, 0.0, 0.0])
            v2 = Quaternion.from_vector(w2.re, [math.cos(bent), math.sin(bent), 0.0])
            v, w = [v1, v2], [w1, w2]
            solvable = False
        warr = np.array([q.to_array() for q in w])
        varr = np.array([q.to_array() for q in v])
        mu = sp1_align(varr, warr, RESIDUAL_BOUND)
        mus = rng.normal(size=(samples, 4))
        mus /= np.linalg.norm(mus, axis=1, keepdims=True)
        # conj(mu) w mu keeps w's real part and turns Im(w) by R(conj(mu))
        turned = np.einsum("sij,kj->ski", rotation_matrix(qconj_array(mus)), warr[:, 1:])
        gaps = np.hypot(warr[:, 0] - varr[:, 0], np.linalg.norm(turned - varr[:, 1:], axis=2))
        oracle_found = float(np.min(np.max(gaps, axis=1))) < ORACLE_GAP
        if mu is None:
            tally.require("agree", not (oracle_found or solvable))
        else:
            tally.require("agree", oracle_found and solvable and all(
                (mu.conj() * wk * mu).approx_eq(vk, RESIDUAL_BOUND) for vk, wk in zip(v, w)))
    return f"{tally.score('agree')} instances agree ({samples} oracle samples each)"


CRITERIA: dict[int, Callable[[bool], CriterionResult]] = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10, 11: criterion_11,
}


def run_suite(quick: bool = False,
              criteria: Optional[Sequence[int]] = None) -> list[CriterionResult]:
    wanted = sorted(criteria) if criteria else sorted(CRITERIA)
    return [CRITERIA[idx](quick) for idx in wanted]

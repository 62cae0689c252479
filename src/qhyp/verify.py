"""The acceptance suite: eleven verification criteria run at desk scale.

Each criterion is a standalone function returning a result record; the
pytest acceptance module and the ``qhyp verify`` command both call
``run_suite``.  All randomness is seeded, so reruns are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .decision import Verdict
from .errors import DegenerateConfigurationError, QhypError
from .gram import congruent, gram_of, orbit_equal, reconstruct_gram, semi_normalize
from .invariants import (
    InvariantProfile,
    ProjPoint,
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
                     stacked_from_components)
from .pairs import (
    REASON_NO_CONJUGATOR,
    REASON_TRACE,
    eigenframe,
    have_common_fixed_point,
    pair_conjugate,
)
from .quaternion import Quaternion, qconj_array, rotation_matrix, sp1_align
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


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str


def _scaled(full: int, quick: bool, floor: int = 10) -> int:
    return max(floor, full // 10) if quick else full


# ---------------------------------------------------------------------------
# 1. invariance of the basic invariants under conjugation / congruence
# ---------------------------------------------------------------------------

def criterion_1(quick: bool = False) -> CriterionResult:
    per_kind = _scaled(200, quick)
    rng = np.random.default_rng(1001)
    worst = 0.0
    fails = 0

    for t in range(per_kind):
        n = int(rng.integers(1, 5))
        sp = HermitianSpace(n)
        A = sample_semisimple(sp, rng)
        C = random_member(sp, rng)
        B = Isometry(sp.project_to_group(C @ A.matrix @ C.inverse()), sp)
        ta, tb = A.real_trace(), B.real_trace()
        drift = float(np.max(np.abs(ta - tb))) / max(1.0, float(np.max(np.abs(ta))))
        worst = max(worst, drift)
        if drift > 1e-8:
            fails += 1
        if B.classification is not A.classification:
            fails += 1

    for t in range(per_kind):
        n = int(rng.integers(1, 4))
        sp = HermitianSpace(n)
        pts = [ProjPoint(sample_null_lift(sp, rng), PointType.NULL) for _ in range(3)]
        a0 = angular_invariant(sp, *pts)
        C = random_member(sp, rng)
        moved = [ProjPoint(C.apply(p.lift), p.kind) for p in pts]
        drift = abs(angular_invariant(sp, *moved) - a0) / max(1.0, a0)
        worst = max(worst, drift)
        if drift > 1e-8:
            fails += 1

    for t in range(per_kind):
        n = int(rng.integers(1, 4))
        sp = HermitianSpace(n)
        cfg = sample_config(sp, 2, 0, rng)
        d0 = distance_invariant(sp, *cfg.points)
        C = random_member(sp, rng)
        moved = [ProjPoint(C.apply(p.lift), p.kind) for p in cfg.points]
        drift = abs(distance_invariant(sp, *moved) - d0) / max(1.0, d0)
        worst = max(worst, drift)
        if drift > 1e-8:
            fails += 1

    for t in range(per_kind * 2):
        n = int(rng.integers(1, 4))
        sp = HermitianSpace(n)
        pts = [ProjPoint(sample_null_lift(sp, rng), PointType.NULL) for _ in range(4)]
        x0 = cross_ratio(sp, *pts)
        C = random_member(sp, rng)
        moved = [ProjPoint(C.apply(p.lift), p.kind) for p in pts]
        x1 = cross_ratio(sp, *moved)
        # the similarity class of a quaternion is its (norm, real part)
        drift = max(abs(x0.norm() - x1.norm()), abs(x0.re - x1.re)) / max(1.0, x0.norm())
        worst = max(worst, drift)
        if drift > 1e-8:
            fails += 1

    passed = fails == 0
    return CriterionResult(1, "invariance under conjugation/congruence", passed,
                           f"{5 * per_kind} trials, max relative drift {worst:.2e}")


# ---------------------------------------------------------------------------
# 2. embedding contract: real palindromic characteristic coefficients
# ---------------------------------------------------------------------------

def criterion_2(quick: bool = False) -> CriterionResult:
    trials = _scaled(500, quick)
    rng = np.random.default_rng(1002)
    worst_im = worst_pal = 0.0
    fails = 0
    for t in range(trials):
        n = int(rng.integers(1, 5))
        sp = HermitianSpace(n)
        if t % 3 == 0:
            M = random_member(sp, rng) @ random_member(sp, rng)
        elif t % 3 == 1:
            M = sample_semisimple(sp, rng).matrix
        else:
            M = random_member(sp, rng)
        eigs = np.linalg.eigvals(M.emb)
        coeffs = np.poly(eigs)
        im = float(np.max(np.abs(coeffs.imag)))
        full = coeffs.real[1:-1]
        pal = float(np.max(np.abs(full - full[::-1])))
        worst_im = max(worst_im, im)
        worst_pal = max(worst_pal, pal)
        if im > 1e-10 or pal > 1e-9:
            fails += 1
    return CriterionResult(2, "embedding characteristic coefficients", fails == 0,
                           f"{trials} members, max |Im| {worst_im:.2e}, "
                           f"max palindromy defect {worst_pal:.2e}")


# ---------------------------------------------------------------------------
# 3. cross-ratio relations on boundary quadruples
# ---------------------------------------------------------------------------

def criterion_3(quick: bool = False) -> CriterionResult:
    trials = _scaled(500, quick)
    rng = np.random.default_rng(1003)
    worst_mod = 0.0
    worst_slack = math.inf
    fails = 0
    for t in range(trials):
        n = int(rng.integers(1, 5))
        sp = HermitianSpace(n)
        pts = [ProjPoint(sample_null_lift(sp, rng), PointType.NULL) for _ in range(4)]
        try:
            x1, x2, x3 = cross_ratio_triple(sp, *pts, check_relations=False)
        except DegenerateConfigurationError:
            continue
        mod = abs(x2.norm() - x1.norm() * x3.norm()) / max(1.0, x2.norm())
        slack = boundary_quadruple_slack(x1, x2, x3)
        worst_mod = max(worst_mod, mod)
        worst_slack = min(worst_slack, slack)
        if mod > 1e-8 or slack < -1e-8:
            fails += 1
    return CriterionResult(
        3, "cross-ratio relations on boundary quadruples", fails == 0,
        f"{trials} quadruples, |X2|=|X1||X3| defect {worst_mod:.2e}, "
        f"min slack of 2|X3|^2 Re(X1) >= |X2|^2+|X3|^2-2Re(X2)-2Re(X3)+1: "
        f"{worst_slack:.2e}")


# ---------------------------------------------------------------------------
# 4. triple classification: extremes and congruence at equal invariant
# ---------------------------------------------------------------------------

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


def criterion_4(quick: bool = False) -> CriterionResult:
    trials = _scaled(100, quick)
    rng = np.random.default_rng(1004)
    fails = 0
    worst_line = 0.0
    # every boundary triple at n=1 lies on one quaternionic line: A = pi/2
    sp1 = HermitianSpace(1)
    for _ in range(trials):
        pts = [ProjPoint(sample_null_lift(sp1, rng), PointType.NULL) for _ in range(3)]
        a = angular_invariant(sp1, *pts)
        worst_line = max(worst_line, abs(a - math.pi / 2))
        if abs(a - math.pi / 2) > 1e-9:
            fails += 1
    # totally real triples: invariant 0
    sp2 = HermitianSpace(2)
    worst_real = 0.0
    for t in range(trials):
        base = rng.uniform(0.2, 1.0, 3)
        vals = 0.3 + np.cumsum(base)  # separated parameters: distinct points
        z = np.zeros((3, 3, 4))
        z[:, :, 0] = np.stack([-vals, np.sqrt(2 * vals), np.ones(3)], axis=1)
        a = angular_invariant(sp2, *(ProjPoint.from_lift(sp2, HVector(stacked_from_components(q)))
                                     for q in z))
        worst_real = max(worst_real, a)
        if a > 1e-9:
            fails += 1
    # equal invariant implies congruent, with a verified witness; alternating
    # the dimension exercises witness construction both with and without
    # orthogonal basis completion
    worst_resid = 0.0
    for t in range(_scaled(100, quick)):
        sp = HermitianSpace(2 + t % 2)
        aval = float(rng.uniform(0.05, math.pi / 2 - 0.05))
        ax1 = random_unit_quaternion(rng).im()
        ax1 = ax1 * (1.0 / ax1.norm()) if ax1.norm() > 1e-6 else Quaternion.i()
        ax2 = random_unit_quaternion(rng).im()
        ax2 = ax2 * (1.0 / ax2.norm()) if ax2.norm() > 1e-6 else Quaternion.j()
        t1 = _boundary_triple(sp, aval, ax1)
        t2 = _boundary_triple(sp, aval, ax2)
        dec = congruent(t1, t2, 1e-7)
        if dec.verdict is not Verdict.CONGRUENT:
            fails += 1
        else:
            worst_resid = max(worst_resid, dec.residual)
    return CriterionResult(
        4, "triple classification by the angular invariant", fails == 0,
        f"line-triple deviation {worst_line:.2e}, real-triple max {worst_real:.2e}, "
        f"equal-invariant witnesses <= {worst_resid:.2e}")


# ---------------------------------------------------------------------------
# 5. gauge theorem: unit rescalings stay in one conjugation orbit
# ---------------------------------------------------------------------------

def criterion_5(quick: bool = False) -> CriterionResult:
    trials = _scaled(1000, quick)
    rng = np.random.default_rng(1005)
    ok = 0
    for t in range(trials):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(3, 9))
        i = m if t % 3 == 0 else (0 if t % 3 == 1 else min(3, m))
        sp = HermitianSpace(n)
        cfg = sample_config(sp, m, i, rng)
        s1 = semi_normalize(cfg)
        pts = [p.rescaled(random_unit_quaternion(rng)) for p in cfg.points]
        s2 = semi_normalize(gram_of(sp, pts))
        if orbit_equal(s1, s2, 1e-8) is not None:
            ok += 1
    return CriterionResult(5, "gauge freedom of semi-normalized Gram matrices",
                           ok == trials, f"{ok}/{trials} rescaling trials aligned")


# ---------------------------------------------------------------------------
# 6. profile -> reconstruction round trip and slot counts
# ---------------------------------------------------------------------------

ROUND_TRIP_SHAPES = [(4, 4, 2), (4, 3, 2), (5, 5, 3), (5, 0, 2), (6, 3, 3)]


def criterion_6(quick: bool = False) -> CriterionResult:
    per_shape = _scaled(100, quick)
    rng = np.random.default_rng(1006)
    fails = []
    detail_parts = []
    for (m, i, n) in ROUND_TRIP_SHAPES:
        sp = HermitianSpace(n)
        bad = 0
        worst = 0.0
        for _ in range(per_shape):
            cfg = sample_config(sp, m, i, rng)
            sng = semi_normalize(cfg)
            prof = profile_from_gram(sng)
            rebuilt = reconstruct_gram(prof)
            mu = orbit_equal(sng, rebuilt, 1e-7)
            if mu is None:
                bad += 1
                continue
            resid = float(np.max(np.linalg.norm(
                rebuilt.conjugated(mu).v_entries() - sng.v_entries(), axis=1)))
            worst = max(worst, resid)
            if resid > 1e-7:
                bad += 1
            pairs_expected = InvariantProfile.closed_form_pairs(m, i)
            if prof.t_count != pairs_expected - prof.l_count:
                bad += 1
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
        if bad or not count_ok:
            fails.append((m, i, bad, d_actual, d_family))
        detail_parts.append(
            f"(m={m},i={i}): roundtrip {per_shape - bad}/{per_shape}, "
            f"max residual {worst:.1e}, slots {d_actual} vs family form {d_family}{stated}"
            + ("" if count_ok else " MISMATCH"))
    return CriterionResult(6, "profile reconstruction round trip and counts",
                           not fails, "; ".join(detail_parts))


# ---------------------------------------------------------------------------
# 7. congruence decider soundness and completeness
# ---------------------------------------------------------------------------

def criterion_7(quick: bool = False) -> CriterionResult:
    half = _scaled(500, quick)
    rng = np.random.default_rng(1007)
    pos_ok = neg_ok = undecided = 0
    worst_resid = 0.0
    shapes = [(4, 4, 2), (4, 3, 2), (5, 0, 2), (5, 5, 3), (6, 3, 3), (3, 3, 1)]
    for t in range(half):
        m, i, n = shapes[t % len(shapes)]
        sp = HermitianSpace(n)
        cfg = sample_config(sp, m, i, rng, scramble_lifts=True)
        moved = apply_isometry(cfg, random_member(sp, rng))
        dec = congruent(cfg, moved, 1e-7)
        if dec.verdict is Verdict.CONGRUENT and dec.residual < 1e-7:
            pos_ok += 1
            worst_resid = max(worst_resid, dec.residual)
    for t in range(half):
        m, i, n = shapes[t % len(shapes)]
        sp = HermitianSpace(n)
        cfg = sample_config(sp, m, i, rng)
        other = _perturbed_config(cfg, rng)
        if other is None:  # no neighbour found with a separated invariant
            undecided += 1
            continue
        dec = congruent(cfg, other, 1e-7)
        if dec.verdict is Verdict.NOT_CONGRUENT:
            neg_ok += 1
    passed = pos_ok == half and neg_ok == half - undecided
    return CriterionResult(
        7, "congruence decider", passed,
        f"{pos_ok}/{half} congruent accepted (max witness residual "
        f"{worst_resid:.2e}), {neg_ok}/{half - undecided} separated rejected, "
        f"{undecided} undecided (no separated neighbour: at n = 1 any three "
        f"boundary points are congruent)")


def _perturbed_config(cfg, rng, delta: float = 1e-3):
    """Visibly move one point; certify that an invariant actually changed."""
    sp = cfg.space
    base = semi_normalize(cfg)
    for _ in range(10):
        idx = int(rng.integers(0, cfg.m))
        pts = list(cfg.points)
        kind = pts[idx].kind
        if kind == PointType.NULL:
            z = (components_from_stacked(pts[idx].lift.s)
                 + components_from_stacked(sample_null_lift(sp, rng).s) * 0.05)
            # re-null: solve 2 Re(conj(z_last) z_1) + |middle|^2 = 0 by
            # moving z_1 along z_last
            sq, p = z * z, z[-1] * z[0]
            norms_sq = (sq[:, 0] + sq[:, 1] + sq[:, 2] + sq[:, 3]).tolist()
            pair = p[0] + p[1] + p[2] + p[3]
            shift = -(2 * pair + sum(norms_sq[1:-1])) / (2 * norms_sq[-1])
            z[0] = z[0] + z[-1] * shift
            cand = HVector(stacked_from_components(z))
        else:
            cand = pts[idx].lift + sample_null_lift(sp, rng).times(delta * 10)
            if sp.classify_vector(cand, 1e-9) != PointType.NEGATIVE:
                continue
        pts[idx] = ProjPoint.from_lift(sp, cand)
        try:
            other = gram_of(sp, pts)
            probe = semi_normalize(other)
        except QhypError:
            continue
        a, b = base.v_entries(), probe.v_entries()
        sep = max(np.max(np.abs(np.linalg.norm(a, axis=1) - np.linalg.norm(b, axis=1))),
                  np.max(np.abs(a[:, 0] - b[:, 0])))
        if sep > 1e-5:
            return other
    return None


# ---------------------------------------------------------------------------
# 8. single-element conjugacy
# ---------------------------------------------------------------------------

def criterion_8(quick: bool = False) -> CriterionResult:
    half = _scaled(500, quick)
    rng = np.random.default_rng(1008)
    acc = rej = 0
    for t in range(half):
        n = int(rng.integers(1, 4))
        sp = HermitianSpace(n)
        kind = HYP if t % 2 == 0 else ELL
        if kind is HYP:
            spec = random_hyperbolic_spec(n, rng)
        else:
            spec = random_elliptic_spec(n, rng)
        s1, s2 = int(rng.integers(0, 2 ** 31)), int(rng.integers(0, 2 ** 31))
        A = random_semisimple(kind, n, spec, s1, space=sp)
        B = random_semisimple(kind, n, spec, s2, space=sp)
        if conjugate_single(A, B):
            acc += 1
    for t in range(half):
        n = int(rng.integers(1, 4))
        sp = HermitianSpace(n)
        kind = HYP if t % 2 == 0 else ELL
        if kind is HYP:
            spec = random_hyperbolic_spec(n, rng)
            bumped = HyperbolicSpec(spec.r + 1e-3, spec.theta, spec.unit_angles)
        else:
            spec = random_elliptic_spec(n, rng)
            angles = list(spec.angles)
            angles[0] = min(math.pi - 1e-3, angles[0] + 1e-3)
            bumped = EllipticSpec(tuple(angles))
        A = random_semisimple(kind, n, spec, int(rng.integers(0, 2 ** 31)), space=sp)
        B = random_semisimple(kind, n, bumped, int(rng.integers(0, 2 ** 31)), space=sp)
        if not conjugate_single(A, B):
            rej += 1
    passed = acc == half and rej == half
    return CriterionResult(8, "single-element conjugacy", passed,
                           f"{acc}/{half} conjugates accepted, "
                           f"{rej}/{half} class-perturbed rejected")


# ---------------------------------------------------------------------------
# 9. pair decider on regular pairs and on pairs with repeated classes
# ---------------------------------------------------------------------------

def criterion_9(quick: bool = False) -> CriterionResult:
    count = _scaled(500, quick)
    rng = np.random.default_rng(1009)
    pos_ok = 0
    worst = 0.0
    kind_cycle = [(HYP, HYP), (ELL, ELL), (HYP, ELL)]
    for t in range(count):
        n = int(rng.integers(1, 5))
        sp = HermitianSpace(n)
        A, B = sample_pair(sp, rng, kinds=kind_cycle[t % 3])
        C0 = random_member(sp, rng)
        A2 = Isometry(sp.project_to_group(C0 @ A.matrix @ C0.inverse()), sp)
        B2 = Isometry(sp.project_to_group(C0 @ B.matrix @ C0.inverse()), sp)
        dec = pair_conjugate(A, B, A2, B2, 1e-7)
        if dec.verdict is Verdict.CONJUGATE and dec.residual < 1e-7:
            pos_ok += 1
            worst = max(worst, dec.residual)

    sep = _scaled(300, quick)
    trace_ok = orbit_ok = grass_ok = 0
    n_trace = n_orbit = n_grass = 0
    for t in range(sep):
        n = int(rng.integers(1, 3))
        sp = HermitianSpace(n)
        mode = t % 3
        if mode == 0:
            n_trace += 1
            spec = random_hyperbolic_spec(n, rng)
            A = random_semisimple(HYP, n, spec, int(rng.integers(0, 2 ** 31)), space=sp)
            bump = HyperbolicSpec(spec.r + 1e-2, spec.theta, spec.unit_angles)
            A2 = random_semisimple(HYP, n, bump, int(rng.integers(0, 2 ** 31)), space=sp)
            B = sample_semisimple(sp, rng)
            if have_common_fixed_point(A, B) or have_common_fixed_point(A2, B):
                n_trace -= 1
                continue
            dec = pair_conjugate(A, B, A2, B, 1e-7)
            if dec.verdict is Verdict.NOT_CONJUGATE and dec.reason == REASON_TRACE:
                trace_ok += 1
        elif mode == 1:
            n_orbit += 1
            A, B = sample_pair(sp, rng)
            C1 = random_member(sp, rng)
            B2 = Isometry(sp.project_to_group(C1 @ B.matrix @ C1.inverse()), sp)
            if have_common_fixed_point(A, B2):
                n_orbit -= 1
                continue
            dec = pair_conjugate(A, B, A, B2, 1e-7)
            if dec.verdict is Verdict.NOT_CONJUGATE and dec.reason == REASON_NO_CONJUGATOR:
                orbit_ok += 1
            elif dec.verdict is Verdict.CONJUGATE and dec.residual < 1e-7:
                # repositioning landed in the same orbit; verified, so valid
                orbit_ok += 1
        else:
            n_grass += 1
            A, B = sample_pair(sp, rng, kinds=(HYP, HYP))
            if abs(max(A.eigen.angles)) < 1e-3:
                n_grass -= 1
                continue
            f = eigenframe(A)
            D = HMatrix.from_components(np.eye(sp.dim)[..., None] * [0.0, 0.0, 1.0, 0.0])  # diag(j)
            A_moved = Isometry(
                sp.project_to_group(f.C @ D @ f.E @ D.inverse() @ f.C.inverse()), sp)
            dec = pair_conjugate(A, B, A_moved, B, 1e-7)
            if dec.verdict is Verdict.NOT_CONJUGATE and dec.reason == REASON_NO_CONJUGATOR:
                grass_ok += 1

    # repeated eigenvalue classes, drawn from their own stream so that the
    # regular draws above stay as they were
    rng = np.random.default_rng(2009)
    half = _scaled(60, quick)
    rep_pos = rep_sep = n_sep = 0
    for t in range(2 * half):
        sp = HermitianSpace(2 + t % 3)
        A, B = sample_pair(sp, rng, kinds=kind_cycle[t % 3], regular=False)
        C1 = random_member(sp, rng)
        B2 = Isometry(sp.project_to_group(C1 @ B.matrix @ C1.inverse()), sp)
        if t < half:  # conjugate: both members moved by C1
            A2 = Isometry(sp.project_to_group(C1 @ A.matrix @ C1.inverse()), sp)
            dec = pair_conjugate(A, B, A2, B2, 1e-7)
            if dec.verdict is Verdict.CONJUGATE and dec.residual < 1e-7:
                rep_pos += 1
        elif not have_common_fixed_point(A, B2):  # only B moved
            n_sep += 1
            dec = pair_conjugate(A, B, A, B2, 1e-7)
            if dec.verdict is Verdict.NOT_CONJUGATE or (
                    dec.verdict is Verdict.CONJUGATE and dec.residual < 1e-7):
                rep_sep += 1
    passed = (pos_ok == count and trace_ok == n_trace and orbit_ok == n_orbit
              and grass_ok == n_grass and rep_pos == half and rep_sep == n_sep)
    return CriterionResult(
        9, "pair decider", passed,
        f"{pos_ok}/{count} conjugate pairs accepted (max residual {worst:.2e}); "
        f"separated: trace {trace_ok}/{n_trace}, orbit {orbit_ok}/{n_orbit}, "
        f"Grassmannian {grass_ok}/{n_grass}; repeated classes: "
        f"{rep_pos}/{half} conjugate accepted, {rep_sep}/{n_sep} moved decided")


# ---------------------------------------------------------------------------
# 10. equality by invariants agrees with matrix equality
# ---------------------------------------------------------------------------

def criterion_10(quick: bool = False) -> CriterionResult:
    trials = _scaled(1000, quick)
    rng = np.random.default_rng(1010)
    disagreements = 0
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
            C = random_member(sp, rng)
            B = Isometry(sp.project_to_group(C @ A.matrix @ C.inverse()), sp)
        else:
            bumped = HyperbolicSpec(spec.r + 1e-3, spec.theta, spec.unit_angles)
            B = random_semisimple(HYP, n, bumped, seed, space=sp)
        same_matrix = (A.matrix - B.matrix).norm() <= 1e-7 * max(1.0, A.matrix.norm())
        if equal_by_invariants(A, B) != same_matrix:
            disagreements += 1
    return CriterionResult(10, "equality by invariants vs matrix equality",
                           disagreements == 0,
                           f"{trials} sampled pairs, {disagreements} disagreements")


# ---------------------------------------------------------------------------
# 11. alignment solver vs brute-force oracle
# ---------------------------------------------------------------------------

def criterion_11(quick: bool = False) -> CriterionResult:
    instances = _scaled(200, quick, floor=20)
    samples = 100_000
    rng = np.random.default_rng(1011)
    agree = 0
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
        mu = sp1_align(varr, warr, 1e-7)
        mus = rng.normal(size=(samples, 4))
        mus /= np.linalg.norm(mus, axis=1, keepdims=True)
        # conj(mu) w mu keeps w's real part and turns Im(w) by R(conj(mu))
        turned = np.einsum("sij,kj->ski", rotation_matrix(qconj_array(mus)), warr[:, 1:])
        gaps = np.hypot(warr[:, 0] - varr[:, 0], np.linalg.norm(turned - varr[:, 1:], axis=2))
        best = float(np.min(np.max(gaps, axis=1)))
        oracle_found = best < 0.25
        if mu is not None:
            exact = all((mu.conj() * wk * mu).approx_eq(vk, 1e-7)
                        for vk, wk in zip(v, w))
            if exact and oracle_found and solvable:
                agree += 1
        else:
            if not oracle_found and not solvable:
                agree += 1
    return CriterionResult(11, "alignment solver vs brute-force oracle",
                           agree == instances,
                           f"{agree}/{instances} instances agree "
                           f"({samples} oracle samples each)")


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

CRITERIA: dict[int, Callable[[bool], CriterionResult]] = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10, 11: criterion_11,
}


def run_suite(quick: bool = False,
              criteria: Optional[Sequence[int]] = None) -> list[CriterionResult]:
    wanted = sorted(criteria) if criteria else sorted(CRITERIA)
    return [CRITERIA[idx](quick) for idx in wanted]

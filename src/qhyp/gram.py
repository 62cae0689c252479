"""Gram matrices of point tuples: semi-normalization, orbit comparison, the
congruence decider with an explicit witness, and reconstruction from a
classifying profile.

Conventions.  The Gram matrix of lifts (p_1, ..., p_m) is g[k][j] =
<p_j, p_k>, so rescaling p_k -> p_k * lam_k maps g[k][j] to
conj(lam_k) * g[k][j] * lam_j.  Semi-normalization fixes the scalings up to
one unit quaternion acting by simultaneous conjugation; its vector of free
entries V_G is what the orbit comparison aligns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .decision import Decision, Verdict
from .errors import (
    DegenerateConfigurationError,
    DimensionMismatchError,
    InvalidSpecError,
    NumericalError,
)
from .invariants import (
    InvariantProfile,
    ProjPoint,
    profile_from_gram,
    rotation_invariant,
    x_slot_indices,
)
from .linalg import (
    HermitianSpace,
    HMatrix,
    HVector,
    PointType,
    matrix_rank,
    orthonormal_form_basis,
    quaternionic_basis,
)
from .quaternion import DEFAULT_TOL, Quaternion, canonical_sign, sp1_align

PATTERN_TOL = 1e-10


@dataclass
class PointConfig:
    """Ordered tuple of projective points: nulls first, negatives after."""

    space: HermitianSpace
    points: list[ProjPoint]
    gram: list[list[Quaternion]]

    @property
    def m(self) -> int:
        return len(self.points)

    @property
    def i(self) -> int:
        return sum(1 for p in self.points if p.kind == PointType.NULL)

    def lifts(self) -> list[HVector]:
        return [p.lift for p in self.points]


def gram_of(space: HermitianSpace, points: Sequence[ProjPoint],
            tol: float = DEFAULT_TOL) -> PointConfig:
    """Assemble and validate the Gram matrix of an ordered point tuple.

    Points must be distinct, ordered nulls-first, and of null or negative
    type only.  Distinctness is certified through the Gram entries: distinct
    points of these types never pair to zero, and two negative points
    coincide exactly when their distance invariant is 1.
    """
    pts = list(points)
    m = len(pts)
    if m < 2:
        raise InvalidSpecError("a configuration needs at least two points")
    seen_negative = False
    for p in pts:
        if p.kind == PointType.POSITIVE:
            raise InvalidSpecError("configurations contain null and negative points only")
        if p.kind == PointType.NULL and seen_negative:
            raise InvalidSpecError("ordering violated: null point after a negative one")
        if p.kind == PointType.NEGATIVE:
            seen_negative = True

    # g[k][j] = <p_j, p_k>; the form is Hermitian, so the lower triangle is
    # the conjugate of the upper one
    g = [[Quaternion()] * m for _ in range(m)]
    for k in range(m):
        g[k][k] = space.herm(pts[k].lift, pts[k].lift)
        for j in range(k + 1, m):
            g[k][j] = space.herm(pts[j].lift, pts[k].lift)
            g[j][k] = g[k][j].conj()
    for k in range(m):
        for j in range(k + 1, m):
            scale = pts[k].lift.norm() * pts[j].lift.norm()
            if g[k][j].norm() <= 1e3 * tol * scale:
                raise DegenerateConfigurationError(
                    f"points {k + 1} and {j + 1} pair to zero (coincident or degenerate)")
            if pts[k].kind == pts[j].kind == PointType.NEGATIVE:
                d = g[k][j].norm_sq() / (g[k][k].re * g[j][j].re)
                if d <= 1.0 + 1e3 * tol:
                    raise DegenerateConfigurationError(
                        f"negative points {k + 1} and {j + 1} coincide")
    return PointConfig(space, pts, g)


# ---------------------------------------------------------------------------
# Semi-normalization
# ---------------------------------------------------------------------------

@dataclass
class SemiNormalizedGram:
    """Gram matrix in the semi-normalized gauge plus its free-entry vector.

    ``lifts`` carries the rescaled lifts when the matrix came from an actual
    configuration; reconstructed matrices have no lifts.
    """

    m: int
    i: int
    entries: list[list[Quaternion]]
    lifts: Optional[list[HVector]] = None

    def v_entries(self) -> list[Quaternion]:
        """The gauge-covariant vector: first-row scales then upper entries."""
        out: list[Quaternion] = []
        lo = self.i + 1 if self.i >= 3 else 2
        if self.i != self.m:
            out.extend(self.entries[0][j - 1] for j in range(max(lo, self.i + 1), self.m + 1))
        for k in range(2, self.m + 1):
            for j in range(k + 1, self.m + 1):
                out.append(self.entries[k - 1][j - 1])
        return out

    def conjugated(self, mu: Quaternion) -> "SemiNormalizedGram":
        ents = [[mu.conj() * e * mu for e in row] for row in self.entries]
        lifts = [v.times(mu) for v in self.lifts] if self.lifts is not None else None
        return SemiNormalizedGram(self.m, self.i, ents, lifts)


def _check_pattern(sng: SemiNormalizedGram, tol: float = 1e-8) -> None:
    m, i, g = sng.m, sng.i, sng.entries
    for k in range(m):
        target = 0.0 if k < i else -1.0
        if abs(g[k][k].re - target) > tol or g[k][k].im().norm() > tol:
            raise NumericalError("diagonal entry off pattern after normalization")
    for j in range(1, m):
        e = g[0][j]
        if j < i:
            if (e - Quaternion.one()).norm() > tol:
                raise NumericalError("first-row null entry not 1")
        elif i >= 3 or i == 0:
            if e.im().norm() > tol or e.re <= 0:
                raise NumericalError("first-row entry not positive real")
    if i >= 3 and abs(g[1][2].norm() - 1.0) > tol:
        raise NumericalError("|g_23| != 1 after normalization")


def semi_normalize(config: PointConfig, tol: float = DEFAULT_TOL) -> SemiNormalizedGram:
    """Rescale lifts into the semi-normalized gauge, deterministically.

    Null counts i >= 3 (including i = m) use the boundary normalization:
    g_kk = 0 and first-row 1 on the null block, |g_23| = 1, g_kk = -1 and
    positive real first row on the negative block.  i = 0 uses the
    all-negative variant (diagonal -1, first row positive real).  i = 1, 2
    fall outside both normalizations and are rejected.

    The residual unit-quaternion gauge is fixed by rotating the first
    imaginary direction among the free entries onto the i axis and a second
    independent one into the i-j plane; configurations without two
    independent imaginary directions keep the correspondingly smaller gauge.
    """
    m, i = config.m, config.i
    if m < 3:
        raise InvalidSpecError("semi-normalization needs at least three points")
    if i in (1, 2):
        raise InvalidSpecError(
            "configurations with one or two null points are not supported")
    g = config.gram
    lam: list[Quaternion] = [Quaternion.one()] * m

    if i >= 3:
        g12, g13, g23 = g[0][1], g[0][2], g[1][2]
        mod1 = math.sqrt(g23.norm() / (g12.norm() * g13.norm()))
        lam[0] = Quaternion.real(mod1)
        for j in range(1, i):
            lam[j] = (lam[0].conj() * g[0][j]).inverse()
        for j in range(i, m):
            modj = 1.0 / math.sqrt(-g[j][j].re)
            w = lam[0].conj() * g[0][j]
            lam[j] = w.inverse() * (w.norm() * modj)
    else:  # i == 0
        lam[0] = Quaternion.real(1.0 / math.sqrt(-g[0][0].re))
        for j in range(1, m):
            modj = 1.0 / math.sqrt(-g[j][j].re)
            w = lam[0].conj() * g[0][j]
            lam[j] = w.inverse() * (w.norm() * modj)

    lifts = [p.lift.times(lam[k]) for k, p in enumerate(config.points)]
    ents = [[lam[k].conj() * g[k][j] * lam[j] for j in range(m)] for k in range(m)]
    sng = SemiNormalizedGram(m, i, ents, lifts)
    mu = _gauge_rotation(sng.v_entries(), tol)
    sng = sng.conjugated(mu)
    _check_pattern(sng)
    return sng


def _gauge_rotation(entries: Sequence[Quaternion], tol: float) -> Quaternion:
    """Unit quaternion fixing the residual gauge on the free-entry vector.

    Rotates the first nonzero imaginary direction onto i, then spins about i
    so a second independent direction lands in the i-j plane with positive
    j part.
    """
    first = None
    for e in entries:
        v = e.imag_vec()
        if np.linalg.norm(v) > 1e3 * tol * max(1.0, e.norm()):
            first = v / np.linalg.norm(v)
            break
    if first is None:
        return Quaternion.one()
    mu1 = sp1_align([Quaternion.i()], [Quaternion.from_vector(0.0, first)], 1e-6)
    if mu1 is None:
        raise NumericalError("gauge rotation onto the i axis failed")

    ex = np.array([1.0, 0.0, 0.0])
    second = None
    for e in entries:
        v = (mu1.conj() * e * mu1).imag_vec()
        v_perp = v - np.dot(v, ex) * ex
        if np.linalg.norm(v_perp) > 1e3 * tol * max(1.0, e.norm()):
            second = v
            break
    if second is None:
        return canonical_sign(mu1)
    # spin about the i axis so the second direction lands in the i-j plane
    # with positive j part; reuse the certified aligner for the rotation
    perp = second - np.dot(second, ex) * ex
    target = np.dot(second, ex) * ex + np.linalg.norm(perp) * np.array([0.0, 1.0, 0.0])
    mu2 = sp1_align([Quaternion.i(), Quaternion.from_vector(0.0, target)],
                    [Quaternion.i(), Quaternion.from_vector(0.0, second)], 1e-6)
    if mu2 is None:
        raise NumericalError("gauge spin about the i axis failed")
    return canonical_sign(mu1 * mu2)


# ---------------------------------------------------------------------------
# Orbit comparison and the congruence decider
# ---------------------------------------------------------------------------

def orbit_equal(g1: SemiNormalizedGram, g2: SemiNormalizedGram,
                tol: float = 1e-7) -> Optional[Quaternion]:
    """Unit quaternion mu with conj(mu) V_2 mu = V_1, or None.

    Delegates to the certified alignment solver on the free-entry vectors.
    """
    if (g1.m, g1.i) != (g2.m, g2.i):
        raise DimensionMismatchError("shape mismatch between semi-normalized matrices")
    return sp1_align(g1.v_entries(), g2.v_entries(), tol)


def _independent_subset(space: HermitianSpace, lifts: Sequence[HVector],
                        tol: float = 1e-8) -> list[int]:
    chosen: list[int] = []
    cols: list[np.ndarray] = []
    rank = 0
    for k, v in enumerate(lifts):
        tc = v.two_column()
        trial = cols + [tc[:, 0], tc[:, 1]]
        r = matrix_rank(np.stack(trial, axis=1), tol)
        if r == rank + 2:
            chosen.append(k)
            cols = trial
            rank = r
        if rank == 2 * space.dim:
            break
    return chosen


def _form_perp_basis(space: HermitianSpace, lifts: Sequence[HVector]) -> list[HVector]:
    """Quaternionic basis of the form-orthogonal complement of a span."""
    rows = []
    for v in lifts:
        rows.append(v.two_column().conj().T @ space.H_emb)
    A = np.concatenate(rows, axis=0)
    from .linalg import nullspace

    ns = nullspace(A)
    if ns.shape[1] % 2 != 0:
        raise NumericalError("perp space is not quaternionic")
    return quaternionic_basis(ns, ns.shape[1] // 2)


def _projective_residual(space: HermitianSpace, u: HVector, v: HVector) -> float:
    """Relative distance between the lines through u and v."""
    P = u.two_column()
    Q = v.two_column()
    alpha = np.linalg.lstsq(P, Q, rcond=None)[0]
    return float(np.linalg.norm(P @ alpha - Q) / max(np.linalg.norm(Q), 1e-300))


def congruent(config_a: PointConfig, config_b: PointConfig,
              tol: float = 1e-7) -> Decision:
    """Decide whether two configurations lie in one isometry-group orbit.

    Positive decisions ship a witness isometry verified to map each point of
    the first configuration onto the corresponding point of the second,
    projectively and within tolerance.
    """
    if (config_a.m, config_a.i) != (config_b.m, config_b.i):
        return Decision(Verdict.NOT_CONGRUENT, reason="shape (m, i) differs")
    if config_a.space.dim != config_b.space.dim:
        raise DimensionMismatchError("configurations live in different spaces")
    space = config_a.space

    sng_a = semi_normalize(config_a)
    sng_b = semi_normalize(config_b)
    mu = orbit_equal(sng_a, sng_b, tol)
    if mu is None:
        return Decision(Verdict.NOT_CONGRUENT,
                        reason="semi-normalized Gram orbits differ")

    lifts_a = sng_a.lifts
    lifts_b = [v.times(mu) for v in sng_b.lifts]

    subset = _independent_subset(space, lifts_a)
    subset_b = _independent_subset(space, lifts_b)
    if subset != subset_b:
        raise NumericalError("configurations disagree on their independent subsets")
    span_a = [lifts_a[k] for k in subset]
    span_b = [lifts_b[k] for k in subset]
    if len(subset) < space.dim:
        fill_a, signs_a = orthonormal_form_basis(space, _form_perp_basis(space, span_a))
        fill_b, signs_b = orthonormal_form_basis(space, _form_perp_basis(space, span_b))
        if signs_a != signs_b:
            raise NumericalError("perp signatures disagree for equal Gram matrices")
        span_a = span_a + fill_a
        span_b = span_b + fill_b

    basis_a = HMatrix.from_columns(span_a)
    basis_b = HMatrix.from_columns(span_b)
    witness = space.project_to_group(basis_b @ basis_a.inverse())

    if not space.is_member(witness, 1e-8):
        raise NumericalError("witness drifted off the isometry group")
    worst = 0.0
    for pa, pb in zip(lifts_a, lifts_b):
        worst = max(worst, _projective_residual(space, witness.apply(pa), pb))
    if worst > tol:
        return Decision(Verdict.NOT_CONGRUENT,
                        reason=f"witness verification failed (residual {worst:.3e})")
    return Decision(Verdict.CONGRUENT, witness=witness, residual=worst)


# ---------------------------------------------------------------------------
# Reconstruction from a profile
# ---------------------------------------------------------------------------

def reconstruct_gram(prof: InvariantProfile, tol: float = 1e-7) -> SemiNormalizedGram:
    """Rebuild the semi-normalized Gram matrix (up to one unit conjugation).

    Inverts the entry identities behind the profile: the base entry comes
    from the angular and rotation invariant, cross-ratio slots recover the
    remaining null-block and mixed entries, and negative pairs come from
    their distance/angular/rotation data.  Redundant slots are checked for
    consistency.
    """
    m, i = prof.m, prof.i
    prof.check_structure()
    expected_slots = x_slot_indices(m, i)
    got = [(s.family, s.row, s.col) for s in prof.x_slots]
    if got != expected_slots:
        raise InvalidSpecError("cross-ratio slots do not match the index scheme")

    q0 = Quaternion()
    g = [[q0 for _ in range(m)] for _ in range(m)]

    def put(k: int, j: int, val: Quaternion) -> None:  # 1-based hermitian set
        g[k - 1][j - 1] = val
        g[j - 1][k - 1] = val.conj()

    for k in range(1, m + 1):
        g[k - 1][k - 1] = Quaternion() if k <= i else Quaternion.real(-1.0)

    def r1(j: int) -> float:
        if i >= 3:
            if j <= i:
                return 1.0
            return prof.first_row[j - i - 1]
        return prof.first_row[j - 2]

    if i >= 3:
        for j in range(2, i + 1):
            put(1, j, Quaternion.one())
        for j in range(i + 1, m + 1):
            if r1(j) <= 0:
                raise InvalidSpecError("first-row scales must be positive")
            put(1, j, Quaternion.real(r1(j)))
    else:
        for j in range(2, m + 1):
            put(1, j, Quaternion.real(r1(j)))

    # negative block from distance / angular / rotation data
    for slot in prof.pair_slots:
        val = math.sqrt(slot.d) * (Quaternion.real(-math.cos(slot.a))
                                   + slot.u * math.sin(slot.a))
        put(slot.i1, slot.j1, val)

    if i >= 3:
        g23 = Quaternion.real(-math.cos(prof.a23)) + prof.u0 * math.sin(prof.a23)
        put(2, 3, g23)
        slots = {(s.family, s.row, s.col): s.value for s in prof.x_slots}
        for j in range(4, m + 1):
            put(2, j, g23 * slots[("X2", 2, j)] * r1(j))
        for j in range(4, m + 1):
            put(3, j, g23.conj() * slots[("X3", 3, j)] * r1(j))
        for k in range(4, i + 1):
            for j in range(k + 1, m + 1):
                put(k, j, g[1][k - 1].conj() * slots[("Xk", k, j)] * r1(j))
        # redundant family: consistency of the X1 slots
        for j in range(i + 1, m + 1):
            expect = g23 * (r1(j) / g[1][j - 1].norm_sq()) * g[1][j - 1].conj()
            given = slots[("X1", 1, j)]
            if not expect.approx_eq(given, max(tol, tol * expect.norm())):
                raise InvalidSpecError(
                    f"inconsistent profile: X1 slot at column {j} "
                    "disagrees with the other slot families")
        if abs(g[1][2].norm() - 1.0) > 1e-9:
            raise InvalidSpecError("base entry must have unit modulus")

    sng = SemiNormalizedGram(m, i, g, lifts=None)
    # round-trip guard: the rebuilt matrix reproduces the profile
    rebuilt = profile_from_gram(sng)
    if abs(rebuilt.a23 - prof.a23) > 1e-7:
        raise NumericalError("reconstruction failed its profile round trip")
    return sng

"""Gram matrices of point tuples: semi-normalization, orbit comparison, the
congruence decider with an explicit witness, and reconstruction from a
classifying profile.

Conventions.  The Gram matrix of lifts (p_1, ..., p_m) is g[k, j] =
<p_j, p_k>, stored as one real (m, m, 4) array of quaternion components, so
rescaling p_k -> p_k * lam_k maps g[k, j] to conj(lam_k) * g[k, j] * lam_j.
Semi-normalization fixes the scalings up to one unit quaternion acting by
simultaneous conjugation; its vector of free entries V_G is what the orbit
comparison aligns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .decision import Decision, Verdict
from .errors import (
    DegenerateConfigurationError,
    DimensionMismatchError,
    GramSchmidtError,
    InvalidSpecError,
    NumericalError,
)
from .invariants import InvariantProfile, ProjPoint, _gram_profile, _slot_table
from .linalg import (
    HermitianSpace,
    HMatrix,
    HVector,
    PointType,
    line_residuals,
    matrix_rank,
    nullspace,
    orthonormal_form_basis,
    point_types,
    quaternionic_basis,
    right_times,
    stacked,
    two_columns,
)
from .quaternion import (Quaternion, canonical_sign, complex_pairs, conjugated_by, qconj_array,
                         qmul_array, quaternion_array, sp1_align)
from .tolerances import (BASE_MODULUS_TOL, DECIDER_TOL, DEFAULT_TOL, DEGENERACY_FACTOR,
                         GAUGE_FLOOR_FACTOR, PATTERN_TOL, ROUND_TRIP_TOL, SLOT_REDUNDANCY_RTOL,
                         WITNESS_MEMBER_TOL)

@dataclass(frozen=True, eq=False)  # arrays have no single truth value: equality is identity
class PointConfig:
    """Ordered tuple of projective points: nulls first, negatives after.

    ``lifts`` is the read-only (2N, m) complex array whose column k is the
    stacked lift of point k, and ``kinds`` holds the point types.  ``gram``
    is the read-only (m, m, 4) array of quaternion components (a0, a1, a2,
    a3) with gram[k, j] = <p_j, p_k>.
    """

    space: HermitianSpace
    lifts: np.ndarray
    kinds: tuple[PointType, ...]
    gram: np.ndarray

    def __post_init__(self) -> None:
        self.lifts.setflags(write=False)
        self.gram.setflags(write=False)

    @property
    def points(self) -> list[ProjPoint]:
        """The points as :class:`ProjPoint` values, for callers outside the array layer."""
        return [ProjPoint(HVector(s), k) for s, k in zip(self.lifts.T.copy(), self.kinds)]

    @property
    def m(self) -> int:
        return self.lifts.shape[1]

    @property
    def i(self) -> int:
        return self.kinds.count(PointType.NULL)


def gram_of(space: HermitianSpace, points: "Sequence[ProjPoint] | np.ndarray",
            tol: float = DEFAULT_TOL, kinds: Optional[Sequence[PointType]] = None) -> PointConfig:
    """Assemble and validate the Gram matrix of an ordered point tuple.

    ``points`` holds ProjPoints, or is the stacked (2N, m) array of their
    lifts.  A C-ordered complex array is taken over as the configuration's
    lifts without a copy and made read-only; any other is copied.  An
    array's point types are ``kinds`` or, left out, are read at ``tol`` off
    the real diagonal of the pairings product, the Gram matrix.

    Points must be distinct, ordered nulls-first, and of null or negative
    type only.  Distinctness is certified through the Gram entries: distinct
    points of these types never pair to zero, and two negative points
    coincide exactly when their distance invariant is 1.
    """
    if not isinstance(points, np.ndarray):
        pts = list(points)
        points, kinds = stacked([p.lift for p in pts]), [p.kind for p in pts]
    lifts = np.asarray(points, dtype=complex, order="C")
    if lifts.ndim != 2 or lifts.shape[1] < 2:
        raise InvalidSpecError("a configuration needs at least two points")
    g = space.pairings(lifts)
    norms2 = (lifts.conj() * lifts).real.sum(axis=0)
    if kinds is None:
        kinds = point_types(np.diagonal(g[..., 0]), norms2, tol)
    kinds = tuple(kinds)
    if PointType.POSITIVE in kinds:
        raise InvalidSpecError("configurations contain null and negative points only")
    neg = np.array([k == PointType.NEGATIVE for k in kinds])
    if (neg[:-1] & ~neg[1:]).any():
        raise InvalidSpecError("ordering violated: null point after a negative one")

    # both tests read the pairings of the unit lifts, h_kj = g_kj / (|p_k| |p_j|), which
    # neither overflow nor underflow when squared at any lift scale
    scale = 1.0 / np.sqrt(norms2)
    h = g * (scale[:, None] * scale)[..., None]
    absh2 = (h * h).sum(axis=2)
    re = np.diagonal(h[..., 0])
    zero_tol = DEGENERACY_FACTOR * tol
    # |g_kj| <= zero_tol |p_k| |p_j|
    zero = absh2 <= zero_tol ** 2
    # both negative, so d = |g_kj|^2 / (g_kk g_jj) <= 1 + zero_tol reads
    bad = zero | (neg[:, None] & neg & (absh2 <= (1.0 + zero_tol) * (re[:, None] * re)))
    bad.flat[::len(bad) + 1] = False  # each point against itself
    if bad.any():
        k, j = np.argwhere(bad)[0]  # bad is symmetric, so k < j
        if zero[k, j]:
            raise DegenerateConfigurationError(
                f"points {k + 1} and {j + 1} pair to zero (coincident or degenerate)")
        raise DegenerateConfigurationError(f"negative points {k + 1} and {j + 1} coincide")
    return PointConfig(space, lifts, kinds, g)


# ---------------------------------------------------------------------------
# Semi-normalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SemiNormalizedGram:
    """Gram matrix in the semi-normalized gauge plus its free-entry vector.

    ``gram`` is a read-only (m, m, 4) array laid out like ``PointConfig.gram``.
    ``lifts`` carries the rescaled lifts as a read-only (2N, m) array like
    ``PointConfig.lifts`` when the matrix came from an actual configuration;
    reconstructed matrices have no lifts.
    """

    m: int
    i: int
    gram: np.ndarray
    lifts: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.gram.setflags(write=False)
        if self.lifts is not None:
            self.lifts.setflags(write=False)

    @property
    def entries(self) -> list[list[Quaternion]]:
        """The matrix as a grid of quaternions, for callers outside the array layer."""
        return [[Quaternion(*e) for e in row] for row in self.gram.tolist()]

    def v_entries(self) -> np.ndarray:
        """The gauge-covariant vector as a (k, 4) array.

        First-row scales of the negative columns, then the entries above the
        diagonal from the second row on.
        """
        return self.gram[_v_index(self.m, self.i)]

    def conjugated(self, mu: Quaternion) -> "SemiNormalizedGram":
        """Every entry g -> conj(mu) g mu, for a unit quaternion mu."""
        lifts = None if self.lifts is None else right_times(self.lifts, *mu.complex_pair())
        return SemiNormalizedGram(self.m, self.i, conjugated_by(mu, self.gram), lifts)


@lru_cache(maxsize=None)
def _v_index(m: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row and column indices of :meth:`SemiNormalizedGram.v_entries`."""
    first = np.arange(max(i, 1), m)
    r, c = np.triu_indices(m - 1, 1)
    index = np.concatenate([np.zeros_like(first), r + 1]), np.concatenate([first, c + 1])
    for a in index:
        a.setflags(write=False)
    return index


_PATTERN_MESSAGES = ("diagonal entry off pattern after normalization", "first-row null entry not 1",
                     "first-row entry not positive real", "|g_23| != 1 after normalization")


def _check_pattern(sng: SemiNormalizedGram) -> None:
    """Raise NumericalError off the semi-normalized pattern: one pass over its deviations."""
    m, i, g = sng.m, sng.i, sng.gram
    first = max(i, 1)
    # the entries the pattern fixes minus their values: diagonal, first row, g_23
    d = np.concatenate([np.diagonal(g).T, g[0, 1:], g[1:2, 2]])
    d[i:m, 0] += 1.0
    d[m:m + i - 1, 0] -= 1.0
    sq = d * d
    re, im = sq[:, 0], sq[:, 1:].sum(axis=1)
    # each comparison with PATTERN_TOL, in message order: diagonal real parts, imaginary
    # moduli, null first-row entries, other first-row imaginary moduli, |g_23|
    dev = np.sqrt(np.concatenate([re[:m], im[:m], (re + im)[m:m + i - 1], im[m + first - 1:-1],
                                  (re + im)[-1:]]))
    dev[-1] = abs(dev[-1] - 1.0) if i >= 3 else 0.0
    bad = np.concatenate([dev > PATTERN_TOL, g[0, first:, 0] <= 0])
    if bad.any():
        message = np.repeat([0, 0, 1, 2, 3, 2], [m, m, max(i - 1, 0), m - first, 1, m - first])
        raise NumericalError(_PATTERN_MESSAGES[message[bad].min()])


def semi_normalize(config: PointConfig) -> SemiNormalizedGram:
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
    sng = _rescaled(config)
    sng = sng.conjugated(_gauge_rotation(sng.v_entries()))
    _check_pattern(sng)
    return sng


def _rescaled(config: PointConfig) -> SemiNormalizedGram:
    """Lifts rescaled into the semi-normalized pattern, gauge left free; unchecked."""
    m, i = config.m, config.i
    if m < 3:
        raise InvalidSpecError("semi-normalization needs at least three points")
    if i in (1, 2):
        raise InvalidSpecError(
            "configurations with one or two null points are not supported")
    g = config.gram

    # p_k -> p_k * lam_k.  lam_1 is a positive real, so conj(lam_1) g_1j =
    # lam_1 g_1j = w_j; null points take w_j^-1, negative points
    # w_j^-1 |w_j| / sqrt(-g_jj); no product of two moduli, which leaves the float range
    # at extreme lift scales
    if i >= 3:
        lam1 = math.sqrt(math.hypot(*g[1, 2]) / math.hypot(*g[0, 1]) / math.hypot(*g[0, 2]))
    else:  # i == 0
        lam1 = 1.0 / math.sqrt(-g[0, 0, 0])
    first = max(i, 1)
    w = lam1 * g[0, 1:]
    div = np.einsum("kc,kc->k", w, w)
    div[first - 1:] = np.sqrt(div[first - 1:]) * np.sqrt(-np.diagonal(g[..., 0])[first:])
    lam = np.concatenate([[(lam1, 0.0, 0.0, 0.0)], qconj_array(w) / div[:, None]])
    # the Gram matrix of the rescaled lifts, conj(lam_k) g_kj lam_j, is one product
    lifts = right_times(config.lifts, *complex_pairs(lam))
    return SemiNormalizedGram(m, i, config.space.pairings(lifts), lifts)


def _gauge_rotation(entries: np.ndarray) -> Quaternion:
    """Unit quaternion fixing the residual gauge on the free-entry vector.

    Rotates the first nonzero imaginary direction onto i, then spins about i
    so a second independent direction lands in the i-j plane with positive
    j part.  Both rotations are closed-form half-angle quaternions.
    """
    im = entries[:, 1:]
    imn2 = np.einsum("kc,kc->k", im, im)
    floor = GAUGE_FLOOR_FACTOR * DEFAULT_TOL * np.maximum(1.0, np.sqrt(imn2 + entries[:, 0] ** 2))
    found = np.flatnonzero(np.sqrt(imn2) > floor)
    if not found.size:
        return Quaternion.one()
    ux, uy, uz = (im[found[0]] / math.sqrt(imn2[found[0]])).tolist()
    mu1 = Quaternion(*_turn(ux, (0.0, -uz, uy), (0.0, 0.0, 0.0, 1.0)))  # i onto u
    v = conjugated_by(mu1, entries)[:, 2:]  # conj(mu1) e mu1 on j, k
    found = np.flatnonzero(np.sqrt(np.einsum("kc,kc->k", v, v)) > floor)
    if not found.size:
        return canonical_sign(mu1)
    vy, vz = v[found[0]].tolist()
    r = math.hypot(vy, vz)
    mu2 = Quaternion(*_turn(vy / r, (vz / r, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0)))  # j onto (0, vy, vz)
    return canonical_sign(mu1 * mu2)


def _turn(cos: float, axis: tuple, half_turn: tuple) -> tuple:
    """Components of the unit quaternion turning unit a onto b, given cos = a.b and axis = a x b:
    (1 + cos, axis) normalized, 1 + cos taken as |axis|^2 / (1 - cos) near cos = -1 against
    cancellation, and ``half_turn`` at b = -a."""
    ax, ay, az = axis
    q = (1.0 + cos if cos >= 0.0 else (ax * ax + ay * ay + az * az) / (1.0 - cos), ax, ay, az)
    qn = math.hypot(*q)
    return tuple(c / qn for c in q) if qn > 0.0 else half_turn


# ---------------------------------------------------------------------------
# Orbit comparison and the congruence decider
# ---------------------------------------------------------------------------

def orbit_equal(g1: SemiNormalizedGram, g2: SemiNormalizedGram,
                tol: float = DECIDER_TOL) -> Optional[Quaternion]:
    """Unit quaternion mu with conj(mu) V_2 mu = V_1, or None.

    Delegates to the certified alignment solver on the free-entry vectors.
    """
    if (g1.m, g1.i) != (g2.m, g2.i):
        raise DimensionMismatchError("shape mismatch between semi-normalized matrices")
    return sp1_align(g1.v_entries(), g2.v_entries(), tol)


def _independent_subsets(space: HermitianSpace, *lifts: np.ndarray) -> list[list[int]]:
    # each lift chosen adds a quaternionic line: complex rank 2.  A prefix's singular values
    # lie within the block's extremes, so a full-rank leading block is the greedy pick
    k = min(lifts[0].shape[1], space.dim)
    full = matrix_rank(np.stack([two_columns(S[:, :k]) for S in lifts])) == 2 * k
    return [list(range(k)) if f else _greedy_subset(space, S) for f, S in zip(full, lifts)]


def _greedy_subset(space: HermitianSpace, lifts: np.ndarray) -> list[int]:
    chosen: list[int] = []
    for k in range(lifts.shape[1]):
        if matrix_rank(two_columns(lifts[:, chosen + [k]])) == 2 * len(chosen) + 2:
            chosen.append(k)
        if len(chosen) == space.dim:
            break
    return chosen


def _form_perp_basis(space: HermitianSpace, span: np.ndarray) -> np.ndarray:
    """Stacked quaternionic basis of the form-orthogonal complement of a span."""
    ns = nullspace(two_columns(span).conj().T @ space.H_emb)
    if ns.shape[1] % 2 != 0:
        raise NumericalError("perp space is not quaternionic")
    return quaternionic_basis(ns, ns.shape[1] // 2)


def congruent(config_a: PointConfig, config_b: PointConfig, tol: float = DECIDER_TOL) -> Decision:
    """Decide whether two configurations lie in one isometry-group orbit.

    Positive decisions ship a witness isometry verified to map each point of
    the first configuration onto the corresponding point of the second,
    projectively and within tolerance, up to the central sign; one that fails
    its check after the Gram matrices align leaves the decision Inconclusive.
    So does a numerical failure on valid inputs; invalid ones raise.
    """
    if (config_a.m, config_a.i) != (config_b.m, config_b.i):
        return Decision(Verdict.NOT_CONGRUENT, reason="shape (m, i) differs")
    if config_a.space.dim != config_b.space.dim:
        raise DimensionMismatchError("configurations live in different spaces")
    space = config_a.space
    try:
        # sp1_align solves for the residual unit quaternion: no canonical gauge
        sng_a, sng_b = _rescaled(config_a), _rescaled(config_b)
        for sng in (sng_a, sng_b):
            _check_pattern(sng)
        mu = orbit_equal(sng_a, sng_b, tol)
        if mu is None:
            return Decision(Verdict.NOT_CONGRUENT, reason="semi-normalized Gram orbits differ")

        lifts_a = sng_a.lifts
        lifts_b = right_times(sng_b.lifts, *mu.complex_pair())

        subset, subset_b = _independent_subsets(space, lifts_a, lifts_b)
        if subset != subset_b:
            raise NumericalError("configurations disagree on their independent subsets")
        span_a, span_b = lifts_a[:, subset], lifts_b[:, subset]
        if len(subset) < space.dim:
            fill_a, signs_a = orthonormal_form_basis(space, _form_perp_basis(space, span_a))
            fill_b, signs_b = orthonormal_form_basis(space, _form_perp_basis(space, span_b))
            if signs_a != signs_b:
                raise NumericalError("perp signatures disagree for equal Gram matrices")
            span_a = np.concatenate([span_a, fill_a], axis=1)
            span_b = np.concatenate([span_b, fill_b], axis=1)

        witness = space.project_to_group(
            HMatrix.from_columns(span_b) @ HMatrix.from_columns(span_a).inverse())

        if not space.is_member(witness, WITNESS_MEMBER_TOL):
            raise NumericalError("witness drifted off the isometry group")
        worst = float(np.max(line_residuals(witness.emb @ lifts_a, lifts_b)))
        if not worst <= tol:  # a residual that is not a number fails too
            return Decision(Verdict.INCONCLUSIVE,
                            reason=f"witness verification failed (residual {worst:.3e})")
        return Decision(Verdict.CONGRUENT, witness=witness, residual=worst)
    except (NumericalError, GramSchmidtError, np.linalg.LinAlgError) as exc:
        return Decision(Verdict.INCONCLUSIVE, reason=f"numerical failure: {exc}")


# ---------------------------------------------------------------------------
# Reconstruction from a profile
# ---------------------------------------------------------------------------

def _polar(a: Sequence[float], u: np.ndarray) -> np.ndarray:
    """Components of -cos(a_k) + u_k sin(a_k), one row per angle a_k and (k, 4) row u_k."""
    # math's sin and cos, so every entry is the scalar formula's bit for bit
    out = np.array([math.sin(x) for x in a])[:, None] * u
    out[:, 0] -= [math.cos(x) for x in a]
    return out


def reconstruct_gram(prof: InvariantProfile) -> SemiNormalizedGram:
    """Rebuild the semi-normalized Gram matrix (up to one unit conjugation).

    Inverts the entry identities behind the profile: the base entry comes
    from the angular and rotation invariant, cross-ratio slots recover the
    remaining null-block and mixed entries, and negative pairs come from
    their distance/angular/rotation data.  Redundant slots are checked for
    consistency.
    """
    m, i = prof.m, prof.i
    prof.check_structure()
    table = _slot_table(m, i)
    if tuple((s.family, s.row, s.col) for s in prof.x_slots) != table.slots:
        raise InvalidSpecError("cross-ratio slots do not match the index scheme")
    if i >= 3 and min(prof.first_row, default=1.0) <= 0:
        raise InvalidSpecError("first-row scales must be positive")

    # fill the upper triangle, then mirror it and set the diagonal
    g = np.zeros((m, m, 4))
    g[0, 1:i, 0] = 1.0
    g[0, max(i, 1):, 0] = prof.first_row
    # negative block from distance / angular / rotation data
    pairs = prof.pair_slots
    rows, cols = table.pair_rows[1:], table.pair_cols[1:]
    if [(s.i1 - 1, s.j1 - 1) for s in pairs] != list(zip(rows.tolist(), cols.tolist())):
        raise InvalidSpecError("pair slots do not match the index scheme")
    g[rows, cols] = (
        np.array([math.sqrt(s.d) for s in pairs])[:, None]
        * _polar([s.a for s in pairs], quaternion_array(s.u for s in pairs)))

    x = quaternion_array(s.value for s in prof.x_slots)
    if i >= 3:
        r1 = g[0, :, 0].copy()
        g23 = _polar([prof.a23], quaternion_array([prof.u0]))[0]
        if abs(np.linalg.norm(g23) - 1.0) > BASE_MODULUS_TOL:
            raise InvalidSpecError("base entry must have unit modulus")
        g[1, 2] = g23
        pos, _, cols = table.families["X2"]
        g[1, cols] = qmul_array(g23, x[pos]) * r1[cols, None]
        # X3 and Xk: g_kj = conj(g_2k) X_kj r_j, rows from the third on, whose
        # g_2k the X2 family and g_23 have set
        pos, rows, cols = table.families["Xk"]
        g[rows, cols] = qmul_array(qconj_array(g[1, rows]), x[pos]) * r1[cols, None]
    g += qconj_array(g).transpose(1, 0, 2)
    g[np.arange(i, m), np.arange(i, m), 0] = -1.0

    try:
        implied, _, _, a, _ = _gram_profile(g, m, i)
    except DegenerateConfigurationError as exc:
        raise InvalidSpecError(f"degenerate profile: {exc}") from exc
    # redundant family: the X1 slots the rebuilt matrix implies must match
    pos, _, cols = table.families["X1"]
    gap = np.linalg.norm(implied[pos] - x[pos], axis=1)
    bound = SLOT_REDUNDANCY_RTOL * np.maximum(1.0, np.linalg.norm(implied[pos], axis=1))
    bad = np.flatnonzero(~(gap <= bound))  # a gap that is not a number fails too
    if bad.size:
        raise InvalidSpecError(
            f"inconsistent profile: X1 slot at column {cols[bad[0]] + 1} "
            "disagrees with the other slot families")
    # round-trip guard: the rebuilt matrix reproduces the profile
    if abs(float(a[0]) - prof.a23) > ROUND_TRIP_TOL:
        raise NumericalError("reconstruction failed its profile round trip")
    return SemiNormalizedGram(m, i, g, lifts=None)

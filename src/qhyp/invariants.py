"""Numerical invariants of point configurations on the closed ball.

Cross ratios, the angular invariant, distance invariants, and rotation
invariants, assembled into the full classifying profile of an ordered
configuration.  Quaternion-valued invariants are defined only up to one
simultaneous unit-quaternion conjugation; real-valued ones are absolute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .errors import DegenerateConfigurationError, InvalidSpecError
from .linalg import HermitianSpace, HVector, PointType, point_types
from .quaternion import Quaternion, qconj_array, qmul_array, quaternion_array
from .tolerances import (ANGLE_RANGE_TOL, ANGLE_ZERO_TOL, DEFAULT_TOL, DISTANCE_FLOOR_TOL,
                         DIVISION_FLOOR, QUADRUPLE_RELATION_TOL, ROTATION_ZERO_RTOL,
                         SLOT_IDENTITY_RTOL)

if TYPE_CHECKING:  # pragma: no cover
    from .gram import PointConfig, SemiNormalizedGram


@dataclass(frozen=True)
class ProjPoint:
    """A projective point with a chosen lift and its sign type."""

    lift: HVector
    kind: PointType


# ---------------------------------------------------------------------------
# Cross ratios
# ---------------------------------------------------------------------------

def _pairings(space: HermitianSpace, lifts: np.ndarray,
              count: int) -> tuple[np.ndarray, np.ndarray, list[PointType]]:
    """The :meth:`HermitianSpace.pairings` product of ``count`` stacked (2N, count)
    lifts, their norms, and their point types read off the product's diagonal."""
    if np.shape(lifts)[1:] != (count,):
        raise InvalidSpecError(f"need the stacked lifts of {count} points")
    g, norms = space.pairings(lifts), np.linalg.norm(lifts, axis=0)
    return g, norms, point_types(np.diagonal(g[..., 0]), norms ** 2)


def _cross_ratios(g: np.ndarray, norms: np.ndarray, quads: Sequence[Sequence[int]],
                  tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Four-point ratios of rows (z1, z2, z3, z4) of point indices into the
    pairings product ``g`` of lifts with norms ``norms``.

    One array pass.  Returns the (k, 4) ratios and the mask of rows with a
    factor |<z,w>| <= tol * max(|z||w|, DIVISION_FLOOR), whose ratios mean
    nothing.
    """
    z1, z2, z3, z4 = np.asarray(quads, dtype=int).reshape(-1, 4).T
    z, w = np.stack([z3, z3, z4, z4]), np.stack([z1, z2, z2, z1])
    f = g[w, z]  # <z, w> sits at [w, z]
    vanish = np.linalg.norm(f, axis=-1) <= tol * np.maximum(norms[z] * norms[w], DIVISION_FLOOR)
    a, b, c, d = f
    with np.errstate(divide="ignore", invalid="ignore"):
        b_inv, d_inv = (qconj_array(q) / np.sum(q ** 2, axis=-1, keepdims=True) for q in (b, d))
    return qmul_array(qmul_array(qmul_array(a, b_inv), c), d_inv), vanish.any(axis=0)


def _require_factors(vanish: np.ndarray) -> None:
    if vanish.any():
        raise DegenerateConfigurationError("vanishing pairing in a cross-ratio factor")


def cross_ratio(space: HermitianSpace, lifts: np.ndarray) -> Quaternion:
    """Quaternionic four-point ratio <z3,z1> <z3,z2>^-1 <z4,z2> <z4,z1>^-1 of
    the points with stacked (2N, 4) lifts (z1, z2, z3, z4).

    The value depends on the chosen lifts, but its similarity class
    (real part and modulus) does not.
    """
    g, norms, _ = _pairings(space, lifts, 4)
    x, vanish = _cross_ratios(g, norms, [(0, 1, 2, 3)], DEFAULT_TOL)
    _require_factors(vanish)
    return Quaternion.from_seq(x[0])


def cross_ratio_triple(space: HermitianSpace,
                       lifts: np.ndarray) -> tuple[Quaternion, Quaternion, Quaternion]:
    """The three symmetric-group orbit representatives of the cross ratio of
    the points with stacked (2N, 4) lifts.

    For quadruples of null points the moduli satisfy |X2| = |X1| |X3| and the
    boundary slack is nonnegative; both are asserted for such quadruples.
    """
    g, norms, kinds = _pairings(space, lifts, 4)
    x, vanish = _cross_ratios(g, norms, [(0, 1, 2, 3), (0, 3, 2, 1), (1, 3, 2, 0)], DEFAULT_TOL)
    _require_factors(vanish)
    x1, x2, x3 = (Quaternion.from_seq(v) for v in x)
    if all(k == PointType.NULL for k in kinds):
        lhs = x2.norm()
        rhs = x1.norm() * x3.norm()
        if abs(lhs - rhs) > QUADRUPLE_RELATION_TOL * max(1.0, lhs, rhs):
            raise DegenerateConfigurationError(
                f"modulus relation |X2| = |X1||X3| violated ({lhs:.3e} vs {rhs:.3e})")
        slack = boundary_quadruple_slack(x1, x2, x3)
        if slack < -QUADRUPLE_RELATION_TOL:
            raise DegenerateConfigurationError(
                f"boundary quadruple relation violated (slack {slack:.3e})")
    return x1, x2, x3


def boundary_quadruple_slack(x1: Quaternion, x2: Quaternion, x3: Quaternion) -> float:
    """2|X3|^2 Re(X1) - (|X2|^2 + |X3|^2 - 2 Re(X2) - 2 Re(X3) + 1).

    Nonnegative for every quadruple of null points, with equality exactly
    when the quadruple spans at most two quaternionic dimensions (so always
    at rank two or below; the positive slack measures the genuinely
    higher-rank part of the configuration).
    """
    return (2.0 * x3.norm_sq() * x1.re
            - (x2.norm_sq() + x3.norm_sq() - 2.0 * x2.re - 2.0 * x3.re + 1.0))


# ---------------------------------------------------------------------------
# Angular and distance invariants
# ---------------------------------------------------------------------------

def angular_invariant(space: HermitianSpace, lifts: np.ndarray) -> float:
    """arccos of Re(-T)/|T| for the Hermitian triple product T of the points
    with stacked (2N, 3) lifts (z1, z2, z3); lies in [0, pi/2].

    T = <z1,z2> <z3,z1> <z2,z3>.  In this order the two pairings of each lift
    are cyclically adjacent, so rescaling a lift by a quaternion multiplies T
    by a positive real and at most conjugates it by a unit quaternion: Re/|.|
    of T does not depend on the lifts.
    """
    g, norms, _ = _pairings(space, lifts, 3)
    t = (Quaternion.from_seq(g[1, 0]) * Quaternion.from_seq(g[0, 2])
         * Quaternion.from_seq(g[2, 1]))
    tn = t.norm()
    scale = float(np.prod(norms)) ** 2
    if tn <= DEFAULT_TOL * max(scale, DIVISION_FLOOR):
        raise DegenerateConfigurationError("vanishing Hermitian triple product")
    val = float(np.clip(-t.re / tn, -1.0, 1.0))
    angle = math.acos(val)
    if angle > math.pi / 2 + ANGLE_RANGE_TOL:
        raise DegenerateConfigurationError(
            f"angular invariant {angle:.6f} outside [0, pi/2]; "
            "input is not a configuration on the closed ball")
    return min(angle, math.pi / 2)


def distance_invariant(space: HermitianSpace, lifts: np.ndarray) -> float:
    """(<q,p><p,q>) / (<q,q><p,p>) for two negative points with stacked (2N, 2)
    lifts (p, q); real and >= 1.

    Equals cosh^2(rho/2) in the invariant metric, so it is 1 exactly at
    coincidence.
    """
    g, _, kinds = _pairings(space, lifts, 2)
    if kinds != [PointType.NEGATIVE, PointType.NEGATIVE]:
        raise InvalidSpecError("distance invariant needs two negative points")
    num = Quaternion.from_seq(g[0, 1])  # <q, p>
    val = num.norm_sq() / float(g[1, 1, 0] * g[0, 0, 0])
    if val < 1.0 - DISTANCE_FLOOR_TOL:
        raise DegenerateConfigurationError("distance invariant below 1")
    return max(val, 1.0)


def _rotation_invariants(e: np.ndarray) -> np.ndarray:
    """Im(e)/|Im(e)| on the trailing axis of a component array, or zero where
    e is (relatively) real."""
    im = e[..., 1:]
    imn = np.linalg.norm(im, axis=-1, keepdims=True)
    real = imn <= ROTATION_ZERO_RTOL * np.maximum(1.0, np.linalg.norm(e, axis=-1, keepdims=True))
    u = np.zeros_like(e)
    u[..., 1:] = np.divide(im, imn, out=np.zeros_like(im), where=~real)
    return u


# ---------------------------------------------------------------------------
# The classifying profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class XSlot:
    """One cross-ratio slot, tagged by its family and the (row, col) indices."""

    family: str  # "X1", "X2", "X3" or "Xk"
    row: int     # 1-based point index
    col: int
    value: Quaternion


@dataclass(frozen=True)
class PairSlot:
    """Distance, angular, and rotation invariant of one negative pair."""

    i1: int
    j1: int
    d: float
    a: float
    u: Quaternion


@dataclass(frozen=True)
class InvariantProfile:
    """The full classifying tuple of an ordered configuration.

    Cross-ratio slots carry explicit index maps; negative pairs carry
    distance/angular/rotation data; ``first_row`` holds the semi-normalized
    pairings of the leading point with each negative point, which calibrate
    the absolute scale of the negative columns.
    """

    m: int
    i: int
    a23: float
    u0: Quaternion
    x_slots: tuple[XSlot, ...]
    pair_slots: tuple[PairSlot, ...]
    first_row: tuple[float, ...]

    def __post_init__(self) -> None:
        # stored as tuples, so a frozen profile cannot change in place
        for name in ("x_slots", "pair_slots", "first_row"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    @property
    def d_count(self) -> int:
        return len(self.x_slots)

    @property
    def t_count(self) -> int:
        return sum(1 for s in self.pair_slots if not s.u.is_zero())

    @property
    def l_count(self) -> int:
        # all-negative configurations pin the first row real, so those pairs
        # contribute zero rotation invariants as well
        base = sum(1 for s in self.pair_slots if s.u.is_zero())
        return base + (len(self.first_row) if self.i == 0 else 0)

    @staticmethod
    def closed_form_d(m: int, i: int) -> int:
        """The stated closed-form slot count i(i-3)/2 + (m-i)^2.

        It exceeds the implemented family count ``closed_form_family_d`` by
        exactly (m-i)(m-2i), so the two agree only at i = m and at i = m - i.
        Elsewhere the stated form is not the slot count the reconstruction
        needs.  At (m, i) = (4, 3) it gives 1, and a profile with one
        cross-ratio slot holds a23, u0 (2 reals), r_14 and that slot (4
        reals): 8 reals, or 5 once the residual unit-quaternion conjugation
        (3 dimensions) is divided out.  But dim M(n, 3, 1) = 16n - 3 -
        dim Sp(n,1) + dim(generic stabilizer) is 8 for n = 2 and 9 for
        n >= 3, so one slot cannot determine the configuration.  Kept with
        its stated values; the verification suite compares it with the
        family count where the two should agree.
        """
        return (i * (i - 3)) // 2 + (m - i) ** 2

    @staticmethod
    def closed_form_family_d(m: int, i: int) -> int:
        """Slot count m*i - i(i+3)/2 of the family ``x_slot_indices`` builds.

        Summing the families: X1 has (m-i) slots, X2 and X3 have (m-3) each,
        and Xk has (m-k) for each 4 <= k <= i.  With
        sum_{k=4..i} k = i(i+1)/2 - 6 the total is
        (m-i) + 2(m-3) + (i-3)m - i(i+1)/2 + 6 = m*i - i(i+3)/2.
        All-negative configurations (i = 0) carry no slots; one or two null
        points are not a supported shape.
        """
        if i == 0:
            return 0
        if i < 3:
            raise InvalidSpecError("configurations need i = 0 or i >= 3 null points")
        return m * i - (i * (i + 3)) // 2

    @staticmethod
    def closed_form_pairs(m: int, i: int) -> int:
        """((m-i)^2 - (m-i)) / 2: the number of negative-pair slots."""
        return ((m - i) ** 2 - (m - i)) // 2

    def check_structure(self) -> None:
        if self.t_count != self.closed_form_pairs(self.m, self.i) - self.l_count:
            raise InvalidSpecError("rotation-invariant bookkeeping inconsistent")
        expected_first_row = (self.m - self.i) if self.i >= 3 else (
            self.m - 1 if self.i == 0 else 0)
        if len(self.first_row) != expected_first_row:
            raise InvalidSpecError("first-row length inconsistent with (m, i)")


def x_slot_indices(m: int, i: int) -> list[tuple[str, int, int]]:
    """Index scheme of the cross-ratio slots for a configuration shape.

    Families (with 1-based indices):
      X1: X(p2, p1, p3, pj) for j = i+1 .. m
      X2: X(p1, p2, p3, pj) for j = 4 .. m
      X3: X(p1, p3, p2, pj) for j = 4 .. m
      Xk: X(p1, pk, p2, pj) for 4 <= k <= i, k < j <= m
    All-negative configurations (i = 0) carry no cross-ratio slots.
    """
    if i == 0:
        return []
    out: list[tuple[str, int, int]] = []
    out.extend(("X1", 1, j) for j in range(i + 1, m + 1))
    out.extend(("X2", 2, j) for j in range(4, m + 1))
    out.extend(("X3", 3, j) for j in range(4, m + 1))
    for k in range(4, i + 1):
        out.extend(("Xk", k, j) for j in range(k + 1, m + 1))
    return out


def x_slot_families(m: int, i: int) -> dict[str, tuple[np.ndarray, ...]]:
    """Where each family sits in ``x_slot_indices(m, i)``, for array code.

    Maps "X1", "X2" and "Xk" (X3 is its k = 3 case) to int arrays of the slot
    positions in the index scheme and of the 0-based Gram rows and columns.
    """
    slots = x_slot_indices(m, i)
    out = {}
    for key, members in (("X1", ("X1",)), ("X2", ("X2",)), ("Xk", ("X3", "Xk"))):
        sel = [(t, r - 1, c - 1) for t, (f, r, c) in enumerate(slots) if f in members]
        out[key] = tuple(np.array(sel, dtype=int).reshape(-1, 3).T)
    return out


@dataclass(frozen=True, eq=False)  # arrays have no single truth value: equality is identity
class _SlotTable:
    """Read-only index arrays of one configuration shape, shared by every call.

    ``slots`` is ``x_slot_indices(m, i)`` and ``families`` is
    ``x_slot_families(m, i)``.  ``pair_rows`` and ``pair_cols`` are the
    0-based Gram positions of the base entry g_23, then of every pair of
    negative points in row order.  ``quads`` holds the 0-based (z1, z2, z3,
    z4) lift columns of each slot's defining four-point product.
    """

    slots: tuple[tuple[str, int, int], ...]
    families: Mapping[str, tuple[np.ndarray, ...]]
    pair_rows: np.ndarray
    pair_cols: np.ndarray
    quads: np.ndarray


@lru_cache(maxsize=None)
def _slot_table(m: int, i: int) -> _SlotTable:
    slots = tuple(x_slot_indices(m, i))
    families = x_slot_families(m, i)
    rows, cols = np.triu_indices(m, 1)
    keep = rows >= max(i, 1)
    rows, cols = np.append(1, rows[keep]), np.append(2, cols[keep])
    # X(p2, p1, p3, pc) at row 1, X(p1, pr, p3, pc) at row 2 and X(p1, pr, p2, pc) after it
    r, c = np.array([(r, c) for _, r, c in slots], dtype=int).reshape(-1, 2).T
    quads = np.stack([r == 1, r - 1, 1 + (r <= 2), c - 1], axis=1)
    for a in (*(a for fam in families.values() for a in fam), rows, cols, quads):
        a.setflags(write=False)
    return _SlotTable(slots, MappingProxyType(families), rows, cols, quads)


def profile(config: "PointConfig", tol: float = DEFAULT_TOL) -> InvariantProfile:
    """Compute the classifying profile of a configuration.

    The configuration is semi-normalized and the profile read off the Gram
    entry identities.  Then every cross-ratio slot is evaluated from its
    defining four-point product on the same semi-normalized Gram array, in
    one array pass, and the first slot with a vanishing factor (at ``tol``,
    its only use) or off its identity by more than SLOT_IDENTITY_RTOL *
    max(1, |direct|) raises.
    """
    from .gram import semi_normalize

    if config.m < 4:
        raise InvalidSpecError("profiles need at least four points")
    sng = semi_normalize(config)
    prof = profile_from_gram(sng)

    quads = _slot_table(config.m, config.i).quads
    direct, vanish = _cross_ratios(sng.gram, np.linalg.norm(sng.lifts, axis=0), quads, tol)
    values = quaternion_array(s.value for s in prof.x_slots)
    agree = (np.linalg.norm(direct - values, axis=1)
             <= SLOT_IDENTITY_RTOL * np.maximum(1.0, np.linalg.norm(direct, axis=1)))
    bad = np.flatnonzero(vanish | ~agree)
    if bad.size:
        _require_factors(vanish[bad[0]])
        slot = prof.x_slots[bad[0]]
        raise DegenerateConfigurationError(
            f"cross-ratio slot {slot.family}({slot.row},{slot.col}) "
            "disagrees with its Gram identity")
    return prof


def _gram_profile(g: np.ndarray, m: int, i: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The profile's entry identities on a semi-normalized (m, m, 4) Gram array.

    Returns the (k, 4) cross-ratio slot values in ``x_slot_indices`` order;
    the base entry g_23 and then every negative-pair entry, as (p, 4)
    components ``e`` with squared moduli ``d`` and angles ``a``; and the
    first-row scales ``r1``, exactly 1 on the null block.
    """
    table = _slot_table(m, i)
    r1 = g[0, :, 0].copy()
    r1[:i] = 1.0

    values = np.empty((len(table.slots), 4))
    with np.errstate(divide="ignore", invalid="ignore"):
        if i >= 3:
            fam = table.families
            g23 = g[1, 2]
            pos, _, cols = fam["X1"]
            g2 = g[1, cols]
            values[pos] = qmul_array(g23, qconj_array(g2)) * (r1[cols]
                                                              / np.sum(g2 ** 2, axis=1))[:, None]
            pos, _, cols = fam["X2"]
            values[pos] = qmul_array(qconj_array(g23), g[1, cols]) / r1[cols, None]
            # X3 and Xk: conj(g_2k)^-1 g_kj / r_j, where conj(q)^-1 = q / |q|^2
            pos, rows, cols = fam["Xk"]
            gk = g[1, rows]
            values[pos] = qmul_array(gk, g[rows, cols]) / (np.sum(gk ** 2, axis=1)
                                                            * r1[cols])[:, None]

        # the base entry g_23, then every pair of negative points
        e = g[table.pair_rows, table.pair_cols]
        d = np.sum(e ** 2, axis=1)
        a = np.arccos(np.clip(-e[:, 0] / np.sqrt(d), -1.0, 1.0))
    if not (np.isfinite(values).all() and np.isfinite(d).all() and np.isfinite(a).all()):
        raise DegenerateConfigurationError(
            "a Gram entry the profile divides by is zero or not finite")
    return values, e, d, a, r1


def profile_from_gram(sng: "SemiNormalizedGram") -> InvariantProfile:
    """Profile evaluated through the semi-normalized Gram entry identities."""
    m, i = sng.m, sng.i
    values, e, d, a, r1 = _gram_profile(sng.gram, m, i)
    table = _slot_table(m, i)

    x_slots = [XSlot(f, r, c, Quaternion(*v))
               for (f, r, c), v in zip(table.slots, values.tolist())]
    a = a.tolist()
    u = [Quaternion(*x) for x in _rotation_invariants(e).tolist()]
    pair_slots = [PairSlot(r + 1, c + 1, dk, 0.0 if ak <= ANGLE_ZERO_TOL else ak, uk)
                  for r, c, dk, ak, uk in zip(table.pair_rows.tolist(), table.pair_cols.tolist(),
                                              d.tolist(), a, u)]

    prof = InvariantProfile(m, i, a[0], u[0], x_slots, pair_slots[1:], r1[max(i, 1):].tolist())
    prof.check_structure()
    return prof

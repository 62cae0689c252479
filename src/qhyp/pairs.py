"""Eigenframes of semisimple elements, the common-fixed-point test, and the
pair-conjugacy decider with explicit conjugator witnesses.

The decider reduces conjugacy of (A, B) and (A', B') to an intertwining
problem for the diagonal gauge group left over after fixing eigenframes of A
and A'.  For a regular A (all eigenvalue classes simple) that gauge is an
explicit diagonal family, the intertwining equations are real-linear in the
root entry, and candidate solutions are certified by direct conjugation
before any positive verdict is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .decision import Decision, Verdict
from .errors import NumericalError, UnsupportedElementError
from .isometry import Classification, Isometry, conjugate_single
from .linalg import EigenClass, HMatrix, HVector, PointType
from .quaternion import Quaternion, left_matrix, right_matrix

REASON_TRACE = "real trace mismatch"
REASON_CLASSES = "eigenvalue class mismatch"
REASON_ORBIT = "canonical orbit mismatch"
REASON_GRASSMANNIAN = "eigenvalue Grassmannian mismatch"


# ---------------------------------------------------------------------------
# Eigenframes
# ---------------------------------------------------------------------------

@dataclass
class EigenFrame:
    """Form-normalized eigenbasis of a semisimple element.

    Hyperbolic: the columns of C are (a, x_1 .. x_{n-1}, r) with <a,r> = 1,
    <x,x> = 1 and the column Gram equal to the corner form.  Elliptic: the
    columns are (x_1 .. x_{n+1}) with <x_1,x_1> = -1, the rest +1, column
    Gram diag(-1, 1, ..., 1).  Column k satisfies A x = x * reps[k], and
    A = C E C^{-1} reassembles.
    """

    kind: Classification
    reps: list[complex]
    C: HMatrix
    E: HMatrix


def _ordered_classes(A: Isometry) -> list[EigenClass]:
    classes = A.classes()
    if A.classification is Classification.HYPERBOLIC:
        nulls = sorted((c for c in classes if c.kind == PointType.NULL),
                       key=lambda c: -c.modulus)
        mids = sorted((c for c in classes if c.kind != PointType.NULL),
                      key=lambda c: c.angle)
        return [nulls[0]] + mids + [nulls[1]]
    neg = [c for c in classes if c.kind == PointType.NEGATIVE]
    pos = sorted((c for c in classes if c.kind != PointType.NEGATIVE),
                 key=lambda c: c.angle)
    return neg + pos


def eigenframe(A: Isometry, tol: float = 1e-8) -> EigenFrame:
    """Assemble the normalized eigenframe; verifies the reassembly residual."""
    if not A.is_semisimple():
        raise UnsupportedElementError("parabolic elements have no eigenframe")
    ordered = _ordered_classes(A)
    columns: list[HVector] = []
    reps: list[complex] = []
    for c in ordered:
        for v in c.vectors:
            columns.append(v)
            reps.append(c.rep)
    C = HMatrix.from_columns(columns)
    E = HMatrix.diag_complex(reps)
    resid = (C @ E @ C.inverse() - A.matrix).norm()
    if resid > tol * max(1.0, A.matrix.norm()):
        raise NumericalError(f"eigenframe reassembly residual {resid:.3e}")
    return EigenFrame(A.classification, reps, C, E)


# ---------------------------------------------------------------------------
# Common fixed points
# ---------------------------------------------------------------------------

def _fixed_set_bases(A: Isometry) -> list[tuple[HVector, ...]]:
    return [c.vectors for c in A.classes()
            if c.kind in (PointType.NULL, PointType.NEGATIVE)]


def have_common_fixed_point(A: Isometry, B: Isometry, tol: float = 1e-8) -> bool:
    """Shared fixed point on the closed ball: intersecting fixed eigenspaces."""
    from .isometry import _stacked_with_j  # reuse the embedding helper

    for ua in _fixed_set_bases(A):
        Ba = _stacked_with_j(ua)
        ra = np.linalg.matrix_rank(Ba, 1e-8)
        for ub in _fixed_set_bases(B):
            Bb = _stacked_with_j(ub)
            rb = np.linalg.matrix_rank(Bb, 1e-8)
            rboth = np.linalg.matrix_rank(np.concatenate([Ba, Bb], axis=1), 1e-8)
            if rboth < ra + rb:
                return True
    return False


# ---------------------------------------------------------------------------
# The pair-conjugacy decider
# ---------------------------------------------------------------------------

def _is_regular(A: Isometry) -> bool:
    return all(c.multiplicity == 1 for c in A.classes())


def pair_conjugate(A: Isometry, B: Isometry, A2: Isometry, B2: Isometry,
                   tol: float = 1e-7) -> Decision:
    """Decide simultaneous conjugacy of the pairs (A, B) and (A2, B2).

    Complete whenever one pair member is regular (all eigenvalue classes
    simple); higher-multiplicity pairs return Inconclusive unless an
    invariant already separates them.  Every Conjugate verdict carries a
    witness verified by direct conjugation.
    """
    for x in (A, B, A2, B2):
        if not x.is_semisimple():
            raise UnsupportedElementError("decider supports semisimple pairs only")
    if have_common_fixed_point(A, B) or have_common_fixed_point(A2, B2):
        raise UnsupportedElementError("pairs must not have a common fixed point")

    ta, ta2 = A.real_trace(), A2.real_trace()
    tb, tb2 = B.real_trace(), B2.real_trace()
    scale = max(1.0, float(np.max(np.abs(ta))), float(np.max(np.abs(tb))))
    if (np.max(np.abs(ta - ta2)) > 1e-7 * scale
            or np.max(np.abs(tb - tb2)) > 1e-7 * scale):
        return Decision(Verdict.NOT_CONJUGATE, reason=REASON_TRACE)
    if not conjugate_single(A, A2) or not conjugate_single(B, B2):
        return Decision(Verdict.NOT_CONJUGATE, reason=REASON_CLASSES)

    if _is_regular(A):
        return _decide_regular(A, B, A2, B2, tol)
    if _is_regular(B):
        return _decide_regular(B, A, B2, A2, tol)
    return Decision(Verdict.INCONCLUSIVE,
                    reason="no regular member; invariants computed agree")


def _decide_regular(A: Isometry, B: Isometry, A2: Isometry, B2: Isometry,
                    tol: float) -> Decision:
    space = A.space
    fa, fa2 = eigenframe(A), eigenframe(A2)
    if (fa.E - fa2.E).norm() > 1e-6 * max(1.0, fa.E.norm()):
        return Decision(Verdict.NOT_CONJUGATE, reason=REASON_CLASSES)

    N = space.dim
    M = fa.C.inverse() @ B.matrix @ fa.C
    M2 = fa2.C.inverse() @ B2.matrix @ fa2.C
    mg = [[M.entry(r, c) for c in range(N)] for r in range(N)]
    mg2 = [[M2.entry(r, c) for c in range(N)] for r in range(N)]
    mscale = max(M.norm(), M2.norm(), 1.0)

    # zero patterns must match for a diagonal intertwiner to exist
    z = 1e-9 * mscale
    for r in range(N):
        for c in range(N):
            n1, n2 = mg[r][c].norm(), mg2[r][c].norm()
            if (n1 < z and n2 > 1e3 * z) or (n2 < z and n1 > 1e3 * z):
                return Decision(Verdict.NOT_CONJUGATE, reason=REASON_ORBIT)

    maps = _propagation_maps(mg, mg2, mscale)
    if maps is None:
        return Decision(Verdict.NOT_CONJUGATE, reason=REASON_ORBIT)

    rows_intertwine = _intertwine_rows(mg, mg2, maps)
    null1 = _nullspace_rows(rows_intertwine)
    if null1.shape[1] == 0:
        return Decision(Verdict.NOT_CONJUGATE, reason=REASON_ORBIT)

    rows_central = _centralizer_rows(fa.reps, maps)
    if rows_central.size:
        null2 = _nullspace_rows(np.vstack([rows_intertwine, rows_central]))
    else:
        null2 = null1
    if null2.shape[1] == 0:
        return Decision(Verdict.NOT_CONJUGATE, reason=REASON_GRASSMANNIAN)

    candidates = [null2[:, k] for k in range(null2.shape[1])]
    if null2.shape[1] > 1:
        candidates += [null2[:, 0] + null2[:, k] for k in range(1, null2.shape[1])]
    any_gauge_ok = False
    for vec in candidates:
        D = _candidate_gauge(fa, vec, maps)
        if D is None:
            continue
        any_gauge_ok = True
        C = fa2.C @ D @ fa.C.inverse()
        C = space.project_to_group(C)
        resid = ((C @ A.matrix @ C.inverse() - A2.matrix).norm()
                 + (C @ B.matrix @ C.inverse() - B2.matrix).norm())
        if resid < tol * max(1.0, A.matrix.norm() + B.matrix.norm()):
            return Decision(Verdict.CONJUGATE, witness=C, residual=resid)
    if null2.shape[1] == 1 and not any_gauge_ok:
        # the one-dimensional candidate failed its modulus constraints:
        # the normalized tuples cannot be matched
        return Decision(Verdict.NOT_CONJUGATE, reason=REASON_ORBIT)
    # a structurally valid gauge failed its conjugation verification, or the
    # solution space is too degenerate to search exhaustively: stay honest
    return Decision(Verdict.INCONCLUSIVE,
                    reason="gauge candidates failed verification")


def _propagation_maps(mg, mg2, mscale) -> Optional[list[np.ndarray]]:
    """Real-linear maps vec(d_root) -> vec(d_k) along a max-weight tree."""
    N = len(mg)
    maps: list[Optional[np.ndarray]] = [None] * N
    maps[0] = np.eye(4)
    visited = {0}
    while len(visited) < N:
        best = None
        for k in range(N):
            if k in visited:
                continue
            for l in visited:
                w = min(mg[k][l].norm(), mg2[k][l].norm())
                if best is None or w > best[0]:
                    best = (w, k, l)
        if best is None or best[0] < 1e-8 * mscale:
            return None
        _, k, l = best
        # d_k = m2_{kl} d_l m_{kl}^{-1}
        maps[k] = left_matrix(mg2[k][l]) @ right_matrix(mg[k][l].inverse()) @ maps[l]
        visited.add(k)
    return maps  # type: ignore[return-value]


def _intertwine_rows(mg, mg2, maps) -> np.ndarray:
    N = len(mg)
    rows = []
    for k in range(N):
        for l in range(N):
            rows.append(right_matrix(mg[k][l]) @ maps[k]
                        - left_matrix(mg2[k][l]) @ maps[l])
    return np.vstack(rows)


def _centralizer_rows(reps: Sequence[complex], maps) -> np.ndarray:
    rows = []
    for k, rep in enumerate(reps):
        if abs(rep.imag) > 1e-9 * max(1.0, abs(rep)):
            rows.append(maps[k][2:4, :])
    return np.vstack(rows) if rows else np.empty((0, 4))


def _nullspace_rows(rows: np.ndarray, rtol: float = 1e-7) -> np.ndarray:
    U, s, Vt = np.linalg.svd(rows, full_matrices=True)
    if s.size == 0:
        return np.eye(4)
    cutoff = rtol * max(s[0], 1.0)
    rank = int(np.sum(s > cutoff))
    return Vt[rank:].T


def _candidate_gauge(fa: EigenFrame, vec: np.ndarray,
                     maps: Sequence[np.ndarray]) -> Optional[HMatrix]:
    """Scale a null-space direction into the gauge group, if possible."""
    N = len(maps)
    ds = [Quaternion.from_seq(maps[k] @ vec) for k in range(N)]
    if any(d.norm() < 1e-12 for d in ds):
        return None
    if fa.kind is Classification.HYPERBOLIC:
        unit_slots = list(range(1, N - 1))
    else:
        unit_slots = list(range(N))
    if unit_slots:
        t = 1.0 / ds[unit_slots[0]].norm()
    else:
        q = ds[0].conj() * ds[-1]
        if q.norm() < 1e-12 or abs(q.unit().a0 - 1.0) > 1e-5:
            return None
        t = 1.0 / math.sqrt(q.norm())
    ds = [d * t for d in ds]
    for k in unit_slots:
        if abs(ds[k].norm() - 1.0) > 1e-5:
            return None
    if fa.kind is Classification.HYPERBOLIC:
        tie = ds[0].conj() * ds[-1]
        if not tie.approx_eq(Quaternion.one(), 1e-5):
            return None
    grid = [[Quaternion() for _ in range(N)] for _ in range(N)]
    for k in range(N):
        grid[k][k] = ds[k]
    return HMatrix.from_quaternions(grid)

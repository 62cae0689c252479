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
from typing import Optional

import numpy as np

from .decision import Decision, Verdict
from .errors import NumericalError, UnsupportedElementError
from .isometry import Classification, Isometry, conjugate_single
from .linalg import EigenClass, HMatrix, HVector, PointType, nullspace, two_columns
from .quaternion import left_matrix, qconj_array, qmul_array, right_matrix

REASON_TRACE = "real trace mismatch"
REASON_CLASSES = "eigenvalue class mismatch"
REASON_ORBIT = "canonical orbit mismatch"
REASON_GRASSMANNIAN = "eigenvalue Grassmannian mismatch"


# ---------------------------------------------------------------------------
# Eigenframes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenFrame:
    """Form-normalized eigenbasis of a semisimple element.

    Hyperbolic: the columns of C are (a, x_1 .. x_{n-1}, r) with <a,r> = 1,
    <x,x> = 1 and the column Gram equal to the corner form.  Elliptic: the
    columns are (x_1 .. x_{n+1}) with <x_1,x_1> = -1, the rest +1, column
    Gram diag(-1, 1, ..., 1).  Column k satisfies A x = x * reps[k], and
    A = C E C^{-1} reassembles.
    """

    kind: Classification
    reps: tuple[complex, ...]
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
    return EigenFrame(A.classification, tuple(reps), C, E)


# ---------------------------------------------------------------------------
# Common fixed points
# ---------------------------------------------------------------------------

def _fixed_set_bases(A: Isometry) -> list[tuple[HVector, ...]]:
    return [c.vectors for c in A.classes()
            if c.kind in (PointType.NULL, PointType.NEGATIVE)]


def have_common_fixed_point(A: Isometry, B: Isometry) -> bool:
    """Shared fixed point on the closed ball: intersecting fixed eigenspaces."""
    for ua in _fixed_set_bases(A):
        Ba = two_columns(ua)
        ra = np.linalg.matrix_rank(Ba, 1e-8)
        for ub in _fixed_set_bases(B):
            Bb = two_columns(ub)
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

    M = fa.C.inverse() @ B.matrix @ fa.C
    M2 = fa2.C.inverse() @ B2.matrix @ fa2.C
    m, m2 = M.components(), M2.components()
    mscale = max(M.norm(), M2.norm(), 1.0)

    # zero patterns must match for a diagonal intertwiner to exist
    z = 1e-9 * mscale
    n1, n2 = np.linalg.norm(m, axis=-1), np.linalg.norm(m2, axis=-1)
    if np.any((n1 < z) & (n2 > 1e3 * z) | (n2 < z) & (n1 > 1e3 * z)):
        return Decision(Verdict.NOT_CONJUGATE, reason=REASON_ORBIT)

    # a diagonal gauge D intertwines when m2_kl d_l = d_k m_kl for all k, l
    R, L2 = right_matrix(m), left_matrix(m2)
    maps = _propagation_maps(np.minimum(n1, n2), m, R, L2, mscale)
    if maps is None:
        return Decision(Verdict.NOT_CONJUGATE, reason=REASON_ORBIT)

    rows_intertwine = (R @ maps[:, None] - L2 @ maps[None, :]).reshape(-1, 4)
    null1 = nullspace(rows_intertwine, 1e-7)
    if null1.shape[1] == 0:
        return Decision(Verdict.NOT_CONJUGATE, reason=REASON_ORBIT)

    # a nonreal class pins d_k to its centralizer: no j, k components
    reps = np.array(fa.reps)
    central = np.abs(reps.imag) > 1e-9 * np.maximum(1.0, np.abs(reps))
    if central.any():
        null2 = nullspace(np.vstack([rows_intertwine, maps[central, 2:4].reshape(-1, 4)]), 1e-7)
    else:
        null2 = null1
    if null2.shape[1] == 0:
        return Decision(Verdict.NOT_CONJUGATE, reason=REASON_GRASSMANNIAN)

    candidates = [null2[:, k] for k in range(null2.shape[1])]
    if null2.shape[1] > 1:
        candidates += [null2[:, 0] + null2[:, k] for k in range(1, null2.shape[1])]
    any_gauge_ok = False
    for vec in candidates:
        D = _candidate_gauge(fa.kind, maps @ vec)
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


def _propagation_maps(weight: np.ndarray, m: np.ndarray, R: np.ndarray, L2: np.ndarray,
                      mscale: float) -> Optional[np.ndarray]:
    """Real-linear maps vec(d_root) -> vec(d_k) along a max-weight tree, as (N, 4, 4)."""
    N = len(weight)
    maps = np.zeros((N, 4, 4))
    maps[0] = np.eye(4)
    visited = np.zeros(N, dtype=bool)
    visited[0] = True
    while not visited.all():
        w = np.where(~visited[:, None] & visited[None, :], weight, -1.0)
        k, l = np.unravel_index(np.argmax(w), w.shape)
        if w[k, l] < 1e-8 * mscale:
            return None
        # d_k = m2_kl d_l m_kl^-1, and right multiplication by q^-1 is R(q)^T / |q|^2
        maps[k] = L2[k, l] @ (R[k, l].T / np.sum(m[k, l] * m[k, l])) @ maps[l]
        visited[k] = True
    return maps


def _candidate_gauge(kind: Classification, ds: np.ndarray) -> Optional[HMatrix]:
    """Scale a null-space direction, mapped to the (N, 4) diagonal ds, into the
    gauge group, if possible."""
    N = len(ds)
    if np.any(np.linalg.norm(ds, axis=1) < 1e-12):
        return None
    unit_slots = np.arange(1, N - 1) if kind is Classification.HYPERBOLIC else np.arange(N)
    if unit_slots.size:
        t = 1.0 / np.linalg.norm(ds[unit_slots[0]])
    else:
        q = qmul_array(qconj_array(ds[0]), ds[-1])
        qn = np.linalg.norm(q)
        if qn < 1e-12 or abs(q[0] / qn - 1.0) > 1e-5:
            return None
        t = 1.0 / math.sqrt(qn)
    ds = ds * t
    if np.any(np.abs(np.linalg.norm(ds[unit_slots], axis=1) - 1.0) > 1e-5):
        return None
    if kind is Classification.HYPERBOLIC:
        tie = qmul_array(qconj_array(ds[0]), ds[-1])
        if np.linalg.norm(tie - [1.0, 0.0, 0.0, 0.0]) > 1e-5:
            return None
    grid = np.zeros((N, N, 4))
    grid[np.arange(N), np.arange(N)] = ds
    return HMatrix.from_components(grid)

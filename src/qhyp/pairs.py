"""Eigenframes of semisimple elements, the common-fixed-point test, and the
pair-conjugacy decider with explicit conjugator witnesses.

The decider reduces conjugacy of (A, B) and (A', B') to one real-linear
system in the eigenframes C, C' of A and A'.  A conjugator W, written as
X = C'^-1 W C, commutes with the diagonal normal form E of A: it is
block-diagonal over the eigenvalue classes, with complex entries in a block
of a nonreal class and quaternionic ones in a block of a real class.  It
also intertwines the second members in those frames, M' X = X M.  The null
space of that system holds every conjugator, and with W it holds W^-⋆ =
H W^-* H, so the polar factor of the W made from the sum of its basis is a
conjugator in the group, certified by direct conjugation before any
positive verdict.  An empty null space, or a one-dimensional one that holds
no multiple of a group element, separates the pairs: no intertwiner is a
multiple of a group element.  A polar factor that does not converge or
verify leaves them Inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decision import Decision, Verdict
from .errors import NumericalError, UnsupportedElementError
from .isometry import Classification, Isometry, conjugate_single, decompose
from .linalg import EigenData, HMatrix, PointType, nullspace, two_columns
from .quaternion import left_matrix, right_matrix
from .tolerances import (DECIDER_TOL, FIXED_SET_RANK_ATOL, GROUP_MULTIPLE_RTOL, INTERTWINER_RTOL,
                         NORMAL_FORM_RTOL, REAL_CLASS_RTOL, REASSEMBLY_RTOL, TRACE_RTOL,
                         WITNESS_MEMBER_TOL)

REASON_TRACE = "real trace mismatch"
REASON_CLASSES = "eigenvalue class mismatch"
REASON_NO_CONJUGATOR = "no intertwiner is a multiple of a group element"
REASON_UNVERIFIED = "polar factor did not converge or failed verification"


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
    A = C E C^{-1} reassembles; ``Cinv`` is that inverse (read-only).
    """

    kind: Classification
    reps: tuple[complex, ...]
    C: HMatrix
    E: HMatrix
    Cinv: HMatrix

    def __post_init__(self) -> None:
        self.Cinv.emb.setflags(write=False)


def _ordered_classes(A: Isometry) -> list[int]:
    e = A.eigen
    classes = range(len(e.kinds))
    if A.classification is Classification.HYPERBOLIC:
        a, r = sorted((c for c in classes if e.kinds[c] == PointType.NULL),
                      key=lambda c: -e.moduli[c])
        mids = sorted((c for c in classes if c not in (a, r)), key=lambda c: e.angles[c])
        return [a] + mids + [r]
    neg = [c for c in classes if e.kinds[c] == PointType.NEGATIVE]
    return neg + sorted((c for c in classes if c not in neg), key=lambda c: e.angles[c])


def eigenframe(A: Isometry) -> EigenFrame:
    """Assemble the normalized eigenframe; verifies the reassembly residual."""
    if not A.is_semisimple():
        raise UnsupportedElementError("parabolic elements have no eigenframe")
    ordered, e = _ordered_classes(A), A.eigen
    cols = [j for c in ordered for j in range(e.starts[c], e.starts[c + 1])]
    reps = np.repeat(e.reps, e.multiplicities)[cols].tolist()  # each column's rep
    C = HMatrix.from_columns(e.vectors[:, cols])
    E = HMatrix.diag_complex(reps)
    Cinv = C.inverse()
    resid = (C @ E @ Cinv - A.matrix).norm()
    if resid > REASSEMBLY_RTOL * max(1.0, A.matrix.norm()):
        raise NumericalError(f"eigenframe reassembly residual {resid:.3e}")
    return EigenFrame(A.classification, tuple(reps), C, E, Cinv)


# ---------------------------------------------------------------------------
# Common fixed points
# ---------------------------------------------------------------------------

def _fixed_sets(e: EigenData, offset: int) -> list[list[int]]:
    """For each null or negative class, the columns of two_columns(e.vectors)
    (from ``offset`` on) that span its eigenspace."""
    return [list(range(offset + 2 * e.starts[c], offset + 2 * e.starts[c + 1]))
            for c, kind in enumerate(e.kinds) if kind in (PointType.NULL, PointType.NEGATIVE)]


def have_common_fixed_point(A: Isometry, B: Isometry) -> bool:
    """Shared fixed point on the closed ball: intersecting fixed eigenspaces,
    i.e. rank [Ba, Bb] < rank Ba + rank Bb for a fixed set of each.

    Every rank (singular values above FIXED_SET_RANK_ATOL, the count of
    ``np.linalg.matrix_rank`` at that tolerance) comes from one stacked SVD,
    the narrower bases padded with zero columns, which add only zero
    singular values."""
    if not A.is_semisimple() or not B.is_semisimple():
        raise UnsupportedElementError("parabolic element has no class data")
    width = len(A.eigen.vectors)  # 2N complex columns [s, s j] for each member
    sets_a, sets_b = _fixed_sets(A.eigen, 0), _fixed_sets(B.eigen, width)
    if not sets_a or not sets_b:
        return False
    bases = sets_a + sets_b + [a + b for a in sets_a for b in sets_b]
    T = two_columns(np.concatenate(  # then a zero column, 2 * width, to pad with
        [A.eigen.vectors, B.eigen.vectors, np.zeros((len(A.eigen.vectors), 1))], axis=1))
    wide = max(map(len, bases))
    stack = T[:, [b + [2 * width] * (wide - len(b)) for b in bases]].transpose(1, 0, 2)
    ranks = np.count_nonzero(np.linalg.svd(stack, compute_uv=False) > FIXED_SET_RANK_ATOL, axis=1)
    na, nb = len(sets_a), len(sets_b)
    return bool(np.any(ranks[na + nb:] < np.add.outer(ranks[:na], ranks[na:na + nb]).ravel()))


# ---------------------------------------------------------------------------
# The pair-conjugacy decider
# ---------------------------------------------------------------------------

def pair_conjugate(A: Isometry, B: Isometry, A2: Isometry, B2: Isometry,
                   tol: float = DECIDER_TOL) -> Decision:
    """Decide simultaneous conjugacy of the pairs (A, B) and (A2, B2).

    Every conjugator lies in the null space of one real-linear system in A's
    eigenframe (see the module docstring).  An empty null space separates the
    pairs, and so does a one-dimensional one whose vector is not a positive
    multiple of a group element; both report REASON_NO_CONJUGATOR, after one
    null space.  Otherwise the witness is the polar factor of the sum of the
    null-space basis, whatever the dimension, once it is a member that
    conjugates both pairs directly; if not, Inconclusive.
    """
    decompose((A, B, A2, B2))
    if Classification.PARABOLIC in [x.classification for x in (A, B, A2, B2)]:
        raise UnsupportedElementError("decider supports semisimple pairs only")
    if have_common_fixed_point(A, B) or have_common_fixed_point(A2, B2):
        raise UnsupportedElementError("pairs must not have a common fixed point")

    ta, ta2 = A.real_trace(), A2.real_trace()
    tb, tb2 = B.real_trace(), B2.real_trace()
    scale = max(1.0, float(np.abs(ta).max()), float(np.abs(tb).max()))
    if (np.abs(ta - ta2).max() > TRACE_RTOL * scale
            or np.abs(tb - tb2).max() > TRACE_RTOL * scale):
        return Decision(Verdict.NOT_CONJUGATE, reason=REASON_TRACE)
    if not conjugate_single(A, A2) or not conjugate_single(B, B2):
        return Decision(Verdict.NOT_CONJUGATE, reason=REASON_CLASSES)

    fa, fa2 = eigenframe(A), eigenframe(A2)
    if (fa.E - fa2.E).norm() > NORMAL_FORM_RTOL * max(1.0, fa.E.norm()):
        return Decision(Verdict.NOT_CONJUGATE, reason=REASON_CLASSES)

    # a conjugator W gives X = fa2.C^-1 W fa.C with M2 X = X M
    m = (fa.Cinv @ B.matrix @ fa.C).components()
    m2 = (fa2.Cinv @ B2.matrix @ fa2.C).components()

    # X commutes with E: zero between classes, and complex in a nonreal class
    reps = np.array(fa.reps)
    block = (reps[:, None] == reps[None, :])[..., None]
    nonreal = np.abs(reps.imag) > REAL_CLASS_RTOL * np.maximum(1.0, np.abs(reps))
    free = block & ~(nonreal[:, None, None] & (np.arange(4) >= 2))
    null = nullspace(_intertwiner_rows(m, m2, free), INTERTWINER_RTOL)
    if null.shape[1] == 0:
        return Decision(Verdict.NOT_CONJUGATE, reason=REASON_NO_CONJUGATOR)

    # the conjugators are closed under W -> W^-⋆: the polar iteration stays in them
    x = np.zeros(free.shape)
    x[free] = null.sum(axis=1)
    W = fa2.C @ HMatrix.from_components(x) @ fa.Cinv
    space, H = A.space, A.space.H_emb
    if null.shape[1] == 1:
        # every conjugator is a real multiple of W, so W* H W = c H with c > 0
        G = W.emb.conj().T @ H @ W.emb
        c = np.vdot(H, G).real / np.vdot(H, H).real
        if not c > 0 or np.linalg.norm(G - c * H) > GROUP_MULTIPLE_RTOL * c * np.linalg.norm(H):
            return Decision(Verdict.NOT_CONJUGATE, reason=REASON_NO_CONJUGATOR)
    try:
        C = space.project_to_group(W)
    except NumericalError:  # a singular sum
        return Decision(Verdict.INCONCLUSIVE, reason=REASON_UNVERIFIED)
    if space.is_member(C, WITNESS_MEMBER_TOL):  # and so invertible
        Ci = C.inverse()
        resid = (C @ A.matrix @ Ci - A2.matrix).norm() + (C @ B.matrix @ Ci - B2.matrix).norm()
        if resid < tol * max(1.0, A.matrix.norm() + B.matrix.norm()):
            return Decision(Verdict.CONJUGATE, witness=C, residual=resid)
    return Decision(Verdict.INCONCLUSIVE, reason=REASON_UNVERIFIED)


def _intertwiner_rows(m: np.ndarray, m2: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Real matrix of X -> M2 X - X M, with rows the raveled (N, N, 4)
    components of the image and columns the components of X marked in the
    (N, N, 4) mask ``free`` (the others held at zero)."""
    N = len(m)
    l, j, c = np.nonzero(free)
    k = np.arange(len(l))
    rows = np.zeros((N, N, 4, len(l)))
    # unknown k is component c of X[l, j]: (M2 X)[i, j] holds M2[i, l] X[l, j],
    # and (X M)[l, i] holds X[l, j] M[j, i]
    rows[:, j, :, k] = left_matrix(m2)[:, l, :, c]
    rows[l, :, :, k] -= right_matrix(m)[j, :, :, c]
    return rows.reshape(4 * N * N, len(l))

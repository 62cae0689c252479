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
from functools import lru_cache

import numpy as np

from .decision import Decision, Verdict
from .errors import DimensionMismatchError, NumericalError, UnsupportedElementError
from .isometry import Classification, Isometry, conjugate_single, decompose
from .linalg import HMatrix, PointType, _norm, nullspace, two_columns
from .quaternion import from_complex_pairs, left_matrix, right_matrix
from .tolerances import (DECIDER_TOL, FIXED_SET_RANK_ATOL, GROUP_MULTIPLE_RTOL, INTERTWINER_RTOL,
                         REAL_CLASS_RTOL, REASSEMBLY_RTOL, WITNESS_MEMBER_TOL)

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


def eigenframe(A: Isometry) -> EigenFrame:
    """Assemble the normalized eigenframe; verifies the reassembly residual."""
    if not A.is_semisimple():
        raise UnsupportedElementError("parabolic elements have no eigenframe")
    e = A.eigen  # in frame order
    reps = e.reps.repeat(e.multiplicities)  # of each column
    C, E = HMatrix.from_columns(e.vectors), HMatrix.diag_complex(reps)
    Cinv = C.inverse()
    # C E C^-1 - A, with E applied as the scale of each column of C
    resid = _norm((C.emb * E.emb.diagonal()) @ Cinv.emb - A.matrix.emb) / np.sqrt(2.0)
    if resid > REASSEMBLY_RTOL and resid > REASSEMBLY_RTOL * max(1.0, A.matrix.norm()):
        raise NumericalError(f"eigenframe reassembly residual {resid:.3e}")
    return EigenFrame(A.classification, tuple(reps.tolist()), C, E, Cinv)


# ---------------------------------------------------------------------------
# Common fixed points
# ---------------------------------------------------------------------------

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
    # the columns of two_columns([A.eigen.vectors, B.eigen.vectors]) of each fixed set
    sets_a, sets_b = ([list(range(offset + 2 * e.starts[c], offset + 2 * e.starts[c + 1]))
                       for c, kind in enumerate(e.kinds) if kind is not PointType.POSITIVE]
                      for e, offset in ((A.eigen, 0), (B.eigen, width)))
    if not sets_a or not sets_b:
        return False
    bases = sets_a + sets_b + [a + b for a in sets_a for b in sets_b]
    T = two_columns(np.concatenate(  # then a zero column, 2 * width, to pad with
        [A.eigen.vectors, B.eigen.vectors, np.zeros((width, 1))], axis=1))
    wide = max(map(len, bases))
    stack = T[:, [b + [2 * width] * (wide - len(b)) for b in bases]].transpose(1, 0, 2)
    ranks = (np.linalg.svd(stack, compute_uv=False) > FIXED_SET_RANK_ATOL).sum(axis=1).tolist()
    na, nb = len(sets_a), len(sets_b)
    return any(rank < ranks[k // nb] + ranks[na + k % nb] for k, rank in enumerate(ranks[na + nb:]))


# ---------------------------------------------------------------------------
# The pair-conjugacy decider
# ---------------------------------------------------------------------------

def pair_conjugate(A: Isometry, B: Isometry, A2: Isometry, B2: Isometry,
                   tol: float = DECIDER_TOL) -> Decision:
    """Decide simultaneous conjugacy of the pairs (A, B) and (A2, B2).

    Pairs whose first or second members differ in their normal forms
    (:func:`conjugate_single`) are separated with REASON_CLASSES.  Every
    conjugator lies in the null space of one real-linear system in A's
    eigenframe (see the module docstring).  An empty null space separates the
    pairs, and so does a one-dimensional one whose vector is not a positive
    multiple of a group element; both report REASON_NO_CONJUGATOR, after one
    null space.  Otherwise the witness is the polar factor of the sum of the
    null-space basis, whatever the dimension, once it is a member that
    conjugates both pairs directly; if not, Inconclusive, as is a numerical
    failure; members of different spaces, parabolic or with a common fixed point raise.
    """
    if len({x.space.dim for x in (A, B, A2, B2)}) != 1:
        raise DimensionMismatchError("pair members live in different spaces")
    try:
        decompose((A, B, A2, B2))
        if Classification.PARABOLIC in [x.classification for x in (A, B, A2, B2)]:
            raise UnsupportedElementError("decider supports semisimple pairs only")
        if have_common_fixed_point(A, B) or have_common_fixed_point(A2, B2):
            raise UnsupportedElementError("pairs must not have a common fixed point")

        if not conjugate_single(A, A2) or not conjugate_single(B, B2):
            return Decision(Verdict.NOT_CONJUGATE, reason=REASON_CLASSES)

        # a conjugator W gives X = fa2.C^-1 W fa.C with M2 X = X M
        fa, fa2 = eigenframe(A), eigenframe(A2)
        N = A.space.dim
        m, m2 = ((f.Cinv.emb @ X.matrix.emb @ f.C.emb)[:, :N] for f, X in ((fa, B), (fa2, B2)))

        # X commutes with E: zero between classes, and complex in a nonreal class
        reps = fa.E.emb.diagonal()[:N]
        nonreal = np.abs(reps.imag) > REAL_CLASS_RTOL * np.maximum(1.0, np.abs(reps))
        free = (reps[:, None] == reps)[..., None] & ~(nonreal[:, None, None] & (np.arange(4) >= 2))
        null = nullspace(_intertwiner_rows(*(from_complex_pairs(x[:N], x[N:]) for x in (m, m2)),
                                           free), INTERTWINER_RTOL)
        if null.shape[1] == 0:
            return Decision(Verdict.NOT_CONJUGATE, reason=REASON_NO_CONJUGATOR)

        # the conjugators are closed under W -> W^-⋆: the polar iteration stays in them
        x = np.zeros(free.shape)
        x[free] = null.sum(axis=1)
        W = fa2.C @ HMatrix.from_components(x) @ fa.Cinv
        space = A.space
        if null.shape[1] == 1:
            # every conjugator is a real multiple of W, so W* H W = c H with c > 0
            G = W.emb.conj().T[:, space.perm] @ W.emb[:, space.perm]  # W* H W H = c I: H H = I
            c = np.trace(G).real / len(G)
            G.flat[::len(G) + 1] -= c
            if not c > 0 or _norm(G) > GROUP_MULTIPLE_RTOL * c * np.sqrt(len(G)):
                return Decision(Verdict.NOT_CONJUGATE, reason=REASON_NO_CONJUGATOR)
        try:
            C = space.project_to_group(W)
        except NumericalError:  # a singular sum
            return Decision(Verdict.INCONCLUSIVE, reason=REASON_UNVERIFIED)
        if space.is_member(C, WITNESS_MEMBER_TOL):  # and so invertible
            Ci = C.inverse()
            resid = (C @ A.matrix @ Ci - A2.matrix).norm() + (C @ B.matrix @ Ci - B2.matrix).norm()
            if resid < tol or resid < tol * max(1.0, A.matrix.norm() + B.matrix.norm()):
                return Decision(Verdict.CONJUGATE, witness=C, residual=resid)
        return Decision(Verdict.INCONCLUSIVE, reason=REASON_UNVERIFIED)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        return Decision(Verdict.INCONCLUSIVE, reason=f"numerical failure: {exc}")


def _intertwiner_rows(m: np.ndarray, m2: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Real matrix of X -> M2 X - X M, with rows the raveled (N, N, 4)
    components of the image and columns the components of X marked in the
    (N, N, 4) mask ``free`` (the others held at zero): each entry a signed
    component of M2 minus one of M, gathered by the tables of the mask."""
    left, right = _intertwiner_tables(free.tobytes(), len(m))
    return (np.concatenate([m2.ravel(), -m2.ravel(), [0.0]])[left]
            - np.concatenate([m.ravel(), -m.ravel(), [0.0]])[right])


@lru_cache(maxsize=64)
def _intertwiner_tables(free: bytes, N: int) -> np.ndarray:
    """For each entry of :func:`_intertwiner_rows`, its M2 X and its X M term
    as an index into [q, -q, 0] for the raveled components q (-1: no term)."""
    l, j, c = np.nonzero(np.frombuffer(free, dtype=bool).reshape(N, N, 4))
    k = np.arange(len(l))
    coded = np.arange(1.0, 4 * N * N + 1).reshape(N, N, 4)  # component index + 1
    terms = np.zeros((2, N, N, 4, len(l)))
    # unknown k is component c of X[l, j]: (M2 X)[i, j] holds M2[i, l] X[l, j],
    # and (X M)[l, i] holds X[l, j] M[j, i]
    terms[0][:, j, :, k] = left_matrix(coded)[:, l, :, c]
    terms[1][l, :, :, k] = right_matrix(coded)[j, :, :, c]
    tables = (np.where(terms < 0, 4 * N * N - terms, terms) - 1).astype(np.int32)
    tables.setflags(write=False)
    return tables.reshape(2, 4 * N * N, len(l))

"""Quaternionic vectors and matrices over a signature-(n,1) Hermitian space.

Everything is carried numerically through the complex embedding

    A = A1 + j*A2  ->  [[A1, -conj(A2)], [A2, conj(A1)]]

which is an algebra homomorphism compatible with conjugate transpose.  A
quaternionic column vector x = x1 + j*x2 is stored as the stacked complex
vector (x1; x2); the right eigenvalue problem A x = x lam for complex lam is
then exactly the complex eigenvalue problem of the embedding, and the
J-symmetry s -> J conj(s) realizes right multiplication by j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidSpecError,
    NotSemisimpleError,
    NumericalError,
    QhypError,
)
from .quaternion import Quaternion, complex_pairs, from_complex_pairs, qconj_array
from .tolerances import (BASIS_RANK_RTOL, CENTRALIZER_RTOL, CHAR_COEFF_TOL, CLUSTER_RTOL,
                         DEFAULT_TOL, DIVISION_FLOOR, FORM_DEGENERACY_RTOL, J_STRUCTURE_RTOL,
                         NEWTON_MAX_STEPS, NEWTON_STEP_RTOL, RANK_RTOL, UNIT_MODULUS_TOL)


class PointType(Enum):
    NEGATIVE = "negative"
    NULL = "null"
    POSITIVE = "positive"


def _times_j(s: np.ndarray) -> np.ndarray:
    """Stacked form of x*j: (x1; x2) -> (-conj(x2); conj(x1)), for a stacked
    vector or for every column of a stacked array."""
    N, t = s.shape[0] // 2, np.conj(s)
    return np.concatenate([-t[N:], t[:N]])


class HVector:
    """Column vector over the quaternions, stored in stacked complex form."""

    __slots__ = ("s",)

    def __init__(self, stacked: np.ndarray):
        s = np.asarray(stacked, dtype=complex)
        if s.ndim != 1 or s.shape[0] % 2 != 0:
            raise DimensionMismatchError("stacked vector must have even length")
        self.s = s

    @property
    def dim(self) -> int:
        return self.s.shape[0] // 2

    def times(self, q: "Quaternion | complex | float") -> "HVector":
        """Right scalar action v -> v*q."""
        if isinstance(q, Quaternion):
            return HVector(right_times(self.s, *q.complex_pair()))
        return HVector(self.s * q)

    def __add__(self, other: "HVector") -> "HVector":
        return HVector(self.s + other.s)

    def __sub__(self, other: "HVector") -> "HVector":
        return HVector(self.s - other.s)

    def __neg__(self) -> "HVector":
        return HVector(-self.s)

    def norm(self) -> float:
        return float(np.linalg.norm(self.s))

    def __repr__(self) -> str:
        return f"HVector(dim={self.dim})"


class HMatrix:
    """Square quaternionic matrix stored by its complex embedding."""

    __slots__ = ("emb",)

    def __init__(self, emb: np.ndarray, check: bool = True):
        emb = np.asarray(emb, dtype=complex)
        if emb.ndim != 2 or emb.shape[0] != emb.shape[1] or emb.shape[0] % 2 != 0:
            raise DimensionMismatchError("embedding must be square with even size")
        if check:  # J conj(emb) = emb J, for J = [[0, -I], [I, 0]]
            N = emb.shape[0] // 2
            drift = np.linalg.norm(_times_j(emb) - np.concatenate([emb[:, N:], -emb[:, :N]], 1))
            if drift > J_STRUCTURE_RTOL * max(1.0, np.linalg.norm(emb)):
                raise NumericalError("matrix does not have quaternionic J-structure")
        self.emb = emb

    @property
    def dim(self) -> int:
        return self.emb.shape[0] // 2

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_components(a: np.ndarray) -> "HMatrix":
        """The matrix with (N, N, 4) quaternion components ``a``, first columns [A1; A2]."""
        A1, A2 = complex_pairs(a)
        if A1.ndim != 2 or A1.shape[0] != A1.shape[1]:
            raise DimensionMismatchError("grid must be square")
        return HMatrix.from_columns(np.concatenate([A1, A2]))

    @staticmethod
    def diag_complex(values: Sequence[complex]) -> "HMatrix":
        v = np.asarray(values, dtype=complex)
        return HMatrix(np.diag(np.concatenate([v, np.conj(v)])), check=False)

    @staticmethod
    def from_columns(S: np.ndarray) -> "HMatrix":
        """The matrix whose columns are the stacked (2N, N) columns of ``S``."""
        S = np.asarray(S, dtype=complex)
        if S.ndim != 2 or S.shape[0] != 2 * S.shape[1]:
            raise DimensionMismatchError("need exactly dim columns")
        return HMatrix(np.concatenate([S, _times_j(S)], axis=1), check=False)

    # -- access ------------------------------------------------------------

    def components(self) -> np.ndarray:
        """The (N, N, 4) quaternion components of the entries."""
        N = self.dim
        return from_complex_pairs(self.emb[:N, :N], self.emb[N:, :N])

    # -- algebra -----------------------------------------------------------

    def __matmul__(self, other: "HMatrix | HVector") -> "HMatrix | HVector":
        if isinstance(other, HVector):
            return self.apply(other)
        return HMatrix(self.emb @ other.emb, check=False)

    def apply(self, v: HVector) -> HVector:
        return HVector(self.emb @ v.s)

    def inverse(self) -> "HMatrix":
        return HMatrix(np.linalg.inv(self.emb), check=False)

    def __add__(self, other: "HMatrix") -> "HMatrix":
        return HMatrix(self.emb + other.emb, check=False)

    def __sub__(self, other: "HMatrix") -> "HMatrix":
        return HMatrix(self.emb - other.emb, check=False)

    def norm(self) -> float:
        """Quaternionic Frobenius norm (the embedding doubles the square)."""
        return _norm(self.emb) / math.sqrt(2.0)

    def cond(self) -> float:
        return float(np.linalg.cond(self.emb))

    def copy(self) -> "HMatrix":
        return HMatrix(self.emb.copy(), check=False)

    def __repr__(self) -> str:
        return f"HMatrix(dim={self.dim})"


def _norm(M: np.ndarray) -> float:
    """``np.linalg.norm(M)`` of a complex array, the same sum bit for bit,
    without the argument handling that costs a small array as much again."""
    x = M.ravel(order="K")
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def stacked_from_components(a: np.ndarray) -> np.ndarray:
    """Stacked form of quaternion components: (N, 4) gives one (2N,) vector,
    (m, N, 4) the (2N, m) array of m columns."""
    return np.ascontiguousarray(np.concatenate(complex_pairs(a), axis=-1).T)


def components_from_stacked(S: np.ndarray) -> np.ndarray:
    """Inverse of :func:`stacked_from_components`."""
    N = S.shape[0] // 2
    return from_complex_pairs(S[:N].T, S[N:].T)


def stacked(vectors: Sequence[HVector]) -> np.ndarray:
    """The (2N, m) array whose column k is the stacked form of vectors[k]."""
    return np.transpose([v.s for v in vectors])


def right_times(S: np.ndarray, z1, z2) -> np.ndarray:
    """Stacked vectors times q = z1 + j*z2 on the right: S z1 + J conj(S) z2.

    ``z1`` and ``z2`` broadcast over the columns of ``S``: one quaternion for
    all of them, or one per column (the halves of :func:`complex_pairs`).
    """
    return S * z1 + _times_j(S) * z2


def two_columns(S: np.ndarray) -> np.ndarray:
    """The complex columns [s_1, s_1 j, s_2, s_2 j, ...] of the stacked columns of S."""
    T = np.empty((S.shape[0], 2 * S.shape[1]), dtype=complex)
    T[:, 0::2] = S
    T[:, 1::2] = _times_j(S)
    return T


def line_residuals(U: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Relative distance of each column q of Q from the line through the
    matching column u of U, |q - P q| / |q|.

    u and u j = J conj(u) are orthogonal with equal norms, so the projection
    onto their span is P q = (u u* q + uj uj* q) / |u|^2.
    """
    Uj = _times_j(U)
    uu = np.sum(np.abs(U) ** 2, axis=0)
    R = Q - U * (np.sum(U.conj() * Q, axis=0) / uu) - Uj * (np.sum(Uj.conj() * Q, axis=0) / uu)
    return np.linalg.norm(R, axis=0) / np.maximum(np.linalg.norm(Q, axis=0), DIVISION_FLOOR)


# ---------------------------------------------------------------------------
# Hermitian space
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _form_perm(N: int) -> np.ndarray:
    """The form as one permutation.  H has ones at (0, N-1), (N-1, 0) and on the rest of
    the diagonal, and its embedding diag(H, H) at (k, perm[k]), so H X is X[perm] and X H
    is X[:, perm].  Read-only, one per dimension, shared by every space."""
    perm = np.arange(2 * N)
    perm[[0, N - 1, N, 2 * N - 1]] = [N - 1, 0, 2 * N - 1, N]
    perm.setflags(write=False)
    return perm


class HermitianSpace:
    """H^{n,1}: right quaternionic (n+1)-space with a signature-(n,1) form."""

    def __init__(self, n: int):
        if n < 1:
            raise InvalidSpecError("need n >= 1")
        self.n = n
        self.dim = n + 1
        self.perm = _form_perm(self.dim)

    def herm(self, z: HVector, w: HVector) -> Quaternion:
        """The form <z, w> = w* H z (conjugate-linear in w)."""
        if z.dim != self.dim or w.dim != self.dim:
            raise DimensionMismatchError("vector dimension does not match the space")
        M = two_columns(w.s[:, None]).conj().T[:, self.perm] @ two_columns(z.s[:, None])
        return Quaternion.from_complex_pair(M[0, 0], M[1, 0])

    def pairings(self, S: np.ndarray) -> np.ndarray:
        """(m, m, 4) components of <s_j, s_k> at [k, j] for the stacked (2N, m)
        columns of S: one product T* H S, as in :meth:`herm`, with H S the rows
        of S permuted, made exactly Hermitian, g[k, j] = conj(g[j, k]), as the form is."""
        if S.ndim != 2 or S.shape[0] != 2 * self.dim:
            raise DimensionMismatchError("vector dimension does not match the space")
        A = two_columns(S).conj().T @ S[self.perm]
        g = from_complex_pairs(A[0::2], A[1::2])
        return 0.5 * (g + qconj_array(g).transpose(1, 0, 2))

    def member_residual(self, A: HMatrix) -> float:
        """Frobenius norm of A* H A - H in the embedding."""
        M = A.emb
        D = M.conj().T[:, self.perm] @ M
        D.reshape(-1)[np.arange(0, D.size, len(D)) + self.perm] -= 1.0  # minus H, at (k, perm[k])
        return _norm(D) / math.sqrt(2.0)

    def is_member(self, A: HMatrix, tol: float = DEFAULT_TOL) -> bool:
        resid = self.member_residual(A)  # within tol needs no scale: max(1, |A|^2) >= 1
        return resid <= tol or resid <= tol * max(1.0, A.norm() ** 2)

    def project_to_group(self, A: HMatrix) -> HMatrix:
        """Generalized polar factor: Newton steps M -> (mu M + (mu M)^-⋆) / 2 with
        M^-⋆ = H M^-* H (H is its own inverse), mu = |det M|^(-1/2N) on the embedding;
        H is a permutation matrix, so H X H permutes the rows and columns of X.  A real
        span closed under M -> M^-⋆ holds every step, and t U goes to sign(t) U for a
        member U.  Stops at a step below NEWTON_STEP_RTOL (relative) or no shorter
        than the last; a caller that needs a member checks.  Singular A: NumericalError."""
        P, M, last = self.perm, A.emb, math.inf
        for _ in range(NEWTON_MAX_STEPS):
            sign, logdet = np.linalg.slogdet(M)
            if sign == 0:
                raise NumericalError("cannot take the polar factor of a singular matrix")
            mu = math.exp(-logdet / len(M))
            M_next = 0.5 * (mu * M + np.linalg.inv(M).conj().T[np.ix_(P, P)] / mu)
            step, M = _norm(M_next - M), M_next
            if step < NEWTON_STEP_RTOL * max(1.0, _norm(M)) or not step < last:
                break  # converged, at rounding level, or not converging (or not finite)
            last = step
        return HMatrix(M, check=False)

    def __repr__(self) -> str:
        return f"HermitianSpace(n={self.n})"


def point_types(self_pairings: np.ndarray, norms2: np.ndarray,
                tol: float = DEFAULT_TOL) -> list[PointType]:
    """Null when |<z,z>| <= tol |z|^2, else the sign of <z,z>, for vectors z
    given by their real self-pairings <z,z> and squared norms |z|^2."""
    if not norms2.all():
        raise ValueError("cannot classify the zero vector")
    null, neg = (np.abs(self_pairings) <= tol * norms2).tolist(), (self_pairings < 0).tolist()
    return [PointType.NULL if z else PointType.NEGATIVE if n else PointType.POSITIVE
            for z, n in zip(null, neg)]


# ---------------------------------------------------------------------------
# Characteristic polynomial
# ---------------------------------------------------------------------------

def class_char_coeffs(eigens: Sequence[EigenData],
                      tol: float = CHAR_COEFF_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Middle coefficients a_1 .. a_{2N-1} of the characteristic polynomial of
    each member's embedding, the product of (x^2 - 2 Re lam x + |lam|^2)^k over
    its classes (rep lam, multiplicity k), as rows; and where a row is
    palindromic within tol max(1, |a|): a defect signals an inaccurate spectrum."""
    reps = np.concatenate([e.reps for e in eigens]).repeat(
        np.concatenate([e.multiplicities for e in eigens])).reshape(len(eigens), -1).T
    coeffs = np.zeros((2 * len(reps) + 1, len(eigens)))
    coeffs[0] = 1.0
    for b, c in zip(-2.0 * reps.real, reps.real ** 2 + reps.imag ** 2):
        new = b * coeffs[:-1]  # times (x^2 + b x + c); the coefficients past the degree stay zero
        new += coeffs[1:]
        new[1:] += c * coeffs[:-2]
        coeffs[1:] = new
    full = coeffs.T[:, 1:-1]
    bound = tol * np.maximum(1.0, np.abs(full).max(axis=1))
    return full, np.abs(full - full[:, ::-1]).max(axis=1) <= bound


# ---------------------------------------------------------------------------
# Right-eigenvalue decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)  # arrays have no single truth value: equality is identity
class EigenData:
    """The similarity classes of right eigenvalues in frame order (expanding
    null, negative, positive, contracting null, by angle within each), as
    arrays: their representatives ``reps`` (angle folded into [0, pi]),
    ``multiplicities`` and ``kinds``, and the stacked (2N, N)
    ``vectors`` of their pinned eigensets, class after class, so that A x =
    x * reps[k] for every column x of class k.  The arrays are read-only;
    the classes' moduli, angles and first columns are tuples made at
    construction."""

    reps: np.ndarray
    multiplicities: np.ndarray
    kinds: tuple[PointType, ...]
    vectors: np.ndarray
    moduli: tuple[float, ...] = field(init=False)
    angles: tuple[float, ...] = field(init=False)
    starts: tuple[int, ...] = field(init=False)  # class k: columns starts[k]:starts[k + 1]

    def __post_init__(self) -> None:
        for a in (self.reps, self.multiplicities, self.vectors):
            a.setflags(write=False)
        reps = self.reps.tolist()
        object.__setattr__(self, "moduli", tuple([abs(r) for r in reps]))
        object.__setattr__(self, "angles", tuple([math.atan2(r.imag, r.real) for r in reps]))
        object.__setattr__(self, "starts", (0, *accumulate(self.multiplicities.tolist())))


def nullspace(M: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical null space."""
    # a tall M has every right singular vector in its thin SVD
    _, s, Vh = np.linalg.svd(M, full_matrices=M.shape[0] <= M.shape[1])
    if s.size == 0:
        return np.eye(M.shape[1], dtype=complex)
    cutoff = rtol * max(s[0], 1.0)
    rank = int((s > cutoff).sum())
    return Vh[rank:].conj().T


def matrix_rank(M: np.ndarray, rtol: float = RANK_RTOL) -> "int | np.ndarray":
    """Numerical rank of M, or of each matrix of a stack (..., a, b) at its own cutoff."""
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0:
        return 0
    return np.sum(s > rtol * np.maximum(s[..., :1], 1.0), axis=-1)


def quaternionic_basis(columns: np.ndarray, expected: int) -> np.ndarray:
    """Extract a quaternionic basis from a J-closed complex subspace.

    ``columns`` spans a complex subspace of C^{2N} closed under s -> J conj(s)
    of dimension 2*expected; the result is the (2N, expected) stacked columns
    of vectors whose quaternionic span is the subspace.
    """
    Q, _ = np.linalg.qr(columns)
    out: list[np.ndarray] = []
    remaining = Q
    for _ in range(expected):
        if remaining.shape[1] == 0:
            raise NumericalError("subspace was not J-closed of the expected dimension")
        out.append(remaining[:, 0])
        # remove the quaternionic line span{s, s*j} and re-orthonormalize
        basis = two_columns(remaining[:, :1])
        proj = remaining - basis @ (basis.conj().T @ remaining)
        U, sv, _ = np.linalg.svd(proj, full_matrices=False)
        remaining = U[:, sv > BASIS_RANK_RTOL * max(1.0, sv[0] if sv.size else 1.0)]
    return np.stack(out, axis=1)


def _links(eigs: np.ndarray) -> np.ndarray:
    """links[..., a, b] for a < b: the folded points (imaginary part made
    nonnegative) of eigenvalues a and b lie closer than CLUSTER_RTOL *
    max(1, |eig_a|), for the eigenvalues on the last axis of ``eigs``."""
    re, im = eigs.real, np.abs(eigs.imag)
    dx, dy = re[..., :, None] - re[..., None, :], im[..., :, None] - im[..., None, :]
    near = np.sqrt(dx * dx + dy * dy) < CLUSTER_RTOL * np.maximum(1.0, np.abs(eigs))[..., None]
    index = np.arange(eigs.shape[-1])
    return near & (index[:, None] < index)


def _clusters(links: np.ndarray) -> list[list[int]]:
    """The connected components of one spectrum's links, as index lists
    ordered by first index: the conjugation-closed eigenvalue clusters."""
    reach = links | links.T | np.eye(len(links), dtype=bool)
    for _ in range(len(links).bit_length()):  # paths of up to 2**steps links
        reach = reach @ reach
    first = reach.argmax(axis=1).tolist()  # the first index of each component
    return [[k for k, f in enumerate(first) if f == i] for i in sorted(set(first))]


def right_eigen(A: "HMatrix | Sequence[HMatrix]", space: HermitianSpace,
                tol: float = DEFAULT_TOL) -> "EigenData | list[EigenData | QhypError]":
    """Similarity classes of right eigenvalues with pinned eigenvectors and types.

    One ``eig`` of the embedding gives the spectrum and the eigenvector of
    every simple class (a cluster of two embedding eigenvalues), all of which
    are typed and normalized in one array pass: the rep is the mean of the
    folded pair, the vector eig's column of the member with the larger
    imaginary part, null when |<v,v>| <= tol max(1, |v|^2) and otherwise
    scaled to <v,v> = +-1.  A simple class cannot be defective: a nonreal rep
    is a simple eigenvalue of the embedding, and a real rep has a J-closed
    eigenspace, which holds both v and J conj(v).  A repeated class is
    recovered from the null space of (embedding - rep*I), whose dimension
    rejects non-semisimple input; eig's vectors for a Jordan block are only
    about sqrt(eps) apart, too close to the rank threshold to test.  Within a
    class the basis is orthonormalized against the restricted form: positive
    classes to unit vectors, the negative class to one negative and the rest
    unit.

    A sequence of matrices on ``space`` takes one stacked ``eig`` and the same
    array pass over all their simple classes, and gives each member's
    EigenData or the error its decomposition raised.  A single matrix is a
    stack of one, whose error is raised.
    """
    if isinstance(A, HMatrix):
        data, = right_eigen([A], space, tol)
        if isinstance(data, QhypError):
            raise data
        return data
    mats = np.array([M.emb for M in A])
    spectra, V = np.linalg.eig(mats)
    links = _links(spectra)
    single = (links | links.swapaxes(1, 2)).sum(axis=2) == 1  # linked to one other eigenvalue
    regular = single.all(axis=1)  # every cluster a pair
    clusters = [(k, idx) for k in (~regular).nonzero()[0].tolist() for idx in _clusters(links[k])]
    # rows (k, a, b): the clusters of two, a and b linked and to nothing else
    pairs = np.array((links & single[:, :, None] & single[:, None, :]).nonzero()).T
    owner, P = pairs[:, 0], pairs[:, 1:]
    lam = spectra[owner[:, None], P]
    re, im = lam.real.sum(axis=1) / 2, np.abs(lam.imag).sum(axis=1) / 2
    S = V[owner, :, np.where(lam.imag[:, 1] > lam.imag[:, 0], P[:, 1], P[:, 0])].T.copy()
    vals = _self_pairings(space, S)
    null = np.abs(vals) <= tol * np.maximum(1.0, np.linalg.norm(S, axis=0) ** 2)
    np.divide(S, np.sqrt(np.abs(vals)), out=S, where=~null)
    kinds = [PointType.NULL if z else PointType.NEGATIVE if v < 0 else PointType.POSITIVE
             for z, v in zip(null.tolist(), vals.tolist())]
    # the classes in chunks: member, rep, multiplicity, kind, stacked vectors
    classes = ([owner], [_class_reps(re, im)], [np.ones(len(P), int)], [kinds], [S])
    errors: dict[int, QhypError] = {}
    for k, idx in clusters:
        if len(idx) == 2 or k in errors:
            continue
        try:
            if len(idx) % 2 != 0:
                raise NumericalError("eigenvalue cluster of odd size; clustering failed")
            rep = _class_reps(spectra[k, idx].real.mean(), np.abs(spectra[k, idx].imag).mean())
            kind, B = _type_and_normalize(
                space, _eigenspace_basis(mats[k], rep, len(idx) // 2), rep, tol)
            for column, x in zip(classes, ([k], [rep], [len(idx) // 2], [kind], B)):
                column.append(x)
        except QhypError as exc:
            errors[k] = exc
    data = _eigen_data(space, len(mats),
                       *(c[0] if len(c) == 1 else np.concatenate(c, -1) for c in classes))
    return [errors[k] if k in errors else data[k] for k in range(len(mats))]


def _class_reps(re: "np.ndarray | float", im: "np.ndarray | float") -> "np.ndarray | complex":
    """The class representatives re + i im, made real where im is within CLUSTER_RTOL."""
    return re + 1j * np.where(im <= CLUSTER_RTOL * np.maximum(1.0, np.hypot(re, im)), 0.0, im)


def _eigen_data(space: HermitianSpace, count: int, member: np.ndarray, reps: np.ndarray,
                mults: np.ndarray, kinds: Sequence[PointType], V: np.ndarray) -> dict:
    """member -> EigenData, or its error, from the class arrays of ``count`` stack members (V:
    their vectors, class after class): every member's classes sorted into frame order in one
    pass, the hyperbolic members' null pairs rescaled in one."""
    moduli = np.hypot(reps.real, reps.imag)  # abs(rep), bit for bit
    # frame order: expanding null (rank 0), negative, positive, contracting null (3), by angle
    rank = [{PointType.NEGATIVE: 1, PointType.POSITIVE: 2}.get(kind, 0 if m > 1.0 else 3)
            for kind, m in zip(kinds, moduli.tolist())]
    order = np.lexsort((np.arctan2(reps.imag, reps.real), rank, member))
    start, order_list = [0, *accumulate(mults.tolist())], order.tolist()  # before the sort
    V = V[:, [j for c in order_list for j in range(start[c], start[c + 1])]]
    member, reps, mults = member[order], reps[order], mults[order]
    lo = member.searchsorted(np.arange(count + 1)).tolist()  # member k: lo[k]:lo[k + 1]
    first = [0, *accumulate(mults.tolist())]  # class c: columns first[c]:first[c + 1]
    kinds, moduli = [kinds[c] for c in order_list], moduli[order].tolist()
    out, nulls = {}, []  # nulls: (member, column of a, column of r) of the pairs to rescale
    for k, (lo_k, hi_k) in enumerate(zip(lo, lo[1:])):
        kk = kinds[lo_k:hi_k]
        if first[hi_k] - first[lo_k] != len(V) // 2:
            out[k] = NumericalError("class multiplicities do not sum to the dimension")
        elif kk.count(PointType.NULL) == 2:  # big, small
            a, r = (lo_k + i for i, kind in enumerate(kk) if kind is PointType.NULL)
            if abs(moduli[a] - 1.0) >= UNIT_MODULUS_TOL:
                nulls.append((k, first[a], first[r]))
    for (k, _, _), zero in zip(nulls, _rescale_null_pairs(space, V, nulls)):
        if zero:
            out[k] = NumericalError("null eigenvectors pair to zero")
    for k, (lo_k, hi_k) in enumerate(zip(lo, lo[1:])):
        if k not in out and lo_k < hi_k:
            out[k] = EigenData(reps[lo_k:hi_k], mults[lo_k:hi_k], tuple(kinds[lo_k:hi_k]),
                               V[:, first[lo_k]:first[hi_k]])
    return out


def _rescale_null_pairs(space: HermitianSpace, V: np.ndarray, pairs: list) -> list[bool]:
    """Rescale each attracting/repelling null pair a = V[:, ia], r = V[:, ir], (member, ia,
    ir) in ``pairs``, to <a, r> = 1 in place; True where <a, r> = 0 (columns left unread)."""
    if not pairs:
        return []
    _, ia, ir = np.array(pairs).T
    a, r, N = V[:, ia], V[:, ir], len(V) // 2
    # <a, r> = h[p, 0] + j h[p, 1], from the product [r, r j]* a[perm] of each pair
    T = np.empty((len(pairs), 2 * N, 2), dtype=complex)
    T[:, :, 0], T[:, :N, 1], T[:, N:, 1] = r.T.conj(), -r[N:].T, r[:N].T
    h = (T.swapaxes(1, 2) @ np.ascontiguousarray(a[space.perm].T)[..., None])[..., 0]
    hn = [_norm(x) for x in h]
    # a / sqrt(hn) and r nu sqrt(hn) with conj(nu) = h^-1 pair to one
    z = h * np.array([x and math.sqrt(x) / (x * x) for x in hn])[:, None]
    V[:, ia] = a * np.array([x and 1.0 / math.sqrt(x) for x in hn])
    V[:, ir] = right_times(r, z[:, 0], z[:, 1])
    return [x == 0.0 for x in hn]


def _eigenspace_basis(M: np.ndarray, rep: complex, mult: int) -> np.ndarray:
    """Stacked basis (columns) of a repeated class, or NotSemisimpleError."""
    ns = nullspace(M - rep * np.eye(M.shape[0]))
    expected = 2 * mult if rep.imag == 0.0 else mult
    if ns.shape[1] < expected:
        raise NotSemisimpleError(
            f"geometric multiplicity {ns.shape[1]} < algebraic {expected} "
            f"for eigenvalue {rep:.6g}")
    if ns.shape[1] > expected:
        raise NumericalError("eigenvalue clusters overlap; cannot separate classes")
    if rep.imag == 0.0:
        return quaternionic_basis(ns, mult)
    return ns


def _form_blocks(space: HermitianSpace, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The form on the span of the stacked columns S, g[r, c] = <s_c, s_r> = G1 + j*G2,
    as one product [G1; G2] = T* H S with T = [S, J conj(S)]."""
    G = np.concatenate([S, _times_j(S)], axis=1).conj().T[:, space.perm] @ S
    return G[:S.shape[1]], G[S.shape[1]:]


def _form_gram(space: HermitianSpace, S: np.ndarray) -> np.ndarray:
    """Complex embedding of the restricted form (exactly J-structured)."""
    G1, G2 = _form_blocks(space, S)
    return np.block([[G1, -np.conj(G2)], [G2, np.conj(G1)]])


def _self_pairings(space: HermitianSpace, B: np.ndarray) -> np.ndarray:
    """Re <b, b> for a stacked vector b, or for every column b of B."""
    return np.einsum("i...,i...->...", B.conj(), B[space.perm]).real


def _type_and_normalize(space: HermitianSpace, S: np.ndarray, rep: complex,
                        tol: float) -> tuple[PointType, np.ndarray]:
    """Classify a repeated class's eigenspace (stacked basis S, two columns
    or more) by its restricted form and orthonormalize it: the kind and the
    stacked basis.

    Recombination must not unpin the vectors from ``rep``: for a nonreal
    representative the restricted form takes values in its centralizer, i.e.
    is complex Hermitian, and complex-unitary combinations are the allowed
    ones.  For a real representative any quaternionic combination is safe.
    """
    if rep.imag == 0.0:
        eigs, U = np.linalg.eigh(_form_gram(space, S))
        scale = max(1.0, float(np.max(np.abs(eigs))))
        if int(np.sum(np.abs(eigs) > tol * scale)) == 0:
            return PointType.NULL, S
        basis, signs = _form_orthonormal(space, S, eigs, U)
        return (PointType.NEGATIVE if -1 in signs else PointType.POSITIVE), basis

    G1, G2 = _form_blocks(space, S)
    if np.any(np.abs(G2) > CENTRALIZER_RTOL * np.maximum(1.0, np.hypot(np.abs(G1), np.abs(G2)))):
        raise NumericalError("restricted form is not centralizer-valued")
    eigs, U = np.linalg.eigh(G1)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    n_neg = int(np.sum(eigs < -tol * scale))
    n_pos = int(np.sum(eigs > tol * scale))
    if n_neg == 0 and n_pos == 0:
        return PointType.NULL, S
    if n_neg > 1:
        raise NumericalError("eigenspace with two negative directions is impossible")
    B = S @ U[:, np.argsort(eigs)]  # negative direction first
    B = B / np.sqrt(np.abs(_self_pairings(space, B)))
    return (PointType.NEGATIVE if n_neg else PointType.POSITIVE), B


# ---------------------------------------------------------------------------
# Orthogonalization against the form
# ---------------------------------------------------------------------------

def orthonormal_form_basis(space: HermitianSpace,
                           S: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Diagonalize the restricted form on the span of the stacked columns of S:
    basis with <v,v> = +-1.

    Returns the basis as stacked columns (negative directions first) and the
    matching sign list.  The restriction must be nondegenerate.
    """
    eigs, U = np.linalg.eigh(_form_gram(space, S))
    return _form_orthonormal(space, S, eigs, U)


def _form_orthonormal(space: HermitianSpace, S: np.ndarray, eigs: np.ndarray,
                      U: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Form-orthonormal basis of span(S) from the eigh of its restricted-form embedding."""
    scale = max(1.0, float(np.max(np.abs(eigs))))
    if np.min(np.abs(eigs)) < FORM_DEGENERACY_RTOL * scale:
        raise NumericalError("restricted form is degenerate on the span")

    # a coefficient vector c in H^m (stacked) combines the columns as T c
    T = np.concatenate([S, _times_j(S)], axis=1)
    order = np.argsort(eigs)  # negatives first
    out: list[np.ndarray] = []
    signs: list[int] = []
    for group, sign in ((order[eigs[order] < 0], -1), (order[eigs[order] > 0], 1)):
        if not group.size:
            continue
        for cv in quaternionic_basis(U[:, group], len(group) // 2).T:
            v = T @ cv
            val = _self_pairings(space, v)
            if (val < 0) != (sign < 0):
                raise NumericalError("sign bookkeeping failed in diagonalization")
            out.append(v / math.sqrt(abs(val)))
            signs.append(sign)
    # re-orthogonalize residual cross terms (one Gram-Schmidt sweep)
    return _polish_orthogonality(space, out, signs), signs


def _polish_orthogonality(space: HermitianSpace, basis: list[np.ndarray],
                          signs: list[int]) -> np.ndarray:
    out: list[np.ndarray] = []
    for v in basis:
        w = v
        for u, su in zip(out, signs):
            # w - u * <w, u> su; u2* H kept C-ordered, as an F-ordered one takes another gemv
            u2 = two_columns(u[:, None])
            w = w - su * (u2 @ (np.ascontiguousarray(u2.conj().T[:, space.perm]) @ w))
        out.append(w / math.sqrt(abs(_self_pairings(space, w))))
    return np.stack(out, axis=1)

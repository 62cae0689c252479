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
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    GramSchmidtError,
    NotSemisimpleError,
    NumericalError,
)
from .quaternion import DEFAULT_TOL, Quaternion, SimilarityClass

#: eigenvalues closer than this (relative) are one similarity class
CLUSTER_RTOL = 1e-7
#: relative singular-value threshold for rank decisions
RANK_RTOL = 1e-8


class PointType(Enum):
    NEGATIVE = "negative"
    NULL = "null"
    POSITIVE = "positive"


def _j_mat(N: int) -> np.ndarray:
    J = np.zeros((2 * N, 2 * N))
    J[:N, N:] = -np.eye(N)
    J[N:, :N] = np.eye(N)
    return J


def _times_j(s: np.ndarray) -> np.ndarray:
    """Stacked form of x*j: (x1; x2) -> (-conj(x2); conj(x1))."""
    N = s.shape[0] // 2
    return np.concatenate([-np.conj(s[N:]), np.conj(s[:N])])


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

    @staticmethod
    def from_quaternions(entries: Sequence[Quaternion]) -> "HVector":
        pairs = [q.complex_pair() for q in entries]
        return HVector(np.array([p[0] for p in pairs] + [p[1] for p in pairs]))

    def entries(self) -> list[Quaternion]:
        N = self.dim
        return [Quaternion.from_complex_pair(self.s[k], self.s[N + k]) for k in range(N)]

    def entry(self, k: int) -> Quaternion:
        return Quaternion.from_complex_pair(self.s[k], self.s[self.dim + k])

    def times(self, q: "Quaternion | complex | float") -> "HVector":
        """Right scalar action v -> v*q."""
        if isinstance(q, Quaternion):
            z1, z2 = q.complex_pair()
            return HVector(self.s * z1 + _times_j(self.s) * z2)
        return HVector(self.s * q)

    def times_j(self) -> "HVector":
        return HVector(_times_j(self.s))

    def __add__(self, other: "HVector") -> "HVector":
        return HVector(self.s + other.s)

    def __sub__(self, other: "HVector") -> "HVector":
        return HVector(self.s - other.s)

    def __neg__(self) -> "HVector":
        return HVector(-self.s)

    def norm(self) -> float:
        return float(np.linalg.norm(self.s))

    def two_column(self) -> np.ndarray:
        """Full 2N x 2 embedding [s, J conj(s)] of the column vector."""
        return np.stack([self.s, _times_j(self.s)], axis=1)

    def copy(self) -> "HVector":
        return HVector(self.s.copy())

    def __repr__(self) -> str:
        return f"HVector({self.entries()!r})"


class HMatrix:
    """Square quaternionic matrix stored by its complex embedding."""

    __slots__ = ("emb",)

    def __init__(self, emb: np.ndarray, check: bool = True):
        emb = np.asarray(emb, dtype=complex)
        if emb.ndim != 2 or emb.shape[0] != emb.shape[1] or emb.shape[0] % 2 != 0:
            raise DimensionMismatchError("embedding must be square with even size")
        if check:
            N = emb.shape[0] // 2
            J = _j_mat(N)
            drift = np.linalg.norm(J @ np.conj(emb) - emb @ J)
            if drift > 1e-9 * max(1.0, np.linalg.norm(emb)):
                raise NumericalError("matrix does not have quaternionic J-structure")
        self.emb = emb

    @property
    def dim(self) -> int:
        return self.emb.shape[0] // 2

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_quaternions(grid: Sequence[Sequence[Quaternion]]) -> "HMatrix":
        N = len(grid)
        A1 = np.empty((N, N), dtype=complex)
        A2 = np.empty((N, N), dtype=complex)
        for r, row in enumerate(grid):
            if len(row) != N:
                raise DimensionMismatchError("grid must be square")
            for c, q in enumerate(row):
                A1[r, c], A2[r, c] = q.complex_pair()
        emb = np.block([[A1, -np.conj(A2)], [A2, np.conj(A1)]])
        return HMatrix(emb, check=False)

    @staticmethod
    def identity(N: int) -> "HMatrix":
        return HMatrix(np.eye(2 * N, dtype=complex), check=False)

    @staticmethod
    def diag_complex(values: Sequence[complex]) -> "HMatrix":
        v = np.asarray(values, dtype=complex)
        return HMatrix(np.diag(np.concatenate([v, np.conj(v)])), check=False)

    @staticmethod
    def from_columns(cols: Sequence[HVector]) -> "HMatrix":
        N = cols[0].dim
        if len(cols) != N:
            raise DimensionMismatchError("need exactly dim columns")
        emb = np.empty((2 * N, 2 * N), dtype=complex)
        for k, c in enumerate(cols):
            tc = c.two_column()
            emb[:, k] = tc[:, 0]
            emb[:, N + k] = tc[:, 1]
        return HMatrix(emb, check=False)

    # -- access ------------------------------------------------------------

    def entry(self, r: int, c: int) -> Quaternion:
        N = self.dim
        return Quaternion.from_complex_pair(self.emb[r, c], self.emb[N + r, c])

    def to_grid(self) -> list[list[Quaternion]]:
        N = self.dim
        return [[self.entry(r, c) for c in range(N)] for r in range(N)]

    def column(self, k: int) -> HVector:
        N = self.dim
        return HVector(np.concatenate([self.emb[:N, k], self.emb[N:, k]]))

    # -- algebra -----------------------------------------------------------

    def __matmul__(self, other: "HMatrix | HVector") -> "HMatrix | HVector":
        if isinstance(other, HVector):
            return self.apply(other)
        return HMatrix(self.emb @ other.emb, check=False)

    def apply(self, v: HVector) -> HVector:
        return HVector(self.emb @ v.s)

    def star(self) -> "HMatrix":
        """Quaternionic conjugate transpose."""
        return HMatrix(self.emb.conj().T, check=False)

    def inverse(self) -> "HMatrix":
        return HMatrix(np.linalg.inv(self.emb), check=False)

    def scale(self, x: float) -> "HMatrix":
        return HMatrix(self.emb * x, check=False)

    def __add__(self, other: "HMatrix") -> "HMatrix":
        return HMatrix(self.emb + other.emb, check=False)

    def __sub__(self, other: "HMatrix") -> "HMatrix":
        return HMatrix(self.emb - other.emb, check=False)

    def norm(self) -> float:
        """Quaternionic Frobenius norm (the embedding doubles the square)."""
        return float(np.linalg.norm(self.emb)) / math.sqrt(2.0)

    def cond(self) -> float:
        return float(np.linalg.cond(self.emb))

    def copy(self) -> "HMatrix":
        return HMatrix(self.emb.copy(), check=False)

    def __repr__(self) -> str:
        return f"HMatrix(dim={self.dim})"


def complex_embed(A: HMatrix) -> np.ndarray:
    """The 2(n+1) complex representation of a quaternionic matrix."""
    return A.emb.copy()


# ---------------------------------------------------------------------------
# Hermitian space
# ---------------------------------------------------------------------------

def corner_form(N: int) -> np.ndarray:
    """Anti-diagonal-corner Hermitian form: ones at (0, N-1), (N-1, 0), identity middle."""
    H = np.zeros((N, N))
    H[0, N - 1] = 1.0
    H[N - 1, 0] = 1.0
    if N > 2:
        H[1:N - 1, 1:N - 1] = np.eye(N - 2)
    return H


class HermitianSpace:
    """H^{n,1}: right quaternionic (n+1)-space with a signature-(n,1) form."""

    def __init__(self, n: int, form: Optional[np.ndarray] = None):
        if n < 1:
            raise ValueError("need n >= 1")
        self.n = n
        self.dim = n + 1
        H = corner_form(self.dim) if form is None else np.asarray(form, dtype=float)
        if H.shape != (self.dim, self.dim) or np.linalg.norm(H - H.T) > 1e-12:
            raise ValueError("form must be a real symmetric (n+1) x (n+1) matrix")
        eigs = np.linalg.eigvalsh(H)
        if np.sum(eigs > 0) != n or np.sum(eigs < 0) != 1:
            raise ValueError("form must have signature (n, 1)")
        self.H = H
        self.H_emb = np.zeros((2 * self.dim, 2 * self.dim), dtype=complex)
        self.H_emb[:self.dim, :self.dim] = H
        self.H_emb[self.dim:, self.dim:] = H

    def herm(self, z: HVector, w: HVector) -> Quaternion:
        """The form <z, w> = w* H z (conjugate-linear in w)."""
        if z.dim != self.dim or w.dim != self.dim:
            raise DimensionMismatchError("vector dimension does not match the space")
        M = w.two_column().conj().T @ self.H_emb @ z.two_column()
        return Quaternion.from_complex_pair(M[0, 0], M[1, 0])

    def classify_vector(self, z: HVector, tol: float = DEFAULT_TOL) -> PointType:
        nz = z.norm()
        if nz == 0.0:
            raise ValueError("cannot classify the zero vector")
        val = self.herm(z, z).re
        if abs(val) <= tol * nz * nz:
            return PointType.NULL
        return PointType.NEGATIVE if val < 0 else PointType.POSITIVE

    def member_residual(self, A: HMatrix) -> float:
        """Frobenius norm of A* H A - H in the embedding."""
        M = A.emb
        return float(np.linalg.norm(M.conj().T @ self.H_emb @ M - self.H_emb)) / math.sqrt(2.0)

    def is_member(self, A: HMatrix, tol: float = DEFAULT_TOL) -> bool:
        return self.member_residual(A) <= tol * max(1.0, A.norm() ** 2)

    def project_to_group(self, A: HMatrix, iters: int = 5) -> HMatrix:
        """Polish an approximate member: average with H^-1 A^-* H (Newton step)."""
        Hc = self.H_emb
        Hinv = np.linalg.inv(Hc)
        M = A.emb.copy()
        for _ in range(iters):
            phi = Hinv @ np.linalg.inv(M).conj().T @ Hc
            M_next = 0.5 * (M + phi)
            if np.linalg.norm(M_next - M) < 1e-15 * max(1.0, np.linalg.norm(M)):
                M = M_next
                break
            M = M_next
        return HMatrix(M, check=False)

    def __repr__(self) -> str:
        return f"HermitianSpace(n={self.n})"


# ---------------------------------------------------------------------------
# Characteristic polynomial
# ---------------------------------------------------------------------------

def char_poly_real_coeffs(A: HMatrix, tol: float = 1e-9) -> np.ndarray:
    """Middle coefficients (a_1 .. a_{2n+1}) of the embedding's characteristic polynomial.

    The leading and trailing coefficients are 1 and are dropped.  Imaginary
    parts must vanish and the sequence must be palindromic; a violation
    signals a non-member or a numerical failure.
    """
    eigs = np.linalg.eigvals(A.emb)
    coeffs = np.poly(eigs)  # length 2N+1, coeffs[0] == 1
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    if np.max(np.abs(coeffs.imag)) > tol * scale:
        raise NumericalError("characteristic coefficients have imaginary residue")
    real = coeffs.real
    full = real[1:-1]
    if np.max(np.abs(full - full[::-1])) > max(tol, 1e-9) * scale:
        raise NumericalError("characteristic coefficients are not palindromic")
    return full


# ---------------------------------------------------------------------------
# Right-eigenvalue decomposition
# ---------------------------------------------------------------------------

@dataclass
class EigenClass:
    """One similarity class of right eigenvalues with its pinned eigenset basis.

    Every vector satisfies A x = x * rep for the stored complex representative
    (angle folded into [0, pi]).
    """

    rep: complex
    multiplicity: int
    kind: PointType
    vectors: list[HVector]

    @property
    def modulus(self) -> float:
        return abs(self.rep)

    @property
    def angle(self) -> float:
        return math.atan2(self.rep.imag, self.rep.real)

    def is_real(self, tol: float = DEFAULT_TOL) -> bool:
        return abs(self.rep.imag) <= tol * max(1.0, abs(self.rep))

    def similarity_class(self) -> SimilarityClass:
        return SimilarityClass.from_complex(self.rep)


@dataclass
class EigenData:
    classes: list[EigenClass]

    def total_multiplicity(self) -> int:
        return sum(c.multiplicity for c in self.classes)

    def find(self, rep: complex, tol: float = 1e-6) -> Optional[EigenClass]:
        target = SimilarityClass.from_complex(rep)
        for c in self.classes:
            if c.similarity_class().matches(target, tol):
                return c
        return None


def nullspace(M: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical null space."""
    U, s, Vh = np.linalg.svd(M)
    if s.size == 0:
        return np.eye(M.shape[1], dtype=complex)
    cutoff = rtol * max(s[0], 1.0)
    rank = int(np.sum(s > cutoff))
    return Vh[rank:].conj().T


def matrix_rank(M: np.ndarray, rtol: float = RANK_RTOL) -> int:
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0:
        return 0
    return int(np.sum(s > rtol * max(s[0], 1.0)))


def quaternionic_basis(columns: np.ndarray, expected: int) -> list[HVector]:
    """Extract a quaternionic basis from a J-closed complex subspace.

    ``columns`` spans a complex subspace of C^{2N} closed under s -> J conj(s)
    of dimension 2*expected; the result is ``expected`` vectors whose
    quaternionic span is the subspace.
    """
    Q, _ = np.linalg.qr(columns)
    out: list[HVector] = []
    remaining = Q
    for _ in range(expected):
        if remaining.shape[1] == 0:
            raise NumericalError("subspace was not J-closed of the expected dimension")
        s = remaining[:, 0]
        sj = _times_j(s)
        out.append(HVector(s))
        # remove the quaternionic line span{s, s*j} and re-orthonormalize
        basis = np.stack([s, sj], axis=1)
        proj = remaining - basis @ (basis.conj().T @ remaining)
        U, sv, _ = np.linalg.svd(proj, full_matrices=False)
        remaining = U[:, sv > 1e-10 * max(1.0, sv[0] if sv.size else 1.0)]
    return out


def _cluster_eigenvalues(eigs: np.ndarray, rtol: float = CLUSTER_RTOL) -> list[np.ndarray]:
    """Group embedding eigenvalues into conjugation-closed clusters."""
    folded = np.stack([eigs.real, np.abs(eigs.imag)], axis=1)
    K = len(eigs)
    parent = list(range(K))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in range(K):
        for b in range(a + 1, K):
            scale = max(1.0, abs(eigs[a]))
            if np.linalg.norm(folded[a] - folded[b]) < rtol * scale:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for a in range(K):
        groups.setdefault(find(a), []).append(a)
    return [eigs[idx] for idx in groups.values()]


def right_eigen(A: HMatrix, space: HermitianSpace, tol: float = DEFAULT_TOL) -> EigenData:
    """Similarity classes of right eigenvalues with pinned eigenvectors and types.

    Rejects non-semisimple input.  Eigenvectors are recovered from the null
    space of (embedding - rep*I), so each one satisfies the right-eigen
    equation with the canonical class representative.  Within a class the
    basis is orthonormalized against the restricted form: positive classes
    to unit vectors, the negative class to one negative and the rest unit.
    """
    M = A.emb
    N = A.dim
    eig_raw = np.linalg.eigvals(M)
    clusters = _cluster_eigenvalues(eig_raw)

    classes: list[EigenClass] = []
    for cluster in clusters:
        size = len(cluster)
        if size % 2 != 0:
            raise NumericalError("eigenvalue cluster of odd size; clustering failed")
        mult = size // 2
        re = float(np.mean(cluster.real))
        im = float(np.mean(np.abs(cluster.imag)))
        rep = complex(re, im)
        if im <= CLUSTER_RTOL * max(1.0, abs(rep)):
            rep = complex(re, 0.0)

        shifted = M - rep * np.eye(2 * N)
        ns = nullspace(shifted)
        expected = 2 * mult if rep.imag == 0.0 else mult
        if ns.shape[1] < expected:
            raise NotSemisimpleError(
                f"geometric multiplicity {ns.shape[1]} < algebraic {expected} "
                f"for eigenvalue {rep:.6g}")
        if ns.shape[1] > expected:
            raise NumericalError("eigenvalue clusters overlap; cannot separate classes")

        if rep.imag == 0.0:
            vectors = quaternionic_basis(ns, mult)
        else:
            vectors = [HVector(ns[:, k]) for k in range(mult)]

        kind, vectors = _type_and_normalize(space, vectors, rep, tol)
        classes.append(EigenClass(rep, mult, kind, vectors))

    data = EigenData(sorted(classes, key=lambda c: (-c.modulus, c.angle)))
    if data.total_multiplicity() != N:
        raise NumericalError("class multiplicities do not sum to the dimension")
    _normalize_null_pair(space, data)
    return data


def _type_and_normalize(space: HermitianSpace, vectors: list[HVector], rep: complex,
                        tol: float) -> tuple[PointType, list[HVector]]:
    """Classify an eigenspace by its restricted form and orthonormalize it.

    Recombination must not unpin the vectors from ``rep``: for a nonreal
    representative the restricted form takes values in its centralizer, i.e.
    is complex Hermitian, and complex-unitary combinations are the allowed
    ones.  For a real representative any quaternionic combination is safe.
    """
    m = len(vectors)
    if m == 1:
        val = space.herm(vectors[0], vectors[0]).re
        scale = max(1.0, vectors[0].norm() ** 2)
        if abs(val) <= tol * scale:
            return PointType.NULL, vectors
        v = vectors[0].times(1.0 / math.sqrt(abs(val)))
        return (PointType.NEGATIVE if val < 0 else PointType.POSITIVE), [v]

    if rep.imag == 0.0:
        grid = [[space.herm(vectors[c], vectors[r]) for c in range(m)] for r in range(m)]
        eigs = np.linalg.eigvalsh(HMatrix.from_quaternions(grid).emb)
        scale = max(1.0, float(np.max(np.abs(eigs))))
        if int(np.sum(np.abs(eigs) > tol * scale)) == 0:
            return PointType.NULL, vectors
        basis, signs = orthonormal_form_basis(space, vectors)
        return (PointType.NEGATIVE if -1 in signs else PointType.POSITIVE), basis

    G = np.empty((m, m), dtype=complex)
    for r in range(m):
        for c in range(m):
            q = space.herm(vectors[c], vectors[r])
            z1, z2 = q.complex_pair()
            if abs(z2) > 1e-7 * max(1.0, q.norm()):
                raise NumericalError("restricted form is not centralizer-valued")
            G[r, c] = z1
    eigs, U = np.linalg.eigh(G)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    n_neg = int(np.sum(eigs < -tol * scale))
    n_pos = int(np.sum(eigs > tol * scale))
    if n_neg == 0 and n_pos == 0:
        return PointType.NULL, vectors
    if n_neg > 1:
        raise NumericalError("eigenspace with two negative directions is impossible")
    order = np.argsort(eigs)  # negative direction first
    basis: list[HVector] = []
    for col in order:
        v = vectors[0].times(complex(U[0, col]))
        for k in range(1, m):
            v = v + vectors[k].times(complex(U[k, col]))
        val = space.herm(v, v).re
        basis.append(v.times(1.0 / math.sqrt(abs(val))))
    return (PointType.NEGATIVE if n_neg else PointType.POSITIVE), basis


def _normalize_null_pair(space: HermitianSpace, data: EigenData) -> None:
    """Scale the attracting/repelling null pair of a hyperbolic element so <a, r> = 1."""
    nulls = [c for c in data.classes if c.kind == PointType.NULL]
    if len(nulls) != 2:
        return
    big = max(nulls, key=lambda c: c.modulus)
    small = min(nulls, key=lambda c: c.modulus)
    if abs(big.modulus - 1.0) < 1e-12:
        return
    a, r = big.vectors[0], small.vectors[0]
    h = space.herm(a, r)  # pairing lies in the centralizer of the eigenvalue
    if h.norm() == 0.0:
        raise NumericalError("null eigenvectors pair to zero")
    hn = h.norm()
    nu = h * (1.0 / (hn * hn))  # conj(nu) = h^{-1}
    big.vectors[0] = a.times(1.0 / math.sqrt(hn))
    small.vectors[0] = r.times(nu * math.sqrt(hn))


# ---------------------------------------------------------------------------
# Orthogonalization against the form
# ---------------------------------------------------------------------------

def orthonormal_form_basis(space: HermitianSpace,
                           vectors: Sequence[HVector]) -> tuple[list[HVector], list[int]]:
    """Diagonalize the restricted form on span(vectors): basis with <v,v> = +-1.

    Returns the basis (negative directions first) and the matching sign list.
    The restriction must be nondegenerate.
    """
    m = len(vectors)
    grid = [[space.herm(vectors[c], vectors[r]) for c in range(m)] for r in range(m)]
    gram = HMatrix.from_quaternions(grid)
    eigs, U = np.linalg.eigh(gram.emb)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    if np.min(np.abs(eigs)) < 1e-10 * scale:
        raise GramSchmidtError("restricted form is degenerate on the span")

    order = np.argsort(eigs)  # negatives first
    neg_cols = [k for k in order if eigs[k] < 0]
    pos_cols = [k for k in order if eigs[k] > 0]
    out: list[HVector] = []
    signs: list[int] = []
    used: list[np.ndarray] = []
    for group, sign in ((neg_cols, -1), (pos_cols, 1)):
        if not group:
            continue
        # combination coefficients live in H^m via the embedding rows
        quat_needed = len(group) // 2
        coeff_vectors = quaternionic_basis(U[:, group], quat_needed)
        for cv in coeff_vectors:
            v = _combine(vectors, cv)
            val = space.herm(v, v).re
            v = v.times(1.0 / math.sqrt(abs(val)))
            if (val < 0) != (sign < 0):
                raise GramSchmidtError("sign bookkeeping failed in diagonalization")
            out.append(v)
            signs.append(sign)
    # re-orthogonalize residual cross terms (one Gram-Schmidt sweep)
    out = _polish_orthogonality(space, out, signs)
    return out, signs


def _combine(vectors: Sequence[HVector], coeffs: HVector) -> HVector:
    acc = vectors[0].times(coeffs.entry(0))
    for k in range(1, len(vectors)):
        acc = acc + vectors[k].times(coeffs.entry(k))
    return acc


def _polish_orthogonality(space: HermitianSpace, basis: list[HVector],
                          signs: list[int]) -> list[HVector]:
    out: list[HVector] = []
    for v, sv in zip(basis, signs):
        w = v
        for u, su in zip(out, signs):
            c = space.herm(w, u) * su
            w = w - u.times(c)
        val = space.herm(w, w).re
        w = w.times(1.0 / math.sqrt(abs(val)))
        out.append(w)
    return out

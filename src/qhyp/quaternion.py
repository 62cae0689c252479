"""Quaternion scalars, broadcast arithmetic on (..., 4) component arrays, and
the unit-quaternion simultaneous-conjugation solver.

A quaternion is stored by its four real components a0 + a1*i + a2*j + a3*k.
Conjugation by a unit quaternion fixes real parts and norms; for unit mu the
equation conj(mu) * w * mu = v reads w * mu - mu * v = 0, which is linear in
mu, so the alignment problem here is one null-space computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError
from .tolerances import DEFAULT_TOL


@dataclass(frozen=True)
class Quaternion:
    """Immutable quaternion a0 + a1*i + a2*j + a3*k with real components."""

    a0: float = 0.0
    a1: float = 0.0
    a2: float = 0.0
    a3: float = 0.0

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_seq(values: Sequence[float]) -> "Quaternion":
        a0, a1, a2, a3 = (float(v) for v in values)
        return Quaternion(a0, a1, a2, a3)

    @staticmethod
    def real(x: float) -> "Quaternion":
        return Quaternion(float(x), 0.0, 0.0, 0.0)

    @staticmethod
    def from_vector(real: float, vec: Sequence[float]) -> "Quaternion":
        """Build real + (vec . (i, j, k))."""
        return Quaternion(float(real), float(vec[0]), float(vec[1]), float(vec[2]))

    @staticmethod
    def from_complex_pair(z1: complex, z2: complex) -> "Quaternion":
        """Inverse of :meth:`complex_pair`; q = z1 + j*z2."""
        return Quaternion(z1.real, z1.imag, z2.real, -z2.imag)

    @staticmethod
    def one() -> "Quaternion":
        return Quaternion(1.0)

    @staticmethod
    def i() -> "Quaternion":
        return Quaternion(0.0, 1.0)

    @staticmethod
    def j() -> "Quaternion":
        return Quaternion(0.0, 0.0, 1.0)

    # -- views -------------------------------------------------------------

    @property
    def re(self) -> float:
        return self.a0

    def im(self) -> "Quaternion":
        return Quaternion(0.0, self.a1, self.a2, self.a3)

    def to_array(self) -> np.ndarray:
        return np.array([self.a0, self.a1, self.a2, self.a3], dtype=float)

    def complex_pair(self) -> tuple[complex, complex]:
        """Split q = z1 + j*z2 with complex z1, z2.

        The scalar form of :func:`complex_pairs`, kept free of array
        overhead for the Hermitian pairing of two vectors.
        """
        return complex(self.a0, self.a1), complex(self.a2, -self.a3)

    # -- algebra -----------------------------------------------------------

    def conj(self) -> "Quaternion":
        return Quaternion(self.a0, -self.a1, -self.a2, -self.a3)

    def norm_sq(self) -> float:
        return self.a0 * self.a0 + self.a1 * self.a1 + self.a2 * self.a2 + self.a3 * self.a3

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def inverse(self) -> "Quaternion":
        n2 = self.norm_sq()
        if n2 == 0.0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        return Quaternion(self.a0 / n2, -self.a1 / n2, -self.a2 / n2, -self.a3 / n2)

    def unit(self) -> "Quaternion":
        n = self.norm()
        if n == 0.0:
            raise ZeroDivisionError("cannot normalize the zero quaternion")
        return Quaternion(self.a0 / n, self.a1 / n, self.a2 / n, self.a3 / n)

    def __add__(self, other: "Quaternion | float | int") -> "Quaternion":
        other = _coerce(other)
        return Quaternion(self.a0 + other.a0, self.a1 + other.a1,
                          self.a2 + other.a2, self.a3 + other.a3)

    __radd__ = __add__

    def __sub__(self, other: "Quaternion | float | int") -> "Quaternion":
        other = _coerce(other)
        return Quaternion(self.a0 - other.a0, self.a1 - other.a1,
                          self.a2 - other.a2, self.a3 - other.a3)

    def __rsub__(self, other: "float | int") -> "Quaternion":
        return _coerce(other) - self

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.a0, -self.a1, -self.a2, -self.a3)

    def __mul__(self, other: "Quaternion | float | int") -> "Quaternion":
        if isinstance(other, (int, float)):
            return Quaternion(self.a0 * other, self.a1 * other,
                              self.a2 * other, self.a3 * other)
        a0, a1, a2, a3 = self.a0, self.a1, self.a2, self.a3
        b0, b1, b2, b3 = other.a0, other.a1, other.a2, other.a3
        return Quaternion(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )

    def __rmul__(self, other: "float | int") -> "Quaternion":
        return Quaternion(self.a0 * other, self.a1 * other,
                          self.a2 * other, self.a3 * other)

    def __truediv__(self, other: "float | int") -> "Quaternion":
        return Quaternion(self.a0 / other, self.a1 / other,
                          self.a2 / other, self.a3 / other)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.norm() <= DEFAULT_TOL

    def approx_eq(self, other: "Quaternion", tol: float = DEFAULT_TOL) -> bool:
        return (self - other).norm() <= tol

    def __repr__(self) -> str:
        return f"Quaternion({self.a0:.12g}, {self.a1:.12g}, {self.a2:.12g}, {self.a3:.12g})"


def _coerce(x: "Quaternion | float | int") -> Quaternion:
    if isinstance(x, Quaternion):
        return x
    return Quaternion(float(x))


ONE = Quaternion(1.0)


# ---------------------------------------------------------------------------
# Vectorized helpers on trailing-axis-4 component arrays
# ---------------------------------------------------------------------------

def qmul_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product on trailing-axis-4 float arrays, with broadcasting."""
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    b0, b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    ], axis=-1)


def qconj_array(a: np.ndarray) -> np.ndarray:
    out = a.copy()
    out[..., 1:] *= -1.0
    return out


def quaternion_array(qs: Iterable[Quaternion]) -> np.ndarray:
    """The (k, 4) component array of a sequence of quaternions."""
    return np.array([(q.a0, q.a1, q.a2, q.a3) for q in qs], dtype=float).reshape(-1, 4)


def complex_pairs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split trailing-axis-4 components as q = z1 + j*z2 with complex z1, z2.

    The convention is z1 = a0 + a1*i and z2 = a2 - a3*i, so that
    j*z2 = a2*j + a3*k.  Every component is copied or negated exactly,
    signed zeros included.
    """
    a = np.asarray(a, dtype=float)
    z = np.empty(a.shape[:-1] + (2,), dtype=complex)
    z.real = a[..., 0::2]
    z.imag = a[..., 1::2] * [1.0, -1.0]
    return z[..., 0], z[..., 1]


def from_complex_pairs(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Inverse of :func:`complex_pairs`: the (..., 4) components of z1 + j*z2."""
    z1, z2 = np.asarray(z1), np.asarray(z2)
    return np.stack([z1.real, z1.imag, z2.real, -z2.imag], axis=-1)


#: left_matrix(q)[r, c] = q[_MUL_IDX[r, c]] * _LEFT_SIGN[r, c], and the same
#: index table with _RIGHT_SIGN for right_matrix: the coefficient of p_c in
#: component r of q*p (or p*q), read off the Hamilton product above
_MUL_IDX = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_LEFT_SIGN = np.array([[1, -1, -1, -1], [1, 1, -1, 1], [1, 1, 1, -1], [1, -1, 1, 1]], dtype=float)
_RIGHT_SIGN = np.array([[1, -1, -1, -1], [1, 1, 1, -1], [1, -1, 1, 1], [1, 1, -1, 1]], dtype=float)


def left_matrix(q: np.ndarray) -> np.ndarray:
    """Real 4x4 matrices of left multiplication by trailing-axis-4 components:
    left_matrix(q) @ p = q*p."""
    return np.asarray(q, dtype=float)[..., _MUL_IDX] * _LEFT_SIGN


def right_matrix(q: np.ndarray) -> np.ndarray:
    """Real 4x4 matrices of right multiplication by trailing-axis-4 components:
    right_matrix(q) @ p = p*q."""
    return np.asarray(q, dtype=float)[..., _MUL_IDX] * _RIGHT_SIGN


# ---------------------------------------------------------------------------
# Rotation of the imaginary part
# ---------------------------------------------------------------------------

def rotation_matrix(q: "Quaternion | np.ndarray") -> np.ndarray:
    """3x3 matrix R with R @ v = Im(q * (0, v) * conj(q)) for unit q; (..., 3, 3) for (..., 4)."""
    w, x, y, z = (q.a0, q.a1, q.a2, q.a3) if isinstance(q, Quaternion) else np.moveaxis(q, -1, 0)
    R = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ], dtype=float)
    return R if R.ndim == 2 else np.moveaxis(R, (0, 1), (-2, -1))


def conjugated_by(mu: Quaternion, a: np.ndarray) -> np.ndarray:
    """Components of conj(mu) * a * mu for unit mu: real parts stay, imaginary parts turn."""
    out = a.copy()
    out[..., 1:] = a[..., 1:] @ rotation_matrix(mu.conj()).T
    return out


def canonical_sign(q: Quaternion) -> Quaternion:
    """Pick the representative of {q, -q} with positive leading component."""
    for c in (q.a0, q.a1, q.a2, q.a3):
        if c > 0:
            return q
        if c < 0:
            return -q
    return q


# ---------------------------------------------------------------------------
# Sp(1) simultaneous-conjugation alignment
# ---------------------------------------------------------------------------

def sp1_align(v: np.ndarray, w: np.ndarray,
              tol: float = DEFAULT_TOL) -> Optional[Quaternion]:
    """Find a unit quaternion mu with conj(mu) * w_k * mu = v_k for every k.

    ``v`` and ``w`` are (k, 4) arrays of quaternion components.  Returns
    ``None`` when no unit quaternion achieves the alignment within ``tol``.
    Conjugation fixes real parts and norms, so those must match
    componentwise first.  For unit mu the equations read
    w_k * mu - mu * v_k = 0, so the solutions span the null space of the
    stacked (4k, 4) matrix left_matrix(w) - right_matrix(v), read off one
    SVD as the right singular vectors whose singular value is within
    ``tol * scale`` of the smallest.  On exact data the smallest is zero up
    to rounding; otherwise the least-squares optimum and its near-ties are
    tried, and the final check certifies or rejects the result: every
    |conj(mu) w_k mu - v_k| must be within ``tol * scale``, with conj(mu) w mu
    from one 3x3 rotation of the imaginary parts (:func:`conjugated_by`).

    Degenerate inputs (all imaginary parts zero or collinear) have a circle
    of solutions or more; the representative closest to 1, the normalized
    projection of 1 onto the null space, is returned, which keeps the output
    deterministic.  Only antipodal rank-one data (to within ``tol``) leave 1
    orthogonal to every solution; then i, j, k are projected in that order.
    """
    v = np.asarray(v, dtype=float).reshape(-1, 4)
    w = np.asarray(w, dtype=float).reshape(-1, 4)
    if len(v) != len(w):
        raise DimensionMismatchError(f"length mismatch: {len(v)} vs {len(w)}")
    vn, wn = np.sqrt(np.einsum("kc,kc->k", v, v)), np.sqrt(np.einsum("kc,kc->k", w, w))
    scale = max(1.0, float(vn.max(initial=0.0)), float(wn.max(initial=0.0)))
    if (np.abs(v[:, 0] - w[:, 0]) > tol * scale).any() or (np.abs(vn - wn) > tol * scale).any():
        return None

    if len(v) == 0:  # nothing to align
        return ONE
    _, s, vt = np.linalg.svd((left_matrix(w) - right_matrix(v)).reshape(-1, 4),
                             full_matrices=False)
    null = vt[int((s > s[-1] + tol * scale).sum()):]
    proj = null.T @ null  # column c: projection of the c-th unit onto the solutions
    norms = np.sqrt(np.einsum("rc,rc->c", proj, proj))
    c = int((norms > tol).argmax())
    mu = canonical_sign(Quaternion(*(proj[:, c] / norms[c]).tolist()))
    d = conjugated_by(mu, w) - v
    if (np.sqrt(np.einsum("kc,kc->k", d, d)) > tol * scale).any():
        return None
    return mu

"""Quaternion scalars: arithmetic, polar form, similarity classes, and the
unit-quaternion simultaneous-conjugation solver.

A quaternion is stored by its four real components a0 + a1*i + a2*j + a3*k.
Conjugation by a unit quaternion fixes real parts and rotates imaginary parts,
which is what makes the alignment problem here an orthogonal Procrustes
problem on 3-vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError

#: Default absolute tolerance on quaternion components.
DEFAULT_TOL = 1e-9


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

    @staticmethod
    def k() -> "Quaternion":
        return Quaternion(0.0, 0.0, 0.0, 1.0)

    # -- views -------------------------------------------------------------

    @property
    def re(self) -> float:
        return self.a0

    def im(self) -> "Quaternion":
        return Quaternion(0.0, self.a1, self.a2, self.a3)

    def imag_vec(self) -> np.ndarray:
        return np.array([self.a1, self.a2, self.a3], dtype=float)

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

    def is_zero(self, tol: float = DEFAULT_TOL) -> bool:
        return self.norm() <= tol

    def is_real(self, tol: float = DEFAULT_TOL) -> bool:
        return math.sqrt(self.a1 ** 2 + self.a2 ** 2 + self.a3 ** 2) <= tol

    def approx_eq(self, other: "Quaternion", tol: float = DEFAULT_TOL) -> bool:
        return (self - other).norm() <= tol

    def __repr__(self) -> str:
        return f"Quaternion({self.a0:.12g}, {self.a1:.12g}, {self.a2:.12g}, {self.a3:.12g})"


def _coerce(x: "Quaternion | float | int") -> Quaternion:
    if isinstance(x, Quaternion):
        return x
    return Quaternion(float(x))


ZERO = Quaternion()
ONE = Quaternion(1.0)


# ---------------------------------------------------------------------------
# Polar form and similarity classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolarForm:
    """Polar coordinates of a quaternion: modulus * (cos(angle) + axis*sin(angle)).

    ``axis`` is a unit pure quaternion, or zero exactly when the source is
    real (the angle is then 0 or pi).
    """

    modulus: float
    angle: float
    axis: Quaternion

    def value(self) -> Quaternion:
        c, s = math.cos(self.angle), math.sin(self.angle)
        return Quaternion.real(self.modulus * c) + self.axis * (self.modulus * s)


def polar_decompose(q: Quaternion, tol: float = DEFAULT_TOL) -> PolarForm:
    """Decompose ``q`` as modulus * (cos(angle) + axis*sin(angle)), angle in [0, pi]."""
    r = q.norm()
    if r == 0.0:
        return PolarForm(0.0, 0.0, ZERO)
    v = q.imag_vec()
    vn = float(np.linalg.norm(v))
    if vn <= tol * r:
        # Real quaternion: angle 0 for positive, pi for negative.
        return PolarForm(r, 0.0 if q.a0 >= 0 else math.pi, ZERO)
    angle = math.atan2(vn, q.a0)
    axis = Quaternion.from_vector(0.0, v / vn)
    return PolarForm(r, angle, axis)


@dataclass(frozen=True)
class SimilarityClass:
    """Conjugation class of a quaternion, represented by r*e^(i*theta), theta in [0, pi].

    Two quaternions are similar exactly when their real parts and norms agree,
    so (modulus, angle) is a complete invariant.
    """

    modulus: float
    angle: float

    @staticmethod
    def from_quaternion(q: Quaternion) -> "SimilarityClass":
        r = q.norm()
        if r == 0.0:
            return SimilarityClass(0.0, 0.0)
        vn = float(np.linalg.norm(q.imag_vec()))
        return SimilarityClass(r, math.atan2(vn, q.a0))

    @staticmethod
    def from_complex(z: complex) -> "SimilarityClass":
        return SimilarityClass(abs(z), math.atan2(abs(z.imag), z.real))

    @property
    def representative(self) -> complex:
        return self.modulus * complex(math.cos(self.angle), math.sin(self.angle))

    def is_real(self, tol: float = DEFAULT_TOL) -> bool:
        return self.modulus * math.sin(self.angle) <= tol

    def matches(self, other: "SimilarityClass", tol: float = DEFAULT_TOL) -> bool:
        scale = max(1.0, self.modulus, other.modulus)
        return (abs(self.modulus - other.modulus) <= tol * scale
                and abs(self.modulus * math.cos(self.angle)
                        - other.modulus * math.cos(other.angle)) <= tol * scale)


def similar(a: Quaternion, b: Quaternion, tol: float = DEFAULT_TOL) -> bool:
    """True when ``a`` and ``b`` lie in one conjugation class (equal Re and norm)."""
    return abs(a.re - b.re) <= tol and abs(a.norm() - b.norm()) <= tol


def centralizer_contains(lam: Quaternion, q: Quaternion, tol: float = DEFAULT_TOL) -> bool:
    """True when ``q`` lies in the real span of {1, lam}.

    ``lam`` must be nonreal; its centralizer in the quaternions is exactly
    that two-dimensional real subalgebra.
    """
    lam_im = lam.imag_vec()
    lam_im_norm = float(np.linalg.norm(lam_im))
    if lam_im_norm <= tol * max(1.0, lam.norm()):
        raise ValueError("lam must be nonreal: its centralizer is the whole algebra")
    u = lam_im / lam_im_norm
    v = q.imag_vec()
    resid = v - np.dot(v, u) * u
    return float(np.linalg.norm(resid)) <= tol * max(1.0, q.norm())


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


def left_matrix(q: np.ndarray) -> np.ndarray:
    """Real 4x4 matrices of left multiplication by trailing-axis-4 components:
    left_matrix(q) @ p = q*p.  Column c is q times the c-th basis unit."""
    return qmul_array(np.asarray(q, dtype=float)[..., None, :], np.eye(4)).swapaxes(-1, -2)


def right_matrix(q: np.ndarray) -> np.ndarray:
    """Real 4x4 matrices of right multiplication by trailing-axis-4 components:
    right_matrix(q) @ p = p*q.  Column c is the c-th basis unit times q."""
    return qmul_array(np.eye(4), np.asarray(q, dtype=float)[..., None, :]).swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# Rotation <-> unit quaternion
# ---------------------------------------------------------------------------

def rotation_matrix(q: Quaternion) -> np.ndarray:
    """3x3 matrix R with R @ v = Im(q * (0, v) * conj(q)) for unit q."""
    w, x, y, z = q.a0, q.a1, q.a2, q.a3
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ], dtype=float)


def quaternion_from_rotation(R: np.ndarray) -> Quaternion:
    """Unit quaternion for a proper rotation matrix (Shepperd's method)."""
    t = float(np.trace(R))
    d0 = 1.0 + t
    d1 = 1.0 + 2.0 * R[0, 0] - t
    d2 = 1.0 + 2.0 * R[1, 1] - t
    d3 = 1.0 + 2.0 * R[2, 2] - t
    dmax = max(d0, d1, d2, d3)
    if dmax == d0:
        w = 0.5 * math.sqrt(d0)
        s = 0.25 / w
        x = (R[2, 1] - R[1, 2]) * s
        y = (R[0, 2] - R[2, 0]) * s
        z = (R[1, 0] - R[0, 1]) * s
    elif dmax == d1:
        x = 0.5 * math.sqrt(d1)
        s = 0.25 / x
        w = (R[2, 1] - R[1, 2]) * s
        y = (R[0, 1] + R[1, 0]) * s
        z = (R[0, 2] + R[2, 0]) * s
    elif dmax == d2:
        y = 0.5 * math.sqrt(d2)
        s = 0.25 / y
        w = (R[0, 2] - R[2, 0]) * s
        x = (R[0, 1] + R[1, 0]) * s
        z = (R[1, 2] + R[2, 1]) * s
    else:
        z = 0.5 * math.sqrt(d3)
        s = 0.25 / z
        w = (R[1, 0] - R[0, 1]) * s
        x = (R[0, 2] + R[2, 0]) * s
        y = (R[1, 2] + R[2, 1]) * s
    return Quaternion(w, x, y, z).unit()


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
    componentwise first; the imaginary parts then pose an orthogonal
    Procrustes problem whose optimal proper rotation certifies absence when
    its residual is too large.

    Degenerate inputs (all imaginary parts zero or collinear) have a circle
    of solutions; the representative closest to 1 is returned, which keeps
    the output deterministic.
    """
    v = np.asarray(v, dtype=float).reshape(-1, 4)
    w = np.asarray(w, dtype=float).reshape(-1, 4)
    if len(v) != len(w):
        raise DimensionMismatchError(f"length mismatch: {len(v)} vs {len(w)}")
    vn, wn = np.linalg.norm(v, axis=1), np.linalg.norm(w, axis=1)
    scale = max(1.0, float(np.max(vn, initial=0.0)), float(np.max(wn, initial=0.0)))
    if (np.any(np.abs(v[:, 0] - w[:, 0]) > tol * scale)
            or np.any(np.abs(vn - wn) > tol * scale)):
        return None

    vi, wi = v[:, 1:], w[:, 1:]
    data_scale = max(1.0, float(np.max(np.abs(np.concatenate([vi, wi]))))) if len(v) else 1.0

    # Rank of the imaginary data decides which branch applies.
    if len(v) == 0 or float(np.linalg.norm(wi)) <= tol * data_scale:
        mu = ONE
    else:
        sv = np.linalg.svd(wi, compute_uv=False)
        rank = int(np.sum(sv > tol * max(1.0, sv[0])))
        if rank <= 1:
            mu = _align_collinear(vi, wi)
            if mu is None:
                return None
        else:
            B = vi.T @ wi
            U, _, Vt = np.linalg.svd(B)
            d = np.sign(np.linalg.det(U @ Vt))
            if d == 0:
                d = 1.0
            R = U @ np.diag([1.0, 1.0, d]) @ Vt
            mu = quaternion_from_rotation(R).conj()

    mu = canonical_sign(mu)
    m = mu.to_array()
    aligned = qmul_array(qmul_array(qconj_array(m), w), m)
    if np.any(np.linalg.norm(aligned - v, axis=1) > tol * np.maximum(vn, scale)):
        return None
    return mu


def _align_collinear(vi: np.ndarray, wi: np.ndarray) -> Optional[Quaternion]:
    """Minimal rotation for rank-one imaginary data (stabilizer is a circle)."""
    k = int(np.argmax(np.linalg.norm(wi, axis=1)))
    u = wi[k]
    un = np.linalg.norm(u)
    u = u / un
    up = vi[k]
    upn = np.linalg.norm(up)
    if upn == 0.0:
        return None
    up = up / upn
    c = float(np.clip(np.dot(u, up), -1.0, 1.0))
    if c >= 1.0 - 1e-14:
        return ONE
    if c <= -1.0 + 1e-14:
        # Half-turn about any axis orthogonal to u; pick deterministically.
        basis = np.eye(3)
        e = basis[int(np.argmin(np.abs(u)))]
        axis = np.cross(u, e)
        axis = axis / np.linalg.norm(axis)
        return Quaternion.from_vector(0.0, axis)
    axis = np.cross(u, up)
    axis = axis / np.linalg.norm(axis)
    half = 0.5 * math.acos(c)
    # R rotates u onto up; mu is its conjugate so that conj(mu)*q*mu applies R.
    mu_bar = Quaternion.from_vector(math.cos(half), axis * math.sin(half))
    return mu_bar.conj()

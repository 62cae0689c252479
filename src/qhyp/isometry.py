"""Group membership, classification, real trace, and single-element conjugacy.

An isometry here is a validated matrix A with A* H A = H.  Membership is
checked when it is built; its eigen-decomposition, classification and real
trace are computed once, on first use, or together with other members by
:func:`decompose`.  Parabolic elements (defective over the quaternions) are
detected and refused by everything downstream of detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import (
    InvalidSpecError,
    NotSemisimpleError,
    NumericalError,
    QhypError,
    UnsupportedElementError,
)
from .linalg import (
    EigenData,
    HermitianSpace,
    HMatrix,
    PointType,
    class_char_coeffs,
    matrix_rank,
    orthonormal_form_basis,
    right_eigen,
    stacked_from_components,
    two_columns,
)
from .tolerances import (CHAR_COEFF_TOL, CLASS_MATCH_TOL, DEFAULT_TOL, FRAME_COND_MAX,
                         GENERATED_MEMBER_TOL, HYPERBOLIC_MODULUS_TOL, REAL_CLASS_RTOL, SPAN_RTOL,
                         TRACE_RTOL)


class Classification(Enum):
    HYPERBOLIC = "hyperbolic"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"


class Isometry:
    """A member of the isometry group with cached spectral data.

    Membership is checked at construction.  ``eigen``, ``classification``
    and the real trace are set by :func:`decompose`, which the first read of
    one of them runs; an error of that decomposition is raised on every
    read.  ``eigen`` is ``None`` exactly for parabolic elements, which
    downstream operations refuse.
    """

    def __init__(self, matrix: HMatrix, space: HermitianSpace,
                 tol: float = DEFAULT_TOL):
        if matrix.dim != space.dim:
            raise InvalidSpecError("matrix size does not match the space")
        if not space.is_member(matrix, tol):
            raise InvalidSpecError(
                f"matrix is not in the isometry group "
                f"(residual {space.member_residual(matrix):.3e})")
        self.matrix = matrix
        self.space = space
        self.tol = tol

    def __getattr__(self, name: str):  # only reached while ``name`` is unset
        if name not in ("eigen", "classification", "_real_trace"):
            raise AttributeError(name)
        decompose([self])
        if "_error" in vars(self):
            raise self._error
        return vars(self)[name]

    @property
    def n(self) -> int:
        return self.space.n

    def is_semisimple(self) -> bool:
        return self.classification is not Classification.PARABOLIC

    def real_trace(self) -> np.ndarray:
        if self._real_trace is None:
            raise UnsupportedElementError("real trace is not used for parabolic elements")
        return self._real_trace.copy()

    def __repr__(self) -> str:
        return f"Isometry(n={self.n}, {self.classification.value})"


def decompose(members: Sequence[Isometry]) -> None:
    """Decompose the members not decomposed yet that share the first one's
    space and tolerance together, with one stacked :func:`right_eigen` and
    one stacked characteristic-coefficient pass (any others decompose on
    first use).  Each member gets its own result, or keeps the error that its
    decomposition alone raises: both passes treat every member alone."""
    todo = [x for x in dict.fromkeys(members)
            if "classification" not in vars(x) and "_error" not in vars(x)]
    if not todo:
        return
    space, tol = todo[0].space, todo[0].tol
    group = [x for x in todo if x.space.dim == space.dim and x.tol == tol]
    found = []  # (member, eigen, classification) of the semisimple members
    for x, eigen in zip(group, right_eigen([x.matrix for x in group], space, tol)):
        if isinstance(eigen, NotSemisimpleError):
            x.eigen, x._real_trace, x.classification = None, None, Classification.PARABOLIC
        elif isinstance(eigen, QhypError):
            x._error = eigen
        else:
            try:
                found.append((x, eigen, _classify_from_eigen(eigen)))
            except NumericalError as exc:
                x._error = exc
    if not found:
        return
    traces, palindromic = class_char_coeffs([e for _, e, _ in found], max(tol, CHAR_COEFF_TOL))
    for (x, eigen, kind), coeffs, ok in zip(found, traces[:, :space.n].copy(), palindromic):
        if not ok:
            x._error = NumericalError("characteristic coefficients are not palindromic")
        else:  # classification last: it marks a decomposed member
            x.eigen, x._real_trace, x.classification = eigen, coeffs, kind


def _classify_from_eigen(eigen: EigenData) -> Classification:
    if max(eigen.moduli) > 1.0 + HYPERBOLIC_MODULUS_TOL:
        if eigen.kinds.count(PointType.NULL) != 2:
            raise NumericalError("expanding spectrum without a null fixed pair")
        return Classification.HYPERBOLIC
    if PointType.NEGATIVE not in eigen.kinds:
        raise NumericalError("unit spectrum without a negative eigenvector")
    return Classification.ELLIPTIC


# ---------------------------------------------------------------------------
# Single-element conjugacy (eigenvalue-class comparison)
# ---------------------------------------------------------------------------

def _class_multisets_match(a: EigenData, b: EigenData) -> Optional[list[tuple[int, int]]]:
    """Greedy tolerance matching of two class multisets: the matched index
    pairs, or None.  A sorted zip would misalign near-ties."""
    if len(a.reps) != len(b.reps):
        return None
    unmatched = list(zip(range(len(b.reps)), b.moduli, b.angles, b.multiplicities.tolist()))
    pairs = []
    for ia, (ma, ta, ka) in enumerate(zip(a.moduli, a.angles, a.multiplicities.tolist())):
        for pos, (ib, mb, tb, kb) in enumerate(unmatched):
            if (kb == ka and abs(ma - mb) <= CLASS_MATCH_TOL * max(1.0, ma, mb)
                    and abs(ta - tb) <= CLASS_MATCH_TOL):
                del unmatched[pos]
                pairs.append((ia, ib))
                break
        else:
            return None
    return pairs


def conjugate_single(A: Isometry, B: Isometry) -> bool:
    """Decide conjugacy of two semisimple elements from their eigenvalue classes.

    Hyperbolic elements need equal similarity-class multisets; elliptic
    elements additionally need the same negative class.  Elements of
    different classification are never conjugate.
    """
    if not A.is_semisimple() or not B.is_semisimple():
        raise UnsupportedElementError("conjugacy test supports semisimple elements only")
    if A.classification is not B.classification:
        return False
    ea, eb = A.eigen, B.eigen
    if _class_multisets_match(ea, eb) is None:
        return False
    if A.classification is Classification.ELLIPTIC:
        if ea.kinds.count(PointType.NEGATIVE) != 1 or eb.kinds.count(PointType.NEGATIVE) != 1:
            raise NumericalError("elliptic element without a unique negative class")
        a, b = ea.kinds.index(PointType.NEGATIVE), eb.kinds.index(PointType.NEGATIVE)
        return not (abs(ea.moduli[a] - eb.moduli[b]) > CLASS_MATCH_TOL
                    or abs(ea.angles[a] - eb.angles[b]) > CLASS_MATCH_TOL)
    return True


# ---------------------------------------------------------------------------
# Equality by invariants
# ---------------------------------------------------------------------------

def _eigensets_equal(a: EigenData, ia: int, b: EigenData, ib: int) -> bool:
    """True when class ia of ``a`` and class ib of ``b`` have eigensets that
    span one subspace: the right quaternionic span when a's class is real,
    the complex span of the stacked vectors otherwise."""
    B1 = a.vectors[:, a.starts[ia]:a.starts[ia + 1]]
    B2 = b.vectors[:, b.starts[ib]:b.starts[ib + 1]]
    if abs(a.reps[ia].imag) <= REAL_CLASS_RTOL * max(1.0, a.moduli[ia]):
        B1, B2 = two_columns(B1), two_columns(B2)
    return (matrix_rank(B1, SPAN_RTOL) == matrix_rank(B2, SPAN_RTOL)
            == matrix_rank(np.concatenate([B1, B2], axis=1), SPAN_RTOL))


def equal_by_invariants(A: Isometry, B: Isometry) -> bool:
    """Decide A == B from real trace, projective fixed sets, and eigensets.

    For each nonreal class the pinned eigenset (a point on the class
    Grassmannian) must agree as a complex subspace, which also pins the
    projective fixed set; real classes are compared by quaternionic span.
    """
    if not A.is_semisimple() or not B.is_semisimple():
        raise UnsupportedElementError("equality test supports semisimple elements only")
    ta, tb = A.real_trace(), B.real_trace()
    if not np.allclose(ta, tb, rtol=0.0, atol=TRACE_RTOL * max(1.0, float(np.max(np.abs(ta))))):
        return False
    pairs = _class_multisets_match(A.eigen, B.eigen)
    return pairs is not None and all(_eigensets_equal(A.eigen, ia, B.eigen, ib)
                                     for ia, ib in pairs)


# ---------------------------------------------------------------------------
# Seeded generation of semisimple elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HyperbolicSpec:
    """Normal-form data: boosting modulus r > 1 with angle theta, plus the
    unit-circle angles of the positive classes (multiplicity by repetition)."""

    r: float
    theta: float
    unit_angles: tuple[float, ...] = ()

    def validate(self, n: int) -> None:
        if not self.r > 1.0:
            raise InvalidSpecError("hyperbolic spec needs r > 1")
        if not 0.0 <= self.theta <= math.pi:
            raise InvalidSpecError("theta must lie in [0, pi]")
        if len(self.unit_angles) != n - 1:
            raise InvalidSpecError(f"need {n - 1} unit angles for n={n}")


@dataclass(frozen=True)
class EllipticSpec:
    """Unit-circle angles; the first entry is the negative-type class."""

    angles: tuple[float, ...]

    def validate(self, n: int) -> None:
        if len(self.angles) != n + 1:
            raise InvalidSpecError(f"need {n + 1} angles for n={n}")
        for t in self.angles:
            if not 0.0 <= t <= math.pi:
                raise InvalidSpecError("angles must lie in [0, pi]")


def random_frame(space: HermitianSpace, rng: np.random.Generator,
                 elliptic: bool = False, cond_max: float = FRAME_COND_MAX) -> HMatrix:
    """Seeded pseudo-random frame: column Gram is the corner form (hyperbolic
    ordering a, x_1..x_{n-1}, r) or diag(-1, 1, ..., 1) when ``elliptic``.

    Draws are rejected while the frame is near-degenerate, 200 times at most.
    """
    N = space.dim
    for _ in range(200):
        vecs = stacked_from_components(rng.uniform(-1.0, 1.0, (N, N, 4)))
        try:
            basis, signs = orthonormal_form_basis(space, vecs)
        except NumericalError:
            continue
        if signs[0] != -1:
            continue
        if not elliptic:
            # the negative column and the last positive one become the null pair
            inv_sqrt2 = 1.0 / math.sqrt(2.0)
            neg, last = basis[:, 0], basis[:, -1]
            basis = np.column_stack([(last + neg) * inv_sqrt2, basis[:, 1:-1],
                                     (last - neg) * inv_sqrt2])
        C = HMatrix.from_columns(basis)
        if C.cond() <= cond_max:
            return C
    raise NumericalError("could not draw a well-conditioned frame")


def random_member(space: HermitianSpace, rng: np.random.Generator,
                  cond_max: float = 100.0) -> HMatrix:
    """Seeded pseudo-random element of the isometry group."""
    C = random_frame(space, rng, elliptic=False, cond_max=cond_max)
    return space.project_to_group(C)


def random_semisimple(kind: Classification, n: int,
                      eigen_spec: "HyperbolicSpec | EllipticSpec",
                      seed: int, space: Optional[HermitianSpace] = None) -> Isometry:
    """Generate C E C^-1 with E the diagonal normal form and C a seeded frame.

    Membership and classification are verified before returning.
    """
    space = space or HermitianSpace(n)
    rng = np.random.default_rng(seed)
    if kind is Classification.HYPERBOLIC:
        if not isinstance(eigen_spec, HyperbolicSpec):
            raise InvalidSpecError("hyperbolic kind needs a HyperbolicSpec")
        eigen_spec.validate(n)
        entries = ([eigen_spec.r * np.exp(1j * eigen_spec.theta)]
                   + [np.exp(1j * t) for t in eigen_spec.unit_angles]
                   + [np.exp(1j * eigen_spec.theta) / eigen_spec.r])
        C = random_frame(space, rng, elliptic=False)
    elif kind is Classification.ELLIPTIC:
        if not isinstance(eigen_spec, EllipticSpec):
            raise InvalidSpecError("elliptic kind needs an EllipticSpec")
        eigen_spec.validate(n)
        entries = [np.exp(1j * t) for t in eigen_spec.angles]
        C = random_frame(space, rng, elliptic=True)
    else:
        raise InvalidSpecError("kind must be hyperbolic or elliptic")

    E = HMatrix.diag_complex(entries)
    A = C @ E @ C.inverse()
    A = space.project_to_group(A)
    out = Isometry(A, space, tol=GENERATED_MEMBER_TOL)
    if out.classification is not kind:
        raise NumericalError(
            f"generated element classified as {out.classification.value}, "
            f"expected {kind.value}")
    return out

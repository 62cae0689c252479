"""Invariants, congruence and conjugacy deciders on quaternionic hyperbolic space.

The package decides, with explicit verified witnesses:

- congruence of ordered point configurations on the closed ball under the
  projective isometry group (``qhyp.gram.congruent``),
- conjugacy of semisimple isometries and of semisimple pairs
  (``qhyp.isometry.conjugate_single``, ``qhyp.pairs.pair_conjugate``),

and computes the classifying invariants behind those decisions: real traces,
cross ratios, angular / distance / rotation invariants, semi-normalized Gram
matrices and eigenframes.

All values are immutable and all operations pure, so everything is safe for
concurrent use.
"""

from .decision import Decision, Verdict
from .errors import (
    DegenerateConfigurationError,
    DimensionMismatchError,
    InvalidSpecError,
    NotSemisimpleError,
    NumericalError,
    QhypError,
    UnsupportedElementError,
)
from .gram import (
    PointConfig,
    SemiNormalizedGram,
    congruent,
    gram_of,
    orbit_equal,
    reconstruct_gram,
    semi_normalize,
)
from .invariants import (
    InvariantProfile,
    ProjPoint,
    angular_invariant,
    cross_ratio,
    cross_ratio_triple,
    distance_invariant,
    profile,
)
from .isometry import (
    Classification,
    EllipticSpec,
    HyperbolicSpec,
    Isometry,
    conjugate_single,
    equal_by_invariants,
    random_member,
    random_semisimple,
)
from .linalg import (
    EigenData,
    HermitianSpace,
    HMatrix,
    HVector,
    PointType,
    right_eigen,
)
from .pairs import EigenFrame, eigenframe, have_common_fixed_point, pair_conjugate
from .quaternion import DEFAULT_TOL, Quaternion, sp1_align

__all__ = [
    "Classification", "Decision", "DEFAULT_TOL", "DegenerateConfigurationError",
    "DimensionMismatchError", "EigenData", "EigenFrame", "EllipticSpec",
    "HermitianSpace", "HMatrix", "HVector", "HyperbolicSpec",
    "InvalidSpecError", "InvariantProfile", "Isometry", "NotSemisimpleError",
    "NumericalError", "PointConfig", "PointType", "ProjPoint", "QhypError",
    "Quaternion", "SemiNormalizedGram", "UnsupportedElementError", "Verdict",
    "angular_invariant", "congruent", "conjugate_single", "cross_ratio",
    "cross_ratio_triple", "distance_invariant", "eigenframe", "equal_by_invariants",
    "gram_of", "have_common_fixed_point", "orbit_equal", "pair_conjugate", "profile",
    "random_member", "random_semisimple", "reconstruct_gram", "right_eigen",
    "semi_normalize", "sp1_align",
]

__version__ = "0.1.0"

"""Every numerical threshold qhyp decides with, named once.

Each verdict compares a trace, an eigenvalue class or a Gram / cross-ratio
entry with a threshold, so these values are the decision policy.  Names
follow what a threshold decides, not its value: two names may share a value
and still change independently.  The acceptance bounds of ``qhyp.verify``
are not here: they judge these thresholds from outside.
"""

# -- defaults of the public tolerance parameters ----------------------------

#: default absolute tolerance on quaternion components, Hermitian-form values
#: and membership residuals; sampled configurations are built at it
DEFAULT_TOL = 1e-9
#: default of the deciders ``congruent``, ``orbit_equal`` and ``pair_conjugate``
DECIDER_TOL = 1e-7
#: tolerance of the wire decoders: a matrix or configuration read from JSON
#: is checked for membership and point types at it
WIRE_TOL = 1e-8
#: ``qhyp classify`` raises a smaller ``--tol`` to this
CLASSIFY_TOL_FLOOR = 1e-9
#: ``qhyp congruent`` and ``qhyp conjugate-pair`` raise a smaller ``--tol`` to this
DECIDER_TOL_FLOOR = 1e-8

# -- linear algebra ---------------------------------------------------------

#: embedding eigenvalues closer than this (relative) form one similarity class
CLUSTER_RTOL = 1e-7
#: singular values below this (relative to the largest, at least 1) count as
#: zero in rank and null-space decisions
RANK_RTOL = 1e-8
#: a class whose representative has a relative imaginary part at most this is real
REAL_CLASS_RTOL = 1e-9
#: a residual direction below this (relative) is dropped when a quaternionic
#: basis is peeled off a J-closed subspace
BASIS_RANK_RTOL = 1e-10
#: a restricted form with an eigenvalue below this (relative) is degenerate
FORM_DEGENERACY_RTOL = 1e-10
#: largest relative j-part of the restricted form on a nonreal eigenset,
#: which must take values in the complex centralizer
CENTRALIZER_RTOL = 1e-7
#: largest relative drift of an embedding from the quaternionic J-structure
J_STRUCTURE_RTOL = 1e-9
#: the polar iteration onto the group stops once a step moves less than this (relative)
NEWTON_STEP_RTOL = 1e-15
#: the polar iteration onto the group stops after this many steps at most
NEWTON_MAX_STEPS = 50
#: characteristic coefficients: the largest palindrome defect (relative);
#: also the floor of a caller's tolerance for it
CHAR_COEFF_TOL = 1e-9
#: a null pair whose larger modulus is within this of 1 is left unscaled
UNIT_MODULUS_TOL = 1e-12

# -- elements and their conjugacy -------------------------------------------

#: an element with a class of modulus above 1 + this is hyperbolic
HYPERBOLIC_MODULUS_TOL = 1e-8
#: generated semisimple elements are checked for membership at this
GENERATED_MEMBER_TOL = 1e-7
#: random frames with a condition number above this are drawn again
FRAME_COND_MAX = 1e6
#: eigenvalue classes match when moduli (relative) and angles agree within this
CLASS_MATCH_TOL = 1e-7
#: real traces agree within this, relative to their largest entry (at least 1)
TRACE_RTOL = 1e-7
#: eigensets span one subspace when ranks agree at this relative cutoff
SPAN_RTOL = 1e-7
#: largest relative residual of an eigenframe reassembled as C E C^-1
REASSEMBLY_RTOL = 1e-8
#: absolute singular-value cutoff (numpy ``matrix_rank``) of the
#: common-fixed-point test
FIXED_SET_RANK_ATOL = 1e-8
#: normal forms of conjugate first members agree within this (relative)
NORMAL_FORM_RTOL = 1e-6
#: relative singular-value cutoff of the pair intertwiner null space
INTERTWINER_RTOL = 1e-7
#: W is a multiple of a group element when W* H W is within this (relative) of c H, c > 0
GROUP_MULTIPLE_RTOL = 1e-5

# -- configurations and invariants ------------------------------------------

#: ``gram_of`` calls an entry zero, or two negative points coincident, within
#: this many times its tolerance
DEGENERACY_FACTOR = 1e3
#: the residual gauge ignores imaginary parts within this many times DEFAULT_TOL,
#: whatever tolerance the caller decides with, so the canonical gauge is fixed
GAUGE_FLOOR_FACTOR = 1e3
#: largest deviation of a semi-normalized Gram matrix from its entry pattern
PATTERN_TOL = 1e-8
#: largest membership residual of a congruence or pair-conjugacy witness
WITNESS_MEMBER_TOL = 1e-8
#: the null-quadruple relations |X2| = |X1||X3| (relative) and the boundary
#: slack (absolute) hold within this
QUADRUPLE_RELATION_TOL = 1e-8
#: an angular invariant may exceed pi/2 by this before the input is rejected
ANGLE_RANGE_TOL = 1e-9
#: angular invariants at most this many radians count as zero
ANGLE_ZERO_TOL = 1e-9
#: a distance invariant may fall below 1 by this before the input is rejected
DISTANCE_FLOOR_TOL = 1e-9
#: below this, the imaginary part of a Gram entry counts as zero (relative)
ROTATION_ZERO_RTOL = 1e-9
#: a cross-ratio slot agrees with its Gram identity within this (relative)
SLOT_IDENTITY_RTOL = 1e-7
#: redundant X1 slots of a profile agree with the rebuilt ones within this (relative)
SLOT_REDUNDANCY_RTOL = 1e-7
#: the base entry g_23 of a profile has modulus 1 within this
BASE_MODULUS_TOL = 1e-9
#: a reconstructed Gram matrix reproduces its profile's angle a23 within this
ROUND_TRIP_TOL = 1e-7
#: smallest denominator of a normalized pairing or residual
DIVISION_FLOOR = 1e-300

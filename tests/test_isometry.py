import collections
import math
import sys
import threading

import numpy as np
import pytest

from qhyp import linalg
from qhyp.errors import InvalidSpecError, UnsupportedElementError
from qhyp.isometry import (
    Classification,
    EllipticSpec,
    HyperbolicSpec,
    Isometry,
    conjugate_single,
    equal_by_invariants,
    random_member,
    random_semisimple,
)
from qhyp.decision import Verdict
from qhyp.linalg import (HermitianSpace, HMatrix, HVector, PointType, stacked,
                         stacked_from_components)
from qhyp.pairs import REASON_CLASSES, pair_conjugate
from qhyp.quaternion import Quaternion, quaternion_array
from qhyp.sampling import sample_semisimple

ONE = Quaternion.one()
Q0 = Quaternion()


def qv(*entries):
    return HVector(stacked_from_components(quaternion_array(
        q if isinstance(q, Quaternion) else Quaternion.real(q) for q in entries)))


def ball_frame_n1():
    s = 1 / math.sqrt(2)
    return HMatrix.from_columns(stacked([qv(-s, s), qv(s, s)]))


def elliptic_n1(alpha, beta):
    """Elliptic member of Sp(1,1) with negative class e^(i alpha), positive e^(i beta)."""
    C = ball_frame_n1()
    E = HMatrix.diag_complex([np.exp(1j * alpha), np.exp(1j * beta)])
    sp = HermitianSpace(1)
    return Isometry(sp.project_to_group(C @ E @ C.inverse()), sp)


# -- membership and classification -------------------------------------------

def test_membership_examples():
    sp = HermitianSpace(1)
    assert sp.is_member(HMatrix.diag_complex([1.0, 1.0]))
    assert sp.is_member(HMatrix.diag_complex([2.0, 0.5]))
    assert not sp.is_member(HMatrix.diag_complex([2.0, 1.0]))


def test_membership_closed_under_product_and_inverse():
    sp = HermitianSpace(2)
    rng = np.random.default_rng(30)
    for _ in range(25):
        A = random_member(sp, rng)
        B = random_member(sp, rng)
        assert sp.is_member(A @ B, 1e-8)
        assert sp.is_member(A.inverse(), 1e-8)


def test_classify_hyperbolic_diag():
    sp = HermitianSpace(1)
    A = Isometry(HMatrix.diag_complex([2.0, 0.5]), sp)
    assert A.classification is Classification.HYPERBOLIC


def test_classify_elliptic_example():
    # diag(i, i): the vector (-1, 1)/sqrt(2) is a negative i-eigenvector
    sp = HermitianSpace(1)
    A = Isometry(HMatrix.diag_complex([1j, 1j]), sp)
    assert A.classification is Classification.ELLIPTIC
    v = qv(-1 / math.sqrt(2), 1 / math.sqrt(2))
    image = A.matrix.apply(v)
    assert (image - v.times(Quaternion.i())).norm() < 1e-12
    assert sp.herm(v, v).approx_eq(Quaternion.real(-1), 1e-12)


def test_classify_parabolic_heisenberg():
    sp = HermitianSpace(1)
    t = Quaternion(0, 0.7, -0.3, 0.2)
    A = Isometry(HMatrix.from_components(np.array([quaternion_array([ONE, t]),
                                                   quaternion_array([Q0, ONE])])), sp)
    assert A.classification is Classification.PARABOLIC
    with pytest.raises(UnsupportedElementError):
        A.real_trace()
    with pytest.raises(UnsupportedElementError):
        conjugate_single(A, A)


def test_classification_invariant_under_conjugation():
    sp = HermitianSpace(2)
    rng = np.random.default_rng(31)
    A = random_semisimple(Classification.HYPERBOLIC, 2,
                          HyperbolicSpec(1.7, 0.6, (0.9,)), seed=5)
    for _ in range(10):
        C = random_member(sp, rng)
        B = Isometry(sp.project_to_group(C @ A.matrix @ C.inverse()), sp)
        assert B.classification is Classification.HYPERBOLIC


# -- real trace ---------------------------------------------------------------

def test_real_trace_examples():
    sp = HermitianSpace(1)
    np.testing.assert_allclose(Isometry(HMatrix.diag_complex([1.0, 1.0]), sp).real_trace(),
                               [-4], atol=1e-12)
    np.testing.assert_allclose(
        Isometry(HMatrix.diag_complex([2.0, 0.5]), sp).real_trace(), [-5], atol=1e-12)
    np.testing.assert_allclose(
        Isometry(HMatrix.diag_complex([2j, 0.5j]), sp).real_trace(), [0], atol=1e-12)


def test_real_trace_conjugation_invariant():
    sp = HermitianSpace(2)
    rng = np.random.default_rng(32)
    A = random_semisimple(Classification.ELLIPTIC, 2,
                          EllipticSpec((0.5, 1.2, 2.0)), seed=6)
    t0 = A.real_trace()
    for _ in range(10):
        C = random_member(sp, rng)
        B = Isometry(sp.project_to_group(C @ A.matrix @ C.inverse()), sp)
        assert np.max(np.abs(B.real_trace() - t0)) < 1e-8 * max(1, np.max(np.abs(t0)))


# -- single-element conjugacy --------------------------------------------------

def test_conjugate_single_positive():
    sp = HermitianSpace(2)
    rng = np.random.default_rng(33)
    A = random_semisimple(Classification.HYPERBOLIC, 2,
                          HyperbolicSpec(2.0, 0.3, (1.1,)), seed=7)
    C = random_member(sp, rng)
    B = Isometry(sp.project_to_group(C @ A.matrix @ C.inverse()), sp)
    assert conjugate_single(A, B)


def test_conjugate_single_r_differs():
    A = random_semisimple(Classification.HYPERBOLIC, 1, HyperbolicSpec(2.0, 0.0, ()), seed=8)
    B = random_semisimple(Classification.HYPERBOLIC, 1, HyperbolicSpec(3.0, 0.0, ()), seed=9)
    assert not conjugate_single(A, B)


def test_conjugate_single_swapped_negative_class():
    # same class multiset, negative classes swapped: not conjugate
    A = elliptic_n1(0.9, 0.3)
    B = elliptic_n1(0.3, 0.9)
    ta, tb = A.real_trace(), B.real_trace()
    np.testing.assert_allclose(ta, tb, atol=1e-10)  # traces cannot separate them
    assert not conjugate_single(A, B)
    assert conjugate_single(A, A)


def test_conjugate_single_mixed_kinds():
    A = random_semisimple(Classification.HYPERBOLIC, 1, HyperbolicSpec(2.0, 0.4, ()), seed=10)
    B = elliptic_n1(0.9, 0.3)
    assert not conjugate_single(A, B)


# -- equality by invariants -----------------------------------------------------

def test_equal_by_invariants_reflexive():
    A = random_semisimple(Classification.HYPERBOLIC, 2,
                          HyperbolicSpec(1.6, 0.8, (0.5,)), seed=11)
    A2 = Isometry(A.matrix.copy(), A.space)
    assert equal_by_invariants(A, A2)


@pytest.mark.parametrize("kind", [Classification.HYPERBOLIC, Classification.ELLIPTIC])
@pytest.mark.parametrize("shift, separated", [(1e-6, True), (1e-10, False)])
def test_class_match_tol_from_both_sides(kind, shift, separated):
    # CLASS_MATCH_TOL = 1e-7 (relative) is the one class threshold: a normal
    # form moved by 1e-6 separates in every decider that reads the classes, a
    # move of 1e-10 in none.  The same seed gives both elements one frame.
    sp = HermitianSpace(2)
    if kind is Classification.HYPERBOLIC:  # the boost r moves
        specs = [HyperbolicSpec(1.6 * (1 + s), 0.8, (0.5,)) for s in (0.0, shift)]
    else:  # the negative class's angle moves
        specs = [EllipticSpec((0.5 * (1 + s), 1.2, 2.0)) for s in (0.0, shift)]
    A, A2 = (random_semisimple(kind, 2, spec, seed=11, space=sp) for spec in specs)
    assert conjugate_single(A, A2) == conjugate_single(A2, A) == (not separated)
    assert equal_by_invariants(A, A2) == equal_by_invariants(A2, A) == (not separated)
    B = sample_semisimple(sp, np.random.default_rng(36), Classification.HYPERBOLIC)
    dec = pair_conjugate(A, B, A2, B)
    if separated:
        assert (dec.verdict, dec.reason) == (Verdict.NOT_CONJUGATE, REASON_CLASSES)
    else:
        assert dec.verdict is Verdict.CONJUGATE


@pytest.mark.parametrize("kind", [Classification.HYPERBOLIC, Classification.ELLIPTIC])
def test_conjugate_members_list_their_classes_in_one_order(kind):
    # frame order (expanding null, negative, positive, contracting null, by
    # angle within each) does not hang on rounding: A and C A C^-1 list their
    # classes alike, so index k of one is index k of the other
    sp = HermitianSpace(4)
    rng = np.random.default_rng(37)
    for _ in range(100):
        A = sample_semisimple(sp, rng, kind)
        C = random_member(sp, rng)
        B = Isometry(sp.project_to_group(C @ A.matrix @ C.inverse()), sp)
        ea, eb = A.eigen, B.eigen
        assert ea.kinds == eb.kinds
        assert ea.multiplicities.tolist() == eb.multiplicities.tolist()
        assert np.abs(ea.reps - eb.reps).max() <= 1e-7 * max(1.0, np.abs(ea.reps).max())
        positive = [t for t, k in zip(ea.angles, ea.kinds) if k is PointType.POSITIVE]
        assert positive == sorted(positive)
        if kind is Classification.HYPERBOLIC:
            assert (ea.kinds[0], ea.kinds[-1]) == (PointType.NULL, PointType.NULL)
            assert ea.moduli[0] > 1.0 > ea.moduli[-1]
        else:
            assert ea.kinds[0] is PointType.NEGATIVE


def test_equal_by_invariants_negated():
    sp = HermitianSpace(1)
    A = Isometry(HMatrix.diag_complex([2.0, 0.5]), sp)
    B = Isometry(HMatrix.diag_complex([-2.0, -0.5]), sp)
    assert (A.matrix - B.matrix).norm() > 1e-3
    assert not equal_by_invariants(A, B)


def test_equal_by_invariants_eigenvector_rotated_by_j():
    # same frame, same eigenvalue classes, eigensets moved by j: the group's
    # diagonal gauge couples the null pair, so diag(j, j) moves both
    sp = HermitianSpace(1)
    E = HMatrix.diag_complex([2 * np.exp(1j * 0.7), 0.5 * np.exp(1j * 0.7)])
    rng = np.random.default_rng(34)
    C = random_member(sp, rng)
    D = HMatrix.from_components(np.eye(2)[..., None] * Quaternion.j().to_array())  # diag(j, j)
    assert sp.is_member(D, 1e-12)
    A = Isometry(sp.project_to_group(C @ E @ C.inverse()), sp)
    B = Isometry(sp.project_to_group(C @ D @ E @ D.inverse() @ C.inverse()), sp)
    assert (A.matrix - B.matrix).norm() > 1e-6
    assert np.max(np.abs(A.real_trace() - B.real_trace())) < 1e-9
    assert not equal_by_invariants(A, B)


def test_equal_by_invariants_agrees_with_matrix_equality():
    sp = HermitianSpace(2)
    rng = np.random.default_rng(35)
    A = random_semisimple(Classification.HYPERBOLIC, 2,
                          HyperbolicSpec(1.9, 0.4, (1.3,)), seed=12)
    for trial in range(30):
        mode = trial % 3
        if mode == 0:
            B = Isometry(A.matrix.copy(), sp)
        elif mode == 1:
            C = random_member(sp, rng)
            B = Isometry(sp.project_to_group(C @ A.matrix @ C.inverse()), sp)
        else:
            B = random_semisimple(Classification.HYPERBOLIC, 2,
                                  HyperbolicSpec(1.9 + 0.01 * (trial + 1), 0.4, (1.3,)),
                                  seed=100 + trial)
        same_matrix = (A.matrix - B.matrix).norm() <= 1e-7 * max(1.0, A.matrix.norm())
        assert equal_by_invariants(A, B) == same_matrix


# -- random generation -----------------------------------------------------------

def test_random_semisimple_trace_matches_normal_form():
    A = random_semisimple(Classification.HYPERBOLIC, 1, HyperbolicSpec(2.0, 0.0, ()), seed=13)
    np.testing.assert_allclose(A.real_trace(), [-5.0], atol=1e-9)


def test_random_semisimple_identity_spec():
    A = random_semisimple(Classification.ELLIPTIC, 2, EllipticSpec((0.0, 0.0, 0.0)), seed=14)
    assert (A.matrix - HMatrix.diag_complex(np.ones(3))).norm() < 1e-8


def test_random_semisimple_two_seeds_conjugate():
    spec = HyperbolicSpec(1.8, 0.5, (0.7,))
    A = random_semisimple(Classification.HYPERBOLIC, 2, spec, seed=15)
    B = random_semisimple(Classification.HYPERBOLIC, 2, spec, seed=16)
    assert conjugate_single(A, B)
    assert not equal_by_invariants(A, B)


def test_random_semisimple_rejects_bad_spec():
    with pytest.raises(InvalidSpecError):
        random_semisimple(Classification.HYPERBOLIC, 1, HyperbolicSpec(0.5, 0.0, ()), seed=1)
    with pytest.raises(InvalidSpecError):
        random_semisimple(Classification.ELLIPTIC, 1, EllipticSpec((0.1,)), seed=1)


def test_random_member_determinism():
    sp = HermitianSpace(2)
    A = random_member(sp, np.random.default_rng(99))
    B = random_member(sp, np.random.default_rng(99))
    assert (A - B).norm() == 0.0


def test_lazy_decomposition_can_be_shared_between_threads():
    # threads race to the first read of fresh members, each through another
    # attribute; every read must see a whole decomposition
    sp = HermitianSpace(2)
    matrices = [random_semisimple(Classification.HYPERBOLIC, 2, HyperbolicSpec(1.6, 0.7, (1.9,)),
                                  seed=5, space=sp).matrix,
                random_semisimple(Classification.ELLIPTIC, 2, EllipticSpec((0.4, 1.2, 2.5)),
                                  seed=6, space=sp).matrix]
    readers = [lambda x: x.real_trace(), lambda x: x.eigen.moduli, lambda x: x.classification,
               lambda x: x.eigen.reps]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            members = [Isometry(M, sp) for M in matrices]
            errors = []

            def read(k):
                try:
                    for x in members:
                        readers[k % len(readers)](x)
                except Exception as exc:  # recorded for the assertion below
                    errors.append(exc)

            threads = [threading.Thread(target=read, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
    finally:
        sys.setswitchinterval(interval)


def test_regular_isometry_decomposes_once(monkeypatch):
    # one eig of the embedding yields the classes, their vectors and the real
    # trace, on first use; no second eigenvalue solve and no SVD for simple
    # classes
    sp = HermitianSpace(4)
    specs = [(Classification.HYPERBOLIC, HyperbolicSpec(1.8, 0.6, (0.4, 1.1, 2.0))),
             (Classification.ELLIPTIC, EllipticSpec((0.3, 0.9, 1.5, 2.2, 2.8)))]
    for kind, spec in specs:
        M = random_semisimple(kind, 4, spec, seed=9, space=sp).matrix
        calls = collections.Counter()
        with monkeypatch.context() as mp:
            for name in ("eig", "eigvals", "eigh", "eigvalsh", "svd"):
                def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                    calls[_name] += 1
                    return _real(*args, **kwargs)
                mp.setattr(linalg.np.linalg, name, counted)
            A = Isometry(M, sp)
            got, mults, trace = A.classification, A.eigen.multiplicities, A.real_trace()
        assert got is kind
        assert mults.tolist() == [1] * 5
        assert trace.shape == (4,)
        assert calls["eig"] == 1
        assert sum(calls.values()) == 1, dict(calls)

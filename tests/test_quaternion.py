import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qhyp.quaternion import (
    ONE,
    Quaternion,
    canonical_sign,
    qconj_array,
    complex_pairs,
    from_complex_pairs,
    left_matrix,
    qmul_array,
    right_matrix,
    rotation_matrix,
    sp1_align,
)

I, J, K = Quaternion.i(), Quaternion.j(), Quaternion(0, 0, 0, 1)


def random_quaternion(rng, scale=1.0):
    return Quaternion.from_seq(rng.uniform(-scale, scale, 4))


def random_unit(rng):
    q = Quaternion.from_seq(rng.normal(size=4))
    return q.unit()


# -- basic algebra ----------------------------------------------------------

def test_multiplication_table():
    assert (I * J).approx_eq(K)
    assert (J * K).approx_eq(I)
    assert (K * I).approx_eq(J)
    assert (J * I).approx_eq(-K)
    assert (I * I).approx_eq(Quaternion.real(-1))
    assert (I * J * K).approx_eq(Quaternion.real(-1))


def test_conj_and_norm():
    rng = np.random.default_rng(0)
    for _ in range(100):
        q = random_quaternion(rng, 3.0)
        n2 = q.norm_sq()
        assert (q.conj() * q).approx_eq(Quaternion.real(n2), 1e-12 * max(1, n2))
        assert (q * q.conj()).approx_eq(Quaternion.real(n2), 1e-12 * max(1, n2))
        assert (q.re + 0.0) == q.a0
        assert (q.im() + Quaternion.real(q.re)).approx_eq(q)


def test_inverse():
    rng = np.random.default_rng(1)
    for _ in range(50):
        q = random_quaternion(rng, 2.0)
        if q.norm() < 1e-6:
            continue
        assert (q * q.inverse()).approx_eq(ONE, 1e-10)
        assert (q.inverse() * q).approx_eq(ONE, 1e-10)


def test_complex_pair_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(50):
        q = random_quaternion(rng, 2.0)
        z1, z2 = q.complex_pair()
        assert Quaternion.from_complex_pair(z1, z2).approx_eq(q, 1e-15)
    # j * z2 convention: j has pair (0, 1)
    assert J.complex_pair() == (0j, 1 + 0j)
    assert K.complex_pair() == (0j, -1j)
    # the array form splits every entry the same way and inverts exactly
    a = rng.normal(size=(3, 2, 4))
    z1, z2 = complex_pairs(a)
    assert np.array_equal(z1, a[..., 0] + 1j * a[..., 1])
    assert np.array_equal(z2, a[..., 2] - 1j * a[..., 3])
    assert from_complex_pairs(z1, z2).tobytes() == a.tobytes()
    for idx in np.ndindex(3, 2):
        assert Quaternion.from_seq(a[idx]).complex_pair() == (z1[idx], z2[idx])


def test_multiplication_matrices_batch():
    rng = np.random.default_rng(3)
    q, p = rng.normal(size=(2, 5, 3, 4))
    np.testing.assert_allclose(left_matrix(q) @ p[..., None], qmul_array(q, p)[..., None],
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(right_matrix(q) @ p[..., None], qmul_array(p, q)[..., None],
                               rtol=0, atol=1e-14)


@pytest.mark.parametrize("shape", [(4,), (5, 5, 4), (2, 3, 1, 4)])
def test_multiplication_tables_match_hamilton_product(shape):
    # column c of each table is the product with the c-th basis unit, exactly
    q = np.random.default_rng(4).normal(size=shape)
    for c, unit in enumerate(np.eye(4)):
        assert np.array_equal(left_matrix(q)[..., c], qmul_array(q, unit))
        assert np.array_equal(right_matrix(q)[..., c], qmul_array(unit, q))


# -- similarity -------------------------------------------------------------

def test_similar_examples():
    # one quaternion is conjugate to another exactly when norm and real part agree
    for a, b in ((I, J), (I, -I), (Quaternion(1, 2, 3, 4), Quaternion(1, 0, 0, math.sqrt(29)))):
        mu = align([b], [a])
        assert mu is not None and (mu.conj() * a * mu).approx_eq(b, 1e-12)
    assert align([Quaternion(1, -1) + Quaternion.real(0.001)], [Quaternion(1, 1)]) is None


def test_similar_under_conjugation():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        a = random_quaternion(rng, 2.0)
        c = random_quaternion(rng, 2.0)
        if c.norm() < 1e-3:
            continue
        b = c.inverse() * a * c
        assert abs(a.re - b.re) <= 1e-9 and abs(a.norm() - b.norm()) <= 1e-9


# -- rotation helpers -------------------------------------------------------

def test_rotation_matrix_identity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = random_unit(rng)
        R = rotation_matrix(q)
        x = rng.normal(size=(5, 3))
        pure = np.concatenate([np.zeros((5, 1)), x], axis=1)
        sandwich = qmul_array(qmul_array(q.to_array(), pure), qconj_array(q.to_array()))
        np.testing.assert_allclose(x @ R.T, sandwich[:, 1:], atol=1e-12)
        np.testing.assert_allclose(sandwich[:, 0], 0.0, atol=1e-12)
        np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def test_rotation_matrix_stacks_component_arrays_bitwise():
    # a (..., 4) array gives the per-quaternion matrices, stacked, bit for bit
    rng = np.random.default_rng(6)
    qs = rng.normal(size=(2, 5, 4))
    qs /= np.linalg.norm(qs, axis=-1, keepdims=True)
    stacked = rotation_matrix(qs)
    assert stacked.shape == (2, 5, 3, 3)
    for index in np.ndindex(2, 5):
        assert np.array_equal(stacked[index], rotation_matrix(Quaternion(*qs[index])))


# -- sp1_align --------------------------------------------------------------

def align(v, w, *tol):
    """sp1_align on lists of quaternions."""
    return sp1_align(np.array([q.to_array() for q in v]),
                     np.array([q.to_array() for q in w]), *tol)


def test_align_identity():
    mu = align([I, J], [I, J])
    assert mu is not None
    assert min((mu - ONE).norm(), (mu + ONE).norm()) < 1e-9


def test_align_cyclic_example():
    # Solve conj(mu) i mu = j and conj(mu) j mu = -i. Direct computation gives
    # mu = (1 - k)/sqrt(2): a quarter turn of the imaginary space about k.
    mu_expect = Quaternion(1, 0, 0, -1) / math.sqrt(2)
    assert (mu_expect.conj() * I * mu_expect).approx_eq(J, 1e-12)
    assert (mu_expect.conj() * J * mu_expect).approx_eq(-I, 1e-12)
    mu = align([J, -I], [I, J])
    assert mu is not None
    assert min((mu - mu_expect).norm(), (mu + mu_expect).norm()) < 1e-9
    # The permutation mu q conj(mu) for mu = (1+i+j+k)/2 cycles i -> j -> k,
    # which in this solver's orientation is the conjugate alignment.
    mu_cyc = Quaternion(1, 1, 1, 1) / 2
    mu2 = align([(mu_cyc.conj() * q * mu_cyc) for q in (I, J)], [I, J])
    assert mu2 is not None
    assert min((mu2 - mu_cyc).norm(), (mu2 + mu_cyc).norm()) < 1e-9


def test_align_absent():
    assert align([I, I], [I, J]) is None
    # matching reals/norms but incompatible mutual angles
    v = [I, J]
    w = [I, (I + J).unit()]
    assert align(v, w) is None


def test_align_degenerate_collinear():
    # single nonreal component: circle of solutions, canonical one is minimal
    mu = align([J], [I])
    assert mu is not None
    assert (mu.conj() * I * mu).approx_eq(J, 1e-12)
    # minimal rotation from i to j is by pi/2 about k: |Re mu| = cos(pi/4)
    assert abs(mu.a0) == pytest.approx(math.cos(math.pi / 4), abs=1e-12)
    # directions 6e-8 rad apart on a large imaginary part: too far apart to
    # treat as one direction, since the turn moves w by 3.4e-7
    w = Quaternion(0, 4, 1.2e-7, 1.2e-7)
    v = I.conj() * w * I
    mu = align([v], [w])
    assert mu is not None and (mu.conj() * w * mu).approx_eq(v, 1e-9)


def test_align_degenerate_antipodal():
    mu = align([-I], [I])
    assert mu is not None
    assert (mu.conj() * I * mu).approx_eq(-I, 1e-12)
    # 1 and i are orthogonal to the solutions span{j, k}: j is projected next
    assert mu.approx_eq(J, 1e-12)


def test_align_within_tolerance_of_real_data():
    # imaginary noise inside the certification bound on real data: all four
    # singular values tie above tol * scale, so the least-squares vector
    # alone would be an arbitrary unit quaternion
    w = np.array([[2.0, 0, 0, 0], [-1.0, 0, 0, 0]])
    v = w + [0, 1.8e-9, 0, 0]  # sqrt(2) * 1.8e-9 > tol * scale = 2e-9
    mu = sp1_align(v, w)
    assert mu is not None and mu.approx_eq(ONE, 1e-15)


@pytest.mark.parametrize("factor,accepted", [(0.5, True), (2.0, False)])
def test_align_certificate_at_its_threshold(factor, accepted):
    # ten copies each of i and j pin mu, and k turned by an angle that moves
    # it by factor * tol keeps its real part and norm: only the final check
    # can refuse it, and it refuses twice the tolerance, not half
    tol = 1e-7
    mu0 = random_unit(np.random.default_rng(5)).to_array()
    w = np.array([I.to_array()] * 10 + [J.to_array()] * 10 + [K.to_array()])
    v = qmul_array(qmul_array(qconj_array(mu0), w), mu0)
    half = math.asin(factor * tol / 2.0)
    axis = np.cross(v[-1, 1:], v[0, 1:])
    turn = np.concatenate([[math.cos(half)], math.sin(half) * axis / np.linalg.norm(axis)])
    v[-1] = qmul_array(qmul_array(turn, v[-1]), qconj_array(turn))
    mu = sp1_align(v, w, tol)
    assert (mu is not None) == accepted
    if accepted:
        assert min((mu - Quaternion.from_seq(mu0)).norm(), (mu + Quaternion.from_seq(mu0)).norm()) < 1e-7


def test_align_all_real():
    mu = align([Quaternion.real(2), Quaternion.real(-1)],
                   [Quaternion.real(2), Quaternion.real(-1)])
    assert mu is not None and mu.approx_eq(ONE)


def test_align_sign_equivalence():
    rng = np.random.default_rng(6)
    for _ in range(100):
        mu0 = random_unit(rng)
        w = [random_quaternion(rng, 2.0) for _ in range(3)]
        v = [mu0.conj() * q * mu0 for q in w]
        mu = align(v, w)
        assert mu is not None
        for vk, wk in zip(v, w):
            assert (mu.conj() * wk * mu).approx_eq(vk, 1e-9)
            assert ((-mu).conj() * wk * (-mu)).approx_eq(vk, 1e-9)


def brute_force_align(v, w, samples, rng, residual_tol):
    """Oracle: sample unit quaternions and report the best conjugator found."""
    mus = rng.normal(size=(samples, 4))
    mus /= np.linalg.norm(mus, axis=1, keepdims=True)
    warr = np.array([q.to_array() for q in w])
    varr = np.array([q.to_array() for q in v])
    conj = qmul_array(qmul_array(qconj_array(mus)[:, None, :], warr[None, :, :]),
                      mus[:, None, :])
    resid = np.max(np.linalg.norm(conj - varr[None, :, :], axis=2), axis=1)
    best = int(np.argmin(resid))
    return float(resid[best]), Quaternion.from_seq(mus[best])


def make_unsolvable_instance(rng):
    """Two components with matching reals/norms but distorted mutual angle.

    No rotation can fix the angle between imaginary parts, so the best
    residual over all unit quaternions stays bounded away from zero.
    """
    w1 = Quaternion.from_vector(rng.normal(), [1.0, 0.0, 0.0])
    w2 = Quaternion.from_vector(rng.normal(), [0.0, 1.0, 0.0])
    # v keeps componentwise norms but collapses the right angle to ~0.2 rad
    v1 = Quaternion.from_vector(w1.re, [1.0, 0.0, 0.0])
    v2 = Quaternion.from_vector(w2.re, [math.cos(0.2), math.sin(0.2), 0.0])
    return [v1, v2], [w1, w2]


def test_align_agrees_with_brute_force():
    rng = np.random.default_rng(7)
    for case in range(30):
        if case % 2 == 0:
            k = int(rng.integers(1, 4))
            mu0 = random_unit(rng)
            w = [random_quaternion(rng, 1.5) for _ in range(k)]
            v = [mu0.conj() * q * mu0 for q in w]
        else:
            v, w = make_unsolvable_instance(rng)
        mu = align(v, w, 1e-7)
        best_resid, _ = brute_force_align(v, w, 20000, rng, 0.1)
        if mu is not None:
            for vk, wk in zip(v, w):
                assert (mu.conj() * wk * mu).approx_eq(vk, 1e-7)
            # oracle grid is coarse; it only needs to land near the solution
            assert best_resid < 0.6
        else:
            # constructed obstruction keeps every conjugation far away
            assert best_resid > 0.05


def test_canonical_sign():
    q = Quaternion(-1, 2, 0, 0)
    assert canonical_sign(q).a0 > 0
    q = Quaternion(0, -1, 0, 0)
    assert canonical_sign(q).a1 > 0


# -- sp1_align properties -----------------------------------------------------------

ALIGN_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def alignment_instances(draw, ranks=(0, 1, 3)):
    """(mu0, w, rank): a unit mu0 and k = 1..5 components at one scale in
    1e-3..1e3 whose imaginary parts span a subspace of the drawn rank.

    The first ``rank`` imaginary parts are rows of 4 I + B with B in
    [-0.5, 0.5], so they are well conditioned and pairwise 61..119 degrees
    apart; the rest are real combinations of them.
    """
    rank = draw(st.sampled_from(ranks))
    k = draw(st.integers(max(1, rank), 5))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    mu0 = draw(hnp.arrays(float, 4, elements=st.floats(-1.0, 1.0)).filter(
        lambda c: np.linalg.norm(c) > 0.1))
    reals = draw(hnp.arrays(float, k, elements=st.floats(-1.0, 1.0)))
    basis = 4.0 * np.eye(3)[:rank] + draw(
        hnp.arrays(float, (rank, 3), elements=st.floats(-0.5, 0.5)))
    coeffs = np.eye(k, rank)
    coeffs[rank:] = draw(hnp.arrays(float, (k - rank, rank), elements=st.floats(-1.0, 1.0)))
    w = scale * np.concatenate([reals[:, None], coeffs @ basis], axis=1)
    return mu0 / np.linalg.norm(mu0), w, rank


def conjugated(mu, w):
    """The components of conj(mu) * w_k * mu."""
    return qmul_array(qmul_array(qconj_array(mu), w), mu)


@ALIGN_SETTINGS
@given(alignment_instances())
def test_align_finds_exact_conjugates(instance):
    mu0, w, _ = instance
    v = conjugated(mu0, w)
    mu = sp1_align(v, w)
    assert mu is not None
    assert mu.norm() == pytest.approx(1.0, abs=1e-12)
    resid = np.linalg.norm(conjugated(mu.to_array(), w) - v, axis=1)
    assert np.all(resid <= 1e-9 * max(1.0, float(np.max(np.linalg.norm(v, axis=1)))))


@ALIGN_SETTINGS
@given(alignment_instances(ranks=(0, 1)))
def test_align_degenerate_returns_closest_to_one(instance):
    mu0, w, rank = instance
    v = conjugated(mu0, w)
    mu = sp1_align(v, w)
    if rank == 0:
        assert mu.approx_eq(ONE, 1e-12)
    else:
        # the solutions closest to 1 turn w's direction onto v's by the least angle
        d, e = w[0, 1:], v[0, 1:]
        angle = math.atan2(np.linalg.norm(np.cross(d, e)), np.dot(d, e))
        assert abs(mu.a0) == pytest.approx(math.cos(angle / 2), abs=1e-9)


@ALIGN_SETTINGS
@given(alignment_instances(ranks=(2, 3)), st.floats(1e-3, 0.5))
def test_align_rejects_turned_direction(instance, angle):
    mu0, w, _ = instance
    v = conjugated(mu0, w)
    # turn v_0 away from v_1 in their plane: the angle between them grows by
    # ``angle``, which no conjugation can do; reals and norms are unchanged
    axis = np.cross(v[1, 1:], v[0, 1:])
    turn = np.concatenate([[math.cos(angle / 2)],
                           math.sin(angle / 2) * axis / np.linalg.norm(axis)])
    v[0] = qmul_array(qmul_array(turn, v[0]), qconj_array(turn))
    assert sp1_align(v, w) is None

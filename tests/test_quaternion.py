import math

import numpy as np
import pytest

from qhyp.quaternion import (
    ONE,
    Quaternion,
    SimilarityClass,
    canonical_sign,
    centralizer_contains,
    polar_decompose,
    qconj_array,
    complex_pairs,
    from_complex_pairs,
    left_matrix,
    qmul_array,
    right_matrix,
    quaternion_from_rotation,
    rotation_matrix,
    similar,
    sp1_align,
)

I, J, K = Quaternion.i(), Quaternion.j(), Quaternion.k()


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


# -- polar form -------------------------------------------------------------

def test_polar_examples():
    p = polar_decompose(ONE)
    assert p.modulus == pytest.approx(1.0) and p.angle == pytest.approx(0.0)
    assert p.axis.is_zero()

    p = polar_decompose(I)
    assert p.modulus == pytest.approx(1.0)
    assert p.angle == pytest.approx(math.pi / 2)
    assert p.axis.approx_eq(I)

    # cos(theta) = a0/|a| = 1/2 for 1+i+j+k
    p = polar_decompose(Quaternion(1, 1, 1, 1))
    assert p.modulus == pytest.approx(2.0)
    assert p.angle == pytest.approx(math.pi / 3)
    assert p.axis.approx_eq(Quaternion(0, 1, 1, 1) / math.sqrt(3), 1e-12)
    assert p.value().approx_eq(Quaternion(1, 1, 1, 1), 1e-12)


def test_polar_negative_real():
    p = polar_decompose(Quaternion.real(-2.5))
    assert p.angle == pytest.approx(math.pi)
    assert p.axis.is_zero()
    assert p.value().approx_eq(Quaternion.real(-2.5), 1e-12)


def test_polar_reconstruction_random():
    rng = np.random.default_rng(3)
    for _ in range(500):
        q = random_quaternion(rng, 5.0)
        if q.norm() < 1e-12:
            continue
        err = (polar_decompose(q).value() - q).norm() / q.norm()
        assert err < 1e-12


# -- similarity -------------------------------------------------------------

def test_similar_examples():
    assert similar(I, J)
    assert similar(I, -I)
    assert not similar(Quaternion(1, 1), Quaternion(1, -1) + Quaternion.real(0.001), 1e-9)


def test_similar_under_conjugation():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        a = random_quaternion(rng, 2.0)
        c = random_quaternion(rng, 2.0)
        if c.norm() < 1e-3:
            continue
        assert similar(a, c.inverse() * a * c, 1e-9)


def test_similarity_class_representative():
    cls = SimilarityClass.from_quaternion(Quaternion(1, 1, 1, 1))
    z = cls.representative
    assert abs(z) == pytest.approx(2.0)
    assert z.real == pytest.approx(1.0)
    assert cls.matches(SimilarityClass.from_quaternion(Quaternion(1, math.sqrt(3), 0, 0)))


# -- centralizer ------------------------------------------------------------

def test_centralizer_examples():
    assert centralizer_contains(I, Quaternion(3, 2))
    assert not centralizer_contains(I, J)
    assert centralizer_contains(J, Quaternion(1, 0, -5, 0))
    with pytest.raises(ValueError):
        centralizer_contains(Quaternion.real(2.0), I)


# -- rotation helpers -------------------------------------------------------

def test_rotation_matrix_identity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = random_unit(rng)
        R = rotation_matrix(q)
        x = rng.normal(size=3)
        direct = (q * Quaternion.from_vector(0, x) * q.conj()).imag_vec()
        np.testing.assert_allclose(R @ x, direct, atol=1e-12)
        # Shepperd inversion recovers q up to sign
        q2 = quaternion_from_rotation(R)
        assert min((q2 - q).norm(), (q2 + q).norm()) < 1e-10


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


def test_align_degenerate_antipodal():
    mu = align([-I], [I])
    assert mu is not None
    assert (mu.conj() * I * mu).approx_eq(-I, 1e-12)


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

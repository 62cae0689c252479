import collections
import dataclasses
import math

import numpy as np
import pytest

from qhyp.errors import NotSemisimpleError, QhypError
from qhyp.isometry import (
    Classification,
    EllipticSpec,
    HyperbolicSpec,
    Isometry,
    decompose,
    random_member,
    random_semisimple,
)
from qhyp import gram, linalg
from qhyp.errors import NumericalError
from qhyp.linalg import (
    CLUSTER_RTOL,
    HermitianSpace,
    HMatrix,
    HVector,
    PointType,
    line_residuals,
    nullspace,
    _clusters,
    _links,
    _eigenspace_basis,
    _form_blocks,
    _self_pairings,
    _times_j,
    _type_and_normalize,
    class_char_coeffs,
    components_from_stacked,
    orthonormal_form_basis,
    point_types,
    right_eigen,
    right_times,
    stacked,
    stacked_from_components,
    two_columns,
)
from qhyp.pairs import eigenframe
from qhyp.quaternion import (Quaternion, complex_pairs, from_complex_pairs, qconj_array,
                             quaternion_array)
from qhyp.gram import SemiNormalizedGram, _form_perp_basis
from qhyp.tolerances import (CHAR_COEFF_TOL, DIVISION_FLOOR, NEWTON_MAX_STEPS, NEWTON_STEP_RTOL,
                             UNIT_MODULUS_TOL)
from qhyp.sampling import (random_elliptic_spec, random_hyperbolic_spec, sample_pair,
                           sample_semisimple)

HYP, ELL = Classification.HYPERBOLIC, Classification.ELLIPTIC
I, J, K = Quaternion.i(), Quaternion.j(), Quaternion(0, 0, 0, 1)
ONE = Quaternion.one()
Q0 = Quaternion()


def qv(*entries):
    return HVector(stacked_from_components(quaternion_array(
        q if isinstance(q, Quaternion) else Quaternion.real(q) for q in entries)))


def qm(grid):
    """The HMatrix of a square grid of quaternions."""
    return HMatrix.from_components(np.array([quaternion_array(row) for row in grid]))


def entries_of(v):
    """The entries of an HVector as quaternions."""
    return [Quaternion(*c) for c in components_from_stacked(v.s).tolist()]


def class_vectors(data, k):
    """The pinned eigenset of class k of EigenData ``data``, as HVectors."""
    return [HVector(x) for x in data.vectors[:, data.starts[k]:data.starts[k + 1]].T]


def random_hmatrix(rng, N, scale=1.0):
    return HMatrix.from_components(rng.uniform(-scale, scale, (N, N, 4)))


def random_hvector(rng, N, scale=1.0):
    return HVector(stacked_from_components(rng.uniform(-scale, scale, (N, 4))))


def grid_of(A):
    """The entries of an HMatrix as a grid of quaternions."""
    return [[Quaternion(*c) for c in row] for row in A.components().tolist()]


def identity(N):
    return HMatrix.diag_complex(np.ones(N))


# -- embedding -------------------------------------------------------------

def test_embed_scalars():
    # 1x1 matrix [j] embeds to [[0, -1], [1, 0]]
    M = qm([[J]])
    np.testing.assert_allclose(M.emb, np.array([[0, -1], [1, 0]], dtype=complex))
    Mi = qm([[I]])
    np.testing.assert_allclose(Mi.emb, np.diag([1j, -1j]))


def test_embed_identity():
    n = 2
    M = identity(n + 1)
    np.testing.assert_allclose(M.emb, np.eye(2 * (n + 1)))


def test_embed_multiplicative():
    rng = np.random.default_rng(10)
    for _ in range(20):
        A = random_hmatrix(rng, 3)
        B = random_hmatrix(rng, 3)
        lhs = (A @ B).emb
        rhs = A.emb @ B.emb
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_embed_star_and_grid_roundtrip():
    rng = np.random.default_rng(11)
    A = random_hmatrix(rng, 3)
    grid = grid_of(A)
    again = qm(grid)
    assert np.max(np.abs(A.emb - again.emb)) < 1e-14
    # the component array round-trips bit for bit, signed zeros included
    comps = rng.uniform(-1.0, 1.0, (3, 3, 4))
    comps[0, 1] = [-0.0, 0.0, -0.0, -0.0]
    comps[2, 0, 1:] = [-0.0, 0.0, -0.0]
    back = HMatrix.from_components(comps).components()
    assert back.tobytes() == comps.tobytes()
    assert components_from_stacked(stacked_from_components(comps[0])).tobytes() == \
        comps[0].tobytes()
    assert np.array_equal([[q.to_array() for q in row] for row in grid], A.components())
    # the embedding's conjugate transpose is the entrywise conjugate transpose
    S = grid_of(HMatrix(A.emb.conj().T))
    for r in range(3):
        for c in range(3):
            assert S[r][c].approx_eq(grid[c][r].conj(), 1e-14)


def _component_bits(quaternions) -> bytes:
    qs = list(quaternions)
    assert all(type(x) is float for q in qs for x in (q.a0, q.a1, q.a2, q.a3))
    return np.array([(q.a0, q.a1, q.a2, q.a3) for q in qs]).tobytes()


def test_quaternion_grids_are_the_from_seq_grids_bitwise():
    # the grids read their components off one tolist(); every entry is the
    # per-entry from_seq quaternion byte for byte, signed zeros included
    rng = np.random.default_rng(14)
    comps = rng.normal(size=(4, 4, 4))
    comps[rng.uniform(size=comps.shape) < 0.2] = 0.0
    comps[rng.uniform(size=comps.shape) < 0.2] = -0.0
    A = HMatrix.from_components(comps)
    grid = SemiNormalizedGram(4, 4, A.components()).entries
    assert [len(row) for row in grid] == [4] * 4
    assert _component_bits(q for row in grid for q in row) == _component_bits(
        Quaternion.from_seq(c) for row in A.components() for c in row)
    assert np.any((A.components() == 0.0) & np.signbit(A.components()))


@pytest.mark.parametrize("n", range(1, 9))
def test_from_components_is_the_block_embedding_bitwise(n):
    # signed zeros included: the filled array is np.block's byte for byte
    rng = np.random.default_rng(30 + n)
    a = rng.normal(size=(n + 1, n + 1, 4))
    a[rng.uniform(size=a.shape) < 0.2] = 0.0
    a[rng.uniform(size=a.shape) < 0.2] = -0.0
    A1, A2 = complex_pairs(a)
    ref = np.block([[A1, -np.conj(A2)], [A2, np.conj(A1)]])
    assert HMatrix.from_components(a).emb.tobytes() == ref.tobytes()


def test_matrix_vector_action_matches_entries():
    rng = np.random.default_rng(12)
    A = random_hmatrix(rng, 3)
    v = random_hvector(rng, 3)
    image = entries_of(A.apply(v))
    grid = grid_of(A)
    ve = entries_of(v)
    for r in range(3):
        direct = Quaternion()
        for c in range(3):
            direct = direct + grid[r][c] * ve[c]
        assert image[r].approx_eq(direct, 1e-12)


def test_right_scalar_action():
    rng = np.random.default_rng(13)
    v = random_hvector(rng, 3)
    q = Quaternion.from_seq(rng.uniform(-1, 1, 4))
    scaled = entries_of(v.times(q))
    for ve, se in zip(entries_of(v), scaled):
        assert se.approx_eq(ve * q, 1e-12)
    assert entries_of(HVector(_times_j(v.s)))[0].approx_eq(entries_of(v)[0] * J, 1e-12)


@pytest.mark.parametrize("N,m", [(2, 3), (3, 5), (5, 8), (9, 12)])
def test_stacked_arrays_match_the_per_vector_results_bitwise(N, m):
    # the (2N, m) array forms of the right action, the component codec, the
    # two-column embedding and the pairings give bit for bit what one
    # HVector at a time gives
    rng = np.random.default_rng(40 + N)
    vectors = [random_hvector(rng, N, 10.0 ** rng.uniform(-6, 6)) for _ in range(m)]
    S = stacked(vectors)
    lam = rng.uniform(-1, 1, (m, 4)) * 10.0 ** rng.uniform(-6, 6, (m, 1))
    one = Quaternion.from_seq(rng.uniform(-1, 1, 4))
    each, common = right_times(S, *complex_pairs(lam)), right_times(S, *one.complex_pair())
    comps = components_from_stacked(S)
    for k, v in enumerate(vectors):
        assert np.array_equal(each[:, k], v.times(Quaternion.from_seq(lam[k])).s)
        assert np.array_equal(common[:, k], v.times(one).s)
        assert np.array_equal(comps[k], components_from_stacked(v.s))
    assert np.array_equal(stacked_from_components(comps), S)
    per_vector = np.concatenate([np.stack([v.s, _times_j(v.s)], axis=1) for v in vectors],
                                axis=1)
    assert np.array_equal(two_columns(S), per_vector)
    sp = HermitianSpace(N - 1)
    # H is a permutation matrix: H S is S with its rows permuted
    A = per_vector.conj().T @ per_vector[sp.perm, 0::2]
    ref = from_complex_pairs(A[0::2], A[1::2])
    g = sp.pairings(S)
    assert np.array_equal(g, 0.5 * (ref + qconj_array(ref).transpose(1, 0, 2)))
    for k, j in [(0, 1), (m - 1, 0), (2, 2)]:
        gap = (Quaternion.from_seq(g[k, j]) - sp.herm(vectors[j], vectors[k])).norm()
        assert gap <= 1e-14 * vectors[j].norm() * vectors[k].norm()


# -- Hermitian form ---------------------------------------------------------

def test_corner_form_n1_values():
    sp = HermitianSpace(1)
    o = qv(0, 1)
    inf = qv(1, 0)
    assert sp.herm(o, inf).approx_eq(ONE, 1e-14)
    assert sp.herm(o, o).approx_eq(Q0, 1e-14)
    w = qv(-1 / math.sqrt(2), 1 / math.sqrt(2))
    assert sp.herm(w, w).approx_eq(Quaternion.real(-1), 1e-14)


def corner_form(sp):
    """The space's form as a dense matrix, read off its permutation."""
    return np.eye(sp.dim)[sp.perm[:sp.dim]]


def embedded_form(sp):
    """The embedding diag(H, H) of the space's form as a dense permutation matrix."""
    return np.eye(2 * sp.dim)[sp.perm]


@pytest.mark.parametrize("n", range(1, 9))
def test_corner_form_has_signature_n_1(n):
    # HermitianSpace takes this form as given, so its values and signature are checked here
    sp = HermitianSpace(n)
    H, N = corner_form(sp), n + 1
    want = np.eye(N)
    want[[0, N - 1]] = want[[N - 1, 0]]  # ones at (0, N-1), (N-1, 0), identity middle
    np.testing.assert_array_equal(H, want)
    eigs = np.linalg.eigvalsh(H)
    assert (np.sum(eigs > 0.5), np.sum(eigs < -0.5)) == (n, 1)
    zero = np.zeros_like(H)
    np.testing.assert_array_equal(embedded_form(sp), np.block([[H, zero], [zero, H]]))


def test_herm_symmetry_and_sesquilinearity():
    rng = np.random.default_rng(14)
    sp = HermitianSpace(2)
    for _ in range(50):
        z = random_hvector(rng, 3)
        w = random_hvector(rng, 3)
        a = Quaternion.from_seq(rng.uniform(-1, 1, 4))
        b = Quaternion.from_seq(rng.uniform(-1, 1, 4))
        assert sp.herm(z, w).approx_eq(sp.herm(w, z).conj(), 1e-12)
        lhs = sp.herm(z.times(a), w.times(b))
        rhs = b.conj() * sp.herm(z, w) * a
        assert lhs.approx_eq(rhs, 1e-11)


def _types(sp, vectors):
    """The point types of vectors, read off the diagonal of one pairings product."""
    S = stacked(vectors)
    return point_types(np.diagonal(sp.pairings(S)[..., 0]), np.linalg.norm(S, axis=0) ** 2)


def test_point_types_of_one_vector():
    sp = HermitianSpace(1)
    assert _types(sp, [qv(0, 1)]) == [PointType.NULL]
    assert _types(sp, [qv(-1, 1)]) == [PointType.NEGATIVE]
    sp2 = HermitianSpace(2)
    assert _types(sp2, [qv(0, 1, 0)]) == [PointType.POSITIVE]
    with pytest.raises(ValueError):
        _types(sp, [qv(0, 0)])


def test_point_types_is_the_one_vector_rule_per_vector():
    sp = HermitianSpace(2)
    vectors = [qv(0, 1, 0), qv(-1, 0, 1), qv(1, 0, 0), qv(1e-12, 0, 1), qv(J, 2, 1)]
    assert _types(sp, vectors) == [_types(sp, [v])[0] for v in vectors]
    assert _types(sp, vectors)[:3] == [PointType.POSITIVE, PointType.NEGATIVE, PointType.NULL]
    with pytest.raises(ValueError):
        _types(sp, [qv(0, 1, 0), qv(0, 0, 0)])


# -- membership -------------------------------------------------------------

def diag_member(entries):
    return HMatrix.diag_complex(entries)


def test_membership_examples():
    sp = HermitianSpace(1)
    assert sp.is_member(identity(2))
    assert sp.is_member(diag_member([2.0, 0.5]))
    assert not sp.is_member(diag_member([2.0, 1.0]))


def test_form_invariance_under_members():
    rng = np.random.default_rng(15)
    sp = HermitianSpace(2)
    A = diag_member([2.0, complex(math.cos(1.0), math.sin(1.0)), 0.5])
    assert sp.is_member(A)
    for _ in range(50):
        z = random_hvector(rng, 3)
        w = random_hvector(rng, 3)
        assert sp.herm(A.apply(z), A.apply(w)).approx_eq(sp.herm(z, w), 1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_project_to_group_is_the_polar_factor(n):
    # the determinant scaling takes a real multiple t U of a member to
    # sign(t) U, however far t is from 1
    sp = HermitianSpace(n)
    U = random_member(sp, np.random.default_rng(160 + n))
    for t in (-1e3, -2.0, 1e-3, 0.5, 1e3):
        P = sp.project_to_group(HMatrix(t * U.emb, check=False))
        assert np.linalg.norm(P.emb - np.sign(t) * U.emb) <= 1e-12 * np.linalg.norm(U.emb)


def _lstsq_residual(u, q):
    """The per-point reference: least-squares distance of q from the line through u."""
    P = two_columns(u[:, None])
    alpha = np.linalg.lstsq(P, q, rcond=None)[0]
    return np.linalg.norm(P @ alpha - q) / max(np.linalg.norm(q), DIVISION_FLOOR)


@pytest.mark.parametrize("N", [2, 3, 5, 9])
def test_line_residuals_match_the_lstsq_reference(N):
    rng = np.random.default_rng(70 + N)
    m = 60

    def rand():
        return rng.normal(size=(2 * N, m)) + 1j * rng.normal(size=(2 * N, m))

    def quats(lo, hi):
        q = rng.normal(size=(m, 4))
        q *= 10.0 ** rng.uniform(lo, hi, (m, 1)) / np.linalg.norm(q, axis=1, keepdims=True)
        return complex_pairs(q)

    U = rand()
    on_line = right_times(U, *quats(-1, 1))
    nudge = 10.0 ** rng.uniform(-16, -4, m) * np.linalg.norm(on_line, axis=0)
    cases = {
        "random lines": (U, rand()),
        "nearly coincident lines": (U, on_line + nudge * rand() / np.sqrt(4 * N)),
        "extreme lift scales": (right_times(U, *quats(-6, 6)),
                                right_times(on_line + 1e-9 * rand(), *quats(-6, 6))),
    }
    for name, (A, B) in cases.items():
        got = line_residuals(A, B)
        want = np.array([_lstsq_residual(A[:, k], B[:, k]) for k in range(m)])
        assert np.max(np.abs(got - want)) <= 1e-13, name
    # the nudged points really sit at the whole range of distances
    near = line_residuals(*cases["nearly coincident lines"])
    assert near.min() < 1e-14 and near.max() > 1e-6


def _dense_polar_factor(space, A):
    """project_to_group with H inv(M)^* H formed as two dense products."""
    H, M, last = np.eye(2 * space.dim, dtype=complex)[space.perm], A.emb, math.inf
    for _ in range(NEWTON_MAX_STEPS):
        mu = math.exp(-np.linalg.slogdet(M)[1] / len(M))
        M_next = 0.5 * (mu * M + H @ np.linalg.inv(M).conj().T @ H / mu)
        step, M = np.linalg.norm(M_next - M), M_next
        if step < NEWTON_STEP_RTOL * max(1.0, np.linalg.norm(M)) or not step < last:
            break
        last = step
    return M


@pytest.mark.parametrize("n", range(1, 9))
def test_project_to_group_permutation_is_the_dense_product(n):
    # the embedded corner form is a permutation matrix, so permuting the rows
    # and columns of inv(M)^* is H inv(M)^* H exactly, and the iteration is
    # bit for bit the one with dense products
    sp = HermitianSpace(n)
    rng = np.random.default_rng(170 + n)
    X = np.linalg.inv(random_hmatrix(rng, n + 1).emb).conj().T
    H = embedded_form(sp)
    assert np.array_equal(X[np.ix_(sp.perm, sp.perm)], H @ X @ H)
    U = random_member(sp, rng)
    for scale in (1e-3, 0.1, 1.0):
        A = HMatrix(U.emb + scale * random_hmatrix(rng, n + 1).emb, check=False)
        assert np.array_equal(sp.project_to_group(A).emb, _dense_polar_factor(sp, A))


def _dense_polish(space, basis, signs):
    """_polish_orthogonality with <w, u> formed as the dense product u2* H w."""
    H, out = embedded_form(space), []
    for v in basis:
        w = v
        for u, su in zip(out, signs):
            u2 = two_columns(u[:, None])
            w = w - su * (u2 @ (u2.conj().T @ H @ w))
        out.append(w / math.sqrt(abs(_self_pairings(space, w))))
    return np.stack(out, axis=1)


@pytest.mark.parametrize("n", range(1, 5))
def test_form_products_are_the_dense_products(n, monkeypatch):
    # the space keeps its form as a permutation, so a product with H permutes
    # the columns of the left factor: bit for bit the dense product with H
    sp, rng = HermitianSpace(n), np.random.default_rng(180 + n)
    H, N = embedded_form(sp), n + 1
    z, w = random_hvector(rng, N), random_hvector(rng, N)
    M = two_columns(w.s[:, None]).conj().T @ H @ two_columns(z.s[:, None])
    assert np.array_equal(sp.herm(z, w).to_array(),
                          Quaternion.from_complex_pair(M[0, 0], M[1, 0]).to_array())
    for A in (random_member(sp, rng), random_hmatrix(rng, N)):
        E = A.emb
        assert sp.member_residual(A) == np.linalg.norm(E.conj().T @ H @ E - H) / math.sqrt(2.0)
    S = stacked_from_components(rng.uniform(-1.0, 1.0, (N, N, 4)))
    G1, G2 = _form_blocks(sp, S)
    T = np.concatenate([S, _times_j(S)], axis=1)
    assert np.array_equal(np.concatenate([G1, G2]), T.conj().T @ H @ S)
    # the perp basis is the null space of the rows T* H of the span
    seen = []
    monkeypatch.setattr(gram, "nullspace", lambda X: seen.append(X) or nullspace(X))
    _form_perp_basis(sp, S[:, :n])
    assert np.array_equal(seen[0], two_columns(S[:, :n]).conj().T @ H)


@pytest.mark.parametrize("n", range(1, 5))
def test_orthonormal_form_basis_polish_is_the_dense_product(n, monkeypatch):
    # the polishing sweep's <w, u> takes u2* H as a C-ordered left factor, as
    # the dense product gives it: an F-ordered one changes the bits
    sp, rng = HermitianSpace(n), np.random.default_rng(190 + n)
    spans = [stacked_from_components(rng.uniform(-1.0, 1.0, (m, n + 1, 4)))
             for m in range(1, n + 2) for _ in range(3)]
    got = [orthonormal_form_basis(sp, S) for S in spans]
    monkeypatch.setattr(linalg, "_polish_orthogonality", _dense_polish)
    for S, (basis, signs) in zip(spans, got):
        want, want_signs = orthonormal_form_basis(sp, S)
        assert signs == want_signs and np.array_equal(basis, want)


# -- characteristic polynomial ----------------------------------------------

def char_poly_real_coeffs(A, tol=CHAR_COEFF_TOL):
    """Middle coefficients of the characteristic polynomial of A's embedding,
    from the classes of right_eigen, palindromic within tol."""
    coeffs, palindromic = class_char_coeffs([right_eigen(A, HermitianSpace(A.dim - 1))], tol)
    assert palindromic.tolist() == [True]
    return coeffs[0]


def test_char_poly_identity():
    coeffs = char_poly_real_coeffs(identity(2))
    np.testing.assert_allclose(coeffs, [-4, 6, -4], atol=1e-12)


def test_char_poly_hyperbolic_diag():
    # roots {2, 2, 1/2, 1/2}: expand (x-2)^2 (x-1/2)^2
    coeffs = char_poly_real_coeffs(diag_member([2.0, 0.5]))
    np.testing.assert_allclose(coeffs, [-5.0, 8.25, -5.0], atol=1e-12)


def test_char_poly_unit_diag():
    # diag(i, i) is the unit-eigenvalue member; embedding roots {i,-i,i,-i}
    coeffs = char_poly_real_coeffs(diag_member([1j, 1j]))
    np.testing.assert_allclose(coeffs, [0.0, 2.0, 0.0], atol=1e-12)


def test_char_poly_palindromic_on_random_members():
    rng = np.random.default_rng(16)
    sp = HermitianSpace(1)
    A = diag_member([1.5, 1 / 1.5])
    # conjugating by a member keeps the coefficients real and palindromic
    C = _random_member(sp, rng)
    M = C @ A @ C.inverse()
    coeffs = char_poly_real_coeffs(M, tol=1e-8)
    np.testing.assert_allclose(coeffs, coeffs[::-1], atol=1e-8)


@pytest.mark.parametrize("n", range(1, 9))
def test_spectrum_product_matches_np_poly(n):
    # the class product against np.poly of the spectrum right_eigen read its
    # classes from (the same stacked eig).  A class rep is the folded mean of
    # its eigenvalues, so the two polynomials agree to first order in eig's
    # error; at these members' conditioning what is left is rounding.  An
    # expansion by repeated multiply-adds is off by at most gamma_k = k u /
    # (1 - k u) times the coefficients of prod (x + |lam|), k the roundings
    # along one term: at most 5 per quadratic factor (2 of them in |lam|^2)
    # and 3 per complex linear factor of np.poly, times sqrt 2 for the real
    # part of a complex product, so k = 5N + 2N * 3 sqrt 2 < 14N for both.
    sp, members = HermitianSpace(n), _eigen_members(n)
    spectra = np.linalg.eig(np.array([M.emb for M in members]))[0]
    coeffs, palindromic = class_char_coeffs(right_eigen(members, sp))
    assert palindromic.all()
    k, u = 14 * sp.dim, np.finfo(float).eps / 2
    for eigs, got in zip(spectra, coeffs):
        diff = np.abs(got - np.poly(eigs).real[1:-1])
        assert np.all(diff <= k * u / (1 - k * u) * np.poly(-np.abs(eigs))[1:-1])


def test_is_member_bound_scales_with_the_squared_norm():
    # a residual within tol passes without the scale; past it, the bound is
    # tol * max(1, |A|^2): a boost of norm about 1e3, moved off the group,
    # is a member at tol = 2 r / |A|^2 and not at r / (2 |A|^2)
    sp = HermitianSpace(2)
    A = HMatrix.diag_complex([1e3, 1.0, 1e-3])
    moved = A + HMatrix.from_components(np.full((3, 3, 4), 1e-9))
    r, scale = sp.member_residual(moved), moved.norm() ** 2
    assert scale > 1e5 and r > 1e-9
    assert sp.is_member(moved, 2 * r / scale)
    assert not sp.is_member(moved, r / (2 * scale))
    assert sp.is_member(A, 1e-15) and sp.member_residual(A) == 0.0


def test_spectrum_product_keeps_both_checks():
    # two checks guard the product.  An embedding whose spectrum is not
    # closed under conjugation, such as diag(2, 1/2, i, i), has no
    # quaternionic J-structure and is refused as an HMatrix; and a row that
    # is not palindromic, such as the product (x - 2)^2 (x - 3)^2 of diag(2, 3)
    # (no member), is masked alone
    sp = HermitianSpace(1)
    with pytest.raises(NumericalError, match="J-structure"):
        HMatrix(np.diag([2.0, 0.5, 1j, 1j]))
    coeffs, palindromic = class_char_coeffs(
        right_eigen([diag_member([2.0, 0.5]), HMatrix.diag_complex([2.0, 3.0])], sp))
    assert palindromic.tolist() == [True, False]
    assert coeffs.tolist() == [[-5.0, 8.25, -5.0], [-10.0, 37.0, -60.0]]


def _random_member(space, rng, cond_max=200.0):
    return random_member(space, rng, cond_max)


# -- right eigendecomposition -----------------------------------------------

def test_right_eigen_diag_hyperbolic():
    sp = HermitianSpace(1)
    data = right_eigen(diag_member([2.0, 0.5]), sp)
    assert len(data.reps) == 2
    mods = sorted(data.moduli)
    assert mods == pytest.approx([0.5, 2.0])
    assert data.kinds == (PointType.NULL, PointType.NULL)
    assert data.multiplicities.tolist() == [1, 1]


def test_right_eigen_eigen_equation_residual():
    rng = np.random.default_rng(17)
    sp = HermitianSpace(1)
    E = diag_member([2 * np.exp(1j * np.pi / 3), 0.5 * np.exp(1j * np.pi / 3)])
    C = _random_member(sp, rng)
    A = C @ E @ C.inverse()
    data = right_eigen(A, sp)
    mods = sorted(data.moduli)
    assert mods == pytest.approx([0.5, 2.0], rel=1e-8)
    for k, angle in enumerate(data.angles):
        assert abs(angle - np.pi / 3) < 1e-8
        for x in class_vectors(data, k):
            resid = (A.apply(x) - x.times(complex(data.reps[k]))).norm()
            assert resid < 1e-8 * A.norm() * x.norm()


def test_right_eigen_scalar_covariance():
    # if x is a rep-eigenvector then x*mu is a (mu^-1 rep mu)-eigenvector
    rng = np.random.default_rng(18)
    sp = HermitianSpace(1)
    A = diag_member([2 * np.exp(1j * 0.7), 0.5 * np.exp(1j * 0.7)])
    data = right_eigen(A, sp)
    x = class_vectors(data, 0)[0]
    rep = complex(data.reps[0])
    mu = Quaternion.from_seq(rng.normal(size=4)).unit()
    lam = Quaternion.from_complex_pair(rep, 0)
    y = x.times(mu)
    target = y.times(mu.inverse() * lam * mu)
    assert (A.apply(y) - target).norm() < 1e-9


def test_right_eigen_rejects_defective():
    sp = HermitianSpace(1)
    # Heisenberg translation: [[1, t], [0, 1]] with t pure imaginary
    t = Quaternion(0, 1.0, 0.5, 0)
    A = qm([[ONE, t], [Q0, ONE]])
    assert sp.is_member(A, 1e-12)
    with pytest.raises(NotSemisimpleError):
        right_eigen(A, sp)


def test_right_eigen_elliptic_types():
    sp = HermitianSpace(1)
    # frame with column Gram diag(-1, 1) transports the ball form
    C = qm([[Quaternion.real(-1 / math.sqrt(2)), Quaternion.real(1 / math.sqrt(2))],
            [Quaternion.real(1 / math.sqrt(2)), Quaternion.real(1 / math.sqrt(2))]])
    E = diag_member([np.exp(1j * 0.9), np.exp(1j * 0.3)])
    A = C @ E @ C.inverse()
    assert sp.is_member(A, 1e-10)
    data = right_eigen(A, sp)
    kinds = sorted(kind.value for kind in data.kinds)
    assert kinds == ["negative", "positive"]
    neg = data.kinds.index(PointType.NEGATIVE)
    assert abs(data.angles[neg] - 0.9) < 1e-9


def test_right_eigen_multiplicity_two():
    sp = HermitianSpace(2)
    # elliptic with a doubled positive class, via a frame whose column Gram
    # is diag(-1, 1, 1)
    s = 1 / math.sqrt(2)
    C = HMatrix.from_columns(stacked([qv(-s, 0, s), qv(0, 1, 0), qv(s, 0, s)]))
    E = diag_member([np.exp(1j * 0.4), np.exp(1j * 1.1), np.exp(1j * 1.1)])
    A = C @ E @ C.inverse()
    assert sp.is_member(A, 1e-10)
    data = right_eigen(A, sp)
    mults = sorted(zip(data.multiplicities.tolist(), [kind.value for kind in data.kinds]))
    assert mults == [(1, "negative"), (2, "positive")]
    pos = data.kinds.index(PointType.POSITIVE)
    vectors = class_vectors(data, pos)
    assert len(vectors) == 2
    # basis is form-orthonormal within the eigenspace
    assert sp.herm(vectors[0], vectors[1]).norm() < 1e-9
    for x in vectors:
        assert sp.herm(x, x).approx_eq(ONE, 1e-9)
        assert (A.apply(x) - x.times(complex(data.reps[pos]))).norm() < 1e-8


def _pairwise_clusters(eigs):
    """Reference: link a < b when the folded points are within CLUSTER_RTOL * max(1, |eig_a|)
    and take connected components in order of first index, one pair at a time."""
    folded = np.stack([eigs.real, np.abs(eigs.imag)], axis=1)
    label = list(range(len(eigs)))
    for a in range(len(eigs)):
        for b in range(a + 1, len(eigs)):
            if np.linalg.norm(folded[a] - folded[b]) < CLUSTER_RTOL * max(1.0, abs(eigs[a])):
                old, new = max(label[a], label[b]), min(label[a], label[b])
                label = [new if x == old else x for x in label]
    return [[k for k in range(len(eigs)) if label[k] == c] for c in sorted(set(label))]


def test_cluster_eigenvalues_matches_pairwise_reference():
    # chains of nearly equal values with gaps on both sides of the threshold
    rng = np.random.default_rng(39)
    for _ in range(300):
        K = int(rng.integers(1, 19))
        base = rng.normal(size=K) + 1j * rng.normal(size=K)
        noise = (rng.normal(size=K) + 1j * rng.normal(size=K)) * 10 ** rng.uniform(-10, -6, K)
        eigs = base[rng.integers(0, max(1, K // 3), K)] + noise
        eigs = np.where(rng.uniform(size=K) < 0.3, np.conj(eigs), eigs)
        got = _clusters(_links(eigs))
        assert got == _pairwise_clusters(eigs)


def test_eigen_data_is_immutable():
    sp = HermitianSpace(2)
    A = random_semisimple(Classification.HYPERBOLIC, 2, HyperbolicSpec(1.6, 0.8, (1.9,)),
                          seed=3, space=sp).matrix
    data = right_eigen(A, sp)
    with pytest.raises(dataclasses.FrozenInstanceError):
        data.kinds = ()
    for array in (data.reps, data.multiplicities, data.vectors):
        with pytest.raises(ValueError):
            array[0] = 0
    assert all(isinstance(x, tuple) for x in (data.kinds, data.moduli, data.angles, data.starts))
    # the null pair comes back rescaled to <a, r> = 1 in new classes
    a, r = (class_vectors(data, k)[0] for k, kind in enumerate(data.kinds)
            if kind == PointType.NULL)
    assert sp.herm(a, r).approx_eq(ONE, 1e-9)
    # so does the eigenframe the pair decider assembles from them
    frame = eigenframe(Isometry(A, sp))
    assert isinstance(frame.reps, tuple)
    for field in ("reps", "C"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(frame, field, None)


def _expected_multiplicities(kind, spec):
    if kind is Classification.HYPERBOLIC:
        return sorted([1, 1] + list(collections.Counter(spec.unit_angles).values()))
    return sorted([1] + list(collections.Counter(spec.angles[1:]).values()))


def _assert_pinned_orthonormal(A, sp, data):
    for c, (rep, mult, kind) in enumerate(zip(data.reps.tolist(), data.multiplicities.tolist(),
                                              data.kinds)):
        vectors = class_vectors(data, c)
        assert len(vectors) == mult
        for x in vectors:
            resid = (A.apply(x) - x.times(rep)).norm()
            assert resid < 1e-8 * A.norm() * x.norm()
        if kind is PointType.NULL:
            continue
        signs = [-1.0 if kind is PointType.NEGATIVE else 1.0] + [1.0] * (mult - 1)
        for r, (u, su) in enumerate(zip(vectors, signs)):
            for k, v in enumerate(vectors):
                target = Quaternion.real(su) if k == r else Q0
                assert sp.herm(v, u).approx_eq(target, 1e-9)


NON_REGULAR = [(2, Classification.ELLIPTIC), (3, Classification.ELLIPTIC),
               (3, Classification.HYPERBOLIC), (4, Classification.ELLIPTIC),
               (4, Classification.HYPERBOLIC)]


@pytest.mark.parametrize("n,kind", NON_REGULAR)
def test_right_eigen_non_regular(n, kind):
    # repeated nonreal classes take the null-space branch of right_eigen
    sp = HermitianSpace(n)
    rng = np.random.default_rng(40 + 2 * n + (kind is Classification.HYPERBOLIC))
    for trial in range(3):
        if kind is Classification.HYPERBOLIC:
            spec = random_hyperbolic_spec(n, rng, regular=False)
        else:
            spec = random_elliptic_spec(n, rng, regular=False)
        A = random_semisimple(kind, n, spec, seed=100 + trial, space=sp).matrix
        data = right_eigen(A, sp)
        mults = sorted(data.multiplicities.tolist())
        assert mults == _expected_multiplicities(kind, spec)
        assert max(mults) >= 2
        _assert_pinned_orthonormal(A, sp, data)


@pytest.mark.parametrize("angles", [(0.7, 0.0, 0.0), (0.7, math.pi, math.pi, 1.2),
                                    (2.1, 0.0, 0.0, 0.0, 0.0)])
def test_right_eigen_repeated_real_class(angles):
    # a repeated real class (+-1) takes the quaternionic-basis branch
    n = len(angles) - 1
    sp = HermitianSpace(n)
    A = random_semisimple(Classification.ELLIPTIC, n, EllipticSpec(angles), seed=7,
                          space=sp).matrix
    data = right_eigen(A, sp)
    assert sorted(data.multiplicities.tolist()) == \
        _expected_multiplicities(Classification.ELLIPTIC, EllipticSpec(angles))
    _assert_pinned_orthonormal(A, sp, data)


def _same_eigen_data(x, y):
    return (np.array_equal(x.reps, y.reps) and np.array_equal(x.multiplicities, y.multiplicities)
            and x.kinds == y.kinds and np.array_equal(x.vectors, y.vectors))


@pytest.mark.parametrize("n", range(1, 6))
def test_right_eigen_stack_matches_one_at_a_time(n):
    # a mixed stack, in both orders: regular hyperbolic and elliptic members,
    # repeated nonreal classes as in test_right_eigen_non_regular, repeated
    # real classes, and a line-preserving pair, all bit for bit
    sp = HermitianSpace(n)
    members = _eigen_members(n)
    for k, (_, kind) in enumerate(x for x in NON_REGULAR if x[0] == n):
        draw = random_hyperbolic_spec if kind is HYP else random_elliptic_spec
        spec = draw(n, np.random.default_rng(40 + k), regular=False)
        members.append(random_semisimple(kind, n, spec, seed=100 + k, space=sp).matrix)
    alone = [right_eigen(M, sp) for M in members]
    assert (max(int(d.multiplicities.max()) for d in alone) > 1) is (n >= 2)
    for stack in (members, members[::-1]):
        together = right_eigen(stack, sp)
        assert len(together) == len(stack)
        assert all(_same_eigen_data(x, y) for x, y in
                   zip(together, alone if stack is members else alone[::-1]))


def test_parabolic_member_fails_alone_in_a_stack():
    sp = HermitianSpace(1)
    P = qm([[ONE, Quaternion(0, 1.0, 0.5, 0)], [Q0, ONE]])  # Heisenberg
    H = diag_member([2.0, 0.5])
    E = random_semisimple(ELL, 1, EllipticSpec((0.9, 0.3)), seed=3, space=sp).matrix
    got = right_eigen([H, P, E], sp)
    assert isinstance(got[1], NotSemisimpleError)
    assert _same_eigen_data(got[0], right_eigen(H, sp))
    assert _same_eigen_data(got[2], right_eigen(E, sp))
    with pytest.raises(NotSemisimpleError):
        right_eigen(P, sp)
    members = [Isometry(M, sp) for M in (H, P, E)]
    decompose(members)
    assert [x.classification for x in members] == [HYP, Classification.PARABOLIC, ELL]
    assert members[1].eigen is None and members[0].real_trace().shape == (1,)


def _eigen_members(n):
    """Members at n: regular hyperbolic and elliptic ones from hh, ee and he
    pairs, repeated nonreal classes (elliptic ones, one with a repeated
    negative class, from n = 2, hyperbolic from n = 3), repeated real classes,
    and a line-preserving pair (a diagonal hyperbolic member and a boost moved
    by Sp(1,1) x 1 on span(e_0, e_n))."""
    sp = HermitianSpace(n)
    rng = np.random.default_rng(700 + n)
    members = []
    for kinds in ((HYP, HYP), (ELL, ELL), (HYP, ELL)):
        members += [X.matrix for X in sample_pair(sp, rng, kinds)]
    if n >= 2:
        members.append(sample_semisimple(sp, rng, ELL, regular=False).matrix)
        negative = (1.1, 1.1) + tuple(np.linspace(1.5, 2.9, n - 1))  # a repeated negative class
        members.append(random_semisimple(ELL, n, EllipticSpec(negative), seed=n, space=sp).matrix)
    if n >= 3:
        members.append(sample_semisimple(sp, rng, HYP, regular=False).matrix)
    angles = (0.7,) + tuple(0.0 if k % 2 else math.pi for k in range(n))
    members.append(random_semisimple(ELL, n, EllipticSpec(angles), seed=n, space=sp).matrix)
    r, s = rng.uniform(1.3, 2.5, 2)
    mids = np.exp(1j * np.sort(rng.uniform(0.2, 2.9, n - 1)))
    members.append(HMatrix.diag_complex([r * np.exp(0.4j), *mids, np.exp(0.4j) / r]))
    g = np.zeros((sp.dim, sp.dim, 4))
    g[np.arange(sp.dim), np.arange(sp.dim), 0] = 1.0
    g[np.ix_([0, n], [0, n])] = random_member(HermitianSpace(1), rng).components()
    G = HMatrix.from_components(g)
    boost = HMatrix.diag_complex([s] + [1.0] * (n - 1) + [1.0 / s])
    members.append(sp.project_to_group(G @ boost @ G.inverse()))
    return members


RefClass = collections.namedtuple("RefClass", "rep multiplicity kind vectors")


def _per_class_right_eigen(A, sp, tol=1e-9):
    """The per-class loop that right_eigen's array pass replaced: a mean, an
    eig column and a normalization for each simple class, and the null pair
    rescaled through herm and quaternion arithmetic.  RefClass records, in
    frame order: expanding null, negative, positive, contracting null, by angle."""
    M = A.emb
    spectrum, V = np.linalg.eig(M)
    classes = []
    for idx in map(np.array, _pairwise_clusters(spectrum)):
        cluster = spectrum[idx]
        mult = len(idx) // 2
        re, im = float(np.mean(cluster.real)), float(np.mean(np.abs(cluster.imag)))
        rep = complex(re, im)
        if im <= CLUSTER_RTOL * max(1.0, abs(rep)):
            rep = complex(re, 0.0)
        if mult > 1:
            kind, B = _type_and_normalize(sp, _eigenspace_basis(M, rep, mult), rep, tol)
            vectors = tuple(HVector(b) for b in B.T)
        else:
            S = V[:, idx[np.argmax(cluster.imag)], None]
            val = _self_pairings(sp, S)[0]
            if abs(val) <= tol * max(1.0, float(np.linalg.norm(S)) ** 2):
                kind, vectors = PointType.NULL, (HVector(S[:, 0]),)
            else:
                kind = PointType.NEGATIVE if val < 0 else PointType.POSITIVE
                vectors = (HVector(S[:, 0] / math.sqrt(abs(val))),)
        classes.append(RefClass(rep, mult, kind, vectors))
    rank = {PointType.NEGATIVE: 1, PointType.POSITIVE: 2}  # a null class: 0 or 3 by |rep| > 1
    classes.sort(key=lambda c: (rank.get(c.kind, 0 if abs(c.rep) > 1 else 3),
                                math.atan2(c.rep.imag, c.rep.real)))
    nulls = sorted((c for c in classes if c.kind is PointType.NULL), key=lambda c: -abs(c.rep))
    if len(nulls) == 2 and abs(abs(nulls[0].rep) - 1.0) >= UNIT_MODULUS_TOL:
        (big, small), (a, r) = nulls, (c.vectors[0] for c in nulls)
        h = sp.herm(a, r)
        hn = h.norm()
        nu = h * (1.0 / (hn * hn))
        scaled = {id(big): a.times(1.0 / math.sqrt(hn)), id(small): r.times(nu * math.sqrt(hn))}
        classes = [c._replace(vectors=(scaled[id(c)],)) if id(c) in scaled else c
                   for c in classes]
    return classes


@pytest.mark.parametrize("n", range(1, 9))
def test_right_eigen_array_pass_matches_the_per_class_loop(n):
    # reps, kinds, multiplicities and every vector bit for bit, except the
    # rescaled null pair, whose <a, r> is read from one complex product
    sp = HermitianSpace(n)
    for M in _eigen_members(n):
        data, ref = right_eigen(M, sp), _per_class_right_eigen(M, sp)
        assert list(zip(data.reps.tolist(), data.kinds, data.multiplicities.tolist())) == \
            [(c.rep, c.kind, c.multiplicity) for c in ref]
        null_pair = data.kinds.count(PointType.NULL) == 2
        for k, c_ref in enumerate(ref):
            for x, y in zip(class_vectors(data, k), c_ref.vectors, strict=True):
                if null_pair and c_ref.kind is PointType.NULL:
                    assert np.linalg.norm(x.s - y.s) <= 1e-13 * np.linalg.norm(y.s)
                else:
                    assert np.array_equal(x.s, y.s)
        if null_pair:
            a, r = (class_vectors(data, k)[0] for k, kind in enumerate(data.kinds)
                    if kind is PointType.NULL)
            assert sp.herm(a, r).approx_eq(ONE, 1e-12)


def _heisenberg(n, scale, rng, horizontal):
    """Unipotent stabilizer element of the null point e_1 in the corner form.

    The first row is (1, -a*, b) with Re b = -|a|^2 / 2, the middle rows of
    the last column hold a, and the rest is the identity: a vertical
    translation when a = 0, otherwise a horizontal one (a longer Jordan block).
    """
    N = n + 1
    grid = [[ONE if r == c else Q0 for c in range(N)] for r in range(N)]
    a = [Quaternion.from_seq(scale * rng.uniform(-1, 1, 4)) if horizontal else Q0
         for _ in range(n - 1)]
    im = Quaternion.from_seq(scale * rng.uniform(-1, 1, 4)).im()
    grid[0][N - 1] = Quaternion.real(-0.5 * sum(q.norm_sq() for q in a)) + im
    for k, q in enumerate(a):
        grid[0][k + 1] = -q.conj()
        grid[k + 1][N - 1] = q
    return qm(grid)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_conjugated_heisenberg_translations_are_parabolic(n):
    # never classified hyperbolic or elliptic; either found parabolic by the
    # null-space test or refused.  Scales stop at 5: beyond it the computed
    # eigenvalues of a conjugated vertical translation spread wider than
    # CLUSTER_RTOL and can pass for a hyperbolic or elliptic spectrum
    sp = HermitianSpace(n)
    rng = np.random.default_rng(50 + n)
    seen = collections.Counter()
    for scale in (0.5, 1.0, 2.0, 5.0):
        for horizontal in ((False, True) if n > 1 else (False,)):
            for _ in range(4):
                T = _heisenberg(n, scale, rng, horizontal)
                assert sp.is_member(T, 1e-12)
                C = random_member(sp, rng)
                try:
                    kind = Isometry(C @ T @ C.inverse(), sp).classification
                except QhypError:
                    kind = None
                assert kind in (Classification.PARABOLIC, None)
                seen[kind] += 1
    assert seen[Classification.PARABOLIC] > 0


def test_orthonormal_form_basis_signature():
    rng = np.random.default_rng(21)
    sp = HermitianSpace(2)
    vecs = [random_hvector(rng, 3) for _ in range(3)]
    basis, signs = orthonormal_form_basis(sp, stacked(vecs))
    basis = [HVector(b) for b in basis.T]
    assert sorted(signs) == [-1, 1, 1]
    for i, (u, su) in enumerate(zip(basis, signs)):
        assert sp.herm(u, u).approx_eq(Quaternion.real(su), 1e-9)
        for v, _ in list(zip(basis, signs))[:i]:
            assert sp.herm(u, v).norm() < 1e-9

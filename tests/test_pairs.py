import ast
import collections
import functools
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhyp import isometry, serialize
from qhyp.decision import Verdict
from qhyp.errors import DimensionMismatchError, NumericalError, UnsupportedElementError
from qhyp.isometry import (
    Classification,
    EllipticSpec,
    HyperbolicSpec,
    Isometry,
    random_member,
    random_semisimple,
)
from qhyp.linalg import HermitianSpace, HMatrix, HVector, PointType, nullspace, two_columns
from qhyp import pairs
from qhyp.pairs import (
    eigenframe,
    have_common_fixed_point,
    pair_conjugate,
    REASON_CLASSES,
    REASON_NO_CONJUGATOR,
    REASON_TRACE,
    REASON_UNVERIFIED,
    _intertwiner_rows,
)
from qhyp.quaternion import Quaternion, left_matrix, quaternion_array, right_matrix
from qhyp.sampling import sample_pair, sample_semisimple
from qhyp.serialize import hmatrix_to_json
from qhyp.tolerances import FIXED_SET_RANK_ATOL, INTERTWINER_RTOL

HYP = Classification.HYPERBOLIC
ELL = Classification.ELLIPTIC


def column(M, k):
    """Column k of a quaternionic matrix: the same column of its embedding."""
    return HVector(M.emb[:, k])


def conjugated_pair(space, A, B, rng):
    C0 = random_member(space, rng)
    A2 = Isometry(space.project_to_group(C0 @ A.matrix @ C0.inverse()), space)
    B2 = Isometry(space.project_to_group(C0 @ B.matrix @ C0.inverse()), space)
    return A2, B2


# -- eigenframes ---------------------------------------------------------------

def test_eigenframe_diagonal_hyperbolic():
    sp = HermitianSpace(1)
    A = Isometry(HMatrix.diag_complex([2.0, 0.5]), sp)
    f = eigenframe(A)
    assert f.kind is HYP
    assert abs(f.reps[0]) == pytest.approx(2.0)
    assert abs(f.reps[-1]) == pytest.approx(0.5)
    assert sp.herm(column(f.C, 0), column(f.C, sp.dim - 1)).approx_eq(Quaternion.one(), 1e-10)


def test_eigenframe_reassembly_random():
    sp = HermitianSpace(2)
    for seed in range(5):
        A = random_semisimple(HYP, 2, HyperbolicSpec(1.7, 0.8, (1.2,)), seed=seed)
        f = eigenframe(A)
        resid = (f.C @ f.E @ f.C.inverse() - A.matrix).norm()
        assert resid < 1e-8 * max(1, A.matrix.norm())
        # frame columns satisfy the normalization equations
        assert sp.herm(column(f.C, 0), column(f.C, sp.dim - 1)).approx_eq(Quaternion.one(), 1e-8)
        x = column(f.C, 1)
        assert sp.herm(x, x).approx_eq(Quaternion.one(), 1e-8)
        assert sp.herm(x, column(f.C, 0)).norm() < 1e-8


def test_eigenframe_elliptic_normalization():
    sp = HermitianSpace(2)
    A = random_semisimple(ELL, 2, EllipticSpec((0.4, 1.0, 2.2)), seed=3)
    f = eigenframe(A)
    assert f.kind is ELL
    assert sp.herm(column(f.C, 0), column(f.C, 0)).approx_eq(Quaternion.real(-1), 1e-8)
    for k in range(1, sp.dim):
        x = column(f.C, k)
        assert sp.herm(x, x).approx_eq(Quaternion.one(), 1e-8)
    resid = (f.C @ f.E @ f.C.inverse() - A.matrix).norm()
    assert resid < 1e-8


def test_eigenframe_carries_its_read_only_inverse():
    A = random_semisimple(HYP, 3, HyperbolicSpec(1.7, 0.8, (0.5, 1.2)), seed=4)
    f = eigenframe(A)
    assert np.array_equal(f.Cinv.emb, np.linalg.inv(f.C.emb))
    with pytest.raises(ValueError):
        f.Cinv.emb[0, 0] = 0.0


# -- common fixed points ---------------------------------------------------------------

def _per_pair_common_fixed_point(A, B):
    """The per-pair reference: one matrix_rank per fixed set and per joined pair of sets."""
    def sets(X):
        e = X.eigen
        bases = [two_columns(e.vectors[:, e.starts[k]:e.starts[k + 1]])
                 for k, kind in enumerate(e.kinds) if kind in (PointType.NULL, PointType.NEGATIVE)]
        return [(b, np.linalg.matrix_rank(b, FIXED_SET_RANK_ATOL)) for b in bases]
    sets_b = sets(B)
    return any(np.linalg.matrix_rank(np.concatenate([Ba, Bb], axis=1), FIXED_SET_RANK_ATOL)
               < ra + rb for Ba, ra in sets(A) for Bb, rb in sets_b)


def _near_identity(sp, rng, eps):
    """A member within about eps of the identity: the polar factor of I + eps X."""
    X = rng.normal(size=(sp.dim, sp.dim, 4))
    I = HMatrix.diag_complex(np.ones(sp.dim))
    return sp.project_to_group(I + HMatrix.from_components(eps * X))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_batched_fixed_point_ranks_match_the_per_pair_reference(n):
    # pairs without a shared fixed point, pairs sharing one (same frame,
    # other normal form), and B moved off A's fixed points by eps on both
    # sides of FIXED_SET_RANK_ATOL; the elliptic kind includes a repeated
    # negative class, whose wider fixed set is padded in the stacked SVD
    sp = HermitianSpace(n)
    rng = np.random.default_rng(870 + n)
    elliptic = [sample_semisimple(sp, rng, ELL)]
    if n >= 2:
        angles = (1.1, 1.1) + tuple(np.linspace(1.5, 2.9, n - 1))
        elliptic.append(random_semisimple(ELL, n, EllipticSpec(angles), seed=n, space=sp))
    members = [sample_semisimple(sp, rng, HYP)] + elliptic
    seen = set()
    for A in members:
        f = eigenframe(A)
        shared = Isometry(sp.project_to_group(f.C @ f.E @ f.E @ f.C.inverse()), sp)
        cases = [(A, shared), sample_pair(sp, rng, (A.classification, HYP))]
        for B in members:
            for eps in (1e-4, 1e-7, 1e-8, 3e-9, 1e-9, 1e-11):
                C = _near_identity(sp, rng, eps)
                cases.append((A, Isometry(sp.project_to_group(C @ B.matrix @ C.inverse()), sp)))
        for X, Y in cases:
            got = have_common_fixed_point(X, Y)
            assert got is _per_pair_common_fixed_point(X, Y)
            seen.add(got)
    assert seen == {True, False}


def test_common_fixed_point_test_makes_at_most_two_svds(monkeypatch):
    sp = HermitianSpace(4)
    A, B = sample_pair(sp, np.random.default_rng(880), (HYP, HYP))
    calls = []
    svd, matrix_rank = np.linalg.svd, np.linalg.matrix_rank
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append("svd") or svd(*a, **k))
    monkeypatch.setattr(np.linalg, "matrix_rank",
                        lambda *a, **k: calls.append("rank") or matrix_rank(*a, **k))
    assert have_common_fixed_point(A, B) is False
    assert calls == ["svd"]  # the single and the joint ranks together


# -- the decider -----------------------------------------------------------------------

@pytest.mark.parametrize("kinds", [(HYP, HYP), (ELL, ELL), (HYP, ELL)])
def test_pair_conjugate_positive(kinds):
    sp = HermitianSpace(2)
    rng = np.random.default_rng(80 + hash(kinds) % 100)
    A, B = sample_pair(sp, rng, kinds=kinds)
    A2, B2 = conjugated_pair(sp, A, B, rng)
    dec = pair_conjugate(A, B, A2, B2)
    assert dec.verdict is Verdict.CONJUGATE
    assert dec.residual < 1e-7
    C = dec.witness
    assert (C @ A.matrix @ C.inverse() - A2.matrix).norm() < 1e-7
    assert (C @ B.matrix @ C.inverse() - B2.matrix).norm() < 1e-7


def test_pair_conjugate_trace_separated():
    sp = HermitianSpace(1)
    rng = np.random.default_rng(81)
    A = random_semisimple(HYP, 1, HyperbolicSpec(2.0, 0.6, ()), seed=20)
    B = sample_semisimple(sp, rng, HYP)
    if have_common_fixed_point(A, B):
        B = sample_semisimple(sp, rng, HYP)
    A2 = random_semisimple(HYP, 1, HyperbolicSpec(2.1, 0.6, ()), seed=21)
    dec = pair_conjugate(A, B, A2, B)
    assert dec.verdict is Verdict.NOT_CONJUGATE
    assert dec.reason == REASON_TRACE


def test_pair_conjugate_orbit_separated():
    # same elements, second pair placed differently: traces match, orbit not
    sp = HermitianSpace(2)
    rng = np.random.default_rng(82)
    A, B = sample_pair(sp, rng, kinds=(HYP, HYP))
    C1 = random_member(sp, rng)
    B_moved = Isometry(sp.project_to_group(C1 @ B.matrix @ C1.inverse()), sp)
    if have_common_fixed_point(A, B_moved):
        pytest.skip("degenerate draw")
    dec = pair_conjugate(A, B, A, B_moved)
    assert dec.verdict in (Verdict.NOT_CONJUGATE, Verdict.CONJUGATE)
    if dec.verdict is Verdict.NOT_CONJUGATE:
        assert dec.reason == REASON_NO_CONJUGATOR


def _grassmannian_moved_pair():
    """A hyperbolic pair (A, B) and A with one eigenset moved by j: same traces,
    same fixed points, different point on the class Grassmannian."""
    sp = HermitianSpace(1)
    rng = np.random.default_rng(83)
    A, B = sample_pair(sp, rng, kinds=(HYP, HYP))
    f = eigenframe(A)
    D = HMatrix.from_components(np.eye(2)[..., None] * Quaternion.j().to_array())  # diag(j, j)
    A_moved = Isometry(sp.project_to_group(f.C @ D @ f.E @ D.inverse() @ f.C.inverse()), sp)
    return A, B, A_moved


def test_pair_conjugate_grassmannian_separated():
    A, B, A_moved = _grassmannian_moved_pair()
    assert np.max(np.abs(A_moved.real_trace() - A.real_trace())) < 1e-8
    dec = pair_conjugate(A, B, A_moved, B)
    assert dec.verdict is Verdict.NOT_CONJUGATE
    assert dec.reason == REASON_NO_CONJUGATOR
    # what separates the pair: an intertwiner exists once the nonreal blocks
    # may take quaternionic entries, so only the complex blocks rule it out
    fa, fa2 = eigenframe(A), eigenframe(A_moved)
    m = (fa.Cinv @ B.matrix @ fa.C).components()
    m2 = (fa2.Cinv @ B.matrix @ fa2.C).components()
    reps = np.array(fa.reps)
    N = len(reps)
    block = np.repeat(reps[:, None] == reps[None, :], 4).reshape(N, N, 4)
    assert nullspace(_intertwiner_rows(m, m2, block), INTERTWINER_RTOL).shape[1] > 0


@pytest.mark.parametrize("lone", ["scaled", "scrambled"])
def test_lone_intertwiner_must_be_a_group_multiple(lone, monkeypatch):
    # a one-dimensional intertwiner space: W* H W = c H for a multiple W of a
    # conjugator, whatever its scale c, and is far from every c H for another W
    sp, rng = HermitianSpace(2), np.random.default_rng(913)
    A, B = sample_pair(sp, rng, kinds=(HYP, ELL))
    members = [Isometry(X.matrix, sp) for X in (A, B, *conjugated_pair(sp, A, B, rng))]

    def lone_column(*args):
        null = nullspace(*args)
        assert null.shape[1] == 1
        return 3.7 * null if lone == "scaled" else rng.uniform(-1.0, 1.0, null.shape)

    monkeypatch.setattr(pairs, "nullspace", lone_column)
    dec = pair_conjugate(*members)
    if lone == "scaled":
        assert dec.verdict is Verdict.CONJUGATE
    else:
        assert dec.verdict is Verdict.NOT_CONJUGATE and dec.reason == REASON_NO_CONJUGATOR


@pytest.mark.parametrize("moved", ["grassmannian", "orbit"])
def test_separated_pair_takes_one_null_space(moved, monkeypatch):
    if moved == "grassmannian":
        A, B, A2 = _grassmannian_moved_pair()
        B2 = B
    else:  # B moved by a second member: no intertwiner at all
        sp = HermitianSpace(2)
        rng = np.random.default_rng(85)
        A, B = sample_pair(sp, rng, kinds=(HYP, ELL))
        C = random_member(sp, rng)
        A2 = Isometry(sp.project_to_group(C @ A.matrix @ C.inverse()), sp)
        CD = C @ random_member(sp, rng)
        B2 = Isometry(sp.project_to_group(CD @ B.matrix @ CD.inverse()), sp)
    calls = []

    def counting(*args):
        calls.append(args)
        return nullspace(*args)

    monkeypatch.setattr(pairs, "nullspace", counting)
    dec = pair_conjugate(A, B, A2, B2)
    assert dec.verdict is Verdict.NOT_CONJUGATE
    assert dec.reason == REASON_NO_CONJUGATOR
    assert len(calls) == 1


KIND_PAIRS = [(HYP, HYP), (ELL, ELL), (HYP, ELL), (ELL, HYP)]


@pytest.mark.parametrize("kinds", KIND_PAIRS)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_pair_conjugate_repeated_classes(n, kinds):
    sp = HermitianSpace(n)
    rng = np.random.default_rng(840 + 10 * n + KIND_PAIRS.index(kinds))
    for _ in range(3):
        # classes repeat in pairs from n = 2 (elliptic) and n = 3 (hyperbolic)
        A, B = sample_pair(sp, rng, kinds=kinds, regular=False)
        if n >= 3:
            assert any(X.eigen.multiplicities.max() > 1 for X in (A, B))
        A2, B2 = conjugated_pair(sp, A, B, rng)
        dec = pair_conjugate(A, B, A2, B2)
        assert dec.verdict is Verdict.CONJUGATE
        assert dec.residual < 1e-7
        W = dec.witness
        assert (W @ A.matrix @ W.inverse() - A2.matrix).norm() < 1e-7
        assert (W @ B.matrix @ W.inverse() - B2.matrix).norm() < 1e-7

        C1 = random_member(sp, rng)
        B_moved = Isometry(sp.project_to_group(C1 @ B2.matrix @ C1.inverse()), sp)
        if have_common_fixed_point(A2, B_moved):
            continue
        dec = pair_conjugate(A, B, A2, B_moved)
        if dec.verdict is Verdict.CONJUGATE:
            assert dec.residual < 1e-7
        else:
            assert dec.verdict is Verdict.NOT_CONJUGATE


def line_preserving_pair(n, rng):
    """A diagonal hyperbolic A and a boost B moved by Sp(1,1) x 1 on span(e_0, e_n):
    both preserve that quaternionic line and its complement, without a common
    fixed point."""
    sp = HermitianSpace(n)
    r, theta = rng.uniform(1.3, 2.5), rng.uniform(0.2, 2.9)
    mids = np.exp(1j * np.sort(rng.uniform(0.2, 2.9, n - 1)))
    A = Isometry(HMatrix.diag_complex([r * np.exp(1j * theta), *mids, np.exp(1j * theta) / r]), sp)
    s = rng.uniform(1.3, 2.5)
    g = np.zeros((sp.dim, sp.dim, 4))
    g[np.arange(sp.dim), np.arange(sp.dim), 0] = 1.0
    g[np.ix_([0, n], [0, n])] = random_member(HermitianSpace(1), rng).components()
    G = HMatrix.from_components(g)
    boost = HMatrix.diag_complex([s] + [1.0] * (n - 1) + [1.0 / s])
    B = Isometry(sp.project_to_group(G @ boost @ G.inverse()), sp)
    return sp, A, B


@pytest.mark.parametrize("n", [2, 3, 4])
def test_line_preserving_pairs_never_separated(n):
    # the intertwiners of such a pair scale the line and its complement
    # independently: no negative verdict may come from that, and the polar
    # factor of their sum is a conjugating member
    rng = np.random.default_rng(850 + n)
    for _ in range(5):
        sp, A, B = line_preserving_pair(n, rng)
        assert not have_common_fixed_point(A, B)
        A2, B2 = conjugated_pair(sp, A, B, rng)
        dec = pair_conjugate(A, B, A2, B2)
        assert dec.verdict is Verdict.CONJUGATE
        assert dec.residual < 1e-7
        W = dec.witness
        assert (W @ A.matrix @ W.inverse() - A2.matrix).norm() < 1e-7
        assert (W @ B.matrix @ W.inverse() - B2.matrix).norm() < 1e-7
        assert sp.member_residual(W) <= 1e-8

        C1 = random_member(sp, rng)
        B_moved = Isometry(sp.project_to_group(C1 @ B2.matrix @ C1.inverse()), sp)
        dec = pair_conjugate(A, B, A2, B_moved)
        if dec.verdict is Verdict.CONJUGATE:
            W = dec.witness
            assert (W @ B.matrix @ W.inverse() - B_moved.matrix).norm() < 1e-7
            assert sp.member_residual(W) <= 1e-8
        else:
            assert dec.verdict is Verdict.NOT_CONJUGATE


def test_singular_combination_is_inconclusive(monkeypatch):
    # a null space whose columns sum to zero leaves nothing to take the polar
    # factor of: the decider stays honest and raises nothing
    sp, A, B = line_preserving_pair(2, np.random.default_rng(860))
    A2, B2 = conjugated_pair(sp, A, B, np.random.default_rng(861))
    nullspace = pairs.nullspace

    def cancelling(rows, rtol):
        v = nullspace(rows, rtol)[:, :1]
        return np.concatenate([v, -v], axis=1)

    monkeypatch.setattr(pairs, "nullspace", cancelling)
    dec = pair_conjugate(A, B, A2, B2)
    assert dec.verdict is Verdict.INCONCLUSIVE
    assert dec.reason == REASON_UNVERIFIED


def test_pair_decider_inverts_each_frame_once(monkeypatch):
    # one inverse per eigenframe and one for the witness check
    sp = HermitianSpace(2)
    rng = np.random.default_rng(862)
    A, B = sample_pair(sp, rng, kinds=(HYP, ELL))
    A2, B2 = conjugated_pair(sp, A, B, rng)
    calls = []
    inverse = HMatrix.inverse
    monkeypatch.setattr(HMatrix, "inverse", lambda self: calls.append(1) or inverse(self))
    assert pair_conjugate(A, B, A2, B2).verdict is Verdict.CONJUGATE
    assert len(calls) == 3


def test_pair_decision_decomposes_its_regular_members_with_one_eig(monkeypatch):
    sp = HermitianSpace(4)
    rng = np.random.default_rng(890)
    A, B = sample_pair(sp, rng, kinds=(HYP, ELL))
    members = [Isometry(X.matrix, sp) for X in (A, B, *conjugated_pair(sp, A, B, rng))]
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda *a, **k: calls.append(1) or eig(*a, **k))
    assert pair_conjugate(*members).verdict is Verdict.CONJUGATE
    assert len(calls) == 1


def _bench_literal(name, variable):
    """The literal assigned to ``variable`` at the top level of bench/<name>."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "bench" / name).read_text())
    return next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == [variable])


def test_decoded_pair_decision_reaches_every_pair_layer_span(monkeypatch):
    # the benchmark reads each per-layer metric off the span of one function,
    # wrapped where its tracer finds it: on its module and wherever qhyp binds
    # it.  A function that a decision no longer calls there reads 0 without an
    # error; bench/selftest.py requires PAIR_ONLY to be nonzero on pair_conjugacy
    spans = _bench_literal("run.py", "LAYER_SPANS")
    names = {spans[metric][1] for metric in _bench_literal("selftest.py", "PAIR_ONLY")}
    assert names == {"linalg.right_eigen", "isometry.Isometry.__init__",
                     "isometry.conjugate_single", "pairs.have_common_fixed_point",
                     "pairs.eigenframe", "pairs.pair_conjugate"}
    calls = collections.Counter()
    modules = [m for key, m in sys.modules.items() if key == "qhyp" or key.startswith("qhyp.")]
    for name in names:
        layer, *path = name.split(".")
        owner = functools.reduce(getattr, path[:-1], importlib.import_module(f"qhyp.{layer}"))
        original = getattr(owner, path[-1])

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for attr, obj in list(vars(module).items()):
                if obj is original:
                    monkeypatch.setattr(module, attr, counted)
        monkeypatch.setattr(owner, path[-1], counted)

    sp = HermitianSpace(2)
    rng = np.random.default_rng(891)
    A, B = sample_pair(sp, rng, kinds=(HYP, HYP))
    docs = [(hmatrix_to_json(X.matrix), hmatrix_to_json(Y.matrix))
            for X, Y in ((A, B), conjugated_pair(sp, A, B, rng))]
    calls.clear()
    decoded = [serialize.isometry_from_json(doc) for pair in docs for doc in pair]
    assert pairs.pair_conjugate(*decoded).verdict is Verdict.CONJUGATE
    assert set(calls) == names


def test_common_fixed_point_test_refuses_a_parabolic_member():
    sp = HermitianSpace(1)
    one, t = Quaternion.one(), Quaternion(0, 0.7, -0.3, 0.2)
    P = Isometry(HMatrix.from_components(np.array([quaternion_array([one, t]),  # Heisenberg
                                                   quaternion_array([Quaternion(), one])])), sp)
    A = random_semisimple(HYP, 1, HyperbolicSpec(2.0, 0.6, ()), seed=40)
    for X, Y in ((P, A), (A, P)):
        with pytest.raises(UnsupportedElementError):
            have_common_fixed_point(X, Y)


def test_pair_conjugate_rejects_common_fixed_point():
    A = random_semisimple(HYP, 1, HyperbolicSpec(2.0, 0.6, ()), seed=40)
    with pytest.raises(UnsupportedElementError):
        pair_conjugate(A, A, A, A)



@pytest.mark.parametrize("kinds", [(HYP, HYP), (ELL, ELL), (HYP, ELL)])
@pytest.mark.parametrize("n", [2, 4])
def test_pair_decider_builds_no_quaternions(n, kinds, monkeypatch):
    # the decider works on component arrays from eigenframe to witness
    sp = HermitianSpace(n)
    rng = np.random.default_rng(90 + n)
    A, B = sample_pair(sp, rng, kinds=kinds)
    A2, B2 = conjugated_pair(sp, A, B, rng)
    built = []
    init = Quaternion.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Quaternion, "__init__", counting_init)
    dec = pair_conjugate(A, B, A2, B2)
    assert dec.verdict is Verdict.CONJUGATE
    assert len(built) == 0


@pytest.mark.parametrize("kinds, n", [
    ("hh", 1), ("hh", 2), ("hh", 3), ("ee", 1), ("ee", 2), ("ee", 3), ("he", 1),
    pytest.param("he", 2, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="CHANGES.md FOUND: the palindromy check of the characteristic "
               "coefficients rejects a conjugated complex member of norm 5.6e3 at seed 3, "
               "so the decision is Inconclusive (numerical failure)")),
    ("he", 3)])
def test_complex_pairs(kinds, n, cayley_member):
    # SU(n,1): pairs of complex members and their images under another
    # complex member are conjugate by a complex witness
    for seed in range(10):
        sp, A, B, A2, B2 = _complex_pair(kinds, n, seed, cayley_member)
        dec = pair_conjugate(A, B, A2, B2)
        assert dec.verdict is Verdict.CONJUGATE
        W = dec.witness
        bound = 1e-7 * max(1.0, A.matrix.norm() + B.matrix.norm())
        assert (W @ A.matrix @ W.inverse() - A2.matrix).norm() < bound
        assert (W @ B.matrix @ W.inverse() - B2.matrix).norm() < bound
        assert np.max(np.abs(W.emb[sp.dim:, :sp.dim])) <= 1e-12


def _complex_pair(kinds, n, seed, cayley_member):
    """The space, a pair (A, B) of complex members C diag(...) C^-1 of the
    kinds ("h" or "e" each) and its image (A2, B2) under another complex
    member, at one seed of test_complex_pairs.  An elliptic normal form
    preserves diag(-1, 1, ..., 1); F maps that form to the corner form, so
    F diag(...) F^-1 is a member."""
    sp = HermitianSpace(n)
    F = np.eye(sp.dim, dtype=complex)
    F[np.ix_([0, -1], [0, -1])] = np.array([[1, 1], [-1, 1]]) / np.sqrt(2)
    F = HMatrix(np.block([[F, np.zeros_like(F)], [np.zeros_like(F), F.conj()]]))
    rng = np.random.default_rng(900 + 1000 * ["hh", "ee", "he"].index(kinds) + 10 * n + seed)
    members = []
    for kind in kinds:
        if kind == "h":
            r, theta = rng.uniform(1.3, 3.0), rng.uniform(0.2, 2.9)
            middle = np.exp(1j * np.sort(rng.uniform(0.2, 2.9, n - 1)))
            E = HMatrix.diag_complex([r * np.exp(1j * theta), *middle, np.exp(1j * theta) / r])
        else:
            angles = rng.uniform(0.2, 2.9, n + 1)
            E = F @ HMatrix.diag_complex(np.exp(1j * angles)) @ F.inverse()
        C = cayley_member(sp, rng)
        members.append(Isometry(sp.project_to_group(C @ E @ C.inverse()), sp))
        assert members[-1].classification is (HYP if kind == "h" else ELL)
    C0 = cayley_member(sp, rng)
    return (sp, *members, *(Isometry(sp.project_to_group(C0 @ X.matrix @ C0.inverse()), sp)
                            for X in members))


def test_decompose_marks_only_the_member_whose_row_fails(cayley_member):
    # seed 3 of test_complex_pairs[he-2]: in one stacked decomposition B2
    # (elliptic, norm 5.6e3, condition number 3.2e7) fails the palindromy
    # check and keeps that error; the other three decompose as they do alone
    sp, *members = _complex_pair("he", 2, 3, cayley_member)
    stacked, alone = ([Isometry(x.matrix, sp) for x in members] for _ in range(2))
    isometry.decompose(stacked)
    for x in alone:
        isometry.decompose([x])
    for x in (stacked[3], alone[3]):
        with pytest.raises(NumericalError, match="not palindromic"):
            x.real_trace()
    assert stacked[3].matrix.norm() > 5e3 and stacked[3].matrix.cond() > 3e7
    for x, y in zip(stacked[:3], alone):
        assert x.classification is y.classification
        assert np.array_equal(x.real_trace(), y.real_trace())
        assert all(np.array_equal(getattr(x.eigen, f), getattr(y.eigen, f))
                   for f in ("reps", "multiplicities", "vectors"))
        assert x.eigen.kinds == y.eigen.kinds


def _fancy_index_intertwiner_rows(m, m2, free):
    """The intertwiner system as the decider built it before its tables: two
    fancy-indexed assignments of the full multiplication matrices."""
    N = len(m)
    l, j, c = np.nonzero(free)
    k = np.arange(len(l))
    rows = np.zeros((N, N, 4, len(l)))
    rows[:, j, :, k] = left_matrix(m2)[:, l, :, c]
    rows[l, :, :, k] -= right_matrix(m)[j, :, :, c]
    return rows.reshape(4 * N * N, len(l))


@pytest.mark.parametrize("N", [2, 3, 5])
def test_intertwiner_rows_match_the_fancy_index_reference(N):
    # bit for bit, signed zeros included: each entry is a component of M2 or
    # of M times +-1, or one difference of the two, in either construction
    rng = np.random.default_rng(930 + N)
    for trial in range(6):
        m, m2 = rng.normal(size=(2, N, N, 4))
        m[rng.uniform(size=m.shape) < 0.2] = 0.0
        m2[rng.uniform(size=m2.shape) < 0.2] = -0.0
        labels = rng.integers(0, N if trial % 2 else 2, N)  # repeated classes on odd trials
        nonreal = rng.uniform(size=N) < 0.5
        free = (labels[:, None] == labels)[..., None] & ~(nonreal[:, None, None]
                                                          & (np.arange(4) >= 2))
        got = _intertwiner_rows(m, m2, free)
        assert got.tobytes() == _fancy_index_intertwiner_rows(m, m2, free).tobytes()


# -- numerical failures, properties and the LAPACK budget --------------------------------

def _boosted_pair(sp, rng, r):
    """A sampled pair and its image under C = R1 diag(r, 1, ..., 1, 1/r) R2, a
    boost between two random members (cond(C) about r^2)."""
    A, B = sample_pair(sp, rng)
    boost = HMatrix.diag_complex([r] + [1.0] * (sp.dim - 2) + [1.0 / r])
    C = random_member(sp, rng) @ boost @ random_member(sp, rng)
    Ci = C.inverse()
    return A, B, *(Isometry(sp.project_to_group(C @ X.matrix @ Ci), sp) for X in (A, B))


def test_ill_conditioned_images_are_decided_or_inconclusive():
    # at cond(C) about 1e4 the images' decompositions fail their checks; the
    # decider must not raise, and must not call these conjugate pairs apart
    sp, rng = HermitianSpace(4), np.random.default_rng(909)
    seen = collections.Counter()
    for _ in range(10):
        A, B, A2, B2 = _boosted_pair(sp, rng, 100.0)
        dec = pair_conjugate(A, B, A2, B2)
        seen[dec.verdict] += 1
        if dec.verdict is Verdict.CONJUGATE:
            W = dec.witness
            bound = 1e-7 * max(1.0, A.matrix.norm() + B.matrix.norm())
            assert (W @ A.matrix @ W.inverse() - A2.matrix).norm() < bound
            assert (W @ B.matrix @ W.inverse() - B2.matrix).norm() < bound
        else:
            assert dec.verdict is Verdict.INCONCLUSIVE and dec.witness is None
            assert dec.reason.startswith("numerical failure: ")
    assert seen[Verdict.INCONCLUSIVE] > 0


@pytest.mark.parametrize("target, error", [
    ("class_char_coeffs", NumericalError("characteristic coefficients are not palindromic")),
    ("eigenframe", NumericalError("restricted form is degenerate on the span")),
    ("nullspace", np.linalg.LinAlgError("SVD did not converge")),
])
def test_pair_decider_turns_a_numerical_failure_into_inconclusive(monkeypatch, target, error):
    sp = HermitianSpace(2)
    rng = np.random.default_rng(910)
    A, B = sample_pair(sp, rng, kinds=(HYP, ELL))
    members = [Isometry(X.matrix, sp) for X in (A, B, *conjugated_pair(sp, A, B, rng))]

    def fail(*args, _real=isometry.class_char_coeffs):
        if target == "class_char_coeffs":  # every row fails its check
            coeffs, _ = _real(*args)
            return coeffs, np.zeros(len(coeffs), dtype=bool)
        raise error

    monkeypatch.setattr(isometry if target == "class_char_coeffs" else pairs, target, fail)
    dec = pair_conjugate(*members)
    assert dec.verdict is Verdict.INCONCLUSIVE and dec.witness is None
    assert dec.reason == f"numerical failure: {error}"


def test_pair_decider_input_errors_still_raise():
    sp, rng = HermitianSpace(2), np.random.default_rng(911)
    A, B = sample_pair(sp, rng)
    C, D = sample_pair(HermitianSpace(3), rng)
    with pytest.raises(DimensionMismatchError):
        pair_conjugate(A, B, C, D)
    with pytest.raises(UnsupportedElementError, match="common fixed point"):
        pair_conjugate(A, A, A, A)
    P = Isometry(HMatrix.from_components(np.array([  # a Heisenberg translation
        quaternion_array([Quaternion.one(), Quaternion(), Quaternion(0, 0.3, 0.0, 0.0)]),
        quaternion_array([Quaternion(), Quaternion.one(), Quaternion()]),
        quaternion_array([Quaternion(), Quaternion(), Quaternion.one()])])), sp)
    assert P.classification is Classification.PARABOLIC
    with pytest.raises(UnsupportedElementError, match="semisimple"):
        pair_conjugate(A, P, A, P)


@st.composite
def regular_pair_decisions(draw):
    """A regular pair at n = 1..4 and its image, or an image whose second
    member is moved by one more random member."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sp = HermitianSpace(n)
    A, B = sample_pair(sp, rng)
    C = random_member(sp, rng)
    D = C @ random_member(sp, rng) if draw(st.booleans()) else C
    A2, B2 = (Isometry(sp.project_to_group(M @ X.matrix @ M.inverse()), sp)
              for M, X in ((C, A), (D, B)))
    return A, B, A2, B2


@settings(max_examples=40, deadline=None, derandomize=True)
@given(regular_pair_decisions())
def test_pair_decisions_are_symmetric_and_explain_themselves(members):
    A, B, A2, B2 = members
    forward, backward = pair_conjugate(A, B, A2, B2), pair_conjugate(A2, B2, A, B)
    assert (forward.verdict, forward.reason) == (backward.verdict, backward.reason)
    for dec, (X, Y, X2, Y2) in ((forward, members), (backward, (A2, B2, A, B))):
        if dec.verdict is Verdict.NOT_CONJUGATE:
            assert dec.reason in (REASON_TRACE, REASON_CLASSES, REASON_NO_CONJUGATOR)
        elif dec.verdict is Verdict.CONJUGATE:
            W = dec.witness
            bound = 1e-7 * max(1.0, X.matrix.norm() + Y.matrix.norm())
            assert X.space.is_member(W, 1e-8)
            assert (W @ X.matrix @ W.inverse() - X2.matrix).norm() < bound
            assert (W @ Y.matrix @ W.inverse() - Y2.matrix).norm() < bound


LAPACK = ("eig", "svd", "inv", "slogdet", "eigh", "qr")


@pytest.mark.parametrize("moved, verdict, budget", [
    (False, Verdict.CONJUGATE, {"eig": 1, "svd": 3, "inv": 5, "slogdet": 2}),
    (True, Verdict.NOT_CONJUGATE, {"eig": 1, "svd": 3, "inv": 2}),
])
def test_decoded_regular_decision_keeps_its_lapack_budget(moved, verdict, budget, monkeypatch):
    # one stacked eig; two fixed-point SVDs and the null space; the two frame
    # inverses, and for a witness the two Newton steps (slogdet and inverse
    # each) and the inverse of its direct check
    sp = HermitianSpace(4)
    rng = np.random.default_rng(892)
    A, B = sample_pair(sp, rng, kinds=(HYP, ELL))
    C = random_member(sp, rng)
    D = C @ random_member(sp, rng) if moved else C
    docs = [hmatrix_to_json(M) for M in (A.matrix, B.matrix,
                                         sp.project_to_group(C @ A.matrix @ C.inverse()),
                                         sp.project_to_group(D @ B.matrix @ D.inverse()))]
    calls = collections.Counter()
    for name in LAPACK:
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _name=name, _original=original, **k:
                            calls.update([_name]) or _original(*a, **k))
    dec = pair_conjugate(*[serialize.isometry_from_json(doc) for doc in docs])
    assert dec.verdict is verdict
    assert dec.reason == (REASON_NO_CONJUGATOR if moved else None)
    assert dict(calls) == budget

import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhyp.decision import Verdict
from qhyp.errors import (DegenerateConfigurationError, DimensionMismatchError, GramSchmidtError,
                         InvalidSpecError, NumericalError)
from qhyp import gram, serialize
from qhyp.gram import (
    PointConfig,
    SemiNormalizedGram,
    _gauge_rotation,
    _independent_subsets,
    congruent,
    gram_of,
    orbit_equal,
    reconstruct_gram,
    semi_normalize,
)
from qhyp.invariants import (
    InvariantProfile,
    PairSlot,
    ProjPoint,
    XSlot,
    angular_invariant,
    cross_ratio,
    cross_ratio_triple,
    distance_invariant,
    _rotation_invariants,
    profile,
    profile_from_gram,
    x_slot_families,
    x_slot_indices,
)
from qhyp.isometry import random_member
from qhyp.linalg import (HermitianSpace, HVector, PointType, line_residuals, matrix_rank,
                         right_times, stacked, stacked_from_components, two_columns)
from qhyp.quaternion import (Quaternion, complex_pairs, conjugated_by, qconj_array, qmul_array,
                             quaternion_array, sp1_align)
from qhyp.tolerances import (ANGLE_ZERO_TOL, DECIDER_TOL, DEFAULT_TOL, DEGENERACY_FACTOR,
                              PATTERN_TOL)
from qhyp.sampling import (
    _lift_components,
    apply_isometry,
    random_quaternion,
    random_unit_quaternion,
    sample_config,
    sample_null_lift,
)

ONE = Quaternion.one()


def qv(*entries):
    return HVector(stacked_from_components(quaternion_array(
        q if isinstance(q, Quaternion) else Quaternion.real(q) for q in entries)))


def lifts(*points):
    """The stacked (2N, m) lifts of points given by their quaternion entries."""
    return stacked([qv(*entries) for entries in points])


def times_each(cfg, qs):
    """The lifts of ``cfg`` with column k times the quaternion qs[k] on the right."""
    return right_times(cfg.lifts, *complex_pairs(quaternion_array(qs)))


def max_entry_gap(a, b):
    """Largest |a_e - b_e| over the quaternion entries e of two component arrays."""
    return np.max(np.linalg.norm(np.asarray(a) - np.asarray(b), axis=-1), initial=0.0)


# -- gram_of -------------------------------------------------------------------

def test_gram_of_null_pair():
    sp = HermitianSpace(1)
    cfg = gram_of(sp, lifts((0, 1), (1, 0)))
    one = [1.0, 0.0, 0.0, 0.0]
    assert max_entry_gap(cfg.gram, [[np.zeros(4), one], [one, np.zeros(4)]]) <= 1e-9


def test_gram_hermitian_symmetry():
    sp = HermitianSpace(2)
    rng = np.random.default_rng(50)
    cfg = sample_config(sp, 5, 3, rng)
    assert max_entry_gap(cfg.gram, qconj_array(cfg.gram).transpose(1, 0, 2)) <= 1e-12


def test_gram_of_ordering_violation():
    sp = HermitianSpace(1)
    with pytest.raises(InvalidSpecError):
        gram_of(sp, lifts((-1, 1), (0, 1)))


def test_gram_of_coincident_points():
    sp = HermitianSpace(1)
    p = qv(-1, 1)
    with pytest.raises(DegenerateConfigurationError):
        gram_of(sp, stacked([p, p.times(Quaternion(0.3, 1, 0, 0))]))


@pytest.mark.parametrize("n", [1, 2, 4, 8])
@pytest.mark.parametrize("i", [0, 3, 5])
def test_gram_of_matches_pairing_at_extreme_scales(n, i):
    # the array assembly against the pairing, entry by entry, with lifts
    # rescaled by quaternions of moduli 1e-6 .. 1e6
    m = 5
    sp = HermitianSpace(n)
    rng = np.random.default_rng(500 + 10 * n + i)
    moduli = rng.permutation(np.logspace(-6, 6, m))
    cfg = sample_config(sp, m, i, rng)
    cfg = gram_of(sp, times_each(cfg, [random_unit_quaternion(rng) * r for r in moduli]))
    vectors = [HVector(s) for s in cfg.lifts.T]
    for k, pk in enumerate(vectors):
        for j, pj in enumerate(vectors):
            ref = sp.herm(pj, pk).to_array()
            assert np.linalg.norm(cfg.gram[k, j] - ref) <= 1e-12 * pk.norm() * pj.norm()

    g = semi_normalize(cfg).gram
    target = [[0.0 if k < i else -1.0, 0.0, 0.0, 0.0] for k in range(m)]
    assert max_entry_gap(np.diagonal(g).T, target) < 1e-9
    assert max_entry_gap(g[0, 1:i], [1.0, 0.0, 0.0, 0.0]) < 1e-9
    assert np.all(g[0, max(i, 1):, 0] > 0)
    assert np.max(np.abs(g[0, max(i, 1):, 1:]), initial=0.0) < 1e-9
    if i >= 3:
        assert abs(np.linalg.norm(g[1, 2]) - 1.0) < 1e-9


def test_gram_of_takes_over_a_c_ordered_complex_array():
    # that array becomes the read-only lifts; any other array is copied
    sp = HermitianSpace(2)
    src = sample_config(sp, 4, 3, np.random.default_rng(64)).lifts
    kinds = [PointType.NULL] * 3 + [PointType.NEGATIVE]
    lifts = src.copy()
    cfg = gram_of(sp, lifts, kinds=kinds)
    assert cfg.lifts is lifts and not lifts.flags.writeable
    for other in (np.asfortranarray(src), np.repeat(src, 2, axis=1)[:, ::2]):
        assert other.flags.writeable
        cfg = gram_of(sp, other, kinds=kinds)
        assert cfg.lifts is not other and other.flags.writeable
        assert cfg.lifts.flags.c_contiguous and cfg.lifts.dtype == complex


def test_gram_objects_are_immutable():
    sp = HermitianSpace(2)
    cfg = sample_config(sp, 5, 3, np.random.default_rng(63))
    sng = semi_normalize(cfg)
    prof = profile_from_gram(sng)
    dec = congruent(cfg, cfg)
    for obj, field in ((cfg, "gram"), (cfg, "lifts"), (cfg, "points"), (sng, "gram"),
                       (sng, "lifts"), (prof, "a23"), (dec, "verdict"), (dec, "witness")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, None)
    for seq in (prof.x_slots, prof.pair_slots, prof.first_row):
        assert isinstance(seq, tuple)
    with pytest.raises(AttributeError):
        prof.x_slots.pop()
    # lists handed in by a caller are stored as tuples too
    assert isinstance(dataclasses.replace(prof, first_row=list(prof.first_row)).first_row, tuple)
    for g in (cfg.gram, sng.gram, reconstruct_gram(prof).gram):
        with pytest.raises(ValueError):
            g[0, 0, 0] = 1.0
    # the lift arrays too, and the points are copies of their columns
    for lifts in (cfg.lifts, sng.lifts, sng.conjugated(Quaternion.i()).lifts):
        assert lifts.shape == (2 * sp.dim, cfg.m)
        with pytest.raises(ValueError):
            lifts[0, 0] = 1.0
    for k, p in enumerate(cfg.points):
        assert np.array_equal(p.lift.s, cfg.lifts[:, k]) and p.kind is cfg.kinds[k]


# -- semi-normalization -----------------------------------------------------------

def test_v_entries_index_arrays_match_the_per_call_construction():
    # every valid (m, i) with m <= 8: the cached read-only index arrays pick
    # the same entries as the arange/triu_indices/concatenate construction
    rng = np.random.default_rng(5)
    for m in range(3, 9):
        for i in [0, *range(3, m + 1)]:
            sng = SemiNormalizedGram(m, i, rng.normal(size=(m, m, 4)))
            first = np.arange(max(i, 1), m)
            r, c = np.triu_indices(m - 1, 1)
            ref = sng.gram[np.concatenate([np.zeros_like(first), r + 1]),
                           np.concatenate([first, c + 1])]
            for _ in range(2):  # the second call reads the cache
                assert sng.v_entries().tobytes() == ref.tobytes()
            rows, cols = gram._v_index(m, i)
            assert not rows.flags.writeable and not cols.flags.writeable


def test_entries_grid_is_the_from_seq_grid_bitwise():
    # the grid reads the array off one tolist(); every entry is the per-entry
    # from_seq quaternion byte for byte, signed zeros included
    rng = np.random.default_rng(6)
    g = rng.normal(size=(6, 6, 4))
    g[rng.uniform(size=g.shape) < 0.2] = 0.0
    g[rng.uniform(size=g.shape) < 0.2] = -0.0
    grid = SemiNormalizedGram(6, 3, g).entries
    ref = [[Quaternion.from_seq(e) for e in row] for row in g]
    assert [len(row) for row in grid] == [6] * 6

    def bits(rows):
        qs = [q for row in rows for q in row]
        assert all(type(x) is float for q in qs for x in (q.a0, q.a1, q.a2, q.a3))
        return np.array([(q.a0, q.a1, q.a2, q.a3) for q in qs]).tobytes()

    assert bits(grid) == bits(ref) == g.tobytes()


@pytest.mark.parametrize("m,i,n", [(4, 4, 2), (4, 3, 2), (5, 5, 3), (5, 0, 2), (6, 3, 3), (3, 3, 1)])
def test_semi_normalize_pattern(m, i, n):
    sp = HermitianSpace(n)
    rng = np.random.default_rng(200 + 10 * m + i)
    cfg = sample_config(sp, m, i, rng)
    sng = semi_normalize(cfg)
    g = sng.entries
    for k in range(m):
        expect = 0.0 if k < i else -1.0
        assert abs(g[k][k].re - expect) < 1e-9
    for j in range(1, m):
        if j < i:
            assert g[0][j].approx_eq(ONE, 1e-9)
        else:
            assert g[0][j].im().norm() < 1e-9
            assert g[0][j].re > 0
    if i >= 3:
        assert abs(g[1][2].norm() - 1.0) < 1e-9
    # lifts realize the entries
    for k in range(m):
        for j in range(m):
            direct = sp.herm(HVector(sng.lifts[:, j]), HVector(sng.lifts[:, k]))
            assert direct.approx_eq(g[k][j], 1e-8)


@pytest.mark.parametrize("first,second", [
    ((0.3, 0.5, -0.2), (0.1, 0.4, 0.7)),      # generic
    ((-2.0, 0.0, 0.0), (0.5, -1.0, 0.0)),     # first along -i, second along -j after it
    ((-1.0, 1e-13, -1e-13), (0.0, 0.0, 3.0)),  # first next to -i
    ((-1.0, 3e-8, 2e-8), (0.4, -0.5, 1e-9)),   # 1 + cos small: no cancellation
    ((0.0, 0.0, 1.5), (0.2, 0.0, 0.0)),       # second collinear with the first
])
def test_gauge_rotation_closed_form(first, second):
    # conj(mu) e mu puts the first imaginary direction on +i and the next
    # independent one in the i-j plane with positive j part
    entries = np.array([[0.7, 0.0, 0.0, 0.0], [0.2, *first], [-1.1, *second]])
    mu = _gauge_rotation(entries)
    assert abs(mu.norm() - 1.0) < 1e-14
    m = mu.to_array()
    rotated = qmul_array(qmul_array(qconj_array(m), entries), m)
    np.testing.assert_allclose(rotated[:, 0], entries[:, 0], atol=1e-14)
    u = rotated[1, 1:]
    assert u[0] > 0 and np.linalg.norm(u[1:]) < 1e-12 * np.linalg.norm(u)
    v = rotated[2, 1:]
    if np.linalg.norm(np.cross(first, second)) > 1e-9:
        assert v[1] > 0 and abs(v[2]) < 1e-12 * np.linalg.norm(v)
    else:
        assert np.linalg.norm(v[1:]) < 1e-12 * np.linalg.norm(v)


def test_semi_normalize_rejects_small_null_counts():
    sp = HermitianSpace(2)
    rng = np.random.default_rng(51)
    pts = [ProjPoint(sample_null_lift(sp, rng), PointType.NULL)]
    pts += [ProjPoint(HVector(stacked_from_components(_lift_components(sp, rng, True))),
                      PointType.NEGATIVE) for _ in range(3)]
    cfg = gram_of(sp, pts)
    with pytest.raises(InvalidSpecError):
        semi_normalize(cfg)


def test_semi_normalize_idempotent_gauge():
    sp = HermitianSpace(2)
    rng = np.random.default_rng(52)
    cfg = sample_config(sp, 5, 3, rng)
    s1 = semi_normalize(cfg)
    s2 = semi_normalize(gram_of(sp, s1.lifts))
    assert max_entry_gap(s2.gram, s1.gram) <= 1e-8


def test_gauge_theorem_random_rescalings():
    # per-point unit rescalings leave V_G in one conjugation orbit
    sp = HermitianSpace(2)
    rng = np.random.default_rng(53)
    cfg = sample_config(sp, 5, 3, rng)
    s1 = semi_normalize(cfg)
    for _ in range(25):
        lam = [random_unit_quaternion(rng) for _ in range(cfg.m)]
        s2 = semi_normalize(gram_of(sp, times_each(cfg, lam)))
        mu = orbit_equal(s1, s2, 1e-8)
        assert mu is not None


def test_orbit_equal_constructed_conjugation():
    sp = HermitianSpace(2)
    rng = np.random.default_rng(54)
    cfg = sample_config(sp, 4, 4, rng)
    s1 = semi_normalize(cfg)
    mu0 = random_unit_quaternion(rng).to_array()
    s2 = SemiNormalizedGram(s1.m, s1.i, qmul_array(qmul_array(mu0, s1.gram), qconj_array(mu0)))
    mu = orbit_equal(s1, s2, 1e-8)
    assert mu is not None
    mu = mu.to_array()
    aligned = qmul_array(qmul_array(qconj_array(mu), s2.v_entries()), mu)
    assert max_entry_gap(aligned, s1.v_entries()) <= 1e-8


def test_orbit_equal_detects_difference():
    sp = HermitianSpace(2)
    rng = np.random.default_rng(55)
    cfg = sample_config(sp, 4, 4, rng)
    s1 = semi_normalize(cfg)
    g = s1.gram.copy()
    g[1, 2, 0] += 0.1
    g[1, 2] /= np.linalg.norm(g[1, 2])
    g[2, 1] = qconj_array(g[1, 2])
    s2 = SemiNormalizedGram(s1.m, s1.i, g)
    assert orbit_equal(s1, s2, 1e-8) is None


# -- congruence decider -------------------------------------------------------------

@pytest.mark.parametrize("m,i,n", [(4, 4, 2), (4, 3, 2), (5, 0, 2), (6, 3, 3), (3, 3, 1)])
def test_congruent_positive_with_witness(m, i, n):
    sp = HermitianSpace(n)
    rng = np.random.default_rng(300 + 10 * m + i)
    cfg = sample_config(sp, m, i, rng)
    C0 = random_member(sp, rng)
    moved = apply_isometry(cfg, C0)
    dec = congruent(cfg, moved)
    assert dec.verdict is Verdict.CONGRUENT
    assert dec.residual < 1e-7
    assert sp.is_member(dec.witness, 1e-8)


def boundary_triple_with_angle(sp, aval, axis):
    """Triple (inf, o, u) of null points whose angular invariant is aval."""
    z1 = Quaternion.real(-math.cos(aval)) + axis * math.sin(aval)
    z2 = Quaternion.real(math.sqrt(2 * math.cos(aval)))
    return gram_of(sp, lifts((1, 0, 0), (0, 0, 1), (z1, z2, 1)))


def test_boundary_triples_classified_by_angular_invariant():
    sp = HermitianSpace(2)
    t1 = boundary_triple_with_angle(sp, 0.4, Quaternion.i())
    t2 = boundary_triple_with_angle(sp, 0.4, Quaternion(0, 0.6, 0.8, 0))
    t3 = boundary_triple_with_angle(sp, 1.1, Quaternion.i())
    assert angular_invariant(sp, t1.lifts) == pytest.approx(0.4, abs=1e-10)
    assert angular_invariant(sp, t2.lifts) == pytest.approx(0.4, abs=1e-10)
    # equal invariants: congruent with verified witness
    dec = congruent(t1, t2)
    assert dec.verdict is Verdict.CONGRUENT and dec.residual < 1e-7
    # different invariants: rejected
    dec = congruent(t1, t3)
    assert dec.verdict is Verdict.NOT_CONGRUENT


def test_congruent_equivalence_relation_samples():
    sp = HermitianSpace(2)
    rng = np.random.default_rng(58)
    cfg = sample_config(sp, 4, 3, rng)
    dec_self = congruent(cfg, cfg)
    assert dec_self.verdict is Verdict.CONGRUENT
    C0 = random_member(sp, rng)
    moved = apply_isometry(cfg, C0)
    fwd = congruent(cfg, moved)
    bwd = congruent(moved, cfg)
    assert fwd.verdict is Verdict.CONGRUENT and bwd.verdict is Verdict.CONGRUENT
    # witnesses invert each other projectively on the configuration
    M = fwd.witness @ bwd.witness
    assert sp.is_member(M, 1e-7)
    # transitivity along a constructed chain
    further = apply_isometry(moved, random_member(sp, rng))
    step = congruent(moved, further)
    chain = congruent(cfg, further)
    assert step.verdict is Verdict.CONGRUENT and chain.verdict is Verdict.CONGRUENT


def test_congruent_with_basis_completion():
    # a triple in a 4-dimensional space spans a proper subspace, so the
    # witness needs a form-orthogonal completion on both sides
    sp = HermitianSpace(3)
    rng = np.random.default_rng(62)
    cfg = sample_config(sp, 3, 3, rng)
    moved = apply_isometry(cfg, random_member(sp, rng))
    dec = congruent(cfg, moved)
    assert dec.verdict is Verdict.CONGRUENT
    assert dec.residual < 1e-7
    assert sp.is_member(dec.witness, 1e-8)


def test_congruent_scrambled_lifts_same_points():
    # same projective points under scrambled lifts stay congruent
    sp = HermitianSpace(2)
    rng = np.random.default_rng(59)
    cfg = sample_config(sp, 5, 3, rng)
    lam = [random_quaternion(rng) + Quaternion.real(1.2) for _ in range(cfg.m)]
    cfg2 = gram_of(sp, times_each(cfg, lam))
    dec = congruent(cfg, cfg2)
    assert dec.verdict is Verdict.CONGRUENT
    assert dec.residual < 1e-7


def test_congruent_shape_mismatch():
    sp = HermitianSpace(2)
    rng = np.random.default_rng(60)
    a = sample_config(sp, 4, 4, rng)
    b = sample_config(sp, 4, 3, rng)
    dec = congruent(a, b)
    assert dec.verdict is Verdict.NOT_CONGRUENT
    assert "shape" in dec.reason


def _rescaled(cfg, rng, lo=-6.0, hi=6.0):
    """The configuration with each lift times a random quaternion of modulus 10^[lo, hi)."""
    q = rng.normal(size=(cfg.m, 4))
    q *= 10.0 ** rng.uniform(lo, hi, (cfg.m, 1)) / np.linalg.norm(q, axis=1, keepdims=True)
    return gram_of(cfg.space, right_times(cfg.lifts, *complex_pairs(q)), kinds=cfg.kinds)


@pytest.mark.parametrize("m,i,n", [(5, 3, 2), (6, 0, 4), (8, 4, 4), (3, 3, 3)])
def test_congruent_verdicts_hold_at_extreme_lift_scales(m, i, n):
    # lifts rescaled by quaternions of modulus 1e-6 .. 1e6: the batched
    # witness check keeps every image congruent and every independent draw not
    sp = HermitianSpace(n)
    rng = np.random.default_rng(80 + m + 10 * n)
    for _ in range(4):
        cfg = sample_config(sp, m, i, rng)
        moved = _rescaled(apply_isometry(cfg, random_member(sp, rng)), rng)
        dec = congruent(_rescaled(cfg, rng), moved, DECIDER_TOL)
        assert dec.verdict is Verdict.CONGRUENT
        assert dec.residual <= DECIDER_TOL
        other = _rescaled(sample_config(sp, m, i, rng), rng)
        assert congruent(cfg, other, DECIDER_TOL).verdict is Verdict.NOT_CONGRUENT


def test_witness_check_rejects_points_off_their_images(monkeypatch):
    # with the gauge alignment forced wrong, the witness still maps the
    # spanning lifts' lines onto the partner's, but not the remaining points
    # (m > n + 1): the batched residual check must refuse it.  The Gram
    # matrices did align, so a failed certificate is Inconclusive, not a
    # separation
    sp = HermitianSpace(2)
    rng = np.random.default_rng(63)
    cfg = sample_config(sp, 5, 3, rng)
    moved = apply_isometry(cfg, random_member(sp, rng))
    monkeypatch.setattr(gram, "orbit_equal", lambda *args: Quaternion(0.6, 0.0, 0.8, 0.0))
    dec = congruent(cfg, moved, DECIDER_TOL)
    assert dec.verdict is Verdict.INCONCLUSIVE
    assert dec.reason.startswith("witness verification failed")


def _complex_lift(sp, rng, null, real=False):
    """Random lift with complex coordinates, null or negative; real ones if ``real``.

    In the chart with last coordinate 1 and middle block zeta, the first
    coordinate -|zeta|^2/2 - s + i t gives <z, z> = -2s; the lift is then
    rescaled by a random complex number.
    """
    unit = 0.0 if real else 1j
    zeta = rng.normal(size=sp.dim - 2) + unit * rng.normal(size=sp.dim - 2)
    s = 0.0 if null else rng.uniform(0.5, 2.0)
    z1 = -0.5 * np.vdot(zeta, zeta).real - s + unit * rng.normal()
    z = np.concatenate([[z1], zeta, [1.0]]) * (rng.normal() + unit * rng.normal())
    return HVector(np.concatenate([z, np.zeros(sp.dim)]))


def _jk_free(values):
    """Largest j or k component of quaternion rows, over max(1, largest row norm)."""
    values = np.asarray(values).reshape(-1, 4)
    return np.max(np.abs(values[:, 2:])) / max(1.0, np.max(np.linalg.norm(values, axis=1)))


@pytest.mark.parametrize("m,i,n", [(5, 3, 2), (4, 4, 1), (5, 0, 3), (6, 4, 3)])
def test_complex_subfield_stays_complex(m, i, n, cayley_member):
    # SU(n,1): configurations with complex lifts keep every Gram entry and
    # every profile slot in the complex subfield, and the congruence decider
    # accepts their images under a complex member of U(n,1)
    sp = HermitianSpace(n)
    rng = np.random.default_rng(700 + 10 * m + i)
    cfg = gram_of(sp, stacked([_complex_lift(sp, rng, k < i) for k in range(m)]))
    assert cfg.i == i
    C = cayley_member(sp, rng)
    assert sp.is_member(C, 1e-10)
    moved = apply_isometry(cfg, C)
    for c in (cfg, moved):
        assert _jk_free(c.gram) <= 1e-12
        assert _jk_free(semi_normalize(c).gram) <= 1e-12
        if m >= 4:
            prof = profile(c)
            slots = [prof.u0, *(s.u for s in prof.pair_slots), *(s.value for s in prof.x_slots)]
            assert _jk_free([q.to_array() for q in slots]) <= 1e-12
    dec = congruent(cfg, moved)
    assert dec.verdict is Verdict.CONGRUENT
    assert dec.residual < 1e-7
    assert sp.is_member(dec.witness, 1e-8)


def _greedy_subset(space, lifts):
    """Reference search: one rank test per trial column, keeping each that adds a line."""
    chosen = []
    for k in range(lifts.shape[1]):
        trial = chosen + [k]
        if matrix_rank(two_columns(lifts[:, trial])) == 2 * len(trial):
            chosen = trial
        if len(chosen) == space.dim:
            break
    return chosen


def test_independent_subset_matches_the_greedy_reference():
    rng = np.random.default_rng(90)
    for n in range(1, 9):
        sp = HermitianSpace(n)
        for m in range(3, 11):
            for i in (0, *range(3, m + 1)):
                lifts = sample_config(sp, m, i, rng).lifts
                chosen, = _independent_subsets(sp, lifts)
                assert chosen == _greedy_subset(sp, lifts) == list(range(min(m, n + 1)))


@pytest.mark.parametrize("n,m,dependent,expected", [
    (3, 6, "repeat", [0, 2, 3, 4]),  # lift 2 is lift 1 times a quaternion
    (3, 6, "combination", [0, 1, 3, 4]),  # lift 3 is lift 1 q0 + lift 2 q1
    (4, 3, None, [0, 1, 2]),  # fewer points than the dimension
    (4, 4, "combination", [0, 1, 3]),
])
def test_independent_subset_matches_the_greedy_reference_when_rank_deficient(
        n, m, dependent, expected):
    sp = HermitianSpace(n)
    rng = np.random.default_rng(91)
    lifts = sample_config(sp, m, 3, rng).lifts.copy()
    q0, q1 = random_quaternion(rng) + ONE, random_quaternion(rng) + ONE
    if dependent == "repeat":
        lifts[:, 1] = right_times(lifts[:, 0], *q0.complex_pair())
    elif dependent == "combination":
        lifts[:, 2] = (right_times(lifts[:, 0], *q0.complex_pair())
                       + right_times(lifts[:, 1], *q1.complex_pair()))
    assert _independent_subsets(sp, lifts) == [_greedy_subset(sp, lifts)] == [expected]


def _field_config(sp, m, i, rng, field):
    """A random configuration with quaternionic, complex or real lifts."""
    if field == "quaternion":
        return sample_config(sp, m, i, rng)
    return gram_of(sp, stacked([_complex_lift(sp, rng, k < i, field == "real")
                                for k in range(m)]))


@pytest.mark.parametrize("field", ["quaternion", "complex", "real"])
@pytest.mark.parametrize("m,i,n", [(5, 3, 2), (3, 3, 2), (6, 0, 4), (8, 4, 4), (5, 5, 3)])
def test_congruent_witnesses_invert_each_other_up_to_sign(m, i, n, field):
    # m >= n + 1 points span, so a witness is fixed up to the points'
    # stabilizer; complex and real configurations leave sp1_align a circle or
    # more of solutions, and its choice closest to 1 must still pair up
    sp = HermitianSpace(n)
    rng = np.random.default_rng(92 + 10 * m + i)
    eye = np.eye(2 * sp.dim)
    for _ in range(3):
        a = _field_config(sp, m, i, rng, field)
        b = _rescaled(apply_isometry(a, random_member(sp, rng)), rng, -1.0, 1.0)
        ab, ba = congruent(a, b), congruent(b, a)
        assert ab.verdict is Verdict.CONGRUENT and ba.verdict is Verdict.CONGRUENT
        both = (ab.witness @ ba.witness).emb
        assert min(np.max(np.abs(both - eye)), np.max(np.abs(both + eye))) <= 1e-10
        # the verdict is the canonical-gauge comparison's
        for x in (b, _field_config(sp, m, i, rng, field)):
            separated = orbit_equal(semi_normalize(a), semi_normalize(x), DECIDER_TOL) is None
            assert (congruent(a, x).verdict is Verdict.NOT_CONGRUENT) == separated


@pytest.mark.parametrize("n,m,i", [(4, 8, 4), (4, 6, 0), (2, 5, 3)])
def test_congruent_makes_one_rank_test_per_configuration_and_no_gauge(monkeypatch, n, m, i):
    sp = HermitianSpace(n)
    rng = np.random.default_rng(93 + m)
    cfg = sample_config(sp, m, i, rng)
    moved = apply_isometry(cfg, random_member(sp, rng))
    calls = {"rank": 0, "gauge": 0}
    shapes = []

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(gram, "matrix_rank",
                        counted("rank", lambda M: shapes.append(M.shape) or matrix_rank(M)))
    monkeypatch.setattr(gram, "_gauge_rotation", counted("gauge", gram._gauge_rotation))
    assert congruent(cfg, moved).verdict is Verdict.CONGRUENT
    # one stacked SVD holds both configurations' leading blocks
    k = min(m, n + 1)
    assert calls == {"rank": 1, "gauge": 0} and shapes == [(2, 2 * (n + 1), 2 * k)]
    semi_normalize(cfg)
    assert calls["gauge"] == 1  # the counter counts


# -- checks at their thresholds -----------------------------------------------------

#: (entry of a valid (5, 3) semi-normalized Gram matrix, message): a component
#: is moved by d, the whole entry g_23 scaled by 1 + d
PATTERN_CASES = [
    ((3, 3, 0), "diagonal entry"),  # real part of a negative point's entry
    ((1, 1, 2), "diagonal entry"),  # imaginary part of a null point's entry
    ((0, 2, 3), "first-row null entry not 1"),
    ((0, 4, 1), "first-row entry not positive real"),  # imaginary part
    ((1, 2), r"\|g_23\| != 1"),
]


@pytest.mark.parametrize("entry,message", PATTERN_CASES, ids=[
    "diagonal-real", "diagonal-imaginary", "first-row-null", "first-row-imaginary", "g23-modulus"])
def test_check_pattern_at_its_threshold(entry, message):
    # each check passes a deviation of half PATTERN_TOL and refuses twice it,
    # with its own message
    sng = semi_normalize(sample_config(HermitianSpace(2), 5, 3, np.random.default_rng(70)))
    for factor, passes in ((0.5, True), (2.0, False)):
        g = sng.gram.copy()
        if len(entry) == 3:
            g[entry] += factor * PATTERN_TOL
        else:
            g[entry] *= 1.0 + factor * PATTERN_TOL
        perturbed = SemiNormalizedGram(5, 3, g)
        if passes:
            gram._check_pattern(perturbed)
        else:
            with pytest.raises(NumericalError, match=message):
                gram._check_pattern(perturbed)


def test_check_pattern_refuses_a_first_row_entry_that_is_not_positive():
    sng = semi_normalize(sample_config(HermitianSpace(2), 5, 0, np.random.default_rng(71)))
    g = sng.gram.copy()
    g[0, 3, 0] = 0.0
    with pytest.raises(NumericalError, match="first-row entry not positive real"):
        gram._check_pattern(SemiNormalizedGram(5, 0, g))


def _null_pair_at(ratio):
    """Two null lifts in H^{2,1} with |<p, q>| = ratio |p| |q|.

    p = e_0 and q = (1, x, -x^2 / 2): |q| = 1 + x^2 / 2 and <p, q> = -x^2 / 2.
    """
    x = math.sqrt(2.0 * ratio / (1.0 - ratio))
    return np.array([[1.0, 1.0], [0.0, x], [0.0, -x * x / 2.0], [0.0] * 2, [0.0] * 2, [0.0] * 2],
                    dtype=complex)


def _negative_pair_at(d):
    """Two negative lifts in H^{2,1} with distance invariant |<p,q>|^2 / (<p,p><q,q>) = d."""
    t = math.exp(math.acosh(math.sqrt(d)))
    return np.array([[1.0, t], [0.0, 0.0], [-0.5, -0.5 / t], [0.0] * 2, [0.0] * 2, [0.0] * 2],
                    dtype=complex)


def test_gram_of_zero_pairing_at_its_threshold():
    # |g_kj| <= DEGENERACY_FACTOR tol |p_k| |p_j| is a zero pairing
    sp, bound = HermitianSpace(2), DEGENERACY_FACTOR * DEFAULT_TOL
    with pytest.raises(DegenerateConfigurationError, match="pair to zero"):
        gram_of(sp, _null_pair_at(0.5 * bound), kinds=[PointType.NULL] * 2)
    gram_of(sp, _null_pair_at(2.0 * bound), kinds=[PointType.NULL] * 2)


def test_gram_of_coincident_negative_points_at_their_threshold():
    # two negative points coincide when d <= 1 + DEGENERACY_FACTOR tol
    sp, bound = HermitianSpace(2), DEGENERACY_FACTOR * DEFAULT_TOL
    with pytest.raises(DegenerateConfigurationError, match="coincide"):
        gram_of(sp, _negative_pair_at(1.0 + 0.5 * bound))
    cfg = gram_of(sp, _negative_pair_at(1.0 + 2.0 * bound))
    assert cfg.kinds == (PointType.NEGATIVE,) * 2


@pytest.mark.parametrize("factor,kind", [(0.5, PointType.NULL), (2.0, PointType.NEGATIVE)])
def test_gram_of_null_point_at_its_threshold(factor, kind):
    # a point is null when |<z, z>| <= tol |z|^2: z = (1, 0, b) has <z, z> = 2b
    # and |z|^2 = 1 + b^2, so b solves 2b = -c (1 + b^2) with c = factor tol
    c = factor * DEFAULT_TOL
    b = -c / (1.0 + math.sqrt(1.0 - c * c))
    lifts = np.zeros((6, 2), dtype=complex)
    lifts[2, 0] = 1.0  # e_2 is null, and <z, e_2> = 1
    lifts[0, 1], lifts[2, 1] = 1.0, b
    cfg = gram_of(HermitianSpace(2), lifts, DEFAULT_TOL)
    assert cfg.kinds == (PointType.NULL, kind)


@pytest.mark.parametrize("scale", [1e100, 1e-100])
@pytest.mark.parametrize("m,i", [(4, 4), (5, 3), (5, 0)])
def test_decoder_and_decider_accept_a_configuration_at_any_lift_scale(m, i, scale):
    # points are projective: the zero-pairing and coincidence tests read the
    # pairings of unit lifts, whose squares neither overflow nor underflow,
    # and the rescaling forms no product of two moduli
    sp = HermitianSpace(3)
    cfg = sample_config(sp, m, i, np.random.default_rng(3))
    data = serialize.config_to_json(cfg)
    data["points"] = (scale * np.array(data["points"])).tolist()
    decoded = serialize.config_from_json(data)
    assert decoded.kinds == cfg.kinds
    assert max_entry_gap(decoded.gram / scale ** 2, cfg.gram) <= 1e-12 * max(
        1.0, float(np.max(np.abs(cfg.gram))))
    assert congruent(cfg, decoded).verdict is Verdict.CONGRUENT


# -- the rescaled Gram matrix and the alignment certificate against their references ----

def _reference_rescaled_gram(cfg):
    """conj(lam_k) g_kj lam_j as two Hamilton products over the whole (m, m, 4) array."""
    m, i, g = cfg.m, cfg.i, cfg.gram
    if i >= 3:
        lam1 = math.sqrt(np.linalg.norm(g[1, 2])
                         / (np.linalg.norm(g[0, 1]) * np.linalg.norm(g[0, 2])))
    else:
        lam1 = 1.0 / math.sqrt(-g[0, 0, 0])
    w = lam1 * g[0]
    wn = np.linalg.norm(w, axis=1)
    nul, neg = slice(1, max(i, 1)), slice(max(i, 1), m)
    lam = np.zeros((m, 4))
    lam[0, 0] = lam1
    lam[nul] = qconj_array(w[nul]) / wn[nul, None] ** 2
    lam[neg] = qconj_array(w[neg]) / (wn[neg] * np.sqrt(-np.diagonal(g[..., 0])[neg]))[:, None]
    return qmul_array(qmul_array(qconj_array(lam)[:, None], g), lam[None, :])


def _reference_certificate(mu, v, w):
    """|conj(mu) w_k mu - v_k| per row, as two Hamilton products."""
    m = mu.to_array()
    return np.linalg.norm(qmul_array(qmul_array(qconj_array(m), w), m) - v, axis=1)


#: (n, m, i): the bench shapes, a bare triple and a wide null block
EQUIVALENCE_SHAPES = [(3, 3, 3), (2, 5, 3), (4, 6, 0), (4, 8, 4), (6, 9, 3)]


@pytest.mark.parametrize("n,m,i", EQUIVALENCE_SHAPES)
def test_rescaled_gram_is_the_two_product_reference(n, m, i):
    # the pairings product of the rescaled lifts against the rescaling of the
    # Gram matrix, with lifts rescaled by quaternions of modulus 1e-6 .. 1e6
    sp = HermitianSpace(n)
    rng = np.random.default_rng(700 + 10 * n + m)
    for _ in range(6):
        cfg = _rescaled(sample_config(sp, m, i, rng), rng)
        ref = _reference_rescaled_gram(cfg)
        bound = 1e-12 * max(1.0, float(np.max(np.linalg.norm(ref, axis=-1))))
        assert max_entry_gap(gram._rescaled(cfg).gram, ref) <= bound


@pytest.mark.parametrize("n,m,i", EQUIVALENCE_SHAPES)
def test_alignment_certificate_is_the_two_product_reference(n, m, i):
    # one rotation of the imaginary parts against two Hamilton products, for
    # the solved mu of a moved copy and for a random mu between independent draws
    sp = HermitianSpace(n)
    rng = np.random.default_rng(800 + 10 * n + m)
    for _ in range(6):
        a = _rescaled(sample_config(sp, m, i, rng), rng)
        b = _rescaled(apply_isometry(a, random_member(sp, rng)), rng)
        c = _rescaled(sample_config(sp, m, i, rng), rng)
        v, w, x = (gram._rescaled(cfg).v_entries() for cfg in (a, b, c))
        mu = sp1_align(v, w, DECIDER_TOL)
        assert mu is not None
        for q, y in ((mu, w), (random_unit_quaternion(rng), x)):
            new = np.linalg.norm(conjugated_by(q, y) - v, axis=1)
            assert np.max(np.abs(new - _reference_certificate(q, v, y))) <= 1e-14


# -- numerical failures in the congruence decider -----------------------------------

def test_congruent_subset_disagreement_is_inconclusive(monkeypatch):
    sp = HermitianSpace(2)
    rng = np.random.default_rng(75)
    cfg = sample_config(sp, 5, 3, rng)
    moved = apply_isometry(cfg, random_member(sp, rng))
    monkeypatch.setattr(gram, "_independent_subsets", lambda space, a, b: [[0, 1, 2], [0, 1, 3]])
    dec = congruent(cfg, moved)
    assert dec.verdict is Verdict.INCONCLUSIVE and dec.witness is None
    assert dec.reason == ("numerical failure: configurations disagree on their "
                          "independent subsets")


def test_congruent_perp_signature_disagreement_is_inconclusive(monkeypatch):
    # three points in H^{3,1} span a proper subspace, so each side completes
    # its span by a form-orthonormal basis of the complement; the second
    # completion reports flipped signs
    sp = HermitianSpace(3)
    rng = np.random.default_rng(76)
    cfg = sample_config(sp, 3, 3, rng)
    moved = apply_isometry(cfg, random_member(sp, rng))
    calls = []
    basis = gram.orthonormal_form_basis

    def flipped(space, S):
        fill, signs = basis(space, S)
        calls.append(signs)
        return fill, signs if len(calls) == 1 else [-s for s in signs]

    monkeypatch.setattr(gram, "orthonormal_form_basis", flipped)
    dec = congruent(cfg, moved)
    assert len(calls) == 2
    assert dec.verdict is Verdict.INCONCLUSIVE and dec.witness is None
    assert dec.reason == "numerical failure: perp signatures disagree for equal Gram matrices"


@pytest.mark.parametrize("target,error", [
    ("orthonormal_form_basis", GramSchmidtError("restricted form is degenerate on the span")),
    ("inverse", np.linalg.LinAlgError("Singular matrix")),
])
def test_congruent_linear_algebra_failure_is_inconclusive(monkeypatch, target, error):
    # the perp completion and the inverse of the span raise ValueErrors of
    # their own on valid input; both read as numerical failures too
    sp = HermitianSpace(3)
    rng = np.random.default_rng(78)
    cfg = sample_config(sp, 3, 3, rng)
    moved = apply_isometry(cfg, random_member(sp, rng))

    def fail(*args):
        raise error

    monkeypatch.setattr(gram.HMatrix if target == "inverse" else gram, target, fail)
    dec = congruent(cfg, moved)
    assert dec.verdict is Verdict.INCONCLUSIVE and dec.witness is None
    assert dec.reason == f"numerical failure: {error}"


def test_congruent_input_errors_still_raise():
    sp, rng = HermitianSpace(2), np.random.default_rng(77)
    pair = sample_config(sp, 3, 3, rng).lifts[:, :2]
    two = gram_of(sp, pair, kinds=[PointType.NULL] * 2)
    with pytest.raises(InvalidSpecError, match="at least three points"):
        congruent(two, two)
    one_null = gram_of(sp, np.concatenate([sample_config(sp, 3, 3, rng).lifts[:, :1],
                                           sample_config(sp, 3, 0, rng).lifts[:, :3]], axis=1))
    assert one_null.i == 1
    with pytest.raises(InvalidSpecError, match="one or two null points"):
        congruent(one_null, one_null)
    with pytest.raises(DimensionMismatchError):
        congruent(sample_config(sp, 4, 4, rng), sample_config(HermitianSpace(3), 4, 4, rng))


# -- reconstruction -----------------------------------------------------------------

@pytest.mark.parametrize("m,i,n", [(4, 4, 2), (4, 3, 2), (5, 5, 3), (5, 0, 2), (6, 3, 3)])
def test_reconstruct_round_trip(m, i, n):
    sp = HermitianSpace(n)
    rng = np.random.default_rng(400 + 10 * m + i)
    for _ in range(10):
        cfg = sample_config(sp, m, i, rng)
        sng = semi_normalize(cfg)
        prof = profile_from_gram(sng)
        rebuilt = reconstruct_gram(prof)
        mu = orbit_equal(sng, rebuilt, 1e-7)
        assert mu is not None


def _reference_profile_from_gram(sng):
    """The per-slot profile construction the array pass replaced."""
    m, i, g = sng.m, sng.i, sng.gram
    lo = max(i, 1)
    r1 = g[0, :, 0].copy()
    r1[:i] = 1.0
    slots = x_slot_indices(m, i)
    values = np.empty((len(slots), 4))
    with np.errstate(divide="ignore", invalid="ignore"):
        if i >= 3:
            fam = x_slot_families(m, i)
            g23 = g[1, 2]
            pos, _, cols = fam["X1"]
            g2 = g[1, cols]
            values[pos] = qmul_array(g23, qconj_array(g2)) * (r1[cols]
                                                              / np.sum(g2 ** 2, axis=1))[:, None]
            pos, _, cols = fam["X2"]
            values[pos] = qmul_array(qconj_array(g23), g[1, cols]) / r1[cols, None]
            pos, rows, cols = fam["Xk"]
            gk = g[1, rows]
            values[pos] = qmul_array(gk, g[rows, cols]) / (np.sum(gk ** 2, axis=1)
                                                            * r1[cols])[:, None]
        rows, cols = np.triu_indices(m, 1)
        keep = rows >= lo
        rows, cols = np.append(1, rows[keep]), np.append(2, cols[keep])
        e = g[rows, cols]
        d = np.sum(e ** 2, axis=1)
        a = np.arccos(np.clip(-e[:, 0] / np.sqrt(d), -1.0, 1.0))
    x_slots = [XSlot(f, r, c, Quaternion.from_seq(v)) for (f, r, c), v in zip(slots, values)]
    a = a.tolist()
    u = [Quaternion.from_seq(x) for x in _rotation_invariants(e)]
    pair_slots = [PairSlot(r + 1, c + 1, dk, 0.0 if ak <= ANGLE_ZERO_TOL else ak, uk)
                  for r, c, dk, ak, uk in zip(rows.tolist(), cols.tolist(), d.tolist(), a, u)]
    return InvariantProfile(m, i, a[0], u[0], x_slots, pair_slots[1:], r1[lo:].tolist())


def _reference_reconstruct_gram(prof):
    """The per-slot reconstruction the array pass replaced, without its checks."""
    def polar(a, u):
        return math.sin(a) * u.to_array() - [math.cos(a), 0.0, 0.0, 0.0]

    m, i = prof.m, prof.i
    g = np.zeros((m, m, 4))
    g[0, 1:i, 0] = 1.0
    g[0, max(i, 1):, 0] = prof.first_row
    for slot in prof.pair_slots:
        g[slot.i1 - 1, slot.j1 - 1] = math.sqrt(slot.d) * polar(slot.a, slot.u)
    if i >= 3:
        r1 = g[0, :, 0].copy()
        x = np.array([s.value.to_array() for s in prof.x_slots]).reshape(-1, 4)
        fam = x_slot_families(m, i)
        g[1, 2] = g23 = polar(prof.a23, prof.u0)
        pos, _, cols = fam["X2"]
        g[1, cols] = qmul_array(g23, x[pos]) * r1[cols, None]
        pos, rows, cols = fam["Xk"]
        g[rows, cols] = qmul_array(qconj_array(g[1, rows]), x[pos]) * r1[cols, None]
    g += qconj_array(g).transpose(1, 0, 2)
    g[np.arange(i, m), np.arange(i, m), 0] = -1.0
    return g


@pytest.mark.parametrize("m,i,n", [(4, 4, 2), (4, 3, 2), (5, 5, 3), (5, 0, 2), (6, 3, 3),
                                   (7, 0, 3), (8, 4, 4), (8, 8, 4)])
def test_array_pass_matches_the_per_slot_construction_bitwise(m, i, n):
    # the wire profile and the rebuilt matrix are the per-slot code's byte for byte
    sp = HermitianSpace(n)
    for seed in range(4):
        sng = semi_normalize(sample_config(sp, m, i, np.random.default_rng(700 + 10 * m + seed)))
        prof, ref = profile_from_gram(sng), _reference_profile_from_gram(sng)
        assert (json.dumps(serialize.profile_to_json(prof))
                == json.dumps(serialize.profile_to_json(ref)))
        assert reconstruct_gram(prof).gram.tobytes() == _reference_reconstruct_gram(ref).tobytes()


def test_reconstruct_all_real_profile():
    sp = HermitianSpace(2)
    cfg = gram_of(sp, lifts((-1.0, 1, 1), (-2.5, 2, 1), (-5.0, 3, 1), (-1.5, 1, 1)))
    prof = profile(cfg)
    rebuilt = reconstruct_gram(prof)
    assert np.max(np.linalg.norm(rebuilt.gram[..., 1:], axis=-1)) < 1e-9


def test_reconstruct_rejects_wrong_slots():
    sp = HermitianSpace(2)
    rng = np.random.default_rng(61)
    cfg = sample_config(sp, 4, 4, rng)
    prof = profile(cfg)
    with pytest.raises(InvalidSpecError):
        reconstruct_gram(dataclasses.replace(prof, x_slots=prof.x_slots[:-1]))


@pytest.mark.parametrize("edit", ["swap", "duplicate"])
def test_reconstruct_rejects_pair_labels_off_the_index_scheme(edit):
    # a pair slot is written where the scheme puts it, so its label must be that place
    prof = profile(sample_config(HermitianSpace(4), 8, 4, np.random.default_rng(3)))
    pairs = list(prof.pair_slots)
    first, second = pairs[:2]
    assert [(s.i1, s.j1) for s in pairs[:2]] == [(5, 6), (5, 7)]
    pairs[1] = dataclasses.replace(second, i1=first.i1, j1=first.j1)
    if edit == "swap":
        pairs[0] = dataclasses.replace(first, i1=second.i1, j1=second.j1)
    with pytest.raises(InvalidSpecError, match="pair slots do not match the index scheme"):
        reconstruct_gram(dataclasses.replace(prof, pair_slots=pairs))


def test_reconstruct_rejects_inconsistent_x1_slot():
    # the X1 family is implied by the others; a changed X1 value must be caught
    sp = HermitianSpace(2)
    prof = profile(sample_config(sp, 5, 3, np.random.default_rng(64)))
    k = next(t for t, s in enumerate(prof.x_slots) if s.family == "X1")
    slots = list(prof.x_slots)
    slots[k] = dataclasses.replace(slots[k], value=slots[k].value * Quaternion(1.0, 0.05, 0, 0))
    with pytest.raises(InvalidSpecError, match="inconsistent profile"):
        reconstruct_gram(dataclasses.replace(prof, x_slots=slots))


def _with_x1(prof, values):
    """The profile with the X1 slot at each column of ``values`` set to its value."""
    return dataclasses.replace(prof, x_slots=[
        dataclasses.replace(s, value=values[s.col]) if s.family == "X1" and s.col in values
        else s for s in prof.x_slots])


def test_reconstruct_names_the_first_inconsistent_x1_column():
    prof = profile(sample_config(HermitianSpace(3), 6, 3, np.random.default_rng(66)))
    assert [s.col for s in prof.x_slots if s.family == "X1"] == [4, 5, 6]
    bad = {s.col: s.value * Quaternion(1.0, 0.05, 0, 0) for s in prof.x_slots[1:3]}
    message = "inconsistent profile: X1 slot at column 5 disagrees with the other slot families"
    with pytest.raises(InvalidSpecError, match=re.escape(message)):
        reconstruct_gram(_with_x1(prof, bad))


def test_reconstruct_rejects_a_nan_x1_slot():
    # a gap that is not a number is not within the bound
    prof = profile(sample_config(HermitianSpace(3), 6, 3, np.random.default_rng(67)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSpecError, match="X1 slot at column 6"):
            reconstruct_gram(_with_x1(prof, {6: Quaternion(math.nan, 0.0, 0.0, 0.0)}))


def test_reconstruct_builds_no_slot_objects(monkeypatch):
    # the round trip reads the rebuilt matrix's identities as arrays
    sng = semi_normalize(sample_config(HermitianSpace(4), 8, 4, np.random.default_rng(68)))
    built = []

    def counting(init):
        def counted_init(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)
        return counted_init

    for cls in (XSlot, PairSlot):
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    prof = profile_from_gram(sng)
    assert sorted(set(built)) == ["PairSlot", "XSlot"]  # the counter counts
    built.clear()
    reconstruct_gram(prof)
    assert built == []


@pytest.mark.parametrize("m,i", [(6, 3), (6, 5)])
def test_reconstruct_rejects_degenerate_profiles(m, i):
    # a zero negative-pair entry (d = 0) or a zero X2 slot makes an entry the
    # profile identities divide by vanish; no configuration has either
    sp = HermitianSpace(3)
    prof = profile(sample_config(sp, m, i, np.random.default_rng(65 + m + i)))
    if m - i >= 3:
        pairs = list(prof.pair_slots)
        pairs[0] = dataclasses.replace(pairs[0], d=0.0)
        bad = dataclasses.replace(prof, pair_slots=pairs)
    else:
        # X2 at column 4, a null point: the Xk slots of row 4 divide by g_24
        slots = list(prof.x_slots)
        k = next(t for t, s in enumerate(slots) if (s.family, s.col) == ("X2", 4))
        slots[k] = dataclasses.replace(slots[k], value=Quaternion())
        bad = dataclasses.replace(prof, x_slots=slots)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSpecError, match="degenerate profile"):
            reconstruct_gram(bad)


# -- configuration-side properties at every lift scale ----------------------------

#: (n, m, i): boundary, all-negative and mixed shapes, spanning and not
PROPERTY_SHAPES = [(1, 4, 4), (2, 5, 3), (3, 4, 0), (3, 6, 4), (4, 8, 4)]


@st.composite
def moved_and_independent_configs(draw):
    """(a0, a, b, c): a configuration a0, a0 and its image under a random
    member with their lifts rescaled by quaternions of modulus 1e-6 .. 1e6
    (a and b), and an independent draw c rescaled the same way.  The rescaled
    configurations read their point types off their Gram matrices."""
    n, m, i = draw(st.sampled_from(PROPERTY_SHAPES))
    sp = HermitianSpace(n)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def rescaled(cfg):
        exponents = draw(st.lists(st.floats(-6.0, 6.0), min_size=m, max_size=m))
        q = rng.normal(size=(m, 4))
        q *= 10.0 ** np.array(exponents)[:, None] / np.linalg.norm(q, axis=1, keepdims=True)
        return gram_of(sp, right_times(cfg.lifts, *complex_pairs(q)))

    a0 = sample_config(sp, m, i, rng)
    b = apply_isometry(a0, random_member(sp, rng))
    return a0, rescaled(a0), rescaled(b), rescaled(sample_config(sp, m, i, rng))


def _point_invariants(cfg):
    """The four point invariants of a configuration's leading points, the
    quaternion-valued ones as similarity classes (modulus, real part)."""
    sp, S = cfg.space, cfg.lifts
    out = [angular_invariant(sp, S[:, :3])]
    for x in (cross_ratio(sp, S[:, :4]), *cross_ratio_triple(sp, S[:, :4])):
        out += [x.norm(), x.re]
    if cfg.m - cfg.i >= 2:
        out.append(distance_invariant(sp, S[:, -2:]))
    return np.array(out)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(moved_and_independent_configs())
def test_congruence_and_point_invariants_hold_at_every_lift_scale(configs):
    a0, a, b, c = configs
    assert a.kinds == b.kinds == c.kinds == a0.kinds
    for x, y, verdict in ((a, b, Verdict.CONGRUENT), (a, c, Verdict.NOT_CONGRUENT)):
        forward, backward = congruent(x, y), congruent(y, x)
        assert forward.verdict is backward.verdict is verdict
        for dec, (u, v) in ((forward, (x, y)), (backward, (y, x))):
            if dec.positive:
                # the witness maps each point of u onto the matching point of v
                assert a0.space.is_member(dec.witness, 1e-8)
                assert np.max(line_residuals(dec.witness.emb @ u.lifts, v.lifts)) <= DECIDER_TOL
    ref = _point_invariants(a0)
    for cfg in (a, b):
        assert np.allclose(_point_invariants(cfg), ref, rtol=1e-8, atol=1e-10)

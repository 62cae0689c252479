import dataclasses
import math
import re

import numpy as np
import pytest

from qhyp import invariants
from qhyp.errors import DegenerateConfigurationError, InvalidSpecError
from qhyp.invariants import (
    InvariantProfile,
    _cross_ratios,
    angular_invariant,
    boundary_quadruple_slack,
    cross_ratio,
    cross_ratio_triple,
    distance_invariant,
    _rotation_invariants,
    profile,
    x_slot_families,
    x_slot_indices,
)
from qhyp.isometry import random_member
from qhyp.linalg import HermitianSpace, HVector, right_times, stacked, stacked_from_components
from qhyp.quaternion import Quaternion, complex_pairs, quaternion_array, sp1_align
from qhyp.sampling import (
    apply_isometry,
    random_quaternion,
    sample_config,
    sample_null_lift,
)

I, J, K = Quaternion.i(), Quaternion.j(), Quaternion.k()
ONE = Quaternion.one()


def qv(*entries):
    return HVector(stacked_from_components(quaternion_array(
        q if isinstance(q, Quaternion) else Quaternion.real(q) for q in entries)))


def lifts(*points):
    """The stacked (2N, m) lifts of points given by their quaternion entries."""
    return stacked([qv(*entries) for entries in points])


def times_each(S, qs):
    """The stacked lifts S with column k times the quaternion qs[k] on the right."""
    return right_times(S, *complex_pairs(quaternion_array(qs)))


@pytest.fixture
def sp1():
    return HermitianSpace(1)


# -- cross ratio --------------------------------------------------------------

def test_cross_ratio_standard_quadruple(sp1):
    # o, infinity, u and v
    x = cross_ratio(sp1, lifts((0, 1), (1, 0), (I, 1), (J, 1)))
    assert x.approx_eq(-K, 1e-12)


def test_cross_ratio_telescoping(sp1):
    x = cross_ratio(sp1, lifts((0, 1), (1, 0), (I, 1), (I, 1)))
    assert x.approx_eq(ONE, 1e-12)


def test_cross_ratio_class_lift_independent(sp1):
    rng = np.random.default_rng(40)
    S = lifts((0, 1), (1, 0), (I, 1), (Quaternion(0.3, 0.2, -0.5, 0.1), 1))
    # the similarity class of a quaternion is its (norm, real part)
    base = cross_ratio(sp1, S)
    for _ in range(50):
        x = cross_ratio(sp1, times_each(S, [random_quaternion(rng) + Quaternion.real(1.5)
                                            for _ in range(4)]))
        assert abs(x.norm() - base.norm()) < 1e-10 * max(1, base.norm())
        assert abs(x.re - base.re) < 1e-10


def test_cross_ratio_degenerate_pairing(sp1):
    with pytest.raises(DegenerateConfigurationError):
        cross_ratio(sp1, lifts((0, 1), (1, 0), (0, 1), (1, 0)))


def test_point_invariants_take_the_lifts_of_their_point_count(sp1):
    S = lifts((0, 1), (1, 0), (I, 1), (J, 1))
    for invariant, count in ((cross_ratio, 4), (cross_ratio_triple, 4),
                             (angular_invariant, 3), (distance_invariant, 2)):
        for wrong in (S[:, :count - 1], S[:, 0]):
            with pytest.raises(InvalidSpecError, match=f"stacked lifts of {count} points"):
                invariant(sp1, wrong)
    with pytest.raises(ValueError, match="zero vector"):
        cross_ratio(sp1, np.concatenate([S[:, :3], np.zeros((4, 1))], axis=1))


def test_batched_cross_ratios_flag_each_vanishing_row(sp1):
    S = lifts((0, 1), (1, 0), (I, 1), (J, 1))
    # the second row's factor <z3, z1> is <o, o> = 0
    x, vanish = _cross_ratios(sp1.pairings(S), np.linalg.norm(S, axis=0),
                              [(0, 1, 2, 3), (0, 1, 0, 1)], 1e-9)
    assert vanish.tolist() == [False, True]
    assert Quaternion.from_seq(x[0]).approx_eq(cross_ratio(sp1, S), 1e-15)
    with pytest.raises(DegenerateConfigurationError,
                       match="vanishing pairing in a cross-ratio factor"):
        cross_ratio_triple(sp1, S[:, [0, 1, 0, 3]])


def test_cross_ratio_triple_relations():
    for n, always_tight in ((2, True), (3, False)):
        sp = HermitianSpace(n)
        rng = np.random.default_rng(41)
        slacks = []
        for _ in range(50):
            x1, x2, x3 = cross_ratio_triple(sp, stacked([sample_null_lift(sp, rng)
                                                         for _ in range(4)]))
            assert abs(x2.norm() - x1.norm() * x3.norm()) < 1e-8 * max(1, x2.norm())
            slack = boundary_quadruple_slack(x1, x2, x3)
            assert slack >= -1e-8
            slacks.append(slack)
        if always_tight:
            # quadruples at n <= 2 span at most two quaternionic dimensions
            assert max(slacks) < 1e-8
        else:
            assert max(slacks) > 1e-3


def test_cross_ratio_triple_types_its_points_from_the_pairings():
    # the boundary relations bind null quadruples only: with a negative and a
    # positive point, read off the pairings' diagonal, the slack is -8 and the
    # triple is returned, not refused
    S = lifts((0, 0, 1), (1, 0, 0), (-1, 0, 1), (2, 0, 1))
    x1, x2, x3 = cross_ratio_triple(HermitianSpace(2), S)
    assert boundary_quadruple_slack(x1, x2, x3) == pytest.approx(-8.0, abs=1e-12)


# -- angular invariant ----------------------------------------------------------

def test_angular_whole_line_is_right_angle(sp1):
    assert angular_invariant(sp1, lifts((0, 1), (1, 0), (I, 1))) == pytest.approx(
        math.pi / 2, abs=1e-12)


def test_angular_totally_real_triple():
    sp = HermitianSpace(2)
    # real coordinates only: all pairings real, invariant 0
    S = lifts((Quaternion.real(-0.5), 1, 1), (Quaternion.real(-2.0), 2, 1),
              (Quaternion.real(-4.5), 3, 1))
    assert angular_invariant(sp, S) < 1e-9


def test_angular_isometry_invariant():
    sp = HermitianSpace(2)
    rng = np.random.default_rng(42)
    triples = [stacked([sample_null_lift(sp, rng) for _ in range(3)]) for _ in range(20)]
    triples.append(sample_config(sp, 4, 0, np.random.default_rng(0)).lifts[:, :3])
    for S in triples:
        a0 = angular_invariant(sp, S)
        C = random_member(sp, rng)
        assert abs(angular_invariant(sp, C.emb @ S) - a0) < 1e-9
        rescaled = times_each(S, [random_quaternion(rng) for _ in range(3)])
        assert abs(angular_invariant(sp, rescaled) - a0) < 1e-9
        assert 0 <= a0 <= math.pi / 2 + 1e-12


# -- distance invariant -----------------------------------------------------------

def test_distance_invariant_cosh_identity(sp1):
    # interior points -t and -1 on the real axis: rho = log t, d = cosh^2(rho/2)
    t = 3.7
    d = distance_invariant(sp1, lifts((-1, 1), (-t, 1)))
    rho = math.log(t)
    assert d == pytest.approx(math.cosh(rho / 2) ** 2, rel=1e-12)


def test_distance_invariant_lift_independent_and_invariant():
    sp = HermitianSpace(2)
    rng = np.random.default_rng(43)
    S = sample_config(sp, 2, 0, rng).lifts
    d0 = distance_invariant(sp, S)
    assert d0 >= 1 - 1e-12
    for _ in range(20):
        lam = random_quaternion(rng) + Quaternion.real(1.5)
        assert distance_invariant(sp, times_each(S, [lam, ONE])) == pytest.approx(d0, rel=1e-10)
        C = random_member(sp, rng)
        assert distance_invariant(sp, C.emb @ S) == pytest.approx(d0, rel=1e-9)


def test_distance_invariant_wrong_type(sp1):
    # the types are read off the pairings: a null point is refused
    with pytest.raises(InvalidSpecError, match="two negative points"):
        distance_invariant(sp1, lifts((0, 1), (-1, 1)))


# -- rotation invariant -------------------------------------------------------------

def test_rotation_invariant_values():
    u = _rotation_invariants(np.array([[1.0, 2.0, 0.0, 0.0], [5.0, 0.0, 0.0, 0.0],
                                       [1.0, 1.0, 1.0, 1.0]]))
    assert Quaternion.from_seq(u[0]).approx_eq(I, 1e-12)
    assert Quaternion.from_seq(u[1]).is_zero()
    assert Quaternion.from_seq(u[2]).approx_eq(Quaternion(0, 1, 1, 1) / math.sqrt(3), 1e-12)


# -- profile ----------------------------------------------------------------------

def test_x_slot_counts():
    assert len(x_slot_indices(4, 4)) == 2
    assert len(x_slot_indices(4, 3)) == 3
    assert len(x_slot_indices(5, 5)) == 5
    assert len(x_slot_indices(5, 0)) == 0
    assert len(x_slot_indices(6, 3)) == 9
    # the closed form agrees at i = m and at i = m - i, and disagrees otherwise
    assert InvariantProfile.closed_form_d(4, 4) == 2
    assert InvariantProfile.closed_form_d(5, 5) == 5
    assert InvariantProfile.closed_form_d(6, 3) == 9
    assert InvariantProfile.closed_form_d(4, 3) == 1  # != 3 actual slots
    # the family closed form counts the enumerated slots at every supported
    # shape, and the stated form agrees with it exactly when (m-i)(m-2i) = 0
    shapes = [(m, 0) for m in range(4, 9)]
    shapes += [(m, i) for m in range(3, 9) for i in range(3, m + 1)]
    for m, i in shapes:
        family = InvariantProfile.closed_form_family_d(m, i)
        assert family == len(x_slot_indices(m, i)), (m, i)
        stated = InvariantProfile.closed_form_d(m, i)
        assert (stated == family) == ((m - i) * (m - 2 * i) == 0), (m, i)
    for i in (1, 2):
        with pytest.raises(InvalidSpecError):
            InvariantProfile.closed_form_family_d(5, i)


def test_slot_table_matches_the_per_call_construction():
    # every valid (m, i) with m <= 8: the cached read-only table holds the slot
    # scheme, its families, the base-then-negative-pair positions and the
    # definition-route quadruples of the per-call construction
    for m in range(3, 9):
        for i in [0, *range(3, m + 1)]:
            table = invariants._slot_table(m, i)
            assert invariants._slot_table(m, i) is table  # the second call reads the cache
            slots = x_slot_indices(m, i)
            assert table.slots == tuple(slots)
            families = x_slot_families(m, i)
            assert table.families.keys() == families.keys()
            arrays = [table.pair_rows, table.pair_cols, table.quads]
            for key, ref in families.items():
                for got, want in zip(table.families[key], ref, strict=True):
                    assert got.dtype == want.dtype and np.array_equal(got, want)
                    arrays.append(got)
            rows, cols = np.triu_indices(m, 1)
            keep = rows >= max(i, 1)
            assert table.pair_rows.tolist() == [1, *rows[keep].tolist()]
            assert table.pair_cols.tolist() == [2, *cols[keep].tolist()]
            quads = [(int(r == 1), r - 1, 1 + (r <= 2), c - 1) for _, r, c in slots]
            assert table.quads.shape == (len(slots), 4)
            assert table.quads.tolist() == [list(q) for q in quads]
            for a in arrays:
                assert not a.flags.writeable
            with pytest.raises(TypeError):
                table.families["X1"] = families["X1"]


@pytest.mark.parametrize("m,i,n", [(4, 4, 2), (4, 3, 2), (5, 5, 3), (5, 0, 2), (6, 3, 3)])
def test_profile_structure(m, i, n):
    sp = HermitianSpace(n)
    rng = np.random.default_rng(100 + 10 * m + i)
    cfg = sample_config(sp, m, i, rng)
    prof = profile(cfg)
    assert prof.m == m and prof.i == i
    assert prof.d_count == len(x_slot_indices(m, i))
    assert prof.t_count + prof.l_count == InvariantProfile.closed_form_pairs(m, i)
    assert 0 <= prof.a23 <= math.pi / 2 + 1e-12
    for s in prof.pair_slots:
        assert s.d >= 1 - 1e-12
        assert 0 <= s.a <= math.pi / 2 + 1e-12
        assert s.u.is_zero() or abs(s.u.norm() - 1) < 1e-9
    for s in prof.x_slots:
        assert s.value.norm() > 0


def test_profile_all_real_config():
    sp = HermitianSpace(2)
    # real-coordinate negative points: all invariant quaternion slots real
    from qhyp.gram import gram_of
    cfg = gram_of(sp, lifts((-1.0, 1, 1), (-2.5, 2, 1), (-5.0, 3, 1), (-1.5, 1, 1)))
    assert cfg.i == 0
    prof = profile(cfg)
    assert prof.t_count == 0
    assert prof.u0.is_zero()


def test_profile_invariance_up_to_sp1():
    sp = HermitianSpace(2)
    rng = np.random.default_rng(44)
    cfg = sample_config(sp, 5, 3, rng)
    prof = profile(cfg)
    for _ in range(5):
        C = random_member(sp, rng)
        prof2 = profile(apply_isometry(cfg, C))
        np.testing.assert_allclose(prof2.a23, prof.a23, atol=1e-8)
        np.testing.assert_allclose(prof2.first_row, prof.first_row, atol=1e-7)
        for s1, s2 in zip(prof.pair_slots, prof2.pair_slots):
            assert s2.d == pytest.approx(s1.d, rel=1e-7)
            assert s2.a == pytest.approx(s1.a, abs=1e-7)
        mu = sp1_align(quaternion_slots(prof), quaternion_slots(prof2), 1e-6)
        assert mu is not None


def quaternion_slots(prof):
    """Every conjugation-covariant entry of a profile, as a (k, 4) array."""
    slots = [prof.u0, *(s.u for s in prof.pair_slots), *(s.value for s in prof.x_slots)]
    return np.array([q.to_array() for q in slots])


def _config_484():
    sp = HermitianSpace(4)
    return sample_config(sp, 8, 4, np.random.default_rng(45))


def test_profile_names_the_slot_off_its_gram_identity(monkeypatch):
    cfg = _config_484()
    honest = invariants.profile_from_gram

    def corrupted(sng):
        prof = honest(sng)
        slots = list(prof.x_slots)
        k = next(t for t, s in enumerate(slots) if (s.family, s.row, s.col) == ("X2", 2, 4))
        bad = slots[k].value + Quaternion(0.0, 1e-3, 0.0, 0.0) * max(1.0, slots[k].value.norm())
        slots[k] = dataclasses.replace(slots[k], value=bad)
        return dataclasses.replace(prof, x_slots=slots)

    monkeypatch.setattr(invariants, "profile_from_gram", corrupted)
    message = "cross-ratio slot X2(2,4) disagrees with its Gram identity"
    with pytest.raises(DegenerateConfigurationError, match=re.escape(message)):
        profile(cfg)


def test_profile_rejects_a_vanishing_factor():
    # the corner form has norm 1, so |<z, w>| <= |z| |w| and at tol = 1 every
    # factor of the definition route vanishes
    with pytest.raises(DegenerateConfigurationError,
                       match="vanishing pairing in a cross-ratio factor"):
        profile(_config_484(), tol=1.0)


def test_profile_gauge_does_not_move_with_tol():
    # tol sets only the vanishing-factor test; the canonical gauge that
    # semi-normalization fixes (u0, a23 and every quaternion slot) is the same
    cfg = sample_config(HermitianSpace(4), 8, 4, np.random.default_rng((1, 0)))
    assert profile(cfg, 1e-3) == profile(cfg)


def test_profile_makes_no_scalar_pairings(monkeypatch):
    # the definition route reads every pairing off one array product
    cfg = _config_484()
    calls = []
    herm, ratio = HermitianSpace.herm, invariants.cross_ratio
    monkeypatch.setattr(HermitianSpace, "herm",
                        lambda *a: calls.append("herm") or herm(*a))
    monkeypatch.setattr(invariants, "cross_ratio",
                        lambda *a, **k: calls.append("cross_ratio") or ratio(*a, **k))
    prof = profile(cfg)
    assert prof.d_count == 18
    assert calls == []

import math
import random
from fractions import Fraction

import pytest

from thetadim.weights import (MarkedPoint, ParabolicData, SplitContext,
                              build_omega_mu, build_split_omegas, chi,
                              congruence_offset, ell, enumerate_Pk,
                              enumerate_Qk, enumerate_Wk, enumerate_Wk_prime,
                              h_closed, h_iter, h_step, hecke_shift, jump_sum, jumps, lambda_of_point,
                              mu_star, n_split, normalize_point, omega_total,
                              phi, phi_inverse, split_context, split_degrees)


def pt(label, flag, weights):
    return MarkedPoint(label, tuple(flag), tuple(weights))


def synthetic_ctx(r, k, n1, g1=1):
    # a free-standing context for weight-level tests; degree is forced consistent
    n1 = Fraction(n1)
    return SplitContext(g1, 1, (), 1, 1, n1, Fraction(0), r, k, n1 + r * g1)


# -- data validation -------------------------------------------------------

def test_point_validation():
    omega = ParabolicData(2, 2, (pt("p", (1, 1), (0, 1)),))
    assert omega.point("p").flag == (1, 1)
    with pytest.raises(ValueError):
        ParabolicData(2, 2, (pt("p", (1, 1), (1, 0)),))     # not increasing
    with pytest.raises(ValueError):
        ParabolicData(2, 2, (pt("p", (1, 2), (0, 1)),))     # flag sum != rank
    with pytest.raises(ValueError):
        ParabolicData(2, 2, (pt("p", (1, 1), (0, 3)),))     # above the level
    with pytest.raises(ValueError):
        ParabolicData(2, 2, (pt("p", (1, 1), (0, 1)),
                             pt("p", (2,), (0,))))          # duplicate label


def test_wide_regime_is_storable():
    # top weight equal to the level arises from partial Hecke moves
    ParabolicData(2, 2, (pt("p", (1, 1), (0, 2)),))


def test_chi():
    assert chi(1, 2, 0) == 0
    assert chi(0, 2, 1) == 3
    assert chi(2, 3, -1) == -4


def test_jumps_and_jump_sum():
    assert jumps(pt("p", (1, 1), (0, 1))) == [(1, 1)]
    assert jumps(pt("p", (2,), (0,))) == []
    assert jumps(pt("p", (1, 2), (0, 2))) == [(2, 1)]
    assert jump_sum(pt("p", (1, 1, 1), (0, 1, 2))) == 1 * 1 + 1 * 2


def test_ell():
    assert ell(ParabolicData(2, 1), 1, 0) == 0
    assert ell(ParabolicData(2, 2), 2, 0) == -2
    assert ell(ParabolicData(2, 3), 1, 1) == Fraction(3, 2)
    omega = ParabolicData(2, 2, (pt("p", (1, 1), (0, 1)),))
    assert ell(omega, 1, 1) == Fraction(2 * 1 - 1, 2)


def test_lambda_of_point():
    assert lambda_of_point(pt("p", (1, 1), (0, 1)), 2) == (2, 1)
    assert lambda_of_point(pt("p", (2,), (0,)), 2) == (2, 2)
    assert lambda_of_point(pt("p", (2, 1), (0, 2)), 3) == (3, 3, 1)


def test_omega_total():
    assert omega_total(ParabolicData(2, 2)) == 0
    omega = ParabolicData(2, 2, (pt("p", (1, 1), (0, 1)),
                                 pt("q", (2,), (1,))))
    assert omega_total(omega) == 3 + 2


# -- enumeration -----------------------------------------------------------

def test_enumerate_pk_examples():
    assert list(enumerate_Pk(2, 2)) == [(0, 0), (1, 0), (1, 1)]
    assert list(enumerate_Pk(1, 3)) == [(0,), (1,), (2,)]
    assert list(enumerate_Pk(3, 3)) == [
        (0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 0, 0), (2, 1, 0),
        (2, 1, 1), (2, 2, 0), (2, 2, 1), (2, 2, 2)]


def test_enumerate_wk_examples():
    assert list(enumerate_Wk(2, 2)) == [(0, 0), (1, 0), (2, 0)]
    for k in range(1, 5):
        assert list(enumerate_Wk(1, k)) == [(0,)]


def test_enumeration_counts():
    for r in range(1, 5):
        for k in range(1, 6):
            assert len(list(enumerate_Pk(r, k))) == math.comb(k - 1 + r, r)
            assert len(list(enumerate_Wk(r, k))) == math.comb(k + r - 1, r - 1)


def test_enumeration_is_sorted_lexicographically():
    for r, k in ((2, 3), (3, 2), (4, 3)):
        elems = list(enumerate_Pk(r, k))
        assert elems == sorted(elems)
        welems = list(enumerate_Wk(r, k))
        assert welems == sorted(welems)


def test_wk_prime_filter():
    assert list(enumerate_Wk_prime(2, 2, 0)) == [(0, 0), (2, 0)]
    assert list(enumerate_Wk_prime(2, 2, 1)) == [(1, 0)]


def test_qk_filter():
    ctx = synthetic_ctx(2, 2, -1)
    assert list(enumerate_Qk(2, 2, ctx.n1)) == [(0, 0), (1, 1)]
    # a context with unreachable integrality gives the empty set
    none_ctx = synthetic_ctx(2, 2, Fraction(1, 3))
    assert list(enumerate_Qk(2, 2, none_ctx.n1)) == []


def test_mu_star():
    assert mu_star((1, 0), 2) == (2, 1)
    assert mu_star((2, 2), 2) == (0, 0)
    for mu in enumerate_Pk(3, 3):
        assert mu_star(mu_star(mu, 3), 3) == mu
        assert list(mu_star(mu, 3)) == sorted(mu_star(mu, 3), reverse=True)


# -- splitting -------------------------------------------------------------

def test_n_split_example():
    omega = ParabolicData(2, 2)
    assert n_split(omega, -2, 1, 1, ()) == (Fraction(-1), Fraction(-1))


def test_split_context_and_degrees():
    omega = ParabolicData(2, 2)
    ctx = split_context(omega, 2, 0, (), 1, 1, 1)
    assert ctx._fields == ("g1", "g2", "I1", "c1", "c2", "n1", "n2", "rank",
                           "level", "degree")
    assert (ctx.n1, ctx.n2) == (Fraction(-1), Fraction(-1))
    d1, d2 = split_degrees((0, 0), ctx)
    assert (d1, d2) == (Fraction(-1), Fraction(1))
    d1, d2 = split_degrees((1, 0), ctx)
    assert d1 == Fraction(-1, 2)


def test_split_context_rejects_non_integral_ell():
    omega = ParabolicData(2, 3)
    with pytest.raises(ValueError):
        split_context(omega, 1, 1, (), 1, 1, 1)     # ell = 3/2
    omega2 = ParabolicData(2, 2)
    with pytest.raises(ValueError):
        split_context(omega2, 2, 1, (), 1, 1, 1)    # ell = -3, halves not integral


def test_split_degrees_sum_to_degree():
    rng = random.Random(1)
    for _ in range(30):
        r = rng.randint(1, 3)
        k = rng.randint(1, 3)
        g = rng.randint(1, 3)
        d = rng.randint(-2, 2)
        omega = ParabolicData(r, k)
        try:
            ctx = split_context(omega, g, d, (), rng.randint(0, g), 1, 1)
        except ValueError:
            continue
        for mu in enumerate_Pk(r, k):
            d1, d2 = split_degrees(mu, ctx)
            assert d1 + d2 == d


def test_congruence_offset():
    omega = ParabolicData(2, 2, (pt("p", (1, 1), (0, 1)),
                                 pt("q", (1, 1), (0, 1))))
    assert congruence_offset(omega, ("p",)) == 1
    assert congruence_offset(omega, ("p", "q")) == 0
    assert congruence_offset(omega, ()) == 0


# -- attaching points ------------------------------------------------------

def test_build_omega_mu_constant_weight():
    omega = ParabolicData(2, 1)
    out = build_omega_mu(omega, (0, 0))
    p1, p2 = out.points[-2], out.points[-1]
    assert p1.flag == (2,) and p1.weights == (0,)
    assert p2.flag == (2,) and p2.weights == (0,)
    assert lambda_of_point(p1, 1) == (1, 1)


def test_build_omega_mu_generic():
    omega = ParabolicData(2, 2)
    out = build_omega_mu(omega, (1, 0))
    p1, p2 = out.points[-2], out.points[-1]
    assert p1.flag == (1, 1) and p1.weights == (0, 1)
    assert p2.flag == (1, 1) and p2.weights == (0, 1)


def test_build_omega_mu_dual_lambda_is_exact():
    for r in range(1, 6):
        for k in range(1, 6):
            omega = ParabolicData(r, k)
            for mu in enumerate_Pk(r, k):
                out = build_omega_mu(omega, mu)
                p1, p2 = out.points[-2], out.points[-1]
                assert lambda_of_point(p2, k) == mu_star(mu, k)
                # first point carries mu up to a constant vector, from mu_r
                lam1 = lambda_of_point(p1, k)
                diff = {a - b for a, b in zip(lam1, mu)}
                assert len(diff) == 1
                assert p1.weights[0] == mu[-1]


def test_build_omega_mu_fresh_labels():
    omega = ParabolicData(2, 2, (pt("x1", (1, 1), (0, 1)),))
    out = build_omega_mu(omega, (1, 0))
    labels = [p.label for p in out.points]
    assert len(set(labels)) == 3


def test_build_omega_mu_rejects_out_of_range():
    omega = ParabolicData(2, 2)
    with pytest.raises(ValueError):
        build_omega_mu(omega, (3, 0))      # mu_1 must not pass the level
    with pytest.raises(ValueError):
        build_omega_mu(omega, (0, 1))      # not nonincreasing
    # W'_k holds weights with mu_1 = k, so the top entry may equal the level
    assert build_omega_mu(omega, (2, 0)).points[-1].weights == (0, 2)


def test_build_split_omegas_partitions_points():
    omega = ParabolicData(2, 2, (pt("p", (1, 1), (0, 1)),
                                 pt("q", (1, 1), (0, 1))))
    ctx = split_context(omega, 2, 1, ("p",), 1, 1, 1)
    o1, o2 = build_split_omegas(omega, (0, 0), ctx)
    assert o1.labels()[:-1] == ("p",)
    assert o2.labels()[:-1] == ("q",)
    assert o1.points[-1].label != o2.points[-1].label


# -- Hecke moves -----------------------------------------------------------

def test_hecke_basic_examples():
    # the basic move: s = n_1 wraps the whole bottom block
    omega = ParabolicData(2, 2, (pt("z", (1, 1), (0, 1)),))
    out = hecke_shift(omega, "z", 1)
    assert out.point("z").flag == (1, 1)
    assert out.point("z").weights == (0, 1)

    omega = ParabolicData(3, 2, (pt("z", (2, 1), (0, 1)),))
    out = hecke_shift(omega, "z", 2)
    assert out.point("z").flag == (1, 2)
    assert out.point("z").weights == (0, 1)


def test_hecke_basic_full_cycle_is_identity():
    # one full rotation of the blocks restores the normalized data
    omega = ParabolicData(3, 3, (pt("z", (2, 1), (0, 1)),))
    data = omega
    total = 0
    for _ in range(2):
        n1 = data.point("z").flag[0]
        data = hecke_shift(data, "z", n1)
        total += n1
    assert data.point("z") == omega.point("z")
    assert total == 3
    assert hecke_shift(omega, "z", total) == omega


def test_hecke_m_example():
    # a partial move: m < n_1 bottom entries wrap to the level
    omega = ParabolicData(3, 2, (pt("z", (2, 1), (0, 1)),))
    out = hecke_shift(omega, "z", 1)
    assert out.point("z").flag == (1, 1, 1)
    assert out.point("z").weights == (0, 1, 2)


def test_hecke_m_preconditions():
    # no move starts from a point whose normalized top weight is the level
    wide = ParabolicData(3, 2, (pt("z", (2, 1), (0, 2)),))
    for s in (1, 2, 3):
        with pytest.raises(ValueError, match="already at the level"):
            hecke_shift(wide, "z", s)
    assert hecke_shift(wide, "z", 0) == wide


def test_normalize_point():
    omega = ParabolicData(2, 3, (pt("z", (1, 1), (1, 2)),))
    out = normalize_point(omega, "z")
    assert out.point("z").weights == (0, 1)


def test_hecke_shift_matches_moves():
    omega = ParabolicData(3, 2, (pt("z", (2, 1), (0, 1)),))
    # s = 1 is a partial move
    out = hecke_shift(omega, "z", 1)
    assert out.point("z").flag == (1, 1, 1)
    # the moves repeat with period r
    for s in range(4):
        assert hecke_shift(omega, "z", s + 3) == hecke_shift(omega, "z", s)
    # s = 0 only normalizes
    assert hecke_shift(omega, "z", 0) == omega
    # so do s = 0 and s = r at a point whose bottom weight is not 0
    lifted = ParabolicData(3, 3, (pt("z", (2, 1), (1, 2)),))
    assert normalize_point(lifted, "z").point("z").weights == (0, 1)
    for s in (0, 3):
        assert hecke_shift(lifted, "z", s) == normalize_point(lifted, "z")


def test_hecke_shift_on_one_block_point():
    omega = ParabolicData(2, 2, (pt("z", (2,), (1,)),))
    out = hecke_shift(omega, "z", 2)       # full wrap: nothing changes but normalization
    assert out.point("z").flag == (2,)
    assert out.point("z").weights == (0,)
    out1 = hecke_shift(omega, "z", 1)
    assert out1.point("z").flag == (1, 1)
    assert out1.point("z").weights == (0, 2)


# -- weight-level rotation -------------------------------------------------

def test_h_step_examples():
    assert h_step((1, 1), 2) == (2, 0)
    assert h_step((2, 1, 0), 2) == (1, 1, 0)
    assert h_step((0, 0), 2) == (2, 0)
    assert h_step((3,), 5) == (0,)


def test_h_iter_full_cycle_shifts_to_zero():
    for mu in ((2, 1, 0), (3, 3, 1), (2, 2, 2)):
        out = h_iter(mu, 3, 3)
        assert out == tuple(x - mu[-1] for x in mu)


def test_h_closed_matches_iteration():
    rng = random.Random(5)
    for _ in range(300):
        r = rng.randint(1, 5)
        k = rng.randint(1, 5)
        mu = tuple(sorted((rng.randint(0, k) for _ in range(r)), reverse=True))
        for m in range(r + 1):
            assert h_closed(mu, k, m) == h_iter(mu, k, m), (mu, k, m)


def test_h_magnitude_rule():
    rng = random.Random(6)
    for _ in range(300):
        r = rng.randint(2, 5)
        k = rng.randint(1, 5)
        mu = tuple(sorted((rng.randint(0, k) for _ in range(r)), reverse=True))
        for m in range(1, r):
            assert sum(h_closed(mu, k, m)) == k * m - r * mu[r - m - 1] + sum(mu)
        assert sum(h_closed(mu, k, r)) == sum(mu) - r * mu[-1]


# -- the degree rotation bijection -----------------------------------------

def test_phi_worked_example():
    ctx = synthetic_ctx(2, 2, -1)
    d1, _ = split_degrees((0, 0), ctx)
    assert d1 == -1
    assert phi((0, 0), ctx) == (2, 0)
    assert phi((1, 1), ctx) == (0, 0)
    assert phi_inverse((2, 0), ctx) == (0, 0)
    assert phi_inverse((0, 0), ctx) == (1, 1)


def test_phi_bijection_exhaustive():
    for r in range(1, 5):
        for k in range(1, 6):
            for n1 in range(-2, 3):
                for g1 in (0, 1, 2):
                    ctx = synthetic_ctx(r, k, n1, g1)
                    offset = (k * n1) % r
                    Qk = list(enumerate_Qk(r, k, ctx.n1))
                    Wp = list(enumerate_Wk_prime(r, k, offset))
                    images = [phi(mu, ctx) for mu in Qk]
                    assert sorted(images) == sorted(Wp)
                    assert len(set(images)) == len(images)
                    for mu in Qk:
                        assert phi_inverse(phi(mu, ctx), ctx) == mu


def test_phi_inverse_rejects_wrong_congruence():
    ctx = synthetic_ctx(2, 2, -1)
    with pytest.raises(ValueError):
        phi_inverse((1, 0), ctx)           # fails the congruence filter
    with pytest.raises(ValueError):
        phi_inverse((1, 1), ctx)           # bottom entry must be zero

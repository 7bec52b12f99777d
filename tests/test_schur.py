import pytest

from thetadim.cyclotomic import CycNum, root_power
from thetadim.schur import (alternant_counts, check_v, identity_52_check,
                            identity_53_check, identity_54_check, schur_at,
                            schur_brute, sin_sq, weyl_denominator)
from thetadim.verlinde import v_vectors
from thetadim.weights import MarkedPoint, enumerate_Pk, mu_star


def test_check_v():
    check_v((1, 0), 2, 1)
    check_v((2, 1, 0), 3, 1)
    with pytest.raises(ValueError):
        check_v((1, 1), 2, 1)              # not strictly decreasing
    with pytest.raises(ValueError):
        check_v((3, 0), 2, 1)              # first entry too large
    with pytest.raises(ValueError):
        check_v((2, 1), 2, 2)              # last entry must vanish


# -- evaluation ------------------------------------------------------------

def test_schur_trivial_weight_is_one():
    for r, k in ((1, 2), (2, 1), (2, 2), (3, 2)):
        for v in v_vectors(r, k):
            assert schur_at((0,) * r, v, r, k) == 1


def test_trivial_alternant_is_the_vandermonde():
    # a_rho, the lam = 0 alternant, against the product it replaces
    for r in range(1, 6):
        for k in range(1, 4):
            n = r + k
            for v in v_vectors(r, k):
                product = CycNum.one(n)
                for i in range(r):
                    for j in range(i + 1, r):
                        product = product * (root_power(n, v[i])
                                             - root_power(n, v[j]))
                assert CycNum(n, alternant_counts((0,) * r, v, n)) == product


def test_schur_small_examples():
    z3 = root_power(3, 1)
    assert schur_at((1, 0), (1, 0), 2, 1) == 1 + z3
    assert schur_at((1, 1), (1, 0), 2, 1) == z3
    # one-row weight is the complete homogeneous sum x^2 + xy + y^2
    z4 = root_power(4, 1)
    assert schur_at((2, 0), (1, 0), 2, 2) == 1 + z4 + z4 ** 2


def test_schur_brute_agrees():
    checked = 0
    for r, k in ((1, 3), (2, 2), (2, 3), (3, 2), (6, 2)):
        for v in v_vectors(r, k):
            for lam in enumerate_Pk(r, k):
                if sum(lam) > 8:
                    continue
                assert schur_at(lam, v, r, k) == schur_brute(lam, v, r, k)
                checked += 1
    assert checked > 50
    # the empty shape has one tableau, the empty one, with monomial 1
    assert schur_brute((0, 0, 0), (3, 1, 0), 3, 2) == 1


def test_schur_brute_guard():
    with pytest.raises(ValueError):
        schur_brute((3, 3, 3), (2, 1, 0), 3, 3)


def test_schur_validates_input():
    with pytest.raises(ValueError):
        schur_at((1, 0), (1, 1), 2, 1)
    with pytest.raises(ValueError):
        schur_at((0, 1), (1, 0), 2, 1)     # weight must be nonincreasing


@pytest.mark.parametrize("build", [
    lambda: MarkedPoint("p", (1, 1), (0, 1.9)),
    lambda: MarkedPoint("p", ("1", "1"), ("0", "1")),
    lambda: check_v((2.7, 0), 2, 2),
    lambda: check_v(("1", "0"), 2, 2),
    lambda: schur_at((1.5, 0), (1, 0), 2, 2),
    lambda: schur_at((1, 0), (1.5, 0), 2, 2),
    lambda: schur_brute((1.5, 0), (1, 0), 2, 2),
    lambda: schur_brute((1, 0), ("1", "0"), 2, 2),
], ids=["point-float", "point-str", "v-float", "v-str", "schur-lam",
        "schur-v", "brute-lam", "brute-v"])
def test_non_integer_inputs_are_refused(build):
    # int() would truncate 1.9 to 1 or parse "1", answering another query
    with pytest.raises(TypeError):
        build()


# -- identities of single evaluations --------------------------------------

def test_dual_weight_conjugation_law():
    # S at the complement-reversed weight is the conjugate twisted by k|v|
    for r, k in ((2, 2), (2, 3), (3, 2)):
        n = r + k
        for v in v_vectors(r, k):
            tw = root_power(n, (k * sum(v)) % n)
            for mu in enumerate_Pk(r, k):
                lhs = schur_at(mu_star(mu, k), v, r, k)
                rhs = schur_at(mu, v, r, k).conjugate() * tw
                assert lhs == rhs, (mu, v)


def test_constant_shift_law():
    # adding a constant to every row multiplies by a power of the root
    for r, k in ((2, 2), (3, 2)):
        n = r + k
        for v in v_vectors(r, k):
            for mu in enumerate_Pk(r, k - 1):
                shifted = tuple(x + 1 for x in mu)
                lhs = schur_at(shifted, v, r, k)
                rhs = schur_at(mu, v, r, k) * root_power(n, sum(v) % n)
                assert lhs == rhs


# -- sine squares and the denominator --------------------------------------

def test_sin_sq_values():
    assert sin_sq(1, 3) == 3               # (2 sin pi/3)^2
    assert sin_sq(1, 4) == 2
    assert sin_sq(2, 4) == 4
    assert sin_sq(1, 6) == 1
    assert sin_sq(2, 6) == 3
    assert sin_sq(3, 6) == 4


def test_sin_sq_symmetry_and_guard():
    for n in (3, 5, 8):
        for m in range(1, n):
            assert sin_sq(m, n) == sin_sq(n - m, n)
    with pytest.raises(ValueError):
        sin_sq(0, 4)
    with pytest.raises(ValueError):
        sin_sq(4, 4)


def test_weyl_denominator():
    # genus 2, rank 2, level 1: single gap of 1 out of 3
    assert weyl_denominator((1, 0), 2, 2, 1) == 3
    assert weyl_denominator((1, 0), 1, 2, 1) == 1
    inv = weyl_denominator((1, 0), 0, 2, 1)
    assert inv * CycNum.from_rational(3, inv.order) == CycNum.one(inv.order)


def test_weyl_denominator_matches_float():
    import math
    for r, k in ((2, 2), (3, 2)):
        for v in v_vectors(r, k):
            exact = weyl_denominator(v, 2, r, k)
            expect = 1.0
            for i in range(r):
                for j in range(i + 1, r):
                    expect *= (2 * math.sin(math.pi * (v[i] - v[j]) / (r + k))) ** 2
            assert abs(exact.embed().real - expect) < 1e-9


# -- summed identities -----------------------------------------------------

def test_identity_52():
    for r in (1, 2, 3):
        for k in (1, 2, 3, 4):
            for v in v_vectors(r, k):
                assert identity_52_check(v, r, k).is_zero(), (r, k, v)


def test_identity_53():
    for r in (1, 2, 3):
        for k in (1, 2, 3, 4):
            for v in v_vectors(r, k):
                assert identity_53_check(v, r, k).is_zero(), (r, k, v)


def test_identity_54():
    for r in (2, 3):
        for k in (1, 2):
            vs = v_vectors(r, k)
            for v in vs:
                for vp in vs:
                    if v == vp:
                        continue
                    assert identity_54_check(v, vp, r, k).is_zero(), (v, vp)


def test_identity_54_rejects_equal_vectors():
    with pytest.raises(ValueError):
        identity_54_check((1, 0), (1, 0), 2, 1)

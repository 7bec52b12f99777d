import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from thetadim import schur
from thetadim.cyclotomic import (CycNum, NotRationalError,
                                 cyclotomic_polynomial, root_power)


def totient(n):
    return sum(1 for i in range(1, n + 1) if math.gcd(i, n) == 1)


def _at_root(poly, N):
    """The polynomial's value at zeta_N, as a CycNum."""
    return sum((c * root_power(N, i) for i, c in enumerate(poly)),
               CycNum.zero(N))


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    phi = cyclotomic_polynomial(105)
    assert type(phi) is tuple and all(type(c) is int for c in phi)


def test_cyclotomic_polynomial_degree_and_root():
    for N in range(1, 31):
        poly = cyclotomic_polynomial(N)
        assert len(poly) - 1 == totient(N)
        assert _at_root(poly, N).is_zero()


def test_cyclotomic_polynomial_rejects_bad_order():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


@pytest.mark.parametrize("make", [
    lambda: CycNum(0),
    lambda: CycNum(-2, (1,)),
    lambda: root_power(0, 1),
    lambda: root_power(-3, 1),
    lambda: root_power(3, 1).promote(-3),
    lambda: root_power(3, 1).promote(0),
    lambda: schur.sin_sq(1, 0),
], ids=["CycNum-0", "CycNum-negative", "root_power-0", "root_power-negative",
        "promote-negative", "promote-0", "sin_sq-0"])
def test_order_below_one_is_refused(make):
    with pytest.raises(ValueError, match="order must be >= 1"):
        make()


def test_coeffs_cannot_be_assigned():
    x = CycNum(3, [1, 2])
    with pytest.raises(AttributeError):
        x.coeffs = (0, 1, 0)
    with pytest.raises(AttributeError):
        x.order = 4                                  # phi(4) = phi(3) = 2
    assert x.order == 3 and x == 1 + 2 * root_power(3, 1) and x.coeffs == (1, 2, 0)


@pytest.mark.parametrize("N", [31, 48, 64, 101])
def test_inverse_of_sparse_values_past_the_strategy(N):
    # the rank-2 Vandermonde and sine factors schur inverts at order r + k
    for x in (root_power(N, 1) - root_power(N, 3), 2 - root_power(N, 5) - root_power(N, -5)):
        assert x * x.inverse() == 1 and x.inverse().inverse() == x


def test_two_spellings_have_equal_coefficients():
    a, b = root_power(3, 2), -1 - root_power(3, 1)
    assert a.coeffs == b.coeffs == (-1, -1, 0)      # zero from phi(3) = 2 on
    # zeta_12^8 = -zeta_12^2, and the twelve roots of unity sum to zero
    c = Fraction(2, 3) * root_power(12, 8) + CycNum(12, [Fraction(1, 6)] * 12)
    assert c.coeffs == CycNum(12, (0, 0, Fraction(-4, 6))).coeffs
    assert c.coeffs[totient(12):] == (0,) * (12 - totient(12))


def test_values_survive_pickle_and_copy():
    x = Fraction(3, 4) * root_power(5, 2) - 1
    assert pickle.loads(pickle.dumps(x)) == x
    assert copy.deepcopy(x) == x and copy.copy(x).coeffs == x.coeffs


def test_root_power_basics():
    assert root_power(4, 0) == 1
    assert root_power(4, 6) == -1          # exponent wraps mod 4
    assert root_power(3, 1).coeffs == (0, 1, 0)
    z = root_power(5, 1)
    assert z ** 5 == 1
    assert z * root_power(5, 4) == 1


def test_add_mul_small_identities():
    z = root_power(3, 1)
    assert z * z == -1 - z                 # zeta_3^2 in canonical form
    assert (z + z.conjugate()).as_rational() == -1
    assert (1 + z + z * z).is_zero()


def test_scale_and_subtract():
    z = root_power(8, 1)
    a = 3 * z - z * 2
    assert a == z
    assert z * 0 == 0 * z == CycNum.zero(8)
    assert (Fraction(1, 2) * z + Fraction(1, 2) * z) == z


def test_inverse_examples():
    three = 2 - root_power(3, 1) - root_power(3, 2)
    assert three.as_rational() == 3
    assert three.inverse().as_rational() == Fraction(1, 3)
    z = root_power(7, 1)
    assert z.inverse() == root_power(7, 6)
    with pytest.raises(ZeroDivisionError):
        CycNum.zero(5).inverse()


def test_conjugate_examples():
    z = root_power(5, 1)
    assert z.conjugate() == root_power(5, 4)
    q = CycNum.from_rational(Fraction(7, 3), 9)
    assert q.conjugate() == q


def test_as_rational():
    v = root_power(6, 1) + root_power(6, 5)
    assert v.as_rational() == 1
    with pytest.raises(NotRationalError) as err:
        root_power(3, 1).as_rational()
    assert err.value.coeffs[1] == 1


def test_promote():
    z3 = root_power(3, 1)
    assert z3.promote(12) == root_power(12, 4)
    with pytest.raises(ValueError):
        z3.promote(8)


def test_cross_order_equality():
    assert root_power(2, 1) == root_power(4, 2)
    assert root_power(2, 1) != root_power(4, 1)


def test_embed_values():
    assert abs(CycNum.one(7).embed() - 1.0) < 1e-12
    assert abs(root_power(4, 1).embed() - 1j) < 1e-12
    v = 2 - root_power(3, 1) - root_power(3, 2)
    assert abs(v.embed() - 3.0) < 1e-12


def test_order_mismatch_is_an_error():
    with pytest.raises(ValueError):
        root_power(3, 1) + root_power(4, 1)
    with pytest.raises(ValueError):
        root_power(3, 1) * root_power(4, 1)


def test_float_coefficient_is_refused():
    # Fraction(0.5) would be exact, but Fraction(0.1) is a binary fraction
    with pytest.raises(TypeError):
        CycNum(3, (0.5,))


def test_pow_negative_exponent():
    z = root_power(9, 2)
    assert z ** -1 == z.inverse()
    assert z ** -3 == (z ** 3).inverse()


# -- randomized algebra ----------------------------------------------------

@st.composite
def cyc_pairs(draw, count=2):
    N = draw(st.integers(min_value=1, max_value=30))
    vals = []
    for _ in range(count):
        coeffs = [0] * N
        for _ in range(draw(st.integers(0, 4))):
            coeffs[draw(st.integers(0, N - 1))] = draw(st.integers(-10, 10))
        vals.append(CycNum(N, coeffs))
    return vals


@settings(max_examples=60, deadline=None)
@given(cyc_pairs(count=3))
def test_ring_axioms(vals):
    a, b, c = vals
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(cyc_pairs(count=1))
def test_inverse_round_trip(vals):
    (a,) = vals
    if not a.is_zero():
        assert a * a.inverse() == 1


@settings(max_examples=60, deadline=None)
@given(cyc_pairs(count=2))
def test_conjugate_is_a_ring_map(vals):
    a, b = vals
    assert a.conjugate().conjugate() == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@settings(max_examples=60, deadline=None)
@given(cyc_pairs(count=2))
def test_embed_is_a_ring_map(vals):
    a, b = vals
    assert abs((a * b).embed() - a.embed() * b.embed()) < 1e-8
    assert abs((a + b).embed() - (a.embed() + b.embed())) < 1e-10


@settings(max_examples=40, deadline=None)
@given(cyc_pairs(count=1), st.integers(min_value=1, max_value=3))
def test_promote_commutes_with_arithmetic(vals, mult):
    (a,) = vals
    M = a.order * mult
    assert (a * a).promote(M) == a.promote(M) * a.promote(M)
    assert abs(a.promote(M).embed() - a.embed()) < 1e-10


def test_canonical_is_idempotent():
    a = CycNum(10, tuple(Fraction(i, 3) for i in range(10)))
    first = a.canonical()
    again = CycNum(10, first).canonical()
    assert first == again


@pytest.mark.parametrize("N", [30, 60, 84, 105, 210])
def test_large_orders(N):
    poly = cyclotomic_polynomial(N)
    assert len(poly) - 1 == totient(N)
    assert _at_root(poly, N).is_zero()
    if N == 105:
        # the first cyclotomic polynomial with a coefficient other than 0, +-1
        assert min(poly) == -2
    rng = random.Random(N)
    a = CycNum(N, [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(N)])
    canon = a.canonical()
    assert not any(canon[len(poly) - 1:])
    size = sum(abs(c) for c in a.coeffs) + sum(abs(c) for c in canon)
    assert abs(CycNum(N, canon).embed() - a.embed()) < 1e-12 * size
    assert a * a.inverse() == 1

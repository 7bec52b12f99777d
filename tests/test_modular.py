import json
import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

import thetadim.modular as modular
import thetadim.verlinde as verlinde
from thetadim.cli import main
from thetadim.modular import (EvaluationError, _det, _nonzero, _proth_exponent,
                              _proth_prime, lifted_root, magnitude_bound,
                              prime_root, residues, weyl_dimension)
from thetadim.schur import _perm_sign, v_orbits, v_vectors
from thetadim.cyclotomic import cyclotomic_polynomial
from thetadim.verlinde import (closed_formula_cyclotomic, closed_formula_exact,
                               query, verify)
from thetadim.weights import MarkedPoint, ParabolicData


def _trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def _random_point(rng, r, k, label):
    while True:
        cuts = sorted(rng.sample(range(1, r), rng.randrange(r)))
        flag = tuple(b - a for a, b in
                     zip((0,) + tuple(cuts), tuple(cuts) + (r,)))
        if len(flag) <= k + 1:
            weights = tuple(sorted(rng.sample(range(k + 1), len(flag))))
            return MarkedPoint(label, flag, weights)


def _grid(ranks, levels, genera, max_points, seed):
    rng = random.Random(seed)
    for r in ranks:
        for k in levels:
            for g in genera:
                for npts in range(max_points + 1):
                    pts = tuple(_random_point(rng, r, k, f"p{i}")
                                for i in range(npts))
                    for d in range(r):
                        yield query(g, d, ParabolicData(r, k, pts))


# -- primes and roots of unity ---------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least strong pseudoprime to all twelve bases above
_MR_LIMIT = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test with the first twelve prime bases: the
    oracle for the Proth certificate of the prime search."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is beyond the range where the test is exact")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_miller_rabin_matches_trial_division():
    assert [n for n in range(3000) if is_prime(n)] == \
        [n for n in range(3000) if _trial_division(n)]


@pytest.mark.parametrize("n", [2, 37, 41, 65537, 998244353, 1000000007,
                               2 ** 31 - 1, 2 ** 61 - 1])
def test_miller_rabin_known_primes(n):
    assert is_prime(n)


@pytest.mark.parametrize("n", [561, 1105, 1729, 2465, 2821, 6601, 8911,
                               41041, 825265, 321197185, 5394826801])
def test_miller_rabin_carmichael_numbers(n):
    assert not is_prime(n)


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
def test_miller_rabin_strong_pseudoprimes(n):
    # strong pseudoprimes to the first four and the first nine prime bases
    assert not is_prime(n)


def test_miller_rabin_refuses_beyond_its_exact_range():
    with pytest.raises(ValueError):
        is_prime(2 ** 89 - 1)


@pytest.mark.parametrize("N", [2, 6, 12, 30, 36, 50, 90])
def test_root_has_order_exactly_N(N):
    p, omega = prime_root(N)
    assert p < 2 ** 61 and p % N == 1 and is_prime(p)
    assert 0 < omega < p
    assert [m for m in range(1, N + 1) if pow(omega, m, p) == 1] == [N]


# the orders r(r + k) of the benchmark's cold queries and recurrence grid
_ORDERS = sorted({r * (r + k) for r, levels in
                  ((2, range(1, 14)), (3, range(1, 13)), (4, range(1, 9)),
                   (5, range(1, 6))) for k in levels}
                 | {r * (r + k) for r in range(1, 5) for k in range(1, 4)})


@pytest.mark.parametrize("N", [2, 8, 12, 30])
def test_lifted_root_reduces_to_the_prime_root(N):
    p, omega = prime_root(N)
    for e in range(1, 4):
        M, powers = lifted_root(N, e)
        assert M == p ** e
        assert len(powers) == N
        assert [x % p for x in powers] == [pow(omega, m, p)
                                           for m in range(N)]


@pytest.mark.parametrize("N", [2, 6, 8, 12, 30, 36, 50, 90])
def test_lifted_root_is_a_root_of_the_cyclotomic_polynomial(N):
    phi = cyclotomic_polynomial(N)
    for e in (1, 2, 3, 7):
        M, powers = lifted_root(N, e)
        omega = powers[1]
        assert sum(c * pow(omega, i, M) for i, c in enumerate(phi)) % M == 0
        assert powers == tuple(pow(omega, m, M) for m in range(N))
        assert [m for m in range(1, N + 1) if pow(omega, m, M) == 1] == [N]


def _search(N, count):
    """The first count primes 1 + t lcm(N, 2**31) below 2**61, counting
    down, as the search's filter finds them."""
    step = N * 2 ** 31 // math.gcd(N, 2 ** 31)
    p = (2 ** 61 - 2) // step * step + 1
    primes = []
    while len(primes) < count:
        if math.gcd(p, modular._SMALL_PRIMES) == 1 and _proth_prime(p):
            primes.append(p)
        p -= step
    return primes


def test_prime_search_matches_a_plain_scan():
    # the primes 1 + t lcm(N, 2**31) below 2**61, counting down: the first
    # is the search's, and the filter it applies finds the next two
    for N in _ORDERS:
        assert _proth_exponent(N) == 31
        step = N * 2 ** 31 // math.gcd(N, 2 ** 31)
        p = 2 ** 61
        primes = _search(N, 3)
        assert primes[0] == prime_root(N)[0], N
        for i in range(3):
            p = (p - 2) // step * step + 1
            while not is_prime(p):
                p -= step
            assert primes[i] == p, (N, i)


def _proth_numbers(limit):
    """Every h 2**e + 1 below limit with h odd and h < 2**e."""
    e = 1
    while (1 << e) + 1 < limit:
        yield from range((1 << e) + 1, min(limit, (1 << 2 * e) + 1),
                         1 << (e + 1))
        e += 1


def test_proth_certificate_matches_trial_division():
    limit = 1 << 22
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for f in range(2, math.isqrt(limit) + 1):
        if sieve[f]:
            sieve[f * f::f] = bytes(len(range(f * f, limit, f)))
    numbers = list(_proth_numbers(limit))
    assert len(numbers) == len(set(numbers)) == 3070
    assert [n for n in numbers if _proth_prime(n)] == \
        [n for n in numbers if sieve[n]]
    assert all(sieve[n] == _trial_division(n) for n in range(3000))


def test_proth_certificate_matches_the_oracle_on_the_search():
    # every candidate of the first three primes per order, sieved out or
    # not; the first prime is the search's
    checked = 0
    for N in range(1, 501):
        step = N * 2 ** 31 // math.gcd(N, 2 ** 31)
        p = (2 ** 61 - 2) // step * step + 1
        for i in range(3):
            while not is_prime(p):
                assert not _proth_prime(p), (N, p)
                p -= step
                checked += 1
            assert _proth_prime(p), (N, p)
            assert i or p == prime_root(N)[0], N
            p -= step
    assert checked > 10 * 3 * 500


@pytest.mark.parametrize("n", [0, 1, 2, 4, 6, 11, 15, 2 ** 61 - 1, 5 * 4 + 1,
                               (2 ** 31 + 1) * 2 ** 31 + 1])
def test_proth_certificate_refuses_other_input(n):
    with pytest.raises(ValueError, match="not a Proth number"):
        _proth_prime(n)


@pytest.mark.parametrize("root", [3, 5, 7, 9, 17, 257, 65537, 2 ** 31 + 1,
                                  2 ** 128 + 1])
def test_proth_certificate_is_false_on_a_square(root):
    # a Proth number with no a such that (a / root**2) = -1; the least prime
    # factor of 2**128 + 1 has 17 digits, so the search for a would not end
    n = root * root
    e = ((n - 1) & (1 - n)).bit_length() - 1
    assert (n - 1) >> e < 1 << e
    assert not _proth_prime(n)


def test_a_query_searches_each_prime_once(monkeypatch):
    # 148 digits of the value and the witness digit, all of one prime:
    # the search factors the order once per prime it finds
    modular.prime_root.cache_clear()
    modular.lifted_root.cache_clear()
    searched, moduli = [], []
    real_factors, real_residues = modular._prime_factors, modular.residues

    def counted(n):
        searched.append(n)
        return real_factors(n)

    def spied(key, M, powers):
        moduli.append(M)
        return real_residues(key, M, powers)

    monkeypatch.setattr(modular, "_prime_factors", counted)
    monkeypatch.setattr(modular, "residues", spied)
    g = 3000
    key = query(g, 0, ParabolicData(2, 2)).canonical_key()
    assert closed_formula_exact(key) == 2 ** (g - 1) * (2 ** g + 1)
    assert searched == [8]
    assert moduli == [prime_root(8)[0] ** 149] == [lifted_root(8, 149)[0]]
    closed_formula_exact(key)
    assert searched == [8] and moduli == moduli[:1] * 2


def test_weyl_dimension():
    assert weyl_dimension((0, 0, 0)) == 1
    assert weyl_dimension((1, 0, 0)) == 3
    assert weyl_dimension((2, 0)) == 3
    assert weyl_dimension((2, 1, 0)) == 8
    assert weyl_dimension((3, 3, 0)) == 10


def test_size_check_logarithms_match_the_integers():
    # the size check takes C(n-1, r-1) and each dim V_lam by lgamma; the
    # exact bound multiplies the integers
    rng = random.Random(3)
    for _ in range(300):
        lam = sorted((rng.randint(0, 9) for _ in range(rng.randint(1, 12))),
                     reverse=True)
        assert math.isclose(sum(modular._ln_weyl_blocks(lam)),
                            math.log(weyl_dimension(lam)), abs_tol=1e-9)
    for q in _grid(range(1, 6), range(1, 6), range(0, 4), 2, seed=17):
        key = q.canonical_key()
        assert math.isclose(modular._log10_bound(key),
                            math.log10(magnitude_bound(key)),
                            abs_tol=1e-9), q


# -- the rebuilt integer ----------------------------------------------------

def test_bound_covers_every_value():
    for q in _grid(range(1, 5), range(1, 5), range(0, 4), 2, seed=11):
        value = closed_formula_exact(q.canonical_key())
        assert magnitude_bound(q.canonical_key()) >= value


def test_agrees_with_cyclotomic_oracle():
    exceptional = 0
    for q in _grid(range(1, 4), range(1, 5), range(0, 4), 3, seed=5):
        exact = closed_formula_exact(q.canonical_key())
        oracle = closed_formula_cyclotomic(q)
        assert exact == oracle, q
        exceptional += q.exceptional_case
        # one pass gives the residue mod p**3, three p-adic digits
        N = q.rank * (q.rank + q.level)
        M, powers = lifted_root(N, 3)
        residue = residues(q.canonical_key(), M, powers)
        assert residue == oracle % M, q
    assert exceptional > 0


@pytest.mark.parametrize("r,k", [(2, 2), (2, 4), (3, 3), (4, 4)])
def test_orbit_sum_matches_oracle_where_orbits_are_short(r, k):
    # levels where some rotation orbit is shorter than r, e.g. the fixed
    # v = (2, 0) at r = k = 2
    assert any(size < r for _, size in v_orbits(r, k))
    integral = [q for q in _grid([r], [k], range(3), 3, seed=r * 10 + k)
                if q.ell_integral]
    assert len(integral) >= 6
    for q in integral:
        assert closed_formula_exact(q.canonical_key()) == \
            closed_formula_cyclotomic(q), q


def test_value_needing_two_primes(monkeypatch):
    q = query(5, 0, ParabolicData(3, 8))
    calls = []
    real = modular.residues

    def counted(key, M, powers):
        calls.append(M)
        return real(key, M, powers)

    monkeypatch.setattr(modular, "residues", counted)
    assert closed_formula_exact(q.canonical_key()) == 36436622194475008
    # one pass, modulo p**3: two p-adic digits of the value and the witness
    p = prime_root(3 * 11)[0]
    assert 36436622194475008 < p < 2 * magnitude_bound(q.canonical_key())
    assert calls == [p ** 3]


def test_largest_sum_in_use_passes_the_work_guard(monkeypatch):
    # genus 1, rank 10, level 14, degree 1 sums all 817,190 v-vectors to
    # print 0, 8.2 10**7 steps in 1.5 s; the queries of the tests, demos
    # and benchmark workloads take at most 10**4.6; the guard lets it
    # through (the stub stands in for the sum)
    monkeypatch.setattr(modular, "residues", lambda *args: 0)
    key = query(1, 1, ParabolicData(10, 14)).canonical_key()
    assert closed_formula_exact(key) == 0


def _perturb_witness(monkeypatch, q):
    N = q.rank * (q.rank + q.level)
    # the query needs one p-adic digit, so the second one is the witness
    p = prime_root(N)[0]
    assert 2 * magnitude_bound(q.canonical_key()) < p
    real = modular.residues

    def perturbed(key, M, powers):
        # adding p changes only the witness digit
        assert M == p ** 2
        return (real(key, M, powers) + p) % M

    monkeypatch.setattr(modular, "residues", perturbed)


def test_witness_mismatch_raises(monkeypatch):
    q = query(2, 0, ParabolicData(2, 2))
    _perturb_witness(monkeypatch, q)
    with pytest.raises(EvaluationError, match="witness"):
        closed_formula_exact(q.canonical_key())


def test_witness_mismatch_exits_internal(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("THETADIM_CACHE", raising=False)
    doc = {"genus": 2, "rank": 2, "degree": 0, "level": 2}
    path = tmp_path / "q.json"
    path.write_text(json.dumps(doc))
    _perturb_witness(monkeypatch, query(2, 0, ParabolicData(2, 2)))
    assert main(["dim", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "witness" in captured.err


def _lift_to_minus_one(monkeypatch):
    # M - 1 lifts to -1, which is within the bound and passes the witness
    monkeypatch.setattr(modular, "residues", lambda key, M, powers: M - 1)


def test_negative_lift_raises(monkeypatch):
    _lift_to_minus_one(monkeypatch)
    q = query(2, 0, ParabolicData(2, 2))
    with pytest.raises(EvaluationError, match="negative: -1"):
        closed_formula_exact(q.canonical_key())


def test_negative_lift_exits_internal(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("THETADIM_CACHE", raising=False)
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"genus": 2, "rank": 2, "degree": 0,
                                "level": 2}))
    _lift_to_minus_one(monkeypatch)
    assert main(["dim", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "negative" in captured.err


@pytest.mark.parametrize("scale, message", [
    (Fraction(1, 2), "non-integral: 3/2"), (-1, "negative: -3")])
def test_oracle_refuses_a_bad_total(monkeypatch, scale, message):
    q = query(1, 0, ParabolicData(2, 2))          # dimension 3
    real = verlinde.closed_term
    monkeypatch.setattr(verlinde, "closed_term",
                        lambda q, v: real(q, v) * scale)
    with pytest.raises(EvaluationError, match=message):
        closed_formula_cyclotomic(q)


def test_verify_backend_catches_exact_path_off_the_oracle(monkeypatch):
    real = verlinde.closed_formula_exact

    def off_by_one(key):
        return real(key) + 1

    monkeypatch.setattr(verlinde, "closed_formula_exact", off_by_one)
    q = query(2, 0, ParabolicData(2, 2))
    report = verify(q, "backend")
    assert not report.ok
    assert report.detail["cyclotomic"] == report.lhs - 1


# -- the kernel -------------------------------------------------------------

def _leibniz(rows, p):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        term = _perm_sign(perm)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total % p


def _matrices(rng, p):
    for size in range(1, 7):
        for _ in range(20):
            m = [[rng.randrange(1, p) for _ in range(size)]
                 for _ in range(size)]
            yield m
            if size == 1:
                continue
            # a zero leading entry: a row swap at the first step
            yield [[0] + m[0][1:]] + m[1:]
            # the second row a multiple of the first in its first two
            # entries: a zero pivot, hence a row swap, at the second step
            yield [m[0], [5 * x % p for x in m[0][:2]] + m[1][2:]] + m[2:]
            # singular: a row repeated up to a factor, or a zero column
            yield m[:-1] + [[3 * x % p for x in m[0]]]
            yield [row[:-1] + [0] for row in m]


@pytest.mark.parametrize("p", [7, 11, 2305843009213693921,
                               2305843009213693921 * 2305843009213693693])
def test_division_free_det_matches_leibniz(p):
    # a prime near 2**61, and the product of two such primes
    rng = random.Random(p)
    singular = 0
    for m in _matrices(rng, p):
        num, den = _det(m, p)
        assert math.gcd(den, p) == 1
        expected = _leibniz(m, p)
        assert num * pow(den, -1, p) % p == expected, m
        singular += expected == 0
    assert singular >= 2 * 5 * 20


def test_zero_divisor_pivot_reaches_the_denominator():
    # a pivot nonzero mod M = p**2 but 0 mod p: det = p - 1 is a unit
    # mod M, but the denominator carries p, and the check refuses it
    M = lifted_root(12, 2)[0]
    p = prime_root(12)[0]
    assert M == p * p
    num, den = _det([[p, 1], [1, 1]], M)
    assert math.gcd(den, M) == p
    with pytest.raises(EvaluationError, match="vanishes"):
        _nonzero(den, M)


def test_det_leaves_its_input_alone():
    m = [[0, 1], [2, 3]]
    _det(m, 101)
    assert m == [[0, 1], [2, 3]]


def test_vanishing_denominator_raises():
    # a root table of the trivial character: every Vandermonde and sine
    # factor is zero, so the product of the denominators is
    q = query(2, 0, ParabolicData(2, 2, (MarkedPoint("p", (1, 1), (0, 1)),)))
    M, powers = lifted_root(8, 2)
    with pytest.raises(EvaluationError, match="vanishes"):
        residues(q.canonical_key(), M, (1,) * len(powers))


def test_vanishing_denominator_past_the_digit_limit_raises():
    # mod p**240, 14,640 bits, past the 4,300 digits str() converts: the
    # refusal prints no modulus, so it stays an EvaluationError
    M, powers = lifted_root(8, 240)
    assert M.bit_length() > 4300 * math.log2(10)
    with pytest.raises(EvaluationError, match="vanishes"):
        residues((2, 0, 2, 2, ((1, 0),)), M, (1,) * len(powers))


def test_denominator_vanishing_mod_one_prime_raises(monkeypatch):
    # the trivial character mod p, but distinct powers mod M = p**20:
    # every Vandermonde is p times a unit, so the product of the
    # denominators is 0 mod p but not mod M, and it is still refused
    q = query(2, 0, ParabolicData(2, 2, (MarkedPoint("p", (1, 1), (0, 1)),)))
    p = prime_root(8)[0]
    M = p ** 20
    table = [1 + p * m for m in range(8)]
    checked = []
    real = modular._nonzero

    def spied(x, modulus):
        checked.append(x % modulus)
        return real(x, modulus)

    monkeypatch.setattr(modular, "_nonzero", spied)
    assert residues(q.canonical_key(), *lifted_root(8, 1)) \
        == closed_formula_cyclotomic(q) % p
    with pytest.raises(EvaluationError, match="vanishes"):
        residues(q.canonical_key(), M, table)
    assert checked[-1] % p == 0 and checked[-1] != 0


def test_pivot_divisible_by_p_is_refused_in_the_closed_sum(monkeypatch):
    # the pivot of the first alternant times p: nonzero mod the modulus
    # p**(e+1), e >= 1, but 0 mod p, so the elimination puts it into the
    # denominator, and the sum is refused, not rebuilt
    q = query(2, 0, ParabolicData(2, 2, (MarkedPoint("p", (1, 1), (0, 1)),)))
    p = prime_root(8)[0]
    real_det, real_nonzero = modular._det, modular._nonzero
    checked = []

    def scaled(rows, M):
        if not checked:
            rows = [[p * x % M for x in rows[0]]] + rows[1:]
            checked.append(M)
        return real_det(rows, M)

    def spied(x, M):
        checked.append(x % M)
        return real_nonzero(x, M)

    monkeypatch.setattr(modular, "_det", scaled)
    monkeypatch.setattr(modular, "_nonzero", spied)
    with pytest.raises(EvaluationError, match="vanishes"):
        closed_formula_exact(q.canonical_key())
    M, den = checked
    assert M % (p * p) == 0 and den % p == 0 and den != 0


def test_vanishing_denominator_raises_on_the_orbit_sum():
    # the same trivial root table on a query whose ell is an integer, so
    # the pass runs over one v per rotation orbit
    q = query(2, 1, ParabolicData(2, 3, (MarkedPoint("p", (1, 1), (0, 1)),)))
    assert q.ell_integral
    assert len(v_orbits(2, 3)) < len(list(v_vectors(2, 3)))
    M, powers = lifted_root(10, 2)
    with pytest.raises(EvaluationError, match="vanishes"):
        residues(q.canonical_key(), M, (1,) * len(powers))


def test_verify_backend_survives_a_float_refusal():
    q = query(5, 0, ParabolicData(3, 8))
    with pytest.raises(EvaluationError, match="precision"):
        verlinde.closed_formula_float(q)
    report = verify(q, "backend")
    assert report.ok
    assert report.lhs == report.detail["cyclotomic"] == 36436622194475008
    assert report.detail["float"] == "refused"
    assert "precision" in report.detail["float_refusal"]


@pytest.mark.parametrize("level, cause", [(2, "Numerical result out of range"),
                                          (10, "division by zero")])
def test_verify_backend_survives_a_float_out_of_range(level, cause):
    # at genus 600 the sine powers pass the float range: (2 sin)**1198
    # overflows at level 2 and underflows to a zero divisor at level 10
    q = query(600, 0, ParabolicData(2, level))
    with pytest.raises(EvaluationError, match=cause):
        verlinde.closed_formula_float(q)
    report = verify(q, "backend")
    assert report.ok and report.detail["float"] == "refused"
    assert report.lhs == report.detail["cyclotomic"] > 2 ** 1024
    assert report.residual == 0 and type(report.residual) is int


def test_verify_backend_suite_reports_every_query(capsys):
    rc = main(["verify", "backend", "--rank-max", "3", "--level-max", "8",
               "--genus-min", "5", "--genus-max", "5", "--samples", "0",
               "--json"])
    payload = json.loads(capsys.readouterr().out)
    # ranks 1-3, levels 1-8, one genus, one query per degree
    assert payload["suites"] == {"backend": 8 * (1 + 2 + 3)}
    # at value 0 the float sum cancels at genus 5, leaving more than 1e-6
    # on five queries, but never more than the error bound it proves
    assert rc == 0 and payload["failures"] == []
    for r, k, d in [(2, 7, 1), (3, 4, 1), (3, 4, 2), (3, 5, 1), (3, 5, 2)]:
        q = query(5, d, ParabolicData(r, k))
        assert not q.ell_integral
        report = verify(q, "backend")
        assert report.ok
        assert report.lhs == report.rhs == report.detail["cyclotomic"] == 0
        assert 1e-6 < report.detail["float_residual"] \
            <= report.detail["float_bound"]


class _CountingPowers:
    """A table of powers that counts its reads."""

    def __init__(self, powers):
        self.powers, self.reads = powers, 0

    def __getitem__(self, m):
        self.reads += 1
        return self.powers[m]


_THREE_BLOCKS = (MarkedPoint("p", (1, 1, 1), (0, 1, 2)),)
_TWO_POINTS = (MarkedPoint("p", (1, 1), (0, 2)),
               MarkedPoint("q", (1, 1), (0, 2)))
_READS = [(1, 3, 3, 0, (), 1), (1, 3, 3, 1, (), 1), (2, 3, 3, 0, (), 4),
          (0, 2, 4, 0, (), 3), (2, 3, 3, 1, _THREE_BLOCKS, 13),
          (0, 3, 3, 2, _THREE_BLOCKS, 13), (0, 2, 4, 0, _TWO_POINTS, 9),
          (2, 2, 4, 0, _TWO_POINTS, 11), (1, 3, 3, 0, _THREE_BLOCKS, 13)]


@pytest.mark.parametrize("g, r, k, d, points, per_term", _READS,
                         ids=["-".join(map(str, row[:4] + row[5:]))
                              for row in _READS])
def test_residues_reads_per_term(g, r, k, d, points, per_term):
    # a term reads the twist power once, the r points of its Vandermonde
    # once each when e = #points + 2 (g - 1) is nonzero, and r per
    # alternant row of each point; no sine product is built
    q = query(g, d, ParabolicData(r, k, points))
    assert q.ell_integral
    M, powers = lifted_root(r * (r + k), 2)
    counted = _CountingPowers(powers)
    value = residues(q.canonical_key(), M, counted)
    assert value == residues(q.canonical_key(), M, powers)
    assert counted.reads == per_term * len(v_orbits(r, k))

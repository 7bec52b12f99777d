import json
import random

import pytest

import thetadim.modular as modular
import thetadim.verlinde as verlinde
from thetadim.cli import main
from thetadim.modular import (EvaluationError, is_prime, magnitude_bound,
                              prime_root, weyl_dimension)
from thetadim.verlinde import (_prefactor, closed_formula_cyclotomic,
                               closed_formula_exact, query, verify)
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
    previous = 2 ** 61
    for i in range(3):
        p, powers = prime_root(N, i)
        assert p < previous and p % N == 1 and is_prime(p)
        previous = p
        omega = powers[1]
        assert len(powers) == N
        assert all(powers[m] == pow(omega, m, p) for m in range(N))
        assert pow(omega, N, p) == 1
        assert [m for m in range(1, N + 1) if pow(omega, m, p) == 1] == [N]


def test_weyl_dimension():
    assert weyl_dimension((0, 0, 0)) == 1
    assert weyl_dimension((1, 0, 0)) == 3
    assert weyl_dimension((2, 0)) == 3
    assert weyl_dimension((2, 1, 0)) == 8
    assert weyl_dimension((3, 3, 0)) == 10


# -- the rebuilt integer ----------------------------------------------------

def test_bound_covers_every_value():
    for q in _grid(range(1, 5), range(1, 5), range(0, 4), 2, seed=11):
        value = closed_formula_exact(q).value
        assert magnitude_bound(q, _prefactor(q)) >= value


def test_agrees_with_cyclotomic_oracle():
    exceptional = 0
    for q in _grid(range(1, 4), range(1, 5), range(0, 4), 3, seed=5):
        exact = closed_formula_exact(q)
        oracle = closed_formula_cyclotomic(q)
        assert exact == oracle, q
        exceptional += exact.exceptional_case
    assert exceptional > 0


def test_value_needing_two_primes(monkeypatch):
    q = query(5, 0, ParabolicData(3, 8))
    calls = []
    real = modular.residue

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(modular, "residue", counted)
    assert closed_formula_exact(q).value == 36436622194475008
    assert len(calls) == 3 and len(set(calls)) == 3   # two primes, one witness


def _perturb_witness(monkeypatch, q):
    N = q.rank * (q.rank + q.level)
    # the query needs one prime, so the second one is the witness
    assert 2 * magnitude_bound(q, _prefactor(q)) < prime_root(N, 0)[0]
    witness = prime_root(N, 1)[0]
    real = modular.residue

    def perturbed(q, prefactor, p, powers):
        value = real(q, prefactor, p, powers)
        return (value + 1) % p if p == witness else value

    monkeypatch.setattr(modular, "residue", perturbed)


def test_witness_mismatch_raises(monkeypatch):
    q = query(2, 0, ParabolicData(2, 2))
    _perturb_witness(monkeypatch, q)
    with pytest.raises(EvaluationError, match="witness"):
        closed_formula_exact(q)


def test_witness_mismatch_exits_internal(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("THETADIM_CACHE", raising=False)
    doc = {"genus": 2, "rank": 2, "degree": 0, "level": 2}
    path = tmp_path / "q.json"
    path.write_text(json.dumps(doc))
    _perturb_witness(monkeypatch, query(2, 0, ParabolicData(2, 2)))
    assert main(["dim", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "witness" in captured.err


def test_verify_backend_catches_exact_path_off_the_oracle(monkeypatch):
    real = verlinde.closed_formula_exact

    def off_by_one(q):
        res = real(q)
        return type(res)(res.value + 1, res.backend, res.ell_integral,
                         res.exceptional_case, res.float_residual)

    monkeypatch.setattr(verlinde, "closed_formula_exact", off_by_one)
    q = query(2, 0, ParabolicData(2, 2))
    report = verify(q, "backend", memo={})
    assert not report.ok
    assert report.detail["cyclotomic"] == report.lhs - 1

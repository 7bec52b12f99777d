"""Acceptance suite: one numbered test per shipping criterion.

Every test prints a single summary line (visible under pytest -s) and
asserts exact equality unless a tolerance is part of the criterion.
"""

import itertools
import random
import time
from fractions import Fraction

from thetadim.cyclotomic import (CycNum, cyclotomic_polynomial, root_power)
from thetadim.schur import (identity_52_check, identity_53_check,
                            identity_54_check, schur_at, schur_brute)
from thetadim.verlinde import (closed_formula_exact, closed_formula_float,
                               dimension, iter_split_terms, iter_wprime_terms,
                               legal_hecke_multiplicities, query, v_vectors,
                               verify)
from thetadim.weights import (MarkedPoint, ParabolicData, SplitContext,
                              enumerate_Pk, enumerate_Qk, enumerate_Wk_prime,
                              h_closed, phi, phi_inverse, split_context)

SEED = 20260822


def _report(num, desc, ok, t0, bound=None):
    dt = time.perf_counter() - t0
    print(f"criterion {num}: {desc}: {'pass' if ok else 'FAIL'} ({dt:.1f}s)")
    assert ok, f"criterion {num} ({desc}) failed"
    if bound is not None:
        assert dt < bound, f"criterion {num} took {dt:.1f}s, bound {bound}s"


def _random_point(rng, r, k, label="p"):
    while True:
        cuts = sorted(rng.sample(range(1, r), rng.randrange(r)))
        flag = tuple(b - a for a, b in
                     zip((0,) + tuple(cuts), tuple(cuts) + (r,)))
        if len(flag) > k + 1:
            continue
        weights = tuple(sorted(rng.sample(range(k + 1), len(flag))))
        return MarkedPoint(label, flag, weights)


def _grid():
    rng = random.Random(SEED)
    out = []
    for r in (1, 2, 3):
        for k in (1, 2, 3):
            for g in (1, 2):
                for d in range(r):
                    out.append(query(g, d, ParabolicData(r, k)))
                    for _ in range(3):
                        p = _random_point(rng, r, k)
                        out.append(query(g, d, ParabolicData(r, k, (p,))))
    return out


GRID = _grid()


def _split_cases():
    cases = []
    two_points = (MarkedPoint("p", (1, 1), (0, 1)),
                  MarkedPoint("q", (1, 1), (0, 1)))
    for g1, g2 in ((1, 1), (1, 2)):
        for k in (1, 2, 3):
            for d in (0, 1):
                for c1, c2 in ((1, 1), (1, 2)):
                    for pts, I1 in (((), ()), ((two_points), ("p",))):
                        if pts and k < 2:
                            continue
                        omega = ParabolicData(2, k, tuple(pts))
                        try:
                            ctx = split_context(omega, g1 + g2, d, I1,
                                                g1, c1, c2)
                        except ValueError:
                            continue
                        cases.append((query(g1 + g2, d, omega), ctx))
    return cases


SPLIT_CASES = _split_cases()


def _sanity_queries():
    return [(query(1, 0, ParabolicData(2, 1)), 1),
            (query(1, 0, ParabolicData(2, 2)), 3),
            (query(0, 0, ParabolicData(2, 2)), 1),
            (query(2, 0, ParabolicData(2, 1)), 1),
            (query(3, 0, ParabolicData(2, 1)), 1)]


def _rand_cyc(rng, N):
    c = CycNum.zero(N)
    for _ in range(rng.randint(1, 4)):
        c = c + root_power(N, rng.randrange(N)) * Fraction(
            rng.randint(-10, 10), rng.choice((1, 1, 2, 3)))
    return c


def test_criterion_01_cyclotomic_field():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    ok = True
    for N in range(1, 31):
        phi = cyclotomic_polynomial(N)
        ok = ok and sum((c * root_power(N, i) for i, c in enumerate(phi)),
                        CycNum.zero(N)).is_zero()
    for _ in range(500):
        N = rng.randint(1, 30)
        a, b, c = (_rand_cyc(rng, N) for _ in range(3))
        ok = ok and (a + b) + c == a + (b + c)
        ok = ok and (a * b) * c == a * (b * c)
        ok = ok and a * (b + c) == a * b + a * c
        ok = ok and a + b == b + a and a * b == b * a
        ok = ok and (a - a).is_zero()
        if not a.is_zero():
            ok = ok and a * a.inverse() == CycNum.one(N)
        ea, eb = a.embed(), b.embed()
        ok = ok and abs((a * b).embed() - ea * eb) < 1e-10
        ok = ok and abs((a + b).embed() - (ea + eb)) < 1e-10
        if not ok:
            break
    _report(1, "cyclotomic field axioms, minimal-polynomial roots, embedding",
            ok, t0, bound=10)


def _bounded_partitions(r, k, max_total):
    for lam in itertools.product(*(range(k, -1, -1) for _ in range(r))):
        if all(a >= b for a, b in zip(lam, lam[1:])) and sum(lam) <= max_total:
            yield lam


def test_criterion_02_schur_oracle():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for r in (1, 2, 3):
        for k in (1, 2, 3):
            for v in v_vectors(r, k):
                for lam in _bounded_partitions(r, k, 6):
                    ok = ok and schur_at(lam, v, r, k) == \
                        schur_brute(lam, v, r, k)
                    checked += 1
    ok = ok and checked > 300
    _report(2, f"determinant vs tableau evaluation on {checked} cases",
            ok, t0, bound=30)


def test_criterion_03_orthogonality_identities():
    t0 = time.perf_counter()
    ok = True
    for r in (1, 2, 3):
        for k in (1, 2, 3, 4):
            for v in v_vectors(r, k):
                ok = ok and identity_52_check(v, r, k).is_zero()
                ok = ok and identity_53_check(v, r, k).is_zero()
    pairs = 0
    for r in (2, 3):
        for k in (1, 2, 3):
            vs = list(v_vectors(r, k))
            for v, vp in itertools.permutations(vs, 2):
                ok = ok and identity_54_check(v, vp, r, k).is_zero()
                pairs += 1
    ok = ok and pairs > 50
    _report(3, f"summed pairing identities, {pairs} cross pairs",
            ok, t0, bound=120)


def test_criterion_04_sanity_values():
    t0 = time.perf_counter()
    ok = all(dimension(q) == expect
             for q, expect in _sanity_queries())
    _report(4, "hand-checked dimension values", ok, t0)


def test_criterion_05_genus_recurrence():
    t0 = time.perf_counter()
    ok = True
    for q in GRID:
        rep = verify(q, "genus")
        ok = ok and rep.ok
        if not ok:
            print(f"  first failure at {q}")
            break
    _report(5, f"genus recurrence on {len(GRID)} grid queries",
            ok, t0, bound=600)


def test_criterion_06_split_recurrences():
    t0 = time.perf_counter()
    ok = True
    for q, ctx in SPLIT_CASES:
        lhs = dimension(q)
        split_terms = dict(iter_split_terms(q, ctx))
        wp_terms = dict(iter_wprime_terms(q, ctx))
        ok = ok and sum(split_terms.values()) == lhs
        ok = ok and sum(wp_terms.values()) == lhs
        for mu, val in split_terms.items():
            ok = ok and wp_terms.get(phi(mu, ctx)) == val
        if not ok:
            print(f"  first failure at {q} ctx={ctx}")
            break
    _report(6, f"factorization identities on {len(SPLIT_CASES)} split cases "
               "with matched term groups", ok, t0)


def test_criterion_07_hecke_invariance():
    t0 = time.perf_counter()
    ok = True
    moves = 0
    for q in GRID:
        for p in q.omega.points:
            for m in legal_hecke_multiplicities(q, p.label):
                rep = verify(q, "hecke", point=p.label, multiplicity=m)
                ok = ok and rep.ok
                moves += 1
        if not ok:
            print(f"  first failure at {q}")
            break
    ok = ok and moves > 100
    _report(7, f"flag rotation invariance over {moves} legal moves", ok, t0)


def test_criterion_08_rotation_bijection():
    t0 = time.perf_counter()
    ok = True
    weights_checked = 0
    for r in (1, 2, 3, 4):
        for k in (1, 2, 3, 4, 5):
            for n1 in (-2, -1, 0, 1, 2):
                for g1 in (0, 1, 2):
                    frac_n1 = Fraction(n1)
                    ctx = SplitContext(g1, 1, (), 1, 1, frac_n1, Fraction(0),
                                       r, k, frac_n1 + r * g1)
                    Qk = list(enumerate_Qk(r, k, ctx.n1))
                    Wp = list(enumerate_Wk_prime(r, k, (k * n1) % r))
                    images = [phi(mu, ctx) for mu in Qk]
                    ok = ok and sorted(images) == sorted(Wp)
                    ok = ok and len(set(images)) == len(images)
                    for mu in Qk:
                        ok = ok and phi_inverse(phi(mu, ctx), ctx) == mu
                    weights_checked += len(Qk)
            # magnitude rule for every rotation step on the full weight set
            for mu in enumerate_Pk(r, k):
                for m in range(1, r):
                    ok = ok and sum(h_closed(mu, k, m)) == \
                        k * m - r * mu[r - m - 1] + sum(mu)
                ok = ok and sum(h_closed(mu, k, r)) == sum(mu) - r * mu[-1]
    ok = ok and weights_checked >= 1000
    _report(8, f"degree rotation bijection, {weights_checked} weights",
            ok, t0)


def test_criterion_09_backend_agreement():
    t0 = time.perf_counter()
    ok = True
    queries = [q for q, _ in _sanity_queries()] + GRID + \
        [q for q, _ in SPLIT_CASES]
    for q in queries:
        exact = dimension(q)
        value, residual, _ = closed_formula_float(q)
        ok = ok and abs(exact - value) / max(1, abs(exact)) < 1e-6
        ok = ok and residual < 1e-6
        if not ok:
            print(f"  first failure at {q}")
            break
    _report(9, f"exact vs floating backends on {len(queries)} queries",
            ok, t0)


def test_criterion_10_structural_invariants():
    t0 = time.perf_counter()
    ok = True
    for q in GRID:
        value = closed_formula_exact(q.canonical_key())
        ok = ok and isinstance(value, int) and value >= 0
        shifted = query(q.genus, q.degree + q.rank, q.omega)
        ok = ok and dimension(shifted) == dimension(q)
        if q.omega.points:
            p = q.omega.points[0]
            if p.weights[-1] < q.level:
                moved = tuple(w + 1 for w in p.weights)
            elif p.weights[0] > 0:
                moved = tuple(w - p.weights[0] for w in p.weights)
            else:
                moved = None
            if moved is not None:
                omega2 = q.omega.replace_point(
                    p.label, MarkedPoint(p.label, p.flag, moved))
                ok = ok and dimension(query(q.genus, q.degree, omega2)) \
                    == dimension(q)
        if not ok:
            print(f"  first failure at {q}")
            break
    _report(10, f"integrality, periodicity, weight-shift invariance on "
                f"{len(GRID)} queries", ok, t0)

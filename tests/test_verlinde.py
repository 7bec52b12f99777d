import itertools
import math
import random
import tracemalloc
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import thetadim
from thetadim import modular, schur, verlinde
from thetadim.cli import (_grid_queries, _random_point, _split_cases,
                          build_parser, document_to_query, query_key,
                          query_to_document)
from thetadim.cyclotomic import CycNum, root_power
from thetadim.schur import alternant_counts, v_orbits, weyl_denominator
from thetadim.verlinde import (EvaluationError, VerifyReport, VerlindeQuery,
                               clear_memo, closed_formula_cyclotomic,
                               closed_formula_exact, closed_formula_float,
                               closed_term, dimension,
                               genus_recurrence_rhs, hecke_image,
                               iter_split_terms, iter_wprime_terms,
                               legal_hecke_multiplicities, memo_info, query,
                               split_recurrence_rhs, v_vectors, verify,
                               wprime_recurrence_rhs)
from thetadim.weights import (MarkedPoint, ParabolicData, build_split_omegas,
                              congruence_offset, enumerate_Wk_prime, h_closed,
                              hecke_shift, normalize_point, omega_total, phi,
                              phi_inverse, split_context, split_degrees)


def pt(label, flag, weights):
    return MarkedPoint(label, tuple(flag), tuple(weights))


def bare(g, r, k, d=0):
    return query(g, d, ParabolicData(r, k))


# -- the summation lattice -------------------------------------------------

def test_v_vectors_counts():
    for r in range(1, 5):
        for k in range(1, 5):
            vs = list(v_vectors(r, k))
            assert len(vs) == math.comb(r + k - 1, r - 1)
            for v in vs:
                assert v[-1] == 0
                assert all(a > b for a, b in zip(v, v[1:]))
                assert v[0] < r + k


def test_v_vectors_examples():
    assert list(v_vectors(2, 1)) == [(1, 0), (2, 0)]
    assert list(v_vectors(2, 2)) == [(1, 0), (2, 0), (3, 0)]
    assert list(v_vectors(1, 3)) == [(0,)]


def test_v_vectors_at_rank_one_copy_no_pool():
    # rank 1 has the one v-vector (0,) at every level; combinations() would
    # first copy all k candidate entries
    tracemalloc.start()
    try:
        assert list(v_vectors(1, 10 ** 6)) == [(0,)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 5


def _rotate(v, n):
    # T: move the smallest nonzero entry to 0 (rank 1 has none: T = id)
    c = v[-2] if len(v) > 1 else 0
    return tuple(sorted(((x - c) % n for x in v), reverse=True))


def _necklaces(n, r):
    # Burnside: rotation orbits of the r-subsets of Z/n
    total = sum(sum(1 for m in range(1, d + 1) if math.gcd(m, d) == 1)
                * math.comb(n // d, r // d)
                for d in range(1, r + 1) if n % d == 0 and r % d == 0)
    assert total % n == 0
    return total // n


def test_v_orbits_partition_the_v_vectors():
    for r in range(1, 7):
        for k in range(1, 7):
            n = r + k
            orbits = v_orbits(r, k)
            assert sum(size for _, size in orbits) == math.comb(n - 1, r - 1)
            assert len(orbits) == _necklaces(n, r)
            seen = []
            for rep, size in orbits:
                orbit = [rep]
                while (w := _rotate(orbit[-1], n)) != rep:
                    orbit.append(w)
                assert len(orbit) == size and r % size == 0
                seen.extend(orbit)
            assert sorted(seen) == sorted(v_vectors(r, k))


def _v_orbits_by_enumeration(r, k):
    # the oracle: walk every v-vector and keep those whose gap sequence is
    # least among its rotations, with the least shift that fixes it
    n = r + k
    out = []
    for v in v_vectors(r, k):
        gaps = tuple(a - b for a, b in zip((n,) + v, v))
        for size in range(1, r + 1):
            rot = gaps[size:] + gaps[:size]
            if rot <= gaps:
                break
        if rot == gaps:
            out.append((v, size))
    return tuple(out)


def test_v_orbits_match_the_enumeration():
    for r in range(1, 9):
        for k in range(1, 9):
            assert v_orbits(r, k) == _v_orbits_by_enumeration(r, k), (r, k)


def test_v_orbits_small_orbits():
    # (2, 0) at r = k = 2 is fixed: its orbit has size 1, not r
    assert v_orbits(2, 2) == (((2, 0), 1), ((3, 0), 2))
    assert v_orbits(1, 3) == (((0,), 1),)
    assert ((4, 2, 0), 1) in v_orbits(3, 3)


# -- closed formula --------------------------------------------------------

def test_rank_one_dimensions():
    # rank 1 collapses to k^g independent of degree and marked points; the
    # general alternant loop meets the 1 x 1 alternant and empty Vandermonde
    for g in range(0, 4):
        for k in range(1, 5):
            ws = range(k + 1)
            for pts in [()] + [(w,) for w in ws] + [(a, b) for a in ws
                                                     for b in ws]:
                omega = ParabolicData(1, k, tuple(
                    pt(f"p{i}", (1,), (w,)) for i, w in enumerate(pts)))
                for d in range(-2, 3):
                    assert dimension(query(g, d, omega)) == k ** g, \
                        (g, k, pts, d)


def test_sanity_dimensions():
    assert dimension(bare(1, 2, 1)) == 1
    assert dimension(bare(1, 2, 2)) == 3
    assert dimension(bare(0, 2, 2)) == 1
    assert dimension(bare(2, 2, 1)) == 1
    assert dimension(bare(3, 2, 1)) == 1
    assert dimension(bare(2, 2, 2)) == 10


def test_parabolic_dimensions():
    # a full-flag point with constant weight is invisible at degree zero
    for w in (0, 1, 2):
        q = query(1, 0, ParabolicData(2, 2, (pt("p", (2,), (w,)),)))
        assert dimension(q) == 3
    # but it pins down degree -1, where the bare space is empty
    q = query(1, -1, ParabolicData(2, 2, (pt("p", (2,), (0,)),)))
    assert dimension(q) == 1
    # a point with odd total weight kills every degree at rank 2
    for d in (0, 1):
        q = query(1, d, ParabolicData(2, 2, (pt("p", (1, 1), (0, 1)),)))
        assert dimension(q) == 0
    # widest weight spread leaves a single section
    q = query(1, 0, ParabolicData(2, 2, (pt("p", (1, 1), (0, 2)),)))
    assert dimension(q) == 1


def test_closed_term_sums_to_dimension():
    # prefactor is 1 at g = 1, r = 2, k = 2, so the raw sum is the dimension
    q = bare(1, 2, 2)
    total = sum((closed_term(q, v).embed() for v in v_vectors(2, 2)))
    assert abs(total.real - 3.0) < 1e-9
    assert abs(total.imag) < 1e-9


def test_query_validation():
    with pytest.raises(ValueError):
        query(-1, 0, ParabolicData(2, 2))
    # the rank is read from the parabolic data, so it cannot disagree
    assert VerlindeQuery._fields == ("genus", "degree", "omega")
    assert query is VerlindeQuery and thetadim.query is VerlindeQuery
    q = query(1, 0, ParabolicData(3, 2))
    assert (q.rank, q.level) == (3, 2)


def test_exact_result_is_integer():
    value = closed_formula_exact(bare(2, 3, 2, 1).canonical_key())
    assert isinstance(value, int)
    assert value >= 0


def test_float_backend_agrees():
    for args in ((1, 2, 2, 0), (2, 2, 1, 1), (2, 2, 2, 0), (1, 3, 2, 2)):
        exact = closed_formula_exact(bare(*args).canonical_key())
        approx, residual, _ = closed_formula_float(bare(*args))
        assert exact == approx
        assert isinstance(residual, float)
        assert residual < 1e-6


def test_result_flags():
    assert not query(1, 1, ParabolicData(2, 3)).ell_integral  # ell = 3/2
    assert bare(1, 2, 2).ell_integral

    three = ParabolicData(2, 2, (pt("p", (1, 1), (0, 1)),
                                 pt("q", (1, 1), (0, 1)),
                                 pt("s", (1, 1), (0, 1))))
    assert query(0, 0, three).exceptional_case
    assert not query(1, 0, three).exceptional_case


# -- recurrences -----------------------------------------------------------

def test_genus_recurrence_worked_example():
    q = bare(2, 2, 2)
    assert genus_recurrence_rhs(q) == 10
    assert dimension(q) == 10


def test_genus_recurrence_grid():
    for (g, r, k, d) in ((1, 2, 1, 0), (1, 2, 2, 1), (2, 2, 2, 0),
                         (1, 3, 2, 2), (2, 3, 1, 1)):
        omega = ParabolicData(r, k)
        assert verify(query(g, d, omega), "genus").ok
    # with a marked point
    omega = ParabolicData(2, 2, (pt("p", (1, 1), (0, 1)),))
    assert verify(query(1, 1, omega), "genus").ok


def test_genus_recurrence_needs_positive_genus():
    with pytest.raises(ValueError):
        genus_recurrence_rhs(bare(0, 2, 2))


def test_split_worked_example():
    q = bare(2, 2, 2)
    ctx = split_context(q.omega, 2, 0, (), 1, 1, 1)
    terms = dict(iter_split_terms(q, ctx))
    assert terms == {(0, 0): 1, (1, 1): 9}
    assert split_recurrence_rhs(q, ctx) == 10


def test_split_factor_values():
    # term (0, 0): degrees split as -1 and +1, each side a single section
    assert dimension(query(1, -1, ParabolicData(
        2, 2, (pt("p", (2,), (0,)),)))) == 1
    assert dimension(query(1, 1, ParabolicData(
        2, 2, (pt("p", (2,), (0,)),)))) == 1
    # term (1, 1): both sides sit at degree zero with a constant twist, 3 * 3
    assert dimension(query(1, 0, ParabolicData(
        2, 2, (pt("p", (2,), (1,)),)))) == 3


def test_wprime_matches_split():
    q = bare(2, 2, 2)
    ctx = split_context(q.omega, 2, 0, (), 1, 1, 1)
    split_terms = dict(iter_split_terms(q, ctx))
    wp_terms = dict(iter_wprime_terms(q, ctx))
    assert sum(split_terms.values()) == sum(wp_terms.values())
    # the rotation bijection matches terms one by one
    for mu, val in split_terms.items():
        assert wp_terms[phi(mu, ctx)] == val
    assert wprime_recurrence_rhs(q, ctx) == 10


def test_split_verify_modes():
    q = bare(2, 2, 2)
    ctx = split_context(q.omega, 2, 0, (), 1, 1, 1)
    rep = verify(q, "split", ctx=ctx)
    assert rep.ok and rep.lhs == rep.rhs == 10
    rep2 = verify(q, "wprime", ctx=ctx)
    assert rep2.ok and rep2.lhs == rep2.rhs == 10


def test_split_with_marked_points():
    omega = ParabolicData(2, 2, (pt("p", (1, 1), (0, 1)),
                                 pt("q", (1, 1), (0, 1))))
    q = query(2, 1, omega)
    ctx = split_context(omega, 2, 1, ("p",), 1, 1, 1)
    assert verify(q, "split", ctx=ctx).ok
    assert verify(q, "wprime", ctx=ctx).ok


def test_uneven_genus_split():
    q = bare(3, 2, 2, 1)                    # ell = -3 splits as -1 and -2
    ctx = split_context(q.omega, 3, 1, (), 1, 1, 2)
    assert ctx.g1 == 1 and ctx.g2 == 2
    assert verify(q, "split", ctx=ctx).ok
    assert verify(q, "wprime", ctx=ctx).ok


def test_split_context_mismatch_is_rejected():
    q = bare(2, 2, 2)
    other = split_context(ParabolicData(2, 2), 2, 2, (), 1, 1, 1)
    with pytest.raises(ValueError):
        split_recurrence_rhs(q, other)
    # same labels, flags and numbers, but the weights of p and q swapped: a
    # check of the labels alone let split report 90 against 0
    q = query(2, 1, ParabolicData(2, 3, (pt("p", (1, 1), (0, 1)),
                                         pt("q", (1, 1), (0, 2)))))
    foreign = split_context(ParabolicData(2, 3, (pt("p", (1, 1), (0, 2)),
                                                 pt("q", (1, 1), (0, 1)))),
                            2, 1, ("p",), 1, 1, 2)
    for mode in ("split", "wprime"):
        with pytest.raises(ValueError, match="different query"):
            verify(q, mode, ctx=foreign)


def _split_grid():
    """The `verify split` cases at rank 2 up to level 5 and at ranks 3-4 up
    to level 3, with and without two points."""
    rank2 = _split_cases(SimpleNamespace(rank_max=2, level_max=5, genus_max=3))
    higher = _split_cases(SimpleNamespace(rank_max=4, level_max=3, genus_max=3))
    return ([c for c in rank2 if c[0].rank == 2]
            + [c for c in higher if c[0].rank > 2])


def test_wprime_sides_are_the_hecke_images_of_the_split_sides(monkeypatch):
    # the reference route: mu = phi^-1(lam), mu's split sides, then each
    # side Hecke-shifted from its induced degree onto degree 0 or d
    grid = _split_grid()
    assert {q.rank for q, _ in grid} == {2, 3, 4}
    assert any(q.omega.points for q, _ in grid if q.rank == 4)
    asked = []
    monkeypatch.setattr(verlinde, "dimension", lambda sub: asked.append(sub) or 1)
    weights = 0
    for q, ctx in grid:
        r = q.rank
        expected = []
        for lam in enumerate_Wk_prime(r, q.level,
                                      congruence_offset(q.omega, ctx.I1)):
            mu = phi_inverse(lam, ctx)
            d1, d2 = split_degrees(mu, ctx)
            o1, o2 = build_split_omegas(q.omega, mu, ctx)
            images = (hecke_shift(o1, o1.points[-1].label, int(d1) % r),
                      hecke_shift(o2, o2.points[-1].label,
                                  int(d2 - q.degree) % r))
            assert build_split_omegas(q.omega, lam, ctx) == images
            expected += [query(ctx.g1, 0, images[0]),
                         query(ctx.g2, q.degree, images[1])]
            weights += 1
        asked.clear()
        list(iter_wprime_terms(q, ctx))
        assert asked == expected
    assert weights > 100


@pytest.mark.parametrize("kwargs, message", [
    ({"mode": "split"}, "split mode needs a context"),
    ({"mode": "wprime"}, "wprime mode needs a context"),
    ({"mode": "hecke", "multiplicity": 1}, "hecke mode needs"),
    ({"mode": "hecke", "point": "p"}, "hecke mode needs"),
    ({"mode": "genera"}, "unknown mode 'genera'"),
])
def test_verify_argument_errors(kwargs, message):
    q = query(1, 0, ParabolicData(2, 2, (pt("p", (1, 1), (0, 1)),)))
    with pytest.raises(ValueError, match=message):
        verify(q, **kwargs)


# -- Hecke invariance ------------------------------------------------------

def test_hecke_image_preserves_dimension():
    omega = ParabolicData(3, 2, (pt("p", (2, 1), (0, 1)),))
    q = query(1, 0, omega)
    for m in legal_hecke_multiplicities(q, "p"):
        q2 = hecke_image(q, "p", m)
        assert q2.degree == q.degree - m
        assert dimension(q2) == dimension(q), m


def test_hecke_image_normalizes_first():
    omega = ParabolicData(2, 3, (pt("p", (1, 1), (1, 2)),))
    q = query(1, 0, omega)
    q2 = hecke_image(q, "p", 1)
    assert q2.omega.point("p").weights[0] == 0


def test_hecke_full_flag_block_is_plain_shift():
    omega = ParabolicData(2, 2, (pt("p", (1, 1), (0, 1)),))
    q = query(1, 0, omega)
    q2 = hecke_image(q, "p", 1)
    assert dimension(q2) == dimension(q)


def test_legal_hecke_multiplicities():
    omega = ParabolicData(3, 2, (pt("p", (2, 1), (0, 1)),))
    q = query(1, 0, omega)
    assert legal_hecke_multiplicities(q, "p") == [1, 2]
    # a point already carrying the level on top admits no further move
    wide = ParabolicData(3, 2, (pt("p", (2, 1), (0, 2)),))
    assert legal_hecke_multiplicities(query(1, 0, wide), "p") == []
    # a single-block point always admits the trivial full wrap
    full = ParabolicData(2, 2, (pt("p", (2,), (0,)),))
    assert legal_hecke_multiplicities(query(1, 0, full), "p") == [1, 2]


def _compositions(r):
    if r == 0:
        yield ()
        return
    for first in range(1, r + 1):
        for rest in _compositions(r - first):
            yield (first,) + rest


def _hecke_image_by_rotation(q, label, m):
    # the image from the closed-form rotation of the normalized point's
    # entries (each weight repeated by its block size, largest first),
    # regrouped into blocks of equal entries
    data = normalize_point(q.omega, label)
    p = data.point(label)
    if not 1 <= m <= p.flag[0] or p.weights[-1] >= q.level:
        raise ValueError(f"no move of multiplicity {m} at {label}")
    entries = sorted((a for n, a in zip(p.flag, p.weights) for _ in range(n)),
                     reverse=True)
    moved = h_closed(tuple(entries), q.level, m)
    weights = sorted(set(moved))
    new = pt(label, [moved.count(a) for a in weights], weights)
    return VerlindeQuery(q.genus, q.degree - m,
                         data.replace_point(label, new))


def test_hecke_image_agrees_with_the_moves_exhaustively():
    # every single-point query with r, k <= 5 and top weight up to the
    # level, every m in [0, n_1 + 1]: the legal list is exactly the m whose
    # image is defined, and each image is the closed-form rotation's
    queries = 0
    for r in range(1, 6):
        for k in range(1, 6):
            for flag in _compositions(r):
                for weights in combinations(range(k + 1), len(flag)):
                    q = query(1, 0, ParabolicData(r, k,
                                                  (pt("p", flag, weights),)))
                    queries += 1
                    defined = []
                    for m in range(flag[0] + 2):
                        try:
                            image = hecke_image(q, "p", m)
                        except ValueError:
                            with pytest.raises(ValueError):
                                _hecke_image_by_rotation(q, "p", m)
                            continue
                        assert image == _hecke_image_by_rotation(q, "p", m), (q, m)
                        defined.append(m)
                    assert legal_hecke_multiplicities(q, "p") == defined, q
    assert queries == 912


def test_hecke_verify_mode():
    omega = ParabolicData(3, 2, (pt("p", (2, 1), (0, 1)),))
    q = query(1, 1, omega)
    rep = verify(q, "hecke", point="p", multiplicity=1)
    assert rep.ok and rep.lhs == rep.rhs
    assert rep.detail["multiplicity"] == 1


def test_hecke_random_invariance():
    rng = random.Random(3)
    for _ in range(25):
        r = rng.randint(2, 3)
        k = rng.randint(1, 3)
        g = rng.randint(1, 2)
        d = rng.randint(0, r - 1)
        cut = sorted(rng.sample(range(1, r), rng.randint(0, r - 1)))
        flag = tuple(b - a for a, b in zip([0] + cut, cut + [r]))
        if len(flag) > k + 1:
            continue
        w = tuple(sorted(rng.sample(range(0, k + 1), len(flag))))
        try:
            omega = ParabolicData(r, k, (pt("p", flag, w),))
        except ValueError:
            continue
        q = query(g, d, omega)
        for m in legal_hecke_multiplicities(q, "p"):
            assert verify(q, "hecke", point="p", multiplicity=m).ok, (q, m)


# -- structural invariances ------------------------------------------------

def test_degree_periodicity():
    for (g, r, k) in ((1, 2, 2), (2, 2, 1), (1, 3, 2)):
        omega = ParabolicData(r, k)
        for d in (-1, 0, 1):
            assert dimension(query(g, d, omega)) == \
                dimension(query(g, d + r, omega)), (g, r, k, d)


def test_constant_weight_shift_invariance():
    base = ParabolicData(2, 3, (pt("p", (1, 1), (0, 1)),))
    shifted = ParabolicData(2, 3, (pt("p", (1, 1), (1, 2)),))
    for g, d in ((1, 0), (2, 1)):
        assert dimension(query(g, d, base)) == dimension(query(g, d, shifted))


def test_exceptional_case_still_evaluates():
    three = ParabolicData(2, 2, (pt("p", (1, 1), (0, 1)),
                                 pt("q", (1, 1), (0, 1)),
                                 pt("s", (1, 1), (0, 1))))
    q = query(0, 0, three)
    assert q.exceptional_case
    assert isinstance(closed_formula_exact(q.canonical_key()), int)


def test_rotation_multiplies_each_term_by_zeta_r_to_the_twist():
    # the law the orbit sum of thetadim.modular rests on, in Q(zeta_N), over
    # r, k <= 4, g <= 2, every degree and 0-3 seeded points, so the
    # exceptional genus-0 case is among them
    rng = random.Random(10)
    integral = exceptional = 0
    for r in range(1, 5):
        for k in range(1, 5):
            n = r + k
            N = r * n
            for g, d, npts in itertools.product(range(3), range(r), range(4)):
                pts = tuple(_random_point(rng, r, k, f"p{i}")
                            for i in range(npts))
                q = query(g, d, ParabolicData(r, k, pts))
                twist = (d * n - omega_total(q.omega)) % N
                assert (twist % r == 0) == q.ell_integral, q
                factor = root_power(N, n * twist)       # zeta_r**twist
                terms = {v: closed_term(q, v) for v in v_vectors(r, k)}
                for v, term in terms.items():
                    assert terms[_rotate(v, n)] == factor * term, (q, v)
                integral += q.ell_integral
                exceptional += q.exceptional_case
    assert integral > 100 and exceptional > 0


def test_shifting_a_point_by_full_columns_changes_no_term():
    # the column lemma of thetadim.modular in Q(zeta_N), through the
    # oracle's own arithmetic: every shift c that keeps one point's weights
    # in [0, k] leaves every term of the sum as it was, over r <= 3, k <= 4,
    # g <= 2, degrees 0..r and 1-2 seeded points
    rng = random.Random(23)
    checks = 0
    for r, k, g in itertools.product(range(1, 4), range(1, 5), range(3)):
        for d in range(r + 1):
            pts = tuple(_random_point(rng, r, k, f"p{i}")
                        for i in range(rng.randint(1, 2)))
            q = query(g, d, ParabolicData(r, k, pts))
            terms = {v: closed_term(q, v) for v in v_vectors(r, k)}
            for p in pts:
                for c in range(-p.weights[0], k - p.weights[-1] + 1):
                    if not c:
                        continue
                    moved = p._replace(weights=tuple(a + c for a in p.weights))
                    shifted = query(g, d, q.omega.replace_point(p.label, moved))
                    assert all(closed_term(shifted, v) == term
                               for v, term in terms.items()), (q, p, c)
                    checks += 1
    assert checks == 319


def test_sine_product_is_the_squared_vandermonde():
    # the sine lemma of thetadim.modular in Q(zeta_n), through the oracle's
    # own arithmetic: prod (2 sin pi (v_i - v_j) / n)**2 is
    # (-1)**(r (r - 1) / 2) Delta**2 zeta_n**(-(r - 1) |v|), over r <= 4,
    # k <= 5 and every v
    checks = 0
    for r, k in itertools.product(range(1, 5), range(1, 6)):
        n = r + k
        sign = (-1) ** (r * (r - 1) // 2)
        for v in v_vectors(r, k):
            delta = CycNum(n, alternant_counts((0,) * r, v, n))
            assert weyl_denominator(v, 2, r, k) == sign * delta * delta \
                * root_power(n, -(r - 1) * sum(v)), (r, k, v)
            checks += 1
    assert checks == 205


def test_closed_sum_vanishes_when_ell_is_not_integral():
    # every query whose twisting degree ell is not an integer has a closed
    # sum of 0; the rotation law of thetadim.modular implies it, but the
    # code still evaluates the sum
    rng = random.Random(6)
    seen = exceptional = 0
    for r in range(1, 5):
        for k in range(1, 5):
            for g in range(3):
                for d in range(r):
                    for n in (0, 1, 1, 2, 2, 3, 3):
                        pts = tuple(_random_point(rng, r, k, f"p{i}")
                                    for i in range(n))
                        q = query(g, d, ParabolicData(r, k, pts))
                        if q.ell_integral:
                            continue
                        assert closed_formula_exact(q.canonical_key()) == 0, q
                        seen += 1
                        exceptional += q.exceptional_case
    assert seen > 400 and exceptional > 0


# -- backends and memoization ----------------------------------------------

def test_backend_verify_mode():
    rep = verify(bare(2, 2, 2), "backend")
    assert rep.ok
    assert rep.residual < 1e-6


def test_dimension_memoizes():
    q = query(1, 0, ParabolicData(3, 2, (pt("p", (2, 1), (0, 1)),)))
    first = dimension(q)
    assert dimension(q) == first
    # a query rebuilt from the same document is the same key
    rebuilt, _ = document_to_query(query_to_document(q))
    assert rebuilt is not q
    assert dimension(rebuilt) == first
    info = memo_info()
    assert (info.hits, info.misses, info.currsize) == (2, 1, 1)
    # the same query at another degree is another key
    dimension(query(1, 1, q.omega))
    info = memo_info()
    assert (info.hits, info.misses, info.currsize) == (2, 2, 2)
    clear_memo()
    assert memo_info().currsize == 0


def test_genus_one_builds_no_sine_product(monkeypatch):
    # at genus one the sine product is raised to the power 0; the exact
    # backend, which builds none, checks the oracle's value
    real, built = schur.sin_sq, []
    monkeypatch.setattr(schur, "sin_sq",
                        lambda m, n: built.append(m) or real(m, n))
    for g, count in ((1, 0), (2, 18)):
        q = query(g, 1, ParabolicData(3, 2, (pt("p", (2, 1), (0, 1)),)))
        verlinde._weyl_inverse_promoted.cache_clear()
        built.clear()
        assert closed_formula_cyclotomic(q) == dimension(q)
        assert len(built) == count


def test_fixed_determinant_value_is_an_integer():
    # dimension * (r/k)**g is the dimension over the moduli space with fixed
    # determinant (Donagi and Tu, Math. Res. Lett. 1, 1994): an integer
    args = build_parser().parse_args(["verify", "all"])
    grid = [*_grid_queries(args), *(q for q, _ in _split_cases(args))]
    for q in grid:
        r, k, g = q.rank, q.level, q.genus
        assert dimension(q) * r ** g % k ** g == 0, q
    # U_X values with their fixed-determinant values 1 and 2
    assert dimension(bare(1, 2, 4, 1)) == 2
    assert dimension(bare(1, 2, 1, 0)) == 1


def test_canonical_key_ignores_point_order():
    a = ParabolicData(2, 2, (pt("p", (1, 1), (0, 1)), pt("q", (2,), (0,))))
    b = ParabolicData(2, 2, (pt("q", (2,), (0,)), pt("p", (1, 1), (0, 1))))
    assert query(1, 0, a).canonical_key() == query(1, 0, b).canonical_key()


def test_float_residual_is_tiny_on_honest_input():
    _, residual, _ = closed_formula_float(bare(2, 3, 1, 1))
    assert residual < 1e-9


# -- the value classes -----------------------------------------------------

def _values():
    """One fresh value of each class, with one of its field names."""
    point = pt("p", (1, 1), (0, 1))
    omega = ParabolicData(2, 2, (point,))
    q = query(1, 0, omega)
    return {"point": (point, "weights"), "omega": (omega, "points"),
            "query": (q, "genus"),
            "context": (split_context(ParabolicData(2, 2), 1, 0, (), 1, 1, 1),
                        "n1"),
            "report": (VerifyReport("genus", True, 3, 3, 0.0, q), "ok")}


@pytest.mark.parametrize("name", sorted(_values()))
def test_value_fields_cannot_be_assigned(name):
    obj, field = _values()[name]
    assert hasattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        obj.extra = 1


@pytest.mark.parametrize("name", sorted(set(_values()) - {"report"}))
def test_equal_values_hash_equal(name):
    a, b = _values()[name][0], _values()[name][0]
    assert a is not b and a == b and hash(a) == hash(b)


def test_equal_queries_share_a_dimension_memo_entry():
    a = query(1, 0, ParabolicData(3, 2, [MarkedPoint("p", [2, 1], [0, 1])]))
    b = query(1, 0, ParabolicData(3, 2, (pt("p", (2, 1), (0, 1)),)))
    assert a is not b and a == b and hash(a) == hash(b)
    value = dimension(a)
    assert dimension(b) == value
    info = memo_info()
    assert (info.hits, info.misses) == (1, 1)
    # the one key, which the disk cache files its records under as JSON:
    # the point's partition lam - lam_r, (a_last - a_i) n_i times
    assert a.canonical_key() == (1, 0, 3, 2, ((1, 1, 0),))
    assert query_key(a) == "[1,0,3,2,[[1,1,0]]]"


def test_relabeled_and_reordered_points_share_a_dimension_memo_entry():
    p, x = pt("p", (2, 1), (0, 1)), pt("x", (3,), (1,))
    first = query(1, 0, ParabolicData(3, 2, (p, x)))
    renamed = query(1, 0, ParabolicData(3, 2, (x._replace(label="b"),
                                               p._replace(label="a"))))
    assert renamed != first
    value = dimension(first)
    assert dimension(renamed) == value
    info = memo_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    # every weight of a point shifted by one is the same entry (the column
    # lemma of thetadim.modular)
    shifted = query(1, 0, ParabolicData(3, 2, (p._replace(weights=(1, 2)),
                                               x._replace(weights=(2,)))))
    assert dimension(shifted) == value
    info = memo_info()
    assert (info.hits, info.misses, info.currsize) == (2, 1, 1)
    # one changed jump is another entry
    moved = query(1, 0, ParabolicData(3, 2, (p._replace(weights=(0, 2)), x)))
    dimension(moved)
    info = memo_info()
    assert (info.hits, info.misses, info.currsize) == (2, 2, 2)


def test_closed_sum_never_sees_a_one_block_point(monkeypatch):
    seen = []
    real = modular.residues

    def spy(key, M, powers):
        seen.append(key)
        return real(key, M, powers)

    monkeypatch.setattr(modular, "residues", spy)
    count = 0
    for r, k, g, d in itertools.product(range(1, 5), range(1, 5), range(3),
                                        range(2)):
        # the one-block point at every weight, beside a two-block point
        for a in range(k + 1):
            pts = (pt("x", (r,), (a,)),) + (
                (pt("p", (1, r - 1), (0, 1)),) if r > 1 else ())
            q = query(g, d, ParabolicData(r, k, pts))
            assert closed_formula_exact(q.canonical_key()) == \
                closed_formula_cyclotomic(q), q
            count += 1
    assert len(seen) == count == 336
    # each sum keeps the two-block point alone, as lam - lam_r = (1, 0, ...)
    assert all(key[4] == (((1,) + (0,) * (key[2] - 1),) if key[2] > 1 else ())
               for key in seen)
    assert all(lam[-1] == 0 < lam[0] for key in seen for lam in key[4])


@st.composite
def _queries(draw, max_genus=2, max_points=3):
    """Rank <= 3, level <= 4, genus <= max_genus, any degree from -r to 2r,
    and up to max_points points, among them one-block points and repeats
    of an earlier point."""
    r, k = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    g, d = draw(st.integers(0, max_genus)), draw(st.integers(-r, 2 * r))
    specs = []
    for _ in range(draw(st.integers(0, max_points))):
        if specs and draw(st.booleans()):
            specs.append(draw(st.sampled_from(specs)))
            continue
        blocks = draw(st.integers(1, min(r, k + 1)))
        cuts = sorted(draw(st.sets(st.integers(1, r - 1), min_size=blocks - 1,
                                   max_size=blocks - 1))) if blocks > 1 else []
        flag = [b - a for a, b in zip([0] + cuts, cuts + [r])]
        weights = sorted(draw(st.sets(st.integers(0, k), min_size=blocks,
                                      max_size=blocks)))
        specs.append((flag, weights))
    return query(g, d, ParabolicData(r, k, [
        pt(f"p{i}", f, w) for i, (f, w) in enumerate(specs)]))


@settings(max_examples=80, deadline=None)
@given(q=_queries(max_genus=3, max_points=2))
def test_float_stays_within_its_proven_bound(q):
    # a refusal is allowed; a value must be exact, rounded from a sum no
    # farther from it than the bound the float path returns
    try:
        value, residual, error = closed_formula_float(q)
    except EvaluationError:
        return
    assert value == dimension(q)
    assert residual <= error


@settings(max_examples=80, deadline=None)
@given(q=_queries(), data=st.data())
def test_exact_backend_equals_oracle_and_ignores_labels(q, data):
    value = closed_formula_exact(q.canonical_key())
    assert value == closed_formula_cyclotomic(q)
    # a random relabeling and permutation of the points
    points = data.draw(st.permutations(q.omega.points))
    labels = data.draw(st.lists(st.text(min_size=1, max_size=3),
                                min_size=len(points), max_size=len(points),
                                unique=True))
    omega = ParabolicData(q.rank, q.level, [
        p._replace(label=label) for p, label in zip(points, labels)])
    assert dimension(query(q.genus, q.degree, omega)) == value
    # every weight of each point shifted by a random c that keeps them in
    # [0, k]; the oracle evaluates the unshifted query
    shifted = []
    for p in q.omega.points:
        c = data.draw(st.integers(-p.weights[0], q.level - p.weights[-1]))
        shifted.append(p._replace(weights=tuple(a + c for a in p.weights)))
    assert dimension(query(q.genus, q.degree, ParabolicData(
        q.rank, q.level, shifted))) == closed_formula_cyclotomic(q)


def test_constructors_turn_lists_into_int_tuples():
    point = MarkedPoint("p", [True, 1], [0, 1.0])
    omega = ParabolicData(2, 2, [point])
    assert point.flag == (1, 1) and point.weights == (0, 1)
    assert all(type(x) is int for x in point.flag + point.weights)
    assert type(omega.points) is tuple and omega.points == (point,)
    assert ParabolicData(2, 2).points == ()


@pytest.mark.parametrize("build, message", [
    (lambda: ParabolicData(0, 2), "rank must be >= 1"),
    (lambda: ParabolicData(2, 0), "level must be >= 1"),
    (lambda: ParabolicData(2, 2, [pt("p", (2,), (0,))] * 2),
     "point labels must be distinct"),
    (lambda: ParabolicData(2, 2, [pt("", (2,), (0,))]),
     "point label must be nonempty"),
    (lambda: ParabolicData(2, 2, [pt("p", (1, 1), (0,))]),
     "point p: flag and weights must have equal positive length"),
    (lambda: ParabolicData(2, 2, [pt("p", (), ())]),
     "point p: flag and weights must have equal positive length"),
    (lambda: ParabolicData(2, 2, [pt("p", (0, 2), (0, 1))]),
     "point p: flag multiplicities must be positive"),
    (lambda: ParabolicData(2, 2, [pt("p", (1, 2), (0, 1))]),
     "point p: flag multiplicities must sum to the rank"),
    (lambda: ParabolicData(2, 2, [pt("p", (1, 1), (1, 1))]),
     "point p: weights must strictly increase"),
    (lambda: ParabolicData(2, 2, [pt("p", (1, 1), (0, 3))]),
     "point p: weights must lie in [0, level]"),
    (lambda: VerlindeQuery(-1, 0, ParabolicData(2, 2)),
     "genus must be >= 0"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_verify_reports_never_share_a_detail_dict():
    q = bare(1, 2, 2)
    a = VerifyReport("genus", True, 3, 3, 0.0, q)
    b = VerifyReport("genus", True, 3, 3, 0.0, q)
    a.detail["x"] = 1
    assert b.detail == {} and a.detail is not b.detail
    assert verify(q, "genus").detail is not verify(q, "genus").detail

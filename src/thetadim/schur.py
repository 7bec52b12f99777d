"""Schur polynomial values at roots of unity.

Everything here is exact.  A Schur value S_lam(z_1, ..., z_r) with
z_j = zeta_n**v_j is the bialternant ratio det(z_j**(lam_i + r - i)) over
its lam = 0 case, the Vandermonde determinant; both live in Q(zeta_n).  A
brute-force evaluator sums monomials over semistandard tableaux and serves
as the independent oracle.  The three orthogonality sums at the bottom are
the engine behind the dimension recurrences; their checkers return exact
residuals.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations, permutations

from .cyclotomic import CycNum, root_power
from .weights import as_int, lambda_of_point, mu_star, enumerate_Pk, enumerate_Wk

_BRUTE_LIMIT = 8


def check_v(v, r: int, k: int) -> tuple[int, ...]:
    """Validate a summation vector: strictly decreasing, v_r = 0, v_1 < r + k."""
    v = tuple(map(as_int, v))
    if len(v) != r:
        raise ValueError("summation vector length must equal the rank")
    if v[-1] != 0:
        raise ValueError("summation vector must end in 0")
    if any(v[i] <= v[i + 1] for i in range(r - 1)):
        raise ValueError("summation vector must strictly decrease")
    if v[0] >= r + k:
        raise ValueError("summation vector entries must stay below r + k")
    return v


def v_vectors(r: int, k: int):
    """Strictly decreasing vectors (v_1, ..., v_(r-1), 0) with v_1 < r + k."""
    # combinations() copies its pool, which rank 1 does not draw from
    for combo in combinations(range(1, r + k) if r > 1 else (), r - 1):
        yield tuple(sorted(combo, reverse=True)) + (0,)


@functools.lru_cache(maxsize=64)
def v_orbits(r: int, k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The orbits of the level-k alcove under rotation, as (representative,
    size) pairs in the order of `v_vectors`.

    With n = r + k, a v-vector is r points of Z/n, one of them 0, and its
    cyclic gap sequence (n - v_1, v_1 - v_2, ..., v_(r-1) - 0) determines
    it.  The rotation T that moves the smallest nonzero entry c to 0,
    v -> sort((v_j - c) mod n), shifts the gap sequence cyclically by one
    place, so T**r = id.  An orbit's representative is the v whose gap
    sequence is least among its rotations, and its size is the least shift
    that fixes that sequence, a divisor of r: (2, 0) at r = k = 2, fixed by
    T, has size 1.

    The representatives are generated directly.  Lowered by 1, a gap
    sequence is a sequence x of r entries >= 0 summing to k, and the binary
    string 0 1**x_1 0 1**x_2 ... 0 1**x_r of length n with density k is
    least among its rotations exactly when x is: so the orbits are the
    fixed-density binary necklaces (Ruskey and Sawada, *An efficient
    algorithm for generating necklaces with fixed density*, SIAM J. Comput.
    29, 1999).  They come from the Fredricksen-Kessler-Maiorana recursion on
    x, which extends a prenecklace x_1 ... x_(t-1) of period p by
    x_t = x_(t-p) (period p) or by any larger entry (period t), and keeps x
    a necklace when r is a multiple of the final period, which is then the
    orbit's size.  No entry of a necklace is below its first, so x_t leaves
    at least x_1 for each later entry, and the last entry is what remains
    of k."""
    n = r + k
    x = [0] * (r + 1)                       # x[1..r] after x[0] = 0
    out = []

    def extend(t: int, p: int, left: int) -> None:
        if t == r:
            if left > x[r - p] or (left == x[r - p] and r % p == 0):
                x[r] = left
                v, vj = [], n
                for gap in x[1:]:
                    vj -= gap + 1
                    v.append(vj)
                out.append((tuple(v), r if left > x[r - p] else p))
            return
        top = left - (r - t) * x[1] if t > 1 else left // r
        for a in range(x[t - p], top + 1):
            x[t] = a
            extend(t + 1, p if a == x[t - p] else t, left - a)

    extend(1, 1, k)
    out.sort(key=lambda pair: pair[0][::-1])
    return tuple(out)


def _perm_sign(perm) -> int:
    """(-1) to the number of inversions."""
    return -1 if sum(a > b for a, b in combinations(perm, 2)) % 2 else 1


def alternant_counts(lam, v, n: int) -> list[int]:
    """The alternant det(zeta_n**((lam + rho)_i v_j)), rho = (r - 1, ..., 0),
    as the coefficient of each zeta_n**m.  Each Leibniz term is a single
    root power, so the sum is a signed count per exponent mod n.  At lam = 0
    it is the Vandermonde, the product of (zeta**v_i - zeta**v_j), i < j."""
    r = len(v)
    exps = [lam[i] + r - 1 - i for i in range(r)]
    counts = [0] * n
    for perm in permutations(range(r)):
        counts[sum(exps[i] * v[perm[i]] for i in range(r)) % n] += _perm_sign(perm)
    return counts


@functools.lru_cache(maxsize=256)
def _vandermonde_inverse(v, n: int) -> CycNum:
    return CycNum(n, alternant_counts((0,) * len(v), v, n)).inverse()


@functools.lru_cache(maxsize=16384)
def _schur_cached(lam, v, n: int) -> CycNum:
    return CycNum(n, alternant_counts(lam, v, n)) * _vandermonde_inverse(v, n)


def schur_at(lam, v, r: int, k: int) -> CycNum:
    """Exact S_lam at z_j = zeta_(r+k)**v_j, via the bialternant ratio."""
    lam = tuple(map(as_int, lam))
    if len(lam) != r:
        raise ValueError("partition must have exactly r parts (pad with zeros)")
    if any(lam[i] < lam[i + 1] for i in range(r - 1)) or lam[-1] < 0:
        raise ValueError("partition parts must be nonincreasing and nonnegative")
    v = check_v(v, r, k)
    return _schur_cached(lam, v, r + k)


def schur_brute(lam, v, r: int, k: int) -> CycNum:
    """Independent Schur evaluator: sum one monomial per semistandard
    tableau of shape lam with entries in 1..r."""
    lam = tuple(map(as_int, lam))
    v = check_v(v, r, k)
    if sum(lam) > _BRUTE_LIMIT:
        raise ValueError(f"partition size exceeds the brute-force guard {_BRUTE_LIMIT}")
    n = r + k
    rows = [size for size in lam if size > 0]
    total = CycNum.zero(n)
    cells = [(i, j) for i, size in enumerate(rows) for j in range(size)]
    entries = {}

    def fill(idx: int):
        nonlocal total
        if idx == len(cells):
            e = sum(v[t - 1] for t in entries.values())
            total = total + root_power(n, e)
            return
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, entries[(i, j - 1)])          # rows weakly increase
        if i > 0:
            lo = max(lo, entries[(i - 1, j)] + 1)      # columns strictly increase
        for t in range(lo, r + 1):
            entries[(i, j)] = t
            fill(idx + 1)
        entries.pop((i, j), None)

    fill(0)
    return total


def s_omega(omega, v) -> CycNum:
    """Product of the Schur values of every marked point's partition."""
    r, k = omega.rank, omega.level
    out = CycNum.one(r + k)
    for p in omega.points:
        out = out * schur_at(lambda_of_point(p, k), v, r, k)
    return out


def sin_sq(m: int, n: int) -> CycNum:
    """(2 sin(pi m / n))**2 as the exact value 2 - zeta**m - zeta**-m."""
    z = root_power(n, m)                    # refuses an order below 1 first
    if m % n == 0:
        raise ValueError("argument is a multiple of the order; sine vanishes")
    return 2 - z - z.conjugate()


def weyl_denominator(v, g: int, r: int, k: int) -> CycNum:
    """Product over pairs of (2 sin)**2 raised to g - 1; the genus-zero case
    returns the inverse of the product, and genus one builds no product."""
    v = check_v(v, r, k)
    n = r + k
    if g == 1:
        return CycNum.one(n)
    sines = (sin_sq(a - b, n) for a, b in combinations(v, 2))
    return math.prod(sines, start=CycNum.one(n)) ** (g - 1)


# -- orthogonality residuals ----------------------------------------------


def _dual_pairing_residual(weights, factor: int, v, r: int, k: int) -> CycNum:
    """sum over mu of S_mu S_mu* at v, minus zeta**(k|v|) factor n**(r-1)
    over the sine product."""
    v = check_v(v, r, k)
    n = r + k
    lhs = CycNum.zero(n)
    for mu in weights(r, k):
        lhs = lhs + schur_at(mu, v, r, k) * schur_at(mu_star(mu, k), v, r, k)
    rhs = root_power(n, k * sum(v)) * (factor * n ** (r - 1)) * weyl_denominator(v, 0, r, k)
    return lhs - rhs


def identity_52_check(v, r: int, k: int) -> CycNum:
    """Residual of the dual-pairing sum over the open weight set; zero iff
    the identity holds at this summation vector."""
    return _dual_pairing_residual(enumerate_Pk, k, v, r, k)


def identity_53_check(v, r: int, k: int) -> CycNum:
    """Residual of the dual-pairing sum over the closed bottom-zero set."""
    return _dual_pairing_residual(enumerate_Wk, r, v, r, k)


def identity_54_check(v, vp, r: int, k: int) -> CycNum:
    """Residual of the twisted cross-pairing sum at two distinct summation
    vectors; zero expresses their orthogonality."""
    v = check_v(v, r, k)
    vp = check_v(vp, r, k)
    if v == vp:
        raise ValueError("the two summation vectors must differ")
    n = r + k
    N = r * n
    sv, svp = sum(v), sum(vp)
    total = CycNum.zero(N)
    for mu in enumerate_Wk(r, k):
        ms = mu_star(mu, k)
        e = (-sum(mu) * sv - sum(ms) * svp) % N
        term = root_power(N, e) \
            * schur_at(mu, v, r, k).promote(N) \
            * schur_at(ms, vp, r, k).promote(N)
        total = total + term
    return total

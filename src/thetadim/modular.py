"""Exact closed sums by multi-modular evaluation.

For a prime p = 1 (mod N) the unit group of F_p holds an element omega of
order exactly N, and zeta_N -> omega maps the cyclotomic integers of the
closed sum into F_p.  The closed sum times its rational prefactor is an
integer, so its residues modulo enough such primes determine it by Chinese
remaindering once their product exceeds twice a proven bound on its
absolute value (von zur Gathen and Gerhard, *Modern Computer Algebra*,
ch. 5).  One more prime, the witness, checks the rebuilt integer.

Every term is a root power, the Schur values of the marked points and a
sine product, each read from one table of powers of omega.  A Schur value
is an alternant ratio, its determinant taken by elimination mod p.

No prime is bad: p > N is prime to N, and 1 - zeta^a (zeta^a != 1) is a
unit away from the primes dividing n = r + k, so neither a Vandermonde nor
a sine product vanishes mod p.  The code still checks before it inverts.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .schur import v_vectors
from .weights import lambda_of_point, omega_total

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least strong pseudoprime to all twelve bases above
_MR_LIMIT = 318665857834031151167461
_PRIME_TOP = 1 << 61


class EvaluationError(ArithmeticError):
    """The formula produced something that cannot be a dimension."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test with the first twelve prime bases."""
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


def _prime_factors(n: int) -> list[int]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


@functools.lru_cache(maxsize=128)
def prime_root(N: int, i: int) -> tuple[int, tuple[int, ...]]:
    """The i-th prime p = 1 (mod N) below 2**61, counting down, with the
    powers omega**0, ..., omega**(N-1) of an element omega of order N."""
    top = _PRIME_TOP if i == 0 else prime_root(N, i - 1)[0]
    p = (top - 2) // N * N + 1
    while not is_prime(p):
        p -= N
    factors = _prime_factors(N)
    a = 2
    while True:
        omega = pow(a, (p - 1) // N, p)
        if all(pow(omega, N // f, p) != 1 for f in factors):
            break
        a += 1
    powers = [1] * N
    for m in range(1, N):
        powers[m] = powers[m - 1] * omega % p
    return p, tuple(powers)


def _nonzero(x: int, p: int) -> int:
    if x % p == 0:
        raise EvaluationError(
            f"a denominator of the closed sum vanishes mod {p}")
    return x


def _det(rows: list[list[int]], p: int) -> int:
    """Determinant mod p by Gaussian elimination."""
    m = [list(row) for row in rows]
    size = len(m)
    det = 1
    for c in range(size):
        piv = next((i for i in range(c, size) if m[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], -1, p)
        for i in range(c + 1, size):
            f = m[i][c] * inv % p
            if f:
                row, top = m[i], m[c]
                for j in range(c + 1, size):
                    row[j] = (row[j] - f * top[j]) % p
    return det % p


def residue(q, prefactor: Fraction, p: int, powers) -> int:
    """The closed sum of q times prefactor, mod p, with zeta_N read as the
    root of unity whose powers are given."""
    r, k, g = q.rank, q.level, q.genus
    n = r + k
    N = r * n
    twist = (q.degree * n - omega_total(q.omega)) % N
    exps = [[lam[i] + r - 1 - i for i in range(r)]
            for lam in (lambda_of_point(pt, k) for pt in q.omega.points)]
    total = 0
    for v in v_vectors(r, k):
        x = [r * vj for vj in v]            # zeta_n**v_j = zeta_N**(r v_j)
        term = powers[twist * sum(v) % N]
        if exps:
            vand = 1
            for i in range(r):
                for j in range(i + 1, r):
                    vand = vand * (powers[x[i]] - powers[x[j]]) % p
            for e in exps:
                alt = _det([[powers[ei * xj % N] for xj in x] for ei in e], p)
                term = term * alt % p
            term = term * pow(_nonzero(vand, p), -len(exps), p) % p
        if g != 1:
            sines = 1                        # prod of (2 sin)^2 = 2 - a - 1/a
            for i in range(r):
                for j in range(i + 1, r):
                    a = x[i] - x[j]
                    sines = sines * (2 - powers[a] - powers[N - a]) % p
            term = term * pow(_nonzero(sines, p), 1 - g, p) % p
        total += term
    den = _nonzero(prefactor.denominator, p)
    return total * prefactor.numerator * pow(den, -1, p) % p


def weyl_dimension(lam) -> int:
    """dim V_lam of the GL_r representation with highest weight lam."""
    num = den = 1
    for i in range(len(lam)):
        for j in range(i + 1, len(lam)):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    return num // den


def magnitude_bound(q, prefactor: Fraction) -> Fraction:
    """A bound on |closed sum times prefactor|.  A Schur value at roots of
    unity is a sum of dim V_lam unit monomials, and 2 sin(pi m / n) >= 4 / n
    for 1 <= m < n, so each of the C(n-1, r-1) terms is bounded by the
    product of the dimensions times the extreme sine product."""
    r, k, g = q.rank, q.level, q.genus
    n = r + k
    pairs = r * (r - 1) // 2
    bound = abs(prefactor) * math.comb(n - 1, r - 1)
    for pt in q.omega.points:
        bound *= weyl_dimension(lambda_of_point(pt, k))
    if g >= 1:
        return bound * Fraction(n * n, 16) ** (pairs * (g - 1))
    return bound * 4 ** pairs


def closed_sum(q, prefactor: Fraction) -> int:
    """The closed sum of q times prefactor, rebuilt from its residues by
    Chinese remaindering and checked at one witness prime."""
    N = q.rank * (q.rank + q.level)
    bound = magnitude_bound(q, prefactor)
    value, modulus, i = 0, 1, 0
    while modulus <= 2 * bound:
        p, powers = prime_root(N, i)
        a = residue(q, prefactor, p, powers)
        value += modulus * ((a - value) * pow(modulus, -1, p) % p)
        modulus *= p
        i += 1
    if value > modulus // 2:
        value -= modulus
    p, powers = prime_root(N, i)
    if abs(value) > bound or value % p != residue(q, prefactor, p, powers):
        raise EvaluationError(f"the closed sum is not an integer within its "
                              f"bound: the rebuilt value {value} fails the "
                              f"bound or the witness prime {p}")
    if value < 0:
        raise EvaluationError(f"dimension came out negative: {value}")
    return value

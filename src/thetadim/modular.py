"""Exact closed sums by p-adic evaluation.

For a prime p = 1 (mod N) the unit group of F_p holds an element omega of
order exactly N; its Newton lift omega_M mod M = p**e is a root of Phi_N,
so zeta_N -> omega_M maps the cyclotomic integers of the closed sum into
Z/M (`lifted_root`).  The closed sum times its rational prefactor is an
integer, so once p**e exceeds twice a proven bound on its absolute value,
its residue mod p**e in the symmetric range is that integer.  The sum is
evaluated mod p**(e+1), and the next p-adic digit, the witness, checks it.

The prime is a Proth number, p = 1 + t lcm(N, 2**E) below 2**(2E - 1)
(`_proth_exponent`), the first found counting down: after trial division
by the primes below 200, one modular power certifies each candidate by
Proth's theorem (`_proth_prime`, which proves it).  Each order's prime is
searched once and kept for the next query of that order (`prime_root`).

Every term is a root power, one alternant per marked point and a power of
the Vandermonde, each read from one table of powers of omega_M: a Schur
value is an alternant, its determinant taken by elimination, over the
Vandermonde, and the sine product is the squared Vandermonde up to a sign
and a root of unity (the sine lemma below).  The terms are summed as one
fraction mod M and inverted once.

The prime is never bad: p > N is prime to N, and 1 - zeta^a (zeta^a != 1)
is a unit away from the primes dividing n = r + k, so no Vandermonde
vanishes mod p.  The code still checks before it inverts.  Z/M is not a
field: a pivot can be nonzero mod M but 0 mod p, about one pivot in 2**61,
taking its residue mod p > 2**60 as spread over [0, p).  It then goes into
the final denominator, which is checked to be prime to p, so such a sum
raises EvaluationError and never returns a wrong value.

The sine product is the squared Vandermonde, up to a sign and a root of
unity.  With z_j = zeta_n**v_j and Delta = prod_(i<j) (z_i - z_j), each
factor is (2 sin(pi (v_i - v_j) / n))**2 = 2 - z_i/z_j - z_j/z_i =
-(z_i - z_j)**2 / (z_i z_j), and each z_i lies in r - 1 of the pairs, so

    prod_(i<j) (2 - z_i/z_j - z_j/z_i)
        = (-1)**(r (r - 1) / 2) Delta**2 zeta_n**(-(r - 1) |v|),

and zeta_n**(-(r - 1) |v|) = zeta_N**(-r (r - 1) |v|).  The term of v
divides by this product to the power g - 1 and by Delta once per marked
point, so it is

    (-1)**(r (r - 1) (g - 1) / 2) zeta_N**((twist + r (r - 1) (g - 1)) |v|)
        prod alt / (Delta**e prod scale),    e = #points + 2 (g - 1),

with alt / scale each point's alternant as `_det` returns it.  The sign
is the same for every term.  Every step is a polynomial identity in a
root of unity of order N, so it holds mod M as in Q(zeta_N), and
`residues` builds one product per term, none when e = 0.  The cyclotomic
oracle and the float cross-check keep the sine product, so `verify
backend` compares the lemma's two sides.

When the twisting number ell is an integer, the sum takes one v per
rotation orbit of the level alcove, times the orbit's size.  The centre
Z/r of SU(r) acts on the alcove by rotation, the simple-current action of
conformal field theory (Schellekens and Yankielowicz, *Simple currents,
modular invariants and fixed points*, 1990).  With n = r + k, let T move
the smallest nonzero entry c of v to 0: T v = sort((v_j - c) mod n) =
(n - c, v_1 - c, ..., v_(r-2) - c, 0), and T**r = id (`schur.v_orbits`).
Then T multiplies the term of v by zeta_r**twist = exp(2 pi i ell):

- sum(T v) = sum(v) - r c + n, so the twist factor zeta_N**(twist sum(v))
  gains zeta_N**(twist n) zeta_N**(-twist r c) = zeta_r**twist
  zeta_n**(c |omega|), because twist = d n - |omega| = -|omega| (mod n);
- the points zeta_n**(T v) are zeta_n**-c times those of v, and S_lam is
  symmetric and homogeneous of degree |lam|, so the product of the Schur
  values gains zeta_n**(-c |omega|); re-sorting permutes the columns of an
  alternant and of its Vandermonde alike, so the sign cancels in the ratio;
- the sine product depends only on the differences v_i - v_j;
- at a point with blocks n_i and weights a_i, summation by parts gives
  sum n_i a_i = r a_last - jump_sum, so |lam| = r (k - a_last) + jump_sum
  = jump_sum (mod r); hence twist = d n - |omega| = d k - sum jump_sum =
  r ell (mod r), as r ell = k (d + r (1 - g)) - sum jump_sum.

Every step is an identity of polynomials in a root of unity of order N, so
it holds for omega_M mod M as for zeta_N.  So twist = 0 (mod r) exactly
when ell is an integer, and then every term is constant on its orbit.
(When ell is not an integer the same law makes each orbit's terms sum to
0; the code does not use that.)  Other queries sum every v, each with
weight 1.

A point counts only modulo full columns of its partition, so
`verlinde.VerlindeQuery.canonical_key` reads it as lam - lam_r.  Let
every weight of a point rise by c, so that its partition lam = (level -
a_i, each n_i times) becomes lam - c (1**r).
Term by term:

- the exponents lam_i + r - 1 - i of the alternant all fall by c, so the
  alternant, and with it S_lam(zeta_n**v), gains (prod z)**-c =
  zeta_n**(-c |v|);
- |omega| falls by r c, so the twist factor zeta_N**(twist |v|) gains
  zeta_N**(r c |v|) = zeta_n**(c |v|), exactly the factor the Schur
  value lost;
- the sine product does not see the points.

Every step is a polynomial identity, so it holds mod M.  Nothing else
moves: ell keeps its value, since the point's jumps are the same; the
bound B keeps its value, since dim V_lam reads only the differences
lam_i - lam_j, and with it the modulus and the OversizedQuery refusals;
and twist mod r keeps its value, since r c = 0 (mod r), so the query
takes the same orbit-or-every-v branch.  So the sum sees a point only
through lam - lam_r, and `verlinde.dimension` keys its memo on that.

A point with one block is the case lam = (c**r), c = k - a, of this
lemma: shifted to the level its partition is 0, the trivial SU(r)
representation, which cannot change the dimension by propagation of
vacua (Beauville, *Conformal blocks, fusion rules and the Verlinde
formula*, 1996).  Its Schur value is then 1 and dim V_0 = 1, so
`canonical_key` drops it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .schur import v_orbits, v_vectors

# the primes below 200: a candidate sharing a factor with their product is
# composite, since every candidate is far above 200
_SMALL_PRIMES = math.prod(f for f in range(2, 200)
                          if all(f % d for d in range(2, math.isqrt(f) + 1)))


# CPython's default limit on the digits of an int converted to a string
MAX_DIGITS = 4300
# the most bits a query's table of N powers mod M may hold, N times the bit
# size of M: 2**26 bits is 8 MiB of digits
MAX_TABLE_BITS = 1 << 26
# the most steps a closed sum may take, C(n-1, r-1) r**2 (1 + P r) for P
# partitions (`closed_sum`): on a 2-vCPU VM a step took about 50 ns in sums
# over one v per orbit, which reach this in about a minute, and 5-520 ns
# over all the sums measured
MAX_WORK = 10 ** 9


class EvaluationError(ArithmeticError):
    """The formula produced something that cannot be a dimension."""


class OversizedQuery(ValueError):
    """The query's value could have more than MAX_DIGITS digits, its
    table of powers more than MAX_TABLE_BITS bits, or its sum more than
    MAX_WORK steps."""


def _v2(n: int) -> int:
    """The exponent of 2 in n > 0."""
    return (n & -n).bit_length() - 1


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _proth_prime(p: int) -> bool:
    """Whether the Proth number p = h 2**e + 1, h odd and h < 2**e, is prime,
    by one modular power (Proth's theorem).

    Let a be such that the Jacobi symbol (a/p) is -1.  Then p is prime if
    and only if a**((p-1)/2) = -1 (mod p).  If p is prime, the Jacobi
    symbol is the Legendre symbol, and Euler's criterion gives the power.
    Conversely, let q be a prime dividing p.  Mod q, a**(p-1) = 1 but
    a**((p-1)/2) = -1 != 1, so the order of a divides h 2**e but not
    h 2**(e-1); h is odd, so 2**e divides the order, which divides q - 1.
    So q > 2**e, and q**2 > 2**(2e) > (2**e - 1) 2**e + 1 >= p: every
    prime factor of p exceeds its square root, and p is prime.

    The search for a runs over a = 3, 5, 7, ...  The first odd a with
    (a/p) = 0 shares a factor with p that no smaller odd number shares, so
    it is a prime factor of p.  A square m**2 has no a with symbol -1,
    since (a/m**2) = (a/m)**2, and the search would run on to the least
    prime factor of m, so a square is refused first.  For any other odd p
    the symbol is a nontrivial character mod p, so some odd a has
    (a/p) = -1 (a and a + p have the same symbol) and the search ends."""
    if p < 3 or (p - 1) >> _v2(p - 1) >= 1 << _v2(p - 1):
        raise ValueError(f"{p} is not a Proth number")
    if math.isqrt(p) ** 2 == p:
        return False
    a = 3
    while (symbol := _jacobi(a, p)) == 1:
        a += 2
    if not symbol:
        return p == a
    return pow(a, (p - 1) // 2, p) == p - 1


def _proth_exponent(N: int) -> int:
    """The least E with 2**E >= max(2**31, 2**20 odd(N)) and E >= v_2(N),
    where N = 2**v_2(N) odd(N).  The primes of order N are
    p = 1 + t lcm(N, 2**E) < 2**(2E - 1), so p - 1 = h 2**e with e >= E and
    h < 2**(E - 1) <= 2**e: each is a Proth number.  Below the top there
    are at least 2**(E-1) / odd(N) >= 2**19 candidates, and a query needs
    only the first prime among them (should there be none, the search
    raises EvaluationError).  An order with odd part at most 2**11 and
    2-part at most 2**31 has E = 31, so p < 2**61."""
    return max(31, _v2(N), 20 + ((N >> _v2(N)) - 1).bit_length())


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


@functools.lru_cache(maxsize=64)
def prime_root(N: int) -> tuple[int, int]:
    """The greatest prime p = 1 + t lcm(N, 2**E) below 2**(2E - 1),
    E = _proth_exponent(N), with an element omega of order exactly N mod p.
    Each order is searched once while it stays among the 64 most recent."""
    E = _proth_exponent(N)
    step = N >> _v2(N) << E                             # lcm(N, 2**E)
    p = ((1 << (2 * E - 1)) - 2) // step * step + 1
    while p > 1 and (math.gcd(p, _SMALL_PRIMES) != 1 or not _proth_prime(p)):
        p -= step
    if p == 1:
        raise EvaluationError(f"no Proth prime of order {N} is left")
    odd = [f for f in _prime_factors(N) if f != 2]
    a = 2
    while True:
        # for even N, omega**(N/2) = a**((p-1)/2) = (a/p) by Euler's criterion
        if N % 2 or _jacobi(a, p) == -1:
            omega = pow(a, (p - 1) // N, p)
            if all(pow(omega, N // f, p) != 1 for f in odd):
                return p, omega
        a += 1


@functools.lru_cache(maxsize=128)
def lifted_root(N: int, e: int) -> tuple[int, tuple[int, ...]]:
    """M = p**e for the prime p of prime_root(N), with the powers
    omega_M**0, ..., omega_M**(N-1) mod M, where omega_M is the root of
    x**N - 1 mod M that is omega mod p.

    Newton's iteration omega <- omega - f(omega) / f'(omega) on
    f = x**N - 1, with q squaring from p up to M, keeps f(omega) = 0
    (mod q) as long as f'(omega) = N omega**(N-1) is a unit: p = 1
    (mod N) exceeds N, so p does not divide N, and omega is a unit
    (Hensel's lemma; von zur Gathen and Gerhard, *Modern Computer
    Algebra*, ch. 15).  The lift is a root of Phi_N mod M.  Mod p, no
    Phi_d with d | N, d < N, vanishes at omega, else omega**d = 1 against
    its order N; omega_M = omega (mod p), so each such Phi_d(omega_M) is a
    unit mod M, and their product with Phi_N(omega_M) is omega_M**N - 1 =
    0 (mod M).  So Phi_N(omega_M) = 0 (mod M), and zeta_N -> omega_M is a
    ring map from Z[zeta_N] onto Z/M."""
    p, omega = prime_root(N)
    M, q = p ** e, p
    while q < M:
        q = min(q * q, M)
        omega = (omega - (pow(omega, N, q) - 1)
                 * pow(N * pow(omega, N - 1, q), -1, q)) % q
    powers = [1] * N
    for m in range(1, N):
        powers[m] = powers[m - 1] * omega % M
    return M, tuple(powers)


def _nonzero(x: int, M: int) -> int:
    # M is not printed: it can pass the 4,300 digits str() converts
    if math.gcd(x, M) != 1:
        raise EvaluationError(
            "a denominator of the closed sum vanishes mod the prime")
    return x


def _det(rows: list[list[int]], M: int) -> tuple[int, int]:
    """Determinant mod M as a fraction (num, den) by elimination that
    cross-multiplies rows instead of dividing by the pivot, so it needs no
    inverse and holds in any residue ring.  With pivot a, each row below
    with leading entry f != 0 becomes a * row - f * top, which scales the
    determinant by a; so det = a * det(rest) / a**s for s such rows, and a
    goes once into num and s times into den."""
    rows = list(rows)
    num = den = 1
    while len(rows) > 1:
        if not rows[0][0]:
            piv = next((i for i, row in enumerate(rows) if row[0]), None)
            if piv is None:
                return 0, 1
            rows[0], rows[piv] = rows[piv], rows[0]
            num = -num
        top = rows[0]
        a, tail = top[0], top[1:]
        num = num * a % M
        sub = []
        for row in rows[1:]:
            f = row[0]
            if f:
                sub.append([(a * x - f * y) % M for x, y in zip(row[1:], tail)])
                den = den * a % M
            else:
                sub.append(row[1:])
        rows = sub
    return num * rows[0][0] % M, den


def residues(key, M: int, powers) -> int:
    """The closed sum of a query key (`closed_sum`) times its `prefactor`
    modulo M, with zeta_N read as the root of unity whose powers mod M are
    given, in one pass over the v-vectors; twist = d n - the sum of |lam|.

    By the sine lemma (module docstring) the term of v is
    zeta_N**((twist + r (r - 1) (g - 1)) |v|) prod alt / (Delta**e prod
    scale) with e = #partitions + 2 (g - 1), times the sign
    (-1)**(r (r - 1) (g - 1) / 2) that is taken once for the whole sum.
    Each term is a fraction num / den mod M, den collecting the
    alternants' pivots and Delta**e, or num collecting Delta**-e when
    e < 0; Delta is built only when e != 0.  The terms are summed by
    cross-multiplying, so the pass needs one inversion, taken after
    checking that the product of all denominators is prime to M.  With
    twist = 0 (mod r) the loop runs over one v per orbit, weighted by the
    orbit's size (see the module docstring); otherwise over every v with
    weight 1."""
    g, d, r, k, lams = key
    n = r + k
    N = r * n
    twist = (d * n - sum(map(sum, lams))) % N
    shift = (twist + r * (r - 1) * (g - 1)) % N
    exps = [[lam[i] + r - 1 - i for i in range(r)] for lam in lams]
    e = len(exps) + 2 * (g - 1)
    total, dens = 0, 1
    terms = v_orbits(r, k) if twist % r == 0 else \
        [(v, 1) for v in v_vectors(r, k)]
    for v, weight in terms:
        x = [r * vj for vj in v]            # zeta_n**v_j = zeta_N**(r v_j)
        num, den = weight * powers[shift * sum(v) % N], 1
        if e:
            z, vand = [powers[xj] for xj in x], 1
            for i in range(r):
                for j in range(i + 1, r):
                    vand = vand * (z[i] - z[j]) % M
            if e > 0:
                den = pow(vand, e, M)
            else:
                num = num * pow(vand, -e, M) % M
        for ex in exps:
            alt, scale = _det([[powers[ei * xj % N] for xj in x]
                               for ei in ex], M)
            num = num * alt % M
            den = den * scale % M
        total = (total * den + num * dens) % M
        dens = dens * den % M
    if r * (r - 1) * (g - 1) // 2 % 2:
        total = -total
    num, den = prefactor(key).as_integer_ratio()
    return total * num * pow(_nonzero(dens * den, M), -1, M) % M


def weyl_dimension(lam) -> int:
    """dim V_lam of the GL_r representation with highest weight lam."""
    num = den = 1
    for i in range(len(lam)):
        for j in range(i + 1, len(lam)):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    return num // den


def _ln_weyl_blocks(lam):
    """ln dim V_lam as one share per block of lam after the first, in
    O(r * blocks) lgamma calls in all, where `weyl_dimension` takes O(r**2)
    products of growing integers.  Two entries of one block of lam give
    the factor 1.  A later block lam_j = c, s <= j < t, and a row i < s
    give prod_j (x + j) / (j - i) = Gamma(x + t) Gamma(s - i) /
    (Gamma(x + s) Gamma(t - i)), with x = lam_i - c - i; lam_i >= c, so
    each factor is >= 1 and each share >= 0."""
    r = len(lam)
    starts = [j for j in range(1, r) if lam[j] != lam[j - 1]]
    for s, t in zip(starts, starts[1:] + [r]):
        share = 0.0
        for i in range(s):
            x = lam[i] - lam[s] - i
            share += (math.lgamma(x + t) - math.lgamma(x + s)
                      + math.lgamma(s - i) - math.lgamma(t - i))
        yield share


def _bound_powers(key) -> list[tuple]:
    """The bound's (base, exponent) pairs but C(n-1, r-1) and the dim V_lam:
    the prefactor's sign, (k/r)**g, r**(g-1) and n**((r-1)(g-1)), n = r + k,
    then the extreme sine product."""
    g, d, r, k = key[:4]
    n, pairs = r + k, r * (r - 1) // 2
    return [(-1 if d * (r - 1) % 2 else 1, 1), (Fraction(k, r), g),
            (r, g - 1), (n, (r - 1) * (g - 1)),
            (Fraction(n * n, 16), pairs * (g - 1)) if g >= 1 else (4, pairs)]


def prefactor(key) -> Fraction:
    """The closed sum's rational prefactor; it reads only g, d, r and k.
    It multiplies integers and reduces once, as a product of Fractions
    would at every step."""
    num = den = 1
    for b, e in _bound_powers(key)[:-1]:
        p, q = b.as_integer_ratio()[::1 if e >= 0 else -1]
        num, den = num * p ** abs(e), den * q ** abs(e)
    return Fraction(num, den)


def magnitude_bound(key) -> Fraction:
    """A bound on |closed sum times prefactor|.  A Schur value at roots of
    unity is a sum of dim V_lam unit monomials, and 2 sin(pi m / n) >= 4 / n
    for 1 <= m < n, so each of the C(n-1, r-1) terms is bounded by the
    product of the dimensions times the extreme sine product."""
    r, k, lams = key[2:]
    base, e = _bound_powers(key)[-1]
    return (abs(prefactor(key)) * base ** e * math.comb(r + k - 1, r - 1)
            * math.prod(map(weyl_dimension, lams)))


def _ln_terms(r: int, k: int) -> float:
    """ln C(n-1, r-1), the number of v-vectors, by lgamma."""
    return math.lgamma(r + k) - math.lgamma(r) - math.lgamma(k + 1)


def _log10_bound(key) -> float:
    """log10 of magnitude_bound, refused with OversizedQuery from
    MAX_DIGITS on: the (base, exponent) pairs of `_bound_powers` by the
    logarithms of their bases, numerator and denominator apart, and
    C(n-1, r-1) and each dim V_lam by lgamma, so that no big integer is
    built, and a number beyond any float counts as infinite.  The dim
    V_lam come last, one block's share at a time, and every share is >= 0,
    so the sum stops after the share that takes it to MAX_DIGITS; when
    shares are left, the refusal says the bound is at least that."""
    r, k, lams = key[2:]
    shares = (share for lam in lams for share in _ln_weyl_blocks(lam))
    whole = True
    try:
        rest = sum(e * (math.log10(abs(b.numerator))
                        - math.log10(b.denominator))
                   for b, e in _bound_powers(key))
        ln = _ln_terms(r, k)
        log10 = ln / math.log(10) + rest
        for share in shares:
            ln += share
            log10 = ln / math.log(10) + rest
            if log10 >= MAX_DIGITS:
                whole = next(shares, None) is None
                break
    except OverflowError:
        log10 = math.inf
    if log10 >= MAX_DIGITS:
        raise OversizedQuery(f"query too large: the bound on its value is "
                             f"{'' if whole else 'at least '}10**{log10:.1f}, "
                             f"more than {MAX_DIGITS} digits")
    return log10


def closed_sum(key) -> int:
    """The closed sum of a `canonical_key` times its `prefactor`, rebuilt
    from one residue modulo p**(e+1), p the prime of its order and e the
    least exponent with p**e > 2B: the residue mod p**e is the value, and
    the next p-adic digit is its witness.  A query whose bound
    B = magnitude_bound(key) has more than MAX_DIGITS digits is refused
    with OversizedQuery before any power is built or prime sought: log10 B
    is summed from logarithms (`_log10_bound`), so the check is cheap at
    any genus, rank and level.  So is a query whose table of N powers mod
    p**(e+1) could pass MAX_TABLE_BITS bits: p**(e-1) <= 2B and
    p < 2**(2E - 1), so p**(e+1) has at most log2 B + 4E - 1 bits.  So is
    a query whose sum could take more than MAX_WORK steps: C(n-1, r-1)
    terms, each with r**2 for its Vandermonde and r**3 for each of its P
    alternants, taken by lgamma as well."""
    r, k = key[2:4]
    N = r * (r + k)
    log10 = _log10_bound(key)
    bits = max(log10, 0) * math.log2(10) + 4 * _proth_exponent(N) - 1
    if N * bits > MAX_TABLE_BITS:
        raise OversizedQuery(f"query too large: its table of {N} powers mod "
                             f"a modulus of up to {bits:.0f} bits passes "
                             f"{MAX_TABLE_BITS} bits")
    work = (_ln_terms(r, k) + math.log(r * r * (1 + len(key[4]) * r))) \
        / math.log(10)
    if work > math.log10(MAX_WORK):
        raise OversizedQuery(f"query too large: its sum takes about "
                             f"10**{work:.1f} steps, more than {MAX_WORK}")
    bound = magnitude_bound(key)
    p = prime_root(N)[0]
    e, modulus = 1, p
    while modulus <= 2 * bound:
        e, modulus = e + 1, modulus * p
    M, powers = lifted_root(N, e + 1)           # the witness digit comes last
    residue = residues(key, M, powers)
    value = residue % modulus
    if value > modulus // 2:
        value -= modulus
    if abs(value) > bound or residue != value % M:
        raise EvaluationError(f"the closed sum is not an integer within its "
                              f"bound: the rebuilt value {value} fails the "
                              f"bound or the witness digit mod {p}**{e + 1}")
    if value < 0:
        raise EvaluationError(f"dimension came out negative: {value}")
    return value

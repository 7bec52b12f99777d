"""An independent evaluation of the Verlinde formula at 60 digits.

The dimension is read from the formula in its S-matrix form (Beauville,
"Conformal blocks, fusion rules and the Verlinde formula", 1996): a sum
over the level-k alcove, written as strictly decreasing vectors
v = (v_1, ..., v_(r-1), 0) with v_1 < n = r + k, of

    zeta_N^((d n - |lambda|) |v|) * prod_x S_(lambda_x)(zeta_n^v)
        * prod_(i<j) (2 sin(pi (v_i - v_j) / n))^(2 - 2g),

times (k/r)^g (r n^(r-1))^(g-1) and the sign (-1)^(d (r-1)), where
N = r n, lambda_x = (k - a_i repeated n_i times) is the partition of the
point x with flag (n_i) and weights (a_i), and |lambda| sums over all
points.  The sine product is the inverse square of S_(0,mu) up to the
normalising constant in the prefactor.  Schur values are bialternant ratios
of determinants taken by elimination over mpmath complex numbers.

Only genus, rank, degree, level and the points' flags and weights are read.
The evaluation shares no code with thetadim.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import mpmath

DIGITS = 60
_ROUNDING_SLACK = mpmath.mpf(10) ** -20


def _det(rows):
    # Gaussian elimination with partial pivoting on mpc entries
    m = [list(row) for row in rows]
    size = len(m)
    det = mpmath.mpc(1)
    for col in range(size):
        piv = max(range(col, size), key=lambda i: abs(m[i][col]))
        if m[piv][col] == 0:
            return mpmath.mpc(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        pivot = m[col][col]
        det *= pivot
        for row in range(col + 1, size):
            f = m[row][col] / pivot
            if f:
                for c in range(col + 1, size):
                    m[row][c] -= f * m[col][c]
    return det


@lru_cache(maxsize=64)
def _roots(order: int):
    with mpmath.workdps(DIGITS):
        return tuple(mpmath.expjpi(mpmath.mpf(2 * m) / order) for m in range(order))


def _alternant(exps, v, roots, n):
    return _det([[roots[(e * vj) % n] for vj in v] for e in exps])


def partition(point, level: int) -> tuple[int, ...]:
    out = []
    for mult, a in zip(point["flag"], point["weights"]):
        out.extend([level - a] * mult)
    return tuple(out)


def closed_sum(doc):
    """The formula's value as an mpmath complex number."""
    g, r, d, k = doc["genus"], doc["rank"], doc["degree"], doc["level"]
    n, N = r + k, r * (r + k)
    lams = [partition(p, k) for p in doc["points"]]
    size = sum(sum(lam) for lam in lams)
    with mpmath.workdps(DIGITS):
        roots_n, roots_N = _roots(n), _roots(N)
        sin_sq = [(2 * mpmath.sinpi(mpmath.mpf(m) / n)) ** 2 for m in range(n)]
        rho = tuple(range(r - 1, -1, -1))
        total = mpmath.mpc(0)
        for head in combinations(range(n - 1, 0, -1), r - 1):
            v = head + (0,)
            term = roots_N[((d * n - size) * sum(v)) % N]
            if lams:
                vandermonde = _alternant(rho, v, roots_n, n)
                for lam in lams:
                    exps = [lam[i] + rho[i] for i in range(r)]
                    term *= _alternant(exps, v, roots_n, n) / vandermonde
            sines = mpmath.mpf(1)
            for i in range(r):
                for j in range(i + 1, r):
                    sines *= sin_sq[v[i] - v[j]]
            total += term * sines ** (1 - g)
        pref = Fraction(k, r) ** g * Fraction(r * n ** (r - 1)) ** (g - 1)
        if (d * (r - 1)) % 2:
            pref = -pref
        return total * mpmath.mpf(pref.numerator) / pref.denominator


def dimension(doc) -> int:
    """The nearest integer to the formula's value; ValueError when the
    value is not within 1e-20 of a nonnegative integer."""
    with mpmath.workdps(DIGITS):
        val = closed_sum(doc)
        out = int(mpmath.nint(val.real))
        if abs(val - out) > _ROUNDING_SLACK or out < 0:
            raise ValueError(f"formula value {val} is not a dimension")
    return out

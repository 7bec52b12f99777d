"""Exact arithmetic in the cyclotomic fields Q(zeta_N), zeta_N = exp(2*pi*i/N).

Phi_N, the N-th cyclotomic polynomial, is irreducible (Washington,
*Introduction to Cyclotomic Fields*, ch. 2), so each value of Q(zeta_N) has
exactly one representative of degree < deg(Phi_N).  A CycNum keeps it as
integer numerators over one positive denominator, in lowest terms, so two
spellings of one value have equal fields.  One monic long division builds
Phi_N (a tuple of ints, lowest degree first) and reduces every integer
product; `inverse` divides the other Galois conjugates by the norm,
multiplied up a tower of subgroups in O(log phi(N)) products.
Float coefficients are refused: Fraction(float) would make a value inexact.

Values are immutable; share them freely across threads.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

_ZERO = Fraction(0)


class NotRationalError(ValueError):
    """A value with nonzero zeta-components was read as a rational.

    The offending canonical coefficient vector is kept on the exception so
    callers can report it.
    """

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)
        super().__init__(f"not a rational value; canonical coefficients {self.coeffs}")


def _check_order(N: int) -> None:
    if N < 1:
        raise ValueError("order must be >= 1")


def _divmod_monic(a, b) -> tuple[list, list]:
    """(quotient, remainder) of a by a monic b, lowest degree first.  No
    coefficient is ever divided, so integer inputs stay integers.  The
    remainder is not trimmed: it keeps min(len(a), deg(b)) entries."""
    deg = len(b) - 1
    tail = [(j, c) for j, c in enumerate(b[:deg]) if c]
    rem = list(a)
    quot = [0] * max(len(rem) - deg, 0)
    for shift in range(len(quot) - 1, -1, -1):
        c = quot[shift] = rem.pop()
        if c:
            for j, d in tail:
                rem[shift + j] -= c * d
    return quot, rem


@functools.lru_cache(maxsize=64)
def cyclotomic_polynomial(N: int) -> tuple[int, ...]:
    """Coefficients of the N-th cyclotomic polynomial Phi_N, lowest degree
    first: divide x**N - 1 by Phi_d for proper d | N."""
    _check_order(N)
    poly = [-1] + [0] * (N - 1) + [1]
    for d in range(1, N):
        if N % d == 0:
            poly, rem = _divmod_monic(poly, cyclotomic_polynomial(d))
            if any(rem):
                raise ArithmeticError("division was not exact")
    return tuple(poly)


class CycNum:
    """An element of Q(zeta_N), order N fixed at construction."""

    __slots__ = ("_order", "_nums", "_den")

    def __new__(cls, order: int, coeffs=()):
        _check_order(order)
        cs = list(coeffs)
        if len(cs) > order:
            raise ValueError("too many coefficients for the order")
        if any(isinstance(c, float) for c in cs):
            raise TypeError("float coefficient; pass an int or Fraction")
        cs = [Fraction(c) for c in cs]
        den = math.lcm(*(c.denominator for c in cs))
        return cls._of(order, [c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def _of(cls, order: int, nums: list, den: int = 1) -> "CycNum":
        """sum(nums[i] * zeta**i) / den (ints, den > 0) in canonical form."""
        phi = cyclotomic_polynomial(order)
        if len(nums) >= len(phi):
            nums = _divmod_monic(nums, phi)[1]
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = [c // g for c in nums], den // g
        x = object.__new__(cls)
        x._order = order
        x._nums = tuple(nums) + (0,) * (len(phi) - 1 - len(nums))
        x._den = den
        return x

    order = property(lambda self: self._order, doc="N, fixed at construction; read-only.")

    def __reduce__(self):
        return CycNum, (self._order, self.canonical())

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "CycNum":
        return cls._of(order, [])

    @classmethod
    def one(cls, order: int) -> "CycNum":
        return cls._of(order, [1])

    @classmethod
    def from_rational(cls, q, order: int) -> "CycNum":
        return cls(order, (q,))

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycNum):
            if other._order != self._order:
                raise ValueError(
                    f"order mismatch ({self._order} vs {other._order}); promote first"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycNum.from_rational(other, self._order)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d, e = self._den, other._den
        return CycNum._of(self._order,
                          [a * e + b * d for a, b in zip(self._nums, other._nums)], d * e)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return CycNum._of(self._order, [-a for a in self._nums], self._den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycNum._of(self._order, [a * other.numerator for a in self._nums],
                              self._den * other.denominator)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        bs = [(j, b) for j, b in enumerate(other._nums) if b]
        out = [0] * (2 * len(self._nums) - 1)
        for i, a in enumerate(self._nums):
            if a:
                for j, b in bs:
                    out[i + j] += a * b
        return CycNum._of(self._order, out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = CycNum.one(self._order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- canonical form and predicates ------------------------------------

    def canonical(self) -> tuple:
        """Coefficients reduced modulo Phi_N, Fractions padded to length N."""
        pad = (_ZERO,) * (self._order - len(self._nums))
        return tuple(Fraction(c, self._den) for c in self._nums) + pad

    coeffs = property(canonical, doc="The canonical coefficients; read-only.")

    def is_zero(self) -> bool:
        return not any(self._nums)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycNum.from_rational(other, self._order)
        if not isinstance(other, CycNum):
            return NotImplemented
        if other._order != self._order:
            m = math.lcm(self._order, other._order)
            return self.promote(m) == other.promote(m)
        return self._nums == other._nums and self._den == other._den

    __hash__ = None  # cross-order equality makes a consistent hash awkward

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.canonical()):
            if c:
                parts.append(f"{c}*z^{i}" if i else f"{c}")
        body = " + ".join(parts) if parts else "0"
        return f"CycNum({self._order}: {body})"

    # -- field operations --------------------------------------------------

    def inverse(self) -> "CycNum":
        """x**-1 = prod_{a != 1} sigma_a(x) / N(x), a in (Z/N)^x, sigma_a(zeta) = zeta**a.

        Proof.  For a prime to N, zeta**a is a root of Phi_N, which is
        irreducible, so sigma_a is a field automorphism of Q[x]/Phi_N; the
        phi(N) of them form the Galois group G.  The norm N(x), the product
        of sigma_a(x) over G, is fixed by each sigma_b, which permutes the
        factors, so N(x) lies in the fixed field Q.  For x != 0 no factor
        vanishes (sigma_a is injective), so N(x) is a nonzero rational, and
        x * prod_{a != 1} sigma_a(x) = N(x) gives the formula.

        The product runs up a tower 1 = H_0 < ... < H_t = G, H_i made by
        H_(i-1) and a unit g of order m modulo it, so the cosets g**j H_(i-1),
        j < m, tile H_i.  If y is the product of sigma_h(x) over H_(i-1), then
        y * r, r = prod_{0 < j < m} sigma_g**j(y), is the product over H_i;
        at H_t it is N(x), so x times all the r's is N(x).  Doubling,
        P(a + b) = P(a) * sigma_g**a(P(b)) for P(n) = prod_{j < n}
        sigma_g**j(y), builds r = sigma_g(P(m - 1)) in O(log m) products."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        N = self._order
        y, rest, H = self, None, {1 % N}
        for g in range(2, N):
            if g in H or math.gcd(g, N) != 1:
                continue
            powers = [1, g]  # g**j mod N up to the first g**m in H
            while powers[-1] not in H:
                powers.append(powers[-1] * g % N)
            H = {h * q % N for h in H for q in powers[:-1]}
            p, n = y, 1
            for bit in bin(len(powers) - 2)[3:]:  # P(m - 1), leading bit first
                p, n = p * p._substitute(N, powers[n]), 2 * n
                if bit == "1":
                    p, n = y * p._substitute(N, g), n + 1
            r = p._substitute(N, g)
            y, rest = y * r, r if rest is None else rest * r
        return (rest or CycNum.one(N)) * (1 / y.as_rational())

    def _substitute(self, order: int, step: int) -> "CycNum":
        """sum c_i zeta_order**(i*step): sigma_step, or promotion to a multiple."""
        out = [0] * order
        for i, c in enumerate(self._nums):
            if c:
                out[i * step % order] += c
        return CycNum._of(order, out, self._den)

    def conjugate(self) -> "CycNum":
        """Complex conjugation, zeta**i -> zeta**(N-i)."""
        return self._substitute(self._order, -1)

    def as_rational(self) -> Fraction:
        """The value as a Fraction, or NotRationalError if zeta survives."""
        if any(self._nums[1:]):
            raise NotRationalError(self.canonical())
        return Fraction(self._nums[0], self._den)

    def promote(self, new_order: int) -> "CycNum":
        """Reinterpret in Q(zeta_M) for a multiple M of the order."""
        _check_order(new_order)
        if new_order % self._order:
            raise ValueError("new order must be a multiple of the current order")
        return self._substitute(new_order, new_order // self._order)

    def embed(self) -> complex:
        """Numerical value in C."""
        den = self._den
        tau = 2.0 * math.pi / self._order
        total = 0j
        for i, c in enumerate(self._nums):
            if c:
                total += (c / den) * cmath.rect(1.0, tau * i)
        return total


def root_power(N: int, m: int) -> CycNum:
    """zeta_N**m, exponent taken modulo N."""
    _check_order(N)
    return CycNum._of(N, [0] * (m % N) + [1])

"""Exact arithmetic in the cyclotomic fields Q(zeta_N), zeta_N = exp(2*pi*i/N).

A CycNum of order N holds N rational coefficients (c_0, ..., c_{N-1}) and
stands for sum_i c_i * zeta_N**i.  Coefficient vectors are kept raw, meaning
reduced modulo x**N - 1 only, so a product is a plain cyclic convolution.
Reduction modulo the N-th cyclotomic polynomial Phi_N is deferred to the
places that actually need a canonical form: equality tests, inversion, and
extraction of rational values.  In canonical form every coefficient of index
>= deg(Phi_N) is zero.  One monic long division builds Phi_N (a tuple of
ints, lowest degree first), gives the canonical form as a remainder, and
drives the extended Euclid inverse, whose cofactors are CycNums.  Float
coefficients are refused: Fraction(float) would make a value inexact.

Values are immutable; share them freely across threads.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class NotRationalError(ValueError):
    """A value with nonzero zeta-components was read as a rational.

    The offending canonical coefficient vector is kept on the exception so
    callers can report it.
    """

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)
        super().__init__(f"not a rational value; canonical coefficients {self.coeffs}")


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
    if N < 1:
        raise ValueError("order must be >= 1")
    poly = [-1] + [0] * (N - 1) + [1]
    for d in range(1, N):
        if N % d == 0:
            poly, rem = _divmod_monic(poly, cyclotomic_polynomial(d))
            if any(rem):
                raise ArithmeticError("division was not exact")
    return tuple(poly)


class CycNum:
    """An element of Q(zeta_N), order N fixed at construction."""

    __slots__ = ("order", "coeffs", "_canon")

    def __init__(self, order: int, coeffs=()):
        if order < 1:
            raise ValueError("order must be >= 1")
        cs = [_ZERO] * order
        for i, c in enumerate(coeffs):
            if i >= order:
                raise ValueError("too many coefficients for the order")
            if not isinstance(c, Fraction):
                if isinstance(c, float):
                    raise TypeError("float coefficient; pass an int or Fraction")
                c = Fraction(c)
            cs[i] = c
        self.order = order
        self.coeffs = tuple(cs)
        self._canon = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "CycNum":
        return cls(order)

    @classmethod
    def one(cls, order: int) -> "CycNum":
        return cls(order, (1,))

    @classmethod
    def from_rational(cls, q, order: int) -> "CycNum":
        return cls(order, (q,))

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycNum):
            if other.order != self.order:
                raise ValueError(
                    f"order mismatch ({self.order} vs {other.order}); promote first"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycNum.from_rational(other, self.order)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycNum(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycNum(self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return CycNum(self.order, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycNum(self.order, [a * other for a in self.coeffs])
        if not isinstance(other, CycNum):
            return NotImplemented
        if other.order != self.order:
            raise ValueError(
                f"order mismatch ({self.order} vs {other.order}); promote first"
            )
        N = self.order
        out = [_ZERO] * N
        for i, ai in enumerate(self.coeffs):
            if ai:
                for j, bj in enumerate(other.coeffs):
                    if bj:
                        idx = i + j
                        if idx >= N:
                            idx -= N
                        out[idx] += ai * bj
        return CycNum(N, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = CycNum.one(self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- canonical form and predicates ------------------------------------

    def canonical(self) -> tuple:
        """Coefficients reduced modulo Phi_N, padded with zeros to length N."""
        if self._canon is None:
            # divide integer numerators over one common denominator
            den = math.lcm(*(c.denominator for c in self.coeffs))
            nums = [c.numerator * (den // c.denominator) for c in self.coeffs]
            _, low = _divmod_monic(nums, cyclotomic_polynomial(self.order))
            low += [0] * (self.order - len(low))
            self._canon = tuple(Fraction(c, den) if c else _ZERO for c in low)
        return self._canon

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.canonical())

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycNum.from_rational(other, self.order)
        if not isinstance(other, CycNum):
            return NotImplemented
        if other.order != self.order:
            m = math.lcm(self.order, other.order)
            return self.promote(m) == other.promote(m)
        return self.canonical() == other.canonical()

    __hash__ = None  # cross-order equality makes a consistent hash awkward

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.canonical()):
            if c:
                parts.append(f"{c}*z^{i}" if i else f"{c}")
        body = " + ".join(parts) if parts else "0"
        return f"CycNum({self.order}: {body})"

    # -- field operations --------------------------------------------------

    def inverse(self) -> "CycNum":
        """Multiplicative inverse, by the extended Euclid algorithm against Phi_N
        with every divisor made monic (von zur Gathen and Gerhard, *Modern
        Computer Algebra*, ch. 3).  Phi_N is irreducible, so the remainders
        reach the constant 1."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # invariant: r_i == t_i * self mod Phi_N; deg(q t_1) < N, so no wrap
        N = self.order
        r0, t0 = [Fraction(c) for c in cyclotomic_polynomial(N)], CycNum.zero(N)
        r1, t1 = _poly_trim(list(self.canonical())), CycNum.one(N)
        while True:
            lead = r1[-1]
            if lead != 1:
                r1 = [c / lead for c in r1]
                t1 = t1 * (1 / lead)
            if len(r1) == 1:
                return t1
            q, rem = _divmod_monic(r0, r1)
            r0, t0, r1, t1 = r1, t1, _poly_trim(rem), t0 - CycNum(N, q) * t1

    def conjugate(self) -> "CycNum":
        """Complex conjugation, zeta**i -> zeta**(N-i)."""
        N = self.order
        out = [_ZERO] * N
        for i, c in enumerate(self.coeffs):
            if c:
                out[(N - i) % N] += c
        return CycNum(N, out)

    def as_rational(self) -> Fraction:
        """The value as a Fraction, or NotRationalError if zeta survives."""
        canon = self.canonical()
        if any(c != 0 for c in canon[1:]):
            raise NotRationalError(canon)
        return canon[0]

    def promote(self, new_order: int) -> "CycNum":
        """Reinterpret in Q(zeta_M) for a multiple M of the order."""
        if new_order % self.order:
            raise ValueError("new order must be a multiple of the current order")
        s = new_order // self.order
        out = [_ZERO] * new_order
        for i, c in enumerate(self.coeffs):
            out[i * s] = c
        return CycNum(new_order, out)

    def embed(self) -> complex:
        """Numerical value in C."""
        N = self.order
        tau = 2.0 * math.pi / N
        total = 0j
        for i, c in enumerate(self.coeffs):
            if c:
                total += float(c) * cmath.rect(1.0, tau * i)
        return total


def root_power(N: int, m: int) -> CycNum:
    """zeta_N**m, exponent taken modulo N."""
    out = [_ZERO] * N
    out[m % N] = _ONE
    return CycNum(N, out)


def _poly_trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p

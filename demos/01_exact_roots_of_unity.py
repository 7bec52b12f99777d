"""
A tour of the exact cyclotomic arithmetic underneath everything else.

Every number in this library lives in Q(zeta_N) for some N: rational
combinations of N-th roots of unity.  No floats are involved until the
very last moment, which is why the identities later on can be checked
with == instead of a tolerance.
"""

from fractions import Fraction

from thetadim.cyclotomic import (CycNum, cyclotomic_polynomial, root_power)

# zeta = exp(2 pi i / 12), as an exact object
zeta = root_power(12, 1)
print("zeta_12       =", zeta)
print("zeta_12^12    =", zeta ** 12)          # back to 1, exactly
print("zeta_12^6     =", zeta ** 6)           # -1, exactly

# the embedding into complex numbers is only for display
print("numerically   =", zeta.embed())

# arithmetic is the ordinary ring arithmetic of the quotient ring
a = zeta + 1
b = zeta ** 5 - Fraction(1, 2)
print("a * b         =", a * b)
print("a * b (num)   =", (a * b).embed(), "=", a.embed() * b.embed())

# every nonzero element has an exact inverse
inv = a.inverse()
print("a * a^-1      =", a * inv)

# the minimal polynomial of zeta_N is the N-th cyclotomic polynomial, a
# tuple of integer coefficients, lowest degree first; its degree is below
# N, so the CycNum with those coefficients is its value at zeta_N: zero
phi12 = cyclotomic_polynomial(12)
print("Phi_12        =", phi12)
print("Phi_12(zeta)  =", CycNum(12, phi12))

# a classic: 2 - zeta_3 - zeta_3^2 = 3, the square of |1 - zeta_3|
s = CycNum.from_rational(2, 3) - root_power(3, 1) - root_power(3, 2)
print("2-z3-z3^2     =", s, " as rational:", s.as_rational())

# elements of different orders compare correctly: zeta_2 equals zeta_4^2
print("zeta_2 == zeta_4^2:", root_power(2, 1) == root_power(4, 1) ** 2)

# a Gauss sum: residues minus nonresidues mod 5.  The sum itself is
# irrational (asking for a rational value raises), but its square is 5
from thetadim.cyclotomic import NotRationalError

g = (root_power(5, 1) + root_power(5, 4)
     - root_power(5, 2) - root_power(5, 3))
try:
    g.as_rational()
except NotRationalError:
    print("g itself is not rational (as expected)")
print("g^2 exact     =", (g * g).as_rational())
print("g numerically =", g.embed().real, " vs sqrt(5) =", 5 ** 0.5)

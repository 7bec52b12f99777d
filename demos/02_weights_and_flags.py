"""Weight combinatorics: the index sets behind every sum in the library."""

from fractions import Fraction

from thetadim.weights import (MarkedPoint, ParabolicData, SplitContext,
                              enumerate_Pk, enumerate_Qk, enumerate_Wk,
                              enumerate_Wk_prime, h_closed, hecke_basic,
                              hecke_m, lambda_of_point, mu_star, phi,
                              phi_inverse)

r, k = 3, 2

print(f"bounded weights P_k for rank {r}, level {k}:")
for mu in enumerate_Pk(r, k):
    print("   ", mu, "  dual:", mu_star(mu, k))

print("anchored weights W_k (last entry pinned to zero):")
for mu in enumerate_Wk(r, k):
    print("   ", mu)

# the congruence-filtered slice used by the second factorization sum
print("W'_k at offset 1:", list(enumerate_Wk_prime(r, k, 1)))

# parabolic data: a rank, a level, and flagged points with weights
omega = ParabolicData(3, 2, (MarkedPoint("p", (2, 1), (0, 1)),))
p = omega.point("p")
print("point p:", p.flag, p.weights, " partition:", lambda_of_point(p, k))

# a full move wraps the whole bottom flag block and costs degree n_1
moved, shift = hecke_basic(omega, "p")
print("full move:  ", moved.point("p").flag, moved.point("p").weights,
      " degree shift", shift)

# a partial move peels m entries off and parks them at the level
partial, shift = hecke_m(omega, "p", 1)
print("partial move:", partial.point("p").flag, partial.point("p").weights,
      " degree shift", shift)

# on weights alone the same move is a rotation; h_closed gives the m-th
# iterate in closed form
mu = (2, 1, 0)
for m in range(4):
    print(f"rotation^{m} of {mu} ->", h_closed(mu, k, m))

# the rotation count that lands a weight in W'_k is what the phi
# bijection computes; a synthetic context stands in for a real surface
n1 = Fraction(-1)
ctx = SplitContext(1, 1, (), (), 1, 1, 0, n1, Fraction(0), 2, 2, n1 + 2)
for mu in enumerate_Qk(2, 2, ctx.n1):
    print("phi", mu, "->", phi(mu, ctx), "-> back",
          phi_inverse(phi(mu, ctx), ctx))

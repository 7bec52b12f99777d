"""Weight combinatorics: the index sets behind every sum in the library."""

from fractions import Fraction

from thetadim.weights import (MarkedPoint, ParabolicData, SplitContext,
                              enumerate_Pk, enumerate_Qk, enumerate_Wk,
                              enumerate_Wk_prime, h_closed, hecke_shift,
                              lambda_of_point, mu_star, phi, phi_inverse)

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

# s moves at a point lower the degree by s: s = n_1 = 2 wraps the whole
# bottom flag block, s = 1 peels one entry off it and parks it at the level
for name, s in (("full move:  ", 2), ("partial move:", 1)):
    moved = hecke_shift(omega, "p", s).point("p")
    print(name, moved.flag, moved.weights, " degree shift", -s)

# the moves are the rotation of the point's entries (each weight repeated
# by its block size); h_closed gives the m-th iterate in closed form
mu = (2, 1, 0)
for m in range(4):
    print(f"rotation^{m} of {mu} ->", h_closed(mu, k, m))

# the rotation count that lands a weight in W'_k is what the phi
# bijection computes; a synthetic context stands in for a real surface
n1 = Fraction(-1)
ctx = SplitContext(1, 1, (), 1, 1, n1, Fraction(0), 2, 2, n1 + 2)
for mu in enumerate_Qk(2, 2, ctx.n1):
    print("phi", mu, "->", phi(mu, ctx), "-> back",
          phi_inverse(phi(mu, ctx), ctx))

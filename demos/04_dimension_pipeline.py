"""
End to end: evaluate dimensions, then make the formula defend itself.

The same checks are available from the command line (thetadim verify),
this script drives them through the library API and narrates what each
one is saying.
"""

import json

from thetadim.cli import document_to_query, query_to_document
from thetadim.verlinde import (dimension, genus_recurrence_rhs, hecke_image,
                               iter_split_terms, iter_wprime_terms,
                               legal_hecke_multiplicities, query, verify)
from thetadim.weights import (MarkedPoint, ParabolicData, phi, split_context)

# a genus 2 surface, rank 2, level 2, no marked points
q = query(2, 0, ParabolicData(2, 2))
print("D(genus 2, rank 2, level 2) =", dimension(q))

# the same number from one genus lower: sum over all two-point weight
# extensions of the genus 1 moduli
print("genus recurrence gives     =", genus_recurrence_rhs(q))

# the same number a third way: pinch the surface into two genus 1
# halves and sum products of one-point dimensions
ctx = split_context(q.omega, 2, 0, (), 1, 1, 1)
terms = dict(iter_split_terms(q, ctx))
print("split terms:", terms, " sum =", sum(terms.values()))

# and a fourth way, summing over the congruence-filtered weight set;
# the phi bijection matches its terms with the previous sum one by one
wp = dict(iter_wprime_terms(q, ctx))
for mu, val in terms.items():
    print(f"  term {mu} -> {phi(mu, ctx)}: {val} = {wp[phi(mu, ctx)]}")

# marked points: a flagged point changes the count
omega = ParabolicData(3, 2, (MarkedPoint("p", (2, 1), (0, 1)),))
qp = query(1, 1, omega)
print("rank 3 with one marked point:", dimension(qp))

# Hecke moves rewrite the data and shift the degree but never the answer
for m in legal_hecke_multiplicities(qp, "p"):
    img = hecke_image(qp, "p", m)
    print(f"  move m={m}: degree {qp.degree} -> {img.degree}, "
          f"dimension {dimension(img)}")

# verify() wraps each comparison with a residual report
for mode, kwargs in (("genus", {}), ("split", {"ctx": ctx}),
                     ("wprime", {"ctx": ctx}), ("backend", {})):
    rep = verify(q, mode, **kwargs)
    print(f"verify {mode}: lhs={rep.lhs} rhs={rep.rhs} ok={rep.ok}")

# queries serialize to the same JSON documents the CLI consumes
doc = query_to_document(qp)
print("as a CLI document:", json.dumps(doc))
round_tripped, _ = document_to_query(doc)
print("round trip is exact:", round_tripped == qp)

"""Parabolic weight data and the combinatorics that rewrites it.

A marked point carries a flag type (block multiplicities summing to the
rank) and one strictly increasing weight per block.  Weights live in
[0, level]; the top weight equals the level only on data produced by a
partial Hecke move or built from a weight of W_k with mu_1 = k.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

Weight = tuple[int, ...]


class MarkedPoint(namedtuple("MarkedPoint", "label flag weights")):
    __slots__ = ()

    def __new__(cls, label: str, flag, weights):
        return super().__new__(cls, label, tuple(int(n) for n in flag),
                               tuple(int(a) for a in weights))

    def validate(self, rank: int, level: int):
        if not self.label:
            raise ValueError("point label must be nonempty")
        if len(self.flag) != len(self.weights) or not self.flag:
            raise ValueError(f"point {self.label}: flag and weights must have equal positive length")
        if any(n < 1 for n in self.flag):
            raise ValueError(f"point {self.label}: flag multiplicities must be positive")
        if sum(self.flag) != rank:
            raise ValueError(f"point {self.label}: flag multiplicities must sum to the rank")
        if any(b <= a for a, b in zip(self.weights, self.weights[1:])):
            raise ValueError(f"point {self.label}: weights must strictly increase")
        if self.weights[0] < 0 or self.weights[-1] > level:
            raise ValueError(f"point {self.label}: weights must lie in [0, level]")


class ParabolicData(namedtuple("ParabolicData", "rank level points")):
    __slots__ = ()

    def __new__(cls, rank: int, level: int, points=()):
        self = super().__new__(cls, rank, level, tuple(points))
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if level < 1:
            raise ValueError("level must be >= 1")
        labels = [p.label for p in self.points]
        if len(set(labels)) != len(labels):
            raise ValueError("point labels must be distinct")
        for p in self.points:
            p.validate(rank, level)
        return self

    def point(self, label: str) -> MarkedPoint:
        for p in self.points:
            if p.label == label:
                return p
        raise KeyError(f"no point labelled {label!r}")

    def labels(self) -> tuple[str, ...]:
        return tuple(p.label for p in self.points)

    def replace_point(self, label: str, new: MarkedPoint) -> "ParabolicData":
        pts = tuple(new if p.label == label else p for p in self.points)
        return ParabolicData(self.rank, self.level, pts)


def chi(g: int, r: int, d: int) -> int:
    """Euler characteristic d + r(1 - g)."""
    return d + r * (1 - g)


def jumps(p: MarkedPoint) -> list[tuple[int, int]]:
    """(jump height, subflag rank) pairs (d_i, r_i), one per weight step."""
    out = []
    acc = 0
    for i in range(len(p.flag) - 1):
        acc += p.flag[i]
        out.append((p.weights[i + 1] - p.weights[i], acc))
    return out


def jump_sum(p: MarkedPoint) -> int:
    """Sum of jump height times subflag rank over the point's weight steps."""
    return sum(d * r for d, r in jumps(p))


def ell(omega: ParabolicData, g: int, d: int) -> Fraction:
    """Twisting integer of the determinant line; a Fraction so callers can
    see (and flag) the non-integral case instead of crashing."""
    total = sum(jump_sum(p) for p in omega.points)
    return Fraction(omega.level * chi(g, omega.rank, d) - total, omega.rank)


def lambda_of_point(p: MarkedPoint, level: int) -> Weight:
    """The padded partition attached to a point: level - a_i, repeated n_i times."""
    out = []
    for n, a in zip(p.flag, p.weights):
        out.extend([level - a] * n)
    return tuple(out)


def omega_total(omega: ParabolicData) -> int:
    """Sum of |lambda_x| over all marked points."""
    return sum(sum(lambda_of_point(p, omega.level)) for p in omega.points)


def mu_star(mu: Weight, k: int) -> Weight:
    """Dual weight (k - mu_r, ..., k - mu_1)."""
    return tuple(k - m for m in reversed(mu))


# -- enumeration -----------------------------------------------------------


def _bounded_nonincreasing(r: int, top: int):
    # nonincreasing tuples of length r with entries in [0, top], lexicographic:
    # the next one raises the last entry below its bound (the entry before
    # it, or top for the first) and zeroes the entries after it
    if top < 0:
        return
    mu = [0] * r
    while True:
        yield tuple(mu)
        i = r - 1
        while i >= 0 and mu[i] == (mu[i - 1] if i else top):
            i -= 1
        if i < 0:
            return
        mu[i] += 1
        mu[i + 1:] = [0] * (r - 1 - i)


def enumerate_Pk(r: int, k: int):
    """Weights with k > mu_1 >= ... >= mu_r >= 0, lexicographic order."""
    yield from _bounded_nonincreasing(r, k - 1)


def enumerate_Wk(r: int, k: int):
    """Weights with k >= mu_1 >= ... >= mu_r = 0, lexicographic order."""
    for head in _bounded_nonincreasing(r - 1, k):
        yield head + (0,)


def enumerate_Wk_prime(r: int, k: int, congruence_offset: int):
    """The Wk stream filtered by (offset + |mu|) = 0 mod r."""
    for mu in enumerate_Wk(r, k):
        if (congruence_offset + sum(mu)) % r == 0:
            yield mu


def congruence_offset(omega: ParabolicData, side_labels) -> int:
    """Sum of jump_sum over the named points, reduced mod the rank."""
    side = set(side_labels)
    total = sum(jump_sum(p) for p in omega.points if p.label in side)
    return total % omega.rank


# -- splitting a query in two ----------------------------------------------


class SplitContext(namedtuple("SplitContext", "g1 g2 I1 c1 c2 n1 n2 "
                                               "rank level degree")):
    """Everything a two-factor recurrence needs to know about how the query
    was cut: genus split, the points of side 1, twisting split, and the
    derived rational prefactors n1/n2 of the induced degrees."""

    __slots__ = ()


def n_split(omega: ParabolicData, ell_value, c1: int, c2: int, I1_labels):
    """The pair (n1, n2) determined by the twisting split and point split."""
    r, k = omega.rank, omega.level
    l1 = Fraction(c1 * ell_value, c1 + c2)
    l2 = Fraction(c2 * ell_value, c1 + c2)
    side1 = set(I1_labels)
    off1 = sum(jump_sum(p) for p in omega.points if p.label in side1)
    off2 = sum(jump_sum(p) for p in omega.points if p.label not in side1)
    return Fraction(r * l1 + off1, k), Fraction(r * l2 + off2, k)


def split_context(omega: ParabolicData, g: int, d: int, I1_labels, g1: int,
                  c1: int, c2: int) -> SplitContext:
    if not 0 <= g1 <= g:
        raise ValueError("g1 must lie in [0, g]")
    if c1 < 1 or c2 < 1:
        raise ValueError("c1, c2 must be positive")
    I1 = tuple(I1_labels)
    known = set(omega.labels())
    if len(set(I1)) != len(I1) or any(x not in known for x in I1):
        raise ValueError("I1 must name distinct existing points")
    l = ell(omega, g, d)
    if l.denominator != 1:
        raise ValueError(f"twisting number {l} is not an integer")
    for c in (c1, c2):
        if (Fraction(c * l, c1 + c2)).denominator != 1:
            raise ValueError("twisting split is not integral")
    n1, n2 = n_split(omega, int(l), c1, c2, I1)
    return SplitContext(g1, g - g1, I1, c1, c2, n1, n2, omega.rank,
                        omega.level, d)


def split_degrees(mu: Weight, ctx: SplitContext) -> tuple[Fraction, Fraction]:
    """Induced degrees (d1, d2) for a weight mu; rational in general, the
    recurrence keeps only the integral ones."""
    r, k = ctx.rank, ctx.level
    size = Fraction(sum(mu), k)
    d1 = ctx.n1 + size + r * (ctx.g1 - 1)
    d2 = ctx.n2 + r - size + r * (ctx.g2 - 1)
    if d1 + d2 != ctx.degree:
        raise ArithmeticError("split degrees do not add up to the total degree")
    return d1, d2


def enumerate_Qk(r: int, k: int, n1: Fraction):
    """The Pk stream filtered by integrality of the first induced degree
    d1 = n1 + |mu|/k + r(g1 - 1), which depends on n1 alone."""
    for mu in enumerate_Pk(r, k):
        if (n1 + Fraction(sum(mu), k)).denominator == 1:
            yield mu


# -- attaching new points from a weight ------------------------------------


def _fresh_label(base: str, taken) -> str:
    label = base
    while label in taken:
        label += "'"
    return label


def _point_from_entries(label: str, entries: Weight) -> MarkedPoint:
    # weights: the sorted distinct entries; flag: how often each occurs
    weights = sorted(set(entries))
    return MarkedPoint(label, tuple(entries.count(a) for a in weights),
                       tuple(weights))


def build_omega_mu(omega: ParabolicData, mu: Weight) -> ParabolicData:
    """Attach two fresh points encoding mu and its dual.

    The first new point carries the flip mu_1 + mu_r - mu; the second
    carries exactly the dual weight mu_star as its padded partition.
    """
    r, k = omega.rank, omega.level
    if len(mu) != r:
        raise ValueError("weight length must equal the rank")
    if any(mu[i] < mu[i + 1] for i in range(r - 1)) or mu[-1] < 0 or mu[0] > k:
        raise ValueError("weight must be nonincreasing with entries in [0, level]")
    taken = set(omega.labels())
    lab1 = _fresh_label("x1", taken)
    lab2 = _fresh_label("x2", taken | {lab1})
    p1 = _point_from_entries(lab1, tuple(mu[0] + mu[-1] - m for m in mu))
    p2 = _point_from_entries(lab2, mu)
    out = ParabolicData(r, k, omega.points + (p1, p2))
    assert lambda_of_point(p2, k) == mu_star(mu, k)
    return out


def build_split_omegas(omega: ParabolicData, mu: Weight,
                       ctx: SplitContext) -> tuple[ParabolicData, ParabolicData]:
    """Cut the two-point extension along the context's point split.

    Each side keeps its own points in their original order and gets one of
    the fresh points appended last.
    """
    full = build_omega_mu(omega, mu)
    p1, p2 = full.points[-2], full.points[-1]
    side1 = set(ctx.I1)
    pts1 = tuple(p for p in omega.points if p.label in side1) + (p1,)
    pts2 = tuple(p for p in omega.points if p.label not in side1) + (p2,)
    r, k = omega.rank, omega.level
    return ParabolicData(r, k, pts1), ParabolicData(r, k, pts2)


# -- Hecke moves -----------------------------------------------------------


def normalize_point(omega: ParabolicData, label: str) -> ParabolicData:
    """Shift the weights at one point so the bottom weight is zero."""
    p = omega.point(label)
    a0 = p.weights[0]
    if a0 == 0:
        return omega
    new = MarkedPoint(p.label, p.flag, tuple(a - a0 for a in p.weights))
    return omega.replace_point(label, new)


def hecke_shift(omega: ParabolicData, label: str, s: int) -> ParabolicData:
    """Apply s single-entry Hecke moves at a point (degree shift -s).

    A point move is the weight rotation h_step on the point's entries (each
    weight repeated by its block size): one move wraps a bottom entry to the
    top, n_1 moves wrap the whole bottom block, and r moves change nothing
    but the normalization.
    """
    if s < 0:
        raise ValueError("shift must be nonnegative")
    data = normalize_point(omega, label)
    p, k = data.point(label), omega.level
    if s and p.weights[-1] >= k:
        raise ValueError(f"point {label}: top weight already at the level")
    mu = h_iter(mu_star(lambda_of_point(p, k), k), k, s % omega.rank)
    return data.replace_point(label, _point_from_entries(label, mu))


# -- the weight-level Hecke maps -------------------------------------------


def h_step(mu: Weight, k: int) -> Weight:
    """One step of the weight rotation: the bottom entry wraps to the top,
    raised by k, and every entry is shifted so the new bottom one is 0."""
    r = len(mu)
    if any(mu[i] < mu[i + 1] for i in range(r - 1)):
        raise ValueError("weight must be nonincreasing")
    if mu[0] > k or mu[-1] < 0:
        raise ValueError("weight entries must lie in [0, level]")
    rot = (mu[-1] + k,) + mu[:-1]
    return tuple(x - rot[-1] for x in rot)


def h_iter(mu: Weight, k: int, m: int) -> Weight:
    """m-fold h_step, 0 <= m <= rank."""
    if not 0 <= m <= len(mu):
        raise ValueError("iteration count must lie in [0, rank]")
    out = mu
    for _ in range(m):
        out = h_step(out, k)
    return out


def h_closed(mu: Weight, k: int, m: int) -> Weight:
    """Closed form of h_iter, used as an independent cross-check."""
    r = len(mu)
    if m == 0:
        return mu
    if m == r:
        return tuple(x - mu[-1] for x in mu)
    pivot = mu[r - m - 1]
    head = tuple(k - pivot + mu[r - m + j] for j in range(m))
    tail = tuple(mu[j] - pivot for j in range(r - m))
    return head + tail


def phi(mu: Weight, ctx: SplitContext) -> Weight:
    """Rotate a Qk weight into the congruence-filtered Wk set."""
    d1, _ = split_degrees(mu, ctx)
    if d1.denominator != 1:
        raise ValueError("first induced degree is not integral")
    i = int(d1) % ctx.rank
    return h_iter(mu, ctx.level, ctx.rank - i)


def phi_inverse(lam: Weight, ctx: SplitContext) -> Weight:
    """Inverse rotation: recover the Qk weight from a congruence-filtered one."""
    r, k = ctx.rank, ctx.level
    if len(lam) != r or lam[-1] != 0 or lam[0] > k:
        raise ValueError("weight must be in the bounded set with bottom entry 0")
    if any(lam[i] < lam[i + 1] for i in range(r - 1)):
        raise ValueError("weight must be nonincreasing")
    kn1 = ctx.n1 * k
    if kn1.denominator != 1:
        raise ArithmeticError("context carries a non-integral k*n1")
    total = int(kn1) + sum(lam)
    if total % r:
        raise ValueError("weight fails the congruence filter")
    M = total // r
    res = (-M) % k
    if lam[0] + res < k:
        mu = tuple(x + res for x in lam)
    else:
        i0 = max(i for i in range(1, r) if lam[i - 1] + res >= k)
        mu = tuple(lam[i] + res for i in range(i0, r)) \
            + tuple(lam[i] + res - k for i in range(i0))
    assert phi(mu, ctx) == lam
    return mu

"""Seeded inputs of the three benchmark workloads, as plain data.

Nothing here imports thetadim: the harness and the worker build the same
operation list from the same seed, and the harness checks the answers
against it without trusting the program.

A query document has the CLI's shape: genus, rank, degree, level, points
and, for the split recurrences, a "split" block.  An operation is a dict
with a "doc" and, for the recurrence grid, the verify "mode" with its
"point" and "multiplicity".
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("cold_queries", "recurrence_grid", "cached_cli")

# cold_queries: one slot per (rank, level), so no two operations in one
# interpreter share (rank, level) and none can reuse the other's Schur
# values, sine products or Weyl inverses.  Genus and point count are fixed
# per slot, and the seed draws the points and the degree: the cost of a
# round then hardly depends on the seed, which keeps seeds comparable.
COLD_LEVELS = {2: range(1, 14), 3: range(1, 13), 4: range(1, 9), 5: range(1, 6)}
SMOKE_COLD_LEVELS = {2: range(1, 4), 3: range(1, 3)}

# cached_cli: a pool of small documents, one per (rank, level, genus), and
# a stream in which the first request of each document writes a record and
# every later one reads it.
CACHE_STREAM = 1200
SMOKE_CACHE_STREAM = 60
CACHE_SHAPES = list(itertools.product((1, 2, 3), (1, 2, 3, 4), (0, 1, 2, 3)))
SMOKE_CACHE_SHAPES = CACHE_SHAPES[::6]

# The document whose cache record the benchmark edits.  It is the same for
# every seed, and its level lies outside the pool's, so no pool document
# shares its record.
TAMPER_DOC = {"genus": 1, "rank": 2, "degree": 0, "level": 5, "points": []}
TAMPER_VALUE = 999


def jump_sum(point) -> int:
    """Sum over weight steps of the jump height times the subflag rank."""
    total, acc = 0, 0
    flag, weights = point["flag"], point["weights"]
    for i in range(len(flag) - 1):
        acc += flag[i]
        total += (weights[i + 1] - weights[i]) * acc
    return total


def twist(doc):
    """The twisting number (level * chi - jumps) / rank, and whether it is
    an integer; the dimension vanishes when it is not."""
    g, r, d, k = doc["genus"], doc["rank"], doc["degree"], doc["level"]
    num = k * (d + r * (1 - g)) - sum(jump_sum(p) for p in doc["points"])
    return num // r, num % r == 0


def random_point(rng: random.Random, r: int, k: int, label: str) -> dict:
    """A point with a random flag type and increasing weights below the level."""
    blocks = rng.randint(1, min(r, k))
    cuts = sorted(rng.sample(range(1, r), blocks - 1))
    bounds = [0] + cuts + [r]
    flag = [bounds[i + 1] - bounds[i] for i in range(blocks)]
    weights = sorted(rng.sample(range(k), blocks))
    return {"label": label, "flag": flag, "weights": weights}


def _integral_doc(rng, g, r, k, npts) -> dict:
    """Random points and a degree in [0, r) with an integral twisting number,
    redrawing the points a few times if no degree has one."""
    for _ in range(8):
        pts = [random_point(rng, r, k, f"p{i}") for i in range(npts)]
        doc = {"genus": g, "rank": r, "degree": 0, "level": k, "points": pts}
        good = [d for d in range(r) if twist({**doc, "degree": d})[1]]
        if good:
            doc["degree"] = rng.choice(good)
            return doc
    doc["degree"] = rng.randrange(r)
    return doc


def cold_queries(seed: int, smoke: bool = False) -> list[dict]:
    rng = random.Random(f"cold_queries:{seed}")
    levels = SMOKE_COLD_LEVELS if smoke else COLD_LEVELS
    ops = []
    for r, ks in levels.items():
        for k in ks:
            g = (r + k) % 6
            npts = k % 3
            ops.append({"doc": _integral_doc(rng, g, r, k, npts)})
    rng.shuffle(ops)
    return ops


def grid_point(rng: random.Random, r: int, k: int, n1: int, label: str) -> dict:
    """A point whose bottom block has n1 entries (n1 = r at level 1); the
    other blocks and every weight are random."""
    if k == 1:
        n1 = r
    rest = r - n1
    extra = rng.randint(1, min(rest, k - 1)) if rest else 0
    cuts = sorted(rng.sample(range(1, rest), extra - 1)) if rest else []
    bounds = [0] + cuts + [rest]
    flag = [n1] + [bounds[i + 1] - bounds[i] for i in range(extra)]
    weights = sorted(rng.sample(range(k), 1 + extra))
    return {"label": label, "flag": flag, "weights": weights}


def _split_docs(rng, level_max: int) -> list[dict]:
    # the rank-2 separating cases of `thetadim verify split`; the points' top
    # weights are drawn among those that make the case valid, so the number
    # of cases does not depend on the seed
    docs = []
    for k in range(1, level_max + 1):
        for d in (0, 1):
            for g1, g2 in ((1, 1), (1, 2)):
                for c1, c2 in ((1, 1), (1, 2)):
                    split = {"g1": g1, "g2": g2, "I1": [], "c1": c1, "c2": c2}
                    base = {"genus": g1 + g2, "rank": 2, "degree": d,
                            "level": k, "points": [], "split": split}
                    if _valid_split(base):
                        docs.append(base)
                    pointed = [
                        {**base, "split": {**split, "I1": ["p"]}, "points": [
                            {"label": "p", "flag": [1, 1], "weights": [0, a]},
                            {"label": "q", "flag": [1, 1], "weights": [0, b]}]}
                        for a, b in itertools.product(range(1, k), repeat=2)]
                    pointed = [doc for doc in pointed if _valid_split(doc)]
                    if pointed:
                        docs.append(rng.choice(pointed))
    return docs


def _valid_split(doc) -> bool:
    """Integral twisting number, split integrally in the ratio c1 : c2."""
    ell, integral = twist(doc)
    c1, c2 = doc["split"]["c1"], doc["split"]["c2"]
    return integral and (c1 * ell) % (c1 + c2) == 0


def recurrence_grid(seed: int, smoke: bool = False) -> list[dict]:
    rng = random.Random(f"recurrence_grid:{seed}")
    rank_max, level_max = (2, 2) if smoke else (4, 3)
    genus_ops, hecke_ops = [], []
    for r in range(1, rank_max + 1):
        for k in range(1, level_max + 1):
            for g in (1, 2):
                for d in range(r):
                    base = {"genus": g, "rank": r, "degree": d, "level": k,
                            "points": []}
                    # the bottom block size, and with it the number of
                    # Hecke checks, is fixed per cell so that the mix of
                    # operations does not depend on the seed
                    n1 = 1 + (k + g + d) % r
                    pointed = {**base, "points": [grid_point(rng, r, k, n1, "p0")]}
                    genus_ops.append({"doc": base, "mode": "genus"})
                    genus_ops.append({"doc": pointed, "mode": "genus"})
                    # weights stay below the level, so after normalising
                    # the point every multiplicity 1..n_1 is legal
                    for m in range(1, pointed["points"][0]["flag"][0] + 1):
                        hecke_ops.append({"doc": pointed, "mode": "hecke",
                                          "point": "p0", "multiplicity": m})
    split_docs = _split_docs(rng, level_max)
    ops = (genus_ops + hecke_ops
           + [{"doc": doc, "mode": "split"} for doc in split_docs]
           + [{"doc": doc, "mode": "wprime"} for doc in split_docs])
    # cheap checks (mostly memo hits) and expensive ones are spread over the
    # whole round, so the median latency samples the machine over the round
    # rather than over the short stretch a block of cheap checks would take
    rng.shuffle(ops)
    return ops


def cache_pool(seed: int, smoke: bool = False) -> list[dict]:
    rng = random.Random(f"cached_cli:{seed}")
    shapes = SMOKE_CACHE_SHAPES if smoke else CACHE_SHAPES
    return [_integral_doc(rng, g, r, k, (r + k + g) % 3) for r, k, g in shapes]


def cached_cli(seed: int, smoke: bool = False) -> list[dict]:
    """The request stream: every pool document once plus Zipf-weighted
    repeats, with the tamper document requested at one third (a write) and
    at two thirds (a read of the edited record).  The stream length and
    the number of writes do not depend on the seed."""
    rng = random.Random(f"cached_cli-stream:{seed}")
    pool = cache_pool(seed, smoke)
    length = SMOKE_CACHE_STREAM if smoke else CACHE_STREAM
    order = list(range(len(pool)))
    rng.shuffle(order)
    weights = [1.0 / (1 + rank) for rank in range(len(pool))]
    picks = order + rng.choices(order, weights, k=length - len(pool) - 2)
    rng.shuffle(picks)
    ops = [{"doc": pool[i]} for i in picks]
    ops.insert(length // 3, {"doc": TAMPER_DOC, "tamper": "write"})
    ops.insert(2 * length // 3, {"doc": TAMPER_DOC, "tamper": "read"})
    return ops


def build(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    if workload == "cold_queries":
        return cold_queries(seed, smoke)
    if workload == "recurrence_grid":
        return recurrence_grid(seed, smoke)
    if workload == "cached_cli":
        return cached_cli(seed, smoke)
    raise ValueError(f"unknown workload {workload!r}")

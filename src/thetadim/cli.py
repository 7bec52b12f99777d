"""Command line front end.

One query lives in one JSON document with explicit field names:

    {"genus": 1, "rank": 2, "degree": 0, "level": 2,
     "points": [{"label": "p", "flag": [1, 1], "weights": [0, 1]}],
     "split": {"g1": 1, "g2": 1, "I1": ["p"], "c1": 1, "c2": 1}}

"points" and "split" are optional.  Exit codes: 0 success, 1 a verification
found a nonzero residual, 2 invalid input, 3 internal arithmetic failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from time import perf_counter

from . import __version__
from .cyclotomic import NotRationalError
from .modular import OversizedQuery
from .schur import identity_52_check, identity_53_check, identity_54_check
from .verlinde import (EvaluationError, VerlindeQuery, dimension, hecke_image,
                       legal_hecke_multiplicities, memo_info, v_vectors,
                       verify)
from .weights import (MarkedPoint, ParabolicData, SplitContext,
                      enumerate_Pk, enumerate_Qk, enumerate_Wk,
                      enumerate_Wk_prime, split_context)

EXIT_OK = 0
EXIT_RESIDUAL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

ENV_CACHE = "THETADIM_CACHE"


class DocumentError(ValueError):
    """Input document failed validation; one message per offending field."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


# -- document format -------------------------------------------------------


# A table per kind of JSON object: field -> kind, which is int, str, or
# [item] for a list whose items are ints, strings or objects of a table; a
# field of kind None is checked by the caller.
_POINT = {"label": str, "flag": [int], "weights": [int]}
_QUERY = {"genus": int, "rank": int, "degree": int, "level": int,
          "points": [_POINT], "split": None}
_SPLIT = {"g1": int, "g2": int, "I1": [str], "c1": int, "c2": int}
_OPTIONAL = {"points", "split", "I1"}
_MUST = {int: "an integer", str: "a string", list: "a list"}
_ITEMS = {int: "integers", str: "point labels"}


def _is(val, kind) -> bool:
    return isinstance(val, kind) and not isinstance(val, bool)


def _check_fields(obj, prefix: str, spec: dict, errors: list) -> None:
    """Check the JSON object obj, whose fields are named prefix + field, by
    its table spec; one message per offending field goes to errors."""
    if not isinstance(obj, dict):
        errors.append(f"{prefix[:-1]}: must be an object")
        return
    errors += [f"{prefix}{k}: unknown field" for k in obj if k not in spec]
    for key, kind in spec.items():
        name, shape = prefix + key, list if isinstance(kind, list) else kind
        if key not in obj or kind is None:
            if key not in _OPTIONAL:
                errors.append(f"{name}: missing")
        elif not _is(obj[key], shape):
            errors.append(f"{name}: must be {_MUST[shape]}")
        elif shape is list and isinstance(kind[0], dict):
            for i, item in enumerate(obj[key]):
                _check_fields(item, f"{name}[{i}].", kind[0], errors)
        elif shape is list and not all(_is(v, kind[0]) for v in obj[key]):
            errors.append(f"{name}: must be a list of {_ITEMS[kind[0]]}")


def document_to_query(doc) -> tuple[VerlindeQuery, SplitContext | None]:
    """Validate a parsed document and build the query (and split context)."""
    if not isinstance(doc, dict):
        raise DocumentError(["document: must be a JSON object"])
    errors: list[str] = []
    _check_fields(doc, "", _QUERY, errors)
    if errors:
        raise DocumentError(errors)
    try:
        omega = ParabolicData(doc["rank"], doc["level"], tuple(
            MarkedPoint(p["label"], tuple(p["flag"]), tuple(p["weights"]))
            for p in doc.get("points", [])))
        q = VerlindeQuery(doc["genus"], doc["degree"], omega)
    except ValueError as exc:
        raise DocumentError([str(exc)]) from exc
    if "split" not in doc:
        return q, None
    s = doc["split"]
    _check_fields(s, "split.", _SPLIT, errors)
    if errors:
        raise DocumentError(errors)
    if s["g1"] + s["g2"] != doc["genus"]:
        raise DocumentError(["split.g1 + split.g2 must equal the genus"])
    try:
        return q, split_context(omega, doc["genus"], doc["degree"],
                                tuple(s.get("I1", [])), s["g1"], s["c1"],
                                s["c2"])
    except ValueError as exc:
        raise DocumentError([f"split: {exc}"]) from exc


def query_to_document(q: VerlindeQuery, ctx: SplitContext | None = None) -> dict:
    doc = {"genus": q.genus, "rank": q.rank, "degree": q.degree,
           "level": q.level,
           "points": [{"label": p.label, "flag": list(p.flag),
                       "weights": list(p.weights)} for p in q.omega.points]}
    if ctx is not None:
        doc["split"] = {"g1": ctx.g1, "g2": ctx.g2, "I1": list(ctx.I1),
                        "c1": ctx.c1, "c2": ctx.c2}
    return doc


def _unique_keys(pairs: list) -> dict:
    """A JSON object, refused when a key repeats: json would keep the last."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        raise DocumentError([f"document: duplicate key {key!r}"
                             for key in doc if counts[key] > 1])
    return doc


def _read_json(path: str):
    """The JSON value in the file at path, read as UTF-8 with no repeated
    key; a file that cannot be read or decoded is a DocumentError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except DocumentError:
        raise
    except OSError as exc:
        raise DocumentError([f"cannot read {path}: {exc}"]) from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, JSON or int
        raise DocumentError([f"{path}: invalid JSON ({exc})"]) from exc


def load_document(path: str) -> tuple[VerlindeQuery, SplitContext | None]:
    return document_to_query(_read_json(path))


# -- result cache ----------------------------------------------------------


def query_key(q: VerlindeQuery) -> str:
    """`canonical_key` as JSON: what a record is filed under and stores."""
    return json.dumps(q.canonical_key(), separators=(",", ":"))


def _cache_path(cache_dir: str, key: str) -> str:
    import hashlib  # here and below: only the cache needs hashlib and tempfile
    digest = hashlib.sha256(key.encode()).hexdigest()
    return os.path.join(cache_dir, digest[:2], digest + ".json")


def _record_digest(record: dict) -> str:
    import hashlib
    return hashlib.sha256(
        json.dumps(record, sort_keys=True).encode()).hexdigest()


def cache_get(cache_dir: str, key: str) -> int | None:
    """The value cached under the `query_key` string, or None when there is
    no record or it is stale, incomplete, malformed or does not match its
    digest.  Fields beyond the four written by `cache_put` are covered by
    the digest and otherwise ignored."""
    try:
        data = _read_json(_cache_path(cache_dir, key))
    except DocumentError:
        return None
    if not isinstance(data, dict):
        return None
    digest = data.pop("digest", None)
    if digest != _record_digest(data):
        return None
    if data.get("version") != __version__:
        return None
    if data.get("query_key") != key:
        return None
    value = data.get("value")
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        return None
    return value


def cache_put(cache_dir: str, key: str, value: int):
    path = _cache_path(cache_dir, key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    record = {"value": value, "version": __version__, "query_key": key}
    record["digest"] = _record_digest(record)
    import tempfile
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(record, fh, sort_keys=True)
        os.replace(tmp, path)  # atomic publish
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# -- shared helpers --------------------------------------------------------


def _at_least(name: str, value: int, low: int) -> None:
    if value < low:
        raise DocumentError([f"{name}: must be at least {low}, got {value}"])


def _parse_range(text: str, name: str) -> range:
    parts = text.split(":")
    try:
        if len(parts) > 2:
            raise ValueError
        a, b = int(parts[0]), int(parts[-1])
    except ValueError:
        raise DocumentError([f"{name}: expected N or A:B, got {text!r}"])
    if b < a:
        raise DocumentError([f"{name}: empty range {text!r}"])
    return range(a, b + 1)


def _random_point(rng, r: int, k: int, label: str) -> MarkedPoint:
    blocks = rng.randint(1, min(r, k))
    cuts = sorted(rng.sample(range(1, r), blocks - 1)) if blocks > 1 else []
    flag, prev = [], 0
    for c in cuts + [r]:
        flag.append(c - prev)
        prev = c
    ws = sorted(rng.sample(range(k), blocks))
    return MarkedPoint(label, tuple(flag), tuple(ws))


# -- subcommands -----------------------------------------------------------


def cmd_dim(args) -> int:
    q, _ = load_document(args.document)
    cache_dir = args.cache_dir or os.environ.get(ENV_CACHE)
    use_cache = bool(cache_dir) and not args.no_cache
    key = query_key(q) if use_cache else None
    value = cache_get(cache_dir, key) if use_cache else None
    if value is not None:
        cache = "hit"
    else:
        cache = "miss" if use_cache else "computed"
        try:
            if use_cache:  # refuse a directory that cannot be made before the work
                os.makedirs(os.path.dirname(_cache_path(cache_dir, key)),
                            exist_ok=True)
            value = dimension(q)
            if use_cache:
                cache_put(cache_dir, key, value)
        except OSError as exc:
            source = "--cache-dir" if args.cache_dir else ENV_CACHE
            raise DocumentError([f"{source}: {exc}"]) from exc
    if args.json:
        print(json.dumps({"value": value, "ell_integral": q.ell_integral,
                          "exceptional_case": q.exceptional_case,
                          "cache": cache}, sort_keys=True))
        return EXIT_OK
    print(f"value: {value}")
    print(f"ell integral: {'yes' if q.ell_integral else 'no'}")
    print(f"exceptional case: {'yes' if q.exceptional_case else 'no'}")
    if cache != "computed":
        print(f"cache: {cache}")
    return EXIT_OK


def _identity(name, check, *case):
    """The identity check on the case, unevaluated; its record names it."""
    return lambda: None if check(*case).is_zero() else {
        "check": name, "mode": "identity", "document": None}


def _identity_checks(args):
    """One check per orthogonality identity of the grid."""
    for r in range(1, args.rank_max + 1):
        for k in range(1, args.level_max + 1):
            vs = list(v_vectors(r, k))
            for v in vs:
                yield _identity(f"pairing-open r={r} k={k} v={v}",
                                identity_52_check, v, r, k)
                yield _identity(f"pairing-closed r={r} k={k} v={v}",
                                identity_53_check, v, r, k)
            if k <= args.pair_level_max and r >= 2:
                for v, vp in combinations(vs, 2):
                    yield _identity(f"cross-pairing r={r} k={k} v={v} v'={vp}",
                                    identity_54_check, v, vp, r, k)


def _grid_queries(args, need_points=False):
    import random  # only verify's sampled points need it
    rng = random.Random(args.seed)
    for r in range(1, args.rank_max + 1):
        for k in range(1, args.level_max + 1):
            for g in range(args.genus_min, args.genus_max + 1):
                for d in range(0, r):
                    sampled = [(_random_point(rng, r, k, "p0"),)
                               for _ in range(args.samples)]
                    for pts in ([] if need_points else [()]) + sampled:
                        yield VerlindeQuery(g, d, ParabolicData(r, k, pts))


def _verify_failure(suite, report, ctx=None):
    """The failure record of a `verify` report, or None when it passed."""
    return None if report.ok else {
        "check": suite, "mode": report.mode, "lhs": report.lhs,
        "rhs": report.rhs, "residual": report.residual,
        "document": query_to_document(report.query, ctx), **report.detail}


def _verified(suite, q, ctx=None, **kw):
    """The check of q in the suite's mode of `verify`, unevaluated."""
    return lambda: _verify_failure(suite, verify(q, suite, ctx=ctx, **kw), ctx)


# suite -> the checks of its grid, one per case, in the order `all` runs them
SUITES = {
    "identities": _identity_checks,
    "genus": lambda args: [_verified("genus", q) for q in _grid_queries(args)
                           if q.genus >= 1],
    "split": lambda args: [_verified("split", q, ctx)
                           for q, ctx in _split_cases(args)],
    "wprime": lambda args: [_verified("wprime", q, ctx)
                            for q, ctx in _split_cases(args)],
    "hecke": lambda args: [
        _verified("hecke", q, point=p.label, multiplicity=m)
        for q in _grid_queries(args, need_points=True) for p in q.omega.points
        for m in legal_hecke_multiplicities(q, p.label)],
    "backend": lambda args: [_verified("backend", q)
                             for q in _grid_queries(args)],
}


def cmd_verify(args) -> int:
    _at_least("--rank-max", args.rank_max, 1)
    _at_least("--level-max", args.level_max, 1)
    _at_least("--genus-min", args.genus_min, 0)
    _at_least("--genus-max", args.genus_max, 0)
    _at_least("--pair-level-max", args.pair_level_max, 0)
    _at_least("--samples", args.samples, 0)
    suites = {name: list(SUITES[name](args))
              for name in (SUITES if args.suite == "all" else [args.suite])}
    for name, checks in suites.items():  # every grid is built before any check
        if not checks:
            raise DocumentError([f"suite {name} ran no checks"])
    by_suite, seconds, memo = {}, {}, {}
    for name, checks in suites.items():
        before, start = memo_info(), perf_counter()
        by_suite[name] = [f for f in (check() for check in checks) if f]
        seconds[name] = perf_counter() - start
        after = memo_info()
        memo[name] = {"hits": after.hits - before.hits,
                      "misses": after.misses - before.misses}
    failures = [f for fails in by_suite.values() for f in fails]
    if args.json:
        print(json.dumps({"suites": {n: len(c) for n, c in suites.items()},
                          "failures": failures, "ok": not failures,
                          "seconds": seconds, "memo": memo}, sort_keys=True))
    else:
        for name, checks in suites.items():
            status = "ok" if not by_suite[name] else "FAILED"
            print(f"suite {name}: {len(checks)} checks {status}")
        for f in failures:
            print(f"FAIL {f['check']}: lhs={f.get('lhs')} rhs={f.get('rhs')}")
            if f.get("document") is not None:
                print("counterexample document: "
                      + json.dumps(f["document"], sort_keys=True))
    return EXIT_OK if not failures else EXIT_RESIDUAL


def _split_cases(args):
    cases = []
    for r, k, d, (g1, g2), (c1, c2), two in product(
            range(1, args.rank_max + 1), range(1, args.level_max + 1), (0, 1),
            ((1, 1), (1, 2)), ((1, 1), (1, 2)), (False, True)):
        if g1 + g2 > args.genus_max or two and (r < 2 or k < 2):
            continue
        pts = (MarkedPoint("p", (1, r - 1), (0, 1)),
               MarkedPoint("q", (r - 1, 1), (0, 1))) if two else ()
        omega = ParabolicData(r, k, pts)
        try:
            ctx = split_context(omega, g1 + g2, d, ("p",) if two else (),
                                g1, c1, c2)
        except ValueError:
            continue
        cases.append((VerlindeQuery(g1 + g2, d, omega), ctx))
    return cases


def _n1(args) -> Fraction:
    try:
        return Fraction(args.n1)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(
            [f"--n1: expected a fraction, got {args.n1!r}"]) from exc


# set -> its elements at the parsed rank and level
SETS = {
    "pk": lambda args: enumerate_Pk(args.rank, args.level),
    "wk": lambda args: enumerate_Wk(args.rank, args.level),
    "wkprime": lambda args: enumerate_Wk_prime(args.rank, args.level,
                                               args.offset),
    "qk": lambda args: enumerate_Qk(args.rank, args.level, _n1(args)),
    "vvec": lambda args: v_vectors(args.rank, args.level),
}


# the most elements `enumerate` lists: the 92,378 v-vectors at r = k = 10
# already take about 0.27 s and 50 MB
MAX_ELEMENTS = 100_000


def cmd_enumerate(args) -> int:
    _at_least("--rank", args.rank, 1)
    _at_least("--level", args.level, 1)
    # C(r + k - 1, r) weights in P_k, C(r + k - 1, r - 1) in W_k and
    # v-vectors; wkprime and qk are filtered from W_k and P_k
    j = args.rank if args.set in ("pk", "qk") else args.rank - 1
    if _comb_past(args.rank + args.level - 1, j, MAX_ELEMENTS) > MAX_ELEMENTS:
        raise DocumentError([f"{args.set}: more than {MAX_ELEMENTS} elements "
                             f"at rank {args.rank} and level {args.level}"])
    elems = list(SETS[args.set](args))
    if args.json:
        print(json.dumps({"elements": [list(e) for e in elems],
                          "count": len(elems)}))
    else:
        for e in elems:
            print(" ".join(str(x) for x in e))
        print(f"count: {len(elems)}")
    return EXIT_OK


def _comb_past(n: int, j: int, cap: int) -> int:
    """C(n, j), or a partial product above cap as soon as one passes it, so
    a huge n costs no more than the few steps that pass cap."""
    j, term = min(j, n - j), 1
    for i in range(1, j + 1):           # term = C(n - j + i, i), increasing
        term = term * (n - j + i) // i
        if term > cap:
            break
    return term


def _estimate(ranks, levels, cells_per_pair: int, cap) -> int:
    """cells_per_pair times the sum of C(r + k - 1, r - 1) over the ranks
    and levels, stopped as soon as it passes cap."""
    est = 0
    for r in ranks:                     # lazy loops: product() would
        for k in levels:                # materialise both ranges
            est += cells_per_pair * _comb_past(
                r + k - 1, r - 1, (cap - est) // cells_per_pair)
            if est > cap:
                return est
    return est


def cmd_table(args) -> int:
    genera = _parse_range(args.genus, "--genus")
    ranks = _parse_range(args.rank, "--rank")
    levels = _parse_range(args.level, "--level")
    degrees = _parse_range(args.degree, "--degree")
    _at_least("--genus", genera.start, 0)
    _at_least("--rank", ranks.start, 1)
    _at_least("--level", levels.start, 1)
    _at_least("--limit", args.limit, 0)
    est = _estimate(ranks, levels, len(genera) * len(degrees), args.limit)
    if est > args.limit:
        print(f"error: estimated term count {est} exceeds the limit "
              f"{args.limit}; raise --limit to run anyway", file=sys.stderr)
        return EXIT_INPUT
    if est > 1000:
        print(f"estimated term count: {est}", file=sys.stderr)
    rows = []
    for g, r, k, d in product(genera, ranks, levels, degrees):
        q = VerlindeQuery(g, d, ParabolicData(r, k))
        rows.append([g, r, k, d, 0, dimension(q),
                     "yes" if q.ell_integral else "no"])
    import csv  # only table writes CSV
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["g", "r", "k", "d", "points", "value", "ell_integral"])
    writer.writerows(rows)
    return EXIT_OK


def cmd_hecke(args) -> int:
    q, ctx = load_document(args.document)
    try:
        p = q.omega.point(args.point)
    except KeyError as exc:       # str() of a KeyError quotes its message
        raise DocumentError([exc.args[0]]) from exc
    m = args.multiplicity if args.multiplicity is not None else p.flag[0]
    try:
        q2 = hecke_image(q, args.point, m)
    except ValueError as exc:
        raise DocumentError([f"hecke: {exc}"]) from exc
    doc = query_to_document(q2)
    if args.json:
        print(json.dumps({"document": doc, "degree_shift": -m}, sort_keys=True))
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))
        print(f"degree shift: {-m}", file=sys.stderr)
    return EXIT_OK


# -- argument parsing ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetadim",
        description="Exact dimensions of spaces of generalized theta functions")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", help="evaluate one query document")
    p.add_argument("document")
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_dim)

    p = sub.add_parser("verify", help="run a verification suite over a grid")
    p.add_argument("suite", choices=(*SUITES, "all"))
    p.add_argument("--rank-max", type=int, default=3)
    p.add_argument("--level-max", type=int, default=3)
    p.add_argument("--pair-level-max", type=int, default=3)
    p.add_argument("--genus-min", type=int, default=1)
    p.add_argument("--genus-max", type=int, default=2)
    p.add_argument("--samples", type=int, default=2)
    p.add_argument("--seed", type=int, default=20260822)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("enumerate", help="list a weight or vector set")
    p.add_argument("set", choices=SETS)
    p.add_argument("--rank", "-r", type=int, required=True)
    p.add_argument("--level", "-k", type=int, required=True)
    p.add_argument("--offset", type=int, default=0,
                   help="congruence offset for wkprime")
    p.add_argument("--n1", default="0",
                   help="degree prefactor n1 for qk, as a fraction")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("table", help="tabulate dimensions over ranges, CSV")
    p.add_argument("--genus", required=True, help="range A:B or single value")
    p.add_argument("--rank", required=True)
    p.add_argument("--level", required=True)
    p.add_argument("--degree", default="0")
    p.add_argument("--limit", type=int, default=20000,
                   help="refuse runs whose estimated term count exceeds this")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("hecke", help="transform a document by a Hecke move")
    p.add_argument("document")
    p.add_argument("--point", required=True)
    p.add_argument("--multiplicity", "-m", type=int, default=None,
                   help="entries to wrap; defaults to the whole bottom block")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_hecke)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DocumentError as exc:
        for msg in exc.messages:
            print(f"error: {msg}", file=sys.stderr)
        return EXIT_INPUT
    except OversizedQuery as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (EvaluationError, NotRationalError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # any other failure is internal, never a residual
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

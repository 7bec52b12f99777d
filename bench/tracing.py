"""Spans around the public functions of each thetadim layer, installed from
outside the package.

`install()` replaces every binding of a traced function, in every thetadim
module and class that holds it, by a wrapper that records one span: name,
start, end and the enclosing span.  Spans are kept in flat arrays in memory
and written out by `Tracer.write` when the round ends.  A span's self time
is its duration minus the durations of the traced spans directly inside it.

Generator functions (the weight enumerations) get one span per step, so
their self time is the time spent producing elements, not the time the
caller holds the generator open.
"""

from __future__ import annotations

import importlib
import json
import statistics
from array import array
from time import perf_counter

# (module, attribute or Class.attribute, span name); every rebinding of the
# same function object elsewhere in the package is found by identity
TARGETS = [
    ("cyclotomic", "CycNum.__mul__", "cyclotomic.mul"),
    ("cyclotomic", "CycNum.inverse", "cyclotomic.inverse"),
    ("cyclotomic", "CycNum.canonical", "cyclotomic.canonical"),
    ("schur", "schur_at", "schur.schur_at"),
    ("schur", "weyl_denominator", "schur.weyl_denominator"),
    ("weights", "enumerate_Pk", "weights.enumerate"),
    ("weights", "enumerate_Qk", "weights.enumerate"),
    ("weights", "enumerate_Wk_prime", "weights.enumerate"),
    ("weights", "build_omega_mu", "weights.rewrite"),
    ("weights", "build_split_omegas", "weights.rewrite"),
    ("weights", "hecke_shift", "weights.rewrite"),
    ("weights", "normalize_point", "weights.rewrite"),
    ("weights", "phi_inverse", "weights.rewrite"),
    ("verlinde", "closed_formula_exact", "verlinde.closed_sum"),
    ("verlinde", "closed_term", "verlinde.closed_term"),
    ("verlinde", "dimension", "verlinde.dimension"),
    ("verlinde", "VerlindeQuery.canonical_key", "verlinde.canonical_key"),
    ("cli", "main", "cli.main"),
    ("cli", "load_document", "cli.load_document"),
    ("cli", "cache_get", "cli.cache_get"),
    ("cli", "cache_put", "cli.cache_put"),
]

class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        # open spans, innermost last: [span index, time in traced children]
        self.stack: list[list] = []
        self.schur_args: set = set()
        self.dimension_hits = 0
        self.cache_hits = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def _enter(self, nid: int) -> list:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        frame = [idx, 0.0]
        self.stack.append(frame)
        self.start[idx] = perf_counter()
        return frame

    def _exit(self, nid: int, frame: list):
        t1 = perf_counter()
        idx, child = frame
        self.end[idx] = t1
        self.stack.pop()
        dur = t1 - self.start[idx]
        self.calls[nid] += 1
        self.self_s[nid] += dur - child
        if self.stack:
            self.stack[-1][1] += dur

    def wrap(self, name: str, fn):
        nid = self._id(name)
        enter, exit_ = self._enter, self._exit
        if name == "weights.enumerate":
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    frame = enter(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        exit_(nid, frame)
                    yield item
            return gen_wrapper

        hook = {"schur.schur_at": self._on_schur_at,
                "cli.cache_get": self._on_cache_get}.get(name)
        if name == "verlinde.dimension":
            sums = self._id("verlinde.closed_sum")

            def dimension_wrapper(*args, **kwargs):
                before = self.calls[sums]
                frame = enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(nid, frame)
                    if self.calls[sums] == before:
                        self.dimension_hits += 1
            return dimension_wrapper

        def wrapper(*args, **kwargs):
            frame = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(nid, frame)
            if hook is not None:
                hook(args, result)
            return result
        return wrapper

    def _on_schur_at(self, args, result):
        lam, v = args[0], args[1]
        self.schur_args.add((tuple(lam), tuple(v)) + tuple(args[2:]))

    def _on_cache_get(self, args, result):
        if result is not None:
            self.cache_hits += 1

    def summary(self) -> dict:
        """Per-layer counts and self times for this round."""
        def calls(name):
            return self.calls[self._ids[name]] if name in self._ids else 0

        def self_s(name):
            return self.self_s[self._ids[name]] if name in self._ids else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for prefix in ("cyclotomic.mul", "cyclotomic.inverse",
                       "schur.schur_at", "schur.weyl_denominator",
                       "weights.rewrite", "verlinde.closed_sum",
                       "verlinde.closed_term", "verlinde.canonical_key",
                       "cli.cache_get", "cli.cache_put"):
            out[prefix + "_calls"] = calls(prefix)
            out[prefix + "_self_s"] = self_s(prefix)
        for name in ("cyclotomic.canonical", "weights.enumerate", "cli.main",
                     "cli.load_document"):
            out[name + "_self_s"] = self_s(name)
        out["schur.schur_at_distinct"] = len(self.schur_args)
        out["verlinde.dimension_calls"] = calls("verlinde.dimension")
        out["verlinde.dimension_hit_ratio"] = ratio(
            self.dimension_hits, calls("verlinde.dimension"))
        out["cli.cache_hit_ratio"] = ratio(self.cache_hits, calls("cli.cache_get"))
        return out

    def write(self, path: str):
        """Spans as JSON: the name table and one [name, parent, start, end]
        row per span, times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"names": %s, "spans": [' % json.dumps(self.names))
            for i in range(len(self.start)):
                fh.write("%s[%d,%d,%.9f,%.9f]" % (
                    "," if i else "", self.name_id[i], self.parent[i],
                    self.start[i] - t0, self.end[i] - t0))
            fh.write("]}\n")


def install(package) -> Tracer:
    """Wrap every TARGETS function wherever the package binds it."""
    tracer = Tracer()
    modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                           for m in ("cyclotomic", "weights", "schur",
                                     "verlinde", "cli")]
    namespaces = [vars(m) for m in modules]
    for mod_name, attr, span in TARGETS:
        home = importlib.import_module(f"{package.__name__}.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            orig = cls.__dict__[meth]
            wrapped = tracer.wrap(span, orig)
            for key, val in list(cls.__dict__.items()):
                if val is orig:
                    setattr(cls, key, wrapped)
            continue
        orig = getattr(home, attr)
        wrapped = tracer.wrap(span, orig)
        for ns in namespaces:
            for key, val in list(ns.items()):
                if val is orig:
                    ns[key] = wrapped
    return tracer


def median_summary(summaries: list[dict]) -> dict:
    """The median of every time over the rounds; counts and ratios from the
    first round, since rounds repeat the same inputs and so agree on them."""
    out = {}
    for key in summaries[0]:
        if key.endswith("_s"):
            out[key] = statistics.median(s[key] for s in summaries)
        else:
            out[key] = summaries[0][key]
    return out

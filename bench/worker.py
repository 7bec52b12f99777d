"""One round of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --workdir DIR [--trace FILE] [--smoke]

Imports thetadim from the checkout's src/, builds the round's inputs from
the seed, runs every operation once as a closed loop of one caller, and
prints one JSON object: when the first operation started (time.monotonic,
so the parent can measure set-up), the timed wall time, each operation's
latency and raw outcome, and the peak resident set size.  Answers are only
recorded here; bench/run.py checks them after the timed phase.

With --trace, every layer is wrapped (bench/tracing.py) before the first
operation, the spans are written to FILE at the end, and the per-layer
summary is added to the output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402  (bench/ is sys.path[0] when run as a script)


def _import_thetadim():
    try:
        import thetadim
    except ImportError as exc:
        sys.exit(f"worker: cannot import thetadim from {SRC}: {exc}")
    if not Path(thetadim.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"worker: thetadim came from {thetadim.__file__}, not {SRC}")
    return thetadim


def _write_docs(ops, docdir: Path) -> list[str]:
    """One file per distinct document; returns each operation's path."""
    docdir.mkdir(parents=True)
    paths: dict[str, str] = {}
    out = []
    for op in ops:
        text = json.dumps(op["doc"], sort_keys=True)
        if text not in paths:
            path = docdir / f"q{len(paths)}.json"
            path.write_text(text, encoding="utf-8")
            paths[text] = str(path)
        out.append(paths[text])
    return out


def _records(cache_dir: Path) -> set[Path]:
    return set(cache_dir.rglob("*.json"))


def _tamper(path: Path):
    """Overwrite the record's value with a wrong integer, keeping valid JSON."""
    record = json.loads(path.read_text(encoding="utf-8"))
    if record["value"] != workloads.TAMPER_VALUE:
        record["value"] = workloads.TAMPER_VALUE
    else:
        record["value"] = workloads.TAMPER_VALUE + 1
    path.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")


def _call_main(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an uncaught error is a failed operation
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def _cli_outcome(rc, stdout: str) -> dict:
    outcome = {"rc": rc}
    if rc == 0:
        try:
            payload = json.loads(stdout)
            outcome["value"] = payload["value"]
        except (ValueError, KeyError, TypeError) as exc:
            outcome["error"] = f"unreadable output {stdout!r}: {exc}"
    return outcome


def _verify_query(thetadim, op):
    doc = op["doc"]
    pts = tuple(thetadim.MarkedPoint(p["label"], tuple(p["flag"]), tuple(p["weights"]))
                for p in doc["points"])
    omega = thetadim.ParabolicData(doc["rank"], doc["level"], pts)
    q = thetadim.query(doc["genus"], doc["degree"], omega)
    kwargs = {}
    if "split" in doc:
        s = doc["split"]
        kwargs["ctx"] = thetadim.split_context(
            omega, doc["genus"], doc["degree"], tuple(s["I1"]), s["g1"],
            s["c1"], s["c2"])
    if op["mode"] == "hecke":
        kwargs["point"] = op["point"]
        kwargs["multiplicity"] = op["multiplicity"]
    return q, kwargs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", default=None, help="write spans to this file")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    thetadim = _import_thetadim()
    from thetadim import cli, verlinde

    workdir = Path(args.workdir)
    ops = workloads.build(args.workload, args.seed, args.smoke)
    calls = []
    cache_dir = workdir / "cache"
    if args.workload == "recurrence_grid":
        for op in ops:
            q, kwargs = _verify_query(thetadim, op)
            calls.append((q, op["mode"], kwargs))
    else:
        paths = _write_docs(ops, workdir / "docs")
        if args.workload == "cold_queries":
            calls = [["dim", p, "--json", "--no-cache"] for p in paths]
        else:
            cache_dir.mkdir()
            calls = [["dim", p, "--cache-dir", str(cache_dir), "--json"]
                     for p in paths]

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install(thetadim)

    latencies = []
    raw = []
    clock = time.perf_counter
    t_first = time.monotonic()
    t0 = clock()
    if args.workload == "recurrence_grid":
        for q, mode, kwargs in calls:
            a = clock()
            try:
                rep = verlinde.verify(q, mode, **kwargs)
                raw.append({"ok": rep.ok, "lhs": rep.lhs, "rhs": rep.rhs})
            except Exception as exc:  # counted as a failed operation
                raw.append({"error": f"{type(exc).__name__}: {exc}"})
            latencies.append(clock() - a)
    else:
        for op, argv in zip(ops, calls):
            before = _records(cache_dir) if op.get("tamper") == "write" else None
            a = clock()
            rc, stdout = _call_main(cli, argv)
            latencies.append(clock() - a)
            raw.append((rc, stdout))
            if before is not None:
                for path in _records(cache_dir) - before:
                    _tamper(path)
    timed_s = clock() - t0
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if args.workload != "recurrence_grid":
        raw = [_cli_outcome(rc, stdout) for rc, stdout in raw]
    result = {"t_first": t_first, "timed_s": timed_s, "latencies": latencies,
              "outcomes": raw, "maxrss_kb": maxrss_kb}
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write(args.trace)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

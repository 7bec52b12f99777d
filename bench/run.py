"""Benchmark of thetadim: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload cold_queries --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload in turn
    python3 bench/run.py --smoke                 # reduced size, with checks

A run repeats rounds of one workload until the rounds' timed phases add up
to --seconds (and at least three rounds ran).  A round runs every operation
of the workload once, in a fresh interpreter (bench/worker.py), so rounds
are identical and each starts with the program's caches empty; the
benchmark never clears them itself.  After the timed phase every answer is
checked against an independent evaluation of the formula (bench/oracle.py).

The last line printed is one JSON object with "correct", "attempted",
"failed" and "metrics".  With --trace 0 the metrics are the end-to-end ones:

  ops_per_s    operations completed per second of the rounds' timed phases
  op_p50_ms    median latency of one operation over all rounds
  peak_rss_mb  largest peak resident set of the processes that ran rounds
  setup_s      launch of a round's interpreter to its first timed operation
               (start-up, import, input generation, temp dirs), median

With --trace 1 rounds alternate untraced and traced, and the metrics are the
per-layer counts and self times of bench/tracing.py, per round, plus
trace.overhead_s, the traced minus the untraced timed phase.

Generated documents, cache directories and bytecode go to bench/_out/,
which is removed per run except for bench/_out/traces/ and the bytecode.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150
# no round starts after this much wall time, leaving room for the checks
WALL_CAP_S = 120
DEFAULT_SEED = 1


class RoundError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("THETADIM_THREADS", "THETADIM_CACHE",
                        "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONHASHSEED"] = "0"
    # bytecode of src/ is cached here, so nothing is written under src/ and
    # every round but the first in a checkout imports compiled modules
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


def run_round(workload: str, seed: int, workdir: Path, smoke: bool,
              trace_file: Path | None = None) -> dict:
    workdir.mkdir(parents=True)
    # -S: the worker needs only the standard library and src/, so the
    # interpreter's site hooks stay out of the set-up time
    cmd = [sys.executable, "-S", str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir)]
    if smoke:
        cmd.append("--smoke")
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    t_launch = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=_worker_env(), cwd=ROOT, text=True,
                              capture_output=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"{workload} round timed out after {exc.timeout} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RoundError(f"{workload} round exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["t_first"] - t_launch
    shutil.rmtree(workdir)
    return result


# -- answer checks -----------------------------------------------------------


class Checker:
    """Judges every outcome against the oracle; documents are evaluated once."""

    def __init__(self):
        self._dims: dict[str, int | str] = {}

    def expected(self, doc) -> int | str:
        """The oracle's dimension, or the reason it has none."""
        plain = {k: doc[k] for k in ("genus", "rank", "degree", "level", "points")}
        key = json.dumps(plain, sort_keys=True)
        if key not in self._dims:
            try:
                value = oracle.dimension(plain)
            except ValueError as exc:
                value = str(exc)
            if doc["rank"] == 1 and value != doc["level"] ** doc["genus"]:
                value = f"rank-1 oracle value {value} is not level^genus"
            self._dims[key] = value
        return self._dims[key]

    def problem(self, workload: str, op: dict, out: dict) -> str | None:
        """Why the outcome is wrong, or None when it passes every check."""
        doc = op["doc"]
        if "error" in out:
            return out["error"]
        want = self.expected(doc)
        if isinstance(want, str):
            return f"oracle: {want}"
        if workload == "recurrence_grid":
            got = out["lhs"]
            if not out["ok"] or out["lhs"] != out["rhs"]:
                return f"{op['mode']} check: lhs {out['lhs']} != rhs {out['rhs']}"
        else:
            if out["rc"] != 0:
                return f"exit code {out['rc']}"
            got = out["value"]
        if got != want:
            return f"value {got}, oracle {want}"
        return None


def check_rounds(workload: str, seed: int, smoke: bool, rounds: list[dict]):
    """(attempted, failed, unexpected problems).  The read of the tampered
    cache record is expected to fail; any other failure is a problem."""
    ops = workloads.build(workload, seed, smoke)
    checker = Checker()
    attempted = failed = 0
    problems = []
    for rnd in rounds:
        if len(rnd["outcomes"]) != len(ops):
            problems.append(f"round returned {len(rnd['outcomes'])} outcomes "
                            f"for {len(ops)} operations")
            continue
        for op, out in zip(ops, rnd["outcomes"]):
            attempted += 1
            why = checker.problem(workload, op, out)
            if why is None:
                continue
            failed += 1
            if op.get("tamper") != "read":
                problems.append(f"{json.dumps(op, sort_keys=True)}: {why}")
    return attempted, failed, problems


# -- metrics -----------------------------------------------------------------


def end_to_end(rounds: list[dict]) -> dict:
    latencies = [x for r in rounds for x in r["latencies"]]
    return {
        "ops_per_s": (len(latencies) / sum(r["timed_s"] for r in rounds), "op/s"),
        "op_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in rounds) / 1024.0, "MB"),
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    import tracing

    layers = tracing.median_summary([r["layers"] for r in traced])
    out = {name: (value, _layer_unit(name)) for name, value in layers.items()}
    out["trace.overhead_s"] = (
        statistics.median(r["timed_s"] for r in traced)
        - statistics.median(r["timed_s"] for r in plain), "s")
    return out


# -- driver ------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> tuple[dict, list[str]]:
    OUT.mkdir(exist_ok=True)
    (OUT / "traces").mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    trace_file = OUT / "traces" / f"{workload}-seed{seed}.json"
    plain, traced = [], []
    start = time.monotonic()
    try:
        while True:
            i = len(plain) + len(traced)
            plain.append(run_round(workload, seed, rundir / f"r{i}", smoke))
            if trace:
                traced.append(run_round(workload, seed, rundir / f"t{i}",
                                        smoke, trace_file))
            if smoke:
                if trace:
                    # a second traced round, whose counts must repeat
                    traced.append(run_round(workload, seed, rundir / "t-again",
                                            smoke, trace_file))
                break
            timed = sum(r["timed_s"] for r in plain + traced)
            if (trace or len(plain) >= MIN_ROUNDS) and timed >= seconds:
                break
            elapsed = time.monotonic() - start
            if elapsed * (len(plain) + 1) / len(plain) > WALL_CAP_S:
                break
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    attempted, failed, problems = check_rounds(workload, seed, smoke, plain + traced)
    if trace:
        counts = [{k: v for k, v in r["layers"].items() if _layer_unit(k) != "s"}
                  for r in traced]
        if any(c != counts[0] for c in counts):
            problems.append("per-layer counts differ between traced rounds")
    metrics = {}
    if trace:
        metrics = per_layer(plain, traced)
    if smoke or not trace:
        metrics = {**end_to_end(plain), **metrics}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of thetadim.")
    ap.add_argument("--workload", default="all",
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced inputs, one plain and two traced rounds "
                         "per workload; exit 1 unless every check passes")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "thetadim" / "__init__.py").is_file():
        print(f"run.py: no thetadim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    all_correct = True
    for name in names:
        try:
            result, problems = run_workload(name, args.seed, args.seconds,
                                            bool(args.trace) or args.smoke,
                                            args.smoke)
        except RoundError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
        for why in problems[:20]:
            print(f"{name}: FAILED CHECK {why}", file=sys.stderr)
        all_correct &= result["correct"]
        print(f"# {name} seed={args.seed}: attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"#   {metric}: {m['value']:.6g} {m['unit']}")
        print(json.dumps(result), flush=True)
    if args.smoke and not all_correct:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

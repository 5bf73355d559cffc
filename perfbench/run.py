#!/usr/bin/env python3
"""Benchmark of the onlinefair package: end-to-end timings and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload stream-10k --seed 1 --seconds 30 --trace 0

One process runs one workload in a closed loop with a single client: the next
op starts only when the previous one has returned and been checked.  Set-up
(a fresh import of the package plus building the workload's inputs) is timed
``SETUP_REPEATS`` times and reported as its median.  The workload's round of
ops then runs again and again until ``--seconds`` have passed; every round
runs the same ops on the same inputs.  An op's time is the median over rounds,
so a burst of load from outside the process moves one sample, not the result.

Times are normalised for the speed of the core they ran on.  On a shared
machine the same op can take twice as long from one minute to the next, which
no median within a run removes.  A fixed calibration loop (pure-Python
Fraction, dict and set work, no package code) runs before every op and after
the last one; each op's wall time is scaled by CALIBRATION_S over the mean of
the two calibration runs around it.  The result reads in seconds on a core that
runs the calibration loop in CALIBRATION_S; the raw wall times are printed
too (``*_wall_s``).

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates an untraced and a traced round and reports the
per-layer metrics of one round; their counts must repeat exactly from one
traced round to the next.

The last line of standard output is the JSON result; the lines before it list
every metric by name with its unit, and a record of the run.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from spans import Tracer
from workloads import WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("core", "offline", "online", "adversaries", "bounds", "harness", "verify", "cli")
SETUP_REPEATS = 5
ALLOCATORS = ("greedy-phi", "ef1-lowest", "follower-lpt", "follower-cut-and-choose",
              "three-goods", "main")
COUNT_SUFFIXES = (".calls", ".steps", ".leaves", ".expansions")
CALIBRATION_S = 0.02


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop that does the kind of work the
    package does: exact Fraction arithmetic and comparisons, dict and set use.

    The cyclic collector is paused for the loop, so its time does not depend
    on how many objects the workload keeps alive."""
    gc.disable()
    try:
        start = perf_counter()
        total = best = Fraction(0)
        seen = {}
        for k in range(1, 4000):
            f = Fraction(k % 97 + 1, k % 89 + 2)
            total += f
            if f > best:
                best = f
            seen[k % 211] = (f, frozenset((k, k + 1)) - {k})
        return perf_counter() - start
    finally:
        gc.enable()


class Clock:
    """Wall-clock intervals of calls, with a calibration run after each call."""

    def __init__(self):
        self.when: list[float] = []   # end of each calibration run
        self.took: list[float] = []   # its wall time
        self.calibrate()

    def calibrate(self) -> None:
        took = calibrate()
        self.when.append(perf_counter())
        self.took.append(took)

    def time(self, fn):
        """(result, (start, end)) of ``fn()``.  An exception from ``fn``
        propagates after the closing calibration."""
        start = perf_counter()
        try:
            return fn(), (start, perf_counter())
        finally:
            self.calibrate()

    def seconds(self, interval: tuple[float, float]) -> float:
        """Wall time of the interval times CALIBRATION_S over the mean of the
        calibration runs just before and just after it."""
        start, end = interval
        before = self.took[bisect.bisect_right(self.when, start) - 1]
        after = self.took[bisect.bisect_left(self.when, end)]
        return (end - start) * 2 * CALIBRATION_S / (before + after)


def fresh_import():
    """Import the package from ``src/`` as a first import would."""
    for name in [m for m in sys.modules if m == "onlinefair" or m.startswith("onlinefair.")]:
        del sys.modules[name]
    importlib.import_module("onlinefair")
    return SimpleNamespace(**{m: importlib.import_module(f"onlinefair.{m}") for m in MODULES})


class Runner:
    """Runs rounds of ops, checks every output and keeps each op's timings."""

    def __init__(self, ops, clock: Clock):
        self.ops = ops
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.rounds = 0

    def run_round(self, samples: list[list[tuple[float, float]]],
                  call=lambda op: op.call()) -> None:
        """Appends the wall-clock interval of each op that passes its check."""
        self.rounds += 1
        for op, times in zip(self.ops, samples):
            self.attempted += 1
            try:
                out, interval = self.clock.time(lambda: call(op))
                op.check(out)
            except CheckFailed as exc:
                self.failed += 1
                print(f"FAIL {op.kind}: {exc}", file=sys.stderr)
                continue
            except Exception:  # an op that raises is counted as failed, the run goes on
                self.failed += 1
                print(f"FAIL {op.kind}:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            times.append(interval)
        if self.rounds == 1:
            # the high-water mark after set-up and one round does not depend
            # on how many rounds fit into the run
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def op_medians(samples, seconds) -> list[float]:
    """Median time of each op of the round; an op that never succeeded has none."""
    return [statistics.median(map(seconds, times)) for times in samples if times]


def wall(interval: tuple[float, float]) -> float:
    return interval[1] - interval[0]


def round_metrics(runner: Runner, samples) -> dict:
    medians = op_medians(samples, runner.clock.seconds)
    round_s = sum(medians)
    metrics = {
        "round_s": round_s,
        "round_wall_s": sum(op_medians(samples, wall)),
        "op_s_p50": statistics.median(medians),
        "ops_per_s": len(medians) / round_s,
    }
    goods = sum(op.goods for op, times in zip(runner.ops, samples) if times)
    if goods:
        metrics["goods_per_s"] = goods / round_s
    return metrics


def measure(runner: Runner, seconds: float) -> dict:
    samples = [[] for _ in runner.ops]
    deadline = perf_counter() + seconds
    while runner.rounds == 0 or perf_counter() < deadline:
        runner.run_round(samples)
    return round_metrics(runner, samples)


def measure_traced(runner: Runner, pkg, seconds: float) -> tuple[dict, list[str]]:
    """Untraced and traced rounds in turn, at least two of each."""
    tracer = Tracer(pkg)
    op_ids = itertools.count()

    def traced(op):
        tracer.install()
        try:
            return tracer.op_span(next(op_ids), op.kind, op.call)
        finally:
            tracer.uninstall()

    plain = [[] for _ in runner.ops]
    timed = [[] for _ in runner.ops]
    rounds = []
    deadline = perf_counter() + seconds
    while len(rounds) < 2 or perf_counter() < deadline:
        runner.run_round(plain)
        runner.run_round(timed, traced)
        # span times are wall seconds; calibrate them like this round's ops
        last = [times[-1] for times in timed if times]
        scale = sum(map(runner.clock.seconds, last)) / sum(map(wall, last))
        rounds.append({k: v if is_count(k) else v * scale
                       for k, v in tracer.collect().items()})

    mismatches = [f"{key}: {[r.get(key) for r in rounds]}"
                  for key in sorted({k for r in rounds for k in r})
                  if is_count(key) and len({r.get(key) for r in rounds}) > 1]
    layers = layer_metrics(rounds)
    seconds = runner.clock.seconds
    layers["trace.overhead_ratio"] = (sum(op_medians(timed, seconds))
                                      / sum(op_medians(plain, seconds)))
    layers.update(round_metrics(runner, plain))
    return layers, mismatches


def is_count(key: str) -> bool:
    return key.endswith(COUNT_SUFFIXES)


def layer_metrics(rounds: list[dict]) -> dict:
    """Per-layer metrics of one round: counts from the first traced round
    (they repeat exactly), times as the median over traced rounds."""
    def value(key):
        if is_count(key):
            return rounds[0].get(key, 0)
        return statistics.median(r.get(key, 0.0) for r in rounds)

    keys = sorted({k for r in rounds for k in r})
    out = {k: value(k) for k in keys if not k.startswith("op.")}
    for module in MODULES:
        out[f"{module}.self_s"] = sum(v for k, v in out.items()
                                      if k.startswith(f"{module}.") and k.endswith(".self_s"))
    for name in ALLOCATORS:
        steps = value(f"online.{name}.step.calls")
        setups = value(f"online.{name}.setup.calls")
        out[f"online.{name}.steps"] = steps
        out[f"online.{name}.step_us"] = (value(f"online.{name}.step.self_s") / steps * 1e6
                                         if steps else 0.0)
        out[f"online.{name}.setup_ms"] = (value(f"online.{name}.setup.incl_s") / setups * 1e3
                                          if setups else 0.0)
    search = value("offline.brute_force.leaf_search_s")
    out["offline.brute_force.leaves_per_s"] = (
        value("offline.brute_force.leaves") / search if search else 0.0)
    minimax = value("offline.minimax.incl_s")
    out["offline.minimax.expansions_per_s"] = (
        value("offline.minimax.expansions") / minimax if minimax else 0.0)
    for key in keys:
        if key.startswith("verify.") and key.endswith(".incl_s"):
            out[key[:-len(".incl_s")] + ".s"] = value(key)
    return out


def unit_of(name: str) -> str:
    for suffix, unit in ((COUNT_SUFFIXES, "count"), ("_per_s", "1/s"), ("_ms", "ms"),
                         ("_us", "us"), ("_mb", "MB"), ("_ratio", "ratio"),
                         (("_s", ".s", "_p50"), "s")):
        if name.endswith(suffix):
            return unit
    return ""


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        sys.exit(f"perfbench: BENCHMARK.json workloads {names} != {sorted(WORKLOADS)}")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = ROOT / "src"
    if not (src / "onlinefair" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {src / 'onlinefair'}")
    sys.path.insert(0, str(src))

    workload_cls = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        def set_up():
            pkg = fresh_import()
            return pkg, workload_cls(pkg, args.seed, Path(tmp))

        clock = Clock()
        setup = []
        for _ in range(SETUP_REPEATS):
            pkg = workload = None  # each set-up starts without the previous one's inputs
            (pkg, workload), interval = clock.time(set_up)
            setup.append(interval)

        runner = Runner(workload.ops(), clock)
        if args.trace:
            metrics, mismatches = measure_traced(runner, pkg, args.seconds)
            wanted = bench["per_layer"]
        else:
            metrics, mismatches = measure(runner, args.seconds), []
            wanted = bench["end_to_end"]
    metrics["setup_s"] = statistics.median(map(clock.seconds, setup))
    metrics["setup_wall_s"] = statistics.median(map(wall, setup))
    metrics["peak_rss_mb"] = runner.peak_rss_mb
    metrics["fail_ratio"] = runner.failed / runner.attempted
    for alias, name in workload_cls.aliases.items():
        metrics[alias] = metrics[name]

    for key in mismatches:
        print(f"FAIL count differs between traced rounds: {key}", file=sys.stderr)
    for key in sorted(metrics):
        print(f"{key:48s} {metrics[key]!r:>24} {unit_of(key)}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_applies": workload_cls.seed_applies,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
        "samples": {"setup": len(setup), "rounds": runner.rounds,
                    "ops_per_round": len(runner.ops), "attempted": runner.attempted},
    }
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": runner.failed == 0 and not mismatches,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

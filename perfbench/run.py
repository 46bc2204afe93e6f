#!/usr/bin/env python3
"""Benchmark of paracr: end-to-end metrics per workload, or a traced run for
per-layer metrics.

    python3 perfbench/run.py --workload regular --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from anywhere; the package is imported from the `src` directory next to
this one.  One process serves one closed-loop caller: the next operation is
issued when the previous one returns.  Only the program's calls are timed;
input generation, the output checks and a speed probe of the machine run
between them, and the end-to-end times are scaled by the probe to reference
seconds (see `Probe`).  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
MODULES = ("poly", "series", "linalg", "cmoperator", "surfaces", "regnorm",
           "singnorm", "odebridge", "autodetect", "cli")
SETUPS = 5          # set-ups per run; setup_s is their median
PREFETCH_OPS = 200  # inputs generated during set-up; later ones on demand
PROBE_SHARE = 0.1   # probe time per second of program time
PROBE_REF_S = 0.005  # seconds one probe unit takes on the reference machine
PROBE_WINDOW = 16   # units on each side of a timed call that give its speed

sys.path.insert(0, str(HERE))
import checks as C  # noqa: E402
import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402


class Probe:
    """The machine's speed, measured between the program's calls.

    One unit is a fixed exact product of two 27-term polynomials computed by
    the benchmark's own `checks.dmul` (dicts, tuples, `Fraction`): the same
    kind of work as the program's, in code the program does not share.  On a
    shared host the machine's speed drifts: the same four `singular` calls
    in a loop averaged 222 to 296 ms over 5 s windows of one run, while their
    time over the probe's stayed within 1.46 to 1.62.  A time multiplied by
    its factor from `factors()` is in reference seconds, the seconds it
    would take on a machine where one unit takes PROBE_REF_S."""

    def __init__(self):
        rng = random.Random(0)
        self.poly = {C.mono(a=i, b=j, x=l): Fraction(rng.randint(1, 9), rng.randint(1, 9))
                     for i in range(3) for j in range(3) for l in range(3)}
        self.debt = 0.0
        self.units: list = []
        for _ in range(3):  # warm-up
            self.unit()
        self.units.clear()

    def unit(self):
        t0 = time.perf_counter()
        C.dmul(self.poly, self.poly)
        self.units.append(time.perf_counter() - t0)

    def after(self, took: float, share: float = PROBE_SHARE):
        """Run units until their time is `share` of the program time `took`."""
        self.debt += share * took
        while self.debt > 0:
            self.unit()
            self.debt -= self.units[-1]

    def factors(self, marks: list) -> list:
        """Reference seconds per second at each mark (a count of units run),
        over the PROBE_WINDOW units on either side of it."""
        sums = [0.0]
        for u in self.units:
            sums.append(sums[-1] + u)
        n = len(self.units)
        out = []
        for c in marks:
            lo, hi = max(0, c - PROBE_WINDOW), min(n, c + PROBE_WINDOW)
            out.append(PROBE_REF_S * (hi - lo) / (sums[hi] - sums[lo]))
        return out


class Modules:
    """The program's modules, freshly imported."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "paracr" or n.startswith("paracr.")]:
            del sys.modules[name]
        importlib.invalidate_caches()
        pkg = importlib.import_module("paracr")
        if Path(pkg.__file__).resolve().parent != SRC / "paracr":
            raise ImportError(f"paracr imported from {pkg.__file__}, not {SRC}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"paracr.{name}"))


class Inputs:
    """Rounds of operation specs drawn from one seeded stream."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.rng = random.Random(f"{workload.name}:{seed}")
        self.rounds: list = []

    def round(self, i: int) -> list:
        while len(self.rounds) <= i:
            self.rounds.append(self.workload.make_round(self.rng))
        return self.rounds[i]

    def release(self, i: int):
        """Drop a round that has run, so memory does not grow with the run."""
        self.rounds[i] = None

    def prefetch(self, ops: int):
        i = n = 0
        while n < ops:
            n += len(self.round(i))
            i += 1


def setup(name: str, seed: int):
    mods = Modules()
    workload = W.WORKLOADS[name](mods)
    inputs = Inputs(workload, seed)
    inputs.prefetch(PREFETCH_OPS)
    return mods, workload, inputs


class Runner:
    def __init__(self, workload, inputs, seed: int, probe=None):
        self.wl = workload
        self.inputs = inputs
        self.probe = probe
        self.check_rng = random.Random(f"check:{workload.name}:{seed}")
        self.latencies: list = []
        self.marks: list = []  # probe units run by the end of each op
        self.labels: list = []
        self.failed = 0
        self.failures: dict = {}
        self.errors: list = []
        self.last_round: list = []
        self.check_s = 0.0

    def run_round(self, i: int) -> float:
        """One round; returns the time spent in program calls."""
        wl = self.wl
        spent = 0.0
        self.last_round = []
        for spec in self.inputs.round(i):
            args = wl.prepare(spec)
            raw, exc = None, None
            t0 = time.perf_counter()
            try:
                raw = wl.call(args)
            except Exception as e:  # a failed operation is counted, not fatal
                exc = e
            took = time.perf_counter() - t0
            spent += took
            self.latencies.append(took)
            if self.probe:
                self.probe.after(took)
                self.marks.append(len(self.probe.units))
            self.labels.append(wl.label(spec))
            why = (wl.failure(raw) if exc is None else "".join(
                traceback.format_exception_only(type(exc), exc)).strip())
            if why is not None:
                self.failed += 1
                self.note_failure(spec, why)
                continue
            t0 = time.perf_counter()
            try:
                out = wl.extract(spec, raw)
                errs = wl.check(spec, out, self.check_rng)
            except Exception:
                out, errs = None, [f"check raised: {traceback.format_exc(limit=3)}"]
            self.check_s += time.perf_counter() - t0
            self.errors += errs
            if not errs:
                self.last_round.append((spec, out))
        return spent

    def note_failure(self, spec, message: str):
        argv = spec.get("argv")
        text = f"{' '.join(argv) if argv else self.wl.name}: {message}"
        if text not in self.failures:
            print(f"operation failed: {text[:400]}", file=sys.stderr)
        self.failures[text] = self.failures.get(text, 0) + 1

    def run_for(self, seconds: float) -> tuple:
        """Whole rounds until `seconds` of program time; returns (rounds
        run, program time)."""
        spent, i = 0.0, 0
        while spent < seconds:
            spent += self.run_round(i)
            self.inputs.release(i)
            i += 1
        return i, spent

    def ref_latencies(self) -> list:
        """Each latency in reference seconds."""
        return [t * f for t, f in zip(self.latencies, self.probe.factors(self.marks))]

    def self_test(self) -> list:
        """Each corrupted copy of a checked output must be rejected."""
        problems, tested = [], 0
        for spec, out in self.last_round:
            keys = self.wl.corrupt_keys(out)
            if keys is None:
                continue
            for label, bad in W.corruptions(out, keys):
                tested += 1
                if not self.wl.check(spec, bad, self.check_rng):
                    problems.append(f"self-test: {label} was not rejected")
        if tested == 0:
            problems.append("self-test: no output to corrupt")
        return problems


def source_lines() -> dict:
    """Non-blank, non-comment lines per module and for all of src."""
    out, total = {}, 0
    for path in sorted((SRC / "paracr").glob("*.py")):
        n = sum(1 for line in path.read_text(encoding="utf-8").splitlines()
                if line.strip() and not line.strip().startswith("#"))
        total += n
        if path.stem in MODULES:
            out[f"{path.stem}.lines"] = (n, "lines")
    out["src.lines"] = (total, "lines")
    return out


def percentile(values: list, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment(mods) -> dict:
    rat = mods.poly.RAT
    return {"python": platform.python_version(),
            "coefficients": f"{rat.__module__}.{rat.__name__}",
            "nproc": os.cpu_count()}


def run_one(args) -> dict:
    probe = Probe()
    setups, marks = [], []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        mods, workload, inputs = setup(args.workload, args.seed)
        took = time.perf_counter() - t0
        probe.after(took, share=1.0)
        setups.append(took)
        marks.append(len(probe.units))
    ref_setups = [t * f for t, f in zip(setups, probe.factors(marks))]
    runner = Runner(workload, inputs, args.seed, None if args.trace else probe)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": environment(mods), "probe_ref_s": PROBE_REF_S}
    if not args.trace:
        rounds, spent = runner.run_for(args.seconds)
        lat, ref = runner.latencies, runner.ref_latencies()
        record["raw"] = {"ops_per_s": len(lat) / spent,
                         "op_p50_ms": statistics.median(lat) * 1e3,
                         "op_p90_ms": percentile(lat, 90) * 1e3,
                         "setup_s": statistics.median(setups),
                         "slowdown": spent / sum(ref)}
        record["ref_latencies_ms"] = [t * 1e3 for t in ref]
        metrics = {
            "ops_per_ref_s": (len(ref) / sum(ref), "1/s"),
            "op_p50_ref_ms": (statistics.median(ref) * 1e3, "ms"),
            "op_p90_ref_ms": (percentile(ref, 90) * 1e3, "ms"),
            "setup_s": (statistics.median(ref_setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        }
    else:
        tracer = Tracer()
        rounds, plain, traced = 0, 0.0, 0.0
        # each round runs untraced and traced, in alternating order, so that
        # warm caches favour neither side of trace.overhead_s
        while plain < args.seconds / 2:
            for with_trace in ((False, True) if rounds % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.install()
                    try:
                        traced += runner.run_round(rounds)
                    finally:
                        tracer.remove()
                else:
                    plain += runner.run_round(rounds)
            inputs.release(rounds)
            rounds += 1
        ops = len(runner.latencies) // 2
        metrics = tracer.metrics(ops)
        metrics.update(source_lines())
        metrics["trace.overhead_s"] = ((traced - plain) / ops, "s/op")
        RESULTS.mkdir(exist_ok=True)
        spans = RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
        spans.write_text(json.dumps(tracer.spans()), encoding="utf-8")
    problems = runner.self_test()
    record.update({"rounds": rounds, "attempted": len(runner.latencies),
                   "check_s": runner.check_s, "setups_s": setups,
                   "ref_setups_s": ref_setups,
                   "failed": runner.failed, "failures": runner.failures,
                   "errors": (runner.errors + problems)[:50],
                   "latencies_ms": [t * 1e3 for t in runner.latencies],
                   "labels": runner.labels,
                   "metrics": {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()}})
    record["correct"] = not runner.errors and not problems
    for message in record["errors"][:10]:
        print(f"check failed: {message}", file=sys.stderr)
    return record


def print_result(record: dict):
    print(f"workload {record['workload']} seed {record['seed']}: "
          f"{record['attempted']} ops attempted, {record['failed']} failed, "
          f"correct={str(record['correct']).lower()} ({record['env']})")
    for name, m in record["metrics"].items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    for name, value in record.get("raw", {}).items():
        print(f"  raw {name:41s} {value:.6g}")


def run_all(args) -> int:
    """Every workload, each in its own process, one after the other."""
    results = {}
    for name in W.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*W.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "paracr" / "__init__.py").is_file():
        print(f"error: no paracr package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    record = run_one(args)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    print_result(record)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

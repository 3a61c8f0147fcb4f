#!/usr/bin/env python3
"""Benchmark of the corings toolkit, run from the root of a checkout.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

One process runs one workload, single-threaded, as a closed loop with one
client: the next op starts when the previous one has returned.  Every op is
checked against the benchmark's reference answers (reference.py).  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  ``--workload all``
runs every workload, each in a fresh process, and prints all their metrics.

Times of instruction-bound workloads are scaled by a calibration kernel timed
between ops (calibration.py); the unscaled values are printed on the RAW
line.  Modules that import numpy (corings, calibration, workloads) are
imported only after ``pin_environment``.

The traced run first runs the workload for half of ``--seconds`` untraced,
then installs spans around every corings module (tracing.py) and runs the
same ops again; the difference between the two is the tracing overhead.
Spans are written as JSON lines to perfbench/.out/trace-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
SPEC = ROOT / "BENCHMARK.json"

SETUP_PROBES = 9   # fresh processes timed from spawn to ready; setup_s is their median
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BUDGET_ENV = "CORINGS_BUDGET"   # the CLI's default search budget when --budget is absent
WORKLOAD_NAMES = ("entwining-sweep", "graded-f3-cli", "rational-cli", "exactseq-oracles")


def pin_environment() -> None:
    """One BLAS/OpenMP thread, set before numpy is first imported, and the
    CLI's built-in search budget whatever the caller's shell sets."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop(BUDGET_ENV, None)


def bootstrap() -> None:
    """Import corings from this checkout's src/, or exit with status 2."""
    if not (SRC / "corings" / "__init__.py").is_file():
        print(f"error: no corings sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import corings
    if Path(corings.__file__).resolve().parent != SRC / "corings":
        print(f"error: imported corings from {corings.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def monotonic() -> float:
    # system-wide clock, comparable between a parent and its child process
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# -- running ops --------------------------------------------------------------

class StageTimer:
    """The ``timed`` helper handed to ``Op.call``: times each library call."""

    def __init__(self):
        self.stages: list[tuple[str, float]] = []

    def __call__(self, stage, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.stages.append((stage, time.perf_counter() - t0))


class OpRecord:
    __slots__ = ("key", "stages", "latency", "status", "scale")

    def __init__(self, key, stages, status):
        self.key, self.stages, self.status = key, stages, status
        self.latency = sum(t for _, t in stages)
        self.scale = 1.0


def run_one(op, index: int, scorer, tracer=None) -> OpRecord:
    timer = StageTimer()
    with tracer.op(index) if tracer else nullcontext():
        try:
            code, line = op.call(timer)
            error = None
        except Exception as e:  # a raising op is scored as failed; the run goes on
            error = f"raised {type(e).__name__}: {e}"
        with tracer.span("bench.refcheck") if tracer else nullcontext():
            if error is None:
                status = scorer.score(op.key, code, line, op.expect())
            else:
                status = scorer.fail(op.key, error)
    return OpRecord(op.key, timer.stages, status)


def run_ops(workload, seconds: float, scorer, tracer=None, limit=None) -> list[OpRecord]:
    """Closed loop over the workload's ops until ``seconds`` have passed
    (at a round boundary for CLI workloads), or for exactly ``limit`` ops.

    For a calibrated workload the kernel is timed before the first op, after
    the last and between ops every CALIBRATE_EVERY seconds, and every op is
    scaled by REFERENCE_S over the median of those samples."""
    import calibration
    ops = workload.ops
    records = []
    samples = []
    start = last = time.perf_counter()
    i = 0
    while True:
        if limit is not None:
            if i >= limit:
                break
        elif i and (not workload.whole_rounds or i % len(ops) == 0) \
                and time.perf_counter() - start >= seconds:
            break
        if workload.calibrated \
                and (not i or time.perf_counter() - last >= calibration.CALIBRATE_EVERY):
            samples.append(calibration.sample())
            last = time.perf_counter()
        records.append(run_one(ops[i % len(ops)], i, scorer, tracer))
        i += 1
    if workload.calibrated:
        samples.append(calibration.sample())
        scale = calibration.REFERENCE_S / statistics.median(samples)
        for r in records:
            r.scale = scale
    return records


# -- metrics ------------------------------------------------------------------

def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(records: list[OpRecord], setup: tuple[list[float], float],
               tail_pct: float, scorer, scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics; ``setup`` holds the probes' seconds and their
    scale.  With ``scaled``, times are calibrated."""
    def scale(r):
        return r.scale if scaled else 1.0

    latencies = [r.latency * scale(r) for r in records]
    by_stage = defaultdict(list)
    for r in records:
        for stage, t in r.stages:
            by_stage[stage].append(t * scale(r))
    n = len(records)
    m = {
        "setup_s": statistics.median(setup[0]) * (setup[1] if scaled else 1.0),
        "ops_per_s": n / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": percentile(latencies, tail_pct) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1 - scorer.counts["failed"] / n,
        "decided_frac": 1 - scorer.counts["undecided"] / n,
    }
    for stage in ("build", "validate", "cointegral"):
        if by_stage[stage]:
            m[f"{stage}_s"] = statistics.median(by_stage[stage])
    return m


def select(metrics: dict[str, float], specs: list[dict]) -> dict:
    missing = [s["name"] for s in specs if s["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in specs}


# -- one workload in this process ---------------------------------------------

def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process to its first op being ready."""
    start = monotonic()
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                           "--workload", workload, "--seed", str(seed)],
                          cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - start


def make_workload(name: str, seed: int, workdir: Path):
    import workloads
    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[name](seed, str(workdir))


def run_workload(args) -> int:
    spec = json.loads(SPEC.read_text())
    import calibration
    # start-up and imports are interpreter-bound, so setup_s is always scaled,
    # by the median of three kernel samples before and after every probe
    setup_times, kernel = [], []
    for _ in range(SETUP_PROBES):
        kernel += [calibration.sample() for _ in range(3)]
        setup_times.append(probe_setup(args.workload, args.seed))
    kernel += [calibration.sample() for _ in range(3)]
    setup = (setup_times, calibration.REFERENCE_S / statistics.median(kernel))
    from reference import Scorer
    import numpy

    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    prose = []
    try:
        wl = make_workload(args.workload, args.seed, workdir)
        scorer = Scorer()
        if not args.trace:
            records = run_ops(wl, args.seconds, scorer)
            metrics = end_to_end(records, setup, wl.tail_pct, scorer)
            selected = select(metrics, spec["end_to_end"])
            raw = end_to_end(records, setup, wl.tail_pct, scorer, scaled=False)
            prose.append("RAW " + json.dumps(raw))
            n = len(records)
            prose.append(f"op_tail_ms is the p{wl.tail_pct:g} of n = {n} ops "
                         f"({n - math.ceil(wl.tail_pct / 100 * n)} beyond it)")
            prose.append(f"setup probes (s): {[round(t, 4) for t in setup[0]]}, "
                         f"scale {setup[1]:.4f}; op scale {records[0].scale:.4f}")
        else:
            selected, n, traced_prose = traced_run(wl, args, scorer, spec)
            prose += traced_prose
        prose += known_defects(wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed, undecided = scorer.counts["failed"], scorer.counts["undecided"]
    prose.append(f"failed_frac = {failed}/{n}, undecided_frac = {undecided}/{n}")
    for key, reason in dict(scorer.failures).items():
        prose.append(f"FAILED {key}: {reason}")
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "threads": {v: os.environ[v] for v in THREAD_VARS},
           BUDGET_ENV: os.environ.get(BUDGET_ENV, "unset")}
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("ENV " + json.dumps(env, sort_keys=True))
    for line in prose:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed,
                      "metrics": selected}))
    return 0


def known_defects(wl) -> list[str]:
    """Run each known-defect op once, after the measured ops and outside
    ``attempted``/``failed``, and say whether the defect is still there."""
    from reference import FAILED, Scorer
    lines = []
    for op in wl.known_defects:
        probe = Scorer()
        if run_one(op, -1, probe).status == FAILED:
            lines.append(f"KNOWN DEFECT {op.key} (run once, not scored): {probe.failures[0][1]}")
        else:
            lines.append(f"KNOWN DEFECT FIXED {op.key}: answers correctly; score it again")
    return lines


def traced_run(wl, args, scorer, spec):
    from tracing import Tracer, layer_metrics

    base = run_ops(wl, args.seconds / 2, scorer)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_ops(wl, 0, scorer, tracer, limit=len(base))
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer.table())
    # raw, like the span times the per-layer metrics are made of
    untraced_s = sum(r.latency for r in base)
    traced_s = sum(r.latency for r in traced)
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.traced_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}.jsonl"
    tracer.write_jsonl(str(path))
    prose = [f"traced {len(traced)} ops after {len(base)} untraced ones: overhead "
             f"{traced_s - untraced_s:.3f} s ({100 * metrics['trace.overhead_frac']:.1f}%), "
             f"{tracer.size} spans written to {path.relative_to(ROOT)}",
             f"coverage of traced op time by layer spans below the CLI plus the reference check: "
             f"{metrics['trace.coverage']:.3f} of all op time; per op "
             f"min {metrics['trace.coverage_min']:.3f}, "
             f"median {metrics['trace.coverage_median']:.3f}"]
    return select(metrics, spec["per_layer"]), len(base) + len(traced), prose


# -- every workload, each in a fresh process ----------------------------------

def run_all(args) -> int:
    merged, attempted, failed, correct = {}, 0, 0, True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}: {proc.stderr.strip()}",
                  file=sys.stderr)
            return 1
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        for metric, value in result["metrics"].items():
            merged[f"{name}.{metric}"] = value
            print(f"{name:18s} {metric:32s} {value['value']:14.6g} {value['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


def setup_probe(args) -> int:
    workdir = OUT / "work" / f"probe-{os.getpid()}"
    try:
        make_workload(args.workload, args.seed, workdir)
        print(repr(monotonic()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="corings benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    pin_environment()
    if not SPEC.is_file():
        print(f"error: {SPEC} is missing", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(json.loads(SPEC.read_text())["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    bootstrap()
    if args.setup_probe:
        return setup_probe(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

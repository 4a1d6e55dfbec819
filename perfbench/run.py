"""Benchmark of the switchtaylor package: end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload desk-linear2 --seed 1 --seconds 36 --trace 0

The package is imported from ``src/`` next to this directory.  The seed
only fixes the generated inputs (the study plan or the batch of paths);
every operation of one run uses the same inputs, so every result of a run
must be bit-identical.

``--trace 0`` times operations back to back for ``--seconds`` and reports
the end-to-end metrics.  ``--trace 1`` runs a few untraced operations at the
workload's thread count, then one at ``threads=1``, the same one with every
layer wrapped (see ``layers.py``) and the same one unwrapped again, then a
kernel width sweep, and reports the per-layer metrics.  Human-readable lines
go first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names and
units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter, process_time

import layers
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
SETUPS_PER_OPERATION = 3
SWEEP_SEED = 20221121


def import_package():
    """Import switchtaylor afresh from ``src/``, dropping any loaded copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "switchtaylor" or n.startswith("switchtaylor.")]:
        del sys.modules[name]
    st = importlib.import_module("switchtaylor")
    if Path(st.__file__).resolve().parent.parent != SRC:
        raise ImportError("switchtaylor was found at %s, not under %s" % (st.__file__, SRC))
    return st


def set_up(workload, seed):
    """Import, fixture and input validation; returns (seconds, package, job)."""
    start = perf_counter()
    st = import_package()
    job = workload.prepare(st, seed)
    return perf_counter() - start, st, job


class Operations:
    """Runs and judges operations; a raise or a failed check counts as failed.

    Every result must be bit-identical to the first one of the run, whatever
    the thread count and whether tracing was on.
    """

    def __init__(self, workload, log=sys.stderr):
        self.workload = workload
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.first_digest = None
        self.first_peak_rss_mb = None

    def run(self, st, job, threads):
        """One operation; returns (result or None, wall seconds, cpu seconds)."""
        self.attempted += 1
        wall, cpu = perf_counter(), process_time()
        try:
            result = self.workload.run(st, job, threads)
        except Exception:
            # a failing operation is a measured outcome, not the end of the run
            traceback.print_exc(file=self.log)
            result = None
        wall, cpu = perf_counter() - wall, process_time() - cpu
        if self.first_peak_rss_mb is None:
            self.first_peak_rss_mb = peak_rss_mb()
        problems = ["operation raised"] if result is None else self.problems(result)
        for problem in problems:
            print("check failed: %s" % problem, file=self.log)
        self.failed += bool(problems)
        return result, wall, cpu

    def problems(self, result):
        problems = self.workload.problems(result)
        digest = self.workload.digest(result)
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append("result is not bit-identical to the run's first result")
        return problems


def repeat_for(ops, next_job, threads, seconds):
    """Operations back to back, each on the (package, job) that ``next_job``
    returns, while another fits in ``seconds``; at least one."""
    walls, cpus = [], []
    started = perf_counter()
    while True:
        _, wall, cpu = ops.run(*next_job(), threads)
        walls.append(wall)
        cpus.append(cpu)
        if perf_counter() - started + statistics.median(walls) > seconds:
            return walls, cpus


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, seed, seconds, ops):
    """Every operation runs on a fresh set-up.  Set-ups are interleaved with
    the operations, so that their median samples the machine over the same
    stretch of time as the operations' median does."""
    setups = []

    def fresh_job():
        for _ in range(SETUPS_PER_OPERATION):
            seconds_taken, st, job = set_up(workload, seed)
            setups.append(seconds_taken)
        return st, job

    walls, cpus = repeat_for(ops, fresh_job, workload.threads, seconds)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        # the peak keeps growing with every further study in the process,
        # so it is read where the first one ends
        "peak_rss_mb": ops.first_peak_rss_mb,
    }, walls


def per_layer(workload, st, job, seconds, ops):
    """Untraced runs at the workload's thread count, then single-thread
    runs untraced, traced and untraced again, then the kernel sweep."""
    walls, _ = repeat_for(ops, lambda: (st, job), workload.threads, seconds / 3.0)
    _, wall_before, _ = ops.run(st, job, 1)
    tracer = layers.Tracer(workload.reference_step(job))
    with layers.installed(tracer, st, job.model):
        result, traced_wall, _ = ops.run(st, job, 1)
    _, wall_after, _ = ops.run(st, job, 1)
    # untraced single-thread runs on both sides of the traced one, so that a
    # drift in machine speed cancels out of the overhead
    wall_one = 0.5 * (wall_before + wall_after)
    metrics = layers.layer_metrics(tracer, traced_wall)
    metrics["convergence.wall_threads1_s"] = wall_one
    metrics["convergence.thread_speedup"] = wall_one / statistics.median(walls)
    metrics["trace.overhead"] = traced_wall / wall_one - 1.0
    if result is not None:
        histograms = workload.window_histograms(st, job, tracer, result)
        qmax = job.model.generator.qmax
        metrics.update(layers.window_metrics(histograms, qmax, workload.t_end))
    metrics.update(layers.kernel_sweep(st, SWEEP_SEED))
    return metrics, walls


def benchmark(workload, seed, seconds, trace, declared, out=sys.stdout):
    """Run one workload; print readable lines and return the result object."""
    ops = Operations(workload)
    if trace:
        _, st, job = set_up(workload, seed)
        metrics, walls = per_layer(workload, st, job, seconds, ops)
    else:
        metrics, walls = end_to_end(workload, seed, seconds, ops)
    print(
        "seed %d: wall seconds of the %d untraced operations at threads=%d: %s"
        % (seed, len(walls), workload.threads, " ".join("%.3f" % w for w in walls)),
        file=out,
    )
    entries = report(metrics, declared, out)
    print("%-58s %d count (of %d attempted)" % ("ops_failed", ops.failed, ops.attempted), file=out)
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": entries,
    }


def report(metrics, declared, out):
    """The declared metrics, each with its unit, printed and returned; one
    that was not measured is left out with a warning."""
    entries = {}
    for name, unit in declared.items():
        if name not in metrics:
            warnings.warn("metric %s was not measured" % name)
            continue
        value = metrics[name]
        value = value.item() if hasattr(value, "item") else value
        entries[name] = {"value": value, "unit": unit}
        shown = value if isinstance(value, int) else "%.6g" % value
        print("%-58s %s %s" % (name, shown, unit), file=out)
    return entries


def declared_metrics(trace):
    """Metric name -> unit, from BENCHMARK.json, for the chosen mode."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        declared = declared_metrics(args.trace)
        result = benchmark(
            WORKLOADS[args.workload], args.seed, args.seconds, args.trace, declared
        )
    except (ImportError, OSError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

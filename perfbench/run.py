"""Benchmark of the odtalloc CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload mixture_exact --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

One client in one process calls ``odtalloc.cli.main`` in a closed loop:
each op starts when the previous one returns.  Instances come from
consecutive seeds starting at ``--seed``, and the timed phase makes
whole passes over them, ending at the pass boundary nearest
``--seconds``.  The result's ``attempted`` and ``failed`` count the
pool's entries (an instance and a method), an entry failing when any
of its ops fails, so the same seed gives the same counts on any
machine; the per-op failure share is printed as ``fail_frac``.
Set-up (generating instances through ``odtalloc gen``, the reference
solves and a warm-up) runs several times and reports its median.  Each op's output is checked
against scipy's assignment solver as soon as the op returns; the check
is kept out of the timings.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a separate, traced run.
Times and rates are in reference seconds (see ``speed.py``): wall time
corrected for the slowdown of the shared machine, which a fixed kernel
run between ops measures: the timed phase and each set-up at the mean
speed the kernel read during them, each op latency by the kernel calls
nearest to it.  The wall figures and the timed phase's pace are printed
too.

``--workload all`` runs every workload both ways in child processes and
prints the lot, with the tracing overhead.  The lines before the last
one give each metric by name and unit, the failure breakdown and the
environment.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))
# cap BLAS threads at the cores this process may use; must precede numpy's import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse
import contextlib
import json
import platform
import resource
import shutil
import subprocess
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 12
SETUP_SHARE = 0.1  # kernel share of set-up time: short set-ups need dense samples
WARMUP_SIZE = 1  # a 1x1 instance: every op path runs, Sinkhorn converges at once

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
}


def _git_commit() -> str:
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 else "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "seed": seed,
    }


def set_up(workload, seed: int, work: Path, tick) -> list:
    """Generate the instance pool, solve the references, and warm the op path up.

    ``tick`` is called after each instance and after the warm-up.
    """
    from workloads import generate, reference, run_op

    instances = []
    for k in range(workload.pool):
        directory = work / "instances" / str(k)
        generate(workload, seed + k, directory)
        instances.append(reference(directory))
        tick()
    generate(workload, seed, work / "warmup" / "instance", size=WARMUP_SIZE)
    tiny = reference(work / "warmup" / "instance")
    for method in workload.methods:
        run_op(tiny, method, workload.verify, work / "warmup" / method, time.perf_counter)
    tick()
    return instances


def to_reference(value: float, unit: str, pace: float) -> float:
    """A wall-clock figure at ``pace`` reference seconds per wall second; other units pass through."""
    if unit == "s":
        return value * pace
    if unit == "1/s":
        return value / pace
    return value


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from spans import LAYER_UNITS, Tracer, layer_metrics
    from speed import Speedometer
    from stats import median, tail_percentile
    from workloads import WORKLOADS, check, run_op, written_bytes

    workload = WORKLOADS[name]
    clock = time.perf_counter
    meter = Speedometer(clock)
    work = HERE / ".work" / f"{name}-{os.getpid()}"
    tracer = Tracer(clock) if trace else None
    if tracer:
        tracer.install()
    try:
        baseline_rss_mb = _peak_rss_mb()  # interpreter, numpy, scipy and odtalloc loaded
        # each set-up is timed against the machine's speed sampled between its instances
        setup_meter = Speedometer(clock, share=SETUP_SHARE)
        setup_times, setup_reference = [], []
        for _ in range(SETUP_REPS):
            instances = None  # one pool alive at a time, so set-up stays below the ops' peak
            shutil.rmtree(work, ignore_errors=True)
            first, metered = len(setup_meter.samples), setup_meter.spent
            start = clock()
            instances = set_up(workload, seed, work, setup_meter.sample)
            took = clock() - start - (setup_meter.spent - metered)
            setup_times.append(took)
            setup_reference.append(took * setup_meter.pace(first))
        setup_rss_mb = _peak_rss_mb()

        sequence = [(inst, method) for inst in instances for method in workload.methods]
        # per-op figures are folded in as ops return, so the harness's memory does not grow
        # with the op count and a faster program does not read as a larger one
        latencies, midpoints = array("d"), array("d")
        failures = defaultdict(int)
        # the result counts pool entries, not ops: an entry fails when any of its ops fails,
        # so the same seed gives the same counts however many passes the time allowed
        entry_failed = [False] * len(sequence)
        flips = 0  # ops whose outcome differs from their entry's first pass
        wrong = False
        gaps = []
        write_bytes = 0
        checking = 0.0  # kernel and check time are kept out of the timed phase
        meter.sample()
        metered = meter.spent
        start = pass_start = clock()
        deadline = start + seconds
        # whole passes over the pool, so every run holds the seed's instance mix; the
        # run ends at the pass boundary nearest the deadline
        while True:
            k = len(latencies)
            if k and k % len(sequence) == 0:
                now = clock()
                if now + (now - pass_start) / 2 >= deadline:
                    break
                pass_start = now
            meter.sample()
            if tracer:
                tracer.op = k
            slot = k % len(sequence)
            instance, method = sequence[slot]
            result = run_op(instance, method, workload.verify, work / "op", clock)
            check_start = clock()
            verdict = check(result)
            latencies.append(result.latency)
            midpoints.append(check_start - result.latency / 2)
            if verdict.failed:
                failures[_failure_kind(result, verdict)] += 1
            if k >= len(sequence) and verdict.failed != entry_failed[slot]:
                flips += 1
            entry_failed[slot] |= verdict.failed
            wrong |= verdict.wrong
            if verdict.gap is not None:
                gaps.append(verdict.gap)
            write_bytes += written_bytes(result)
            checking += clock() - check_start
        elapsed = clock() - start - (meter.spent - metered) - checking
        meter.sample()
        if tracer:
            tracer.op = -1
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            work.parent.rmdir()

    pace = meter.pace()
    n_ops = len(latencies)
    # each op in reference seconds by the kernel samples taken around it
    op_times = [t / meter.slowdown_near(mid) for t, mid in zip(latencies, midpoints)]
    wall = {
        "setup_s": median(setup_times),
        "ops_per_s": n_ops / elapsed,
        "op_p50_s": median(latencies),
    }
    if trace:
        layers = layer_metrics(tracer, n_ops, SETUP_REPS, write_bytes, wall["ops_per_s"])
        setup_pace = setup_meter.pace()
        metrics = {
            key: to_reference(value, LAYER_UNITS[key],
                              setup_pace if key == "scenarios.generate_s" else pace)
            for key, value in layers.items()
        }
        units = LAYER_UNITS
    else:
        metrics = {
            "setup_s": median(setup_reference),
            "ops_per_s": to_reference(wall["ops_per_s"], "1/s", pace),
            "op_p50_s": median(op_times),
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = END_TO_END
    failed_ops = sum(failures.values())
    p95 = tail_percentile(op_times)
    return {
        "correct": not wrong,
        "attempted": len(sequence),
        "failed": sum(entry_failed),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
        "extra": {
            "pace": pace,
            "wall": wall,
            "op_samples": n_ops,
            "baseline_rss_mb": baseline_rss_mb,
            "setup_rss_mb": setup_rss_mb,
            "fail_frac": failed_ops / n_ops,
            "failed_ops": failed_ops,
            "passes": n_ops // len(sequence),
            "flips": flips,
            "op_p95_s": p95,
            "entropic_gap_rel": median(gaps) if gaps else None,
            "entropic_converged": len(gaps),
            "failures": dict(failures),
        },
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _failure_kind(result, verdict) -> str:
    if result.error is not None:
        return "crash"
    if verdict.wrong:
        return f"wrong_output_exit_{result.code}"
    if result.verify_code is not None:
        return "verify_rejects_correct_plan"
    return "solve_exit_1"


def print_report(label: str, report: dict) -> None:
    for key, metric in report["metrics"].items():
        print(f"{label} {key} {metric['value']!r} {metric['unit']}")
    extra = report["extra"]
    print(f"{label} pace {extra['pace']!r} reference s per wall s (mean kernel speed)")
    for key, value in extra["wall"].items():
        print(f"{label} wall {key} {value!r} {END_TO_END[key]}")
    print(f"{label} op_samples {extra['op_samples']}")
    print(f"{label} peak_rss_mb before set-up {extra['baseline_rss_mb']!r} MB, "
          f"at its end {extra['setup_rss_mb']!r} MB")
    print(f"{label} fail_frac {extra['fail_frac']!r} ({extra['failed_ops']}/{extra['op_samples']} ops) "
          f"{json.dumps(extra['failures'])}")
    print(f"{label} pool entries failed {report['failed']}/{report['attempted']} "
          f"over {extra['passes']} passes; ops unlike their entry's first pass: {extra['flips']}")
    if extra["op_p95_s"] is None:
        print(f"{label} op_p95_s n/a (fewer than 10 samples beyond p95)")
    else:
        print(f"{label} op_p95_s {extra['op_p95_s']!r} s")
    if extra["entropic_converged"]:
        print(f"{label} entropic_gap_rel {extra['entropic_gap_rel']!r} "
              f"(median over {extra['entropic_converged']} converged ops)")
    print(f"{label} correct {report['correct']}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in a child process of its own."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        rates = {}
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            child = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            lines = child.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if child.returncode != 0 or not lines:
                print(child.stderr, file=sys.stderr)
                return child.returncode or 1
            report = json.loads(lines[-1])
            combined["correct"] &= report["correct"]
            if not trace:
                combined["attempted"] += report["attempted"]
                combined["failed"] += report["failed"]
            for key, metric in report["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = metric
            rates[trace] = report["metrics"]["traced.ops_per_s" if trace else "ops_per_s"]["value"]
        overhead = rates[0] - rates[1]
        combined["metrics"][f"{name}.trace_overhead_ops_per_s"] = {"value": overhead, "unit": "1/s"}
        print(f"{name} trace_overhead_ops_per_s {overhead!r} 1/s "
              f"(untraced {rates[0]!r} minus traced {rates[1]!r})")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "odtalloc" / "cli.py").is_file():
        print(f"error: no odtalloc sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    label = f"{args.workload}{' traced' if args.trace else ''}"
    print_report(label, report)
    print(f"{label} env {json.dumps(environment(args.seed))}")
    report.pop("extra")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

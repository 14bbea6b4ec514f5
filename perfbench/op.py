"""One benchmark operation in a fresh interpreter.

    python3 perfbench/op.py --t0 <monotonic> --setup-only
    python3 perfbench/op.py --t0 <monotonic> --workload bell --seed 7 \
        --reps 400000 --dir <op dir> [--trace]

Set-up is timed from --t0, the parent's CLOCK_MONOTONIC reading taken just
before it started this process, until `timebin` is imported and the paper
configuration is built.  Then the workload's CLI commands run in-process
through `timebin.cli.main`, each timed on its own while `SpeedSampler`
samples the speed of the core.  The normalisation assumes a single-threaded
program: a step that used more than one core (CPU time of this process and
its children over wall time above MAX_CORES) or ran other Python threads is
scaled by calibration samples taken just before and after it instead, while
nothing else runs.  The last line of standard
output is one JSON object with the timings, exit codes, peak RSS and, with
--trace, the per-layer metrics and counters; the spans go to
<op dir>/spans.json.
"""
from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
import threading
import time
from pathlib import Path


def steps(workload: str, seed: int, reps: int, op_dir: Path) -> list[tuple[str, list[str]]]:
    """The CLI commands of one operation, as (step name, argv) pairs."""
    sim, ana = op_dir / "sim", op_dir / "ana"
    common = ["--defaults", "paper", "--reps", str(reps), "--seed", str(seed),
              "--out", str(sim)]
    tags = str(sim / "timetags.csv")
    if workload == "bell":
        return [("simulate", ["simulate", "bell", *common]),
                ("analyze", ["analyze", "--mode", "witness", "--input", tags,
                             "--manifest", str(sim / "manifest.json"),
                             "--out", str(ana)])]
    if workload == "ghz3":
        return [("simulate", ["simulate", "ghz", "--photons", "3",
                              "--no-timetags", *common])]
    if workload == "hom":
        return [("simulate", ["simulate", "hom", *common]),
                ("analyze", ["analyze", "--mode", "hom", "--input", tags,
                             "--out", str(ana)])]
    raise ValueError(f"unknown workload {workload!r}")


SAMPLE_PERIOD_S = 0.5
MAX_CORES = 1.05
AROUND_SAMPLES = 3


def calibration_sample() -> float:
    """Seconds taken by a fixed loop of Python and numpy work (~15 ms)."""
    import numpy as np

    t = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    a = np.arange(1 << 16, dtype=np.uint64)
    for _ in range(20):
        a = (a * np.uint64(0x9E3779B97F4A7C15)) ^ (a >> np.uint64(7))
    return time.perf_counter() - t


class SpeedSampler:
    """Samples the speed of this core while a step runs.

    On a shared host a core's speed drifts by tens of percent over seconds
    to minutes.  A SIGALRM handler runs `calibration_sample` every
    SAMPLE_PERIOD_S on the same core, between the step's bytecodes; the
    step's time over the mean sample cancels most of the drift.  The wall
    and CPU time spent in the handler are kept so they can be taken off the
    step.  Work the program runs beside its main thread would slow the
    samples too, so the handler also notes the most Python threads it saw.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0
        self.max_threads = 1

    def _sample(self, _signum, _frame) -> None:
        t, c = time.perf_counter(), time.process_time()
        self.max_threads = max(self.max_threads, threading.active_count())
        self.samples.append(calibration_sample())
        self.spent_s += time.perf_counter() - t
        self.spent_cpu_s += time.process_time() - c

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean_s(self) -> float:
        """Mean sample; a step shorter than one period gets one sample after it."""
        return statistics.fmean(self.samples or [calibration_sample()])


def cpu_s() -> float:
    """CPU seconds of this process and of its children that have ended."""
    import resource

    return sum(u.ru_utime + u.ru_stime for u in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def around_sample() -> float:
    return statistics.fmean(calibration_sample() for _ in range(AROUND_SAMPLES))


def environment() -> dict:
    import os
    import platform

    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):  # numpy < 1.25 has no dict mode
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--reps", type=int)
    parser.add_argument("--dir")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import dataclasses

    import timebin.cli
    from timebin.config import RunConfig, paper_emitter, paper_noise, paper_tbi

    dataclasses.replace(RunConfig(), emitter=paper_emitter(), noise=paper_noise(),
                        tbi=paper_tbi())
    setup_s = time.monotonic() - args.t0
    calibration_sample()  # warm-up: the first call pays one-off allocation costs
    setup_speed = statistics.fmean(calibration_sample() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "calibration_s": setup_speed}))
        return 0

    import resource

    op_dir = Path(args.dir)
    tracer = None
    if args.trace:
        from spans import Tracer, install

        tracer = Tracer(op_dir.name)
        install(tracer)
    result = {"setup_s": setup_s, "setup_calibration_s": setup_speed, "steps": {},
              "environment": environment()}
    for step, argv in steps(args.workload, args.seed, args.reps, op_dir):
        before = around_sample()
        speed = SpeedSampler()
        t, c = time.perf_counter(), cpu_s()
        speed.start()
        code = timebin.cli.main(argv)
        speed.stop()
        seconds = time.perf_counter() - t - speed.spent_s
        cores = (cpu_s() - c - speed.spent_cpu_s) / seconds
        in_step, around = speed.mean_s(), (before + around_sample()) / 2
        single = cores <= MAX_CORES and speed.max_threads == 1
        result["steps"][step] = {
            "seconds": seconds, "exit_code": code, "cpu_per_wall": cores,
            "python_threads": speed.max_threads,
            "calibration": "in_step" if single else "around_step",
            "calibration_s": in_step if single else around,
            "calibration_in_step_s": in_step, "calibration_around_s": around,
            "calibration_samples": len(speed.samples)}
        if code != 0:
            break
    result["peak_rss_mb"] = max(resource.getrusage(who).ru_maxrss for who in (
        resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["counters"] = dict(tracer.counters)
        with open(op_dir / "spans.json", "w") as fh:
            json.dump(tracer.span_records(), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""CPU speed sampler: the yardstick that takes machine drift out of timings.

On small shared machines the same code runs up to ~1.5x slower for
seconds at a time, and each CPU drifts on its own.  A sampler process
pinned to one CPU repeats a fixed probe (a short Python loop and a batch
of 6x6 SVDs, the program's kernel) every INTERVAL_S and records the CPU
time it took.  The benchmark divides each operation's wall
time by the probe's slowdown on the operation's CPUs during the operation
(``speed_factor``), so an operation reads the same whether the CPU was
slow or fast; a change to the program still moves it in full.

Run as ``speed.py CPU``: it samples until its standard input closes, then
prints the samples as JSON, one ``[perf_counter, probe CPU seconds, cpu]`` each.
On a 2-vCPU Xeon, quarter-period calibrations timed over 100 s had a
coefficient of variation of 0.25 in wall time and 0.04 normalized.  An
SVD-light probe tracked worse (0.065): it slowed less than the program.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path

INTERVAL_S = 0.1
PROBE_LOOPS = 1000
PROBE_SVDS = 200
# Probe CPU time at full speed on the machine the seed numbers come from
# (2-vCPU Xeon, 1.9 ms at the 10th percentile); normalized times are wall
# times at that speed.
REFERENCE_PROBE_S = 2.0e-3
WINDOW_S = 0.5           # samples this close to a short operation also count


def sample(cpu: int) -> list[list[float]]:
    import numpy as np

    os.sched_setaffinity(0, {cpu})
    mats = np.random.default_rng(0).standard_normal((PROBE_SVDS, 6, 6))
    out = []
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        c0 = time.thread_time()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += (i * i) % 7
        np.linalg.svd(mats)
        out.append([time.perf_counter(), time.thread_time() - c0, cpu])
    return out


class Sampler:
    """Sampler processes, one per CPU, for the length of a ``with`` block."""

    def __init__(self, cpus):
        self.cpus = sorted(cpus)
        self.procs = []
        self.samples: list[list[float]] = []

    def __enter__(self) -> "Sampler":
        script = str(Path(__file__).resolve())
        self.procs = [subprocess.Popen([sys.executable, script, str(cpu)],
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
                      for cpu in self.cpus]
        time.sleep(0.5)         # interpreter start-up; first samples precede the run
        return self

    def __exit__(self, *exc) -> None:
        for proc in self.procs:
            try:
                out, _ = proc.communicate(input="", timeout=30)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            if proc.returncode == 0:
                self.samples += json.loads(out)
        self.samples.sort()

    def factor(self, start: float, end: float, cpus) -> float:
        """Probe slowdown over [start, end] against the reference speed.

        Work spread over several CPUs waits for the slowest, so the factor
        is the largest of the CPUs' median slowdowns.
        """
        times = [s[0] for s in self.samples]
        lo = bisect_left(times, start)
        hi = bisect_right(times, end)
        if hi - lo < 2 * len(self.cpus):
            lo = bisect_left(times, start - WINDOW_S)
            hi = bisect_right(times, end + WINDOW_S)
        per_cpu = {}
        for _, probe_s, cpu in self.samples[lo:hi]:
            if cpu in cpus:
                per_cpu.setdefault(cpu, []).append(probe_s)
        if not per_cpu:
            raise RuntimeError("the speed sampler recorded no samples")
        return max(statistics.median(v) for v in per_cpu.values()) / REFERENCE_PROBE_S

if __name__ == "__main__":
    json.dump(sample(int(sys.argv[1])), sys.stdout)

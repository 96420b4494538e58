"""Correction of measured times for the machine's speed drift.

On the shared machines this benchmark runs on, the speed of one CPU drifts
by up to a factor of 2 over tens of seconds (other tenants load the same
cores and caches), which makes raw wall times of 30-second runs spread by
10-40% across runs.  The drift is divided out with a sampler: a process of
its own, pinned to the same CPU as the processes it measures, that every
``INTERVAL_S`` seconds times a fixed calibration computation.  An interval
of work is its length minus the sampler's time inside it, rescaled by
``REFERENCE_S / harmonic mean of the calibration times`` inside it.

The sampler has its own heap, and its calibration (exact fractions over a
pool of 512 small integers, a few tens of KB) fits in the core's caches, so
the memory and garbage of the code under test do not change the
calibration's cost (``test_bench.py`` checks this by inflating the working
set beside it).  A sampler on another CPU does not follow the drift of the
measured one, hence the pinning.  The calibration uses only ``fractions``
and builtins, never the package under test, so a change to the package
cannot move it.

The result is in *reference seconds*: seconds on a machine where the
calibration takes ``REFERENCE_S``, about its time on the machine the
baseline was taken on (an Intel Xeon VM with 2 vCPUs, Python 3.11.7) in
its fast state.

Run as a program, this module is the sampler: it prints ``ready``, samples
until its standard input is closed, then prints one JSON list of the
``[start, end]`` CLOCK_MONOTONIC readings of every calibration.
"""

from __future__ import annotations

import json
import os
import random
import select
import statistics
import subprocess
import sys
import time
from fractions import Fraction

INTERVAL_S = 0.025
REFERENCE_S = 0.0006
POOL_SIZE = 512
PROBES = 150


def pin_to_one_cpu() -> None:
    """Pin this process, and so every process it starts, to one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def calibration(nums, dens, probes) -> Fraction:
    acc, row = Fraction(0), {}
    for i in probes:
        v = Fraction(nums[i], dens[i])
        acc += v
        row[i & 255] = v
    return acc


def sample_until_stdin_closes() -> list:
    nums = [(k * 7919) % 1000 + 1 for k in range(POOL_SIZE)]
    dens = [(k * 104729) % 1000 + 1 for k in range(POOL_SIZE)]
    rng = random.Random(0)
    probes = [rng.randrange(POOL_SIZE) for _ in range(PROBES)]
    samples = []
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        start = time.monotonic()
        calibration(nums, dens, probes)
        samples.append((start, time.monotonic()))
    return samples


class Sampler:
    """The sampler process as a context manager; on exit it is stopped and
    waited for, and ``samples`` holds its ``(start, end)`` readings."""

    def __init__(self):
        self.samples: list = []

    def __enter__(self) -> "Sampler":
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("speed sampler failed to start")
        return self

    def __exit__(self, *exc) -> None:
        out, _ = self.proc.communicate("", timeout=60)
        if self.proc.returncode == 0:
            self.samples = [tuple(s) for s in json.loads(out)]


def window(samples, start: float, end: float):
    """``(seconds of work, calibration time)`` in [start, end]: the interval
    minus the sampler's time inside it, and the harmonic mean of the
    calibration times inside it (of the sample nearest to the interval when
    none is inside).

    Samples are evenly spaced in wall time and the speed at a sample is
    proportional to 1 / its calibration time, so the mean of those inverses
    is the average speed over the interval; a median would follow whichever
    of a fast and a slow phase lasted longer."""
    if not samples:
        raise ValueError("no speed samples")
    inside = [(a, b) for a, b in samples if start <= a and b <= end]
    work = (end - start) - sum(b - a for a, b in inside)
    if not inside:
        middle = (start + end) / 2
        inside = [min(samples, key=lambda s: abs(s[0] - middle))]
    return work, statistics.harmonic_mean([b - a for a, b in inside])


def reference_seconds(work: float, calibration_s: float) -> float:
    return work * REFERENCE_S / calibration_s


if __name__ == "__main__":
    print(json.dumps(sample_until_stdin_closes()))

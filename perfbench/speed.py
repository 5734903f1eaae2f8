"""CPU speed sampler and the normalisation of op times by it.

    python3 perfbench/speed.py OUT_PATH

On a small shared host the speed of a CPU changes for seconds to minutes
at a time (on the 2-core Xeon VM of the baseline the same positivity op
takes 0.20, 0.28 or 0.35 ms, in CPU time as in wall time), so the share of
fast time in a run, not the program, would set its timings.  run.py pins
itself, its workers and their children to one CPU and starts this sampler
on the same CPU.  Every ``PERIOD_S`` it runs a fixed reference kernel
twice and writes the second time, with its start, to OUT_PATH.  An op's
time is then divided by the reference time measured around it and
multiplied by ``REF_MS``: an op that takes as long as k reference kernels
reads k * REF_MS ms, whatever the host's state.  The reference kernel is
the benchmark's own numpy code and never calls qqinv, so a change to the
program moves only the op's side of the ratio.

The sampler runs 0.2-0.35 ms in every ``PERIOD_S`` (1-2% of the CPU) and
exits when its parent has gone.
"""

from __future__ import annotations

import bisect
import os
import statistics
import sys
import time

#: ms that one reference kernel stands for; about its time on the baseline
#: VM when the host is quiet, so normalised times read close to quiet times
REF_MS = 0.1
PERIOD_S = 0.02
#: samples in the rolling median that smooths out a preempted sample
SMOOTH = 3


def _reference_kernel():
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    a = a @ a.conj().T

    def kernel():
        for _ in range(5):
            np.linalg.eigvalsh(a)
            a @ a
            np.trace(a @ a @ a)
    return kernel


def sample(out_path: str) -> None:
    kernel = _reference_kernel()
    parent = os.getppid()
    with open(out_path, "w", encoding="utf-8") as out:
        while os.getppid() == parent:
            kernel()
            start = time.perf_counter_ns()
            kernel()
            out.write(f"{start} {time.perf_counter_ns() - start}\n")
            out.flush()
            time.sleep(PERIOD_S)


class Speed:
    """Reference times read from a sampler's file, smoothed by a rolling
    median; ``scale(start, end)`` is REF_MS / (mean reference time in ms
    over [start, end], or at the sample nearest to the interval when none
    falls in it)."""

    def __init__(self, path: str):
        with open(path, encoding="utf-8") as fh:
            rows = [tuple(map(int, line.split())) for line in fh if line.endswith("\n")]
        if len(rows) < SMOOTH:
            raise ValueError(f"only {len(rows)} speed samples in {path}")
        self.times = [t for t, _ in rows]
        raw = [d for _, d in rows]
        half = SMOOTH // 2
        self.ref_ns = [statistics.median(raw[max(0, i - half):i + half + 1])
                       for i in range(len(raw))]
        self.prefix = [0]
        for d in self.ref_ns:
            self.prefix.append(self.prefix[-1] + d)

    def ref_ms(self, start: int, end: int) -> float:
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi > lo:
            return (self.prefix[hi] - self.prefix[lo]) / (hi - lo) / 1e6
        mid = (start + end) // 2
        i = min(bisect.bisect_left(self.times, mid), len(self.times) - 1)
        if i > 0 and mid - self.times[i - 1] < self.times[i] - mid:
            i -= 1
        return self.ref_ns[i] / 1e6

    def scale(self, start: int, end: int) -> float:
        return REF_MS / self.ref_ms(start, end)

    def median_ref_ms(self) -> float:
        return statistics.median(self.ref_ns) / 1e6


def wait_for_samples(path: str, count: int, timeout_s: float) -> None:
    """Block until the sampler has written ``count`` samples."""
    deadline = time.perf_counter() + timeout_s
    while time.perf_counter() < deadline:
        try:
            with open(path, encoding="utf-8") as fh:
                if sum(line.endswith("\n") for line in fh) >= count:
                    return
        except FileNotFoundError:
            pass
        time.sleep(PERIOD_S)
    raise TimeoutError("the speed sampler wrote no samples")


if __name__ == "__main__":
    sample(sys.argv[1])

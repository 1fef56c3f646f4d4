"""A fixed calibration kernel: how fast this machine runs right now.

On a shared virtual machine the same call can take 1.5x longer for minutes at
a time, because of load this process cannot see.  The kernel below does a
fixed mix of the program's kinds of work (interpreted loops, many small numpy
calls with a least-squares solve, and n x n exponentials and reductions).  It
is timed between the program's calls, in processes of its own, as many at
once as the workload uses.  Dividing the program's time by the kernel's time
cancels the machine's state; multiplying by :data:`NOMINAL_S` keeps the unit
seconds.
"""
from __future__ import annotations

import subprocess
import sys
from time import perf_counter

import numpy as np

#: The kernel's time on an unloaded 2-vCPU Xeon (the scale of normalized seconds).
NOMINAL_S = 0.08


def kernel(_=None) -> float:
    """Run the fixed work once; return its wall seconds."""
    rng = np.random.default_rng(0)
    small = rng.random(300)
    design = rng.random((300, 5))
    big = rng.random((500, 500))
    start = perf_counter()
    acc = 0
    for i in range(30000):
        acc += i * i % 7
    for _ in range(150):
        idx = rng.integers(0, 300, 300)
        pts = small[idx]
        np.exp(-np.subtract.outer(pts, pts) ** 2).sum()
        np.linalg.lstsq(design[idx], pts, rcond=None)
    for _ in range(3):
        gram = np.exp(-2.0 * big)
        (gram * gram).sum()
        gram.mean(axis=0, dtype=np.longdouble)
    return perf_counter() - start


class Gauge:
    """Times the kernel on ``workers`` processes at once.

    The kernel runs in child processes of its own, driven over pipes, so the
    measuring process gets no extra threads or memory from it.
    """

    def __init__(self, workers: int) -> None:
        self._procs = [
            subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            for _ in range(workers)
        ]
        self.sample()  # first use: start-up, imports and page faults

    def sample(self) -> float:
        start = perf_counter()
        for proc in self._procs:
            proc.stdin.write("run\n")
            proc.stdin.flush()
        for proc in self._procs:
            if not proc.stdout.readline():
                raise RuntimeError("calibration process ended early")
        return perf_counter() - start

    def close(self) -> None:
        for proc in self._procs:
            proc.stdin.close()
        for proc in self._procs:
            proc.wait()
            proc.stdout.close()


if __name__ == "__main__":
    while sys.stdin.readline():
        kernel()
        print("done", flush=True)

"""Host-speed reference: a fixed computation timed beside the ops.

The benchmark runs on shared virtual machines whose speed drifts with the
host's load: the same code runs up to about 1.6 times slower for minutes at
a time (see NOTES.md).  The workload process has this computation timed
after each op, outside the op's time.  Op times are then reported at the
reference speed: the measured time times BASE_S over the median reference
time measured around it, so a drift of the host's speed mostly cancels
while a change of the program's speed does not.  Measured times are
printed too.

The computation has two halves of about equal time.  One is the kinds of
work the program does in cache: Fraction matrix products (the exact
lane), integer and dict loops (the oracle) and small numpy products in a
Python loop (the witness residuals).  The other is a pointer chase
through a list of two million ints that holds one random cycle: memory
latency, which the program's large heaps also pay.  Each chase goes on
where the last one stopped, so it meets cold cache lines whether or not
the helper shares a core with the op.  Neither half alone follows the
host: in one fast phase the first ran about 40 % faster and a chase
about 22 %, with the program at 21-26 %; in another, Fraction products
and the chase ran 12 % faster and the program about 25 %.  The helper process keeps the chase's
70 MB table out of the workload's memory and heap.  It calls no orbitref
code.

    python3 perfbench/reference.py     # helper: one line in, one time out
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

# median reference time on the machine the benchmark was written on
# (2-vCPU "Intel(R) Xeon(R) Processor" VM, Python 3.11.7, numpy 2.4.6)
BASE_S = 0.0082

TABLE_SIZE = 2_000_000
CHASE_STEPS = 10_000

_F = [[Fraction(3 * i + j + 1, 2 * j + 3) for j in range(6)] for i in range(6)]
_V = np.linspace(0.1, 0.9, 36).reshape(6, 6) * (0.5 + 0.25j)


def _work(table: list[int], i: int) -> int:
    m = _F
    for _ in range(2):
        m = [[sum(a * b for a, b in zip(row, col)) for col in zip(*_F)] for row in m]
    seen: dict[int, int] = {}
    for k in range(3000):
        key = (k * 2654435761) & 1023
        seen[key] = seen.get(key, 0) ^ k
    y = np.ones(6, dtype=complex)
    for _ in range(100):
        y = _V @ y
        y /= np.linalg.norm(y)
    for _ in range(CHASE_STEPS):
        i = table[i]
    return i


def _one_cycle(n: int) -> list[int]:
    """A random permutation of range(n) with a single cycle (Sattolo)."""
    rng = random.Random(1)
    order = list(range(n))
    for k in range(n - 1, 0, -1):
        j = rng.randrange(k)
        order[k], order[j] = order[j], order[k]
    table = [0] * n
    for a, b in zip(order, order[1:] + order[:1]):
        table[a] = b
    return table


def serve() -> None:
    """Helper loop: time the computation once per line read from stdin."""
    table = _one_cycle(TABLE_SIZE)
    i = 0
    for _ in sys.stdin:
        t0 = time.perf_counter()
        i = _work(table, i)
        print(time.perf_counter() - t0, flush=True)


class Reference:
    """The helper process.  It ends when its stdin closes, so it also ends
    when the workload process dies."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def time(self) -> float:
        """Seconds one run of the reference computation takes now."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference process ended")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def scale(samples: list[float]) -> float:
    """Factor that brings times measured beside `samples` to the reference
    speed."""
    return BASE_S / statistics.median(samples)


if __name__ == "__main__":
    serve()

"""A fixed piece of pure-Python work that calls nothing of tabletalk, timed to
gauge how fast the host runs Python at a given moment.

The host is a shared virtual machine whose speed drifts by up to 1.6x over
seconds to minutes; a process's CPU time drifts with its wall time, so the
slowdown is in the CPU and not in scheduling.  The benchmark runs this
kernel between operations and around each set-up, and rescales what it
timed in between by REF_MS / (the kernel's time there).  A change to
tabletalk cannot move the kernel, so it moves the rescaled figures just as
it moves the raw ones.

This module imports only `time`, so a set-up process can load it before
`import tabletalk` without warming any module that tabletalk imports.
"""

import time

ROUNDS = 40_000
# The kernel's time, in ms, at the faster of the host's speed levels
# (2-vCPU x86-64 virtual machine, CPython 3.11); rescaled figures read as
# if the whole run had gone at that speed.
REF_MS = 4.4
INTERVAL_S = 0.1  # the kernel runs after the first operation to end this long after its last run


def kernel_ms() -> float:
    """Milliseconds the kernel takes now."""
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(ROUNDS):
        table[i % 977] = acc
        acc += i * 3 % 7
    return 1000 * (time.perf_counter() - start)


def factor(before_ms: float, after_ms: float) -> float:
    """Rescaling factor for work timed between two kernel runs."""
    return REF_MS / ((before_ms + after_ms) / 2)


class Gauge:
    """Kernel runs interleaved with a closed loop of operations.

    Call `after(n)` once n operations are done and `close(n)` at the end;
    `marks` holds (operations done, kernel ms) for every kernel run."""

    def __init__(self):
        self.marks = [(0, kernel_ms())]
        self.last = time.perf_counter()

    def after(self, n: int) -> None:
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.marks.append((n, kernel_ms()))
            self.last = time.perf_counter()

    def close(self, n: int) -> None:
        if self.marks[-1][0] != n:
            self.marks.append((n, kernel_ms()))

    def kernel_times(self) -> list[float]:
        return [ms for _, ms in self.marks]

    def rescale(self, latencies_ms) -> list[float]:
        """Each latency times the factor of the two kernel runs around it."""
        scaled = []
        for (start, before), (end, after) in zip(self.marks, self.marks[1:]):
            f = factor(before, after)
            scaled.extend(t * f for t in latencies_ms[start:end])
        return scaled

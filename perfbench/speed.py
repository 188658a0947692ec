"""CPU-speed probe: scales measured times to a reference speed of the CPU.

On a shared virtual machine the speed of a vCPU changes by up to 1.8x for
seconds at a time, independently per vCPU and whatever the benchmark does
(other tenants of the host). Before each run of the program the benchmark
pins itself, and so the program it starts, to the CPU that runs a fixed
pure-Python loop fastest at that moment. While the program runs, a thread
on that same CPU times the loop every 10 ms (2 to 3% of the CPU). A time
measured during the run is multiplied by

    factor = REFERENCE_LOOP_S / mean(loop times during the run)

(loop times above three times their median, a preempted loop, are left out),
which gives the time the run would have taken with the loop at its
reference duration. Raw times are reported beside the scaled ones.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

LOOP_ITERATIONS = 3000
#: Loop time of the fast state of the 2-vCPU x86-64 machine the baseline was
#: recorded on (Python 3.11); only the ratio between runs matters.
REFERENCE_LOOP_S = 2.0e-4
INTERVAL_S = 0.010


def pin_to_fastest_cpu(cpus: set[int]) -> int | None:
    """Pin this thread, and the threads and children it starts, to the fastest of `cpus`."""
    if not cpus:
        return None
    best = None
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            loop_s = min(_loop() for _ in range(3))
            if best is None or loop_s < best[0]:
                best = (loop_s, cpu)
        os.sched_setaffinity(0, {best[1]})
    except (AttributeError, OSError):
        return None
    return best[1]


def _loop() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


class SpeedProbe:
    """Context manager that samples the loop time while the block runs."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            self.samples.append(_loop())
            if self._stop.wait(INTERVAL_S):
                return

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def factor(self) -> float:
        cap = 3 * statistics.median(self.samples)
        return REFERENCE_LOOP_S / statistics.mean(s for s in self.samples if s <= cap)

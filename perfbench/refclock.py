"""A clock in reference seconds, steady on a host whose speed wanders.

On a shared virtual machine one core runs the same Python code up to 1.9x
slower from one second to the next, as other tenants load the host, and a
slow spell can last a whole run: wall-clock times of a fixed workload
spread by 15-60% (quartile distance over median) between runs.  Process CPU
time swings the same way, because the slowdown is not time spent
descheduled.

``RefClock`` therefore measures how fast the core runs right now and reads
time in reference seconds: real seconds divided by the current slowdown.
Every ``PERIOD`` seconds a real-time interval timer interrupts the program
between two bytecodes and the handler times ``reference()``, a fixed loop
of tuple-keyed dict lookups that belongs to the benchmark, never to the
program under test, so that a change to the program cannot slow the
yardstick with it.  One untimed round of the loop runs first and brings
its data back into the caches, which the program has had to itself for
the last ``PERIOD``: without it, a probe after a walk through 32 MB reads
about 7% slower, with it within 1% (``calibrate.py`` measures both), so a
program that grows its working set is not discounted for it.  The
slowdown is the median of the last ``WINDOW`` probe times divided by
``REFERENCE_S``.  The clock stands still while a probe runs, so the probes
cost the measured code nothing on this clock.

On a quiet core a reference second is about one real second; on a core
running at half speed a phase that takes 20 real seconds reads about 10.
"""
from __future__ import annotations

import signal
import statistics
import time
from collections import deque

PERIOD = 0.02
WINDOW = 25
# What one ``reference()`` call takes on a quiet core of the host the
# baseline was taken on (a 2-vCPU Xeon VM, Python 3.11): the unit of the
# clock.  Changing it rescales every recorded time.
REFERENCE_S = 0.0005

_KEYS = tuple((i % 37, i % 11) for i in range(256))
_TABLE = {key: i for i, key in enumerate(_KEYS)}


def reference(rounds: int = 6) -> int:
    """The yardstick: a fixed amount of small-dict work, about 0.5 ms."""
    table = _TABLE
    acc = 0
    for _ in range(rounds):
        for a, b in _KEYS:
            v = table.get((a, b))
            if v is not None and (b, a) not in table:
                acc += v & 7
    return acc


class RefClock:
    """Reference seconds while active, as a context manager in the main
    thread.  ``now()`` is the clock; ``probes`` and ``probe_s`` tell how
    many probes ran and how many real seconds their timed part took."""

    def __init__(self):
        self._recent: deque[float] = deque(maxlen=WINDOW)
        self._slowdown = 1.0
        self._real = time.perf_counter()
        self._ref = 0.0
        self._busy = False
        self._previous_handler = None
        self.probes = 0
        self.probe_s = 0.0

    def now(self) -> float:
        return self._ref + (time.perf_counter() - self._real) / self._slowdown

    def _probe(self, signum=None, frame=None) -> None:
        if self._busy:  # a signal that arrives while a probe runs
            return
        self._busy = True
        try:
            ref = self.now()
            reference(1)  # warm the caches; see the module docstring
            t0 = time.perf_counter()
            reference()
            t1 = time.perf_counter()
            self._recent.append(t1 - t0)
            self._slowdown = statistics.median(self._recent) / REFERENCE_S
            self._real, self._ref = t1, ref
            self.probes += 1
            self.probe_s += t1 - t0
        finally:
            self._busy = False

    def __enter__(self) -> RefClock:
        reference()  # let the interpreter specialise the loop first
        self._real = time.perf_counter()
        for _ in range(5):
            self._probe()
        self._previous_handler = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

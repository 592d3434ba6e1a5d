"""Speed of the host, sampled while the benchmark's units run.

The benchmark runs on a few cores of a shared host.  Other tenants slow
every computation on it, by up to half, in phases that last from
seconds to minutes; see README.md.  ``Sampler`` times a fixed reference
computation every ``INTERVAL_S`` seconds from a timer signal, so the
samples cover the units evenly.  ``scaled`` turns a unit's time into
the time it would take at the reference speed.

The reference computation uses nothing from markovmix, so a change to
the program cannot change it.  It mixes an interpreted loop and numpy
arithmetic on arrays of the size the workloads use, because the program
spends its time in both.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# median sample seconds on an idle host (2 vCPUs of an Intel Xeon, Python
# 3.11, numpy 2.4, one BLAS thread); it only sets the scale of the figures
REFERENCE_S = 0.0015
INTERVAL_S = 0.1

_ROWS = np.random.default_rng(0).random((20000, 3))
_WEIGHTS = np.array([0.2, 0.3, 0.5])


def _reference_work() -> float:
    total = 0.0
    table = {}
    for i in range(5000):
        total += i * i % 7
        table[i % 50] = total
    mixed = _ROWS @ _WEIGHTS
    for _ in range(2):
        total += float(np.log(mixed + 1.0).sum() + (_ROWS / mixed[:, None]).sum())
    return total


def probe(repeats: int) -> float:
    """Median seconds of ``repeats`` runs of the reference computation."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        _reference_work()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class Sampler:
    """Times the reference computation from a SIGALRM timer while active.

    ``spent_s`` is the wall time the samples took, which the units take
    out of their own times.  Use from the main thread only.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._saved = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _reference_work()
        self.samples.append(time.perf_counter() - start)
        self.spent_s += time.perf_counter() - start

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        return False

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent_s

    def since(self, mark: tuple[int, float]) -> tuple[list[float], float]:
        """The samples taken since ``mark``, and the seconds they took."""
        count, spent = mark
        return self.samples[count:], self.spent_s - spent


def scaled(unit_s: list[float], samples: list[float]) -> list[float]:
    """Unit times at the reference speed, by the median of ``samples``."""
    factor = REFERENCE_S / statistics.median(samples)
    return [seconds * factor for seconds in unit_s]

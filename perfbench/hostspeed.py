"""Host-speed probes: a fixed reference computation run between units of work.

The benchmark's times come from a shared virtual machine whose CPU slows by
up to ~1.8x, for seconds to minutes at a time, when its neighbours are busy;
two sets of ten runs of the same code then differ by more than any useful
bound. A probe is a fixed computation of the same kind as the program's
work (small numpy ops and interpreter-bound loops) that the benchmark runs
between the program's units of work (training steps, eval batches, predict
calls, set-up steps), at least every ``PROBE_INTERVAL_S`` seconds of work.
The probe slows with the host, so a stretch of the run reports

* ``raw_s``: its wall time with the probes taken out, as measured;
* ``factor``: the probes' mean time over ``REFERENCE_PROBE_S``;
* ``seconds``: ``raw_s / factor``, the stretch's time at the reference speed.

The probe never calls the program, so a change to the program moves
``seconds`` as much as ``raw_s``.
"""

from __future__ import annotations

import contextlib
import statistics
from time import perf_counter

import numpy as np

PROBE_INTERVAL_S = 0.05
# Time of one probe on the 2-core Xeon host the benchmark was written on,
# in its fast state, at one BLAS thread.
REFERENCE_PROBE_S = 0.0015
PROBE_STEPS = 80

_RNG = np.random.default_rng(0)
_X = _RNG.normal(size=(32, 64))
_W = _RNG.normal(size=(64, 64)) / 8


def probe_work() -> float:
    """The reference computation: about 2 ms, a third of it in numpy."""
    x, acc, table = _X, 0.0, {}
    for _ in range(PROBE_STEPS):
        x = np.tanh(x @ _W) + _X  # a small GEMM and two elementwise ops
        for j in range(48):       # interpreter work, as in per-sample loops
            table[j & 7] = table.get(j & 7, 0) + j
        acc += float(x[0, 0])
    return acc + len(table)


class Stretch:
    """A timed part of the run and the probes taken during it."""

    def __init__(self):
        self.start = self.end = perf_counter()
        self.probes: list[float] = []

    @property
    def raw_s(self) -> float:
        return self.end - self.start - sum(self.probes)

    @property
    def factor(self) -> float:
        return statistics.fmean(self.probes) / REFERENCE_PROBE_S

    @property
    def seconds(self) -> float:
        return self.raw_s / self.factor


class HostMeter:
    """Runs probes between units of work and books them to open stretches."""

    def __init__(self, span=None):
        self.span = span or (lambda name: contextlib.nullcontext())
        self.open: list[Stretch] = []
        self.last = perf_counter()

    def probe(self) -> None:
        with self.span("bench.probe"):
            t0 = perf_counter()
            probe_work()
            d = perf_counter() - t0
        for s in self.open:
            s.probes.append(d)
        self.last = perf_counter()

    def tick(self) -> None:
        """Call between units of work: probes if the interval has passed."""
        if perf_counter() - self.last >= PROBE_INTERVAL_S:
            self.probe()

    @contextlib.contextmanager
    def stretch(self):
        """Time the block; it is bracketed by probes, which it excludes."""
        s = Stretch()
        self.open.append(s)
        try:
            self.probe()
            yield s
            self.probe()
        finally:
            self.open.remove(s)
            s.end = perf_counter()

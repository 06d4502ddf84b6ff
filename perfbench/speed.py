"""How fast the host ran while a figure was measured.

The benchmark runs on shared virtual machines.  On the calibration VM
(a 2-vCPU KVM guest) a fixed piece of pure-Python and small-matrix work
took either about 4.5 ms or about 7.2 ms of CPU time, switching every
few seconds, while the hypervisor accounted no steal: the other guests
share caches and cores, not just time slices.  The same ``Trainer.fit``
took 2.2 to 4.3 CPU seconds in one process, and a run's CPU-time
throughput moved by a quarter to a half from one half hour to the next.

A :class:`SpeedProbe` runs a small fixed kernel at intervals on the
measuring thread, interleaved with the work, and keeps its CPU time
apart from the work's.  Rates are then reported *at reference speed*:
scaled by how much slower than :data:`REFERENCE_MS` the kernel ran
meanwhile.  In calibration the quartiles of CPU-time throughput over
five or six runs per workload spread by 0.09–0.19 of the median; scaled,
by 0.03–0.05.  The scale cancels in any comparison of two commits
measured with the same benchmark; the unscaled figures go to the
diagnostic line.

The kernel's working set is a few kilobytes.  Its mean time still
differs by about 15% from one workload to another (what ran just before
it on the thread); a change to the program that moved it that much
would hide part of its own cost, which is why the diagnostic line keeps
the unscaled rate and the probe's mean beside the scaled one.
"""

from __future__ import annotations

import time

import numpy as np

#: CPU milliseconds of one :func:`kernel` call on the calibration VM
#: (2-vCPU Xeon guest, OpenBLAS on one thread) when its host was quiet.
#: Only a scale: it cancels when two commits are compared.
REFERENCE_MS = 0.5
#: Seconds of the measuring thread between two probes.
EVERY_S = 0.05
#: Kernel calls per probe.
CALLS = 2

_M = np.arange(256, dtype=float).reshape(16, 16) / 256.0


def kernel() -> float:
    """Fixed work shaped like the program's: dict and loop bytecode plus
    small matrix products, as in featurizing plans and level-wise forwards."""
    table: dict = {}
    for i in range(2000):
        table[i & 63] = table.get(i & 63, 0) + i
    x = _M
    for _ in range(30):
        x = np.tanh(x @ _M)
    return float(x[0, 0]) + len(table)


class SpeedProbe:
    """Times :func:`kernel` every :data:`EVERY_S` on the calling thread."""

    def __init__(self) -> None:
        self.samples_ms: list[float] = []
        #: CPU seconds the probes themselves used; callers subtract it
        #: from the work's CPU time.
        self.spent_s = 0.0
        self._next = 0.0

    def maybe(self) -> None:
        """Probe if :data:`EVERY_S` has passed since the last probe."""
        now = time.monotonic()
        if now >= self._next:
            self.probe()
            self._next = now + EVERY_S

    def probe(self, calls: int = CALLS) -> None:
        # This thread's clock: other threads of the process (a service's
        # drain thread) may run on the other core meanwhile.
        start = time.thread_time()
        for _ in range(calls):
            kernel()
        spent = time.thread_time() - start
        self.spent_s += spent
        self.samples_ms.append(spent * 1e3 / calls)

    @property
    def mean_ms(self) -> float:
        return float(np.mean(self.samples_ms)) if self.samples_ms else REFERENCE_MS

    @property
    def factor(self) -> float:
        """How much slower than reference the host ran (1.0 at reference).

        A rate measured in CPU time times this factor, or a CPU time
        divided by it, is the figure at reference speed.
        """
        return self.mean_ms / REFERENCE_MS

    def summary(self) -> dict:
        return {
            "probes": len(self.samples_ms),
            "probe_ms_mean": round(self.mean_ms, 4),
            "factor": round(self.factor, 4),
        }

"""Load generation from one thread: open-loop phases, a closed-loop
saturation phase and the capacity ladder.

In an open-loop phase requests are due on a seeded Poisson schedule
(independent users, so the loop never waits for replies before
sending).  Each request is
timed from its *due* time, not from ``Prediction.submitted_at``: when
the generator stalls (GIL, GC, a slow ``observe``) the wait it imposes
on later requests is counted, and the stall itself shows as lateness.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Optional, Protocol

import numpy as np

from repro.serving import ServiceError
from speed import SpeedProbe

#: A phase whose unsettled requests at end-of-send exceed this many
#: seconds of arrivals has a growing backlog.
BACKLOG_S = 0.1


class Client(Protocol):
    """What a workload plugs into the generator."""

    def send(self, k: int):
        """Submit request ``k`` of the stream; returns its Prediction."""

    def check(self, k: int, value: float) -> bool:
        """Whether request ``k``'s served value equals its reference."""

    def settle(self, k: int, handle) -> None:
        """Called once per completed request, on the generator thread."""


@dataclass
class Phase:
    """Everything one open-loop phase measured."""

    rate: float
    seconds: float
    latency_ms: np.ndarray  # due -> settled (or refused), every request sent
    late_ms: np.ndarray  # sent - due
    items: np.ndarray  # stream index of each request sent
    ok: int = 0
    failed: int = 0
    rejected: int = 0
    wrong: int = 0
    backlog_at_end: int = 0  # unsettled requests when the last one was sent
    submitted_at: Optional[np.ndarray] = None  # Prediction.submitted_at
    done_at: Optional[np.ndarray] = None  # when each request settled

    @property
    def sent(self) -> int:
        return int(self.latency_ms.size)

    @property
    def errors(self) -> int:
        return self.failed + self.rejected + self.wrong

    def p(self, q: float, part: Optional[slice] = None) -> float:
        values = self.latency_ms if part is None else self.latency_ms[part]
        return float(np.percentile(values, q)) if values.size else 0.0

    def severity(self, limit_ms: float) -> float:
        """How far the phase is from meeting the limit (<= 1 passes).

        The limit binds the median latency of the whole phase and of its
        second half (a growing backlog shows late), and the requests
        still unsettled at end-of-send must not exceed 100 ms of
        arrivals.  Any failed, refused or wrong request fails the phase.
        The median, not a tail percentile, marks the knee: on a shared
        2-core machine a one-second rung's p99 is set by whichever
        stalls it happened to catch, while the median only leaves its
        floor once the queue builds.
        """
        second = slice(self.sent // 2, None)
        held = self.rate * BACKLOG_S
        worst = max(
            self.p(50) / limit_ms,
            self.p(50, second) / limit_ms,
            self.backlog_at_end / max(held, 1.0),
        )
        if self.errors:
            worst = max(worst, 1.0 + self.errors)
        return worst


def arrivals(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    """Poisson due offsets (s) within ``[0, seconds)``."""
    expected = rate * seconds
    n = int(expected + 6 * math.sqrt(expected) + 16)
    offsets = np.cumsum(rng.exponential(1.0 / rate, n))
    return offsets[offsets < seconds]


def run_phase(
    client: Client,
    rate: float,
    seconds: float,
    rng: np.random.Generator,
    first_item: int = 0,
    settle_timeout_s: float = 60.0,
) -> Phase:
    """Send ``rate`` requests/s for ``seconds`` and wait for every reply."""
    offsets = arrivals(rng, rate, seconds)
    n = offsets.size
    latency = np.zeros(n)
    late = np.zeros(n)
    items = np.arange(first_item, first_item + n)
    submitted = np.zeros(n)
    finished = np.zeros(n)
    phase = Phase(rate, seconds, latency, late, items, submitted_at=submitted, done_at=finished)
    pending: deque = deque()

    def settle(index: int, due: float, handle) -> None:
        done_at = handle.submitted_at + handle.latency_ms / 1e3
        submitted[index] = handle.submitted_at
        finished[index] = done_at
        latency[index] = (done_at - due) * 1e3
        if handle.exception() is not None:
            phase.failed += 1
            return
        if client.check(int(items[index]), handle.result()):
            phase.ok += 1
        else:
            phase.wrong += 1
        client.settle(int(items[index]), handle)

    def collect() -> None:
        while pending and pending[0][2].done():
            settle(*pending.popleft())

    monotonic, sleep = time.monotonic, time.sleep
    start = monotonic() + 0.002
    for i in range(n):
        due = start + offsets[i]
        collect()
        now = monotonic()
        if now < due:
            sleep(due - now)
            now = monotonic()
        late[i] = (now - due) * 1e3
        try:
            handle = client.send(int(items[i]))
        except ServiceError:
            phase.rejected += 1
            latency[i] = (monotonic() - due) * 1e3
            continue
        pending.append((i, due, handle))
    phase.backlog_at_end = len(pending)
    deadline = monotonic() + settle_timeout_s
    while pending:
        index, due, handle = pending.popleft()
        if not _wait(handle, deadline):
            raise TimeoutError(f"request {index} unsettled after {settle_timeout_s}s")
        settle(index, due, handle)
    return phase


def _wait(handle, deadline: float) -> bool:
    try:
        handle.exception(timeout=max(0.0, deadline - time.monotonic()))
    except TimeoutError:
        return False
    return True


@dataclass
class Saturation:
    """Everything one closed-loop saturation phase measured."""

    seconds: float
    in_flight: int
    items: np.ndarray  # stream index of each request sent
    probe: SpeedProbe
    counted: int = 0  # requests settled between the loop filling and the deadline
    cpu_s: float = 0.0  # process CPU seconds over that interval, probes excluded
    wall_s: float = 0.0  # wall seconds over that interval
    ok: int = 0
    failed: int = 0
    rejected: int = 0
    wrong: int = 0

    @property
    def sent(self) -> int:
        return int(self.items.size)

    @property
    def errors(self) -> int:
        return self.failed + self.rejected + self.wrong

    @property
    def rate_cpu(self) -> float:
        """Requests settled per process CPU second."""
        return self.counted / self.cpu_s if self.cpu_s > 0 else 0.0

    @property
    def rate(self) -> float:
        """:attr:`rate_cpu` at reference speed (see :mod:`speed`)."""
        return self.rate_cpu * self.probe.factor


def run_saturated(
    client: Client,
    seconds: float,
    in_flight: int,
    first_item: int = 0,
    settle_timeout_s: float = 60.0,
) -> Saturation:
    """Keep ``in_flight`` requests outstanding for ``seconds``.

    A closed loop: the generator sends the next request as soon as the
    oldest one settles, so the service always has full batches queued.
    Throughput is counted from when the first ``in_flight`` requests
    have settled (the loop is full; from the start if it never fills)
    to the deadline, against process CPU time: every thread of the
    process (generator, drain thread, poller).  On a KVM guest with paravirtual steal accounting that
    clock stops while the host runs another guest on the vCPU, which
    wall time does not.  A :class:`SpeedProbe` on the generator thread
    measures how fast the host ran meanwhile; its own CPU time is left
    out of the count.
    """
    pending: deque = deque()
    items: list[int] = []
    phase = Saturation(seconds, in_flight, np.zeros(0), SpeedProbe())
    probe = phase.probe
    monotonic, cpu = time.monotonic, time.process_time
    deadline = monotonic() + seconds
    settled = 0
    # (settled, wall, cpu, probe CPU) where counting starts.
    start = (0, monotonic(), cpu(), 0.0)
    k = first_item
    while True:
        now = monotonic()
        if now < deadline:
            while len(pending) < in_flight:
                items.append(k)
                try:
                    pending.append((k, client.send(k)))
                except ServiceError:
                    phase.rejected += 1
                    break
                finally:
                    k += 1
        elif not phase.wall_s:
            phase.counted = settled - start[0]
            phase.wall_s = now - start[1]
            phase.cpu_s = cpu() - start[2] - (probe.spent_s - start[3])
        if not pending:
            break
        item, handle = pending.popleft()
        if not _wait(handle, monotonic() + settle_timeout_s):
            raise TimeoutError(f"request {item} unsettled after {settle_timeout_s}s")
        if handle.exception() is not None:
            phase.failed += 1
        elif client.check(item, handle.result()):
            phase.ok += 1
            client.settle(item, handle)
        else:
            phase.wrong += 1
        settled += 1
        if monotonic() < deadline:
            if settled == in_flight:
                start = (settled, monotonic(), cpu(), probe.spent_s)
            probe.maybe()
    phase.items = np.asarray(items, dtype=int)
    return phase


def run_ladder(
    client: Client,
    rates: list[float],
    rung_seconds: float,
    limit_ms: float,
    rng: np.random.Generator,
    first_item: int = 0,
    budget_s: float = math.inf,
) -> list[list[Phase]]:
    """Climb the fixed rate ladder until a rung misses the limit twice.

    A rung that misses is run once more before the climb stops, so one
    burst of outside load on a shared machine cannot end the ladder
    early.  The climb also stops when the next attempt would overrun
    ``budget_s`` of sending.  Returns the attempts made at each rung.
    """
    rungs: list[list[Phase]] = []
    spent = 0.0
    for rate in rates:
        attempts: list[Phase] = []
        for _ in range(2):
            if spent + rung_seconds > budget_s + 1e-9:
                break
            spent += rung_seconds
            attempt = run_phase(client, rate, rung_seconds, rng, first_item)
            first_item += attempt.sent
            attempts.append(attempt)
            if attempt.severity(limit_ms) <= 1.0:
                break
        if not attempts:
            break
        rungs.append(attempts)
        if attempts[-1].severity(limit_ms) > 1.0:
            break
    return rungs


def capacity(rungs: list[list[Phase]], limit_ms: float) -> float:
    """The rate at which the ladder crosses its limit (requests/s).

    A rung's severity is its better attempt's.  The crossing is
    interpolated in log-rate between the last passing rung and the
    failing one, on the log of their severities, so the figure moves
    smoothly with the system instead of jumping a whole rung.  A ladder
    that never fails reports the top rate it reached; one whose first
    rung already fails reports that rate scaled down by how badly it
    failed.
    """
    previous = None
    for attempts in rungs:
        rate = attempts[0].rate
        worst = min(a.severity(limit_ms) for a in attempts)
        if worst > 1.0:
            if previous is None:
                return rate / worst
            rate0, worst0 = previous
            share = -math.log(worst0) / (math.log(worst) - math.log(worst0))
            return math.exp(math.log(rate0) + share * (math.log(rate) - math.log(rate0)))
        previous = (rate, max(worst, 1e-9))
    return rungs[-1][0].rate


def windowed_percentile(phases: list[Phase], q: float, window: int = 1000) -> float:
    """Median over consecutive ``window``-request windows of each one's percentile.

    Windows never straddle two phases.  With 1000-request windows each
    window's p99 has ten samples beyond it, and a burst of outside load
    spoils one window, not the median.  Phases too short for three
    windows in all fall back to the percentile of their pooled samples.
    """
    values = [
        np.percentile(p.latency_ms[i * window : (i + 1) * window], q)
        for p in phases
        for i in range(p.sent // window)
    ]
    if len(values) < 3:
        return float(np.percentile(np.concatenate([p.latency_ms for p in phases]), q))
    return float(np.median(values))

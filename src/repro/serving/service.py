"""Request-centric serving: futures, micro-batch coalescing, model routing.

:class:`InferenceSession.predict_batch` is batch-shaped — the caller must
already hold a list of plans.  Production traffic is not: queries arrive
one at a time on many threads, and every single-plan call forfeits the
level-fused batch path.  :class:`PredictionService` closes that gap.
Callers ``submit(plan)`` (or ``submit_many``) and get back a
:class:`Prediction` — a future-like handle — while a background
coalescing loop drains the queue on a micro-batch window
(``max_batch_size`` / ``max_wait_ms``) and runs each coalesced
mixed-structure batch through ONE fused forward via the routed model's
session.  Independently submitted plans thus share matmuls exactly as if
one caller had batched them by hand.

The service owns the operational surface around that loop:

* **routing** — requests name a model in a :class:`ModelRegistry`
  (``submit(plan, model="shadow")``); resolution happens per executed
  batch, so re-registering a name hot-swaps the model under live
  traffic.  Unknown names fail at submit time with
  :class:`UnknownModelError`.
* **backpressure** — the queue is bounded (``max_queue_depth``); an
  overfull queue rejects with :class:`QueueFullError`, and an optional
  ``admission_hook`` can shed load earlier (reject → typed
  :class:`AdmissionRejected` at the submit site, never a dropped
  future).
* **lifecycle** — ``start`` / ``stop(drain=True)`` (or the context
  manager): stop refuses new submits with :class:`ServiceStoppedError`,
  then either drains in-flight requests to completion or fails them
  fast (``drain=False``).
* **observability** — :meth:`PredictionService.stats` snapshots queue
  depth, coalesced batch sizes, p50/p99 request latency from a rolling
  window, and the feature-vector cache counters aggregated across every
  registered session.

One worker thread serves all models: sessions are deliberately
single-threaded (mutable stacking buffers), so the coalescing loop is
also the serialization point that makes concurrent submitters safe.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.core.model import QPPNet
from repro.ingest.vocab import UNKNOWN_OP_PROP
from repro.plans.node import PlanNode
from repro.plans.validate import PlanValidationError, validate_plan

from .registry import ModelRegistry
from .resilience import (
    CircuitBreaker,
    CircuitOpenError,
    DeadlineExceededError,
    InvalidPlanError,
    NonFinitePrediction,
    OutcomeError,
    PredictionSettledError,
    ResiliencePolicy,
    ServiceError,
)
from .session import InferenceSession

#: Registry name used when the service wraps a bare model / session.
DEFAULT_MODEL_NAME = "default"

#: Sample-window size for the latency / batch-size percentile estimates.
STATS_WINDOW = 4096

#: Default bound on the outcome journal (observed-latency records kept
#: for drift detection and retraining; oldest evicted beyond this).
OUTCOME_LOG_SIZE = 4096

#: Smoothing factor for the drain-rate EWMA behind deadline admission
#: (fraction of each new per-request service-time sample).
DRAIN_EWMA_ALPHA = 0.2


# ----------------------------------------------------------------------
# Typed errors (ServiceError and the resilience errors live in
# .resilience so the session can raise them without an import cycle).
# ----------------------------------------------------------------------
class QueueFullError(ServiceError):
    """Backpressure: the bounded request queue is at ``max_queue_depth``."""

    def __init__(self, depth: int) -> None:
        super().__init__(f"request queue is full ({depth} pending)")
        self.depth = depth


class AdmissionRejected(ServiceError):
    """The service's ``admission_hook`` refused the request."""


class ServiceStoppedError(ServiceError):
    """The service is stopped (or was stopped before this request ran)."""


class UnknownModelError(ServiceError, LookupError):
    """The request routed to a model name the registry does not hold."""

    def __init__(self, name: str, known: Sequence[str]) -> None:
        super().__init__(
            f"no model named {name!r} is registered (have: {sorted(known)})"
        )
        self.name = name


# ----------------------------------------------------------------------
# The future-like request handle
# ----------------------------------------------------------------------
class Prediction:
    """Future-like handle for one submitted plan.

    ``result()`` blocks until the coalescing loop has executed the batch
    containing this request, then returns the predicted latency in ms
    (or raises the failure that hit the request — a typed
    :class:`ServiceError` or whatever the forward pass raised).  Handles
    are created by the service; callers only read them — with one write
    path: once the query has actually run, :meth:`observe` feeds the
    measured latency back into the service's outcome journal, closing
    the serve→observe loop that drift detection and retraining consume.
    """

    __slots__ = (
        "plan",
        "model",
        "submitted_at",
        "deadline_at",
        "batch_size",
        "observed_ms",
        "_service",
        "_event",
        "_value",
        "_error",
        "_completed_at",
    )

    def __init__(
        self,
        plan: PlanNode,
        model: str,
        submitted_at: float,
        deadline_at: Optional[float] = None,
        service: Optional["PredictionService"] = None,
    ) -> None:
        self.plan = plan
        #: Registry name the request routes to.
        self.model = model
        #: ``time.monotonic()`` at admission.
        self.submitted_at = submitted_at
        #: Monotonic instant after which the request is shed instead of
        #: executed (``None`` = no deadline).
        self.deadline_at = deadline_at
        #: Size of the fused forward this request executed in — its
        #: model's share of the coalesced batch (set on completion; how
        #: much fusion the request actually got).
        self.batch_size: Optional[int] = None
        #: Measured latency recorded via :meth:`observe` (``None`` until
        #: an outcome has been recorded against this handle).
        self.observed_ms: Optional[float] = None
        self._service = service
        self._event = threading.Event()
        self._value: float = float("nan")
        self._error: Optional[BaseException] = None
        self._completed_at: Optional[float] = None

    # -- concurrent.futures-style surface ------------------------------
    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> float:
        if not self._event.wait(timeout):
            raise TimeoutError(f"prediction not ready after {timeout}s")
        if self._error is not None:
            raise self._error
        return self._value

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        if not self._event.wait(timeout):
            raise TimeoutError(f"prediction not ready after {timeout}s")
        return self._error

    @property
    def latency_ms(self) -> Optional[float]:
        """Submit-to-completion wall time in ms (``None`` until done)."""
        if self._completed_at is None:
            return None
        return (self._completed_at - self.submitted_at) * 1e3

    # -- outcome feedback ----------------------------------------------
    def observe(self, actual_ms: float) -> "OutcomeRecord":
        """Record the query's measured latency against this prediction.

        Appends an :class:`OutcomeRecord` to the owning service's
        :class:`OutcomeLog` and returns it.  Raises a typed
        :class:`OutcomeError` if the handle is still pending, failed,
        already observed, detached from any service, or ``actual_ms`` is
        not a finite positive number.
        """
        if self._service is None:
            raise OutcomeError(
                "this Prediction is not attached to a service; "
                "outcomes can only be recorded through PredictionService"
            )
        return self._service.record_outcome(self, actual_ms)

    # -- service-side completion ---------------------------------------
    def _settled_guard(self) -> None:
        if self._event.is_set():
            outcome = "failed" if self._error is not None else "completed"
            raise PredictionSettledError(
                f"prediction for model {self.model!r} is already settled "
                f"({outcome}); handles settle exactly once"
            )

    def _complete(self, value: float, batch_size: int, now: float) -> None:
        self._settled_guard()
        self._value = value
        self.batch_size = batch_size
        self._completed_at = now
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._settled_guard()
        self._error = error
        self._completed_at = time.monotonic()
        self._event.set()

    def __repr__(self) -> str:
        state = "done" if self.done() else "pending"
        return f"Prediction(model={self.model!r}, {state})"


@dataclass(frozen=True)
class ServiceStats:
    """Point-in-time operational snapshot (see ``PredictionService.stats``)."""

    queue_depth: int
    submitted: int
    completed: int
    failed: int
    rejected: int
    batches: int
    mean_batch_size: float
    max_batch_size: int
    p50_latency_ms: float
    p99_latency_ms: float
    #: Feature-vector cache counters, aggregated across every session in
    #: the registry (zero when all caches are disabled — or for
    #: duck-typed sessions that expose no cache at all).
    feature_cache_hits: int = 0
    feature_cache_misses: int = 0
    feature_cache_evictions: int = 0
    #: Requests shed at the submit site because the predicted queue wait
    #: already exceeded their deadline (they never queued; also counted
    #: in ``rejected``).
    deadline_rejected: int = 0
    #: Queued requests shed in the drain loop because their deadline
    #: expired before execution (also counted in ``failed``).
    deadline_expired: int = 0
    #: Requests individually failed by poison isolation while the rest
    #: of their coalesced batch completed (also counted in ``failed``).
    poison_isolated: int = 0
    #: Requests completed by a fallback-chain tier instead of the
    #: primary fused path (also counted in ``completed``).
    fallback_completed: int = 0
    #: Requests fast-rejected by an open circuit breaker with no
    #: fallback configured (also counted in ``failed``).
    breaker_rejected: int = 0
    #: Per-model breaker states (``closed`` / ``open`` / ``half_open``);
    #: empty when circuit breaking is disabled.
    breaker_states: dict = field(default_factory=dict)
    #: Total observed outcomes ever recorded (``record_outcome`` /
    #: ``Prediction.observe``); the journal itself keeps only the most
    #: recent ``OUTCOME_LOG_SIZE``.
    outcomes_recorded: int = 0
    #: Completed requests whose plan carried at least one
    #: fallback-degraded operator (an ingested node that missed the
    #: engine vocabulary and was served through an arity-matched
    #: neutral unit — marked by ``repro.ingest.vocab.UNKNOWN_OP_PROP``).
    #: The serving-side vocabulary-coverage gauge: a rising fraction
    #: means the live workload outgrew the operator taxonomy.
    fallback_unit_plans: int = 0


# ----------------------------------------------------------------------
# Outcome journal (serve→observe feedback for drift detection/retraining)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OutcomeRecord:
    """One closed serve→observe loop: what we predicted vs what happened.

    The plan object itself is retained (not just its signature) so the
    retraining path can rebuild training samples from the observed
    stream — executed plans carry per-node actuals, which is exactly
    what ``PreGroupedCorpus.from_samples`` reads as labels.  The journal
    is bounded, so retained plans are capped at the log size.
    """

    #: 1-based monotonically increasing sequence number (journal-wide,
    #: survives eviction — consumers poll with ``since(seq)``).
    seq: int
    #: The plan's structure signature (drift monitors count unseen ones).
    signature: str
    predicted_ms: float
    observed_ms: float
    #: Registry name of the model that produced the prediction.
    model: str
    #: ``time.time()`` at recording.
    timestamp: float
    plan: PlanNode

    @property
    def relative_error(self) -> float:
        """``|observed - predicted| / observed`` (observed is validated > 0)."""
        return abs(self.observed_ms - self.predicted_ms) / self.observed_ms


class OutcomeLog:
    """Bounded, thread-safe journal of :class:`OutcomeRecord`.

    Appends assign a journal-wide sequence number under the log's own
    lock; readers get consistent snapshots.  ``since(seq)`` returns the
    records appended after ``seq`` that are still retained plus an
    explicit count of the ones already evicted — a poller that falls
    more than ``maxlen`` behind can tell "no news" from "missed news"
    (the deque bounds memory, not history).

    With a ``journal`` attached (an
    :class:`~repro.serving.journal.OutcomeJournal`), every appended
    record is also framed and written to disk *under this log's lock*,
    so on-disk order always equals sequence order and
    ``Prediction.observe`` becomes durable — the submit/predict hot
    path is untouched, and journal I/O and encode failures degrade to
    the journal's ``io_errors`` / ``encode_errors`` counters, never an
    exception out of ``record``.
    """

    def __init__(self, maxlen: int = OUTCOME_LOG_SIZE, *, journal=None) -> None:
        if maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        self.maxlen = maxlen
        #: Optional write-ahead journal (duck-typed: ``append(record)``).
        self.journal = journal
        self._lock = threading.Lock()
        self._records: deque[OutcomeRecord] = deque(maxlen=maxlen)
        self._total = 0

    def record(
        self,
        *,
        signature: str,
        predicted_ms: float,
        observed_ms: float,
        model: str,
        plan: PlanNode,
    ) -> OutcomeRecord:
        with self._lock:
            self._total += 1
            rec = OutcomeRecord(
                seq=self._total,
                signature=signature,
                predicted_ms=predicted_ms,
                observed_ms=observed_ms,
                model=model,
                timestamp=time.time(),
                plan=plan,
            )
            self._records.append(rec)
            if self.journal is not None:
                self.journal.append(rec)
        return rec

    def restore(self, records: Sequence[OutcomeRecord]) -> None:
        """Adopt replayed records as this log's history (recovery only).

        Replaces the retained window with the newest ``maxlen`` of
        ``records`` and fast-forwards the sequence counter to the
        highest replayed ``seq``, so post-restart appends continue the
        same numbering.  Records are *not* re-journaled — they are
        already durable; call before serving starts.
        """
        with self._lock:
            self._records.clear()
            self._records.extend(records)
            self._total = max((rec.seq for rec in records), default=0)

    @property
    def total(self) -> int:
        """Outcomes ever recorded (not just those still retained)."""
        with self._lock:
            return self._total

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def snapshot(self) -> list[OutcomeRecord]:
        """All currently retained records, oldest first."""
        with self._lock:
            return list(self._records)

    def since(self, seq: int) -> tuple[list[OutcomeRecord], int]:
        """``(records, dropped)``: retained records with ``rec.seq >
        seq`` oldest first, plus how many records after ``seq`` were
        already evicted before this call.  ``dropped`` is the gap a
        lagging consumer must account for (e.g. the lifecycle poller's
        ``outcomes_lost`` counter); ``0`` means a complete read."""
        with self._lock:
            records = [rec for rec in self._records if rec.seq > seq]
            evicted = self._total - len(self._records)
            dropped = max(0, evicted - max(seq, 0))
        return records, dropped


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
#: Admission hook signature: ``(plan, model name, queue depth) -> admit?``.
AdmissionHook = Callable[[PlanNode, str, int], bool]


class PredictionService:
    """Request-oriented front-end over one or many inference sessions.

    Parameters
    ----------
    target:
        What to serve: a :class:`ModelRegistry` (multi-model routing), or
        a bare :class:`QPPNet` / :class:`InferenceSession` which is
        wrapped in a private registry under :data:`DEFAULT_MODEL_NAME`.
    default_model:
        Route for ``submit(plan)`` calls that name no model.  Defaults to
        the registry's sole name when it holds exactly one model.
    max_batch_size:
        Hard cap on one coalesced batch; the drain loop takes a batch as
        soon as this many requests are pending.
    max_wait_ms:
        Micro-batch window: after the first request of a batch arrives,
        how long the drain loop lingers for more before executing.  ``0``
        disables coalescing latency entirely (drain whatever is queued).
    max_queue_depth:
        Bounded-queue backpressure limit; beyond it ``submit`` raises
        :class:`QueueFullError`.
    admission_hook:
        Optional load-shedding predicate ``(plan, model, queue_depth) ->
        bool`` run at the submit site, outside the service lock (it may
        freely call :meth:`stats`); ``False`` raises
        :class:`AdmissionRejected` before the request ever queues.
    resilience:
        The :class:`~repro.serving.resilience.ResiliencePolicy` governing
        plan validation, deadlines, poison isolation, circuit breaking
        and fallback (see the package docstring's failure-mode
        contract).  Defaults to ``ResiliencePolicy()`` — validation,
        isolation and a 5-strike breaker on; deadlines and fallback off.
    """

    def __init__(
        self,
        target: Union[ModelRegistry, InferenceSession, QPPNet],
        *,
        default_model: Optional[str] = None,
        max_batch_size: int = 64,
        max_wait_ms: float = 2.0,
        max_queue_depth: int = 4096,
        admission_hook: Optional[AdmissionHook] = None,
        resilience: Optional[ResiliencePolicy] = None,
        outcome_log_size: int = OUTCOME_LOG_SIZE,
        outcomes: Optional[OutcomeLog] = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if isinstance(target, ModelRegistry):
            self.registry = target
        else:
            session = (
                target
                if isinstance(target, InferenceSession)
                else InferenceSession(target)
            )
            self.registry = ModelRegistry()
            self.registry.register_session(DEFAULT_MODEL_NAME, session)
            if default_model is None:
                default_model = DEFAULT_MODEL_NAME
        if default_model is None and len(self.registry) == 1:
            default_model = self.registry.names()[0]
        self.default_model = default_model
        self.max_batch_size = max_batch_size
        self.max_wait_ms = max_wait_ms
        self.max_queue_depth = max_queue_depth
        self.admission_hook = admission_hook
        self.resilience = resilience if resilience is not None else ResiliencePolicy()
        #: Observed-latency journal fed by ``record_outcome`` /
        #: ``Prediction.observe`` (its own lock; never under self._lock).
        #: Pass ``outcomes=`` to share a pre-built log — the recovery
        #: path hands in one restored from the on-disk journal.
        self.outcomes = outcomes if outcomes is not None else OutcomeLog(outcome_log_size)

        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._queue: deque[Prediction] = deque()
        self._stopping = False
        self._stopped = False
        self._settled = threading.Event()  # every pre-stop request resolved
        self._worker: Optional[threading.Thread] = None

        # Counters + rolling sample windows, all guarded by self._lock.
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._rejected = 0
        self._batches = 0
        self._batch_sizes: deque[int] = deque(maxlen=STATS_WINDOW)
        self._latencies_ms: deque[float] = deque(maxlen=STATS_WINDOW)
        # Resilience state: per-model breakers (lazily created under
        # self._lock), the drain-rate EWMA behind deadline admission
        # (ms of drain-loop time per request, updated per executed
        # batch), and the shed/isolation/fallback counters.
        self._breakers: dict[str, CircuitBreaker] = {}
        self._drain_ms_per_request: Optional[float] = None
        self._deadline_rejected = 0
        self._deadline_expired = 0
        self._poison_isolated = 0
        self._fallback_completed = 0
        self._breaker_rejected = 0
        self._fallback_unit_plans = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "PredictionService":
        """Start the coalescing drain loop (idempotent until stopped)."""
        with self._lock:
            if self._stopping or self._stopped:
                raise ServiceStoppedError("service already stopped; build a new one")
            if self._worker is None:
                self._worker = threading.Thread(
                    target=self._drain_loop, name="qpp-prediction-service", daemon=True
                )
                self._worker.start()
        return self

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting requests, then settle every pending one.

        ``drain=True`` executes everything still queued (the coalescing
        window is skipped — shutdown drains at full batch size);
        ``drain=False`` fails queued requests with
        :class:`ServiceStoppedError` instead.  Idempotent, and safe to
        race: the first stopper's ``drain`` choice wins, and every
        ``stop`` call — whichever thread made it — returns only once all
        pre-stop requests are settled (or ``timeout`` expires).
        """
        with self._lock:
            first_stopper = not self._stopping
            self._stopping = True
            if first_stopper and not drain:
                abandoned = list(self._queue)
                self._queue.clear()
                self._failed += len(abandoned)
            else:
                abandoned = []
            worker, self._worker = self._worker, None
            self._not_empty.notify_all()
        for request in abandoned:
            request._fail(ServiceStoppedError("service stopped before execution"))
        if not first_stopper:
            # Another thread owns the shutdown; just wait for it to
            # settle every pending request (never while holding the lock).
            self._settled.wait(timeout)
            return
        if worker is not None:
            worker.join(timeout)
        worker_gone = worker is None or not worker.is_alive()
        if drain and worker_gone:
            # Settle whatever no worker will ever get to — the service was
            # never started, or the join timed out after the worker died.
            # Only the first stopper drains (and only once the worker is
            # provably gone), so the single-threaded sessions never see
            # two executors.
            while True:
                with self._lock:
                    take = min(self.max_batch_size, len(self._queue))
                    batch = [self._queue.popleft() for _ in range(take)]
                if not batch:
                    break
                self._safe_execute(batch)
        with self._lock:
            self._stopped = True
        if worker_gone:
            # If the join timed out with the worker still draining, it is
            # the worker that signals settlement when it exits.
            self._settled.set()

    @property
    def running(self) -> bool:
        return self._worker is not None and not self._stopping

    def __enter__(self) -> "PredictionService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop(drain=True)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        plan: PlanNode,
        model: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> Prediction:
        """Admit one plan; returns its :class:`Prediction` handle.

        Admission is synchronous and typed: validation, routing,
        backpressure, deadlines and the admission hook all reject *here*
        (the returned handle, once you hold one, can only fail through
        execution itself).  Requests may be submitted before
        :meth:`start`; they queue until the drain loop runs.

        ``deadline_ms`` bounds the request's total queue+execution
        budget: if the service's own latency prediction says the queue
        wait alone will blow it, the request is shed now
        (:class:`DeadlineExceededError`, ``shed_at="admission"``); if
        the deadline expires while queued, it is shed before execution
        (``shed_at="execution"``) without paying a forward pass.
        """
        return self.submit_many([plan], model=model, deadline_ms=deadline_ms)[0]

    def submit_many(
        self,
        plans: Sequence[PlanNode],
        model: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> list[Prediction]:
        """Admit a burst of plans atomically (all-or-nothing).

        One lock acquisition admits the whole burst, so no caller is left
        holding handles for half an admitted burst: if the queue cannot
        take ``len(plans)`` more requests, any member fails validation,
        the deadline is already unmeetable, or the admission hook refuses
        any member, the typed error is raised and *nothing* queues.
        """
        if not plans:
            return []
        policy = self.resilience
        if deadline_ms is None:
            deadline_ms = policy.default_deadline_ms
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")
        if self._stopping or self._stopped:
            # Checked before routing and the admission hook so a stopped
            # service reports itself as stopped — never as a routing
            # failure or transient load-shedding a client would retry.
            # (Unlocked read; the authoritative re-check runs under the
            # lock below.)
            raise ServiceStoppedError("service is stopped")
        name = model if model is not None else self.default_model
        if name is None:
            raise UnknownModelError("<default>", self.registry.names())
        if name not in self.registry:
            raise UnknownModelError(name, self.registry.names())
        if policy.validate_plans:
            # Boundary validation: a malformed plan is the submitter's
            # bug and is rejected here, typed — never smuggled into a
            # coalesced batch where its featurization error would read
            # as a model failure (and, without isolation, fail innocent
            # co-batched requests).
            for plan in plans:
                try:
                    validate_plan(plan)
                except PlanValidationError as error:
                    with self._lock:
                        self._rejected += len(plans)
                    raise InvalidPlanError(str(error)) from error
        breaker = self._breakers.get(name)
        if (
            breaker is not None
            and policy.fallback is None
            and not breaker.allow()
        ):
            # Open breaker, nothing to degrade to: fail fast at the
            # submit site instead of queueing a request whose execution
            # is already known to be rejected.  (With a fallback chain
            # the request is admitted and served degraded.)
            with self._lock:
                self._rejected += len(plans)
                self._breaker_rejected += len(plans)
            raise CircuitOpenError(name, breaker.retry_after_ms())
        if self.admission_hook is not None:
            # Outside the service lock: the hook may inspect the service
            # itself (stats(), queue state) without deadlocking, and a
            # slow hook never stalls the drain loop or other submitters.
            # The depth it sees is therefore a snapshot; the hard bound
            # is enforced under the lock below.
            depth = len(self._queue)
            for plan in plans:
                if not self.admission_hook(plan, name, depth):
                    with self._lock:
                        self._rejected += len(plans)
                    raise AdmissionRejected(
                        f"admission hook rejected request for model {name!r} "
                        f"(burst of {len(plans)}, queue depth {depth})"
                    )
        with self._lock:
            if self._stopping or self._stopped:
                raise ServiceStoppedError("service is stopped")
            depth = len(self._queue)
            if depth + len(plans) > self.max_queue_depth:
                self._rejected += len(plans)
                raise QueueFullError(depth)
            if deadline_ms is not None and policy.admission_control:
                # Deadline-aware admission: we are a latency predictor,
                # so we predict our own.  The EWMA of drain-loop time
                # per request (measured around every executed batch)
                # times the work already queued ahead — plus one
                # coalescing window — is the expected wait before this
                # burst even starts executing.  If that alone exceeds
                # the deadline, executing it would only produce an
                # expired result: shed now, at the submit site.
                rate = self._drain_ms_per_request
                if rate is not None:
                    predicted_wait_ms = (
                        depth + len(plans)
                    ) * rate + self.max_wait_ms
                    if predicted_wait_ms > deadline_ms:
                        self._rejected += len(plans)
                        self._deadline_rejected += len(plans)
                        raise DeadlineExceededError(
                            f"predicted queue wait {predicted_wait_ms:.1f}ms exceeds "
                            f"deadline {deadline_ms:.1f}ms ({depth} requests ahead)",
                            deadline_ms=deadline_ms,
                            shed_at="admission",
                        )
            now = time.monotonic()
            deadline_at = None if deadline_ms is None else now + deadline_ms / 1e3
            requests = [
                Prediction(plan, name, now, deadline_at, service=self)
                for plan in plans
            ]
            self._queue.extend(requests)
            self._submitted += len(requests)
            self._not_empty.notify()
        return requests

    def predict(
        self,
        plan: PlanNode,
        model: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> float:
        """Convenience: ``submit`` + blocking ``result()``.

        One call still benefits from coalescing with *other* callers'
        in-flight requests, which is the whole point of the service.
        """
        return self.submit(plan, model=model, deadline_ms=deadline_ms).result()

    # ------------------------------------------------------------------
    # Outcome feedback
    # ------------------------------------------------------------------
    def record_outcome(self, prediction: Prediction, actual_ms: float) -> OutcomeRecord:
        """Journal the measured latency for a completed prediction.

        The serve→observe half of the model lifecycle: callers who later
        learn what the query actually took report it here (usually via
        :meth:`Prediction.observe`).  Validation is typed and strict —
        the handle must have completed with a value, must not have been
        observed before, and ``actual_ms`` must be a finite positive
        number — because these records feed drift detection and
        retraining, where silently bad feedback is worse than none.
        """
        try:
            actual = float(actual_ms)
        except (TypeError, ValueError):
            raise OutcomeError(f"actual_ms must be a number, got {actual_ms!r}")
        if not np.isfinite(actual) or actual <= 0:
            raise OutcomeError(
                f"actual_ms must be a finite positive latency, got {actual!r}"
            )
        if not prediction.done():
            raise OutcomeError(
                "prediction is still pending; observe outcomes only after result()"
            )
        if prediction._error is not None:
            raise OutcomeError(
                "prediction failed "
                f"({type(prediction._error).__name__}); there is no predicted "
                "value to record an outcome against"
            )
        with self._lock:
            if prediction.observed_ms is not None:
                raise OutcomeError(
                    f"outcome already recorded for this prediction "
                    f"({prediction.observed_ms:.3f}ms); outcomes record exactly once"
                )
            prediction.observed_ms = actual
        return self.outcomes.record(
            signature=prediction.plan.structure_signature(),
            predicted_ms=prediction._value,
            observed_ms=actual,
            model=prediction.model,
            plan=prediction.plan,
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """Consistent snapshot of counters and rolling percentiles."""
        with self._lock:
            sizes = list(self._batch_sizes)
            latencies = list(self._latencies_ms)
            queue_depth = len(self._queue)
            submitted, completed = self._submitted, self._completed
            failed, rejected, batches = self._failed, self._rejected, self._batches
            deadline_rejected = self._deadline_rejected
            deadline_expired = self._deadline_expired
            poison_isolated = self._poison_isolated
            fallback_completed = self._fallback_completed
            breaker_rejected = self._breaker_rejected
            fallback_unit_plans = self._fallback_unit_plans
            breakers = dict(self._breakers)
        p50, p99 = 0.0, 0.0
        if latencies:
            p50, p99 = (float(v) for v in np.percentile(latencies, [50, 99]))
        cache_hits = cache_misses = cache_evictions = 0
        for name in self.registry.names():
            try:
                session = self.registry.session(name)
            except KeyError:  # unregistered between names() and session()
                continue
            cache = getattr(session, "feature_cache", None)
            if cache is None:  # disabled, or a duck-typed session
                continue
            cache_hits += getattr(cache, "hits", 0)
            cache_misses += getattr(cache, "misses", 0)
            cache_evictions += getattr(cache, "evictions", 0)
        return ServiceStats(
            queue_depth=queue_depth,
            submitted=submitted,
            completed=completed,
            failed=failed,
            rejected=rejected,
            batches=batches,
            mean_batch_size=float(np.mean(sizes)) if sizes else 0.0,
            max_batch_size=max(sizes) if sizes else 0,
            p50_latency_ms=p50,
            p99_latency_ms=p99,
            feature_cache_hits=cache_hits,
            feature_cache_misses=cache_misses,
            feature_cache_evictions=cache_evictions,
            deadline_rejected=deadline_rejected,
            deadline_expired=deadline_expired,
            poison_isolated=poison_isolated,
            fallback_completed=fallback_completed,
            breaker_rejected=breaker_rejected,
            breaker_states={name: b.state for name, b in breakers.items()},
            outcomes_recorded=self.outcomes.total,
            fallback_unit_plans=fallback_unit_plans,
        )

    # ------------------------------------------------------------------
    # The coalescing drain loop (worker thread)
    # ------------------------------------------------------------------
    def _drain_loop(self) -> None:
        while True:
            with self._not_empty:
                while not self._queue and not self._stopping:
                    self._not_empty.wait()
                if not self._queue:
                    # Stopping and fully drained: settlement is this
                    # thread's to announce when a stop() join timed out.
                    self._settled.set()
                    return
                if not self._stopping and self.max_wait_ms > 0:
                    # Micro-batch window: linger after the first arrival
                    # so concurrent submitters coalesce into one fused
                    # forward.  Cut short by a full batch or by stop().
                    # Anchored at the oldest request's arrival, not this
                    # thread's wake-up: requests that queued while the
                    # previous batch executed don't pay a fresh window.
                    deadline = self._queue[0].submitted_at + self.max_wait_ms / 1e3
                    while len(self._queue) < self.max_batch_size and not self._stopping:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        self._not_empty.wait(remaining)
                take = min(self.max_batch_size, len(self._queue))
                if take == 0:
                    # Raced a drain=False stop that cleared the queue while
                    # we lingered in the window; re-check state from the top
                    # rather than record a phantom empty batch.
                    continue
                batch = [self._queue.popleft() for _ in range(take)]
            self._safe_execute(batch)

    def _safe_execute(self, batch: list[Prediction]) -> None:
        """Last-resort containment: the drain loop must survive anything.

        ``_execute`` forwards per-model failures to their handles, but a
        defect outside those guards (or a malformed duck-typed session)
        must not kill the worker — that would strand every pending
        future and hang ``stop()``.  Whatever escapes fails the batch's
        unfinished requests and the loop carries on.
        """
        try:
            self._execute(batch)
        except BaseException as error:  # noqa: BLE001 — forwarded to callers
            pending = [r for r in batch if not r.done()]
            with self._lock:
                self._failed += len(pending)
            for request in pending:
                request._fail(error)

    def _execute(self, batch: list[Prediction]) -> None:
        """Run one coalesced batch: one fused forward per routed model.

        The resilience pipeline, per batch: expired-deadline requests are
        shed first (no forward pass); each model group then runs behind
        its circuit breaker, with poison isolation recovering healthy
        requests from failing batches and the fallback chain (when
        configured) serving groups whose primary path is down.  Stats are
        committed *before* each request's event fires, so a caller who
        awaits its handles and then reads :meth:`stats` always sees the
        batch that produced its results.
        """
        with self._lock:
            self._batches += 1
            self._batch_sizes.append(len(batch))
        started = time.monotonic()
        batch = self._shed_expired(batch, started)
        by_model: dict[str, list[Prediction]] = {}
        for request in batch:
            by_model.setdefault(request.model, []).append(request)
        for name, requests in by_model.items():
            self._execute_model_group(name, requests)
        if batch:
            # Feed the deadline-admission predictor: drain-loop ms per
            # request, smoothed.  Measured around the whole batch (all
            # model groups) — that is what a queued request waits behind.
            sample = (time.monotonic() - started) * 1e3 / len(batch)
            with self._lock:
                rate = self._drain_ms_per_request
                self._drain_ms_per_request = (
                    sample
                    if rate is None
                    else (1.0 - DRAIN_EWMA_ALPHA) * rate + DRAIN_EWMA_ALPHA * sample
                )

    def _shed_expired(self, batch: list[Prediction], now: float) -> list[Prediction]:
        """Fail already-expired requests; return the still-live remainder."""
        live: list[Prediction] = []
        expired: list[Prediction] = []
        for request in batch:
            if request.deadline_at is None or request.deadline_at >= now:
                live.append(request)
            else:
                expired.append(request)
        if not expired:
            return batch
        with self._lock:
            self._failed += len(expired)
            self._deadline_expired += len(expired)
        for request in expired:
            budget = (request.deadline_at - request.submitted_at) * 1e3
            request._fail(
                DeadlineExceededError(
                    f"deadline of {budget:.1f}ms expired while queued "
                    f"(waited {(now - request.submitted_at) * 1e3:.1f}ms)",
                    deadline_ms=budget,
                    shed_at="execution",
                )
            )
        return live

    def _breaker_for(self, name: str) -> Optional[CircuitBreaker]:
        """The model's breaker, lazily created (None when disabled)."""
        breaker = self._breakers.get(name)
        if breaker is None and self.resilience.breaker_threshold > 0:
            with self._lock:
                breaker = self._breakers.get(name)
                if breaker is None:
                    breaker = self._breakers[name] = self.resilience.make_breaker()
        return breaker

    def _execute_model_group(self, name: str, requests: list[Prediction]) -> None:
        """One routed model's share of a coalesced batch, end to end."""
        policy = self.resilience
        try:
            # Resolved per batch, not per request: this is the hot-swap
            # point — a re-registered name takes effect on the next
            # executed batch.
            session = self.registry.session(name)
        except KeyError:
            self._fail_requests(requests, UnknownModelError(name, self.registry.names()))
            return
        breaker = self._breaker_for(name)
        if breaker is not None and not breaker.allow():
            # Open breaker: never touch the primary path.  Serve
            # degraded if a chain is configured, else fast typed
            # rejection.  Fallback outcomes do not feed the breaker —
            # only primary attempts are evidence about the primary.
            if policy.fallback is not None:
                self._run_fallback(
                    session, name, requests, CircuitOpenError(name, breaker.retry_after_ms())
                )
            else:
                with self._lock:
                    self._breaker_rejected += len(requests)
                self._fail_requests(
                    requests, CircuitOpenError(name, breaker.retry_after_ms())
                )
            return
        completed, poisoned, batch_error = self._run_primary(session, name, requests)
        if batch_error is not None:
            # Terminal whole-batch failure (nothing completed): breaker
            # evidence, then degrade or forward the underlying error.
            if breaker is not None:
                breaker.record_failure()
            if policy.fallback is not None:
                self._run_fallback(session, name, requests, batch_error)
            else:
                self._fail_requests(requests, batch_error)
            return
        if breaker is not None:
            if completed:
                breaker.record_success()
            elif poisoned:
                # Nothing completed (a singleton group whose one request
                # was poison): uniform with the multi-request case, a
                # batch that completed zero requests is breaker evidence.
                breaker.record_failure()
        if poisoned:
            with self._lock:
                self._poison_isolated += len(poisoned)
            self._fail_each(poisoned)
        self._complete_requests(completed)

    def _run_primary(
        self, session, name: str, requests: list[Prediction]
    ) -> tuple[
        list[tuple[Prediction, float]],
        list[tuple[Prediction, BaseException]],
        Optional[BaseException],
    ]:
        """Primary fused path with poison isolation.

        Returns ``(completed, poisoned, batch_error)``: per-request
        results and isolated per-request failures on (partial) success,
        or ``batch_error`` when the whole group failed terminally
        (nothing completed — the breaker's definition of a batch
        failure).
        """
        try:
            completed, poisoned, fragmented = self._isolate(session, name, requests)
        except BaseException as error:  # noqa: BLE001 — forwarded to callers
            return [], [], error
        if not completed and poisoned:
            # Every single request failed: indistinguishable from a dead
            # model, so surface it as a whole-batch failure (first
            # underlying error) for the breaker/fallback — unless the
            # group was a true singleton, where "the one request failed"
            # is precisely poison isolation working.
            if len(requests) > 1:
                return [], [], poisoned[0][1]
        if fragmented and completed:
            completed = self._recompute_survivors(session, name, completed)
        return completed, poisoned, None

    def _recompute_survivors(
        self, session, name: str, completed: list[tuple[Prediction, float]]
    ) -> list[tuple[Prediction, float]]:
        """Re-run all bisection survivors as ONE batch for stable bits.

        Sub-batch probe values are *correct* but not composition-stable:
        BLAS may pick different reduction kernels for different matrix
        heights, so a value computed in a bisection half can differ in
        the last bits from the same plan in a full batch.  Recomputing
        the complete survivor set in one ``predict_batch`` makes every
        delivered value bit-identical to a run that coalesced exactly
        these requests — and for a purely transient fault (no request
        poisoned) bit-identical to the fault-free run.  If the recompute
        itself fails (a second fault), the probe values stand: still
        correct, merely not bit-stable.
        """
        survivors = [request for request, _ in completed]
        try:
            values = self._predict_group(session, name, survivors)
        except BaseException:  # noqa: BLE001 — probe values remain valid
            return completed
        return list(zip(survivors, values))

    def _isolate(
        self, session, name: str, requests: list[Prediction]
    ) -> tuple[
        list[tuple[Prediction, float]],
        list[tuple[Prediction, BaseException]],
        bool,
    ]:
        """Bisection poison isolation around ``predict_batch``.

        A failing batch is split in half and each half retried, down to
        singletons: only the offending request(s) fail, with the
        underlying error, and every other request completes.
        :class:`NonFinitePrediction` short-circuits the bisection — the
        session names the poisoned rows, so the healthy remainder re-runs
        as one batch.  Transient faults (raise once, succeed on retry)
        recover with zero requests failed.

        The third return element flags *fragmented* results — values
        assembled from more than one ``predict_batch`` composition —
        which :meth:`_recompute_survivors` then replays as a single
        batch so delivered bits never depend on how the bisection split.
        """
        try:
            values = self._predict_group(session, name, requests)
            return list(zip(requests, values)), [], False
        except NonFinitePrediction as error:
            if error.indices is None:
                bad_set = set(range(len(requests)))
            else:
                bad_set = {i for i in error.indices if 0 <= i < len(requests)}
                if not bad_set:
                    bad_set = set(range(len(requests)))
            poisoned = [
                (
                    requests[i],
                    NonFinitePrediction(
                        error.model, [requests[i].plan.structure_signature()], [i]
                    ),
                )
                for i in sorted(bad_set)
            ]
            healthy = [r for i, r in enumerate(requests) if i not in bad_set]
            if not healthy:
                return [], poisoned, False
            # If the remainder completed in one call, its values already
            # come from exactly the survivor composition — not fragmented.
            completed, more, fragmented = self._isolate(session, name, healthy)
            return completed, poisoned + more, fragmented
        except BaseException as error:  # noqa: BLE001 — isolated below
            if not self.resilience.poison_isolation or len(requests) == 1:
                if len(requests) == 1:
                    return [], [(requests[0], error)], False
                raise
            mid = len(requests) // 2
            left_done, left_bad, _ = self._isolate(session, name, requests[:mid])
            right_done, right_bad, _ = self._isolate(session, name, requests[mid:])
            return left_done + right_done, left_bad + right_bad, True

    def _predict_group(
        self, session, name: str, requests: list[Prediction]
    ) -> list[float]:
        """One ``predict_batch`` call, with shape and finiteness validation.

        float() per value also validates the return shape of duck-typed
        sessions: scalars or ragged rows raise in here and fail the
        group, never the worker.  Non-finite values from duck-typed
        sessions (a real :class:`InferenceSession` raises on its own)
        are promoted to an indexed :class:`NonFinitePrediction` so the
        isolation layer treats them as poison rows, not a batch failure.
        """
        raw = session.predict_batch([r.plan for r in requests])
        values = [float(v) for v in raw]
        if len(values) != len(requests):
            raise ServiceError(
                f"model {name!r} session returned {len(values)} "
                f"predictions for {len(requests)} plans"
            )
        bad = [i for i, v in enumerate(values) if not np.isfinite(v)]
        if bad:
            raise NonFinitePrediction(
                repr(name),
                [requests[i].plan.structure_signature() for i in bad],
                bad,
            )
        return values

    def _run_fallback(
        self,
        session,
        name: str,
        requests: list[Prediction],
        primary_error: BaseException,
    ) -> None:
        """Serve a group through the fallback chain (degraded completion).

        If the whole chain is exhausted, requests fail with the chain's
        final error, chained onto the primary failure.
        """
        try:
            values, _tier = self.resilience.fallback.predict(
                session, [r.plan for r in requests]
            )
        except BaseException as chain_error:  # noqa: BLE001 — forwarded to callers
            chain_error.__cause__ = primary_error
            self._fail_requests(requests, chain_error)
            return
        with self._lock:
            self._fallback_completed += len(requests)
        self._complete_requests(list(zip(requests, values)))

    # -- settlement helpers (stats before events, always) ---------------
    def _complete_requests(self, completed: list[tuple[Prediction, float]]) -> None:
        if not completed:
            return
        # Vocabulary-coverage gauge: how many served plans carry at
        # least one ingest-fallback-degraded operator.  Counted here
        # (off the submit path, in the drain loop) by scanning for the
        # provenance property the ingest vocabulary stamps on degraded
        # nodes.
        degraded = sum(
            1
            for request, _ in completed
            if any(UNKNOWN_OP_PROP in node.props for node in request.plan.preorder())
        )
        now = time.monotonic()
        with self._lock:
            self._completed += len(completed)
            self._fallback_unit_plans += degraded
            self._latencies_ms.extend(
                (now - request.submitted_at) * 1e3 for request, _ in completed
            )
        group_size = len(completed)
        for request, value in completed:
            request._complete(value, group_size, now)

    def _fail_requests(self, requests: list[Prediction], error: BaseException) -> None:
        with self._lock:
            self._failed += len(requests)
        for request in requests:
            request._fail(error)

    def _fail_each(self, failures: list[tuple[Prediction, BaseException]]) -> None:
        with self._lock:
            self._failed += len(failures)
        for request, error in failures:
            request._fail(error)

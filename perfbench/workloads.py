"""The four benchmark workloads.

Each workload generates its inputs from the seed before anything is
timed, sets the system up several times (``setup_s`` is the median),
measures for the requested seconds, checks every output against a
reference computed at set-up, and returns a :class:`Outcome`.

``serve-*`` and ``observe-durable`` warm up on open-loop arrivals at a
nominal rate (see :mod:`loadgen`); an untraced run then saturates the
service with a closed loop for its throughput.  ``train-fit`` is a
closed loop of repeated ``Trainer.fit`` calls.  Traced runs measure
latency on open-loop arrivals instead: an untraced nominal phase, the
capacity ladder and a traced nominal phase (or untraced and traced
fits), so the per-layer figures and the tracing overhead come from the
same load.
"""

from __future__ import annotations

import gc
import math
import os
import re
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import loadgen
import layers
from speed import SpeedProbe
from tracing import Tracer

from repro import ingest
from repro.core import QPPNet, QPPNetConfig, Trainer
from repro.core.batching import plan_graph
from repro.evaluation.drift import DriftThresholds
from repro.featurize import Featurizer
from repro.plans.explain import explain_json
from repro.serving import InferenceSession, PredictionService
from repro.serving.recovery import ServiceRecovery
from repro.workload import Workbench

#: Served values must equal the set-up reference to this relative error.
REL_TOL = 1e-9
#: ``setup_s`` is the median of this many complete set-ups.
SETUPS = 5
#: Kernel calls of the speed probe before and after each set-up.
SETUP_PROBE_CALLS = 10
#: Share of a serving run spent warming up at the nominal rate before
#: anything is measured (transients after set-up and cache filling).
WARM_SHARE = 0.1
#: Requests the saturation phase keeps outstanding: four full batches
#: of the service's default ``max_batch_size`` (64), so the drain
#: thread always finds a full batch queued.
IN_FLIGHT = 256
#: Share of a traced serving run spent climbing the capacity ladder.
LADDER_SHARE = 0.3
#: The ladder's time is cut into this many rung attempts.  Ladders start
#: at about 60% of the knee and step by about 1.17x, so a run climbs
#: four rungs, then the failing one and its retry.
RUNGS_PER_RUN = 6
#: Drift thresholds no workload can trip: the lifecycle manager polls,
#: observes and snapshots, but never retrains.
#: Journal segment file names carry their first sequence number.
SEGMENT_NAME = re.compile(r"^segment-(\d+)\.wal$")
UNTRIGGERABLE = DriftThresholds(error_ratio=1e9, ph_threshold=1e9, unseen_rate=1.01)


@dataclass
class Outcome:
    """What one run measured, before it is reduced to metrics."""

    end_to_end: dict
    per_layer: dict
    attempted: int
    failed: int
    correct: bool
    inputs: dict
    problems: list = field(default_factory=list)


def median_setup(build, teardown) -> tuple[object, float]:
    """Run the full set-up ``SETUPS`` times; keep the last, report the median.

    Each set-up is timed in process CPU seconds (every thread) at
    reference speed, for the reasons :func:`loadgen.run_saturated` and
    :mod:`speed` give; a probe burst just before and just after each
    set-up measures the host's speed.
    """
    times = []
    result = None
    for attempt in range(SETUPS):
        if result is not None:
            teardown(result)
        gc.collect()
        probe = SpeedProbe()
        probe.probe(SETUP_PROBE_CALLS)
        start = time.process_time()
        result = build()
        seconds = time.process_time() - start
        probe.probe(SETUP_PROBE_CALLS)
        times.append(seconds / probe.factor)
    return result, statistics.median(times)


def train_model(samples, epochs: int) -> QPPNet:
    """Featurizer fit plus a fused-engine fit (model seed fixed)."""
    featurizer = Featurizer().fit([s.plan for s in samples])
    config = QPPNetConfig(epochs=epochs)
    model = QPPNet(featurizer, config)
    Trainer(model, config).fit(samples)
    return model


def reference_values(model: QPPNet, plans, chunk: int = 256) -> np.ndarray:
    """Predictions from an independent copy of ``model``.

    A separate model object has its own level-plan and feature caches,
    so computing references leaves the served model's caches cold.
    """
    twin = QPPNet(model.featurizer, model.config)
    twin.load_state_dict(model.state_dict())
    session = InferenceSession(twin)
    return np.concatenate(
        [session.predict_batch(plans[i : i + chunk]) for i in range(0, len(plans), chunk)]
    )


def identity_keys(model: QPPNet, plans) -> list:
    """The feature cache's plan-identity digest of each plan.

    The share of requests whose identity repeats within a run is the
    share the feature cache can serve.
    """
    programs = model.featurizer.compiled()
    return [programs.digest(plan_graph(p), list(p.preorder())) for p in plans]


def plan_shape(plans) -> dict:
    nodes = [p.node_count() for p in plans]
    return {
        "distinct_structures": len({p.structure_signature() for p in plans}),
        "mean_nodes": round(float(np.mean(nodes)), 3),
        "max_nodes": int(max(nodes)),
    }


def matches(value: float, expected: float) -> bool:
    return abs(value - expected) <= REL_TOL * max(1.0, abs(expected))


def gc_settle() -> None:
    """Collect, then freeze what set-up left, before measuring.

    Inputs generated for the run (thousands of plan trees, EXPLAIN
    texts) would otherwise be rescanned by every full collection and
    show up as benchmark-made latency spikes; freezing moves them out of
    the collector's reach.  Objects the system creates while serving
    are collected as usual and counted in ``gc.*``.
    """
    gc.collect()
    gc.freeze()


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------
class ServingWorkload:
    """Open-loop serving: nominal phase, then the capacity ladder."""

    name = ""
    why = ""
    engine = "tpch"
    train_queries = 400
    train_epochs = 25
    pool_size = 256
    nominal_rate = 1000.0
    ladder: tuple = ()
    #: One latency objective for every serving workload: a median of
    #: 25 ms from due time, a small share of a query's planning-plus-run
    #: budget and far above the unloaded median (about 5 ms).
    limit_ms = 25.0

    def __init__(self, seed: int, tiny: bool, work_dir: Path) -> None:
        self.seed = seed
        if tiny:
            self.train_queries = 60
            self.train_epochs = 2
            self.pool_size = min(self.pool_size, 48)
            self.nominal_rate = 100.0
            self.ladder = (150.0, 200.0)
        # Arrival times (the pool order has its own stream).
        self.rng = np.random.default_rng([seed, 1])
        self.fallback_ops = 0

    # -- inputs (not timed) ---------------------------------------------
    def make_inputs(self) -> None:
        """One database, one offline-trained model and one fixed pool.

        The seed draws the order in which pool bindings are requested
        and the arrival times.  Fixing the pool keeps the structure mix
        (and so batch cost and accuracy) the same population on every
        seed, which is what makes the figures comparable across seeds.
        """
        bench = Workbench(self.engine, scale_factor=1.0, seed=0)
        self.train = bench.generate(self.train_queries, rng=np.random.default_rng(0))
        self.weights = train_model(self.train, self.train_epochs).state_dict()
        self.pool = bench.generate(self.pool_size, rng=np.random.default_rng(1))
        self.actual_ms = np.array([s.latency_ms for s in self.pool])
        self.served_plans = [s.plan for s in self.pool]
        # Request k serves pool item order[k % len(order)].
        self.order = np.random.default_rng(self.seed).integers(
            0, self.pool_size, size=1 << 16
        )

    def item(self, k: int) -> int:
        return int(self.order[k % self.order.size])

    # -- set-up (timed) -------------------------------------------------
    def load_model(self) -> QPPNet:
        """Featurizer fit and model build from the offline weights."""
        featurizer = Featurizer().fit([s.plan for s in self.train])
        model = QPPNet(featurizer, QPPNetConfig(epochs=self.train_epochs))
        model.load_state_dict(self.weights)
        return model

    def build(self):
        model = self.load_model()
        service = PredictionService(model).start()
        self.warm_up(service)
        return model, service

    def warm_up(self, service) -> None:
        """Serve every pool plan once: the feature cache holds the pool."""
        for handle in [service.submit(p) for p in self.served_plans]:
            handle.result(60)

    def teardown(self, built) -> None:
        built[1].stop()

    def service_of(self, built):
        return built[1]

    # -- the generator's client -----------------------------------------
    def send(self, k: int):
        return self.service.submit(self.served_plans[self.item(k)])

    def check(self, k: int, value: float) -> bool:
        return matches(value, self.expected[self.item(k)])

    def settle(self, k: int, handle) -> None:
        pass

    # -- the run --------------------------------------------------------
    def run(self, seconds: float, trace: bool) -> Outcome:
        self.make_inputs()
        self.tracer = tracer = Tracer() if trace else None
        built, setup_s = median_setup(self.build, self.teardown)
        self.model = built[0]
        self.service = self.service_of(built)
        self.expected = reference_values(self.model, self.served_plans)
        self.fill_caches()
        gc_settle()
        started = time.monotonic()
        cpu0 = time.process_time()
        if trace:
            phases, rungs, traced = self.traced_phases(seconds, tracer)
            saturated = None
        else:
            phases, saturated = self.timed_phases(seconds)
            rungs, traced = [], None
        cpu = time.process_time() - cpu0
        wall = time.monotonic() - started
        extra = self.finish(built, tracer)
        gc.unfreeze()
        sent_items = np.concatenate([self.items_of(p) for p in phases])
        distinct = np.unique(sent_items)
        keys = identity_keys(self.model, [self.served_plans[i] for i in distinct])
        repeats = 1.0 - len(set(keys)) / max(1, sent_items.size)
        inputs = {
            **plan_shape(self.served_plans),
            "pool_bindings": self.pool_size,
            "identity_repeat_share": round(repeats, 4),
            "nominal_rate": self.nominal_rate,
            "ladder": list(self.ladder),
            "limit_ms": self.limit_ms,
        }
        sent = sum(p.sent for p in phases)
        errors = sum(p.errors for p in phases)
        # Accuracy over the pool: every served value equals its
        # reference, and requests cover the pool uniformly, so this is
        # the request-weighted error without one seed's sampling noise.
        rel = np.abs(self.expected - self.actual_ms) / self.actual_ms
        end_to_end = {
            "throughput_per_s": saturated.rate if saturated else 0.0,
            "success_rate": 1.0 - errors / max(1, sent),
            "rel_error": float(np.mean(rel)),
            "setup_s": setup_s,
        }
        if saturated is not None:
            inputs["saturation"] = {
                "in_flight": saturated.in_flight,
                "sent": saturated.sent,
                "counted": saturated.counted,
                "per_cpu_s": round(saturated.rate_cpu, 1),
                "per_wall_s": round(saturated.counted / max(saturated.wall_s, 1e-9), 1),
                "speed": saturated.probe.summary(),
            }
        inputs["rungs"] = [
            {"rate": p.rate, "sent": p.sent, "p50_ms": round(p.p(50), 3),
             "p99_ms": round(p.p(99), 3), "severity": round(p.severity(self.limit_ms), 4)}
            for attempts in rungs for p in attempts
        ]
        per_layer = {}
        if trace:
            per_layer = layers.serving_metrics(
                tracer, phases[:2], traced, self, extra, cpu / wall
            )
            # Latency of the untraced nominal phase.
            inputs["latency_samples"] = phases[0].sent
            per_layer["latency_p50_ms"] = loadgen.windowed_percentile(phases[:1], 50)
            per_layer["latency_p99_ms"] = loadgen.windowed_percentile(phases[:1], 99)
            per_layer["capacity_rps"] = loadgen.capacity(rungs, self.limit_ms)
        problems = [f"{name}: {detail}" for name, detail in extra.get("problems", [])]
        return Outcome(
            end_to_end,
            per_layer,
            attempted=sent,
            failed=errors,
            correct=errors == 0 and not problems,
            inputs=inputs,
            problems=problems,
        )

    def items_of(self, phase) -> np.ndarray:
        return np.array([self.item(int(k)) for k in phase.items], dtype=int)

    def timed_phases(self, seconds: float) -> tuple[list, loadgen.Saturation]:
        """Warm-up, then saturation for the rest of the run.

        Returns every phase and the saturation phase.
        """
        warm = self.warm(seconds)
        saturated = loadgen.run_saturated(
            self, seconds - warm.seconds, IN_FLIGHT, warm.sent
        )
        return [saturated, warm], saturated

    def warm(self, seconds: float):
        """Untimed open-loop warm-up at the nominal rate (still checked)."""
        return loadgen.run_phase(self, self.nominal_rate, seconds * WARM_SHARE, self.rng)

    def traced_phases(self, seconds: float, tracer: Tracer):
        """Untraced nominal phase, the ladder, then a traced nominal phase.

        The gap between the two nominal phases is the tracing overhead.
        Returns every phase (the nominal ones first), the ladder's
        attempts per rung and the counters around the traced phase.
        """
        warm = self.warm(seconds)
        ladder_s = seconds * LADDER_SHARE
        half_s = (seconds - warm.seconds - ladder_s) / 2
        plain = loadgen.run_phase(self, self.nominal_rate, half_s, self.rng, warm.sent)
        rungs = loadgen.run_ladder(
            self, list(self.ladder), ladder_s / RUNGS_PER_RUN, self.limit_ms,
            self.rng, warm.sent + plain.sent, budget_s=ladder_s,
        )
        climbed = [a for attempts in rungs for a in attempts]
        sent = warm.sent + plain.sent + sum(a.sent for a in climbed)
        self.instrument(tracer)
        cache = self.session().feature_cache
        levels = self.model.level_plans
        before = (cache.hits, cache.misses, levels.hits, levels.misses,
                  self.service.stats())
        with tracer:
            traced = loadgen.run_phase(self, self.nominal_rate, half_s, self.rng, sent)
        after = (cache.hits, cache.misses, levels.hits, levels.misses,
                 self.service.stats())
        return [plain, traced, *climbed, warm], rungs, {"before": before, "after": after}

    def session(self):
        return self.service.registry.session(self.service.default_model)

    def instrument(self, tracer: Tracer) -> None:
        layers.instrument_serving(tracer, self.service, self.session())

    def fill_caches(self) -> None:
        """Bring caches to their steady state before timing (warm-up did)."""

    def finish(self, built, tracer: Optional[Tracer]) -> dict:
        self.teardown(built)
        return {}


class ServeRepeat(ServingWorkload):
    name = "serve-repeat"
    why = (
        "TPC-H plans drawn from 256 bindings, far below the 4096-entry "
        "feature cache: admission, resolve, digest, coalescing and the "
        "fused forward do the work"
    )
    nominal_rate = 500.0
    ladder = (1800.0, 2100.0, 2450.0, 2850.0, 3300.0, 3850.0, 4500.0)


class ServeColdExplain(ServingWorkload):
    name = "serve-cold-explain"
    why = (
        "TPC-DS EXPLAIN JSON parsed then served, cycling more bindings "
        "than the feature cache holds: ingest, feature programs and "
        "level-plan compiles do the work"
    )
    engine = "tpcds"
    pool_size = 4608
    nominal_rate = 250.0
    ladder = (380.0, 450.0, 530.0, 620.0, 730.0, 860.0, 1000.0)

    def make_inputs(self) -> None:
        super().make_inputs()
        # Fixed cyclic order over more bindings than the LRU holds, so a
        # plan's previous visit is always evicted before it returns; the
        # seed picks where in the cycle the run starts.
        start = np.random.default_rng(self.seed).integers(self.pool_size)
        self.order = np.roll(np.arange(self.pool_size), -start)
        self.docs = [explain_json(p, analyze=True) for p in self.served_plans]
        # The served plan of each request is what ingest makes of the
        # text; the reference is computed on the same parse.
        self.served_plans = [ingest.parse(d, "postgres")[0].plan for d in self.docs]

    def warm_up(self, service) -> None:
        """Serve the training plans (disjoint from the pool) once."""
        for doc in self.docs[:8]:
            ingest.parse(doc, "postgres")
        for handle in [service.submit(s.plan) for s in self.train]:
            handle.result(60)

    def fill_caches(self) -> None:
        """Serve the 4096 bindings before the cycle's start, untimed.

        A long-running service under this traffic has a full feature
        cache that never hits; filling it here measures that steady
        state instead of the first minute of one.  The bindings precede
        the start in cycle order, so the measured stream still misses.
        """
        session = self.session()
        size = session.feature_cache.max_entries
        last = self.order[0] + self.pool_size
        earlier = [self.served_plans[i % self.pool_size] for i in range(last - size, last)]
        for i in range(0, len(earlier), 64):
            session.predict_batch(earlier[i : i + 64])

    def send(self, k: int):
        parsed = ingest.parse(self.docs[self.item(k)], "postgres")[0]
        self.fallback_ops += len(parsed.fallback_ops)
        return self.service.submit(parsed.plan)


class ObserveDurable(ServingWorkload):
    name = "observe-durable"
    why = (
        "serve-repeat's pool on a journaled, drift-monitored stack, each "
        "result observed once, then the stack recovered: journal, drift, "
        "poll and replay do the work"
    )
    nominal_rate = 350.0
    ladder = (900.0, 1050.0, 1230.0, 1440.0, 1680.0, 1970.0, 2300.0)

    def __init__(self, seed: int, tiny: bool, work_dir: Path) -> None:
        super().__init__(seed, tiny, work_dir)
        self.state_dir = work_dir / f"state-{os.getpid()}"
        self.observed = 0
        self.observe_us: list[float] = []

    def build(self):
        shutil.rmtree(self.state_dir, ignore_errors=True)
        model = self.load_model()
        stack = ServiceRecovery.create(
            self.state_dir,
            model,
            baseline_rel_error=1.0,
            thresholds=UNTRIGGERABLE,
            known_signatures={p.structure_signature() for p in self.served_plans},
            # The seam is in place from the first append; it records
            # only while the tracer is armed.
            fsync_fn=(
                self.tracer.wrap("journal.fsync", os.fsync)
                if self.tracer is not None
                else None
            ),
        )
        stack.service.start()
        stack.manager.start()
        self.warm_up(stack.service)
        return model, stack

    def teardown(self, built) -> None:
        built[1].close()

    def service_of(self, built):
        self.stack = built[1]
        return built[1].service

    def settle(self, k: int, handle) -> None:
        start = time.monotonic()
        handle.observe(float(self.actual_ms[self.item(k)]))
        self.observe_us.append((time.monotonic() - start) * 1e6)
        self.observed += 1

    def instrument(self, tracer: Tracer) -> None:
        super().instrument(tracer)
        layers.instrument_durable(tracer, self.stack)

    def run(self, seconds: float, trace: bool) -> Outcome:
        try:
            return super().run(seconds, trace)
        finally:
            shutil.rmtree(self.state_dir, ignore_errors=True)

    def finish(self, built, tracer: Optional[Tracer]) -> dict:
        stack = built[1]
        lost = stack.manager.outcomes_lost
        manager_errors = len(stack.manager.errors)
        state = stack.manager.state
        stack.close()
        io_errors = stack.journal.io_errors
        # The segments recovery will scan (its own first poll may prune).
        segments = stack.journal.segments()
        if tracer is not None:
            layers.instrument_recovery(tracer)
            tracer.armed = True
        start = time.monotonic()
        recovered = ServiceRecovery.recover(self.state_dir)
        recovery_s = time.monotonic() - start
        if tracer is not None:
            tracer.armed = False
            tracer.unpatch()
        report = recovered.report
        recovered.close()
        # Snapshots prune whole segments behind the drift cursor, so the
        # replay is a suffix: it must end at the last observed record,
        # run without a gap from the oldest retained segment, and bring
        # the drift state up to that record.
        first_seq = int(SEGMENT_NAME.match(segments[0].name).group(1)) if segments else 1
        problems = []
        if report.max_seq != self.observed:
            problems.append(
                ("replay", f"last replayed seq {report.max_seq}, {self.observed} observed")
            )
        if report.replayed_records != report.max_seq - first_seq + 1:
            problems.append(
                ("replay", f"{report.replayed_records} records replayed from seq "
                           f"{first_seq} to {report.max_seq}")
            )
        if report.snapshot_cursor + report.suffix_observed != report.max_seq:
            problems.append(("drift", "recovered drift state is behind the journal"))
        damage = report.corrupt_records + report.corrupt_segments + report.torn_tail_bytes
        if damage:
            problems.append(("replay", f"journal damage {damage}"))
        if io_errors:
            problems.append(("journal", f"{io_errors} io_errors"))
        if manager_errors or state != "live":
            problems.append(("lifecycle", f"state {state}, {manager_errors} errors"))
        return {
            "recovery_s": recovery_s,
            "replayed": report.replayed_records,
            "outcomes_lost": lost,
            "io_errors": io_errors,
            "problems": problems,
        }


# ----------------------------------------------------------------------
# Training workload
# ----------------------------------------------------------------------
class TrainFit:
    """Repeated ``Trainer.fit`` of a fresh model on one fixed corpus."""

    name = "train-fit"
    why = (
        "Trainer.fit on 2000 TPC-H plans with a 10% holdout, the only "
        "workload that runs pre-grouping, backward, clip and the "
        "optimizer step"
    )
    queries = 2000
    holdout_share = 0.1
    epochs = 20

    def __init__(self, seed: int, tiny: bool, work_dir: Path) -> None:
        # The seed labels the run only: see make_inputs.
        if tiny:
            self.queries = 120
            self.epochs = 2
        self.config = QPPNetConfig(epochs=self.epochs)

    def make_inputs(self) -> None:
        """The same corpus, split and model seed on every run.

        Held-out error then measures the training code, not the draw:
        across model seeds alone it spreads by about 17% at this fit
        length, more than any bound could absorb.
        """
        bench = Workbench("tpch", scale_factor=1.0, seed=0)
        corpus = bench.generate(self.queries, rng=np.random.default_rng(0))
        order = np.random.default_rng(1).permutation(len(corpus))
        cut = int(round(len(corpus) * self.holdout_share))
        self.holdout = [corpus[i] for i in order[:cut]]
        self.train = [corpus[i] for i in order[cut:]]

    def build(self) -> Featurizer:
        """Featurizer fit, model build and a one-epoch warm-up fit."""
        featurizer = Featurizer().fit([s.plan for s in self.train])
        model = QPPNet(featurizer, self.config)
        Trainer(model, self.config).fit(self.train[:256], epochs=1)
        return featurizer

    def fit_once(self, featurizer, tracer: Optional[Tracer], probe: SpeedProbe):
        """One fit; returns (model, history, CPU seconds, step intervals ms).

        Fits are timed on process CPU time (see
        :func:`loadgen.run_saturated` for why); the trainer runs on this
        thread alone, so on an idle machine that equals its wall time.
        ``probe`` runs between optimizer updates and its CPU time is
        left out.  A step interval is the CPU time between consecutive
        updates: batch assembly, forward, backward, clip and step.
        """
        model = QPPNet(featurizer, self.config)
        trainer = Trainer(model, self.config)
        stamps: list[float] = []
        step = trainer.optimizer.step_flat

        def timed_step(space) -> None:
            step(space)
            stamps.append(time.process_time() - probe.spent_s)
            probe.maybe()

        trainer.optimizer.step_flat = timed_step
        if tracer is not None:
            layers.instrument_optimizer(tracer, trainer)
        spent = probe.spent_s
        start = time.process_time()
        history = trainer.fit(self.train)
        seconds = time.process_time() - start - (probe.spent_s - spent)
        return model, history, seconds, list(np.diff(stamps) * 1e3)

    def run(self, seconds: float, trace: bool) -> Outcome:
        self.make_inputs()
        featurizer, setup_s = median_setup(self.build, lambda built: None)
        gc_settle()
        self.tracer = tracer = Tracer() if trace else None
        fits = []  # (model, history, seconds, steps, traced)
        probe, traced_probe = SpeedProbe(), SpeedProbe()
        started = time.monotonic()
        cpu0 = time.process_time()
        # Untraced fits fill the run (or its first half when tracing).
        plain_until = started + (seconds / 2 if trace else seconds)
        while not fits or time.monotonic() < plain_until:
            fits.append((*self.fit_once(featurizer, None, probe), False))
        if trace:
            layers.instrument_training(tracer)
            with tracer:
                while not fits[-1][4] or time.monotonic() < started + seconds:
                    fits.append((*self.fit_once(featurizer, tracer, traced_probe), True))
        cpu = time.process_time() - cpu0
        wall = time.monotonic() - started
        gc.unfreeze()

        problems = []
        losses = {fit[1].final_loss for fit in fits}
        if len(losses) != 1 or not all(math.isfinite(x) for x in losses):
            problems.append(f"fits disagree or diverge: final losses {sorted(losses)}")
        model = fits[-1][0]
        plans = [s.plan for s in self.holdout]
        actual = np.array([s.latency_ms for s in self.holdout])
        served = InferenceSession(model).predict_batch(plans)
        oracle = np.array([model.predict(p) for p in plans])
        wrong = sum(
            1 for got, want in zip(served, oracle)
            if not (math.isfinite(got) and matches(got, want))
        )
        if wrong:
            problems.append(f"{wrong} holdout predictions differ from model.predict")
        attempted = len(plans) + len(fits)
        failed = wrong + (len(fits) if len(losses) != 1 else 0)
        plain = [fit for fit in fits if not fit[4]]
        steps = [ms for fit in plain for ms in fit[3]]
        end_to_end = {
            # Plans trained per CPU second at reference speed over all
            # the run's fits (pre-grouping and epoch bookkeeping
            # included): a mean over the whole run, which a machine whose
            # speed switches every few seconds moves less than a median
            # over a handful of fits.
            "throughput_per_s": probe.factor * (
                len(self.train) * self.epochs * len(plain) / sum(fit[2] for fit in plain)
            ),
            "success_rate": 1.0 - failed / attempted,
            "rel_error": float(np.mean(np.abs(served - actual) / actual)),
            "setup_s": setup_s,
        }
        per_layer = {}
        if trace:
            traced_steps = [ms for fit in fits if fit[4] for ms in fit[3]]
            batches = len(tracer.by_name().get("trainer.loss_backward", []))
            per_layer = layers.training_metrics(
                tracer, steps, traced_steps, batches, cpu / wall
            )
            per_layer["latency_p50_ms"] = float(np.median(steps))
            per_layer["latency_p99_ms"] = float(np.percentile(steps, 99))
        inputs = {
            **plan_shape([s.plan for s in self.train]),
            "train_plans": len(self.train),
            "holdout_plans": len(self.holdout),
            "epochs_per_fit": self.epochs,
            "fits": len(fits),
            "latency_samples": len(steps),
            "per_cpu_s": round(
                len(self.train) * self.epochs * len(plain) / sum(fit[2] for fit in plain), 1
            ),
            "speed": probe.summary(),
        }
        return Outcome(
            end_to_end,
            per_layer,
            attempted=attempted,
            failed=failed,
            correct=not problems,
            inputs=inputs,
            problems=problems,
        )


WORKLOADS = {
    w.name: w for w in (ServeRepeat, ServeColdExplain, ObserveDurable, TrainFit)
}

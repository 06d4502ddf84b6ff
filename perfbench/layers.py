"""Per-layer seams and the per-layer metrics computed from their spans.

Every seam wraps a public callable of one layer (named by its module),
so no file of the program changes.  Metric names are
``<layer>.<figure>``; a layer a workload does not exercise reports 0.
"""

from __future__ import annotations

import numpy as np

from tracing import END, START, WORK, Tracer, durations_ms, p50, per_unit_us

from repro.core.batching import PreGroupedCorpus
from repro.core.levels import LevelPlan
from repro.core.trainer import Trainer
from repro.featurize.compiled import FeatureProgram
from repro.nn.optim import FlatParameterSpace
from repro.serving import journal as journal_module
from repro.serving import service as service_module
from repro.serving.journal import OutcomeJournal
from repro.serving.registry import ModelRegistry
import repro.ingest

#: Every per-layer metric and its unit, in report order.
UNITS = {
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "capacity_rps": "1/s",
    "loadgen.sent": "count",
    "loadgen.late_p99_ms": "ms",
    "ingest.parse_us_p50": "us",
    "ingest.docs": "count",
    "ingest.fallback_ops": "count",
    "validate.us_per_plan": "us",
    "service.submit_us_p50": "us",
    "service.queue_wait_ms_p50": "ms",
    "service.queue_wait_ms_p99": "ms",
    "service.batch_size_mean": "count",
    "service.batches": "count",
    "service.rejected": "count",
    "service.failed": "count",
    "session.predict_batch_ms_p50": "ms",
    "session.self_us_per_plan": "us",
    "session.feature_cache_hit_frac": "fraction",
    "featurize.digest_us_per_plan": "us",
    "featurize.program_us_per_node": "us",
    "levels.plan_cache_hit_frac": "fraction",
    "levels.compile_ms_total": "ms",
    "levels.compile_count": "count",
    "levels.forward_ms_p50": "ms",
    "levels.forward_training_ms_p50": "ms",
    "levels.backward_ms_p50": "ms",
    "trainer.loss_backward_ms_p50": "ms",
    "trainer.batches": "count",
    "optim.clip_ms_p50": "ms",
    "optim.step_ms_p50": "ms",
    "batching.pregroup_s": "s",
    "journal.encode_us_p50": "us",
    "journal.bytes_per_record": "bytes",
    "journal.append_us_p50": "us",
    "journal.fsync_ms_p50": "ms",
    "journal.fsyncs": "count",
    "journal.io_errors": "count",
    "observe_p99_ms": "ms",
    "drift.observe_us_p50": "us",
    "lifecycle.poll_ms_p50": "ms",
    "lifecycle.outcomes_lost": "count",
    "recovery_s": "s",
    "recovery.replay_s": "s",
    "recovery.replay_records_per_s": "1/s",
    "recovery.bundle_load_s": "s",
    "gc.pause_ms_total": "ms",
    "gc.gen2_collections": "count",
    "process.cpu_util": "fraction",
    "error_rate": "fraction",
    "trace.overhead_ms": "ms",
    "trace.spans": "count",
}


def _count(args, result) -> int:
    return len(args[1])


# ----------------------------------------------------------------------
# Seams
# ----------------------------------------------------------------------
def instrument_serving(tracer: Tracer, service, session) -> None:
    """Submit, validate, session, featurize and level-plan seams."""
    tracer.patch(service, "submit", "service.submit")
    tracer.patch(service_module, "validate_plan", "validate.plan")
    tracer.patch(repro.ingest, "parse", "ingest.parse")
    tracer.patch(session, "predict_batch", "session.predict_batch",
                 work=lambda args, result: len(args[0]))
    tracer.patch(session.programs, "digests", "featurize.digests",
                 work=lambda args, result: len(args[1]))
    tracer.patch(FeatureProgram, "run", "featurize.program", work=_count)
    tracer.patch(LevelPlan, "__init__", "levels.compile")
    tracer.patch(LevelPlan, "forward_inference", "levels.forward")


def instrument_durable(tracer: Tracer, stack) -> None:
    """Journal, drift and lifecycle seams (fsync is wired at creation)."""
    tracer.patch(journal_module, "encode_record", "journal.encode",
                 work=lambda args, result: len(result))
    tracer.patch(stack.journal, "append", "journal.append")
    tracer.patch(stack.monitor, "observe", "drift.observe")
    tracer.patch(stack.manager, "poll", "lifecycle.poll")


def instrument_recovery(tracer: Tracer) -> None:
    tracer.patch(OutcomeJournal, "recover", "recovery.replay",
                 work=lambda args, result: len(result.records))
    tracer.patch(ModelRegistry, "load", "recovery.bundle_load")


def instrument_training(tracer: Tracer) -> None:
    """Pre-grouping, forward, backward and clip seams of every fit.

    The optimizer step is per trainer: see :func:`instrument_optimizer`.
    """
    tracer.patch(PreGroupedCorpus, "from_samples", "batching.pregroup")
    tracer.patch(Trainer, "fused_loss_backward", "trainer.loss_backward")
    tracer.patch(LevelPlan, "__init__", "levels.compile")
    tracer.patch(LevelPlan, "forward_training", "levels.forward_training")
    tracer.patch(LevelPlan, "backward", "levels.backward")
    tracer.patch(FlatParameterSpace, "clip_grad_norm_", "optim.clip")


def instrument_optimizer(tracer: Tracer, trainer) -> None:
    tracer.patch(trainer.optimizer, "step_flat", "optim.step")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _common(tracer: Tracer, cpu_util: float, overhead_ms: float) -> dict:
    metrics = dict.fromkeys(UNITS, 0.0)
    pauses = tracer.gc_pauses
    metrics["gc.pause_ms_total"] = sum(seconds for _, seconds in pauses) * 1e3
    metrics["gc.gen2_collections"] = sum(1 for gen, _ in pauses if gen == 2)
    metrics["process.cpu_util"] = cpu_util
    metrics["trace.overhead_ms"] = overhead_ms
    metrics["trace.spans"] = len(tracer.spans)
    return metrics


def _frac(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _queue_waits(phase, batches: list) -> np.ndarray:
    """Submit -> start of the ``predict_batch`` that served each request.

    The drain thread runs batches one at a time, so a request's batch is
    the last one to end before the request settled.
    """
    if not batches:
        return np.zeros(0)
    ends = np.array([s[END] for s in batches])
    starts = np.array([s[START] for s in batches])
    order = np.argsort(ends)
    ends, starts = ends[order], starts[order]
    settled = phase.done_at > 0
    index = np.searchsorted(ends, phase.done_at[settled], side="right") - 1
    valid = index >= 0
    return (starts[index[valid]] - phase.submitted_at[settled][valid]) * 1e3


def serving_metrics(tracer, phases, counters, workload, extra, cpu_util) -> dict:
    plain, traced = phases
    spans = tracer.by_name()
    own = tracer.self_seconds()
    metrics = _common(tracer, cpu_util, traced.p(50) - plain.p(50))
    hits0, misses0, lhits0, lmisses0, stats0 = counters["before"]
    hits1, misses1, lhits1, lmisses1, stats1 = counters["after"]
    batches = spans.get("session.predict_batch", [])
    waits = _queue_waits(traced, batches)
    parse = spans.get("ingest.parse", [])
    compiles = spans.get("levels.compile", [])
    metrics.update({
        "loadgen.sent": traced.sent,
        "loadgen.late_p99_ms": float(np.percentile(traced.late_ms, 99)),
        "ingest.parse_us_p50": p50(durations_ms(parse)) * 1e3,
        "ingest.docs": len(parse),
        "ingest.fallback_ops": workload.fallback_ops,
        "validate.us_per_plan": per_unit_us(spans.get("validate.plan", [])),
        "service.submit_us_p50": p50(durations_ms(spans.get("service.submit", []))) * 1e3,
        "service.queue_wait_ms_p50": float(np.percentile(waits, 50)) if waits.size else 0.0,
        "service.queue_wait_ms_p99": float(np.percentile(waits, 99)) if waits.size else 0.0,
        "service.batch_size_mean": (
            sum(s[WORK] for s in batches) / len(batches) if batches else 0.0
        ),
        "service.batches": stats1.batches - stats0.batches,
        "service.rejected": stats1.rejected - stats0.rejected,
        "service.failed": stats1.failed - stats0.failed,
        "session.predict_batch_ms_p50": p50(durations_ms(batches)),
        "session.self_us_per_plan": per_unit_us(batches, own),
        "session.feature_cache_hit_frac": _frac(hits1 - hits0, misses1 - misses0),
        "featurize.digest_us_per_plan": per_unit_us(spans.get("featurize.digests", [])),
        "featurize.program_us_per_node": per_unit_us(spans.get("featurize.program", [])),
        "levels.plan_cache_hit_frac": _frac(lhits1 - lhits0, lmisses1 - lmisses0),
        "levels.compile_ms_total": float(durations_ms(compiles).sum()),
        "levels.compile_count": len(compiles),
        "levels.forward_ms_p50": p50(durations_ms(spans.get("levels.forward", []))),
    })
    if "recovery_s" in extra:
        encode = spans.get("journal.encode", [])
        replay = spans.get("recovery.replay", [])
        replay_s = sum(s[END] - s[START] for s in replay)
        observe = np.asarray(workload.observe_us[-traced.ok:] if traced.ok else [])
        metrics.update({
            "journal.encode_us_p50": p50(durations_ms(encode)) * 1e3,
            "journal.bytes_per_record": (
                sum(s[WORK] for s in encode) / len(encode) if encode else 0.0
            ),
            "journal.append_us_p50": p50(durations_ms(spans.get("journal.append", []))) * 1e3,
            "journal.fsync_ms_p50": p50(durations_ms(spans.get("journal.fsync", []))),
            "journal.fsyncs": len(spans.get("journal.fsync", [])),
            "journal.io_errors": extra["io_errors"],
            "observe_p99_ms": float(np.percentile(observe, 99)) / 1e3 if observe.size else 0.0,
            "drift.observe_us_p50": p50(durations_ms(spans.get("drift.observe", []))) * 1e3,
            "lifecycle.poll_ms_p50": p50(durations_ms(spans.get("lifecycle.poll", []))),
            "lifecycle.outcomes_lost": extra["outcomes_lost"],
            "recovery_s": extra["recovery_s"],
            "recovery.replay_s": replay_s,
            "recovery.replay_records_per_s": (
                sum(s[WORK] for s in replay) / replay_s if replay_s else 0.0
            ),
            "recovery.bundle_load_s": sum(
                s[END] - s[START] for s in spans.get("recovery.bundle_load", [])
            ),
        })
    return metrics


def training_metrics(tracer, plain_steps, traced_steps, batches, cpu_util) -> dict:
    spans = tracer.by_name()
    metrics = _common(tracer, cpu_util, p50(traced_steps) - p50(plain_steps))
    pregroup = spans.get("batching.pregroup", [])
    compiles = spans.get("levels.compile", [])
    metrics.update({
        "levels.compile_ms_total": float(durations_ms(compiles).sum()),
        "levels.compile_count": len(compiles),
        "levels.forward_training_ms_p50": p50(
            durations_ms(spans.get("levels.forward_training", []))
        ),
        "levels.backward_ms_p50": p50(durations_ms(spans.get("levels.backward", []))),
        "trainer.loss_backward_ms_p50": p50(
            durations_ms(spans.get("trainer.loss_backward", []))
        ),
        "trainer.batches": batches,
        "optim.clip_ms_p50": p50(durations_ms(spans.get("optim.clip", []))),
        "optim.step_ms_p50": p50(durations_ms(spans.get("optim.step", []))),
        "batching.pregroup_s": sum(s[END] - s[START] for s in pregroup),
    })
    return metrics

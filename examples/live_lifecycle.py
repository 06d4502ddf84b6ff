"""The live model lifecycle: serve → observe → detect → retrain → promote.

The LinkedIn evaluation of query performance prediction in production
(PAPERS.md) found that offline accuracy is the easy part — the hard part
is that the world moves: data grows, plans change shape, and a model
trained once quietly rots.  This example plays that story end to end on
the simulator:

1. train QPP Net on a TPC-H workload and serve it through
   :class:`repro.serving.PredictionService`, reporting each query's
   measured latency back via :meth:`Prediction.observe`;
2. a :class:`repro.evaluation.DriftMonitor` — armed with the model's
   *offline* relative error as its frozen baseline — watches the
   outcome stream and stays quiet while the workload is stationary;
3. the simulated database then drifts (every operator slows 3x, as if
   the tables tripled), the monitor fires, and a
   :class:`repro.serving.LifecycleManager` fine-tunes a *copy* of the
   live model on the observed stream through the durable checkpointed
   training path;
4. the candidate shadow-serves — the old model keeps answering, the
   candidate rides every batch, disagreement is journaled — and once
   the outcome-joined evidence shows it beating the incumbent it is
   promoted with one atomic session swap: zero dropped requests.

Run:  python examples/live_lifecycle.py
"""

import tempfile

import numpy as np

from repro.core import QPPNetConfig
from repro.evaluation import DriftMonitor, DriftThresholds, train_qppnet_model
from repro.serving import LifecycleConfig, LifecycleManager, PredictionService
from repro.testing import LatencyDrift
from repro.workload import Workbench

DRIFT_FACTOR = 3.0


def serve_and_observe(service, samples):
    """Submit each plan, await it, report the measured latency back."""
    for sample in samples:
        prediction = service.submit(sample.plan)
        prediction.result()
        prediction.observe(sample.latency_ms)


def main() -> None:
    workbench = Workbench("tpch", scale_factor=0.2, seed=0)
    corpus = workbench.generate(256, rng=np.random.default_rng(7))
    model, _ = train_qppnet_model(corpus, QPPNetConfig(epochs=40, batch_size=64))

    # Freeze the offline evaluation as the drift baseline: "the model
    # should keep looking like the number we deployed it on".
    plans = [s.plan for s in corpus]
    predicted = np.array([model.predict(p) for p in plans])
    actual = np.array([s.latency_ms for s in corpus])
    monitor = DriftMonitor.from_offline_baseline(
        actual,
        predicted,
        thresholds=DriftThresholds(error_ratio=1.4, ewma_alpha=0.1),
        known_signatures={p.structure_signature() for p in plans},
    )
    print(f"offline baseline rel error: {monitor.baseline_rel_error:.3f}")

    with tempfile.TemporaryDirectory() as state_dir, PredictionService(
        model, max_batch_size=64, max_wait_ms=0.5
    ) as service:
        manager = LifecycleManager(
            service,
            monitor,
            LifecycleConfig(
                state_dir=state_dir,
                fine_tune_epochs=10,
                min_retrain_outcomes=64,
                shadow_min_outcomes=32,
            ),
        )

        # --- stationary serving: the monitor stays quiet -------------
        serve_and_observe(service, workbench.generate(96, rng=np.random.default_rng(8)))
        report = manager.step()
        print(
            f"\nstationary traffic : ewma rel error {report.ewma_rel_error:.3f} "
            f"({report.error_ratio:.2f}x baseline) -> "
            f"{'DRIFT' if report.triggered else 'quiet'}"
        )

        # --- the world drifts: every operator slows DRIFT_FACTOR x ----
        workbench.simulator = LatencyDrift(workbench.simulator, factor=DRIFT_FACTOR)
        serve_and_observe(service, workbench.generate(96, rng=np.random.default_rng(9)))
        report = manager.poll()
        print(
            f"after {DRIFT_FACTOR:.0f}x drift     : ewma rel error "
            f"{report.ewma_rel_error:.3f} ({report.error_ratio:.2f}x baseline) -> "
            f"{'DRIFT ' + str(report.reasons) if report.triggered else 'quiet'}"
        )

        # --- react: durable retrain + shadow deploy -------------------
        manager.step()  # live -> retraining -> shadow
        print(f"\nlifecycle state    : {manager.state} "
              f"(fine-tuned {len(manager.last_history.epochs)} epochs on "
              f"{len(manager.training_samples())} observed samples)")

        # Shadowed traffic: the incumbent answers, the candidate rides
        # along, outcomes judge them both.
        serve_and_observe(service, workbench.generate(64, rng=np.random.default_rng(10)))
        manager.poll()
        shadow = manager.shadow_report()
        print(
            f"shadow evidence    : {shadow.requests} requests, "
            f"disagreement p50 {shadow.p50_abs_delta_ms:.0f}ms / "
            f"p99 {shadow.p99_abs_delta_ms:.0f}ms\n"
            f"observed rel error : incumbent {shadow.primary_rel_error:.3f} "
            f"vs candidate {shadow.candidate_rel_error:.3f} "
            f"({shadow.observed_outcomes} outcome-joined)"
        )

        # --- promote: one atomic swap, zero dropped requests ----------
        manager.promote()
        stats = service.stats()
        print(
            f"\npromoted           : state {manager.state}, cycle "
            f"transitions {[s for s, _ in manager.events]}\n"
            f"service health     : {stats.completed} completed, "
            f"{stats.failed} failed, {stats.outcomes_recorded} outcomes journaled"
        )


if __name__ == "__main__":
    main()

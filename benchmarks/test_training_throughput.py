"""BENCH: training throughput — taped autodiff vs level-fused, and the
float32 precision tier vs the float64 reference.

Trains the same model (mode ``both``, the paper's configuration) on a
512-plan mixed-template TPC-H corpus under both execution engines and
measures epochs/sec:

* ``taped`` — the autodiff reference;
* ``fused`` — tape-free cross-structure level fusion: one matmul per
  unit type per tree depth for the whole batch.

A second measurement (ISSUE 5) runs the fused engine at both compute
precisions: ``QPPNetConfig(dtype="float32")`` halves the byte width of
parameters, features, activations, gradients and optimizer state, which
on these memory-bandwidth-bound matmuls is a direct epoch-throughput
win.

Acceptance bars: fused >= 3x taped, and float32 fused >= 1.3x float64
fused (measured ~1.4-1.5x on a quiet machine, gated at 1.3x locally for
clock-drift headroom; CI relaxes to 1.2x via ``BENCH_F32_MIN_SPEEDUP``).

Each test merges its section into ``BENCH_training.json`` (override the
path via the ``BENCH_TRAINING_JSON`` env var) so CI can archive the perf
trajectory PR over PR.

Run:  python -m pytest benchmarks/test_training_throughput.py -s
"""

import os
import time

import numpy as np
import pytest

from conftest import update_bench_json
from repro.core import PreGroupedCorpus, QPPNet, QPPNetConfig, Trainer
from repro.featurize import Featurizer
from repro.workload import Workbench

N_PLANS = 512
REQUIRED_SPEEDUP = 3.0  # fused vs taped
# Local gate 1.3x / CI 1.2x: the measured ratio on a quiet machine is
# ~1.4-1.5x, but it breathes a few percent with CPU clock drift, so the
# gate sits below the noise band of the signal it protects.
REQUIRED_F32_SPEEDUP = float(os.environ.get("BENCH_F32_MIN_SPEEDUP", "1.3"))
TIMED_EPOCHS = 3


def _update_bench(section: str, values: dict):
    """Merge one section into BENCH_training.json (tests run independently)."""
    return update_bench_json("BENCH_TRAINING_JSON", "BENCH_training.json", section, values)


@pytest.fixture(scope="module")
def workload():
    wb = Workbench("tpch", scale_factor=0.2, seed=0)
    corpus = wb.generate(N_PLANS, rng=np.random.default_rng(1))
    featurizer = Featurizer().fit([s.plan for s in corpus])
    # Pre-grouped once per compute dtype: every timed fit below runs on
    # a prebuilt corpus, so featurization and grouping stay out of the
    # per-epoch figures.
    grouped = {
        dtype: PreGroupedCorpus.from_samples(corpus, featurizer, dtype=dtype)
        for dtype in ("float64", "float32")
    }
    return featurizer, grouped


def _epoch_time(featurizer, grouped, engine):
    config = QPPNetConfig(mode="both", engine=engine, seed=0)
    model = QPPNet(featurizer, config)
    trainer = Trainer(model, config)
    # Warm one epoch: level-plan compilation, buffer growth and
    # flat-space construction are one-time costs.
    trainer.fit_grouped(grouped, epochs=1)
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        history = trainer.fit_grouped(grouped, epochs=TIMED_EPOCHS)
        best = min(best, (time.perf_counter() - start) / TIMED_EPOCHS)
    return best, history.final_loss


def test_engine_training_throughput(workload):
    featurizer, grouped = workload

    taped_s, taped_loss = _epoch_time(featurizer, grouped["float64"], "taped")
    fused_s, fused_loss = _epoch_time(featurizer, grouped["float64"], "fused")
    speedup = taped_s / fused_s
    n_structures = grouped["float64"].n_structures

    result = {
        "n_plans": N_PLANS,
        "n_structures": n_structures,
        "taped_epoch_s": round(taped_s, 4),
        "fused_epoch_s": round(fused_s, 4),
        "taped_plans_per_s": round(N_PLANS / taped_s, 1),
        "fused_plans_per_s": round(N_PLANS / fused_s, 1),
        "fused_speedup": round(speedup, 2),
        "required_speedup": REQUIRED_SPEEDUP,
        "taped_final_loss": taped_loss,
        "fused_final_loss": fused_loss,
    }
    out_path = _update_bench("engines", result)

    print(
        f"\n[training-throughput] {N_PLANS} plans, {n_structures} structures, "
        f"mode=both\n"
        f"  taped engine : {taped_s:.3f}s/epoch  ({N_PLANS / taped_s:8.0f} plans/s)\n"
        f"  fused engine : {fused_s:.3f}s/epoch  ({N_PLANS / fused_s:8.0f} plans/s)\n"
        f"  fused/taped  : {speedup:.1f}x   (required >= {REQUIRED_SPEEDUP:.0f}x)\n"
        f"  -> {out_path}"
    )

    # Same objective, same batches, same init: the engines must agree on
    # what they are optimizing, not just be fast.
    assert np.isfinite(taped_loss) and np.isfinite(fused_loss)
    assert fused_loss == pytest.approx(taped_loss, rel=1e-5)
    assert speedup >= REQUIRED_SPEEDUP


def test_float32_training_throughput(workload):
    """Precision tier (ISSUE 5): fused float32 vs the fused float64
    reference — same corpus, same seed, same batches.  The float32 run
    must also *track* the reference loss (identical init rounded once,
    so after three epochs the losses agree to well under a percent)."""
    featurizer, grouped = workload

    # The f32/f64 ratio sits near the local 1.4x bar and CPU clocks sag
    # monotonically under sustained load, so measure the two tiers
    # *interleaved* (alternating timed blocks, best-of-4 each) — drift
    # then penalizes both equally instead of whichever ran last.
    trainers = {}
    for dtype in ("float64", "float32"):
        config = QPPNetConfig(mode="both", engine="fused", seed=0, dtype=dtype)
        model = QPPNet(featurizer, config)
        trainers[dtype] = Trainer(model, config)
        trainers[dtype].fit_grouped(grouped[dtype], epochs=1)  # warm
    best = {"float64": float("inf"), "float32": float("inf")}
    loss = {}
    # Longer timed blocks than the engines test: per-fit setup (optimizer
    # state, the epoch rng) is dtype-independent and would dilute the
    # per-epoch ratio this test is measuring.
    dtype_epochs = 3 * TIMED_EPOCHS
    for _ in range(3):
        for dtype, trainer in trainers.items():
            start = time.perf_counter()
            history = trainer.fit_grouped(grouped[dtype], epochs=dtype_epochs)
            best[dtype] = min(best[dtype], (time.perf_counter() - start) / dtype_epochs)
            loss[dtype] = history.final_loss
    f64_s, f64_loss = best["float64"], loss["float64"]
    f32_s, f32_loss = best["float32"], loss["float32"]
    speedup = f64_s / f32_s
    loss_gap = abs(f32_loss - f64_loss) / max(1e-12, abs(f64_loss))

    out_path = _update_bench(
        "dtype",
        {
            "n_plans": N_PLANS,
            "engine": "fused",
            "float64_epoch_s": round(f64_s, 4),
            "float32_epoch_s": round(f32_s, 4),
            "float64_plans_per_s": round(N_PLANS / f64_s, 1),
            "float32_plans_per_s": round(N_PLANS / f32_s, 1),
            "speedup": round(speedup, 2),
            "required_speedup": REQUIRED_F32_SPEEDUP,
            "float64_final_loss": f64_loss,
            "float32_final_loss": f32_loss,
            "loss_rel_gap": loss_gap,
        },
    )

    print(
        f"\n[dtype-throughput] {N_PLANS} plans, fused engine\n"
        f"  float64 (reference): {f64_s:.3f}s/epoch  ({N_PLANS / f64_s:8.0f} plans/s)\n"
        f"  float32            : {f32_s:.3f}s/epoch  ({N_PLANS / f32_s:8.0f} plans/s)\n"
        f"  speedup            : {speedup:.2f}x   (required >= {REQUIRED_F32_SPEEDUP:.2f}x)\n"
        f"  loss rel gap       : {loss_gap:.2e}  (required <= 5e-3)\n"
        f"  -> {out_path}"
    )

    assert np.isfinite(f32_loss)
    assert loss_gap <= 5e-3
    assert speedup >= REQUIRED_F32_SPEEDUP

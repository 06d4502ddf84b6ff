"""Cold-restart recovery drills: the process dies at arbitrary points —
mid-observe, mid-snapshot, mid-retrain, mid-promotion — and
``ServiceRecovery`` rebuilds the stack from the state directory with
drift-detector state identical to an uninterrupted run and interrupted
fine-tunes resumed bitwise (ISSUE 10 acceptance criteria)."""

import json
import struct
import zlib

import numpy as np
import pytest

from repro.core import QPPNet, QPPNetConfig, Trainer
from repro.core.checkpoint import atomic_write_json, load_verified_json
from repro.core.trainer import fine_tune
from repro.evaluation.drift import DriftMonitor, DriftThresholds
from repro.featurize import Featurizer
from repro.serving import (
    InferenceSession,
    LifecycleState,
    RecoveryError,
    ServiceRecovery,
)
from repro.serving.journal import SEGMENT_MAGIC, OutcomeJournal
from repro.serving.recovery import DRIFT_SNAPSHOT_NAME, MANIFEST_NAME
from repro.testing import (
    LatencyDrift,
    SimulatedCrash,
    failing_fsync,
    flip_byte,
    kill_at_epoch,
    torn_tail,
)
from repro.workload import Workbench

pytestmark = [pytest.mark.chaos, pytest.mark.lifecycle]

DRIFT_FACTOR = 3.0


@pytest.fixture(scope="module")
def corpus():
    wb = Workbench("tpch", scale_factor=0.2, seed=0)
    return wb.generate(128, rng=np.random.default_rng(3))


@pytest.fixture(scope="module")
def plans(corpus):
    return [s.plan for s in corpus]


@pytest.fixture(scope="module")
def model(corpus):
    featurizer = Featurizer().fit([s.plan for s in corpus])
    config = QPPNetConfig(
        hidden_layers=1, neurons=16, data_size=4, epochs=30, batch_size=32, seed=1
    )
    net = QPPNet(featurizer, config)
    Trainer(net, config).fit(corpus)
    return net


@pytest.fixture(scope="module")
def baseline_rel_error(model, corpus, plans):
    predicted = InferenceSession(model).predict_batch(plans)
    actual = np.array([s.latency_ms for s in corpus])
    return max(float(np.mean(np.abs(actual - predicted) / actual)), 0.05)


def thresholds(**overrides):
    defaults = dict(error_ratio=1.4, ewma_alpha=0.1, min_observations=32)
    defaults.update(overrides)
    return DriftThresholds(**defaults)


def make_stack(state_dir, model, plans, baseline, **lifecycle_kwargs):
    defaults = dict(
        fsync_every=1,  # the drills kill without closing: every record durable
        min_retrain_outcomes=32,
        fine_tune_epochs=4,
        shadow_min_outcomes=8,
        drift_snapshot_every=32,
    )
    defaults.update(lifecycle_kwargs)
    return ServiceRecovery.create(
        state_dir,
        model,
        baseline_rel_error=baseline,
        thresholds=thresholds(),
        known_signatures={p.structure_signature() for p in plans},
        **defaults,
    )


def drifted_samples(n, seed, factor=DRIFT_FACTOR):
    wb = Workbench("tpch", scale_factor=0.2, seed=0)
    wb.simulator = LatencyDrift(wb.simulator, factor=factor)
    return wb.generate(n, rng=np.random.default_rng(seed))


def serve_and_observe(service, samples):
    for s in samples:
        handle = service.submit(s.plan)
        handle.result(timeout=30)
        handle.observe(s.latency_ms)


def reference_monitor(plans, baseline, records):
    """What an uninterrupted monitor fed exactly ``records`` holds."""
    monitor = DriftMonitor(
        baseline,
        thresholds=thresholds(),
        known_signatures={p.structure_signature() for p in plans},
    )
    for rec in records:
        monitor.observe(rec.predicted_ms, rec.observed_ms, rec.signature)
    return monitor


# ----------------------------------------------------------------------
# First boot and unrecoverable damage
# ----------------------------------------------------------------------
class TestCreateAndErrors:
    def test_create_publishes_durable_layout(
        self, tmp_path, model, plans, baseline_rel_error
    ):
        stack = make_stack(tmp_path, model, plans, baseline_rel_error)
        manifest = load_verified_json(tmp_path / MANIFEST_NAME)
        assert manifest["state"] == LifecycleState.LIVE
        assert manifest["cycle"] == 0
        assert manifest["models"] == {"qpp": "models/qpp/cycle-000"}
        assert (tmp_path / "models" / "qpp" / "cycle-000").is_dir()
        assert manifest["lifecycle"]["fine_tune_epochs"] == 4
        with stack.service:
            value = stack.service.submit(plans[0]).result(timeout=30)
        assert np.isfinite(value)
        stack.journal.close()

    def test_recover_without_manifest_raises(self, tmp_path):
        with pytest.raises(RecoveryError, match="no manifest"):
            ServiceRecovery.recover(tmp_path)

    def test_recover_corrupt_manifest_raises(
        self, tmp_path, model, plans, baseline_rel_error
    ):
        stack = make_stack(tmp_path, model, plans, baseline_rel_error)
        stack.journal.close()
        flip_byte(tmp_path / MANIFEST_NAME, -20)  # rot inside the payload
        with pytest.raises(RecoveryError, match="failed verification"):
            ServiceRecovery.recover(tmp_path)

    def test_recover_missing_bundle_raises(
        self, tmp_path, model, plans, baseline_rel_error
    ):
        import shutil

        stack = make_stack(tmp_path, model, plans, baseline_rel_error)
        stack.journal.close()
        shutil.rmtree(tmp_path / "models")
        with pytest.raises(RecoveryError, match="bundle"):
            ServiceRecovery.recover(tmp_path)


def _drop(key):
    def mutate(manifest):
        del manifest[key]

    return mutate


def _set(key, value):
    def mutate(manifest):
        manifest[key] = value

    return mutate


def _set_lifecycle(key, value):
    def mutate(manifest):
        manifest["lifecycle"][key] = value

    return mutate


def _models_as_list(manifest):
    manifest["models"] = list(manifest["models"].items())


# ----------------------------------------------------------------------
# The manifest format: parent compatibility and malformed contents
# ----------------------------------------------------------------------
class TestManifestFormat:
    def test_fresh_manifest_recovers(self, tmp_path, model, plans, baseline_rel_error):
        """The manifest a fresh stack publishes carries only the keys
        recovery reads, and recovers as is."""
        stack = make_stack(tmp_path, model, plans, baseline_rel_error)
        stack.journal.close()
        manifest = load_verified_json(tmp_path / MANIFEST_NAME)
        assert set(manifest) == {
            "format", "model_name", "state", "cycle", "models", "drift", "lifecycle",
        }
        recovered = ServiceRecovery.recover(tmp_path)
        assert recovered.manager.state == LifecycleState.LIVE
        assert recovered.service.registry.names() == ["qpp"]
        recovered.journal.close()

    def test_parent_format_manifest_recovers(
        self, tmp_path, model, corpus, plans, baseline_rel_error
    ):
        """Manifests that also name the layout's fixed paths (the
        earlier payload) still recover: the extra keys are ignored."""
        stack = make_stack(tmp_path, model, plans, baseline_rel_error)
        with stack.service:
            serve_and_observe(stack.service, corpus[:20])
        manifest = load_verified_json(tmp_path / MANIFEST_NAME)
        manifest.update(
            checkpoint_dir="checkpoints",
            journal_dir="journal",
            drift_snapshot="drift.json",
        )
        atomic_write_json(tmp_path / MANIFEST_NAME, manifest)
        recovered = ServiceRecovery.recover(tmp_path)
        assert recovered.report.replayed_records == 20
        assert recovered.manager.state == LifecycleState.LIVE
        reference = reference_monitor(
            plans, baseline_rel_error, stack.service.outcomes.snapshot()
        )
        assert recovered.monitor.state_dict() == reference.state_dict()
        recovered.journal.close()
        stack.journal.close()

    @pytest.mark.parametrize(
        "mutate",
        [
            _drop("model_name"),
            _drop("cycle"),
            _set_lifecycle("no_such_field", 1),
            _set_lifecycle("fine_tune_epochs", 0),
            _models_as_list,
            _set("cycle", "abc"),
            _drop("drift"),  # and no drift snapshot on disk yet
        ],
        ids=[
            "no-model-name",
            "no-cycle",
            "unknown-lifecycle-key",
            "zero-fine-tune-epochs",
            "models-as-list",
            "cycle-not-a-number",
            "no-drift-no-snapshot",
        ],
    )
    def test_malformed_manifest_raises_recovery_error(
        self, tmp_path, model, plans, baseline_rel_error, mutate
    ):
        """A digest-valid manifest with bad contents is a typed
        RecoveryError, never a bare builtin exception."""
        stack = make_stack(tmp_path, model, plans, baseline_rel_error)
        stack.journal.close()
        manifest = load_verified_json(tmp_path / MANIFEST_NAME)
        mutate(manifest)
        atomic_write_json(tmp_path / MANIFEST_NAME, manifest)
        assert not (tmp_path / DRIFT_SNAPSHOT_NAME).exists()
        with pytest.raises(RecoveryError, match="malformed|drift baseline"):
            ServiceRecovery.recover(tmp_path)


# ----------------------------------------------------------------------
# Kill during observe: drift state identical to the uninterrupted run
# ----------------------------------------------------------------------
class TestKillDuringObserve:
    def test_snapshot_plus_suffix_restores_identical_state(
        self, tmp_path, model, corpus, plans, baseline_rel_error
    ):
        """Crash after a snapshot with un-polled journal suffix: replay
        covers only the suffix past the cursor, and the detectors land
        exactly where the uninterrupted process would."""
        stack = make_stack(tmp_path, model, plans, baseline_rel_error)
        with stack.service:
            serve_and_observe(stack.service, corpus[:48])
            stack.manager.poll()  # 48 >= drift_snapshot_every: snapshot lands
            assert stack.manager.cursor == 48
            assert (tmp_path / DRIFT_SNAPSHOT_NAME).exists()
            serve_and_observe(stack.service, drifted_samples(24, seed=9))
            # kill -9 here: no close, no final poll.

        recovered = ServiceRecovery.recover(tmp_path)
        report = recovered.report
        assert report.snapshot_used
        assert report.snapshot_cursor == 48
        assert report.suffix_observed == 24
        assert report.corrupt_records == 0 and report.corrupt_segments == 0

        # The uninterrupted run: the original manager finally polls.
        stack.manager.poll()
        assert recovered.monitor.state_dict() == stack.monitor.state_dict()
        assert recovered.manager.cursor == stack.manager.cursor == 72
        assert recovered.manager.state == LifecycleState.LIVE

        # And the rebuilt stack is live: serving + outcome seq continue.
        with recovered.service:
            handle = recovered.service.submit(plans[0])
            handle.result(timeout=30)
            rec = handle.observe(100.0)
        assert rec.seq == 73
        recovered.journal.close()
        stack.journal.close()

    def test_no_snapshot_full_journal_replay(
        self, tmp_path, model, corpus, plans, baseline_rel_error
    ):
        """Crash before the first snapshot: the whole journal replays
        through a cold monitor — same final state, just more work."""
        stack = make_stack(tmp_path, model, plans, baseline_rel_error)
        with stack.service:
            serve_and_observe(stack.service, corpus[:20])  # < snapshot_every
        recovered = ServiceRecovery.recover(tmp_path)
        assert not recovered.report.snapshot_used
        assert recovered.report.snapshot_cursor == 0
        assert recovered.report.suffix_observed == 20
        reference = reference_monitor(
            plans, baseline_rel_error, stack.service.outcomes.snapshot()
        )
        assert recovered.monitor.state_dict() == reference.state_dict()
        recovered.journal.close()
        stack.journal.close()

    def test_corrupt_snapshot_degrades_to_full_replay(
        self, tmp_path, model, corpus, plans, baseline_rel_error
    ):
        """Bit rot in the drift snapshot: recovery falls back to the
        manifest baseline + full replay, never an exception — and still
        converges to the identical detector state."""
        stack = make_stack(tmp_path, model, plans, baseline_rel_error)
        with stack.service:
            serve_and_observe(stack.service, corpus[:48])
            stack.manager.poll()
            serve_and_observe(stack.service, drifted_samples(16, seed=9))
        flip_byte(tmp_path / DRIFT_SNAPSHOT_NAME, -10)
        recovered = ServiceRecovery.recover(tmp_path)
        assert not recovered.report.snapshot_used
        reference = reference_monitor(
            plans, baseline_rel_error, stack.service.outcomes.snapshot()
        )
        assert recovered.monitor.state_dict() == reference.state_dict()
        recovered.journal.close()
        stack.journal.close()

    @pytest.mark.parametrize("field", ["cursor", "outcomes_lost"])
    def test_negative_snapshot_counter_degrades_to_full_replay(
        self, tmp_path, model, corpus, plans, baseline_rel_error, field
    ):
        """A digest-valid snapshot with a negative counter is damaged
        like any other: cold monitor, whole journal replayed."""
        stack = make_stack(tmp_path, model, plans, baseline_rel_error)
        with stack.service:
            serve_and_observe(stack.service, corpus[:48])
            stack.manager.poll()
        snapshot = load_verified_json(tmp_path / DRIFT_SNAPSHOT_NAME)
        snapshot[field] = -1
        atomic_write_json(tmp_path / DRIFT_SNAPSHOT_NAME, snapshot)
        recovered = ServiceRecovery.recover(tmp_path)
        assert not recovered.report.snapshot_used
        assert recovered.report.snapshot_cursor == 0
        assert recovered.manager.outcomes_lost == 0
        reference = reference_monitor(
            plans, baseline_rel_error, stack.service.outcomes.snapshot()
        )
        assert recovered.monitor.state_dict() == reference.state_dict()
        recovered.journal.close()
        stack.journal.close()

    def test_kill_mid_snapshot_write_keeps_previous_snapshot(
        self, tmp_path, model, corpus, plans, baseline_rel_error
    ):
        """Death between temp-write and rename: the dot-tmp garbage is
        invisible to recovery, the previous published snapshot wins."""
        stack = make_stack(tmp_path, model, plans, baseline_rel_error)
        with stack.service:
            serve_and_observe(stack.service, corpus[:40])
            stack.manager.poll()  # snapshot at cursor 40
            serve_and_observe(stack.service, corpus[40:50])
        # Simulate the crash landing mid-atomic-write of the NEXT snapshot.
        (tmp_path / f".{DRIFT_SNAPSHOT_NAME}.tmp").write_bytes(b"\x00garbage")
        recovered = ServiceRecovery.recover(tmp_path)
        assert recovered.report.snapshot_used
        assert recovered.report.snapshot_cursor == 40
        assert recovered.report.suffix_observed == 10
        stack.manager.poll()
        assert recovered.monitor.state_dict() == stack.monitor.state_dict()
        recovered.journal.close()
        stack.journal.close()


# ----------------------------------------------------------------------
# Kill during journal append (torn tail) and sick disks
# ----------------------------------------------------------------------
class TestKillDuringAppend:
    def test_torn_tail_loses_exactly_the_last_record(
        self, tmp_path, model, corpus, plans, baseline_rel_error
    ):
        stack = make_stack(tmp_path, model, plans, baseline_rel_error)
        with stack.service:
            serve_and_observe(stack.service, corpus[:30])
        segment = stack.journal.segments()[-1]
        torn_tail(segment, drop_bytes=25)  # kill -9 mid-append
        recovered = ServiceRecovery.recover(tmp_path)
        report = recovered.report
        assert report.torn_tail_bytes > 0
        assert report.replayed_records == 29
        assert report.max_seq == 29
        reference = reference_monitor(
            plans, baseline_rel_error, stack.service.outcomes.snapshot()[:29]
        )
        assert recovered.monitor.state_dict() == reference.state_dict()
        # Appends continue cleanly past the repaired tail.
        with recovered.service:
            handle = recovered.service.submit(plans[0])
            handle.result(timeout=30)
            assert handle.observe(50.0).seq == 30
        recovered.journal.close()
        stack.journal.close()

    def test_injected_fsync_errors_never_kill_serving_or_recovery(
        self, tmp_path, model, corpus, plans, baseline_rel_error
    ):
        """A disk that fails every other fsync: serving completes every
        request, the journal degrades to its io_errors counter, and
        recovery rebuilds from whatever made it to disk — no exception
        anywhere."""
        stack = ServiceRecovery.create(
            tmp_path,
            model,
            baseline_rel_error=baseline_rel_error,
            thresholds=thresholds(),
            known_signatures={p.structure_signature() for p in plans},
            fsync_every=1,
            fsync_fn=failing_fsync(every=2),
            min_retrain_outcomes=32,
        )
        with stack.service:
            serve_and_observe(stack.service, corpus[:24])
        assert stack.service.outcomes.total == 24  # serving never degraded
        assert stack.journal.io_errors > 0
        recovered = ServiceRecovery.recover(tmp_path)
        # A failed fsync flags the record non-durable against power loss
        # (append returned False, io_errors counted) but the bytes were
        # written and flushed — absent an actual power cut replay sees them.
        assert recovered.report.replayed_records == 24
        assert recovered.report.corrupt_records == 0
        with recovered.service:
            assert np.isfinite(
                recovered.service.submit(plans[0]).result(timeout=30)
            )
        recovered.journal.close()
        stack.journal.close()


    def test_failing_journal_prune_is_counted(
        self, tmp_path, model, corpus, plans, baseline_rel_error, monkeypatch
    ):
        """Journal retention after a snapshot is best-effort: a failing
        prune keeps the snapshot, never raises, and is counted."""
        stack = make_stack(tmp_path, model, plans, baseline_rel_error)

        def broken_prune(keep_from):
            raise OSError("injected prune failure")

        monkeypatch.setattr(stack.service.outcomes.journal, "prune", broken_prune)
        with stack.service:
            serve_and_observe(stack.service, corpus[:48])
        assert stack.manager.prune_errors == 0
        stack.manager.poll()  # 48 >= drift_snapshot_every: snapshot + prune
        assert (tmp_path / DRIFT_SNAPSHOT_NAME).exists()
        assert stack.manager.snapshot_errors == 0
        assert stack.manager.prune_errors == 1
        assert stack.manager.snapshot_drift()  # the snapshot itself succeeds
        assert stack.manager.prune_errors == 2
        stack.journal.close()


# ----------------------------------------------------------------------
# Kill mid-retrain: bitwise resume through recovery (acceptance)
# ----------------------------------------------------------------------
class TestKillMidRetrain:
    def test_recovered_manager_resumes_fine_tune_bitwise(
        self, tmp_path, model, plans, baseline_rel_error
    ):
        state_dir = tmp_path / "state"
        stack = make_stack(
            state_dir,
            model,
            plans,
            baseline_rel_error,
            epoch_hook=kill_at_epoch(2),
        )
        with stack.service:
            serve_and_observe(stack.service, drifted_samples(64, seed=9))
            stack.manager.poll()
        # The uninterrupted reference fit over the same observed stream.
        reference_model, reference_history = fine_tune(
            model,
            stack.manager.training_samples(),
            epochs=4,
            checkpoint_dir=str(tmp_path / "reference"),
        )
        with pytest.raises(SimulatedCrash):
            stack.manager.retrain()
        # The durable record already says where the dead process was.
        manifest = load_verified_json(state_dir / MANIFEST_NAME)
        assert manifest["state"] == LifecycleState.RETRAINING
        assert (state_dir / "checkpoints" / "cycle-001").is_dir()

        recovered = ServiceRecovery.recover(state_dir)
        assert recovered.report.manifest_state == LifecycleState.RETRAINING
        assert recovered.report.restored_state == LifecycleState.RETRAINING
        assert recovered.manager.state == LifecycleState.RETRAINING
        # epoch_hook is not JSON: the persisted config resumes without it.
        history = recovered.manager.retrain()
        candidate = recovered.manager._candidate.model
        for (key, ref), (_, got) in zip(
            sorted(reference_model.state_dict().items()),
            sorted(candidate.state_dict().items()),
        ):
            assert np.array_equal(ref, got), key
        assert history.train_loss == reference_history.train_loss
        recovered.journal.close()
        stack.journal.close()

    def test_repeated_plans_recover_the_same_training_corpus(
        self, tmp_path, model, plans, baseline_rel_error
    ):
        """Each drifted plan is observed three times.  Live, the
        retraining corpus dedupes the repeats by plan identity; the
        replayed journal must share one node per live plan so the
        recovered manager derives the identical corpus and resumes the
        fine-tune bitwise."""
        state_dir = tmp_path / "state"
        stack = make_stack(
            state_dir,
            model,
            plans,
            baseline_rel_error,
            epoch_hook=kill_at_epoch(2),
        )
        drifted = drifted_samples(40, seed=11)
        with stack.service:
            for _ in range(3):
                serve_and_observe(stack.service, drifted)
            stack.manager.poll()
        live = stack.manager.training_samples()
        assert len(live) == len(drifted)
        reference_model, reference_history = fine_tune(
            model, live, epochs=4, checkpoint_dir=str(tmp_path / "reference")
        )
        with pytest.raises(SimulatedCrash):
            stack.manager.retrain()

        recovered = ServiceRecovery.recover(state_dir)
        assert recovered.report.replayed_records == 3 * len(drifted)
        replayed = recovered.manager.training_samples()
        assert [(s.plan.to_dict(), s.latency_ms) for s in replayed] == [
            (s.plan.to_dict(), s.latency_ms) for s in live
        ]
        history = recovered.manager.retrain()
        candidate = recovered.manager._candidate.model
        for (key, ref), (_, got) in zip(
            sorted(reference_model.state_dict().items()),
            sorted(candidate.state_dict().items()),
        ):
            assert np.array_equal(ref, got), key
        assert history.train_loss == reference_history.train_loss
        recovered.journal.close()
        stack.journal.close()


# ----------------------------------------------------------------------
# Upgrade: a state directory written in the previous journal format
# ----------------------------------------------------------------------
def write_v1_segment(path, records):
    """A ``QPPWAL1`` segment exactly as the previous format framed it:
    one compact-JSON payload per record, the full plan inline."""
    with open(path, "wb") as handle:
        handle.write(b"QPPWAL1\n")
        for rec in records:
            payload = json.dumps(
                {
                    "seq": rec.seq,
                    "signature": rec.signature,
                    "predicted_ms": rec.predicted_ms,
                    "observed_ms": rec.observed_ms,
                    "model": rec.model,
                    "timestamp": rec.timestamp,
                    "plan": rec.plan.to_dict(),
                },
                separators=(",", ":"),
            ).encode("utf-8")
            handle.write(struct.pack("<II", len(payload), zlib.crc32(payload)))
            handle.write(payload)


def same_records(got, ref):
    return [
        (r.seq, r.signature, r.predicted_ms, r.observed_ms, r.model,
         r.timestamp, r.plan.to_dict())
        for r in got
    ] == [
        (r.seq, r.signature, r.predicted_ms, r.observed_ms, r.model,
         r.timestamp, r.plan.to_dict())
        for r in ref
    ]


class TestUpgradeFromV1:
    def test_v1_state_directory_recovers_then_appends_v2(
        self, tmp_path, model, plans, baseline_rel_error
    ):
        """A state directory whose journal holds only ``QPPWAL1``
        segments replays every record into identical drift state; the
        next observe opens a ``QPPWAL2`` segment, and a second recovery
        reads both formats cleanly."""
        stack = make_stack(tmp_path, model, plans, baseline_rel_error)
        with stack.service:
            serve_and_observe(stack.service, drifted_samples(24, seed=5))
        stack.journal.close()
        originals = stack.service.outcomes.snapshot()
        journal_dir = tmp_path / "journal"
        for segment in OutcomeJournal(journal_dir).segments():
            segment.unlink()
        write_v1_segment(journal_dir / "segment-00000001.wal", originals[:10])
        write_v1_segment(journal_dir / "segment-00000011.wal", originals[10:])

        recovered = ServiceRecovery.recover(tmp_path)
        report = recovered.report
        assert report.replayed_records == 24 and report.max_seq == 24
        assert report.corrupt_records == report.corrupt_segments == 0
        assert report.torn_tail_bytes == 0
        assert same_records(recovered.service.outcomes.snapshot(), originals)
        reference = reference_monitor(plans, baseline_rel_error, originals)
        assert recovered.monitor.state_dict() == reference.state_dict()

        more = drifted_samples(6, seed=6)
        with recovered.service:
            serve_and_observe(recovered.service, more)
        recovered.journal.close()
        segments = recovered.journal.segments()
        assert [p.name for p in segments] == [
            "segment-00000001.wal", "segment-00000011.wal", "segment-00000025.wal",
        ]
        assert segments[-1].read_bytes().startswith(SEGMENT_MAGIC)
        everything = recovered.service.outcomes.snapshot()

        again = ServiceRecovery.recover(tmp_path)
        assert again.report.replayed_records == 30
        assert again.report.corrupt_records == again.report.corrupt_segments == 0
        assert again.report.torn_tail_bytes == 0
        assert same_records(again.service.outcomes.snapshot(), everything)
        again.journal.close()
        stack.journal.close()


# ----------------------------------------------------------------------
# Crashes later in the cycle: state mapping and durable promotion
# ----------------------------------------------------------------------
class TestLifecycleStateMapping:
    def test_crash_in_shadow_recovers_into_retraining(
        self, tmp_path, model, plans, baseline_rel_error
    ):
        stack = make_stack(
            tmp_path, model, plans, baseline_rel_error, fine_tune_epochs=1
        )
        with stack.service:
            serve_and_observe(stack.service, drifted_samples(48, seed=9))
            stack.manager.poll()
            stack.manager.retrain()
            stack.manager.deploy_shadow()
            assert stack.manager.state == LifecycleState.SHADOW
        recovered = ServiceRecovery.recover(tmp_path)
        assert recovered.report.manifest_state == LifecycleState.SHADOW
        assert recovered.manager.state == LifecycleState.RETRAINING
        # The candidate is re-derivable: the cycle completes post-restart.
        recovered.manager.retrain()
        recovered.manager.deploy_shadow()
        assert recovered.manager.state == LifecycleState.SHADOW
        recovered.journal.close()
        stack.journal.close()

    def test_promotion_is_durable_and_crash_settles_live(
        self, tmp_path, model, plans, baseline_rel_error
    ):
        stack = make_stack(
            tmp_path, model, plans, baseline_rel_error, fine_tune_epochs=1
        )
        with stack.service:
            serve_and_observe(stack.service, drifted_samples(48, seed=9))
            stack.manager.poll()
            stack.manager.retrain()
            candidate_state = {
                k: v.copy()
                for k, v in stack.manager._candidate.model.state_dict().items()
            }
            stack.manager.deploy_shadow()
            stack.manager.promote(force=True)
            assert stack.manager.state == LifecycleState.PROMOTED
        manifest = load_verified_json(tmp_path / MANIFEST_NAME)
        assert manifest["models"]["qpp"] == "models/qpp/cycle-001"
        assert (tmp_path / "models" / "qpp" / "cycle-001").is_dir()

        recovered = ServiceRecovery.recover(tmp_path)
        assert recovered.report.manifest_state == LifecycleState.PROMOTED
        assert recovered.manager.state == LifecycleState.LIVE
        # The model serving after restart IS the promoted candidate.
        served = recovered.service.registry.model("qpp")
        for key, ref in sorted(candidate_state.items()):
            assert np.array_equal(ref, served.state_dict()[key]), key
        recovered.journal.close()
        stack.journal.close()

    def test_demotion_rolls_the_bundle_pointer_back(
        self, tmp_path, model, plans, baseline_rel_error
    ):
        stack = make_stack(
            tmp_path, model, plans, baseline_rel_error, fine_tune_epochs=1
        )
        with stack.service:
            serve_and_observe(stack.service, drifted_samples(48, seed=9))
            stack.manager.poll()
            stack.manager.retrain()
            stack.manager.deploy_shadow()
            stack.manager.promote(force=True)
            stack.manager.demote()  # post-promotion rollback
        manifest = load_verified_json(tmp_path / MANIFEST_NAME)
        assert manifest["models"]["qpp"] == "models/qpp/cycle-000"
        assert manifest["state"] == LifecycleState.DEMOTED
        recovered = ServiceRecovery.recover(tmp_path)
        assert recovered.manager.state == LifecycleState.LIVE
        served = recovered.service.registry.model("qpp")
        for key, ref in sorted(model.state_dict().items()):
            assert np.array_equal(ref, served.state_dict()[key]), key
        recovered.journal.close()
        stack.journal.close()

    @pytest.mark.parametrize("ending", ["promote", "reject"])
    def test_restart_after_a_finished_cycle_starts_the_next(
        self, tmp_path, model, plans, baseline_rel_error, ending
    ):
        """A crash right after a cycle ends (promoted, or rejected in
        shadow) recovers with that cycle counted, so the next retrain
        and promotion get fresh checkpoint and bundle directories
        instead of reusing the finished cycle's."""
        stack = make_stack(
            tmp_path, model, plans, baseline_rel_error, fine_tune_epochs=1
        )
        with stack.service:
            serve_and_observe(stack.service, drifted_samples(48, seed=9))
            stack.manager.poll()
            stack.manager.retrain()
            stack.manager.deploy_shadow()
            if ending == "promote":
                stack.manager.promote(force=True)
            else:
                stack.manager.demote()
        recovered = ServiceRecovery.recover(tmp_path)
        assert recovered.manager.state == LifecycleState.LIVE
        assert recovered.manager.cycle == 1
        recovered.manager.retrain()
        assert (tmp_path / "checkpoints" / "cycle-002").is_dir()
        recovered.manager.deploy_shadow()
        recovered.manager.promote(force=True)
        manifest = load_verified_json(tmp_path / MANIFEST_NAME)
        assert manifest["models"]["qpp"] == "models/qpp/cycle-002"
        recovered.journal.close()
        stack.journal.close()

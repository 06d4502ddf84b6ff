"""The on-disk outcome journal: framing, rotation, torn tails, bit rot,
sick disks, pruning — and the plan-payload featurization round trip
(ISSUE 10: durable serving state)."""

import json
import os
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.featurize import Featurizer
from repro.ingest import UNKNOWN_OP_PROP, parse
from repro.plans.node import PlanNode
from repro.plans.operators import PhysicalOp
from repro.serving import (
    InferenceSession,
    JournalError,
    ModelRegistry,
    OutcomeJournal,
    PredictionService,
)
from repro.serving.journal import (
    MAX_RECORD_BYTES,
    OUTCOME_FRAME,
    PLAN_FRAME,
    SEGMENT_MAGIC,
    decode_plan,
    decode_record,
    encode_plan,
    encode_record,
)
from repro.serving.service import OutcomeLog, OutcomeRecord
from repro.testing import failing_fsync, flip_byte, torn_tail
from repro.workload import Workbench

pytestmark = pytest.mark.chaos

FIXTURES = Path(__file__).parent.parent / "fixtures" / "explain"


@pytest.fixture(scope="module")
def corpus():
    return Workbench("tpch", scale_factor=0.2, seed=0).generate(
        24, rng=np.random.default_rng(5)
    )


@pytest.fixture(scope="module")
def plans(corpus):
    return [s.plan for s in corpus]


def make_record(seq, plan, predicted=123.456, observed=150.0):
    return OutcomeRecord(
        seq=seq,
        signature=plan.structure_signature(),
        predicted_ms=predicted,
        observed_ms=observed,
        model="qpp",
        timestamp=1700000000.0 + seq,
        plan=plan,
    )


def fill(journal, plans, n, start_seq=1):
    records = [
        make_record(start_seq + i, plans[i % len(plans)], predicted=10.0 + i)
        for i in range(n)
    ]
    for rec in records:
        assert journal.append(rec)
    return records


def assert_records_equal(replayed, originals):
    assert len(replayed) == len(originals)
    for got, ref in zip(replayed, originals):
        assert got.seq == ref.seq
        assert got.signature == ref.signature
        assert got.predicted_ms == ref.predicted_ms  # exact: JSON floats
        assert got.observed_ms == ref.observed_ms
        assert got.model == ref.model
        assert got.timestamp == ref.timestamp
        assert got.plan.to_dict() == ref.plan.to_dict()


def round_trip(rec, plan_id=3):
    """``rec`` through a plan frame and an outcome frame referencing it."""
    pid, signature, plan = decode_plan(encode_plan(plan_id, rec.signature, rec.plan))
    return decode_record(encode_record(rec, plan_id), {pid: (signature, plan)})


def frames(segment):
    """``(start, end, payload)`` of every whole frame in a segment (a
    path, or its bytes)."""
    data = segment if isinstance(segment, bytes) else Path(segment).read_bytes()
    pos, out = len(SEGMENT_MAGIC), []
    while pos + 8 <= len(data):
        length = int.from_bytes(data[pos : pos + 4], "little")
        end = pos + 8 + length
        if end > len(data):
            break
        out.append((pos, end, data[pos + 8 : end]))
        pos = end
    return out


# ----------------------------------------------------------------------
# Framing and the plan payload
# ----------------------------------------------------------------------
class TestFraming:
    def test_encode_decode_round_trip_is_exact(self, plans):
        rec = make_record(7, plans[0], predicted=0.1 + 0.2)  # ugly float
        clone = round_trip(rec)
        assert clone.seq == rec.seq
        assert clone.signature == rec.signature
        assert clone.predicted_ms == rec.predicted_ms  # bitwise via repr
        assert clone.observed_ms == rec.observed_ms
        assert clone.timestamp == rec.timestamp
        assert clone.plan.to_dict() == rec.plan.to_dict()

    def test_payload_is_compact_json(self, plans):
        rec = make_record(1, plans[0])
        outcome = encode_record(rec, 3)
        assert outcome[:1] == OUTCOME_FRAME
        assert json.loads(outcome[1:]) == {
            "seq": 1, "plan_id": 3, "predicted_ms": rec.predicted_ms,
            "observed_ms": rec.observed_ms, "model": "qpp",
            "timestamp": rec.timestamp,
        }
        assert b" " not in outcome
        plan = encode_plan(3, rec.signature, rec.plan)
        assert plan[:1] == PLAN_FRAME
        doc = json.loads(plan[1:])
        assert set(doc) == {"plan_id", "signature", "plan"}
        assert doc["plan"] == rec.plan.to_dict()
        assert b" " not in plan.split(b'"filter"')[0][:40]

    def test_unresolved_reference_raises_key_error(self, plans):
        with pytest.raises(KeyError):
            decode_record(encode_record(make_record(1, plans[0]), 3), {})

    def test_config_validation(self, tmp_path):
        with pytest.raises(JournalError):
            OutcomeJournal(tmp_path, segment_max_bytes=4)
        with pytest.raises(JournalError):
            OutcomeJournal(tmp_path, fsync_every=0)


@pytest.mark.ingest
class TestPlanPayloadFeaturization:
    """Satellite: a journaled plan must reconstruct bitwise-identical
    featurization inputs — across every ingest dialect, including plans
    with fallback-degraded (unknown) operators."""

    CASES = [
        ("postgres", "q1_0"),
        ("postgres", "qunknown_0"),
        ("duckdb", "d3_0"),
        ("duckdb", "dunknown_0"),
        ("mysql", "m1_0"),
        ("mysql", "m2_0"),
    ]

    @pytest.mark.parametrize("engine,stem", CASES)
    def test_round_trip_features_bitwise(self, engine, stem):
        doc = json.loads((FIXTURES / engine / f"{stem}.json").read_text())
        ingested = parse(doc, engine)
        assert ingested, f"fixture {engine}/{stem} parsed to nothing"
        for item in ingested:
            plan = item.plan
            featurizer = Featurizer().fit([plan])
            clone = round_trip(make_record(1, plan))
            assert clone.plan.structure_signature() == plan.structure_signature()
            original = featurizer.transform_plan(plan)
            replayed = featurizer.transform_plan(clone.plan)
            assert len(original) == len(replayed)
            for ref, got in zip(original, replayed):
                assert np.array_equal(
                    np.asarray(ref), np.asarray(got)
                ), f"feature drift for {engine}/{stem}"

    def test_fallback_markers_survive(self):
        doc = json.loads((FIXTURES / "postgres" / "qunknown_0.json").read_text())
        plan = parse(doc, "postgres")[0].plan
        clone = round_trip(make_record(1, plan)).plan
        original_marks = [UNKNOWN_OP_PROP in n.props for n in plan.preorder()]
        replayed_marks = [UNKNOWN_OP_PROP in n.props for n in clone.preorder()]
        assert any(original_marks)
        assert replayed_marks == original_marks


# ----------------------------------------------------------------------
# Append / recover round trips
# ----------------------------------------------------------------------
class TestAppendRecover:
    def test_clean_round_trip(self, tmp_path, plans):
        journal = OutcomeJournal(tmp_path, fsync_every=1)
        records = fill(journal, plans, 12)
        journal.close()
        replay = OutcomeJournal(tmp_path).recover()
        assert replay.clean
        assert replay.max_seq == 12
        assert_records_equal(replay.records, records)

    def test_rotation_spreads_segments(self, tmp_path, plans):
        journal = OutcomeJournal(tmp_path, segment_max_bytes=4096, fsync_every=1)
        records = fill(journal, plans, 30)
        segments = journal.segments()
        assert len(segments) > 1
        # Segment names are the first seq they hold, in replay order.
        firsts = [int(p.name[len("segment-"):-len(".wal")]) for p in segments]
        assert firsts == sorted(firsts) and firsts[0] == 1
        journal.close()
        replay = OutcomeJournal(tmp_path, segment_max_bytes=4096).recover()
        assert replay.clean and replay.segments_scanned == len(segments)
        assert_records_equal(replay.records, records)

    def test_recover_then_append_continues(self, tmp_path, plans):
        journal = OutcomeJournal(tmp_path, fsync_every=1)
        fill(journal, plans, 5)
        journal.close()
        fresh = OutcomeJournal(tmp_path, fsync_every=1)
        replay = fresh.recover()
        assert replay.max_seq == 5
        fill(fresh, plans, 3, start_seq=6)
        fresh.close()
        final = OutcomeJournal(tmp_path).recover()
        assert [r.seq for r in final.records] == list(range(1, 9))
        # Appends after a recovery never extend a recovered segment.
        assert final.segments_scanned == 2
        assert fresh.segments()[-1].name == "segment-00000006.wal"

    def test_empty_directory_replays_empty(self, tmp_path):
        replay = OutcomeJournal(tmp_path).recover()
        assert replay.clean and replay.records == () and replay.max_seq == 0


# ----------------------------------------------------------------------
# Crash damage: torn tails, bit rot, quarantine
# ----------------------------------------------------------------------
class TestDamage:
    def test_torn_tail_truncated_and_counted(self, tmp_path, plans):
        journal = OutcomeJournal(tmp_path, fsync_every=1)
        records = fill(journal, plans, 6)
        journal.close()
        segment = journal.segments()[-1]
        torn_tail(segment, drop_bytes=37)  # rip into the final record
        replay = OutcomeJournal(tmp_path).recover()
        assert replay.torn_tail_bytes > 0
        assert replay.corrupt_segments == 0
        assert [r.seq for r in replay.records] == [r.seq for r in records[:-1]]
        # The tail is gone from disk too: a second replay is clean.
        again = OutcomeJournal(tmp_path).recover()
        assert again.clean and again.max_seq == 5

    def test_torn_header_truncated(self, tmp_path, plans):
        journal = OutcomeJournal(tmp_path, fsync_every=1)
        fill(journal, plans, 3)
        journal.close()
        segment = journal.segments()[-1]
        size = segment.stat().st_size
        # Reconstruct record 3's outcome frame exactly as fill() framed
        # it (plan ids count from 0), so the cut lands 3 bytes into its
        # 8-byte frame header and leaves plan 2's frame an orphan.
        payload_len = len(encode_record(make_record(3, plans[2], predicted=12.0), 2))
        torn_tail(segment, drop_bytes=payload_len + 5)
        replay = OutcomeJournal(tmp_path).recover()
        assert replay.torn_tail_bytes == 3
        assert replay.max_seq == 2
        assert segment.stat().st_size < size
        assert frames(segment)[-1][2][:1] == PLAN_FRAME

    def test_bit_flip_in_payload_skips_one_record(self, tmp_path, plans):
        journal = OutcomeJournal(tmp_path, fsync_every=1)
        fill(journal, plans, 8)
        journal.close()
        segment = journal.segments()[0]
        # Flip a byte inside the FIRST record's outcome frame (after
        # its plan's frame): framing stays walkable, so only that
        # record is lost.
        start, end, payload = frames(segment)[1]
        assert payload[:1] == OUTCOME_FRAME
        flip_byte(segment, start + 8 + 10)
        replay = OutcomeJournal(tmp_path).recover()
        assert replay.corrupt_records == 1
        assert replay.corrupt_segments == 0
        assert [r.seq for r in replay.records] == list(range(2, 9))
        # The segment was rewritten to its good frames, the damaged
        # bytes kept aside: the next recovery finds no damage.
        assert (tmp_path / "segment-00000001.corrupt").exists()
        again = OutcomeJournal(tmp_path).recover()
        assert again.clean
        assert [r.seq for r in again.records] == list(range(2, 9))

    def test_flipped_plan_frame_costs_only_its_segments_references(
        self, tmp_path, plans
    ):
        journal = OutcomeJournal(tmp_path, segment_max_bytes=12000, fsync_every=1)
        records = fill(journal, plans[:3], 30)
        journal.close()
        segments = journal.segments()
        assert len(segments) >= 2
        start, _, payload = frames(segments[0])[0]
        pid, _, _ = decode_plan(payload)
        flip_byte(segments[0], start + 8 + 20)
        replay = OutcomeJournal(tmp_path, segment_max_bytes=12000).recover()
        first_next = int(segments[1].name[len("segment-"):-len(".wal")])
        lost = [
            r.seq for r in records
            if r.plan is plans[0] and r.seq < first_next
        ]
        assert pid == 0 and lost
        # The plan frame itself plus every reference to it in its segment.
        assert replay.corrupt_records == 1 + len(lost)
        assert replay.corrupt_segments == 0
        assert [r.seq for r in replay.records] == [
            r.seq for r in records if r.seq not in lost
        ]
        # Later segments carry their own copy of plan 0's frame.
        assert any(
            r.plan.to_dict() == plans[0].to_dict()
            for r in replay.records if r.seq >= first_next
        )

    def test_bad_magic_quarantines_segment(self, tmp_path, plans):
        journal = OutcomeJournal(tmp_path, segment_max_bytes=4096, fsync_every=1)
        records = fill(journal, plans, 30)
        segments = journal.segments()
        assert len(segments) >= 3
        journal.close()
        flip_byte(segments[1], 0)  # middle segment's magic
        replay = OutcomeJournal(tmp_path, segment_max_bytes=4096).recover()
        assert replay.corrupt_segments == 1
        seqs = {r.seq for r in replay.records}
        assert seqs < {r.seq for r in records}  # strictly fewer
        # Quarantined, not deleted, and no longer scanned.
        assert any(p.suffix.startswith(".corrupt") for p in tmp_path.iterdir())
        assert OutcomeJournal(tmp_path, segment_max_bytes=4096).recover().clean

    def test_broken_framing_mid_segment_quarantines(self, tmp_path, plans):
        journal = OutcomeJournal(tmp_path, segment_max_bytes=4096, fsync_every=1)
        fill(journal, plans, 30)
        segments = journal.segments()
        assert len(segments) >= 2
        journal.close()
        # An implausible length in a NON-final segment's first header
        # breaks the frame chain: quarantine, replay continues after.
        with open(segments[0], "r+b") as handle:
            handle.seek(len(SEGMENT_MAGIC))
            handle.write((MAX_RECORD_BYTES + 1).to_bytes(4, "little"))
        replay = OutcomeJournal(tmp_path, segment_max_bytes=4096).recover()
        assert replay.corrupt_segments == 1
        assert replay.records  # later segments still replayed
        assert min(r.seq for r in replay.records) > 1

    def test_never_raises_on_arbitrary_garbage(self, tmp_path):
        (tmp_path / "segment-00000001.wal").write_bytes(os.urandom(512))
        (tmp_path / "segment-00000099.wal").write_bytes(b"")
        replay = OutcomeJournal(tmp_path).recover()
        assert replay.corrupt_segments == 2
        assert replay.records == ()


class TestFuzzedBytes:
    """Random bit rot and torn tails over a multi-segment journal whose
    plans repeat: recovery never raises, every record it returns is the
    original bit for bit, every loss shows in a damage counter, and the
    repaired directory recovers clean."""

    SEGMENT_MAX = 16000

    @pytest.fixture(scope="class")
    def pristine(self, tmp_path_factory, plans):
        directory = tmp_path_factory.mktemp("pristine")
        journal = OutcomeJournal(directory, segment_max_bytes=self.SEGMENT_MAX)
        records = fill(journal, plans[:5], 40)
        journal.close()
        segments = {p.name: p.read_bytes() for p in journal.segments()}
        assert len(segments) >= 3
        return records, segments

    @staticmethod
    def check_records(replayed, by_seq):
        seqs = [r.seq for r in replayed]
        assert seqs == sorted(set(seqs))
        assert_records_equal(replayed, [by_seq[seq] for seq in seqs])
        for a in replayed:
            for b in replayed:
                assert (a.plan is b.plan) == (by_seq[a.seq].plan is by_seq[b.seq].plan)

    @given(
        cut=st.booleans(),
        target=st.integers(min_value=0, max_value=10**6),
        offsets=st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=3),
    )
    @settings(max_examples=120, deadline=None)
    def test_damage_is_counted_and_repaired(self, pristine, cut, target, offsets):
        records, segments = pristine
        by_seq = {r.seq: r for r in records}
        names = sorted(segments)
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            for name, data in segments.items():
                (directory / name).write_bytes(data)
            final = directory / names[-1]
            if cut:
                # A torn write can only hit the segment being appended.
                size = offsets[0] % (len(segments[names[-1]]) + 1)
                os.truncate(final, size)
            else:
                victim = directory / names[target % len(names)]
                for offset in offsets:
                    flip_byte(victim, offset % victim.stat().st_size)

            replay = OutcomeJournal(directory).recover()
            self.check_records(replay.records, by_seq)
            damage = (
                replay.corrupt_records + replay.corrupt_segments + replay.torn_tail_bytes
            )
            if cut:
                earlier = [
                    json.loads(p[1:])["seq"]
                    for name in names[:-1]
                    for _, _, p in frames(directory / name)
                    if p[:1] == OUTCOME_FRAME
                ]
                whole = [(end, p) for _, end, p in frames(segments[names[-1]])]
                if size < len(SEGMENT_MAGIC):
                    kept, boundary = [], size
                    assert replay.corrupt_segments == 1
                else:
                    kept = [p for end, p in whole if end <= size]
                    boundary = max([len(SEGMENT_MAGIC)] + [end for end, _ in whole if end <= size])
                    assert replay.torn_tail_bytes == size - boundary
                expected = earlier + [
                    json.loads(p[1:])["seq"] for p in kept if p[:1] == OUTCOME_FRAME
                ]
                assert [r.seq for r in replay.records] == expected
            elif len(replay.records) < len(records):
                assert damage > 0

            again = OutcomeJournal(directory).recover()
            assert again.clean
            assert [r.seq for r in again.records] == [r.seq for r in replay.records]
            self.check_records(again.records, by_seq)


# ----------------------------------------------------------------------
# Sick disks: fsync failure degrades, never raises
# ----------------------------------------------------------------------
class TestSickDisk:
    def test_fsync_failure_degrades_to_counter(self, tmp_path, plans):
        journal = OutcomeJournal(
            tmp_path, fsync_every=2, fsync_fn=failing_fsync(calls={1})
        )
        rec1, rec2 = fill(journal, plans, 1), None
        assert journal.io_errors == 0
        # Second append triggers the batched fsync, which fails: the
        # append reports False, the counter bumps, nothing raises.
        assert journal.append(make_record(2, plans[1])) is False
        assert journal.io_errors == 1
        # The handle reopens on the next append and the journal heals.
        assert journal.append(make_record(3, plans[2]))
        journal.close()
        replay = OutcomeJournal(tmp_path).recover()
        assert 1 in {r.seq for r in replay.records}
        assert 3 in {r.seq for r in replay.records}

    def test_sync_failure_counted(self, tmp_path, plans):
        journal = OutcomeJournal(
            tmp_path, fsync_every=1000, fsync_fn=failing_fsync(every=1)
        )
        fill(journal, plans, 2)  # batched: no fsync yet, appends succeed
        assert journal.sync() is False
        assert journal.io_errors == 1

    def test_journaled_log_survives_sick_disk(self, tmp_path, plans):
        """The OutcomeLog keeps recording in memory even when every
        journal write fails — durability degrades, serving never dies."""
        journal = OutcomeJournal(
            tmp_path, fsync_every=1, fsync_fn=failing_fsync(every=1)
        )
        log = OutcomeLog(8, journal=journal)
        for i, plan in enumerate(plans[:5]):
            log.record(
                signature=plan.structure_signature(),
                predicted_ms=10.0,
                observed_ms=12.0,
                model="qpp",
                plan=plan,
            )
        assert log.total == 5
        assert journal.io_errors == 5


# ----------------------------------------------------------------------
# Unencodable records: counted, never raised
# ----------------------------------------------------------------------
def _sort_chain(plans, depth):
    """A valid ``Sort`` -> ... -> ``Seq Scan`` chain ``depth`` nodes deep."""
    nodes = [n for plan in plans for n in plan.preorder()]
    sort = next(n for n in nodes if n.op is PhysicalOp.SORT)
    scan = next(n for n in nodes if n.op is PhysicalOp.SEQ_SCAN)
    node = PlanNode(scan.op, scan.props)
    for _ in range(depth - 1):
        node = PlanNode(sort.op, sort.props, [node])
    return node


class TestUnencodableRecords:
    def test_deep_plan_observe_counts_encode_error(self, tmp_path, plans):
        """A plan too deep to JSON-encode is served and observed; the
        journal counts the encode failure instead of raising out of
        ``observe``, writes nothing for it, and stays clean."""
        from repro.core import QPPNet, QPPNetConfig

        deep = _sort_chain(plans, 1500)
        net = QPPNet(
            Featurizer().fit(plans),
            QPPNetConfig(hidden_layers=1, neurons=8, data_size=4, seed=0),
        )
        journal = OutcomeJournal(tmp_path, fsync_every=1)
        service = PredictionService(
            net, outcomes=OutcomeLog(8, journal=journal)
        )
        with service:
            prediction = service.submit(deep)
            prediction.result(timeout=60)
            record = prediction.observe(100.0)
            shallow = service.submit(plans[0])
            shallow.result(timeout=30)
            shallow.observe(50.0)
        assert record.plan is deep and record.seq == 1
        assert service.outcomes.total == 2
        assert journal.encode_errors == 1
        assert journal.io_errors == 0
        journal.close()
        replay = OutcomeJournal(tmp_path).recover()
        assert replay.clean
        assert [r.seq for r in replay.records] == [2]

    def test_unserializable_prop_counts_encode_error(self, tmp_path, plans):
        """A numpy scalar property passes plan validation but not
        ``json.dumps``: counted, nothing written, the journal heals."""
        odd = PlanNode(plans[0].op, dict(plans[0].props), plans[0].children)
        odd.props["Plan Rows"] = np.float32(odd.props["Plan Rows"])
        journal = OutcomeJournal(tmp_path)
        assert journal.append(make_record(1, odd)) is False
        assert journal.append(make_record(2, plans[1]))
        assert (journal.encode_errors, journal.io_errors) == (1, 0)
        journal.close()
        assert [r.seq for r in OutcomeJournal(tmp_path).recover().records] == [2]

    def test_deep_plan_writes_nothing(self, tmp_path, plans):
        journal = OutcomeJournal(tmp_path)
        assert journal.append(make_record(1, _sort_chain(plans, 1500))) is False
        assert (journal.encode_errors, journal.io_errors) == (1, 0)
        assert journal.segments() == [] and journal.appended == 0
        assert journal.append(make_record(2, plans[0]))
        journal.close()
        assert [r.seq for r in OutcomeJournal(tmp_path).recover().records] == [2]

    def test_moderately_deep_plan_round_trips(self, tmp_path, plans):
        chain = _sort_chain(plans, 200)
        journal = OutcomeJournal(tmp_path)
        assert journal.append(make_record(1, chain))
        journal.close()
        (replayed,) = OutcomeJournal(tmp_path).recover().records
        assert replayed.plan.node_count() == 200
        assert journal.encode_errors == 0


# ----------------------------------------------------------------------
# The per-segment plan table
# ----------------------------------------------------------------------
class TestPlanTable:
    def test_repeated_plan_written_once_per_segment(self, tmp_path, plans):
        journal = OutcomeJournal(tmp_path)
        fill(journal, plans[:2], 10)
        journal.close()
        (segment,) = journal.segments()
        kinds = [payload[:1] for _, _, payload in frames(segment)]
        assert kinds.count(PLAN_FRAME) == 2
        assert kinds.count(OUTCOME_FRAME) == 10
        assert kinds.index(PLAN_FRAME) < kinds.index(OUTCOME_FRAME)

    def test_shared_plan_replays_as_one_node_across_segments(self, tmp_path, plans):
        journal = OutcomeJournal(tmp_path, segment_max_bytes=12000, fsync_every=1)
        records = fill(journal, plans[:3], 30)
        journal.close()
        assert len(journal.segments()) >= 2
        replay = OutcomeJournal(tmp_path).recover()
        assert_records_equal(replay.records, records)
        for got, ref in zip(replay.records, records):
            for other, other_ref in zip(replay.records, records):
                assert (got.plan is other.plan) == (ref.plan is other_ref.plan)

    def test_in_place_mutation_replays_both_contents(self, tmp_path, plans):
        """Each edit is caught whether the plan's entry is confirmed by
        the hash of its frame (seen once) or by its fingerprint (seen
        twice), for top-level and nested property values alike."""
        plan = PlanNode.from_dict(json.loads(json.dumps(plans[0].to_dict())))
        scan = next(n for n in plan.preorder() if n.op is PhysicalOp.SEQ_SCAN)
        mins = scan.props["Attribute Mins"]
        steps = [
            (lambda: None, 1),
            (lambda: scan.props.__setitem__("Plan Rows", 7.0), 2),
            (lambda: scan.props.__setitem__("Plan Rows", 7), 2),  # same value, int
            (lambda: mins.__setitem__(0, 1), 2),
            (lambda: mins.__setitem__(0, 1.0), 2),  # same value, float
            (lambda: mins.__setitem__(0, True), 2),  # same value, bool
            (lambda: None, 1),
        ]
        journal = OutcomeJournal(tmp_path)
        contents, step_of = [], []
        for step, (mutate, observations) in enumerate(steps):
            mutate()
            for _ in range(observations):
                contents.append(json.loads(json.dumps(plan.to_dict())))
                step_of.append(step)
                assert journal.append(make_record(len(contents), plan))
        journal.close()
        replay = OutcomeJournal(tmp_path).recover()
        assert [r.plan.to_dict() for r in replay.records] == contents
        got = {step: r.plan for step, r in zip(step_of, replay.records)}
        scans = {
            step: next(n for n in node.preorder() if n.op is PhysicalOp.SEQ_SCAN)
            for step, node in got.items()
        }
        assert [type(scans[k].props["Plan Rows"]) for k in (1, 2)] == [float, int]
        assert [type(scans[k].props["Attribute Mins"][0]) for k in (3, 4, 5)] == [
            int, float, bool,
        ]
        # Records of one step share a node; six contents, six nodes.
        nodes = [r.plan for r in replay.records]
        assert all(node is got[step] for node, step in zip(nodes, step_of))
        assert len({id(n) for n in nodes}) == 6 and got[5] is got[6]

    def test_value_marshal_refuses_is_fingerprinted_by_json(self, tmp_path, plans):
        class Mins(list):
            pass

        plan = PlanNode.from_dict(json.loads(json.dumps(plans[0].to_dict())))
        scan = next(n for n in plan.preorder() if n.op is PhysicalOp.SEQ_SCAN)
        scan.props["Attribute Mins"] = Mins(scan.props["Attribute Mins"])
        journal = OutcomeJournal(tmp_path)
        for seq in (1, 2, 3):  # a miss, the hash check, a fingerprint hit
            assert journal.append(make_record(seq, plan))
        scan.props["Attribute Mins"][0] = -1.5
        assert journal.append(make_record(4, plan))
        journal.close()
        got = [r.plan for r in OutcomeJournal(tmp_path).recover().records]
        assert got[0] is got[1] is got[2] and got[3] is not got[0]
        assert got[3].to_dict() == json.loads(json.dumps(plan.to_dict()))

    def test_ids_continue_past_those_on_disk(self, tmp_path, plans):
        journal = OutcomeJournal(tmp_path)
        fill(journal, plans[:2], 4)
        journal.close()
        restarted = OutcomeJournal(tmp_path)
        first = restarted.recover().records
        assert restarted.append(make_record(5, first[0].plan))
        assert restarted.append(make_record(6, plans[2]))
        restarted.close()
        replay = OutcomeJournal(tmp_path).recover()
        assert replay.clean and replay.segments_scanned == 2
        assert_records_equal(replay.records[4:], [make_record(5, first[0].plan),
                                                  make_record(6, plans[2])])
        (_, new_segment) = restarted.segments()
        ids = [decode_plan(p)[0] for _, _, p in frames(new_segment) if p[:1] == PLAN_FRAME]
        assert ids == [2, 3]

    def test_restart_never_merges_different_contents(self, tmp_path, plans):
        journal = OutcomeJournal(tmp_path, fsync_every=1)
        fill(journal, plans[:3], 3)
        journal.close()
        # Tear record 3's outcome frame: plan 2's frame survives as an
        # orphan, and the restart hands seq 3 to a different plan.
        segment = journal.segments()[0]
        torn_tail(segment, drop_bytes=4)
        assert frames(segment)[-1][2][:1] == PLAN_FRAME
        restarted = OutcomeJournal(tmp_path)
        assert restarted.recover().max_seq == 2
        later = [make_record(3, plans[5]), make_record(4, plans[2].clone())]
        for rec in later:
            assert restarted.append(rec)
        restarted.close()
        replay = OutcomeJournal(tmp_path).recover()
        assert replay.clean
        assert [r.seq for r in replay.records] == [1, 2, 3, 4]
        assert_records_equal(replay.records[2:], later)
        nodes = [r.plan for r in replay.records]
        assert len({id(p) for p in nodes}) == 4
        (_, new_segment) = restarted.segments()
        ids = [decode_plan(p)[0] for _, _, p in frames(new_segment) if p[:1] == PLAN_FRAME]
        assert ids == [3, 4]  # past the orphan's id 2
        # A writer that skipped recover() restarts ids at 0: the same id
        # with other content in another segment is another node.
        unrecovered = OutcomeJournal(tmp_path)
        assert unrecovered.append(make_record(5, plans[7]))
        unrecovered.close()
        replay = OutcomeJournal(tmp_path).recover()
        assert replay.clean
        assert_records_equal(replay.records[4:], [make_record(5, plans[7])])
        assert replay.records[4].plan is not replay.records[0].plan

    def test_concurrent_appends_keep_every_reference_resolvable(self, tmp_path, plans):
        """Threads appending shared plans across rotations: every
        outcome frame still finds its plan frame earlier in its segment."""
        journal = OutcomeJournal(tmp_path, segment_max_bytes=20000)
        shared = plans[:6]
        records = [
            make_record(seq, shared[seq % len(shared)]) for seq in range(1, 801)
        ]
        chunks = [records[i::4] for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda c=c: [journal.append(r) for r in c])
                for c in chunks
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        journal.close()
        assert journal.appended == len(records)
        replay = OutcomeJournal(tmp_path).recover()
        assert replay.clean and len(journal.segments()) > 1
        got = sorted(replay.records, key=lambda r: r.seq)
        assert_records_equal(got, records)
        assert len({id(r.plan) for r in got}) == len(shared)

    def test_memo_bounded_by_the_log_window(self, tmp_path, plans):
        journal = OutcomeJournal(tmp_path)
        log = OutcomeLog(8, journal=journal)
        assert journal.plan_memo_size == 8
        for plan in plans[:20]:
            log.record(
                signature=plan.structure_signature(),
                predicted_ms=1.0, observed_ms=2.0, model="qpp", plan=plan,
            )
        assert len(journal._plans) == 8
        # Plans observed once keep no encoded frame in the memo.
        assert all(entry.frame is None for entry in journal._plans.values())
        journal.close()


# ----------------------------------------------------------------------
# Retention
# ----------------------------------------------------------------------
class TestPrune:
    def test_prunes_whole_dead_segments_only(self, tmp_path, plans):
        journal = OutcomeJournal(tmp_path, segment_max_bytes=4096, fsync_every=1)
        fill(journal, plans, 30)
        segments = journal.segments()
        assert len(segments) >= 3
        firsts = [int(p.name[len("segment-"):-len(".wal")]) for p in segments]
        # Prune below the second segment's first seq: only segment 1 dies.
        doomed = journal.prune(firsts[1])
        assert doomed == [segments[0]]
        assert journal.segments() == segments[1:]
        # min_seq below any later segment prunes nothing more.
        assert journal.prune(firsts[1]) == []
        journal.close()
        replay = OutcomeJournal(tmp_path, segment_max_bytes=4096).recover()
        assert min(r.seq for r in replay.records) == firsts[1]
        assert replay.max_seq == 30
        # The newest segment is never pruned, even with a huge cursor.
        fresh = OutcomeJournal(tmp_path, segment_max_bytes=4096)
        fresh.prune(10**9)
        assert fresh.segments() == [segments[-1]]


# ----------------------------------------------------------------------
# Fallback-degraded plans surface in ServiceStats (satellite)
# ----------------------------------------------------------------------
class TestFallbackUnitPlans:
    def test_served_fallback_plans_counted(self, plans):
        doc = json.loads((FIXTURES / "postgres" / "qunknown_0.json").read_text())
        degraded = parse(doc, "postgres")[0].plan
        assert any(UNKNOWN_OP_PROP in n.props for n in degraded.preorder())
        everything = plans + [degraded]
        featurizer = Featurizer().fit(everything)
        from repro.core import QPPNet, QPPNetConfig

        net = QPPNet(
            featurizer,
            QPPNetConfig(hidden_layers=1, neurons=8, data_size=4, seed=0),
        )
        registry = ModelRegistry()
        registry.register_session("qpp", InferenceSession(net))
        service = PredictionService(registry, default_model="qpp")
        with service:
            for plan in plans[:4]:
                service.submit(plan).result(timeout=30)
            assert service.stats().fallback_unit_plans == 0
            for _ in range(3):
                service.submit(degraded).result(timeout=30)
        stats = service.stats()
        assert stats.fallback_unit_plans == 3
        assert stats.completed == 7

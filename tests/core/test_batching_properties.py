"""Property tests for the §5.1.1 batching layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BufferPool, PreGroupedCorpus, bucket_plans
from repro.featurize import Featurizer
from repro.workload import Workbench


@pytest.fixture(scope="module")
def samples():
    wb = Workbench("tpch", seed=0)
    return wb.generate(44, rng=np.random.default_rng(2))


@pytest.fixture(scope="module")
def featurizer(samples):
    return Featurizer().fit([s.plan for s in samples])


@pytest.fixture(scope="module")
def pre(samples, featurizer):
    return PreGroupedCorpus.from_samples(samples, featurizer)


def _members(samples, group):
    """The samples of ``group``, in corpus order (its row order)."""
    return [s for s in samples if s.plan.structure_signature() == group.graph.signature]


class TestBucketPlans:
    """Composition of independently submitted plans (serving tier)."""

    def test_partition_and_arrival_order(self, samples):
        plans = [s.plan for s in samples]
        buckets = bucket_plans(plans)
        seen = sorted(i for b in buckets for i in b.indices)
        assert seen == list(range(len(plans)))
        for bucket in buckets:
            assert bucket.indices == sorted(bucket.indices)  # arrival order
            assert bucket.n_plans == len(bucket.nodes)
            for index, nodes in zip(bucket.indices, bucket.nodes):
                assert nodes == list(plans[index].preorder())
                assert plans[index].structure_signature() == bucket.graph.signature

    def test_canonical_order_matches_pre_grouped_corpus(self, samples, pre):
        """Serving and training must resolve the same structure mix to the
        same (cached) level plan: identical signature order."""
        bucket_order = [b.graph.signature for b in bucket_plans([s.plan for s in samples])]
        group_order = [g.graph.signature for g in pre.gather(np.arange(pre.n_plans))]
        assert bucket_order == group_order

    def test_empty(self):
        assert bucket_plans([]) == []


class TestGrouping:
    def test_partition_exact(self, samples, pre):
        assert sum(g.n_plans for g in pre.groups) == len(samples)

    def test_signatures_unique_across_groups(self, pre):
        signatures = [g.graph.signature for g in pre.groups]
        assert len(signatures) == len(set(signatures))

    def test_group_operator_totals(self, samples, pre):
        total_ops = sum(g.n_operators for g in pre.groups)
        assert total_ops == sum(s.plan.node_count() for s in samples)

    def test_feature_stacking_preserves_rows(self, pre):
        for g in pre.groups:
            for pos in range(g.graph.n_nodes):
                assert g.features[pos].shape[0] == g.n_plans

    def test_grouping_deterministic(self, samples, featurizer, pre):
        again = PreGroupedCorpus.from_samples(samples, featurizer)
        a = [g.graph.signature for g in pre.groups]
        b = [g.graph.signature for g in again.groups]
        assert a == b

    def test_pooled_gather_reuses_buffers(self, pre):
        """Gathering into a pool is value-identical to a fresh gather, and
        a second pooled gather reuses the same backing buffers."""
        pool = BufferPool()
        idx = np.arange(pre.n_plans)
        fresh = pre.gather(idx)
        pooled = pre.gather(idx, pool=pool)
        for a, b in zip(fresh, pooled):
            assert a.graph.signature == b.graph.signature
            assert np.array_equal(a.labels, b.labels)
            for pos in range(a.graph.n_nodes):
                assert np.array_equal(a.features[pos], b.features[pos])
        again = pre.gather(idx, pool=pool)
        for b, c in zip(pooled, again):
            for pos in range(b.graph.n_nodes):
                assert c.features[pos].base is b.features[pos].base or (
                    c.features[pos] is b.features[pos]
                )


class TestPreGroupedFromSamples:
    """``PreGroupedCorpus.from_samples`` (the compiled-featurization
    construction) against the scalar featurizer: every stored row is the
    plan's ``transform_plan`` row, bitwise in float64 and the float64 row
    cast once in float32; labels are per-node actuals over the scale."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bitwise_equal_to_reference(self, samples, featurizer, dtype):
        compiled = PreGroupedCorpus.from_samples(samples, featurizer, dtype=dtype)
        assert compiled.dtype == np.dtype(dtype)
        assert compiled.n_plans == len(samples)
        scale = featurizer.latency_scale_ms
        for group in compiled.groups:
            assert group.labels.dtype == np.dtype(dtype)
            for row, sample in enumerate(_members(samples, group)):
                rows = featurizer.transform_plan(sample.plan)
                for pos, want in enumerate(rows):
                    got = group.features[pos][row]
                    assert got.dtype == np.dtype(dtype)
                    assert np.array_equal(got, want.astype(dtype))
                labels = np.array(
                    [n.actual_total_ms / scale for n in sample.plan.preorder()]
                )
                assert np.array_equal(group.labels[row], labels.astype(dtype))

    def test_gather_matches_reference_gather(self, samples, featurizer, pre):
        """A gathered batch holds, per structure in batch order, the batch
        members' scalar-featurizer rows."""
        indices = np.random.default_rng(9).permutation(len(samples))[:16]
        for group in pre.gather(indices):
            members = [
                samples[i] for i in indices
                if samples[i].plan.structure_signature() == group.graph.signature
            ]
            assert group.n_plans == len(members)
            for row, sample in enumerate(members):
                for pos, want in enumerate(featurizer.transform_plan(sample.plan)):
                    assert np.array_equal(group.features[pos][row], want)

    def test_empty_rejected(self, featurizer):
        with pytest.raises(ValueError):
            PreGroupedCorpus.from_samples([], featurizer)


class TestSampleBatches:
    """Random batch sampling: :meth:`PreGroupedCorpus.batch_indices`."""

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_batches_cover_corpus_exactly_once(self, pre, batch_size, seed):
        batches = pre.batch_indices(batch_size, np.random.default_rng(seed))
        flat = [int(i) for b in batches for i in b]
        assert sorted(flat) == list(range(pre.n_plans))
        assert all(len(b) <= batch_size for b in batches)

    def test_batches_shuffled(self, pre):
        batches = pre.batch_indices(pre.n_plans, np.random.default_rng(0))
        assert list(batches[0]) != list(range(pre.n_plans))  # astronomically unlikely

    def test_invalid_batch_size(self, pre):
        with pytest.raises(ValueError):
            pre.batch_indices(0, np.random.default_rng(0))


class TestPlanGraphDepth:
    def test_depth_of_matches_tree(self, pre):
        for group in pre.groups[:5]:
            graph = group.graph
            root_depth = graph.depth_of(0)
            leaf_positions = [
                p for p in range(graph.n_nodes) if not graph.children[p]
            ]
            assert all(graph.depth_of(p) == 1 for p in leaf_positions)
            assert root_depth >= 1

    def test_heights_match_recursive_definition(self, pre):
        def recursive_height(graph, pos):
            kids = graph.children[pos]
            if not kids:
                return 0
            return 1 + max(recursive_height(graph, k) for k in kids)

        for group in pre.groups[:5]:
            graph = group.graph
            assert graph.heights == tuple(
                recursive_height(graph, p) for p in range(graph.n_nodes)
            )
            # depth_of is the 1-based view of the same pass.
            assert all(
                graph.depth_of(p) == graph.heights[p] + 1
                for p in range(graph.n_nodes)
            )

    def test_heights_memoized(self, pre):
        graph = pre.groups[0].graph
        assert graph.heights is graph.heights  # one postorder pass, cached

    def test_depth_of_iterative_on_deep_chain(self):
        """A unary chain deeper than the recursion limit: the old
        recursive depth_of would blow the stack; the postorder pass must
        not."""
        from repro.core.batching import PlanGraph
        from repro.plans.operators import LogicalType

        n = 5000
        types = tuple(
            [LogicalType.MATERIALIZE] * (n - 1) + [LogicalType.SCAN]
        )
        children = tuple(
            tuple([pos + 1]) if pos < n - 1 else () for pos in range(n)
        )
        postorder = tuple(range(n - 1, -1, -1))
        graph = PlanGraph("chain", types, children, postorder)
        assert graph.depth_of(0) == n
        assert graph.depth_of(n - 1) == 1


class TestBufferPool:
    def test_reuses_backing_allocation(self):
        pool = BufferPool()
        a = pool.take("x", (8, 4))
        a[:] = 7.0
        b = pool.take("x", (6, 4))
        assert b.base is a.base or b.base is a  # same backing array
        c = pool.take("x", (16, 4))  # must grow
        assert c.shape == (16, 4)

    def test_width_change_reallocates(self):
        pool = BufferPool()
        a = pool.take("x", (4, 4))
        b = pool.take("x", (4, 5))
        assert b.shape == (4, 5)
        assert a.shape == (4, 4)

    def test_lru_bound(self):
        pool = BufferPool(max_entries=2)
        pool.take("a", (2, 2))
        pool.take("b", (2, 2))
        pool.take("a", (2, 2))  # refresh a
        pool.take("c", (2, 2))  # evicts b (least recently used)
        assert len(pool) == 2
        held = pool.take("a", (2, 2))
        assert pool.take("a", (2, 2)).base is held.base  # "a" survived eviction

    def test_invalid_max_entries(self):
        with pytest.raises(ValueError):
            BufferPool(max_entries=0)

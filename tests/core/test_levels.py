"""LevelPlan: cross-structure level-fused execution (ISSUE 3 tentpole).

Structural properties of the compiler (one step per unit type per tree
depth, contiguous output blocks, layout memoization), equivalence of the
fused forward with the taped per-group reference, and the LRU bounds on the
plan cache and serving buffers.
"""

import numpy as np
import pytest

from repro.core import (
    BufferPool,
    LevelPlan,
    LevelPlanCache,
    QPPNet,
    QPPNetConfig,
    group_by_structure,
    vectorize_corpus,
)
from repro.featurize import Featurizer
from repro.workload import Workbench


@pytest.fixture(scope="module")
def corpus():
    return Workbench("tpch", seed=0).generate(48, rng=np.random.default_rng(5))


@pytest.fixture(scope="module")
def featurizer(corpus):
    return Featurizer().fit([s.plan for s in corpus])


@pytest.fixture(scope="module")
def model(corpus, featurizer):
    config = QPPNetConfig(hidden_layers=2, neurons=12, data_size=4)
    return QPPNet(featurizer, config)


@pytest.fixture(scope="module")
def groups(corpus, featurizer):
    return group_by_structure(vectorize_corpus(corpus, featurizer))


class TestCompiler:
    def test_one_step_per_unit_type_per_depth(self, model, groups):
        plan = LevelPlan([g.graph for g in groups], model.units)
        keys = [(s.level, s.unit.logical_type) for s in plan.steps]
        assert len(keys) == len(set(keys)), "duplicate (depth, unit) step"
        # Every (graph, position) appears in exactly one step entry.
        seen = sorted(e.node for s in plan.steps for e in s.entries)
        assert seen == list(range(plan.n_nodes_total))
        assert plan.n_nodes_total == sum(g.graph.n_nodes for g in groups)

    def test_fusion_reduces_unit_calls(self, model, groups):
        """Cross-group fusion must need far fewer unit calls than one per
        (group, position) — that reduction IS the tentpole speedup."""
        plan = LevelPlan([g.graph for g in groups], model.units)
        per_group_calls = sum(g.graph.n_nodes for g in groups)
        assert len(groups) > 1
        assert plan.n_steps < per_group_calls

    def test_children_always_in_earlier_steps(self, model, groups):
        plan = LevelPlan([g.graph for g in groups], model.units)
        step_of = {}
        for si, step in enumerate(plan.steps):
            for entry in step.entries:
                step_of[entry.node] = si
        for step in plan.steps:
            for entry in step.entries:
                for child in entry.children:
                    assert step_of[child] < step_of[entry.node]

    def test_layout_blocks_are_contiguous(self, model, groups):
        plan = LevelPlan([g.graph for g in groups], model.units)
        counts = [g.n_plans for g in groups]
        layout = plan.layout(counts)
        assert layout.total_rows == sum(
            c * g.graph.n_nodes for c, g in zip(counts, groups)
        )
        offset = 0
        for (lo, hi), step in zip(layout.step_bounds, plan.steps):
            assert lo == offset
            for entry in step.entries:
                assert layout.starts[entry.node] == offset
                assert layout.rows[entry.node] == counts[entry.graph]
                offset += counts[entry.graph]
            assert hi == offset
        assert offset == layout.total_rows

    def test_layout_is_memoized_and_bounded(self, model, groups):
        plan = LevelPlan([groups[0].graph], model.units)
        first = plan.layout((7,))
        assert plan.layout((7,)) is first
        for batch in range(1, plan.MAX_CACHED_LAYOUTS + 5):
            plan.layout((batch,))
        assert len(plan._layouts) <= plan.MAX_CACHED_LAYOUTS

    def test_invalid_inputs_rejected(self, model, groups):
        with pytest.raises(ValueError):
            LevelPlan([], model.units)
        plan = LevelPlan([groups[0].graph], model.units)
        with pytest.raises(ValueError):
            plan.layout((1, 2))  # wrong number of groups
        with pytest.raises(ValueError):
            plan.layout((-1,))  # negative batch size
        run = plan.forward_inference([groups[0].features], [groups[0].n_plans])
        with pytest.raises(ValueError):
            plan.backward(run, np.zeros_like(run.out))  # inference run has no tape

    def test_zero_count_groups_are_noops(self, model, groups):
        """A zero-row group (batch padding) must not disturb the others."""
        assert len(groups) >= 3
        plan = LevelPlan([g.graph for g in groups], model.units)
        counts = [g.n_plans for g in groups]
        features = [g.features for g in groups]
        full = plan.forward_inference(features, counts)
        full_by_node = {
            (gi, pos): full.out[plan.node_slice(full.layout, gi, pos)].copy()
            for gi, g in enumerate(groups)
            for pos in range(g.graph.n_nodes)
        }
        zeroed = 1
        counts[zeroed] = 0
        features[zeroed] = [f[:0] for f in groups[zeroed].features]
        run = plan.forward_inference(features, counts)
        assert run.layout.total_rows < full.layout.total_rows
        for gi, group in enumerate(groups):
            for pos in range(group.graph.n_nodes):
                got = run.out[plan.node_slice(run.layout, gi, pos)]
                if gi == zeroed:
                    assert got.shape[0] == 0
                else:
                    assert np.max(np.abs(got - full_by_node[(gi, pos)])) <= 1e-9


class TestFusedForwardEquivalence:
    def test_matches_per_group_schedules(self, model, groups):
        """The fused whole-batch forward equals running every group through
        the taped ``forward_group`` reference, position by position."""
        plan = LevelPlan([g.graph for g in groups], model.units)
        run = plan.forward_inference(
            [g.features for g in groups], [g.n_plans for g in groups]
        )
        for gi, group in enumerate(groups):
            reference = model.forward_group(group)
            for pos in range(group.graph.n_nodes):
                fused = run.out[plan.node_slice(run.layout, gi, pos)]
                assert np.max(np.abs(fused - reference[pos].data)) <= 1e-9

    def test_training_forward_matches_inference(self, model, groups):
        plan = LevelPlan([g.graph for g in groups], model.units)
        features = [g.features for g in groups]
        counts = [g.n_plans for g in groups]
        inference = plan.forward_inference(features, counts).out.copy()
        training = plan.forward_training(features, counts)
        assert training.tapes is not None and len(training.tapes) == plan.n_steps
        assert np.array_equal(training.out, inference)

    def test_gather_node_columns_roundtrip(self, model, groups):
        plan = LevelPlan([g.graph for g in groups], model.units)
        layout = plan.layout([g.n_plans for g in groups])
        flat = plan.gather_node_columns([g.labels for g in groups], layout)
        for gi, group in enumerate(groups):
            for pos in range(group.graph.n_nodes):
                rows = plan.node_slice(layout, gi, pos)
                assert np.array_equal(flat[rows], group.labels[:, pos])


class TestLevelPlanCache:
    def test_hit_and_identity(self, model, groups):
        cache = LevelPlanCache()
        graphs = [g.graph for g in groups]
        first = cache.get(graphs, model.units)
        assert cache.get(graphs, model.units) is first
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_eviction(self, model, groups):
        assert len(groups) >= 3
        cache = LevelPlanCache(maxsize=2)
        a = cache.get([groups[0].graph], model.units)
        cache.get([groups[1].graph], model.units)
        cache.get([groups[2].graph], model.units)  # evicts the first
        assert len(cache) == 2
        assert cache.get([groups[0].graph], model.units) is not a  # recompiled

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            LevelPlanCache(maxsize=0)


class TestBoundedBuffers:
    def test_buffer_pool_eviction_frees_entries(self):
        pool = BufferPool(max_entries=4)
        kept = [pool.take(("k", i), (3, 2)) for i in range(10)]
        assert len(pool) == 4
        assert set(pool._buffers) == {("k", i) for i in range(6, 10)}
        # Evicted buffers stay valid for live references (refcounting).
        kept[0][:] = 1.0
        assert np.all(kept[0] == 1.0)

    def test_session_pool_is_bounded(self, model, corpus):
        from repro.serving import InferenceSession

        session = InferenceSession(model, max_pooled_buffers=3)
        session.predict_batch([s.plan for s in corpus])
        assert len(session._pool) <= 3
        # Default sessions are bounded too (LRU-evicting, not unbounded).
        default = InferenceSession(model)
        assert default._pool.max_entries == InferenceSession.MAX_POOLED_BUFFERS

    def test_bounded_session_results_unchanged(self, model, corpus):
        from repro.serving import InferenceSession

        plans = [s.plan for s in corpus]
        tight = InferenceSession(model, max_pooled_buffers=2).predict_batch(plans)
        roomy = InferenceSession(model).predict_batch(plans)
        assert np.array_equal(tight, roomy)

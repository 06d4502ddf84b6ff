"""Tests for neural units, tree assembly and the QPPNet model."""

import numpy as np
import pytest

from repro import nn
from repro.core import (
    MIN_PREDICTION_MS,
    NeuralUnit,
    PreGroupedCorpus,
    QPPNet,
    QPPNetConfig,
    plan_graph,
)
from repro.featurize import Featurizer
from repro.plans import LogicalType
from repro.workload import Workbench


@pytest.fixture(scope="module")
def corpus():
    return Workbench("tpch", seed=0).generate(44, rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def featurizer(corpus):
    return Featurizer().fit([s.plan for s in corpus])


@pytest.fixture(scope="module")
def model(featurizer):
    return QPPNet(featurizer, QPPNetConfig(hidden_layers=2, neurons=16, data_size=4))


class TestNeuralUnit:
    def test_input_width_formula(self):
        rng = np.random.default_rng(0)
        unit = NeuralUnit(LogicalType.JOIN, 10, 8, 2, 16, rng)
        # feature_size + arity * (d + 1) = 10 + 2*9
        assert unit.in_features == 28

    def test_scan_unit_no_children(self):
        unit = NeuralUnit(LogicalType.SCAN, 10, 8, 2, 16, np.random.default_rng(0))
        assert unit.in_features == 10

    def test_output_width_is_d_plus_1(self):
        unit = NeuralUnit(LogicalType.SCAN, 10, 8, 2, 16, np.random.default_rng(0))
        out = unit(nn.Tensor(np.zeros((3, 10))))
        assert out.shape == (3, 9)

    def test_assemble_pads_missing_children(self):
        unit = NeuralUnit(LogicalType.JOIN, 10, 4, 2, 16, np.random.default_rng(0))
        features = nn.Tensor(np.zeros((2, 10)))
        child = nn.Tensor(np.ones((2, 5)))
        full = unit.assemble_input(features, [child])
        assert full.shape == (2, 20)
        assert np.allclose(full.data[:, 15:], 0.0)  # padded slot

    def test_assemble_rejects_too_many_children(self):
        unit = NeuralUnit(LogicalType.SORT, 10, 4, 2, 16, np.random.default_rng(0))
        features = nn.Tensor(np.zeros((1, 10)))
        child = nn.Tensor(np.zeros((1, 5)))
        with pytest.raises(ValueError):
            unit.assemble_input(features, [child, child])

    def test_rejects_wrong_width(self):
        unit = NeuralUnit(LogicalType.SCAN, 10, 4, 2, 16, np.random.default_rng(0))
        with pytest.raises(ValueError):
            unit(nn.Tensor(np.zeros((1, 7))))


class TestPlanGraph:
    def test_graph_matches_plan(self, corpus):
        plan = corpus[0].plan
        graph = plan_graph(plan)
        assert graph.n_nodes == plan.node_count()
        assert graph.signature == plan.structure_signature()

    def test_postorder_children_first(self, corpus):
        graph = plan_graph(corpus[0].plan)
        seen = set()
        for pos in graph.postorder:
            for child in graph.children[pos]:
                assert child in seen
            seen.add(pos)

    def test_grouping_by_signature(self, corpus, featurizer):
        groups = PreGroupedCorpus.from_samples(corpus, featurizer).groups
        assert sum(g.n_plans for g in groups) == len(corpus)
        for group in groups:
            assert group.labels.shape == (group.n_plans, group.graph.n_nodes)
            for pos in range(group.graph.n_nodes):
                assert group.features[pos].shape[0] == group.n_plans


class TestQPPNet:
    def test_unit_per_logical_type(self, model):
        assert set(model.units) == set(LogicalType)

    def test_weight_sharing(self, model, corpus):
        # The same unit object serves all scans: parameters are shared.
        scan_unit = model.units[LogicalType.SCAN]
        assert model.units[LogicalType.SCAN] is scan_unit

    def test_predict_positive(self, model, corpus):
        for sample in corpus[:5]:
            assert model.predict(sample.plan) >= MIN_PREDICTION_MS

    def test_predict_operators_count(self, model, corpus):
        plan = corpus[0].plan
        preds = model.predict_operators(plan)
        assert len(preds) == plan.node_count()

    def test_forward_group_caches_every_position(self, model, corpus, featurizer):
        group = PreGroupedCorpus.from_samples(corpus[:6], featurizer).groups[0]
        outputs = model.forward_group(group)
        assert set(outputs) == set(range(group.graph.n_nodes))

    def test_uncached_forward_matches_cached(self, model, corpus, featurizer):
        group = PreGroupedCorpus.from_samples(corpus[:6], featurizer).groups[0]
        cached = model.forward_group(group)
        for pos in range(group.graph.n_nodes):
            uncached = model.forward_subtree_uncached(group, pos)
            assert np.allclose(uncached.data, cached[pos].data)

    def test_save_load_roundtrip(self, model, corpus, tmp_path):
        path = tmp_path / "qpp.npz"
        model.save(path)
        clone = QPPNet(model.featurizer, model.config)
        clone.load(path)
        plan = corpus[0].plan
        assert clone.predict(plan) == pytest.approx(model.predict(plan))

    def test_num_parameters_positive(self, model):
        assert model.num_parameters() > 1000

    def test_deterministic_construction(self, featurizer):
        cfg = QPPNetConfig(seed=5, hidden_layers=1, neurons=8, data_size=2)
        a, b = QPPNet(featurizer, cfg), QPPNet(featurizer, cfg)
        sa = a.state_dict()
        sb = b.state_dict()
        assert all(np.allclose(sa[k], sb[k]) for k in sa)


class TestConfig:
    def test_paper_config(self):
        cfg = QPPNetConfig.paper()
        assert cfg.hidden_layers == 5
        assert cfg.neurons == 128
        assert cfg.data_size == 32
        assert cfg.lr == 0.001
        assert cfg.momentum == 0.9
        assert cfg.epochs == 1000

    def test_with_override(self):
        cfg = QPPNetConfig().with_(neurons=256)
        assert cfg.neurons == 256

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hidden_layers": -1},
            {"neurons": 0},
            {"data_size": -2},
            {"mode": "warp"},
            {"loss": "hinge"},
            {"epochs": 0},
            {"batch_size": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QPPNetConfig(**kwargs)

"""The level-fused (tape-free) training engine vs. the taped reference.

The cross-structure ``LevelPlan`` behind the trainer's ``fused`` engine
and the model's single-plan ``predict_operators`` must compute the
*same* outputs and gradients as the taped autodiff oracle
(``QPPNet.forward_group``).  These tests pin that equivalence at
<= 1e-9 (including property-style sweeps over random plan structures
and depths) and check both engines end to end.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import nn
from repro.core import (
    MIN_PREDICTION_MS,
    LevelPlan,
    PlanGraph,
    PreGroupedCorpus,
    QPPNet,
    QPPNetConfig,
    StructureGroup,
    TRAINING_ENGINES,
    Trainer,
    group_by_structure,
    plan_graph,
    vectorize_corpus,
)
from repro.core.unit import NeuralUnit
from repro.featurize import Featurizer
from repro.nn.gradcheck import numerical_gradient
from repro.plans import PlanNode
from repro.plans.operators import LogicalType
from repro.workload import Workbench

GRAD_TOL = 1e-9


@pytest.fixture(scope="module")
def corpus():
    return Workbench("tpch", seed=0).generate(32, rng=np.random.default_rng(2))


@pytest.fixture(scope="module")
def featurizer(corpus):
    return Featurizer().fit([s.plan for s in corpus])


def tiny_config(**overrides):
    base = dict(hidden_layers=2, neurons=10, data_size=4, epochs=3, batch_size=16, seed=0)
    base.update(overrides)
    return QPPNetConfig(**base)


def _grad_snapshot(model):
    return {
        name: (None if p.grad is None else p.grad.copy())
        for name, p in model.named_parameters()
    }


def _max_grad_diff(model, reference):
    worst = 0.0
    for name, param in model.named_parameters():
        a = reference[name]
        b = param.grad
        a = a if a is not None else np.zeros_like(param.data)
        b = b if b is not None else np.zeros_like(param.data)
        worst = max(worst, float(np.max(np.abs(a - b))))
    return worst


class TestGradientEquivalence:
    @pytest.mark.parametrize("loss", ["mse", "rmse"])
    def test_fused_matches_taped(self, corpus, featurizer, loss):
        """The cross-structure level-fused engine computes the taped loss
        and gradients (one matmul per unit type per depth or not)."""
        config = tiny_config(loss=loss)
        model = QPPNet(featurizer, config)
        trainer = Trainer(model, config)
        vec = vectorize_corpus(corpus, featurizer)

        model.zero_grad()
        taped_loss = trainer.batch_loss(vec)
        taped_loss.backward()
        taped = _grad_snapshot(model)

        model.zero_grad()
        fused_loss = trainer.fused_loss_backward(group_by_structure(vec))

        assert abs(taped_loss.item() - fused_loss) <= GRAD_TOL
        assert _max_grad_diff(model, taped) <= GRAD_TOL

    def test_tape_free_matches_taped_with_flat_binding(self, corpus, featurizer):
        """Equivalence must also hold when grads land in flat-space views."""
        config = tiny_config()
        model = QPPNet(featurizer, config)
        trainer = Trainer(model, config)
        vec = vectorize_corpus(corpus, featurizer)

        model.zero_grad()
        trainer.batch_loss(vec).backward()
        taped = _grad_snapshot(model)

        flat = trainer._ensure_flat()
        flat.zero_grad()
        trainer.fused_loss_backward(group_by_structure(vec))
        assert _max_grad_diff(model, taped) <= GRAD_TOL

    def test_fused_padded_batch_matches_subset(self, corpus, featurizer):
        """Zero-row padding to the corpus structure list (what the fused
        fit loop does to keep one LevelPlan per fit) must not change the
        loss or any gradient."""
        from repro.core.trainer import _corpus_group_padder

        config = tiny_config()
        model = QPPNet(featurizer, config)
        trainer = Trainer(model, config)
        vec = vectorize_corpus(corpus, featurizer)
        pre = PreGroupedCorpus(vec)
        subset = pre.gather(np.arange(0, len(vec), 3))
        padded = _corpus_group_padder(pre)(subset)
        assert len(padded) == pre.n_structures
        assert len(subset) < len(padded)  # some structures really absent
        assert any(g.n_plans == 0 for g in padded)

        model.zero_grad()
        subset_loss = trainer.fused_loss_backward(subset)
        reference = _grad_snapshot(model)

        model.zero_grad()
        padded_loss = trainer.fused_loss_backward(padded)
        assert abs(subset_loss - padded_loss) <= GRAD_TOL
        assert _max_grad_diff(model, reference) <= GRAD_TOL

    def test_fused_fit_compiles_one_level_plan(self, corpus, featurizer):
        """Small random batches omit structures; padding must keep the
        level-plan cache at a single entry for the whole fit."""
        config = tiny_config(epochs=2, batch_size=4)
        model = QPPNet(featurizer, config)
        Trainer(model, config).fit(corpus)
        assert len(model.level_plans) == 1

    def test_compiled_gradients_match_numerical(self, corpus, featurizer):
        """gradcheck the fused (tape-free) path itself against central
        differences."""
        config = tiny_config(hidden_layers=1, neurons=6, data_size=2)
        model = QPPNet(featurizer, config)
        trainer = Trainer(model, config)
        groups = group_by_structure(vectorize_corpus(corpus[:4], featurizer))

        def loss_fn():
            return nn.Tensor(np.array(trainer.fused_loss_backward(groups)))

        model.zero_grad()
        trainer.fused_loss_backward(groups)
        # Snapshot before probing: every loss_fn() call accumulates
        # another backward pass into param.grad.
        analytic = _grad_snapshot(model)
        rng = np.random.default_rng(1)
        checked = 0
        for name, param in model.named_parameters():
            if rng.random() < 0.25 and checked < 4:
                numeric = numerical_gradient(loss_fn, param, eps=1e-6)
                actual = analytic[name]
                actual = actual if actual is not None else np.zeros_like(param.data)
                assert np.allclose(actual, numeric, atol=1e-4, rtol=1e-3)
                checked += 1
        assert checked > 0

    def test_leaf_fusion_present(self, corpus, featurizer):
        """The workload has multi-scan plans, so level-0 fusion must engage
        within a single-graph level plan (leaves are just depth-0 level
        steps)."""
        config = tiny_config()
        model = QPPNet(featurizer, config)
        vec = vectorize_corpus(corpus, featurizer)
        multi_scan = next(
            p for p in vec
            if sum(1 for t, kids in zip(p.graph.types, p.graph.children)
                   if not kids) >= 2
        )
        plan = model.compile_level_plan([multi_scan.graph])
        leaf_steps = [s for s in plan.steps if s.level == 0]
        assert any(len(s.entries) >= 2 for s in leaf_steps)
        # Every position belongs to exactly one level step.
        seen = [e.pos for s in plan.steps for e in s.entries]
        assert sorted(seen) == list(range(multi_scan.graph.n_nodes))
        # Leaves are exactly the level-0 entries.
        leaves = {pos for pos, kids in enumerate(multi_scan.graph.children) if not kids}
        assert {e.pos for s in leaf_steps for e in s.entries} == leaves


_UNARY_TYPES = (
    LogicalType.SORT,
    LogicalType.HASH,
    LogicalType.AGGREGATE,
    LogicalType.MATERIALIZE,
    LogicalType.LIMIT,
)


def _random_graph(rng: np.random.Generator, max_depth: int) -> PlanGraph:
    """A random plan tree in preorder, honouring each type's arity."""
    types: list[LogicalType] = []
    children: list[tuple[int, ...]] = []

    def build(depth: int) -> int:
        idx = len(types)
        types.append(LogicalType.SCAN)
        children.append(())
        if depth >= max_depth or rng.random() < 0.35:
            return idx  # leaf scan
        if rng.random() < 0.45:
            types[idx] = LogicalType.JOIN
            children[idx] = (build(depth + 1), build(depth + 1))
        else:
            types[idx] = _UNARY_TYPES[int(rng.integers(len(_UNARY_TYPES)))]
            children[idx] = (build(depth + 1),)
        return idx

    build(0)
    post: list[int] = []

    def walk(idx: int) -> None:
        for child in children[idx]:
            walk(child)
        post.append(idx)

    walk(0)
    signature = repr([(t.value, kids) for t, kids in zip(types, children)])
    return PlanGraph(signature, tuple(types), tuple(children), tuple(post))


class TestRandomStructureEquivalence:
    """Property-style sweep over random plan structures, depths and batch
    sizes: the level-fused forward latencies and parameter gradients must
    match the taped reference at <= 1e-9."""

    @pytest.mark.parametrize("seed", range(8))
    def test_fused_matches_taped_random_structures(self, seed):
        rng = np.random.default_rng(100 + seed)
        data_size = int(rng.integers(2, 5))
        units = {
            lt: NeuralUnit(
                lt,
                feature_size=int(rng.integers(1, 6)),
                data_size=data_size,
                hidden_layers=int(rng.integers(0, 3)),
                neurons=int(rng.integers(4, 9)),
                rng=rng,
            )
            for lt in LogicalType
        }
        graphs = [
            _random_graph(rng, max_depth=int(rng.integers(1, 5)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        counts = [int(rng.integers(1, 6)) for _ in graphs]
        features = [
            [rng.standard_normal((b, units[t].feature_size)) for t in g.types]
            for g, b in zip(graphs, counts)
        ]
        labels = [rng.standard_normal((b, g.n_nodes)) for g, b in zip(graphs, counts)]
        total_ops = sum(b * g.n_nodes for g, b in zip(graphs, counts))

        # Taped reference: the model's per-group forward_group (it only
        # reads ``units``), autodiff backward, the trainer's mse objective.
        taped_model = SimpleNamespace(units=units)
        for unit in units.values():
            unit.zero_grad()
        total = None
        taped_forward = {}
        for gi, (graph, feats, labs) in enumerate(zip(graphs, features, labels)):
            group = StructureGroup(graph, feats, labs)
            outputs = QPPNet.forward_group(taped_model, group)
            for pos in range(graph.n_nodes):
                taped_forward[(gi, pos)] = outputs[pos].data.copy()
                diff = outputs[pos][:, :1] - nn.Tensor(labs[:, pos : pos + 1])
                term = (diff * diff).sum()
                total = term if total is None else total + term
        taped_loss = total * (1.0 / total_ops)
        taped_loss.backward()
        taped_grads = {
            (lt, name): (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
            for lt, unit in units.items()
            for name, p in unit.named_parameters()
        }

        # Level-fused: one stacked forward/backward across all graphs.
        for unit in units.values():
            unit.zero_grad()
        plan = LevelPlan(graphs, units)
        run = plan.forward_training(features, counts)
        flat_labels = plan.gather_node_columns(labels, run.layout)
        diff = run.out[:, 0] - flat_labels
        fused_loss = float(diff @ diff) / total_ops
        grads = plan.alloc_output_grads(run.layout)
        np.multiply(diff, 2.0 / total_ops, out=grads[:, 0])
        plan.backward(run, grads)

        assert abs(taped_loss.item() - fused_loss) <= GRAD_TOL
        for gi, graph in enumerate(graphs):
            for pos in range(graph.n_nodes):
                fused_out = run.out[plan.node_slice(run.layout, gi, pos)]
                assert np.max(np.abs(fused_out - taped_forward[(gi, pos)])) <= GRAD_TOL
        worst = max(
            float(np.max(np.abs(taped_grads[(lt, name)] - (
                p.grad if p.grad is not None else np.zeros_like(p.data)
            ))))
            for lt, unit in units.items()
            for name, p in unit.named_parameters()
        )
        assert worst <= GRAD_TOL


def _random_plan(rng: np.random.Generator, donors: dict, max_depth: int) -> PlanNode:
    """A random plan tree of real operator nodes, honouring each arity.

    ``donors`` maps arity -> corpus nodes; every node of the result copies
    a random donor's operator and properties, so the featurizer fitted on
    the corpus covers it while the tree shape is new.
    """
    if max_depth == 0 or rng.random() < 0.3:
        arity = 0
    else:
        arity = 2 if rng.random() < 0.4 else 1
    donor = donors[arity][int(rng.integers(len(donors[arity])))]
    children = [_random_plan(rng, donors, max_depth - 1) for _ in range(arity)]
    return PlanNode(donor.op, donor.props, children)


class TestRandomPlanPredictions:
    """Single-plan serving (``QPPNet.predict_operators``, one single-graph
    level plan) against the taped ``forward_group`` oracle, over random
    plan structures and depths, in float64."""

    @pytest.mark.parametrize("seed", range(6))
    def test_predict_operators_matches_taped_random_plans(
        self, corpus, featurizer, seed
    ):
        donors: dict[int, list] = {0: [], 1: [], 2: []}
        for sample in corpus:
            for node in sample.plan.preorder():
                donors[len(node.children)].append(node)
        rng = np.random.default_rng(500 + seed)
        config = tiny_config(hidden_layers=int(rng.integers(1, 3)), seed=seed)
        model = QPPNet(featurizer, config)
        scale = featurizer.latency_scale_ms
        for _ in range(5):
            plan = _random_plan(rng, donors, max_depth=int(rng.integers(1, 6)))
            graph = plan_graph(plan)
            features = [f.reshape(1, -1) for f in featurizer.transform_plan(plan)]
            group = StructureGroup(graph, features, np.zeros((1, graph.n_nodes)))
            outputs = model.forward_group(group)
            taped = [
                max(MIN_PREDICTION_MS, float(outputs[pos].data[0, 0]) * scale)
                for pos in range(graph.n_nodes)
            ]
            fused = model.predict_operators(plan)
            assert len(fused) == graph.n_nodes
            assert np.max(np.abs(np.subtract(fused, taped))) <= GRAD_TOL


class TestDtypeTiers:
    """float32 compute vs the float64 reference (ISSUE 5 tentpole guard).

    A float32 model built from the same seed draws the same init (cast
    once), so its losses, gradients and predictions must *track* the
    float64 reference — equality up to float32 rounding, property-tested
    across the same random-structure space as the fused-vs-taped sweep.
    """

    # float32 has ~1e-7 relative rounding per op; these nets are a few
    # matmuls deep, so 1e-4 relative is a comfortable-but-meaningful bar
    # (and the serving acceptance bar from the issue).
    REL_TOL = 1e-4

    @staticmethod
    def _unit_pair(rng_seed):
        """Structurally identical float64/float32 unit sets, same draws."""
        units = {}
        for dtype in (np.float64, np.float32):
            rng = np.random.default_rng(rng_seed)
            units[dtype] = {
                lt: NeuralUnit(
                    lt,
                    feature_size=3,
                    data_size=4,
                    hidden_layers=2,
                    neurons=8,
                    rng=rng,
                    dtype=dtype,
                )
                for lt in LogicalType
            }
        return units[np.float64], units[np.float32]

    @pytest.mark.parametrize("seed", range(6))
    def test_fused_float32_tracks_float64_random_structures(self, seed):
        """Gradients and predictions of the float32 fused engine agree
        with the float64 run to float32 rounding, over random structures,
        depths and batch sizes."""
        rng = np.random.default_rng(300 + seed)
        units64, units32 = self._unit_pair(200 + seed)
        graphs = [
            _random_graph(rng, max_depth=int(rng.integers(1, 5)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        counts = [int(rng.integers(1, 6)) for _ in graphs]
        features64 = [
            [rng.standard_normal((b, 3)) for _ in g.types]
            for g, b in zip(graphs, counts)
        ]
        features32 = [[f.astype(np.float32) for f in per] for per in features64]
        labels64 = [rng.standard_normal((b, g.n_nodes)) for g, b in zip(graphs, counts)]
        labels32 = [m.astype(np.float32) for m in labels64]
        total_ops = sum(b * g.n_nodes for g, b in zip(graphs, counts))

        def run(units, features, labels):
            plan = LevelPlan(graphs, units)
            run = plan.forward_training(features, counts)
            flat_labels = plan.gather_node_columns(labels, run.layout)
            diff = run.out[:, 0] - flat_labels
            loss = float(diff @ diff) / total_ops
            grads = plan.alloc_output_grads(run.layout)
            np.multiply(diff, 2.0 / total_ops, out=grads[:, 0])
            plan.backward(run, grads)
            out = run.out.copy()
            param_grads = {
                (lt, name): p.grad.copy()
                for lt, unit in units.items()
                for name, p in unit.named_parameters()
                if p.grad is not None
            }
            return loss, out, param_grads

        loss64, out64, grads64 = run(units64, features64, labels64)
        loss32, out32, grads32 = run(units32, features32, labels32)

        assert out32.dtype == np.float32 and out64.dtype == np.float64
        assert abs(loss32 - loss64) <= self.REL_TOL * max(1.0, abs(loss64))
        assert np.max(np.abs(out32 - out64)) <= self.REL_TOL * max(
            1.0, float(np.max(np.abs(out64)))
        )
        assert set(grads32) == set(grads64)
        for key, g64 in grads64.items():
            g32 = grads32[key]
            assert g32.dtype == np.float32
            scale = max(1.0, float(np.max(np.abs(g64))))
            assert np.max(np.abs(g32 - g64)) <= 1e-3 * scale

    def test_float32_fit_tracks_float64_loss_curve(self, corpus, featurizer):
        """End-to-end training (fused engine, same seed, same batches):
        the float32 loss curve must track the float64 reference epoch for
        epoch.  Momentum accumulates rounding across steps, so the bar is
        looser than the single-step one but still tight."""

        def run(dtype):
            config = tiny_config(epochs=4, dtype=dtype)
            model = QPPNet(featurizer, config)
            history = Trainer(model, config).fit(corpus)
            return history.train_loss

        ref = run("float64")
        f32 = run("float32")
        assert f32 == pytest.approx(ref, rel=5e-3)
        # And it actually trains.
        assert f32[-1] < f32[0]

    def test_float32_hot_path_has_no_float64_buffers(self, corpus, featurizer):
        """The acceptance bar: assembly, matmul outputs, loss seeds,
        flat parameter/gradient storage and optimizer state are all
        float32 when the config says float32."""
        config = tiny_config(epochs=1, dtype="float32")
        model = QPPNet(featurizer, config)
        trainer = Trainer(model, config)
        vec = vectorize_corpus(corpus, featurizer)
        trainer.fit_vectorized(vec, epochs=1)

        flat = trainer._flat
        assert flat is not None
        assert flat.data.dtype == np.float32 and flat.grad.dtype == np.float32
        assert trainer.optimizer._flat_velocity.dtype == np.float32
        for param in model.parameters():
            assert param.data.dtype == np.float32
            assert param.grad.dtype == np.float32
        # Every pooled buffer of every compiled level plan (assembly
        # matrices, global outputs, gradient seeds, label gathers).
        plans = list(model.level_plans._entries.values())
        assert plans, "fused fit must have compiled a level plan"
        for plan in plans:
            assert plan.dtype == np.float32
            for buffer in plan._buffers._buffers.values():
                assert buffer.dtype == np.float32
        # The trainer's stacking pool feeds batches in compute dtype.
        for buffer in trainer._stack_pool._buffers.values():
            assert buffer.dtype == np.float32

    def test_pre_grouped_corpus_carries_dtype(self, corpus, featurizer):
        vec = vectorize_corpus(corpus, featurizer)
        pre = PreGroupedCorpus(vec, dtype=np.float32)
        assert pre.dtype == np.float32
        for group in pre.groups:
            assert group.labels.dtype == np.float32
            assert all(f.dtype == np.float32 for f in group.features)
        gathered = pre.gather(np.arange(min(8, len(vec))))
        for group in gathered:
            assert group.labels.dtype == np.float32
            assert all(f.dtype == np.float32 for f in group.features)

    @pytest.mark.parametrize("mode", ["naive", "info_sharing"])
    def test_ablation_modes_honour_dtype(self, corpus, featurizer, mode):
        """The per-plan ablation modes bypass the stacking pool, so they
        must cast features/labels themselves — a float32 model's taped
        loss and gradients stay float32 in every mode."""
        config = tiny_config(mode=mode, dtype="float32", batch_size=4)
        model = QPPNet(featurizer, config)
        trainer = Trainer(model, config)
        vec = vectorize_corpus(corpus[:4], featurizer)
        loss = trainer.batch_loss(vec)
        assert loss.data.dtype == np.float32
        loss.backward()
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        assert grads and all(g.dtype == np.float32 for g in grads)

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            tiny_config(dtype="float16")

    def test_mixed_dtype_units_rejected_by_level_plan(self):
        """A plan whose positions resolve to units of different dtypes
        must be rejected at compile time, not promote silently."""
        rng = np.random.default_rng(0)
        # JOIN(SCAN, SCAN) in preorder: two unit types, guaranteed mixed.
        graph = PlanGraph(
            "join(scan,scan)",
            (LogicalType.JOIN, LogicalType.SCAN, LogicalType.SCAN),
            ((1, 2), (), ()),
            (1, 2, 0),
        )
        units = {
            LogicalType.JOIN: NeuralUnit(
                LogicalType.JOIN, 3, 4, 1, 4, rng=rng, dtype=np.float64
            ),
            LogicalType.SCAN: NeuralUnit(
                LogicalType.SCAN, 3, 4, 1, 4, rng=rng, dtype=np.float32
            ),
        }
        with pytest.raises(ValueError, match="dtype"):
            LevelPlan([graph], units)


class TestPreGroupedCorpus:
    def test_gather_matches_group_by_structure(self, corpus, featurizer):
        vec = vectorize_corpus(corpus, featurizer)
        pre = PreGroupedCorpus(vec)
        idx = np.random.default_rng(3).permutation(len(vec))[:20]
        gathered = pre.gather(idx)
        reference = group_by_structure([vec[i] for i in idx])
        assert len(gathered) == len(reference)
        for got, want in zip(gathered, reference):
            assert got.graph.signature == want.graph.signature
            assert np.array_equal(got.labels, want.labels)
            for a, b in zip(got.features, want.features):
                assert np.array_equal(a, b)

    def test_batches_partition_corpus(self, corpus, featurizer):
        vec = vectorize_corpus(corpus, featurizer)
        pre = PreGroupedCorpus(vec)
        rng = np.random.default_rng(0)
        total = 0
        for groups in pre.iter_batches(10, rng):
            total += sum(g.n_plans for g in groups)
        assert total == len(vec)

    def test_pooled_gather_equals_unpooled(self, corpus, featurizer):
        from repro.core import BufferPool

        vec = vectorize_corpus(corpus, featurizer)
        pre = PreGroupedCorpus(vec)
        idx = np.arange(min(12, len(vec)))
        pool = BufferPool()
        for got, want in zip(pre.gather(idx, pool=pool), pre.gather(idx)):
            assert np.array_equal(got.labels, want.labels)
            for a, b in zip(got.features, want.features):
                assert np.array_equal(a, b)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            PreGroupedCorpus([])


class TestCompiledFit:
    def test_engine_selection(self, featurizer):
        assert TRAINING_ENGINES == ("fused", "taped")
        config = tiny_config(mode="both")  # default engine
        assert config.engine == "fused"
        assert Trainer(QPPNet(featurizer, config), config).uses_fused_engine
        config = tiny_config(mode="both", engine="taped")
        assert not Trainer(QPPNet(featurizer, config), config).uses_fused_engine
        # Ablation modes always run taped, whatever the engine says.
        for mode in ("naive", "batching", "info_sharing"):
            config = tiny_config(mode=mode)
            assert not Trainer(QPPNet(featurizer, config), config).uses_fused_engine

    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(engine="jit")
        with pytest.raises(ValueError):
            tiny_config(engine="compiled")  # retired; bundles map it at load

    def test_compiled_fit_reduces_loss(self, corpus, featurizer):
        config = tiny_config(epochs=5)
        model = QPPNet(featurizer, config)
        history = Trainer(model, config).fit(corpus)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_engines_same_trajectory_full_batch(self, corpus, featurizer):
        """With full-corpus batches every unit is used every step, where
        the loop and fused optimizer semantics coincide — both engines
        must then produce near-identical training trajectories."""

        def run(engine):
            config = tiny_config(epochs=4, batch_size=len(corpus), engine=engine)
            model = QPPNet(featurizer, config)
            history = Trainer(model, config).fit(corpus)
            return history.train_loss

        assert run("taped") == pytest.approx(run("fused"), rel=1e-6)

    def test_compiled_fit_with_lr_decay_and_adam(self, corpus, featurizer):
        config = tiny_config(optimizer="adam", lr_decay_every=1, lr_decay_gamma=0.5, epochs=2)
        model = QPPNet(featurizer, config)
        trainer = Trainer(model, config)
        trainer.fit(corpus[:8])
        assert trainer.optimizer.lr == pytest.approx(0.001 * 0.25)

    def test_predictions_after_compiled_fit(self, corpus, featurizer):
        config = tiny_config(epochs=2)
        model = QPPNet(featurizer, config)
        Trainer(model, config).fit(corpus[:16])
        pred = model.predict(corpus[0].plan)
        assert np.isfinite(pred) and pred > 0

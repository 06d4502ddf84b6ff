"""Tests for QPP Net training: all four §5.1 modes, Eq. 7 semantics."""

import numpy as np
import pytest

from repro.core import PreGroupedCorpus, QPPNet, QPPNetConfig, Trainer, train_qppnet
from repro.featurize import Featurizer
from repro.workload import Workbench


@pytest.fixture(scope="module")
def corpus():
    return Workbench("tpch", seed=0).generate(44, rng=np.random.default_rng(1))


@pytest.fixture(scope="module")
def featurizer(corpus):
    return Featurizer().fit([s.plan for s in corpus])


def tiny_config(**overrides):
    base = dict(hidden_layers=1, neurons=12, data_size=4, epochs=3, batch_size=16, seed=0)
    base.update(overrides)
    return QPPNetConfig(**base)


def _single_plan_groups(pre, indices):
    return [group for i in indices for group in pre.gather([i])]


class TestModesEquivalence:
    def test_all_modes_same_initial_loss(self, corpus, featurizer):
        """The four modes compute the same Eq. 7 objective."""
        losses = {}
        pre = PreGroupedCorpus.from_samples(corpus, featurizer)
        singles = _single_plan_groups(pre, range(pre.n_plans))
        for mode in ("naive", "batching", "info_sharing", "both"):
            config = tiny_config(mode=mode)
            model = QPPNet(featurizer, config)
            trainer = Trainer(model, config)
            groups = pre.groups if mode in ("both", "batching") else singles
            losses[mode] = trainer.batch_loss(groups).item()
        values = list(losses.values())
        assert all(v == pytest.approx(values[0], rel=1e-9) for v in values), losses

    @pytest.mark.parametrize("mode", ["naive", "batching", "info_sharing", "both"])
    def test_every_mode_reduces_loss(self, corpus, featurizer, mode):
        config = tiny_config(mode=mode, epochs=4)
        model = QPPNet(featurizer, config)
        history = Trainer(model, config).fit(corpus[:20])
        assert history.train_loss[-1] < history.train_loss[0]

    def test_optimized_modes_faster(self, corpus, featurizer):
        """'both' must beat 'naive' in wall-clock per epoch (Fig. 9a)."""
        times = {}
        for mode in ("naive", "both"):
            config = tiny_config(mode=mode, epochs=2)
            model = QPPNet(featurizer, config)
            history = Trainer(model, config).fit(corpus)
            times[mode] = history.total_time_s
        assert times["both"] < times["naive"]


class TestBatchSource:
    """Every mode and engine trains on batches of one PreGroupedCorpus."""

    @staticmethod
    def _one_batch_grads(featurizer, pre, mode):
        # One batch covering the whole corpus: after the single step,
        # param.grad holds exactly that batch's gradients.
        config = tiny_config(mode=mode, batch_size=pre.n_plans, epochs=1)
        model = QPPNet(featurizer, config)
        Trainer(model, config).fit_grouped(pre)
        return [
            np.zeros_like(p.data) if p.grad is None else p.grad.copy()
            for p in model.parameters()
        ]

    def test_naive_same_structure_batch_matches_batching(self, corpus, featurizer):
        """Per-plan modes gather one unpooled group per member; if two
        same-structure members shared a pooled buffer, the first would
        train on the second's rows and the gradients would diverge."""
        pre = PreGroupedCorpus.from_samples(corpus[:12], featurizer)
        assert max(g.n_plans for g in pre.groups) >= 2
        naive = self._one_batch_grads(featurizer, pre, "naive")
        batching = self._one_batch_grads(featurizer, pre, "batching")
        assert any(np.abs(g).sum() > 0 for g in naive)
        for a, b in zip(naive, batching):
            assert np.max(np.abs(a - b), initial=0.0) <= 1e-12

    def test_fit_grouped_matches_fit(self, corpus, featurizer):
        def run(prebuilt):
            config = tiny_config(epochs=2)
            model = QPPNet(featurizer, config)
            trainer = Trainer(model, config)
            if prebuilt:
                pre = PreGroupedCorpus.from_samples(corpus[:16], featurizer)
                history = trainer.fit_grouped(pre)
            else:
                history = trainer.fit(corpus[:16])
            return history.train_loss, model.state_dict()

        (loss_a, state_a), (loss_b, state_b) = run(True), run(False)
        assert loss_a == loss_b
        for name in state_a:
            assert np.array_equal(state_a[name], state_b[name])

    @pytest.mark.parametrize(
        "corpus_dtype,config_dtype", [("float32", "float64"), ("float64", "float32")]
    )
    def test_fit_grouped_rejects_dtype_mismatch(
        self, corpus, featurizer, corpus_dtype, config_dtype
    ):
        pre = PreGroupedCorpus.from_samples(corpus[:8], featurizer, dtype=corpus_dtype)
        config = tiny_config(dtype=config_dtype)
        trainer = Trainer(QPPNet(featurizer, config), config)
        with pytest.raises(ValueError, match="dtype"):
            trainer.fit_grouped(pre)


class TestTrainingBehaviour:
    def test_history_recorded(self, corpus, featurizer):
        config = tiny_config(epochs=3)
        model = QPPNet(featurizer, config)
        history = Trainer(model, config).fit(corpus[:16])
        assert history.epochs == [1, 2, 3]
        assert len(history.train_loss) == 3
        assert history.wall_clock_s == sorted(history.wall_clock_s)

    def test_eval_fn_tracked(self, corpus, featurizer):
        config = tiny_config(epochs=4)
        model = QPPNet(featurizer, config)
        calls = []

        def probe(m):
            calls.append(1)
            return 42.0

        history = Trainer(model, config).fit(corpus[:16], eval_fn=probe, eval_every=2)
        assert history.eval_epochs == [2, 4]
        assert history.eval_values == [42.0, 42.0]

    def test_rmse_loss_mode(self, corpus, featurizer):
        config = tiny_config(loss="rmse")
        model = QPPNet(featurizer, config)
        history = Trainer(model, config).fit(corpus[:16])
        assert np.isfinite(history.train_loss).all()

    def test_training_improves_predictions(self, corpus):
        test = corpus[-8:]
        train = corpus[:-8]
        config = QPPNetConfig(
            hidden_layers=2, neurons=24, data_size=8, epochs=25, batch_size=32, seed=0
        )
        featurizer = Featurizer().fit([s.plan for s in train])
        model = QPPNet(featurizer, config)

        def mae():
            return float(
                np.mean([abs(model.predict(s.plan) - s.latency_ms) for s in test])
            )

        before = mae()
        Trainer(model, config).fit(train)
        after = mae()
        assert after < before

    def test_train_qppnet_convenience(self, corpus):
        model, history = train_qppnet(corpus[:16], config=tiny_config())
        assert history.final_loss > 0
        assert model.predict(corpus[0].plan) > 0

    def test_determinism_same_seed(self, corpus, featurizer):
        def run():
            config = tiny_config(epochs=2)
            model = QPPNet(featurizer, config)
            Trainer(model, config).fit(corpus[:16])
            return model.predict(corpus[0].plan)

        assert run() == pytest.approx(run())

    def test_lr_decay_applied(self, corpus, featurizer):
        config = tiny_config(epochs=4, lr_decay_every=2, lr_decay_gamma=0.1)
        model = QPPNet(featurizer, config)
        trainer = Trainer(model, config)
        trainer.fit(corpus[:16])
        assert trainer.optimizer.lr == pytest.approx(0.001 * 0.01)

"""Gradient checks through assembled plan-structured networks.

The critical correctness property of the reproduction: gradients of the
Eq. 7 loss through a *tree* of neural units (concatenation of child
outputs into parents, weight sharing across instances) must match
numerical differentiation — this is what guarantees our numpy substrate
trains the same model PyTorch would.
"""

import numpy as np
import pytest

from repro.core import PreGroupedCorpus, QPPNet, QPPNetConfig, Trainer
from repro.featurize import Featurizer
from repro.nn.gradcheck import numerical_gradient
from repro.workload import Workbench


@pytest.fixture(scope="module")
def setup():
    corpus = Workbench("tpch", seed=0).generate(8, rng=np.random.default_rng(0))
    featurizer = Featurizer().fit([s.plan for s in corpus])
    config = QPPNetConfig(hidden_layers=1, neurons=6, data_size=2, batch_size=8, epochs=1, seed=3)
    model = QPPNet(featurizer, config)
    trainer = Trainer(model, config)
    pre = PreGroupedCorpus.from_samples(corpus, featurizer)
    return model, trainer, pre


def _single_plans(pre, keep):
    """Global indices of the plans whose structure satisfies ``keep``."""
    return [i for i in range(pre.n_plans) if keep(pre.gather([i])[0].graph)]


class TestTreeGradients:
    def test_loss_gradients_match_numerical(self, setup):
        model, trainer, pre = setup
        batch = pre.gather([0, 1, 2])
        params = list(model.parameters())

        def loss_fn():
            return trainer.batch_loss(batch)

        for p in params:
            p.zero_grad()
        loss_fn().backward()

        # Check a sample of parameters from different units (full check
        # would be thousands of finite differences).
        rng = np.random.default_rng(0)
        checked = 0
        for param in params:
            if rng.random() < 0.25 and checked < 6:
                numeric = numerical_gradient(loss_fn, param, eps=1e-6)
                actual = param.grad if param.grad is not None else np.zeros_like(param.data)
                assert np.allclose(actual, numeric, atol=1e-4, rtol=1e-3)
                checked += 1
        assert checked > 0

    def test_weight_sharing_accumulates_gradients(self, setup):
        """A plan with several scans must send gradient to the scan unit
        once per instance (shared weights)."""
        model, trainer, pre = setup
        multi_scan = _single_plans(
            pre, lambda graph: sum(1 for t in graph.types if t.value == "scan") >= 2
        )[0]
        model.zero_grad()
        trainer.batch_loss(pre.gather([multi_scan])).backward()
        scan_unit = model.units[next(t for t in model.units if t.value == "scan")]
        grads = [p.grad for p in scan_unit.parameters()]
        assert any(g is not None and np.abs(g).sum() > 0 for g in grads)

    def test_unused_units_get_no_gradient(self, setup):
        model, trainer, pre = setup
        # Find a plan without aggregates (e.g. no-agg template) if any.
        no_agg = _single_plans(
            pre, lambda graph: all(t.value != "aggregate" for t in graph.types)
        )
        if not no_agg:
            pytest.skip("every sampled plan aggregates")
        model.zero_grad()
        trainer.batch_loss(pre.gather(no_agg[:1])).backward()
        agg_unit = model.units[next(t for t in model.units if t.value == "aggregate")]
        assert all(p.grad is None for p in agg_unit.parameters())

    def test_modes_share_gradients(self, setup):
        """Cached and uncached loss evaluation produce identical gradients."""
        model, trainer, pre = setup
        batch = pre.gather([0, 1])

        def grads_for(mode):
            trainer.config = trainer.config.with_(mode=mode)
            model.zero_grad()
            trainer.batch_loss(batch).backward()
            return [None if p.grad is None else p.grad.copy() for p in model.parameters()]

        cached = grads_for("both")
        uncached = grads_for("batching")
        trainer.config = trainer.config.with_(mode="both")
        for a, b in zip(cached, uncached):
            if a is None or b is None:
                assert a is None and b is None
            else:
                assert np.allclose(a, b, atol=1e-10)

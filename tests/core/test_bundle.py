"""Tests for model bundles and featurizer serialization."""

import json

import numpy as np
import pytest

from repro.core import QPPNet, QPPNetConfig, Trainer
from repro.core.bundle import BundleCorruptError, load_bundle, save_bundle
from repro.featurize import Featurizer
from repro.featurize.serialize import featurizer_from_dict, featurizer_to_dict
from repro.workload import Workbench


@pytest.fixture(scope="module")
def corpus():
    return Workbench("tpch", seed=0).generate(20, rng=np.random.default_rng(3))


@pytest.fixture(scope="module")
def trained(corpus):
    featurizer = Featurizer().fit([s.plan for s in corpus])
    config = QPPNetConfig(hidden_layers=1, neurons=8, data_size=2, epochs=2, batch_size=8)
    model = QPPNet(featurizer, config)
    Trainer(model, config).fit(corpus)
    return model


class TestFeaturizerSerialization:
    def test_roundtrip_identical_vectors(self, corpus, trained):
        featurizer = trained.featurizer
        restored = featurizer_from_dict(featurizer_to_dict(featurizer))
        for sample in corpus[:5]:
            for node in sample.plan.preorder():
                a = featurizer.transform_node(node)
                b = restored.transform_node(node)
                assert np.allclose(a, b)

    def test_latency_scale_preserved(self, trained):
        restored = featurizer_from_dict(featurizer_to_dict(trained.featurizer))
        assert restored.latency_scale_ms == trained.featurizer.latency_scale_ms

    def test_unfitted_rejected(self):
        with pytest.raises(ValueError):
            featurizer_to_dict(Featurizer())

    def test_bad_version_rejected(self, trained):
        state = featurizer_to_dict(trained.featurizer)
        state["format_version"] = 99
        with pytest.raises(ValueError):
            featurizer_from_dict(state)


class TestBundle:
    def test_roundtrip_predictions(self, corpus, trained, tmp_path):
        directory = save_bundle(trained, tmp_path / "bundle")
        restored = load_bundle(directory)
        for sample in corpus[:5]:
            assert restored.predict(sample.plan) == pytest.approx(
                trained.predict(sample.plan)
            )

    def test_config_preserved(self, trained, tmp_path):
        directory = save_bundle(trained, tmp_path / "bundle")
        restored = load_bundle(directory)
        assert restored.config == trained.config

    def test_retired_compiled_engine_loads_as_fused(self, corpus, trained, tmp_path):
        """A bundle saved while the per-group ``compiled`` engine existed
        (e.g. a promoted model under a recovery state dir) still loads:
        the retired engine maps to ``fused``, which computes the same
        gradients, and predictions are unchanged."""
        directory = save_bundle(trained, tmp_path / "bundle")
        config_path = tmp_path / "bundle" / "config.json"
        fields = json.loads(config_path.read_text())
        fields["engine"] = "compiled"
        config_path.write_text(json.dumps(fields))
        restored = load_bundle(directory)
        assert restored.config.engine == "fused"
        assert restored.config == trained.config
        for sample in corpus[:3]:
            assert restored.predict(sample.plan) == trained.predict(sample.plan)

    def test_missing_file_detected(self, trained, tmp_path):
        directory = save_bundle(trained, tmp_path / "bundle")
        (tmp_path / "bundle" / "config.json").unlink()
        with pytest.raises(FileNotFoundError):
            load_bundle(directory)


class TestBundleCorruption:
    """ISSUE 7 satellite: corrupt bundle files fail typed, naming the file."""

    def _fresh_bundle(self, trained, tmp_path, name):
        return save_bundle(trained, tmp_path / name)

    def test_truncated_weights(self, trained, tmp_path):
        directory = self._fresh_bundle(trained, tmp_path, "torn-weights")
        weights = tmp_path / "torn-weights" / "weights.npz"
        weights.write_bytes(weights.read_bytes()[:64])
        with pytest.raises(BundleCorruptError) as exc_info:
            load_bundle(directory)
        assert exc_info.value.path == str(weights)
        assert exc_info.value.__cause__ is not None

    def test_garbage_featurizer_json(self, trained, tmp_path):
        directory = self._fresh_bundle(trained, tmp_path, "bad-feat")
        target = tmp_path / "bad-feat" / "featurizer.json"
        target.write_text("{not json")
        with pytest.raises(BundleCorruptError) as exc_info:
            load_bundle(directory)
        assert "featurizer.json" in str(exc_info.value)

    def test_wrong_schema_config(self, trained, tmp_path):
        directory = self._fresh_bundle(trained, tmp_path, "bad-config")
        target = tmp_path / "bad-config" / "config.json"
        target.write_text('{"no_such_field": 1}')
        with pytest.raises(BundleCorruptError) as exc_info:
            load_bundle(directory)
        assert "config.json" in str(exc_info.value)

    def test_mismatched_weights_architecture(self, trained, tmp_path):
        directory = self._fresh_bundle(trained, tmp_path, "wrong-arch")
        config = tmp_path / "wrong-arch" / "config.json"
        import json as _json

        data = _json.loads(config.read_text())
        data["neurons"] = data["neurons"] * 2  # weights no longer fit
        config.write_text(_json.dumps(data))
        with pytest.raises(BundleCorruptError) as exc_info:
            load_bundle(directory)
        assert "weights.npz" in str(exc_info.value)

    def test_typed_error_is_runtime_error(self):
        assert issubclass(BundleCorruptError, RuntimeError)

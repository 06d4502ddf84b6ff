"""Model bundles: one directory holding everything a prediction needs.

A trained QPP Net is three things — unit weights, the fitted featurizer
(vocabularies + whitening + latency scale) and the hyperparameter config.
``save_bundle`` / ``load_bundle`` round-trip all three, so a model
trained on one machine predicts identically on another:

    save_bundle(model, "artifacts/qppnet-tpch")
    model = load_bundle("artifacts/qppnet-tpch")
"""

from __future__ import annotations

import dataclasses
import json
import os
import zipfile
from typing import Union

from repro.featurize.serialize import featurizer_from_dict, featurizer_to_dict

from .config import QPPNetConfig
from .model import QPPNet

PathLike = Union[str, "os.PathLike[str]"]

WEIGHTS_FILE = "weights.npz"
FEATURIZER_FILE = "featurizer.json"
CONFIG_FILE = "config.json"

#: Training engines that no longer exist, mapped to the engine that
#: computes the same gradients (<= 1e-9).  The engine only matters for
#: training, so an old bundle loads with its predictions unchanged.
_RETIRED_ENGINES = {"compiled": "fused"}


class BundleCorruptError(RuntimeError):
    """A bundle directory exists but one of its files cannot be loaded.

    Distinct from ``FileNotFoundError`` (file missing entirely): this is
    the torn-write / bit-rot / wrong-contents case.  ``path`` names the
    offending file and the underlying parse error is ``__cause__``.
    """

    def __init__(self, path: str, reason: str) -> None:
        self.path = path
        super().__init__(f"corrupt bundle file {path}: {reason}")


def save_bundle(model: QPPNet, directory: PathLike) -> str:
    """Persist ``model`` (weights + featurizer + config) under ``directory``."""
    directory = str(directory)
    os.makedirs(directory, exist_ok=True)
    model.save(os.path.join(directory, WEIGHTS_FILE))
    with open(os.path.join(directory, FEATURIZER_FILE), "w") as handle:
        json.dump(featurizer_to_dict(model.featurizer), handle)
    with open(os.path.join(directory, CONFIG_FILE), "w") as handle:
        json.dump(dataclasses.asdict(model.config), handle)
    return directory


def load_bundle(directory: PathLike) -> QPPNet:
    """Rebuild a model saved by :func:`save_bundle`.

    Raises ``FileNotFoundError`` when a bundle file is missing outright
    and :class:`BundleCorruptError` — naming the offending file, with
    the parse failure as ``__cause__`` — when a file exists but cannot
    be decoded (truncated JSON, torn npz, mismatched weights).
    """
    directory = str(directory)
    for required in (WEIGHTS_FILE, FEATURIZER_FILE, CONFIG_FILE):
        if not os.path.exists(os.path.join(directory, required)):
            raise FileNotFoundError(f"bundle at {directory} is missing {required}")
    featurizer_path = os.path.join(directory, FEATURIZER_FILE)
    try:
        with open(featurizer_path) as handle:
            featurizer = featurizer_from_dict(json.load(handle))
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError, ValueError) as error:
        raise BundleCorruptError(featurizer_path, str(error)) from error
    config_path = os.path.join(directory, CONFIG_FILE)
    try:
        with open(config_path) as handle:
            fields = json.load(handle)
        if isinstance(fields, dict) and fields.get("engine") in _RETIRED_ENGINES:
            fields["engine"] = _RETIRED_ENGINES[fields["engine"]]
        config = QPPNetConfig(**fields)
    except (json.JSONDecodeError, UnicodeDecodeError, TypeError, ValueError) as error:
        raise BundleCorruptError(config_path, str(error)) from error
    model = QPPNet(featurizer, config)
    weights_path = os.path.join(directory, WEIGHTS_FILE)
    try:
        model.load(weights_path)
    except (zipfile.BadZipFile, OSError, ValueError, KeyError, EOFError) as error:
        # np.load raises BadZipFile or EOFError on torn archives;
        # load_state_dict raises KeyError/ValueError when the weights do
        # not match the configured architecture.
        raise BundleCorruptError(weights_path, str(error)) from error
    return model

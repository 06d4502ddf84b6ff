"""Named-model registry: load, hold and route to multiple QPPNet bundles.

A deployment rarely serves one model: per-workload models (TPC-H vs
TPC-DS), shadow candidates, per-hardware variants.  The registry maps
names to models — registered in-memory or loaded from
:func:`~repro.core.bundle.save_bundle` directories — and hands out one
long-lived :class:`~repro.serving.session.InferenceSession` per model so
every caller shares the warmed level-plan cache and stacking buffers.

The registry is also the routing table of
:class:`~repro.serving.service.PredictionService`: the service resolves
``name -> session`` at *batch-execution* time, so re-registering a name
(``register`` replaces, ``register_session`` installs a pre-warmed
session) hot-swaps a shadow model under live traffic — in-flight batches
finish on the session they resolved, later batches pick up the new one.
Mutations and lookups share one lock, so a swap from an operator thread
never lets a reader observe a model without its session (or a name's
model paired with a stale session): each name's pair is published — and
read — atomically.
"""

from __future__ import annotations

import os
import threading
from typing import Iterator, Union

from repro.core.bundle import load_bundle
from repro.core.model import QPPNet

from .session import InferenceSession

PathLike = Union[str, os.PathLike]


class ModelRegistry:
    """Name -> (model, session) map with bundle loading and hot-swap."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._models: dict[str, QPPNet] = {}
        self._sessions: dict[str, InferenceSession] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, name: str, model: QPPNet) -> InferenceSession:
        """Add (or hot-swap) a model under ``name``; returns its session."""
        return self.register_session(name, InferenceSession(model))

    def register_session(self, name: str, session: InferenceSession) -> InferenceSession:
        """Install a pre-built session (e.g. already warmed) under ``name``.

        The session's own model becomes the registered model, so
        ``model(name)`` and ``session(name).model`` can never disagree.
        """
        with self._lock:
            self._models[name] = session.model
            self._sessions[name] = session
        return session

    def load(self, name: str, directory: PathLike) -> InferenceSession:
        """Load a :func:`save_bundle` directory and register it."""
        return self.register(name, load_bundle(directory))

    def replace_session(self, name: str, session: InferenceSession) -> InferenceSession:
        """Atomically swap ``name`` to ``session``; returns the retired one.

        The promotion primitive: unlike ``unregister`` + ``register``
        (which opens a window where in-flight routing sees no model and
        leaks :class:`UnknownModelError`), the swap happens under the
        registry lock in one step — every lookup sees either the old
        pair or the new pair, never neither.  Requires ``name`` to be
        registered; batches already executing keep the session they
        resolved, later batches pick up ``session``.
        """
        with self._lock:
            self._require(name)
            retired = self._sessions[name]
            self._models[name] = session.model
            self._sessions[name] = session
        return retired

    def unregister(self, name: str) -> InferenceSession:
        """Drop ``name``; returns the retired session (e.g. for draining)."""
        with self._lock:
            self._require(name)
            del self._models[name]
            return self._sessions.pop(name)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def model(self, name: str) -> QPPNet:
        with self._lock:
            self._require(name)
            return self._models[name]

    def session(self, name: str) -> InferenceSession:
        """The shared long-lived session for ``name``."""
        with self._lock:
            self._require(name)
            return self._sessions[name]

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._models)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._models

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def _require(self, name: str) -> None:
        # Caller holds self._lock (the lock is not reentrant).
        if name not in self._models:
            raise KeyError(
                f"no model named {name!r} is registered "
                f"(have: {sorted(self._models)})"
            )

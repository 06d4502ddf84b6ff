"""Structure-bucketed batch inference over a trained :class:`QPPNet`.

See the package docstring of :mod:`repro.serving` for the pipeline
overview.  A session is cheap to construct but meant to be long-lived:
its stacking buffers and the model's level-plan cache reach a steady
state after the first few batches of a template workload, after which a
``predict_batch`` call allocates almost nothing.

One serving path: ``predict_batch`` buckets the request batch by
structure signature, featurizes each bucket, and runs *all* buckets
through one :class:`~repro.core.levels.LevelPlan` forward — one matmul
per unit type per tree depth for the entire mixed-structure batch.  The
single-plan ``predict``/``predict_operators`` calls are batches of one
through the same path.

Featurization runs through the compiled tier
(:mod:`repro.featurize.compiled`): per-type feature *programs* replace
the per-node schema walk, and a bounded LRU **feature-vector cache**
keyed on plan identity (structure signature + every property the
programs read) lets repeated templated queries skip featurization
entirely — a hit is a strided row copy, byte-for-byte identical to the
rows a miss would compute.  Hit/miss/eviction counters surface through
:meth:`InferenceSession.stats` and aggregate into
``PredictionService.stats()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro import nn
from repro.core.batching import BufferPool, PlanBucket, plan_graph
from repro.core.model import MIN_PREDICTION_MS, QPPNet
from repro.featurize.compiled import FeatureVectorCache
from repro.plans.node import PlanNode

from .resilience import NonFinitePrediction

#: Default bound on the per-session feature-vector cache.  Sized for
#: templated production workloads (a few thousand distinct parameter
#: bindings); pass ``feature_cache_size=None`` to disable caching
#: entirely (every plan featurizes from scratch).
DEFAULT_FEATURE_CACHE_SIZE = 4096


@dataclass(frozen=True)
class SessionStats:
    """Point-in-time telemetry snapshot of one :class:`InferenceSession`."""

    requests_served: int
    feature_cache_hits: int
    feature_cache_misses: int
    feature_cache_evictions: int
    feature_cache_entries: int


class InferenceSession:
    """Vectorized ``predict_batch`` front-end for one model.

    Not thread-safe: a session owns mutable stacking buffers (and the
    model's level plans own assembly buffers); use one session per
    serving thread.
    """

    #: Default LRU bound on retained stacking buffers: ad-hoc workloads
    #: with unbounded distinct plan structures must not grow the
    #: session's memory without limit (mirrors the model's LevelPlanCache
    #: caps).
    MAX_POOLED_BUFFERS = 1024

    #: Bound on the memoized structure table (preorder ``(op, arity)``
    #: walk -> compiled :class:`PlanGraph`), which lets repeat structures
    #: skip the per-plan signature-string walk on the hot path.  FIFO
    #: eviction: the table is tiny and rebuilt on demand.
    MAX_STRUCTURES = 1024

    def __init__(
        self,
        model: QPPNet,
        max_pooled_buffers: Optional[int] = MAX_POOLED_BUFFERS,
        feature_cache_size: Optional[int] = DEFAULT_FEATURE_CACHE_SIZE,
    ) -> None:
        self.model = model
        self.featurizer = model.featurizer
        #: The model's compute precision; the session's stacking buffers
        #: are allocated in it, so featurization writes float32 directly
        #: for a float32 model (no float64 staging on the hot path).
        self.dtype = model.config.np_dtype
        self._pool = BufferPool(max_entries=max_pooled_buffers, dtype=self.dtype)
        self._widths = model.featurizer.feature_sizes()
        #: The featurizer's compiled tier (shared across sessions of the
        #: same model: programs and layouts are read-only after compile).
        self.programs = model.featurizer.compiled()
        #: Bounded LRU from plan identity to finished feature rows, or
        #: ``None`` when caching is disabled.  Per-session (not shared):
        #: entries are in the session's compute dtype.
        self.feature_cache: Optional[FeatureVectorCache] = (
            FeatureVectorCache(feature_cache_size)
            if feature_cache_size is not None
            else None
        )
        #: Requests served since construction (monitoring hook).
        self.requests_served = 0
        # Memoized structure resolution (see MAX_STRUCTURES).
        self._structures: dict[tuple, object] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def predict(self, plan: PlanNode) -> float:
        """Predicted query latency (ms) of one plan: a batch of one."""
        return float(self.predict_batch([plan])[0])

    def predict_batch(self, plans: Sequence[PlanNode]) -> np.ndarray:
        """Predicted query latency (ms) per plan, in request order.

        An empty batch returns an empty array immediately, without
        touching the compile caches or the stacking-buffer pool — the
        coalescing service may race a drain against a final submit and
        legitimately hand us nothing.
        """
        if not plans:
            return np.empty(0)
        out = np.empty(len(plans))
        scale = self.featurizer.latency_scale_ms
        for bucket, outputs in self._run_buckets(plans):
            roots = np.maximum(MIN_PREDICTION_MS, outputs[0][:, 0] * scale)
            out[bucket.indices] = roots
        if not np.isfinite(out).all():
            # Typed, never silent: name the model and the offending
            # plans so the service can treat exactly these requests as
            # poison (batch-relative indices) and complete the rest.
            bad = np.flatnonzero(~np.isfinite(out))
            raise NonFinitePrediction(
                repr(self.model),
                [plans[i].structure_signature() for i in bad],
                [int(i) for i in bad],
            )
        self.requests_served += len(plans)
        return out

    def predict_operators_batch(self, plans: Sequence[PlanNode]) -> list[list[float]]:
        """Per-operator latencies (ms, preorder) per plan, request order."""
        if not plans:
            return []
        results: list[list[float]] = [[] for _ in plans]
        scale = self.featurizer.latency_scale_ms
        for bucket, outputs in self._run_buckets(plans):
            n_nodes = bucket.graph.n_nodes
            per_node = [
                np.maximum(MIN_PREDICTION_MS, outputs[pos][:, 0] * scale)
                for pos in range(n_nodes)
            ]
            for row, index in enumerate(bucket.indices):
                results[index] = [float(per_node[pos][row]) for pos in range(n_nodes)]
        self.requests_served += len(plans)
        return results

    def predict_operators(self, plan: PlanNode) -> list[float]:
        """Single-plan per-operator predictions (see ``predict_batch``)."""
        return self.predict_operators_batch([plan])[0]

    def stats(self) -> SessionStats:
        """Telemetry snapshot (zeros for the cache when it is disabled)."""
        cache = self.feature_cache
        return SessionStats(
            requests_served=self.requests_served,
            feature_cache_hits=cache.hits if cache is not None else 0,
            feature_cache_misses=cache.misses if cache is not None else 0,
            feature_cache_evictions=cache.evictions if cache is not None else 0,
            feature_cache_entries=len(cache) if cache is not None else 0,
        )

    # ------------------------------------------------------------------
    # Structure resolution (memoized)
    # ------------------------------------------------------------------
    def _resolve_plan(self, plan: PlanNode):
        """One preorder walk -> ``(PlanGraph, preorder node list)``.

        The flat preorder ``(op, arity)`` stream uniquely determines a
        plan's structure, so it doubles as the memo key: repeat
        structures (the templated-workload steady state) skip the
        signature-string build and graph extraction of
        :func:`~repro.core.batching.plan_graph` entirely, and get back
        the *same* graph object — whose cached signature-string hash
        also makes the downstream digest/bucket dict lookups cheap.
        """
        nodes: list[PlanNode] = []
        key_parts: list = []
        stack = [plan]
        pop = stack.pop
        while stack:
            node = pop()
            nodes.append(node)
            kids = node.children
            key_parts.append(node.op)
            key_parts.append(len(kids))
            if kids:
                stack.extend(reversed(kids))
        key = tuple(key_parts)
        structures = self._structures
        graph = structures.get(key)
        if graph is None:
            if len(structures) >= self.MAX_STRUCTURES:
                del structures[next(iter(structures))]
            graph = structures[key] = plan_graph(plan)
        return graph, nodes

    def _bucket(self, plans: Sequence[PlanNode]) -> list[PlanBucket]:
        """Memoized twin of :func:`~repro.core.batching.bucket_plans`.

        Identical contract — canonical sorted-by-signature bucket order,
        arrival order within a bucket — but structures resolve through
        :meth:`_resolve_plan`.  Buckets merge on ``graph.signature`` (not
        the memo key): distinct physical ops can share a logical
        signature and must land in one bucket, exactly as the uncached
        helper groups them.
        """
        buckets: dict[str, PlanBucket] = {}
        for index, plan in enumerate(plans):
            graph, nodes = self._resolve_plan(plan)
            bucket = buckets.get(graph.signature)
            if bucket is None:
                bucket = buckets[graph.signature] = PlanBucket(graph, [], [])
            bucket.indices.append(index)
            bucket.nodes.append(nodes)
        return [buckets[signature] for signature in sorted(buckets)]

    # ------------------------------------------------------------------
    # Level-fused whole-batch execution
    # ------------------------------------------------------------------
    def _run_buckets(self, plans: Sequence[PlanNode]):
        """Yield ``(bucket, {position -> (B, d+1) outputs})`` per signature.

        The entire request batch runs as *one* level-fused forward: all
        buckets' graphs compile into a shared
        :class:`~repro.core.levels.LevelPlan` (cached on the model by the
        signature tuple) and every unit type × tree depth is one stacked
        matmul across all buckets.  The yielded outputs are row-slice
        views of the plan's global output matrix, valid until the next
        forward on the same plan — i.e. for the duration of the caller's
        scatter loop.
        """
        # Canonical (sorted-by-signature) bucket order: matches the order
        # PreGroupedCorpus.gather produces, so serving and training share
        # cached level plans for the same structure mix.
        ordered = self._bucket(plans)  # callers guarantee plans is non-empty
        level_plan = self.model.compile_level_plan([b.graph for b in ordered])
        features = [
            self._featurize_bucket(bucket.graph.signature, bucket)
            for bucket in ordered
        ]
        counts = [len(bucket.indices) for bucket in ordered]
        # The tape flag is scoped around the forward only (never held
        # across a yield): the fused forward is numpy throughout, but any
        # custom module falling back to taped forward stays tape-free.
        with nn.inference_mode():
            run = level_plan.forward_inference(features, counts)
        for gi, bucket in enumerate(ordered):
            outputs = {
                pos: run.out[level_plan.node_slice(run.layout, gi, pos)]
                for pos in range(bucket.graph.n_nodes)
            }
            yield bucket, outputs

    def _featurize_bucket(self, signature: str, bucket: PlanBucket) -> list[np.ndarray]:
        """Compiled ``F(op)`` matrices per position of a bucket.

        All positions sharing a logical type run through one
        :class:`~repro.featurize.compiled.FeatureProgram` call
        (their schema and vector width are identical), position-major;
        each position's ``(B, f_type)`` matrix is then a contiguous
        row-slice view of the combined buffer.

        When the feature-vector cache is enabled, each plan is first
        looked up by its identity digest: hit rows are strided copies of
        the cached blocks (plan ``j``'s rows are ``out[j::n_plans]`` in
        the position-major buffer), and only the missing plans are
        featurized — into a staging buffer when the bucket is partially
        hit, or straight into the pooled buffer when fully cold.
        """
        graph = bucket.graph
        n_plans = len(bucket.indices)
        layout = self.programs.layout(graph)
        cache = self.feature_cache
        digests: list[tuple] = []
        entries: Optional[list] = None
        miss: Sequence[int] = range(n_plans)
        if cache is not None:
            digests = self.programs.digests(graph, bucket.nodes)
            get = cache.get
            entries = [get(digest) for digest in digests]
            miss = [j for j, entry in enumerate(entries) if entry is None]
        # Per-miss-plan blocks to insert after the fill (copies: the
        # pooled buffer is overwritten by the next batch).
        new_blocks: dict[int, dict] = (
            {j: {} for j in miss} if cache is not None and miss else {}
        )
        stacked: list[np.ndarray] = [np.empty(0)] * graph.n_nodes
        for program, positions in layout:
            ltype = program.ltype
            k_n = len(positions)
            width = self._widths[ltype]
            out = self._pool.take((signature, ltype), (n_plans * k_n, width))
            if entries is None or len(miss) == n_plans:
                # Cold bucket (or caching disabled): run the program
                # straight into the pooled buffer, position-major.
                nodes = [
                    plan_nodes[pos] for pos in positions for plan_nodes in bucket.nodes
                ]
                program.run(nodes, out=out)
            else:
                # Mixed hit/miss: featurize only the missing plans into a
                # staging buffer, then assemble the position-major pooled
                # buffer with ONE stack per type (plan ``j``'s rows are
                # ``out[j::n_plans]`` — stacking the per-plan ``(k_n,
                # width)`` blocks along axis 1 writes exactly that).
                rows: list = [None] * n_plans
                if miss:
                    n_miss = len(miss)
                    temp = self._pool.take(
                        (signature, ltype, "miss"), (n_miss * k_n, width)
                    )
                    program.run(
                        [bucket.nodes[j][pos] for pos in positions for j in miss],
                        out=temp,
                    )
                    for m, j in enumerate(miss):
                        rows[j] = temp[m::n_miss]
                for j, entry in enumerate(entries):
                    if entry is not None:
                        rows[j] = entry[ltype]
                np.stack(rows, axis=1, out=out.reshape(k_n, n_plans, width))
            for j in new_blocks:
                new_blocks[j][ltype] = out[j::n_plans].copy()
            for k, pos in enumerate(positions):
                stacked[pos] = out[k * n_plans : (k + 1) * n_plans]
        for j, blocks in new_blocks.items():
            cache.put(digests[j], blocks)
        return stacked

"""Plan-based batch training support (paper §5.1.1).

Plans whose trees have identical *logical structure* can be vectorized
together: position ``p`` of every plan in the group runs through the same
neural unit, so the per-position feature vectors stack into matrices and
one forward pass serves the whole group.

:class:`PreGroupedCorpus` is the one source of training batches: it
partitions a corpus into :class:`StructureGroup` equivalence classes once,
draws a fresh random permutation per epoch, and row-gathers each batch's
per-structure groups.  :func:`bucket_plans` is the serving-side
counterpart for independently submitted plans.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from repro.featurize.featurizer import Featurizer
from repro.plans.node import PlanNode
from repro.plans.operators import LogicalType
from repro.workload.generator import PlanSample


@dataclass(frozen=True)
class PlanGraph:
    """The shared tree structure of one equivalence class."""

    signature: str
    types: tuple[LogicalType, ...]  # logical type per preorder position
    children: tuple[tuple[int, ...], ...]  # child positions per position
    postorder: tuple[int, ...]  # evaluation order (children first)

    @property
    def n_nodes(self) -> int:
        return len(self.types)

    @cached_property
    def heights(self) -> tuple[int, ...]:
        """Subtree height per position (0 for leaves), memoized.

        One iterative postorder pass (children are visited before their
        parents, so each node is O(arity)) — the same height assignment
        the level-fused compiler buckets steps by.
        """
        height = [0] * self.n_nodes
        for pos in self.postorder:
            kids = self.children[pos]
            if kids:
                height[pos] = 1 + max(height[k] for k in kids)
        return tuple(height)

    def depth_of(self, pos: int) -> int:
        """Subtree depth below ``pos`` (1 for leaves)."""
        return self.heights[pos] + 1


def plan_graph(root: PlanNode) -> PlanGraph:
    """Extract the :class:`PlanGraph` of a single plan."""
    nodes = list(root.preorder())
    index = {id(node): i for i, node in enumerate(nodes)}
    types = tuple(node.logical_type for node in nodes)
    children = tuple(tuple(index[id(c)] for c in node.children) for node in nodes)
    post = tuple(index[id(node)] for node in root.postorder())
    return PlanGraph(root.structure_signature(), types, children, post)


@dataclass
class StructureGroup:
    """An equivalence class of structure-identical plans, stacked.

    ``features[p]`` has shape ``(B, f_type(p))``; ``labels`` has shape
    ``(B, n_nodes)``.
    """

    graph: PlanGraph
    features: list[np.ndarray]
    labels: np.ndarray

    @property
    def n_plans(self) -> int:
        return self.labels.shape[0]

    @property
    def n_operators(self) -> int:
        return self.labels.size


@dataclass
class PlanBucket:
    """Structure-equal plans composed out of one (possibly ad-hoc) batch.

    Unlike :class:`StructureGroup` — which carries pre-featurized, stacked
    matrices for training — a bucket is the *composition* step only: it
    records which positions of the incoming request order share a
    structure, plus each member's preorder node list, so the caller can
    featurize and scatter however it likes.  This is the unit the serving
    tier coalesces independently submitted plans into.
    """

    graph: PlanGraph
    indices: list[int]  # positions in the incoming request order
    nodes: list[list[PlanNode]]  # per request: plan nodes in preorder

    @property
    def n_plans(self) -> int:
        return len(self.indices)


def bucket_plans(plans: Sequence[PlanNode]) -> list[PlanBucket]:
    """Compose independently submitted plans into per-structure buckets.

    The returned buckets are in canonical sorted-by-signature order — the
    same order :meth:`PreGroupedCorpus.gather` produces — so serving and
    training resolve to the *same* cached cross-structure level plan for
    the same structure mix, no matter how the requests arrived.  Within a
    bucket, members keep arrival order.
    """
    buckets: dict[str, PlanBucket] = {}
    for index, plan in enumerate(plans):
        signature = plan.structure_signature()
        bucket = buckets.get(signature)
        if bucket is None:
            # The full graph (and the shared level plan) is derived from
            # the bucket's first plan only; structure-equal plans reuse it.
            bucket = buckets[signature] = PlanBucket(plan_graph(plan), [], [])
        bucket.indices.append(index)
        bucket.nodes.append(list(plan.preorder()))
    return [buckets[signature] for signature in sorted(buckets)]


class BufferPool:
    """Reusable stacking buffers, keyed by the caller (hot-path allocs).

    ``take(key, shape)`` returns a writable ``(rows, width)`` array; the
    backing allocation is kept per key and handed out again on the next
    call, growing only when ``rows`` exceeds the stored capacity.  Reuse
    is only safe once the previous batch built from the pool is fully
    consumed (in training: after ``loss.backward()`` + optimizer step),
    which is exactly the batch-at-a-time cadence of the trainer and the
    serving session.

    ``max_entries`` bounds the number of retained buffers (LRU
    eviction), so a long-lived pool serving ever-new keys — e.g. an
    ad-hoc workload with unbounded distinct plan structures — cannot
    grow without limit.  Evicted buffers still referenced by a live
    batch stay valid (ordinary refcounting); only the pool forgets them.

    The pool is dtype-aware: ``dtype`` sets the default allocation
    precision (a float32 model's buffers are float32 end to end), a
    per-call ``take(..., dtype=...)`` overrides it, and a cached buffer
    of the wrong dtype is replaced rather than handed out — a key can
    never silently serve the wrong precision.
    """

    def __init__(
        self, max_entries: Optional[int] = None, dtype: np.dtype = np.float64
    ) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive (or None)")
        self.max_entries = max_entries
        self.dtype = np.dtype(dtype)
        self._buffers: OrderedDict[object, np.ndarray] = OrderedDict()

    def take(
        self,
        key: object,
        shape: tuple[int, int],
        dtype: Optional[np.dtype] = None,
    ) -> np.ndarray:
        rows, width = shape
        dtype = self.dtype if dtype is None else np.dtype(dtype)
        buffer = self._buffers.get(key)
        if (
            buffer is None
            or buffer.shape[0] < rows
            or buffer.shape[1] != width
            or buffer.dtype != dtype
        ):
            buffer = np.empty((rows, width), dtype=dtype)
            self._buffers[key] = buffer
        if self.max_entries is not None:
            self._buffers.move_to_end(key)
            while len(self._buffers) > self.max_entries:
                self._buffers.popitem(last=False)
        return buffer[:rows]

    def __len__(self) -> int:
        return len(self._buffers)

    def clear(self) -> None:
        self._buffers.clear()


def _gather_rows(
    src: np.ndarray, rows: np.ndarray, pool: Optional[BufferPool], key: object
) -> np.ndarray:
    """Row-gather ``src[rows]`` into a pooled buffer (one fancy-index op)."""
    if pool is None:
        return src[rows]
    # Match the source dtype exactly (np.take's out= requires it); the
    # pre-stacked corpus matrices already carry the compute dtype.
    out = pool.take(key, (len(rows), src.shape[1]), dtype=src.dtype)
    np.take(src, rows, axis=0, out=out)
    return out


class PreGroupedCorpus:
    """Epoch-level pre-grouping of a fixed training corpus — the one
    source of training batches for both engines and all four §5.1 modes.

    Group membership never changes across a training run, so the corpus
    is partitioned by structure signature once, up front, and each
    group's feature/label matrices are pre-stacked at full corpus size.
    A random batch is then materialized by **row-gather** — one
    fancy-index numpy op per ``(group, position)``, optionally into
    pooled buffers — instead of re-bucketing and re-stacking per-plan
    rows on every batch.

    Sampling stays unbiased exactly as §5.1.1 requires: batches are
    uniform random subsets of the whole corpus (a fresh permutation per
    epoch, :meth:`batch_indices`), and grouping happens *within* each
    batch (:meth:`gather`).

    ``dtype`` is the precision the stacked matrices are stored in.
    Casting once at construction means every per-batch row-gather — and
    everything downstream of it: assembly, matmuls, loss — runs in the
    compute dtype with no per-batch conversion.  Build one with
    :meth:`from_samples`.
    """

    @classmethod
    def from_samples(
        cls,
        samples: Sequence[PlanSample],
        featurizer: Featurizer,
        dtype: np.dtype = np.float64,
    ) -> "PreGroupedCorpus":
        """Pre-grouped corpus straight from raw samples, via the compiled
        featurization tier.

        Row ``r`` of ``groups[g].features[p]`` equals
        ``featurizer.transform_plan(plan)[p]`` for the group's ``r``-th
        member in corpus order (bitwise in float64), but each group is
        featurized through per-type
        :class:`~repro.featurize.compiled.FeatureProgram` runs — one
        vectorized pass per (structure, logical type) over the whole
        group instead of a per-node schema walk per plan.  Programs run
        in float64 and the stacked blocks are cast once at the end, so a
        float32 corpus holds exactly the float64 rows cast once.  Labels
        are each node's actual latency over the featurizer's latency
        scale, in preorder.
        """
        if not samples:
            raise ValueError("PreGroupedCorpus requires at least one plan")
        dtype = np.dtype(dtype)
        programs = featurizer.compiled()
        scale = featurizer.latency_scale_ms
        node_lists = [list(s.plan.preorder()) for s in samples]
        buckets: dict[str, list[int]] = {}
        for i, sample in enumerate(samples):
            buckets.setdefault(sample.plan.structure_signature(), []).append(i)
        self = cls.__new__(cls)
        self.dtype = dtype
        self.n_plans = len(samples)
        self.groups = []
        self._group_of = np.empty(self.n_plans, dtype=np.intp)
        self._row_of = np.empty(self.n_plans, dtype=np.intp)
        for gid, signature in enumerate(sorted(buckets)):
            members = buckets[signature]
            graph = plan_graph(samples[members[0]].plan)
            n = len(members)
            features: list[np.ndarray] = [np.empty(0)] * graph.n_nodes
            for program, positions in programs.layout(graph):
                block = program.run(
                    [node_lists[i][pos] for pos in positions for i in members]
                ).astype(dtype, copy=False)
                for k, pos in enumerate(positions):
                    features[pos] = block[k * n : (k + 1) * n]
            labels = np.array(
                [
                    [
                        (
                            node.actual_total_ms
                            if node.actual_total_ms is not None
                            else 0.0
                        )
                        / scale
                        for node in node_lists[i]
                    ]
                    for i in members
                ]
            ).astype(dtype, copy=False)
            for row, i in enumerate(members):
                self._group_of[i] = gid
                self._row_of[i] = row
            self.groups.append(StructureGroup(graph, features, labels))
        return self

    @property
    def n_structures(self) -> int:
        return len(self.groups)

    def gather(
        self, indices: np.ndarray, pool: Optional[BufferPool] = None
    ) -> list[StructureGroup]:
        """The batch of global plan ``indices`` as per-structure groups.

        Groups come in canonical sorted-by-signature order (the order
        :func:`bucket_plans` also produces); rows within a group keep the
        order of ``indices``.  With a ``pool``, the gathered matrices are
        written into buffers keyed by ``(signature, position)``, so a
        pooled batch is only valid until the next pooled gather of the
        same structures.
        """
        indices = np.asarray(indices, dtype=np.intp)
        gsel = self._group_of[indices]
        out = []
        for gid in np.unique(gsel):
            rows = self._row_of[indices[gsel == gid]]
            src = self.groups[gid]
            signature = src.graph.signature
            features = [
                _gather_rows(src.features[p], rows, pool, (signature, p))
                for p in range(src.graph.n_nodes)
            ]
            labels = _gather_rows(src.labels, rows, pool, (signature, "labels"))
            out.append(StructureGroup(src.graph, features, labels))
        return out

    def batch_indices(
        self, batch_size: int, rng: np.random.Generator
    ) -> list[np.ndarray]:
        """One epoch of random batches: consecutive ``batch_size`` slices
        of a single fresh ``rng.permutation`` over the corpus.

        Random sampling keeps the gradient estimate unbiased; grouping
        happens *inside* each batch (the paper's key point: grouping the
        whole corpus into per-structure batches would bias the gradient).
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        order = rng.permutation(self.n_plans)
        return [
            order[start : start + batch_size]
            for start in range(0, self.n_plans, batch_size)
        ]

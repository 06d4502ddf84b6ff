"""Level-fused plan execution (§5.1 turned into an explicit artifact).

The paper's systems contribution is that plans sharing a tree structure
can be served by one vectorized forward pass.  Deriving *how* to run that
pass — which unit serves each position, and where each child's output
lands inside each parent's input vector — is pure bookkeeping that
depends only on the structures involved
(:class:`~repro.core.batching.PlanGraph`), not on the batch.  The fusion observation also generalizes across
structures: position ``p`` of graph ``A`` and position ``q`` of graph
``B`` can share one stacked forward whenever they run the same unit
*and* all of their children have already been evaluated.

Execution tiers
---------------
Two tiers implement the forward (and, for training, the backward):

1. **Taped reference** — :meth:`repro.core.model.QPPNet.forward_group`
   walks one structure group in postorder with taped
   :class:`~repro.nn.Tensor` ops (differentiable autodiff).  It backs
   the trainer's ``taped`` engine and the Figure 9a ablation modes,
   whose deliberately redundant computation must stay observable, and
   it is the oracle every tape-free path is tested against (<= 1e-9 in
   float64).
2. **Level-fused** — :class:`LevelPlan`, compiled once per combination
   of structures.  Every ``(graph, position)`` pair is assigned a
   *level* — its subtree height, 0 for leaves — and all pairs sharing a
   ``(unit type, level)`` become one :class:`LevelStep`: a single
   stacked forward over the concatenated rows of every participating
   group, i.e. **one matmul per unit type per tree depth for the whole
   batch**.  It backs the trainer's ``fused`` engine (the default),
   whole-batch serving in
   :meth:`repro.serving.InferenceSession.predict_batch`, and — as a
   single-graph plan — :meth:`repro.core.model.QPPNet.predict_operators`.

The compiler pre-resolves, per step entry, where each child's output
block sits inside the step's assembled input (the Eq. 6 layout ``F(op) ⌢
child outputs ⌢ zero padding``) and where each entry's output rows land
inside one global ``(total_rows, d+1)`` output matrix, ordered so every
step writes a contiguous block (its matmul targets the block directly,
no scatter copy).  Execution is symmetric in both directions:

* :meth:`LevelPlan.forward_training` runs the steps in level order,
  caching per-step activations for the closed-form
  ``forward_train``/``backward_train`` unit contract;
* :meth:`LevelPlan.backward` walks the steps in reverse level order,
  scatter-adding each parent's input-slice gradients into its
  children's rows of the global gradient buffer and accumulating every
  unit's parameter gradients **once per level** (into
  :class:`~repro.nn.FlatParameterSpace` views when the trainer bound
  them);
* :meth:`LevelPlan.forward_inference` is the tape-free serving variant.

Leaves need no special casing: a leaf is simply a depth-0 entry, so a
single-graph ``LevelPlan`` fuses all same-type leaves — and all
same-type same-depth internal nodes — of that one structure.

Row offsets depend on the per-group batch sizes, which vary call to
call under random batching; :meth:`LevelPlan.layout` resolves them with
one cheap pass over the entries and memoizes the result per batch-size
vector.  :class:`LevelPlanCache` is the LRU cache in front of
compilation, keyed by the tuple of structure signatures; in template
workloads the handful of distinct structure mixes means steady-state
serving never recompiles.

Precision tiers
---------------
Orthogonal to the execution tiers, every engine runs at one of two
*compute* precisions, fixed by ``QPPNetConfig.dtype``:

* ``"float64"`` (default) — the numerical reference.  The <= 1e-9
  tape-pinning guarantees above are float64 statements, and a float64
  model is what the float32 tier is property-tested against.
* ``"float32"`` — the recommended production precision.  The level-plan
  machinery is dtype-transparent: assembly buffers, stacked matmuls,
  the fused Eq. 7 loss, gradient scatters and the flat optimizer state
  all adopt the units' dtype, so a float32 model runs the whole
  train/serve hot path with no float64 temporaries and no per-batch
  casts (features are cast once — at corpus pre-grouping for training,
  at featurization for serving).  Agreement with the float64 reference
  is <= 1e-4 relative on predictions.

Pick float64 when bit-level reproducibility or gradient debugging
matters; pick float32 for throughput-sensitive training and serving.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

import numpy as np

from repro.plans.operators import LogicalType

from .batching import BufferPool, PlanGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .unit import NeuralUnit


@dataclass(frozen=True)
class LevelEntry:
    """One ``(graph, position)`` occurrence inside a fused level step."""

    graph: int  # index into the plan's graph tuple
    pos: int  # preorder position within that graph
    node: int  # global node id (row-range handle)
    children: tuple[int, ...]  # global node ids, child order
    child_slices: tuple[slice, ...]  # column ranges inside the step input
    pad_slice: slice

    @property
    def needs_padding(self) -> bool:
        return self.pad_slice.start < self.pad_slice.stop


@dataclass(frozen=True)
class LevelStep:
    """All positions of one unit type at one tree depth, fused."""

    unit: "NeuralUnit"
    level: int  # subtree height; 0 = leaves
    in_features: int
    feature_size: int
    entries: tuple[LevelEntry, ...]


@dataclass(frozen=True)
class LevelLayout:
    """Concrete row geometry for one per-group batch-size vector."""

    counts: tuple[int, ...]  # rows per graph
    starts: tuple[int, ...]  # per node: first global row
    rows: tuple[int, ...]  # per node: row count (== counts[graph])
    step_bounds: tuple[tuple[int, int], ...]  # contiguous block per step
    total_rows: int


@dataclass
class LevelRun:
    """One forward pass: its layout, global outputs and (optional) tape.

    ``out`` and the tape reference the plan's pooled buffers, so a run is
    only valid until the next forward on the same plan — exactly one
    train step (forward → backward) or one serving batch.
    """

    layout: LevelLayout
    out: np.ndarray  # (total_rows, d+1)
    tapes: Optional[list[object]]  # per step; None for inference runs


class LevelPlan:
    """Compiled level-fused execution over a fixed tuple of structures."""

    def __init__(
        self, graphs: Sequence[PlanGraph], units: Mapping[LogicalType, "NeuralUnit"]
    ) -> None:
        if not graphs:
            raise ValueError("LevelPlan requires at least one graph")
        self.graphs: tuple[PlanGraph, ...] = tuple(graphs)
        self.signature: tuple[str, ...] = tuple(g.signature for g in self.graphs)
        widths = {units[t].data_size + 1 for g in self.graphs for t in g.types}
        if len(widths) != 1:
            raise ValueError("all units must share one output width (d+1)")
        self.width = widths.pop()
        dtypes = {units[t].dtype for g in self.graphs for t in g.types}
        if len(dtypes) != 1:
            raise ValueError(
                f"all units must share one compute dtype, got {sorted(map(str, dtypes))}"
            )
        #: Compute precision of every pooled buffer (matches the units').
        self.dtype = dtypes.pop()
        # Level (subtree height, memoized on the graph) per position, then
        # bucket every (graph, pos) by (level, unit type): one bucket =
        # one step.
        buckets: dict[tuple[int, str], list[tuple[int, int]]] = {}
        for gi, graph in enumerate(self.graphs):
            height = graph.heights
            for pos, ltype in enumerate(graph.types):
                buckets.setdefault((height[pos], ltype.value), []).append((gi, pos))
        ordered = sorted(buckets.items())
        # Global node ids in step order: each step's output rows form one
        # contiguous block of the global output matrix.
        node_of = [[0] * g.n_nodes for g in self.graphs]
        node = 0
        for _, members in ordered:
            for gi, pos in members:
                node_of[gi][pos] = node
                node += 1
        self.n_nodes_total = node
        self.node_of: tuple[tuple[int, ...], ...] = tuple(tuple(r) for r in node_of)
        steps: list[LevelStep] = []
        for (level, _), members in ordered:
            gi0, pos0 = members[0]
            unit = units[self.graphs[gi0].types[pos0]]
            fs = unit.feature_size
            entries = []
            for gi, pos in members:
                kids = self.graphs[gi].children[pos]
                entries.append(
                    LevelEntry(
                        graph=gi,
                        pos=pos,
                        node=self.node_of[gi][pos],
                        children=tuple(self.node_of[gi][k] for k in kids),
                        child_slices=tuple(
                            slice(fs + i * self.width, fs + (i + 1) * self.width)
                            for i in range(len(kids))
                        ),
                        pad_slice=slice(fs + len(kids) * self.width, unit.in_features),
                    )
                )
            steps.append(LevelStep(unit, level, unit.in_features, fs, tuple(entries)))
        self.steps: tuple[LevelStep, ...] = tuple(steps)
        self.roots: tuple[int, ...] = tuple(
            self.node_of[gi][0] for gi in range(len(self.graphs))
        )
        self._buffers = BufferPool(dtype=self.dtype)
        self._layouts: OrderedDict[tuple[int, ...], LevelLayout] = OrderedDict()
        # Per layout (keyed by its counts vector): one fancy-index array
        # per graph for node-column gathers.  Built lazily on the first
        # gather — serving-only layouts never pay for it — and bounded
        # like the layout memo it shadows.
        self._gather_idx: OrderedDict[
            tuple[int, ...], tuple[np.ndarray, ...]
        ] = OrderedDict()

    @property
    def n_graphs(self) -> int:
        return len(self.graphs)

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    # ------------------------------------------------------------------
    # Row geometry
    # ------------------------------------------------------------------
    #: LRU bound on memoized layouts (distinct batch-size vectors).
    MAX_CACHED_LAYOUTS = 16

    def layout(self, counts: Sequence[int]) -> LevelLayout:
        """Resolve (and memoize) the row geometry for one batch shape.

        A count of zero is allowed: that graph's positions become
        zero-row blocks that ride through forward and backward as no-ops,
        which lets a caller reuse one plan over every subset of its
        structures (see the trainer's corpus-wide batch padding).
        """
        key = tuple(int(c) for c in counts)
        if len(key) != len(self.graphs):
            raise ValueError(
                f"expected {len(self.graphs)} batch sizes, got {len(key)}"
            )
        if any(c < 0 for c in key):
            raise ValueError("batch sizes must be non-negative")
        cached = self._layouts.get(key)
        if cached is not None:
            self._layouts.move_to_end(key)
            return cached
        starts = [0] * self.n_nodes_total
        rows = [0] * self.n_nodes_total
        bounds = []
        offset = 0
        for step in self.steps:
            lo = offset
            for entry in step.entries:
                starts[entry.node] = offset
                rows[entry.node] = key[entry.graph]
                offset += key[entry.graph]
            bounds.append((lo, offset))
        resolved = LevelLayout(key, tuple(starts), tuple(rows), tuple(bounds), offset)
        self._layouts[key] = resolved
        while len(self._layouts) > self.MAX_CACHED_LAYOUTS:
            self._layouts.popitem(last=False)
        return resolved

    def node_slice(self, layout: LevelLayout, graph: int, pos: int) -> slice:
        """Global row range of ``(graph, pos)`` under ``layout``."""
        node = self.node_of[graph][pos]
        start = layout.starts[node]
        return slice(start, start + layout.rows[node])

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _assemble(
        self,
        index: int,
        step: LevelStep,
        layout: LevelLayout,
        features: Sequence[Sequence[np.ndarray]],
        out: np.ndarray,
    ) -> np.ndarray:
        """Stacked step input: per entry, features ⌢ child blocks ⌢ padding.

        Child blocks are contiguous row-slices of ``out`` (children ran
        in earlier steps).  A single-entry step whose input is its
        feature matrix unchanged skips the copy entirely.
        """
        entries = step.entries
        if (
            len(entries) == 1
            and not entries[0].children
            and not entries[0].needs_padding
        ):
            only = entries[0]
            return features[only.graph][only.pos]
        lo, hi = layout.step_bounds[index]
        x = self._buffers.take(("x", index), (hi - lo, step.in_features))
        fs = step.feature_size
        starts, rows = layout.starts, layout.rows
        for entry in entries:
            r0 = starts[entry.node] - lo
            r1 = r0 + rows[entry.node]
            if fs:
                x[r0:r1, :fs] = features[entry.graph][entry.pos]
            for child, column in zip(entry.children, entry.child_slices):
                x[r0:r1, column] = out[starts[child] : starts[child] + rows[child]]
            if entry.needs_padding:
                x[r0:r1, entry.pad_slice] = 0.0
        return x

    def _forward(
        self,
        features: Sequence[Sequence[np.ndarray]],
        counts: Sequence[int],
        train: bool,
    ) -> LevelRun:
        layout = self.layout(counts)
        out = self._buffers.take("out", (layout.total_rows, self.width))
        tapes: Optional[list[object]] = [] if train else None
        for index, step in enumerate(self.steps):
            lo, hi = layout.step_bounds[index]
            x = self._assemble(index, step, layout, features, out)
            if train:
                _, ctx = step.unit.forward_train(x, out=out[lo:hi])
                tapes.append(ctx)
            else:
                step.unit.forward_numpy(x, out=out[lo:hi])
        return LevelRun(layout, out, tapes)

    def forward_training(
        self, features: Sequence[Sequence[np.ndarray]], counts: Sequence[int]
    ) -> LevelRun:
        """Level-order fused forward caching activations for :meth:`backward`.

        ``features[g][p]`` is the ``(counts[g], f_type)`` feature matrix
        of graph ``g``'s position ``p``.  The returned run (outputs and
        tape) references the plan's pooled buffers and is valid for
        exactly one forward → backward cadence.
        """
        return self._forward(features, counts, train=True)

    def forward_inference(
        self, features: Sequence[Sequence[np.ndarray]], counts: Sequence[int]
    ) -> LevelRun:
        """Tape-free fused forward (serving whole-batch path)."""
        return self._forward(features, counts, train=False)

    def alloc_output_grads(self, layout: LevelLayout) -> np.ndarray:
        """Zeroed global ``(total_rows, d+1)`` gradient seed buffer (pooled).

        The caller writes the loss gradient into the latency column
        (``[:, 0]``) — per node row-range, or in one shot when the seed
        is already arranged in global row order — and hands the buffer to
        :meth:`backward`.
        """
        grads = self._buffers.take("grad", (layout.total_rows, self.width))
        grads.fill(0.0)
        return grads

    def backward(self, run: LevelRun, output_grads: np.ndarray) -> None:
        """Reverse level-order backward over the global gradient buffer.

        Parents run before children (higher levels first).  Each step's
        closed-form ``backward_train`` accumulates its unit's parameter
        gradients once for the whole fused block and yields the gradient
        of the assembled input; the child-slice segments are scatter-added
        into each child's rows of ``output_grads`` through the same
        pre-resolved slices the forward used.  Level-0 steps skip the
        input-gradient product entirely (their inputs are constant plan
        features and zero padding).
        """
        if run.tapes is None:
            raise ValueError("backward requires a run from forward_training")
        layout = run.layout
        starts, rows = layout.starts, layout.rows
        for index in range(len(self.steps) - 1, -1, -1):
            step = self.steps[index]
            lo, hi = layout.step_bounds[index]
            need_input_grad = step.level > 0
            grad_in = step.unit.backward_train(
                output_grads[lo:hi], run.tapes[index], need_input_grad=need_input_grad
            )
            if not need_input_grad:
                continue
            for entry in step.entries:
                r0 = starts[entry.node] - lo
                r1 = r0 + rows[entry.node]
                for child, column in zip(entry.children, entry.child_slices):
                    output_grads[starts[child] : starts[child] + rows[child]] += (
                        grad_in[r0:r1, column]
                    )

    def gather_node_columns(
        self, columns: Sequence[np.ndarray], layout: LevelLayout
    ) -> np.ndarray:
        """Per-graph ``(B, n_nodes)`` matrices rearranged into global row order.

        Used to line the training labels up against ``run.out[:, 0]`` so
        the whole-batch Eq. 7 loss is one subtraction and one dot
        product.  Returns a ``(total_rows,)`` view of a pooled buffer
        (in the plan's compute dtype — float64 label matrices cast on
        write).  One fancy-index assignment per graph through memoized
        destination indices, not a per-position loop: graph ``gi``'s
        ``(B, n_nodes)`` matrix flattens position-major, and each
        position's destination is its node's contiguous block.
        """
        gather = self._gather_idx.get(layout.counts)
        if gather is None:
            gather = tuple(
                (
                    np.fromiter(
                        (layout.starts[node] for node in node_ids),
                        dtype=np.intp,
                        count=len(node_ids),
                    )[:, None]
                    + np.arange(layout.counts[gi], dtype=np.intp)
                ).reshape(-1)
                for gi, node_ids in enumerate(self.node_of)
            )
            self._gather_idx[layout.counts] = gather
            while len(self._gather_idx) > self.MAX_CACHED_LAYOUTS:
                self._gather_idx.popitem(last=False)
        else:
            self._gather_idx.move_to_end(layout.counts)
        flat = self._buffers.take("columns", (layout.total_rows, 1))[:, 0]
        for gi, matrix in enumerate(columns):
            flat[gather[gi]] = matrix.T.reshape(-1)
        return flat


class LevelPlanCache:
    """LRU cache of :class:`LevelPlan` keyed by the structure-signature tuple."""

    def __init__(self, maxsize: int = 64) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple[str, ...], LevelPlan] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self,
        graphs: Sequence[PlanGraph],
        units: Mapping[LogicalType, "NeuralUnit"],
    ) -> LevelPlan:
        """The plan for this combination of structures, compiling on first use."""
        key = tuple(g.signature for g in graphs)
        plan = self._entries.get(key)
        if plan is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return plan
        self.misses += 1
        plan = LevelPlan(graphs, units)
        self._entries[key] = plan
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return plan

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

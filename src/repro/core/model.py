"""QPP Net: plan-structured neural network (paper §4.2).

Assembles the per-operator :class:`~repro.core.unit.NeuralUnit` instances
into a tree isomorphic to any given plan.  The same unit object serves
every instance of its operator type (weight sharing, §4.3), so the model
is a recursive/recurrent network over plan trees.

Two forward strategies implement the §5.1.2 ablation:

* :meth:`forward_group` — bottom-up with caching ("information sharing"):
  each node's output is computed once and reused by both its parent's
  input and its own loss term.
* :meth:`forward_subtree_uncached` — the naive strawman: evaluating an
  operator's output recomputes its whole subtree, so a plan's loss does
  O(n · depth) unit evaluations instead of O(n).
"""

from __future__ import annotations

import os
from typing import Optional, Sequence, Union

import numpy as np

from repro import nn
from repro.featurize.featurizer import Featurizer
from repro.plans.node import PlanNode
from repro.plans.operators import LogicalType

from .batching import PlanGraph, StructureGroup, plan_graph
from .config import QPPNetConfig
from .levels import LevelPlan, LevelPlanCache
from .unit import NeuralUnit

#: Floor for reported predictions: latencies are positive quantities and
#: ratio metrics (R) need a positive denominator.
MIN_PREDICTION_MS = 0.01


class QPPNet(nn.Module):
    """The paper's model: one neural unit per operator type + tree assembly."""

    def __init__(self, featurizer: Featurizer, config: Optional[QPPNetConfig] = None) -> None:
        self.featurizer = featurizer
        self.config = config or QPPNetConfig()
        rng = np.random.default_rng(self.config.seed)
        self.units: dict[LogicalType, NeuralUnit] = {}
        for ltype, feature_size in sorted(
            featurizer.feature_sizes().items(), key=lambda kv: kv[0].value
        ):
            self.units[ltype] = NeuralUnit(
                ltype,
                feature_size,
                self.config.data_size,
                self.config.hidden_layers,
                self.config.neurons,
                rng=rng,
                activation=self.config.activation,
                dtype=self.config.np_dtype,
            )
        # Cross-structure level-fused plans, keyed by the tuple of
        # signatures in a batch (fused trainer engine + whole-batch
        # serving share these).
        self.level_plans = LevelPlanCache()
        # Single-graph plans behind predict/predict_operators.  A cache of
        # their own: one-plan calls never evict the serving plans above,
        # so the taped fallback tier stays independent of them.
        self.single_plans = LevelPlanCache(maxsize=256)

    # ------------------------------------------------------------------
    # Parameter plumbing (units live in a dict, so enumerate explicitly)
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = ""):
        for ltype, unit in self.units.items():
            yield from unit.named_parameters(prefix=f"{prefix}unit.{ltype.value}.")

    # ------------------------------------------------------------------
    # Forward passes
    # ------------------------------------------------------------------
    def compile_level_plan(self, graphs: Sequence[PlanGraph]) -> LevelPlan:
        """The (cached) cross-structure level-fused plan for ``graphs``.

        One matmul per unit type per tree depth across *all* the given
        structures; used by the trainer's ``fused`` engine and by
        whole-batch serving.
        """
        return self.level_plans.get(graphs, self.units)

    def forward_group(self, group: StructureGroup) -> dict[int, nn.Tensor]:
        """Cached bottom-up evaluation of a structure group (§5.1.2).

        Returns ``{preorder position -> (B, d+1) output tensor}``.  Taped
        and differentiable: the reference forward of the ``taped`` engine
        and the ablation modes, and the oracle the level-fused tier is
        tested against.
        """
        graph = group.graph
        outputs: dict[int, nn.Tensor] = {}
        for pos in graph.postorder:
            unit = self.units[graph.types[pos]]
            children = [outputs[child] for child in graph.children[pos]]
            features = nn.Tensor(group.features[pos])
            outputs[pos] = unit(unit.assemble_input(features, children))
        return outputs

    def forward_subtree_uncached(self, group: StructureGroup, pos: int) -> nn.Tensor:
        """Naive evaluation of one operator's output, recomputing the subtree."""
        graph = group.graph
        unit = self.units[graph.types[pos]]
        features = nn.Tensor(group.features[pos])
        children = [
            self.forward_subtree_uncached(group, c) for c in graph.children[pos]
        ]
        return unit(unit.assemble_input(features, children))

    def group_latencies(self, outputs: dict[int, nn.Tensor]) -> dict[int, nn.Tensor]:
        """Slice the latency element (first output) per position: (B, 1)."""
        return {pos: out[:, :1] for pos, out in outputs.items()}

    # ------------------------------------------------------------------
    # Inference API
    # ------------------------------------------------------------------
    def predict(self, plan: PlanNode) -> float:
        """Predicted query latency (ms) — the root unit's latency output.

        One-plan convenience; batch serving should go through
        :class:`repro.serving.InferenceSession`, which amortizes one
        vectorized forward pass over every plan sharing a structure.
        """
        return self.predict_operators(plan)[0]

    def predict_operators(self, plan: PlanNode) -> list[float]:
        """Predicted latency (ms) of every operator, preorder-indexed.

        One single-graph :class:`LevelPlan` forward over the scalar
        featurizer's rows (batch of one, so each node is one row).
        """
        level_plan = self.single_plans.get([plan_graph(plan)], self.units)
        # Cast features to the compute dtype up front so the plan's
        # matmuls never promote back to float64 on a float32 model.
        dtype = self.config.np_dtype
        features = [
            np.asarray(f, dtype=dtype).reshape(1, -1)
            for f in self.featurizer.transform_plan(plan)
        ]
        run = level_plan.forward_inference([features], [1])
        rows = [run.layout.starts[node] for node in level_plan.node_of[0]]
        scale = self.featurizer.latency_scale_ms
        return [
            max(MIN_PREDICTION_MS, float(value) * scale) for value in run.out[rows, 0]
        ]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: Union[str, os.PathLike]) -> None:
        nn.save_module(self, path)

    def load(self, path: Union[str, os.PathLike]) -> "QPPNet":
        nn.load_module(self, path)
        return self

    def num_parameters(self) -> int:
        return sum(unit.num_parameters() for unit in self.units.values())

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{lt.value}:{unit.in_features}->{unit.data_size + 1}"
            for lt, unit in self.units.items()
        )
        return f"QPPNet({inner})"

"""Selectivity estimation: the optimizer's (imperfect) view of the data.

The workload generator knows every predicate's *true* selectivity.  The
optimizer does not — it consults "histograms" whose quality we model as a
systematic, per-(table, column, operator) multiplicative bias plus a small
value-dependent wobble.  The bias is drawn once per database seed, so the
same column is consistently over- or under-estimated across the whole
workload, exactly the structured error a learned model can exploit (and
the reason QPP Net beats the calibrated cost model in the paper: knowing
*which relation* and *which operator* is being estimated carries signal
beyond the estimate itself).
"""

from __future__ import annotations

import math

import numpy as np

from repro.queryspec import Predicate, TableRef
from repro.seeding import stable_rng


class SelectivityModel:
    """Maps true selectivities to optimizer estimates.

    Parameters
    ----------
    seed:
        Database seed: fixes the per-column histogram biases.
    bias_sigma:
        Spread of the systematic per-(table, column, op) log bias.
    wobble_sigma:
        Spread of the per-value estimation wobble (deterministic in the
        predicate value, so planning stays deterministic).
    """

    def __init__(self, seed: int = 0, bias_sigma: float = 0.6, wobble_sigma: float = 0.12) -> None:
        self.seed = seed
        self.bias_sigma = bias_sigma
        self.wobble_sigma = wobble_sigma
        self._bias_cache: dict[tuple[str, str, str], float] = {}

    # ------------------------------------------------------------------
    def column_bias(self, table: str, column: str, op: str) -> float:
        """Systematic log-space bias for estimates on (table, column, op)."""
        key = (table, column, op)
        if key not in self._bias_cache:
            rng = stable_rng("colbias", self.seed, table, column, op)
            self._bias_cache[key] = float(rng.normal(0.0, self.bias_sigma))
        return self._bias_cache[key]

    def estimate_predicate(self, table: str, pred: Predicate) -> float:
        """Optimizer's estimate of a single predicate's selectivity."""
        bias = self.column_bias(table, pred.column, pred.op)
        wobble_rng = stable_rng("wobble", self.seed, table, pred.column, round(pred.selectivity, 6))
        wobble = float(wobble_rng.normal(0.0, self.wobble_sigma))
        est = pred.selectivity * math.exp(bias + wobble)
        return float(min(1.0, max(1e-9, est)))

    def estimate_scan(self, ref: TableRef) -> float:
        """Estimated combined selectivity of a scan.

        The optimizer multiplies per-predicate estimates (independence
        assumption); the truth (``ref.true_selectivity()``) honours the
        predicate correlation, so multi-predicate scans are where estimates
        drift furthest — matching real optimizer behaviour.
        """
        est = 1.0
        for pred in ref.predicates:
            est *= self.estimate_predicate(ref.table, pred)
        return float(min(1.0, max(1e-9, est)))

    # ------------------------------------------------------------------
    def estimate_join_selectivity(self, left_ndv: int, right_ndv: int) -> float:
        """Textbook equi-join selectivity: ``1 / max(ndv_l, ndv_r)``."""
        return 1.0 / max(1, left_ndv, right_ndv)

    def join_depth_drift(self, template_id: str, depth: int) -> float:
        """Systematic per-template multiplicative truth drift at ``depth``.

        Real optimizers' errors compound with join depth (correlations they
        cannot see).  We model truth as drifting away from the estimate by
        a per-template factor ``gamma**depth`` with ``gamma`` drawn once
        per (database, template).
        """
        rng = stable_rng("drift", self.seed, template_id)
        gamma = float(math.exp(rng.normal(0.0, 0.18)))
        return gamma**depth

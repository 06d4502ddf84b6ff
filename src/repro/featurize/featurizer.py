"""Plan featurization: ``F(op)`` from the paper (§4.1, Appendix B).

The :class:`Featurizer` is fitted on a training corpus — it accumulates
one-hot vocabularies (relation names, index names, sort keys) and the
whitening statistics of every numeric feature, per operator type — and
then maps any plan node to its fixed-size input vector.  Per-type vector
sizes differ (heterogeneous tree nodes, §3), which is exactly why each
operator type gets its own neural unit.

Two transform tiers share one fit:

* the **scalar reference** (:meth:`Featurizer.transform_node`) — the
  schema walk, readable and exhaustively property-tested; and
* **compiled feature programs** (:meth:`Featurizer.compiled`, see
  :mod:`repro.featurize.compiled`) — the resolved column layout per
  logical type, which the serving and training hot paths run instead.

Both are bitwise-equal in float64; every fitted attribute the transforms
read is frozen at :meth:`fit` time, so a shared featurizer can serve
from many threads without the hot path ever mutating it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.plans.node import PlanNode
from repro.plans.operators import LogicalType

from .encoders import NumericWhitener, OneHotEncoder, encode_boolean
from .schema import FEATURE_SCHEMAS, FeatureSchema


class Featurizer:
    """Fitted feature extractor: plan nodes -> numpy vectors.

    ``extra_numeric_fn`` is an extension hook: a callable mapping a plan
    node to additional numeric features (whitened like the rest).  It
    implements the paper's §7 suggestion that "a technique predicting
    operator cardinalities could be easily integrated into our deep
    neural network by inserting the cardinality estimate of each operator
    into its neural unit's input vector" — see
    :func:`repro.experiments.e_ablations.oracle_cardinality_feature`.
    """

    def __init__(self, extra_numeric_fn: Optional[Callable[[PlanNode], list[float]]] = None) -> None:
        self._whiteners: dict[LogicalType, NumericWhitener] = {}
        self._onehots: dict[tuple[LogicalType, str], OneHotEncoder] = {}
        self._fitted = False
        self._size_cache: dict[LogicalType, int] = {}
        self._extra_numeric_fn = extra_numeric_fn
        # Width of the extra_numeric_fn block, fixed at fit() (or restored
        # by deserialization) — never mutated on the transform hot path.
        self._n_extra = 0
        self._compiled = None
        # Latency scale (mean operator latency in ms over the training
        # corpus): models train on latency / scale for conditioning.
        self.latency_scale_ms: float = 1.0

    @property
    def extra_numeric_fn(self) -> Optional[Callable[[PlanNode], list[float]]]:
        return self._extra_numeric_fn

    @extra_numeric_fn.setter
    def extra_numeric_fn(self, fn: Optional[Callable[[PlanNode], list[float]]]) -> None:
        # The whitening statistics and per-type widths are fixed at fit():
        # attaching (or detaching) the hook afterwards would silently skew
        # feature_size() and break the whitener's column alignment.  The
        # one legal post-fit mutation is re-attaching a function to a
        # deserialized featurizer that was fitted with extras (arity is
        # re-validated on every transform).
        if self._fitted and (fn is not None) != (self._n_extra > 0):
            raise ValueError(
                "extra_numeric_fn changes the feature layout; attach it before "
                "fit() (or re-attach a function matching the arity the "
                "featurizer was fitted with)"
            )
        self._extra_numeric_fn = fn
        self._size_cache.clear()
        self._compiled = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, plans: Iterable[PlanNode]) -> "Featurizer":
        plans = list(plans)
        if not plans:
            raise ValueError("cannot fit featurizer on an empty corpus")
        # The extra-feature width is fixed here, once, before any row is
        # assembled — the transform hot path only ever reads it.
        self._n_extra = 0
        if self._extra_numeric_fn is not None:
            self._n_extra = len([float(v) for v in self._extra_numeric_fn(plans[0])])
        buckets: dict[LogicalType, list[np.ndarray]] = {}
        latencies: list[float] = []
        # Prepare encoders.
        for ltype, schema in FEATURE_SCHEMAS.items():
            for prop, vocab in schema.fixed_onehots:
                self._onehots[(ltype, prop)] = OneHotEncoder(vocab)
            for prop in schema.learned_onehots:
                self._onehots[(ltype, prop)] = OneHotEncoder()
            if schema.physical_ops:
                self._onehots[(ltype, "__physical__")] = OneHotEncoder(schema.physical_ops)
        # Accumulate vocabularies and numeric rows.
        for root in plans:
            for node in root.preorder():
                ltype = node.logical_type
                schema = FEATURE_SCHEMAS[ltype]
                for prop in schema.learned_onehots:
                    value = node.props.get(prop)
                    if value is not None:
                        self._onehots[(ltype, prop)].fit([value])
                buckets.setdefault(ltype, []).append(self._numeric_row(node, schema))
                if node.actual_total_ms is not None:
                    latencies.append(node.actual_total_ms)
        # Whitening stats per type.
        for ltype, rows in buckets.items():
            whitener = NumericWhitener(log_transform=False)
            whitener.fit(np.vstack(rows))
            self._whiteners[ltype] = whitener
        if latencies:
            self.latency_scale_ms = float(max(1e-6, np.mean(latencies)))
        self._size_cache.clear()
        self._compiled = None  # programs bind fitted state; recompile lazily
        self._fitted = True
        return self

    # ------------------------------------------------------------------
    # Numeric assembly (pre-whitening)
    # ------------------------------------------------------------------
    def _numeric_row(self, node: PlanNode, schema: FeatureSchema) -> np.ndarray:
        parts: list[float] = []
        for prop in schema.numeric_log:
            parts.append(float(np.log1p(max(0.0, float(node.props.get(prop, 0.0))))))
        for prop in schema.numeric_raw:
            parts.append(float(node.props.get(prop, 0.0)))
        for prop, length in schema.vectors:
            values = list(node.props.get(prop, ()))[:length]
            values += [0.0] * (length - len(values))
            # Attribute statistics are magnitudes too; compress with
            # sign-preserving log.
            parts.extend(float(np.sign(v) * np.log1p(abs(v))) for v in values)
        if self._extra_numeric_fn is not None:
            extra = [float(v) for v in self._extra_numeric_fn(node)]
            if len(extra) != self._n_extra:
                raise ValueError(
                    f"extra_numeric_fn returned {len(extra)} features, expected "
                    f"{self._n_extra} (arity is fixed at fit())"
                )
            parts.extend(extra)
        return np.asarray(parts, dtype=np.float64)

    # ------------------------------------------------------------------
    # Transform
    # ------------------------------------------------------------------
    def transform_node(self, node: PlanNode) -> np.ndarray:
        """Vectorize a single plan node -> ``F(op)``."""
        if not self._fitted:
            raise RuntimeError("featurizer is not fitted")
        ltype = node.logical_type
        schema = FEATURE_SCHEMAS[ltype]
        parts: list[np.ndarray] = []
        numeric = self._numeric_row(node, schema)
        whitener = self._whiteners.get(ltype)
        if whitener is not None and whitener.is_fitted:
            numeric = whitener.transform(numeric.reshape(1, -1)).reshape(-1)
        parts.append(numeric)
        for prop, _ in schema.fixed_onehots:
            parts.append(self._onehots[(ltype, prop)].transform(node.props.get(prop)))
        for prop in schema.learned_onehots:
            parts.append(self._onehots[(ltype, prop)].transform(node.props.get(prop)))
        for prop in schema.booleans:
            parts.append(encode_boolean(node.props.get(prop, False)))
        if schema.physical_ops:
            parts.append(self._onehots[(ltype, "__physical__")].transform(node.op.value))
        return np.concatenate(parts) if parts else np.zeros(0)

    def transform_plan(self, root: PlanNode) -> list[np.ndarray]:
        """Vectorize every node of a plan, in preorder."""
        return [self.transform_node(node) for node in root.preorder()]

    # ------------------------------------------------------------------
    # Compiled tier
    # ------------------------------------------------------------------
    def compiled(self):
        """The compiled feature-program tier bound to this fit.

        Returns the shared :class:`~repro.featurize.compiled.FeatureProgramCache`
        (compiled lazily, invalidated by :meth:`fit` and by swapping
        ``extra_numeric_fn``), so every serving session and the training
        pre-grouping path resolve to the same program objects.
        """
        if not self._fitted:
            raise RuntimeError("featurizer is not fitted")
        if self._compiled is None:
            from .compiled import FeatureProgramCache

            self._compiled = FeatureProgramCache(self)
        return self._compiled

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def feature_size(self, ltype: LogicalType) -> int:
        """Input-vector width for one operator type's neural unit."""
        if not self._fitted:
            raise RuntimeError("featurizer is not fitted")
        cached = self._size_cache.get(ltype)
        if cached is not None:
            return cached
        schema = FEATURE_SCHEMAS[ltype]
        size = len(schema.numeric_log) + len(schema.numeric_raw) + self._n_extra
        size += sum(length for _, length in schema.vectors)
        for prop, _ in schema.fixed_onehots:
            size += self._onehots[(ltype, prop)].size
        for prop in schema.learned_onehots:
            size += self._onehots[(ltype, prop)].size
        size += len(schema.booleans)
        if schema.physical_ops:
            size += self._onehots[(ltype, "__physical__")].size
        self._size_cache[ltype] = size
        return size

    def feature_sizes(self) -> dict[LogicalType, int]:
        return {lt: self.feature_size(lt) for lt in FEATURE_SCHEMAS}

    def vocabulary(self, ltype: LogicalType, prop: str) -> Sequence[str]:
        return self._onehots[(ltype, prop)].categories

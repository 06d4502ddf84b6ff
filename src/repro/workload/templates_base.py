"""Parameterized query templates.

A :class:`QueryTemplate` is the analogue of a TPC query template: a fixed
logical shape (tables, join graph, aggregation, ordering) with predicate
selectivities sampled per instance from template-specific ranges.  Each
template also owns *systematic* data characteristics drawn once per
database seed — per-edge FK skew and per-table predicate correlation —
which is what makes optimizer estimation errors template-correlated, as
on real data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.queryspec import AggregateSpec, JoinEdge, Predicate, QuerySpec, TableRef
from repro.seeding import stable_rng


@dataclass(frozen=True)
class PredicateTemplate:
    """A predicate whose true selectivity is sampled from ``sel_range``."""

    column: str
    op: str
    sel_range: tuple[float, float]

    def __post_init__(self) -> None:
        lo, hi = self.sel_range
        if not 0.0 < lo <= hi <= 1.0:
            raise ValueError(f"bad selectivity range {self.sel_range}")

    def sample(self, rng: np.random.Generator) -> Predicate:
        lo, hi = self.sel_range
        # Log-uniform: selectivities span orders of magnitude.
        sel = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        return Predicate(self.column, self.op, min(1.0, max(1e-9, sel)))


@dataclass(frozen=True)
class TableTemplate:
    table: str
    alias: Optional[str] = None
    predicates: tuple[PredicateTemplate, ...] = ()

    @property
    def effective_alias(self) -> str:
        return self.alias or self.table


@dataclass(frozen=True)
class JoinTemplate:
    """A join edge between aliases; ``fk_side`` names the FK-holding alias."""

    left: tuple[str, str]  # (alias, column)
    right: tuple[str, str]
    join_type: str = "inner"
    fk_side: Optional[str] = None


@dataclass(frozen=True)
class AggregateTemplate:
    functions: tuple[str, ...] = ("sum",)
    group_by: tuple[str, ...] = ()  # qualified 'alias.column'
    groups_fraction_range: tuple[float, float] = (0.001, 0.05)


@dataclass(frozen=True)
class QueryTemplate:
    """A complete parameterized template."""

    template_id: str
    workload: str
    tables: tuple[TableTemplate, ...]
    joins: tuple[JoinTemplate, ...] = ()
    aggregate: Optional[AggregateTemplate] = None
    order_by: tuple[str, ...] = ()
    limit: Optional[int] = None
    skew_sigma: float = 0.5  # spread of per-edge FK skew (drawn per DB seed)
    correlation_max: float = 0.6  # max per-table predicate correlation

    # ------------------------------------------------------------------
    def instantiate(self, rng: np.random.Generator, db_seed: int = 0) -> QuerySpec:
        """Sample one query instance.

        ``rng`` drives per-instance parameters (predicate selectivities,
        group counts); ``db_seed`` fixes the systematic *data* properties.
        Join skew and predicate correlation are keyed by the data they
        describe — (child column, parent column) pairs and (table,
        predicate-column-set) respectively — NOT by template, so they are
        consistent wherever the same tables/joins appear.  A model that
        can identify relations (QPP Net's featurization does; the
        baselines' hand-picked features do not) can therefore learn these
        effects from *other* templates and generalize to held-out ones,
        as on real data.
        """
        alias_table = {tt.effective_alias: tt.table for tt in self.tables}
        tables = []
        for tt in self.tables:
            alias = tt.effective_alias
            pred_cols = ",".join(sorted(pt.column for pt in tt.predicates))
            corr_rng = stable_rng("corr", db_seed, tt.table, pred_cols)
            correlation = float(corr_rng.uniform(0.0, self.correlation_max))
            preds = tuple(pt.sample(rng) for pt in tt.predicates)
            tables.append(TableRef(tt.table, alias, preds, correlation))

        joins = []
        for jt in self.joins:
            skew_rng = stable_rng(
                "skew",
                db_seed,
                alias_table[jt.left[0]],
                jt.left[1],
                alias_table[jt.right[0]],
                jt.right[1],
            )
            skew = float(np.exp(skew_rng.normal(0.0, self.skew_sigma)))
            joins.append(
                JoinEdge(
                    left_alias=jt.left[0],
                    left_column=jt.left[1],
                    right_alias=jt.right[0],
                    right_column=jt.right[1],
                    join_type=jt.join_type,
                    fk_side=jt.fk_side,
                    skew=skew,
                )
            )

        aggregate = None
        if self.aggregate is not None:
            lo, hi = self.aggregate.groups_fraction_range
            # The number of groups is a *data* property (the NDV of the
            # group-by columns within the filtered input): draw the base
            # fraction once per (database, group columns) and add only a
            # small per-instance jitter from the predicate parameters.
            gf_rng = stable_rng("groups", db_seed, *sorted(self.aggregate.group_by))
            base_gf = float(np.exp(gf_rng.uniform(np.log(lo), np.log(hi))))
            jitter = float(rng.uniform(0.85, 1.18))
            aggregate = AggregateSpec(
                functions=self.aggregate.functions,
                group_by=self.aggregate.group_by,
                groups_fraction=min(1.0, base_gf * jitter),
            )

        return QuerySpec(
            template_id=self.template_id,
            workload=self.workload,
            tables=tuple(tables),
            joins=tuple(joins),
            aggregate=aggregate,
            order_by=self.order_by,
            limit=self.limit,
        )


def pred(column: str, op: str, lo: float, hi: float) -> PredicateTemplate:
    """Shorthand constructor used by the template catalogs."""
    return PredicateTemplate(column, op, (lo, hi))

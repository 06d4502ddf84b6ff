"""Real-engine plan ingestion: EXPLAIN output -> the model's plan substrate.

Everything upstream of this package historically came from the
synthetic workload generator.  ``repro.ingest`` is the front-end that
makes real engines first-class citizens of the whole stack: per-engine
EXPLAIN parsers map raw node trees into
:class:`~repro.plans.node.PlanNode` graphs that flow unmodified through
``plans.validate`` -> ``Featurizer`` -> ``Trainer.fit`` ->
``PredictionService.submit``.

Three dialects ship (each a separate module, each a registered
:class:`~repro.ingest.vocab.OperatorVocabulary`):

========  ===========================================  =================
engine    document shape                               labels
========  ===========================================  =================
postgres  ``EXPLAIN (ANALYZE, FORMAT JSON)`` arrays    per-node + total
duckdb    JSON profiling trees (exclusive timings)     per-node + total
mysql     ``EXPLAIN FORMAT=JSON`` wrapper nests        none (serve-only)
========  ===========================================  =================

The two contracts every caller can rely on
------------------------------------------

**Unknown operators** (:mod:`repro.ingest.vocab`): an engine operator
name outside the vocabulary NEVER surfaces as a ``KeyError`` inside
featurization.  The caller chooses at the ingest boundary:
``on_unknown="raise"`` gets a typed
:class:`~repro.ingest.errors.UnknownOperatorError` (engine, name,
arity); the default ``on_unknown="fallback"`` degrades the node to the
arity-matched neutral operator (scan / materialize / nested-loop
join), preserves the raw name under the ``"Unknown Operator"``
property, and reports every degradation through
:attr:`IngestedPlan.fallback_ops`.  Nodes with three or more children
are binarized into left-deep fallback-join chains.

**Missing statistics** (:mod:`repro.ingest.stats`): engine-specific
property sets are adapted, never special-cased downstream.  Engine
signal is derived where it exists (PostgreSQL BUFFERS counters ->
``Plan Buffers`` / ``Estimated I/Os``), documented neutral defaults
fill the rest (zeros for whitened numerics, vocabulary members for
closed one-hots, the all-zeros ``"<unknown>"`` sentinel for learned
one-hots), and ``Total Cost`` is synthesized bottom-up for engines
without a cost model so the validator's cumulative-cost invariant
holds by construction.

Typical use::

    from repro import ingest

    plans = ingest.load_explain_dir("tests/fixtures/explain/postgres")
    samples = ingest.as_samples(plans)          # -> PlanSample, trainable
    Trainer(model, config).fit(samples)
    service.submit(plans[0].plan).result()       # same tree, live serving

See :mod:`repro.evaluation.crossengine` for the evaluation suite that
scores models per engine over ingested corpora.
"""

from .corpus import (
    detect_engine,
    load_explain_dir,
    load_explain_file,
    parse,
    template_of_filename,
)
from .duckdb import parse_duckdb_explain
from .errors import DialectError, IngestError, PlanTooDeepError, UnknownOperatorError
from .mysql import parse_mysql_explain
from .postgres import parse_postgres_explain
from .record import IngestedPlan, as_samples
from .stats import (
    REQUIRED_DEFAULTS,
    UNIVERSAL_DEFAULTS,
    apply_stat_defaults,
    ensure_cumulative_costs,
    scan_defaults_for,
)
from .vocab import (
    DUCKDB_VOCABULARY,
    FALLBACK_BY_ARITY,
    MYSQL_VOCABULARY,
    POSTGRES_VOCABULARY,
    SOURCE_ENGINE_PROP,
    UNKNOWN_OP_PROP,
    OperatorRule,
    OperatorVocabulary,
    ResolvedOp,
    fit_arity,
    known_engines,
    register_vocabulary,
    vocabulary_for,
)

__all__ = [
    "parse",
    "detect_engine",
    "load_explain_file",
    "load_explain_dir",
    "template_of_filename",
    "parse_postgres_explain",
    "parse_duckdb_explain",
    "parse_mysql_explain",
    "IngestedPlan",
    "as_samples",
    "IngestError",
    "DialectError",
    "UnknownOperatorError",
    "PlanTooDeepError",
    "OperatorVocabulary",
    "OperatorRule",
    "ResolvedOp",
    "POSTGRES_VOCABULARY",
    "DUCKDB_VOCABULARY",
    "MYSQL_VOCABULARY",
    "FALLBACK_BY_ARITY",
    "UNKNOWN_OP_PROP",
    "SOURCE_ENGINE_PROP",
    "fit_arity",
    "register_vocabulary",
    "vocabulary_for",
    "known_engines",
    "apply_stat_defaults",
    "ensure_cumulative_costs",
    "scan_defaults_for",
    "UNIVERSAL_DEFAULTS",
    "REQUIRED_DEFAULTS",
]

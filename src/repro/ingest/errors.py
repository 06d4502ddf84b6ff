"""Typed errors of the plan-ingestion front-end.

Every failure mode a real-engine EXPLAIN document can hit is named
here, so callers can distinguish "this document is not the dialect you
claimed" (:class:`DialectError`) from "this operator is not in the
engine's vocabulary and you asked for strictness"
(:class:`UnknownOperatorError`) from "this plan nests deeper than the
recursive parsers can walk" (:class:`PlanTooDeepError`) from generic
ingest misuse (:class:`IngestError`).  All inherit :class:`ValueError`
so legacy ``except ValueError`` call sites keep working.
"""

from __future__ import annotations

from typing import Optional, Sequence


class IngestError(ValueError):
    """Base class for plan-ingestion failures."""


class DialectError(IngestError):
    """The document does not parse as the named engine's EXPLAIN dialect.

    Raised for structurally malformed documents (missing ``Plan`` /
    ``query_block`` / ``children`` roots, non-JSON input, wrong
    top-level shape) — *before* any operator mapping runs.
    """

    def __init__(self, engine: str, reason: str) -> None:
        self.engine = engine
        self.reason = reason
        super().__init__(f"{engine}: {reason}")


class PlanTooDeepError(IngestError):
    """The document nests deeper than the recursive parse can follow.

    Raised by :func:`repro.ingest.parse` in place of the interpreter's
    ``RecursionError`` (from the JSON decoder or a dialect's node walk),
    so a pathological document is a typed ingest failure, not a crash.
    """

    def __init__(self, engine: str) -> None:
        self.engine = engine
        super().__init__(f"{engine}: plan nesting exceeds the recursion limit")


class UnknownOperatorError(IngestError):
    """An engine operator name has no vocabulary mapping.

    Only raised under the strict ``on_unknown="raise"`` policy; the
    default ``on_unknown="fallback"`` policy degrades the node to the
    arity-matched fallback operator instead (see
    :mod:`repro.ingest.vocab`).  Carries enough context to extend the
    vocabulary: the engine, the raw operator name, and the child count
    the node arrived with.
    """

    def __init__(
        self,
        engine: str,
        name: str,
        n_children: int = 0,
        known: Optional[Sequence[str]] = None,
    ) -> None:
        self.engine = engine
        self.name = name
        self.n_children = n_children
        self.known = tuple(known) if known is not None else ()
        hint = f" (vocabulary has {len(self.known)} operators)" if self.known else ""
        super().__init__(
            f"{engine}: unknown operator {name!r} with {n_children} children{hint}"
        )

"""Ingestion front door: engine detection, dispatch, file/dir corpora.

:func:`parse` is the one call most users need: hand it an EXPLAIN
document (text or parsed JSON) and get validated
:class:`~repro.ingest.record.IngestedPlan`\\ s back, whatever engine
printed it.  :func:`load_explain_file` / :func:`load_explain_dir` wrap
it for on-disk corpora (the shape of ``tests/fixtures/explain/``:
one JSON document per file, engine per sub-directory).
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Optional, Union

from repro.plans.validate import validate_plan

from .duckdb import parse_duckdb_explain
from .errors import DialectError, PlanTooDeepError
from .mysql import parse_mysql_explain
from .postgres import parse_postgres_explain
from .record import IngestedPlan
from .vocab import OnUnknown, known_engines

PathLike = Union[str, "os.PathLike[str]"]

_PARSERS = {
    "postgres": parse_postgres_explain,
    "duckdb": parse_duckdb_explain,
    "mysql": parse_mysql_explain,
}

#: Filename variant suffix stripped for template grouping: ``q1_0.json``
#: and ``q1_3.json`` are two parameterizations of template ``q1``.
_VARIANT_SUFFIX = re.compile(r"[_-]\d+$")


def detect_engine(document: Union[str, bytes, dict, list]) -> str:
    """Sniff which engine printed an EXPLAIN document.

    PostgreSQL: a ``[{"Plan": ...}]`` statement array (or one statement
    / bare ``Node Type`` object).  MySQL: a ``query_block`` object.
    DuckDB: an operator/profiling object (``name``/``operator_type``
    with ``children``).  Raises :class:`DialectError` when no dialect
    claims the document.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise DialectError("auto", f"not JSON: {exc}") from exc
    if isinstance(document, list):
        if document and all(isinstance(e, dict) and "Plan" in e for e in document):
            return "postgres"
        raise DialectError("auto", "list document is not a PostgreSQL statement array")
    if isinstance(document, dict):
        if "Plan" in document or "Node Type" in document:
            return "postgres"
        if "query_block" in document:
            return "mysql"
        if "children" in document or "operator_type" in document or "name" in document:
            return "duckdb"
    raise DialectError(
        "auto",
        f"unrecognized EXPLAIN document (known engines: {list(known_engines())})",
    )


def parse(
    document: Union[str, bytes, dict, list],
    engine: Optional[str] = None,
    *,
    on_unknown: OnUnknown = "fallback",
    validate: bool = True,
    template_id: Optional[str] = None,
    source: Optional[str] = None,
) -> list[IngestedPlan]:
    """Parse (and by default validate) one EXPLAIN document.

    ``engine`` selects the dialect parser (``None`` sniffs via
    :func:`detect_engine`); ``on_unknown`` picks the unknown-operator
    policy (typed raise vs. degrade-to-fallback, see
    :mod:`repro.ingest.vocab`); ``validate=False`` skips the
    ``plans.validate`` structural check (escape hatch for corpora that
    will be validated downstream, e.g. at ``PredictionService.submit``).
    A document nested too deeply to decode, parse or validate raises
    :class:`~repro.ingest.errors.PlanTooDeepError`.
    """
    try:
        if engine is None:
            engine = detect_engine(document)
        parser = _PARSERS.get(engine)
        if parser is None:
            raise DialectError(
                engine, f"no parser registered (known: {list(_PARSERS)})"
            )
        kwargs = {"on_unknown": on_unknown, "source": source}
        if template_id is not None:
            kwargs["template_id"] = template_id
        plans = parser(document, **kwargs)
        if validate:
            for plan in plans:
                validate_plan(plan.plan)
        return plans
    except RecursionError as error:
        raise PlanTooDeepError(engine or "auto") from error


def template_of_filename(path: PathLike) -> str:
    """Template id of a fixture filename (variant suffix stripped)."""
    return _VARIANT_SUFFIX.sub("", Path(path).stem)


def load_explain_file(
    path: PathLike,
    engine: Optional[str] = None,
    *,
    on_unknown: OnUnknown = "fallback",
    validate: bool = True,
    template_id: Optional[str] = None,
) -> list[IngestedPlan]:
    """Parse one EXPLAIN JSON file (template id from the filename)."""
    path = Path(path)
    if template_id is None:
        template_id = template_of_filename(path)
    return parse(
        path.read_text(),
        engine,
        on_unknown=on_unknown,
        validate=validate,
        template_id=template_id,
        source=str(path),
    )


def load_explain_dir(
    path: PathLike,
    engine: Optional[str] = None,
    *,
    on_unknown: OnUnknown = "fallback",
    validate: bool = True,
) -> list[IngestedPlan]:
    """Parse every ``*.json`` under ``path`` (recursively, sorted).

    A sub-directory named after a registered engine pins the dialect
    for the files inside it (the fixture-corpus layout); other files
    fall back to ``engine`` or per-document sniffing.  Raises
    ``FileNotFoundError`` for a missing directory and
    :class:`DialectError` for undetectable documents.
    """
    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"{root} is not a directory")
    engines = set(known_engines())
    plans: list[IngestedPlan] = []
    for file in sorted(root.rglob("*.json")):
        file_engine = engine
        if file_engine is None and file.parent.name in engines:
            file_engine = file.parent.name
        plans.extend(
            load_explain_file(
                file, file_engine, on_unknown=on_unknown, validate=validate
            )
        )
    if not plans:
        raise FileNotFoundError(f"{root} holds no *.json EXPLAIN documents")
    return plans

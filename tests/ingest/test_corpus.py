"""Front door: engine sniffing, dispatch, on-disk corpus loading."""

from __future__ import annotations

import json

import pytest

from repro.ingest import (
    DialectError,
    IngestError,
    PlanTooDeepError,
    detect_engine,
    load_explain_dir,
    load_explain_file,
    parse,
    template_of_filename,
)
from repro.plans import PlanValidationError

from .conftest import FIXTURES, load_fixture

pytestmark = pytest.mark.ingest


class TestDetectEngine:
    def test_sniffs_each_golden_dialect(self):
        assert detect_engine(load_fixture("postgres", "q1_0")) == "postgres"
        assert detect_engine(load_fixture("duckdb", "d1_0")) == "duckdb"
        assert detect_engine(load_fixture("mysql", "m1_0")) == "mysql"

    def test_sniffs_from_text(self):
        text = (FIXTURES / "postgres" / "q1_0.json").read_text()
        assert detect_engine(text) == "postgres"

    def test_unrecognized_document_is_typed(self):
        with pytest.raises(DialectError):
            detect_engine({"foo": "bar"})
        with pytest.raises(DialectError):
            detect_engine("not json at all {{{")


class TestParse:
    def test_autodetect_dispatch(self):
        for engine, stem in (("postgres", "q1_0"), ("duckdb", "d1_0"),
                             ("mysql", "m1_0")):
            plans = parse(load_fixture(engine, stem))
            assert plans[0].engine == engine

    def test_unknown_engine_is_typed(self):
        with pytest.raises(DialectError):
            parse(load_fixture("postgres", "q1_0"), engine="oracle")

    def test_validate_flag_gates_structural_check(self):
        # A deliberately broken document: a negative row estimate
        # violates the validator's non-negativity invariant (costs are
        # not usable here — ingestion repairs non-cumulative costs by
        # design).  validate=True rejects, validate=False admits.
        doc = json.loads(json.dumps(load_fixture("postgres", "q1_0")))
        doc[0]["Plan"]["Plan Rows"] = -5
        with pytest.raises(PlanValidationError):
            parse(doc)
        plans = parse(doc, validate=False)
        assert plans[0].engine == "postgres"


def _sort_chain(depth: int) -> list:
    """A PostgreSQL EXPLAIN document: ``depth`` Sorts over one Seq Scan."""
    node = {"Node Type": "Seq Scan", "Relation Name": "t", "Total Cost": 1.0,
            "Plan Rows": 10, "Plan Width": 4}
    for _ in range(depth):
        node = {"Node Type": "Sort", "Sort Key": ["a"], "Total Cost": 1.0,
                "Plan Rows": 10, "Plan Width": 4, "Plans": [node]}
    return [{"Plan": node}]


class TestDeepPlans:
    def test_moderate_depth_parses(self):
        (plan,) = parse(_sort_chain(200))
        assert plan.plan.node_count() == 201

    def test_deep_chain_is_typed_not_recursion_error(self):
        """A 1500-deep chain exceeds the recursive parsers; ``parse`` must
        raise a typed ingest error, never a bare RecursionError."""
        with pytest.raises(PlanTooDeepError) as exc_info:
            parse(_sort_chain(1500))
        assert isinstance(exc_info.value, IngestError)
        assert isinstance(exc_info.value.__cause__, RecursionError)
        assert exc_info.value.engine == "postgres"

    def test_deep_chain_text_is_typed(self):
        """The same depth as JSON text: the decoder recurses first."""
        depth = 1500
        leaf = '{"Node Type": "Seq Scan", "Relation Name": "t", "Total Cost": 1.0}'
        head = '{"Node Type": "Sort", "Total Cost": 1.0, "Plans": ['
        text = '[{"Plan": ' + head * depth + leaf + "]}" * depth + "}]"
        with pytest.raises(PlanTooDeepError):
            parse(text)


class TestTemplateOfFilename:
    @pytest.mark.parametrize(
        ("filename", "template"),
        [
            ("q1_0.json", "q1"),
            ("q1_17.json", "q1"),
            ("scan-3.json", "scan"),
            ("qmissing_0.json", "qmissing"),
            ("noversion.json", "noversion"),
        ],
    )
    def test_variant_suffix_stripped(self, filename, template):
        assert template_of_filename(filename) == template


class TestLoadCorpus:
    def test_file_gets_template_from_name(self):
        plans = load_explain_file(FIXTURES / "postgres" / "q3_1.json")
        assert [p.template_id for p in plans] == ["q3"]
        assert plans[0].source is not None and plans[0].source.endswith("q3_1.json")

    def test_directory_layout_pins_dialects(self, corpus):
        engines = {p.engine for p in corpus}
        assert engines == {"postgres", "duckdb", "mysql"}
        assert len(corpus) == len(list(FIXTURES.rglob("*.json")))

    def test_templates_group_variants(self, corpus):
        templates = {p.template_id for p in corpus if p.engine == "postgres"}
        assert {"q1", "q3", "q6", "qidx"} <= templates
        assert not any(t.endswith("_0") for t in templates)

    def test_missing_or_empty_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_explain_dir(tmp_path / "nope")
        with pytest.raises(FileNotFoundError):
            load_explain_dir(tmp_path)  # exists, holds no documents

    def test_fallback_is_recorded_per_plan(self, corpus):
        with_fallback = {
            (p.engine, p.template_id): p.fallback_ops for p in corpus if p.fallback_ops
        }
        assert with_fallback == {
            ("postgres", "qunknown"): ("WindowAgg",),
            ("duckdb", "dunknown"): ("WINDOW",),
        }

from __future__ import annotations

import json

import pytest

from medsql.errors import DataError, EmptyQuestion, ReservedToken
from medsql.linearize import (
    QuestionSource,
    build_model_input,
    export_training_file,
    linearize_schema,
)
from medsql.splits import Split, SplitAssignment
from medsql.store import ColumnDef, Paraphrase, Sample, SchemaDef, TableDef
from medsql.store import with_synthetic

GOLDEN_SCHEMA = SchemaDef(
    (
        TableDef("DEMOGRAPHIC", (ColumnDef("NAME", "text"), ColumnDef("AGE", "number"))),
        TableDef("DIAGNOSIS", (ColumnDef("ICD_CODE", "text"),)),
    )
)
GOLDEN_LINEARIZATION = "* DEMOGRAPHIC NAME text AGE number DIAGNOSIS ICD_CODE text"


class TestLinearizeSchema:
    def test_golden_flattening(self):
        assert linearize_schema(GOLDEN_SCHEMA) == GOLDEN_LINEARIZATION

    def test_datetime_attribute_word(self):
        schema = SchemaDef((TableDef("T", (ColumnDef("WHEN_AT", "datetime"),)),))
        assert linearize_schema(schema) == "* T WHEN_AT datetime"

    def test_clinic_schema_starts_with_star_and_first_table(self, clinic):
        text = linearize_schema(clinic.schema)
        assert text.startswith("* DEMOGRAPHIC SUBJECT_ID number")


class TestModelInput:
    def test_golden_input(self):
        got = build_model_input(GOLDEN_LINEARIZATION, "What is the age of John Doe?")
        assert got == GOLDEN_LINEARIZATION + " [SEP] What is the age of John Doe?"

    def test_custom_separator(self):
        got = build_model_input(GOLDEN_LINEARIZATION, "a question", sep="<sep>")
        assert " <sep> a question" in got
        assert "[SEP]" not in got

    def test_blank_question_rejected(self):
        with pytest.raises(EmptyQuestion):
            build_model_input(GOLDEN_LINEARIZATION, "   ")

    def test_question_containing_separator_rejected(self):
        with pytest.raises(ReservedToken):
            build_model_input(GOLDEN_LINEARIZATION, "why is [SEP] here")

    def test_separator_appears_exactly_once(self, clinic):
        got = build_model_input(linearize_schema(clinic.schema), "how many patients are there")
        assert got.count("[SEP]") == 1


class TestExport:
    @pytest.fixture()
    def mini(self, clinic):
        samples = [
            Sample(
                "m1",
                "how many patients are there",
                "SELECT COUNT(*) FROM DEMOGRAPHIC",
                paraphrase_question="patient count",
            ),
            with_synthetic(
                Sample("m2", "list lab labels", "SELECT LAB.LABEL FROM LAB"),
                [Paraphrase("labs list", "fr"), Paraphrase("list the labs", "de")],
            ),
        ]
        assignment = SplitAssignment({"m1": Split.TEST, "m2": Split.TEST})
        return samples, assignment, clinic.schema

    def test_all_sources_exports_every_variant(self, mini, tmp_path):
        samples, assignment, schema = mini
        out = tmp_path / "test_all.jsonl"
        report = export_training_file(
            samples, assignment, Split.TEST, schema, QuestionSource.ALL, out
        )
        assert report.n_records == 5
        assert report.n_samples == 2
        assert report.per_source == {"template": 2, "paraphrase": 1, "synthetic": 2}
        assert report.missing_paraphrase == 1
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == 5
        for record in lines:
            assert set(record) == {"input", "target"}
            assert record["input"].count("[SEP]") == 1

    def test_template_source_exports_one_record_per_sample(self, mini, tmp_path):
        samples, assignment, schema = mini
        out = tmp_path / "t.jsonl"
        report = export_training_file(
            samples, assignment, Split.TEST, schema, QuestionSource.TEMPLATE, out
        )
        assert report.n_records == 2
        assert report.per_source == {"template": 2, "paraphrase": 0, "synthetic": 0}

    def test_split_filtering(self, mini, tmp_path):
        samples, _, schema = mini
        assignment = SplitAssignment({"m1": Split.TRAIN, "m2": Split.TEST})
        out = tmp_path / "train.jsonl"
        report = export_training_file(
            samples, assignment, Split.TRAIN, schema, QuestionSource.TEMPLATE, out
        )
        assert report.n_samples == 1
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records[0]["target"] == "SELECT COUNT(*) FROM DEMOGRAPHIC"

    def test_targets_are_the_gold_sql(self, clinic, tmp_path):
        samples = clinic.corpus[:20]
        assignment = SplitAssignment({s.id: Split.TEST for s in samples})
        out = tmp_path / "targets.jsonl"
        export_training_file(
            samples, assignment, Split.TEST, clinic.schema, QuestionSource.TEMPLATE, out
        )
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["target"] for r in records] == [s.gold_sql for s in samples]

    def test_sample_carrying_its_own_schema_uses_it(self, mini, tmp_path):
        samples, assignment, schema = mini
        override = GOLDEN_SCHEMA
        samples = [samples[0], Sample("m2", "list codes", "SELECT ICD_CODE FROM DIAGNOSIS", schema=override)]
        out = tmp_path / "own.jsonl"
        export_training_file(
            samples, assignment, Split.TEST, schema, QuestionSource.TEMPLATE, out
        )
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records[1]["input"].startswith(GOLDEN_LINEARIZATION + " [SEP] ")
        assert records[0]["input"].startswith("* DEMOGRAPHIC SUBJECT_ID number")

    def test_unassigned_sample_is_an_error(self, mini, tmp_path):
        samples, _, schema = mini
        assignment = SplitAssignment({"m1": Split.TEST})
        with pytest.raises(DataError):
            export_training_file(
                samples, assignment, Split.TEST, schema, QuestionSource.TEMPLATE, tmp_path / "x.jsonl"
            )

"""Schema linearization and training-file export for seq2seq models.

A schema flattens to ``*`` followed by, for each table, its name and then
each column name with its attribute word. The model input is that string,
a separator token, and the question.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import EmptyQuestion, ReservedToken
from .records import write_jsonl
from .splits import Split, SplitAssignment
from .store import Sample, SchemaDef

DEFAULT_SEPARATOR = "[SEP]"


class QuestionSource(Enum):
    TEMPLATE = "template"
    PARAPHRASE = "paraphrase"
    SYNTHETIC = "synthetic"
    ALL = "all"


def linearize_schema(schema: SchemaDef) -> str:
    """Flatten a schema, starting with the all-columns symbol."""
    parts = ["*"]
    for table in schema.tables:
        parts.append(table.name)
        for column in table.columns:
            parts.append(column.name)
            parts.append(column.attr)
    return " ".join(parts)


def build_model_input(schema_text: str, question: str, sep: str = DEFAULT_SEPARATOR) -> str:
    """Join a :func:`linearize_schema` string and the question with the separator.

    Raises :class:`EmptyQuestion` for blank questions and
    :class:`ReservedToken` if the question already contains the separator.
    """
    if not question or not question.strip():
        raise EmptyQuestion("question is empty")
    if sep in question:
        raise ReservedToken(f"question contains the separator token {sep!r}")
    return f"{schema_text} {sep} {question}"


@dataclass(frozen=True)
class ExportReport:
    n_records: int
    n_samples: int
    per_source: dict[str, int]
    missing_paraphrase: int


def export_training_file(
    corpus: list[Sample],
    assignment: SplitAssignment,
    split: Split,
    schema: SchemaDef,
    question_source: QuestionSource,
    out_path: str | Path,
    *,
    sep: str = DEFAULT_SEPARATOR,
) -> ExportReport:
    """Write one ``{"input", "target"}`` record per question variant.

    ``question_source`` picks template questions, human paraphrases,
    synthetic paraphrases, or all of them. Samples carrying their own
    schema (a corpus record's ``schema`` key) are linearized against it;
    everything else uses ``schema``, flattened once. Samples lacking a
    paraphrase are counted, not exported, under the paraphrase source. A
    corpus sample missing from the assignment is a :class:`DataError`, and
    so is a rejected question, naming its sample and question source.
    """
    samples = assignment.members(corpus, split)
    records: list[dict[str, str]] = []
    per_source = {"template": 0, "paraphrase": 0, "synthetic": 0}
    missing_paraphrase = 0
    schema_text = linearize_schema(schema)
    for sample in samples:
        sample_text = schema_text if sample.schema is None else linearize_schema(sample.schema)
        questions: list[tuple[str, str]] = []
        if question_source in (QuestionSource.TEMPLATE, QuestionSource.ALL):
            questions.append(("template", sample.template_question))
        if question_source in (QuestionSource.PARAPHRASE, QuestionSource.ALL):
            if sample.paraphrase_question is None:
                missing_paraphrase += 1
            else:
                questions.append(("paraphrase", sample.paraphrase_question))
        if question_source in (QuestionSource.SYNTHETIC, QuestionSource.ALL):
            for paraphrase in sample.synthetic_paraphrases:
                questions.append(("synthetic", paraphrase.text))
        for source, question in questions:
            try:
                model_input = build_model_input(sample_text, question, sep)
            except (EmptyQuestion, ReservedToken) as exc:
                raise type(exc)(f"sample {sample.id!r}, {source} question: {exc}") from exc
            records.append({"input": model_input, "target": sample.gold_sql})
            per_source[source] += 1
    write_jsonl(out_path, records)
    return ExportReport(
        n_records=len(records),
        n_samples=len(samples),
        per_source=per_source,
        missing_paraphrase=missing_paraphrase,
    )

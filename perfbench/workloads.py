"""The benchmark's workloads: input sizes and the command pipeline.

Every workload runs the same eight ``medsql`` commands in one round, so
every end-to-end metric is measured on every workload; the sizes decide
which layer carries the time. All commands run at the default ``--jobs 1``
(see README.md for why no parallel workload is measured yet).
"""

from __future__ import annotations

from pathlib import Path

from datagen import DESIGNATED, Scale, Truth

WORKLOADS = {
    # Query layer (lex/parse) and JSON I/O carry the time; SQLite runs on a
    # small database and recovery sees one cheap miss.
    "corpus_prep": Scale(
        samples=300, rows=1500, distinct=400, test_size=75, beams=100, recover_preds=100,
        recover_misses=0, recover_unparsed=0.1,
    ),
    # SQLite execution and result comparison carry the time: 12,000 rows
    # per clinical table, every beam executed.
    "exec_heavy": Scale(
        samples=60, rows=12000, distinct=1500, test_size=None, beams=60, recover_preds=100,
        recover_misses=0, recover_unparsed=0.1,
    ),
    # ROUGE-L/LCS value recovery carries the time: a thousand distinct
    # values per large text column, a unique and a repeated miss.
    "value_recovery": Scale(
        samples=100, rows=2000, distinct=1000, test_size=25, beams=60, recover_preds=100,
        recover_misses=1, recover_unparsed=0.1,
    ),
}

# The smoke test's scale: every path taken, in well under a second a round.
TINY = Scale(
    samples=120, rows=60, distinct=40, test_size=10, beams=12, recover_preds=30,
    recover_misses=5, recover_unparsed=0.2,
)

COMMANDS = ("ingest", "stats", "split", "linearize", "augment", "rerank", "eval", "recover")

# End-to-end throughput metric of each command, and its unit.
THROUGHPUT = {
    "ingest": ("ingest_samples_per_s", "samples/s"),
    "stats": ("stats_samples_per_s", "samples/s"),
    "split": ("split_samples_per_s", "samples/s"),
    "linearize": ("linearize_records_per_s", "records/s"),
    "augment": ("augment_samples_per_s", "samples/s"),
    "eval": ("eval_samples_per_s", "samples/s"),
    "rerank": ("rerank_beams_per_s", "beams/s"),
    "recover": ("recover_preds_per_s", "preds/s"),
}


def pipeline(data: Path, out: Path, workload: str, test_size: int) -> list[tuple[str, list[str], list[Path]]]:
    """(command, argv, output files) of one round, in order."""
    d, o = Path(data), Path(out)
    schema = str(d / "schema.json")
    # exec_heavy scores the reranked beams; the others score top-1 predictions.
    eval_preds = o / "reranked.jsonl" if workload == "exec_heavy" else d / "top1.jsonl"
    steps = [
        ("ingest", ["--corpus", d / "raw_corpus.jsonl", "--schema", schema, "--out", o / "corpus.jsonl",
                    "--field-map", "question_template=question"], [o / "corpus.jsonl"]),
        ("stats", ["--corpus", o / "corpus.jsonl", "--schema", schema, "--out", o / "stats.json"],
         [o / "stats.json"]),
        ("split", ["--corpus", o / "corpus.jsonl", "--schema", schema, "--out", o / "assignment.tsv",
                   "--report", o / "split_report.json", "--test-size", test_size, "--seed", "0"],
         [o / "assignment.tsv", o / "split_report.json"]),
        ("linearize", ["--corpus", o / "corpus.jsonl", "--schema", schema, "--assignment", o / "assignment.tsv",
                       "--split", "TRAIN", "--question-source", "all", "--out", o / "train.jsonl"],
         [o / "train.jsonl"]),
        ("augment", ["--corpus", o / "corpus.jsonl", "--stub", "--out", o / "augmented.jsonl",
                     "--report", o / "augment_report.json"], [o / "augmented.jsonl", o / "augment_report.json"]),
        ("rerank", ["--preds", d / "beams.jsonl", "--db", d / "clinic.db", "--out", o / "reranked.jsonl",
                    "--require-nonempty"], [o / "reranked.jsonl"]),
        ("eval", ["--corpus", o / "corpus.jsonl", "--assignment", o / "assignment.tsv", "--split", "TEST",
                  "--preds", eval_preds, "--db", d / "clinic.db", "--out", o / "eval.json"], [o / "eval.json"]),
        ("recover", ["--preds", d / "recover_preds.jsonl", "--db", d / "clinic.db", "--schema", schema,
                     "--out", o / "recovered.jsonl", "--report", o / "recover_report.json"],
         [o / "recovered.jsonl", o / "recover_report.json"]),
    ]
    return [(name, [name] + [str(a) for a in argv], outs) for name, argv, outs in steps]


def items(truth: Truth, scale: Scale) -> dict[str, int]:
    """Work items per command, counted from the generator's truth."""
    train = [sid for sid in truth.gold if truth.main_table[sid] not in DESIGNATED]
    return {
        "ingest": scale.samples,
        "stats": scale.samples,
        "split": scale.samples,
        "linearize": sum(truth.questions[sid] for sid in train),
        "augment": scale.samples,
        "rerank": min(scale.beams, scale.samples),
        "eval": truth.test_size,
        "recover": scale.recover_preds,
    }

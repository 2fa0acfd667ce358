"""Command line interface.

One binary, eight subcommands: ingest, stats, split, linearize, augment,
rerank, recover, eval. Exit codes: 0 success, 1 usage error, 2 data
error, 3 environment error. Every output file is written atomically and
accompanied by a ``<name>.manifest.json`` recording inputs (with
digests), the resolved configuration and its hash, the tool version, and
the seed. Option precedence: config file values are overridden by flags,
which are overridden by environment variables.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any

from . import __version__
from .augment import (
    DEFAULT_PIVOTS,
    TRANSLATE_URL_ENV,
    HttpTranslator,
    StubTranslator,
    TranslatorEndpoint,
    augment_corpus,
)
from .errors import DataError, EnvError
from .linearize import DEFAULT_SEPARATOR, QuestionSource, export_training_file
from .metrics import evaluate
from .predictions import CandidateSet, Candidate, load_predictions, save_predictions
from .query import ColumnRef, SqlQuery, parse_sql, rename_tables, serialize_sql
from .records import FORMAT_VERSION, read_jsonl, write_json, write_jsonl, write_manifest
from .recovery import recover_query
from .rerank import DEFAULT_TIMEOUT_MS, rerank_file
from .splits import (
    DEFAULT_DESIGNATED,
    DEFAULT_TEST_SIZE,
    Split,
    SplitAssignment,
    SplitSpec,
    assign_splits,
    split_report,
    verify_split,
)
from .store import (
    build_value_lookup,
    corpus_stats,
    load_corpus,
    load_schema,
    map_in_order,
    save_corpus,
    validate_records,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


class _UsageError(Exception):
    pass


def _load_config(path: str | None) -> dict[str, Any]:
    if not path:
        return {}
    with open(path, encoding="utf-8-sig") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DataError("config file must hold a JSON object")
    return obj


def _resolve(args: argparse.Namespace, spec: list[tuple[str, Any, str | None]]) -> dict[str, Any]:
    """Merge defaults, config file, flags, and env vars, in that order."""
    config = _load_config(getattr(args, "config", None))
    resolved: dict[str, Any] = {}
    for dest, default, env_var in spec:
        value = default
        if dest in config:
            value = config[dest]
        flag = getattr(args, dest, None)
        if flag is not None:
            value = flag
        if env_var:
            env_value = os.environ.get(env_var)
            if env_value:
                value = env_value
        resolved[dest] = value
    return resolved


def _require(resolved: dict[str, Any], *keys: str) -> None:
    missing = [k for k in keys if resolved.get(k) in (None, "")]
    if missing:
        raise _UsageError("missing required option(s): " + ", ".join(f"--{k.replace('_', '-')}" for k in missing))


def _jsonable(resolved: dict[str, Any]) -> dict[str, Any]:
    return {k: (str(v) if isinstance(v, Path) else v) for k, v in resolved.items()}


def _write_manifests(
    args: argparse.Namespace,
    resolved: dict[str, Any],
    outputs: list[Path],
    inputs: tuple[str, ...],
    seed: int | None = None,
) -> None:
    """One manifest per output; ``inputs`` names the resolved options that
    hold input paths, and unset ones are left out."""
    for out in outputs:
        write_manifest(
            out,
            command=args.subcommand,
            tool_version=__version__,
            inputs={name: resolved[name] for name in inputs if resolved[name]},
            config=_jsonable(resolved),
            seed=seed,
        )


# ingest: normalize an external or canonical corpus into the canonical
# corpus format, validating ids, questions, and SQL.

_CANONICAL_FIELDS = ("id", "question_template", "question_paraphrase", "sql")


def _read_raw_records(path: str) -> list[Any]:
    with open(path, encoding="utf-8-sig") as fh:
        head = fh.read(64).lstrip()
    if head.startswith("["):
        with open(path, encoding="utf-8-sig") as fh:
            entries = json.load(fh)
        if not isinstance(entries, list):
            raise DataError("corpus JSON must be an array of records")
        return entries
    return [rec for _, rec in read_jsonl(path)]


def _parse_field_map(text: str | None) -> dict[str, str]:
    if not text:
        return {}
    mapping: dict[str, str] = {}
    for part in text.split(","):
        if "=" not in part:
            raise _UsageError(f"--field-map entries must be canonical=source, got {part!r}")
        canonical, source = part.split("=", 1)
        if canonical not in _CANONICAL_FIELDS:
            raise _UsageError(f"unknown canonical field {canonical!r} in --field-map")
        mapping[canonical] = source
    return mapping


def _name_variants(name: str) -> set[str]:
    out = {name}
    out.add(name + "S")
    out.add(name + "ES")
    if name.endswith("ES"):
        out.add(name[:-2])
    if name.endswith("S"):
        out.add(name[:-1])
    return out


def _table_renames(query: SqlQuery, schema_tables: set[str]) -> dict[str, str]:
    """Map each mentioned table name that differs from exactly one schema
    name only by a trailing S/ES to that schema name."""
    mentioned = {query.main_table} | {j.table for j in query.joins}
    mentioned |= {c.column.table for c in query.conditions}
    mentioned |= {it.column.table for it in query.select_items if isinstance(it.column, ColumnRef)}
    rename: dict[str, str] = {}
    for name in mentioned - schema_tables - {None}:
        matches = sorted(_name_variants(name) & schema_tables)
        if len(matches) == 1:
            rename[name] = matches[0]
    return rename


def _mapped_records(raw: list[Any], field_map: dict[str, str]):
    """(number, record) pairs with source fields renamed to canonical ones
    and missing ids defaulted to the record number."""
    for number, rec in enumerate(raw, start=1):
        if isinstance(rec, dict):
            mapped = dict(rec)
            for canonical, source in field_map.items():
                if source in rec:
                    mapped[canonical] = rec[source]
                    if source != canonical:
                        mapped.pop(source, None)
            mapped.setdefault("id", str(number))
            rec = mapped
        yield number, rec


def _cmd_ingest(args: argparse.Namespace) -> int:
    resolved = _resolve(
        args,
        [
            ("corpus", None, None),
            ("schema", None, None),
            ("out", "corpus.jsonl", None),
            ("field_map", None, None),
            ("normalize_tables", True, None),
        ],
    )
    _require(resolved, "corpus", "schema")
    schema = load_schema(resolved["schema"])
    schema_tables = {t.name.upper() for t in schema.tables}
    field_map = _parse_field_map(resolved["field_map"])
    samples = validate_records(_mapped_records(_read_raw_records(resolved["corpus"]), field_map))
    normalized = 0
    if resolved["normalize_tables"]:
        for k, sample in enumerate(samples):
            query = parse_sql(sample.gold_sql)
            rename = _table_renames(query, schema_tables)
            if rename:
                samples[k] = replace(sample, gold_sql=serialize_sql(rename_tables(query, rename)))
                normalized += 1

    out = Path(resolved["out"])
    save_corpus(samples, out)
    _write_manifests(args, resolved, [out], ("corpus", "schema"))
    print(f"ingested {len(samples)} samples ({normalized} with normalized table names) -> {out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    resolved = _resolve(
        args,
        [("corpus", None, None), ("schema", None, None), ("out", "corpus_stats.json", None)],
    )
    _require(resolved, "corpus", "schema")
    corpus = load_corpus(resolved["corpus"])
    schema = load_schema(resolved["schema"])
    stats = corpus_stats(corpus, schema)
    out = Path(resolved["out"])
    write_json(out, {"format_version": FORMAT_VERSION, **stats.to_dict()})
    _write_manifests(args, resolved, [out], ("corpus", "schema"))
    print(f"{stats.n_samples} samples over {stats.n_tables} tables -> {out}")
    return 0


def _cmd_split(args: argparse.Namespace) -> int:
    resolved = _resolve(
        args,
        [
            ("corpus", None, None),
            ("schema", None, None),
            ("out", "split_assignment.tsv", None),
            ("report", "split_report.json", None),
            ("test_size", DEFAULT_TEST_SIZE, None),
            ("seed", 0, None),
            ("designated", ",".join(sorted(DEFAULT_DESIGNATED)), None),
        ],
    )
    _require(resolved, "corpus")
    designated = frozenset(t.strip().upper() for t in str(resolved["designated"]).split(",") if t.strip())
    spec = SplitSpec(designated, int(resolved["test_size"]), int(resolved["seed"]))
    corpus = load_corpus(resolved["corpus"])
    if resolved["schema"]:
        schema = load_schema(resolved["schema"])
        missing = sorted(t for t in spec.designated_tables if schema.table(t) is None)
        if missing:
            raise DataError("designated table(s) not in schema: " + ", ".join(missing))
    assignment = assign_splits(corpus, spec)
    pool = sum(1 for s in corpus if assignment.by_id[s.id] is not Split.TRAIN)
    violations = verify_split(corpus, assignment, spec)
    report = split_report(assignment, spec, pool)
    report["violations"] = [
        {"id": v.sample_id, "rule": v.rule, "detail": v.detail} for v in violations
    ]
    report["format_version"] = FORMAT_VERSION

    out = Path(resolved["out"])
    assignment.save(out)
    report_path = Path(resolved["report"])
    write_json(report_path, report)
    _write_manifests(args, resolved, [out, report_path], ("corpus", "schema"), seed=spec.seed)
    sizes = report["sizes"]
    diff = report["reference"]["diff"]
    print(
        f"TRAIN={sizes['TRAIN']} DEV={sizes['DEV']} TEST={sizes['TEST']} "
        f"(reference diff TRAIN{diff['TRAIN']:+d} DEV{diff['DEV']:+d} TEST{diff['TEST']:+d}; "
        f"violations={len(violations)}) -> {out}"
    )
    return 0


def _cmd_linearize(args: argparse.Namespace) -> int:
    resolved = _resolve(
        args,
        [
            ("corpus", None, None),
            ("schema", None, None),
            ("assignment", None, None),
            ("split", "TRAIN", None),
            ("question_source", "template", None),
            ("sep", DEFAULT_SEPARATOR, None),
            ("out", None, None),
        ],
    )
    _require(resolved, "corpus", "schema", "assignment")
    try:
        split = Split(str(resolved["split"]).upper())
        source = QuestionSource(str(resolved["question_source"]).lower())
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    out = Path(resolved["out"] or f"{split.value.lower()}_{source.value}.jsonl")
    corpus = load_corpus(resolved["corpus"])
    schema = load_schema(resolved["schema"])
    assignment = SplitAssignment.load(resolved["assignment"])
    report = export_training_file(corpus, assignment, split, schema, source, out, sep=str(resolved["sep"]))
    _write_manifests(args, resolved, [out], ("corpus", "schema", "assignment"))
    counts = ", ".join(f"{k}={v}" for k, v in report.per_source.items())
    print(
        f"wrote {report.n_records} records from {report.n_samples} samples "
        f"({counts}; missing_paraphrase={report.missing_paraphrase}) -> {out}"
    )
    return 0


def _cmd_augment(args: argparse.Namespace) -> int:
    resolved = _resolve(
        args,
        [
            ("corpus", None, None),
            ("out", "augmented_corpus.jsonl", None),
            ("report", "augment_report.json", None),
            ("pivots", ",".join(DEFAULT_PIVOTS), None),
            ("stub", False, None),
            ("translate_url", None, TRANSLATE_URL_ENV),
            ("timeout_ms", 10_000, None),
            ("retries", 2, None),
            ("jobs", 1, None),
        ],
    )
    _require(resolved, "corpus")
    pivots = tuple(p.strip() for p in str(resolved["pivots"]).split(",") if p.strip())
    if resolved["stub"]:
        translator = StubTranslator()
    elif resolved["translate_url"]:
        endpoint = TranslatorEndpoint(
            str(resolved["translate_url"]), int(resolved["timeout_ms"]), int(resolved["retries"])
        )
        translator = HttpTranslator(endpoint)
    else:
        raise _UsageError("augment needs --stub or a translation endpoint (--translate-url or MEDSQL_TRANSLATE_URL)")
    corpus = load_corpus(resolved["corpus"])
    result = augment_corpus(corpus, pivots, translator, jobs=int(resolved["jobs"]))
    out = Path(resolved["out"])
    save_corpus(result.samples, out)
    report_path = Path(resolved["report"])
    write_json(report_path, {"format_version": FORMAT_VERSION, **result.report.to_dict()})
    _write_manifests(args, resolved, [out, report_path], ("corpus",))
    rep = result.report
    print(
        f"added {rep.added} synthetic paraphrases "
        f"(degenerate={rep.dropped_degenerate}, errors={len(rep.errors)}) -> {out}"
    )
    return 0


def _cmd_rerank(args: argparse.Namespace) -> int:
    resolved = _resolve(
        args,
        [
            ("preds", None, None),
            ("db", None, None),
            ("out", "reranked_predictions.jsonl", None),
            ("require_nonempty", False, None),
            ("timeout_ms", DEFAULT_TIMEOUT_MS, None),
            ("jobs", 1, None),
        ],
    )
    _require(resolved, "preds", "db")
    preds = load_predictions(resolved["preds"])
    choices = rerank_file(
        preds,
        resolved["db"],
        require_nonempty=bool(resolved["require_nonempty"]),
        timeout_ms=int(resolved["timeout_ms"]),
        jobs=int(resolved["jobs"]),
    )
    out = Path(resolved["out"])
    write_jsonl(
        out,
        (
            {
                "id": c.id,
                "sql": c.sql,
                "chosen_rank": c.chosen_rank,
                "all_failed": c.all_failed,
            }
            for c in choices.values()
        ),
    )
    _write_manifests(args, resolved, [out], ("preds", "db"))
    failed = sum(1 for c in choices.values() if c.all_failed)
    print(f"reranked {len(choices)} beams (all_failed={failed}) -> {out}")
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    resolved = _resolve(
        args,
        [
            ("preds", None, None),
            ("db", None, None),
            ("schema", None, None),
            ("out", "recovered_predictions.jsonl", None),
            ("report", "recover_report.json", None),
            ("prefilter", True, None),
            ("jobs", 1, None),
        ],
    )
    _require(resolved, "preds", "db", "schema")
    preds = load_predictions(resolved["preds"])
    schema = load_schema(resolved["schema"])
    lookup = build_value_lookup(resolved["db"], schema)
    prefilter = bool(resolved["prefilter"])

    def recover_one(sql: str) -> tuple[str, dict[str, int]]:
        res = recover_query(sql, lookup, prefilter=prefilter)
        return res.sql, {
            "replaced": len(res.replacements),
            "unresolved": len(res.unresolved),
            "unparsed": 0 if res.parsed else 1,
        }

    items = list(preds.items())

    def work(item):
        sid, pred = item
        totals = {"replaced": 0, "unresolved": 0, "unparsed": 0}
        if isinstance(pred, CandidateSet):
            cands = []
            for cand in pred.candidates:
                sql, counts = recover_one(cand.sql)
                for k in totals:
                    totals[k] += counts[k]
                cands.append(Candidate(sql, cand.score))
            return sid, CandidateSet(sid, tuple(cands)), totals
        sql, totals = recover_one(pred)
        return sid, sql, totals

    results = map_in_order(work, items, int(resolved["jobs"]))

    out_preds = {sid: pred for sid, pred, _ in results}
    totals = {"replaced": 0, "unresolved": 0, "unparsed": 0}
    for _, _, counts in results:
        for k in totals:
            totals[k] += counts[k]
    out = Path(resolved["out"])
    save_predictions(out_preds, out)
    report_path = Path(resolved["report"])
    write_json(report_path, {"format_version": FORMAT_VERSION, **totals})
    _write_manifests(args, resolved, [out, report_path], ("preds", "db", "schema"))
    print(
        f"recovered {len(out_preds)} predictions "
        f"(replaced={totals['replaced']}, unresolved={totals['unresolved']}, "
        f"unparsed={totals['unparsed']}) -> {out}"
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    resolved = _resolve(
        args,
        [
            ("corpus", None, None),
            ("assignment", None, None),
            ("split", "TEST", None),
            ("preds", None, None),
            ("db", None, None),
            ("out", "eval_report.json", None),
            ("strict", False, None),
            ("breakdown", True, None),
            ("timeout_ms", None, None),
            ("jobs", 1, None),
        ],
    )
    _require(resolved, "corpus", "assignment", "preds", "db")
    try:
        split = Split(str(resolved["split"]).upper())
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    corpus = load_corpus(resolved["corpus"])
    assignment = SplitAssignment.load(resolved["assignment"])
    samples = [s for s in corpus if assignment.by_id.get(s.id) is split]
    preds = load_predictions(resolved["preds"])
    timeout = resolved["timeout_ms"]
    report = evaluate(
        samples,
        preds,
        resolved["db"],
        strict=bool(resolved["strict"]),
        with_breakdown=bool(resolved["breakdown"]),
        timeout_ms=int(timeout) if timeout is not None else None,
        jobs=int(resolved["jobs"]),
    )
    out = Path(resolved["out"])
    write_json(out, report.to_dict())
    _write_manifests(args, resolved, [out], ("corpus", "assignment", "preds", "db"))
    print(f"acc_lf={report.acc_lf:.4f} acc_ex={report.acc_ex:.4f} n={report.n} -> {out}")
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags and env vars override it")


def build_parser() -> _Parser:
    parser = _Parser(prog="medsql", description=__doc__)
    parser.add_argument("--version", action="version", version=f"medsql {__version__}")
    subs = parser.add_subparsers(dest="subcommand", parser_class=_Parser)

    p = subs.add_parser("ingest", help="validate and normalize a corpus into canonical form")
    _add_common(p)
    p.add_argument("--corpus")
    p.add_argument("--schema")
    p.add_argument("--out")
    p.add_argument("--field-map", dest="field_map", help="canonical=source field renames, comma separated")
    p.add_argument("--normalize-tables", dest="normalize_tables", action=argparse.BooleanOptionalAction)
    p.set_defaults(func=_cmd_ingest)

    p = subs.add_parser("stats", help="corpus statistics")
    _add_common(p)
    p.add_argument("--corpus")
    p.add_argument("--schema")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_stats)

    p = subs.add_parser("split", help="assign TRAIN/DEV/TEST by the designated-table rule")
    _add_common(p)
    p.add_argument("--corpus")
    p.add_argument("--schema")
    p.add_argument("--out")
    p.add_argument("--report")
    p.add_argument("--test-size", dest="test_size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--designated", help="comma separated designated tables")
    p.set_defaults(func=_cmd_split)

    p = subs.add_parser("linearize", help="export model input/target records for one split")
    _add_common(p)
    p.add_argument("--corpus")
    p.add_argument("--schema")
    p.add_argument("--assignment")
    p.add_argument("--split")
    p.add_argument("--question-source", dest="question_source")
    p.add_argument("--sep")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_linearize)

    p = subs.add_parser("augment", help="add back-translated paraphrases")
    _add_common(p)
    p.add_argument("--corpus")
    p.add_argument("--out")
    p.add_argument("--report")
    p.add_argument("--pivots")
    p.add_argument("--stub", action=argparse.BooleanOptionalAction)
    p.add_argument("--translate-url", dest="translate_url")
    p.add_argument("--timeout-ms", dest="timeout_ms", type=int)
    p.add_argument("--retries", type=int)
    p.add_argument("--jobs", type=int)
    p.set_defaults(func=_cmd_augment)

    p = subs.add_parser("rerank", help="pick the first executable candidate per beam")
    _add_common(p)
    p.add_argument("--preds")
    p.add_argument("--db")
    p.add_argument("--out")
    p.add_argument("--require-nonempty", dest="require_nonempty", action=argparse.BooleanOptionalAction)
    p.add_argument("--timeout-ms", dest="timeout_ms", type=int)
    p.add_argument("--jobs", type=int)
    p.set_defaults(func=_cmd_rerank)

    p = subs.add_parser("recover", help="replace condition values with database values")
    _add_common(p)
    p.add_argument("--preds")
    p.add_argument("--db")
    p.add_argument("--schema")
    p.add_argument("--out")
    p.add_argument("--report")
    p.add_argument("--prefilter", action=argparse.BooleanOptionalAction)
    p.add_argument("--jobs", type=int)
    p.set_defaults(func=_cmd_recover)

    p = subs.add_parser("eval", help="logic-form and execution accuracy for a prediction file")
    _add_common(p)
    p.add_argument("--corpus")
    p.add_argument("--assignment")
    p.add_argument("--split")
    p.add_argument("--preds")
    p.add_argument("--db")
    p.add_argument("--out")
    p.add_argument("--strict", action=argparse.BooleanOptionalAction)
    p.add_argument("--breakdown", action=argparse.BooleanOptionalAction)
    p.add_argument("--timeout-ms", dest="timeout_ms", type=int)
    p.add_argument("--jobs", type=int)
    p.set_defaults(func=_cmd_eval)

    return parser


def cmd(argv: list[str]) -> int:
    """Run one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "subcommand", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"medsql {args.subcommand}: error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"medsql {args.subcommand}: data error: {exc}", file=sys.stderr)
        return 2
    except (EnvError, OSError) as exc:
        print(f"medsql {args.subcommand}: environment error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cmd(sys.argv[1:]))


if __name__ == "__main__":
    main()

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
import codecs
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable

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
from .query import ColumnRef, SqlQuery, rename_tables, serialize_sql
from .records import FORMAT_VERSION, read_json, read_jsonl, write_json, write_jsonl, write_manifest
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
    return read_json(path, "config file", dict)


def _resolve(args: argparse.Namespace) -> dict[str, Any]:
    """Merge defaults, config file, flags, and env vars, in that order.

    A config value must have its option's JSON type; null is accepted only
    where the default is null."""
    config = _load_config(getattr(args, "config", None))
    resolved: dict[str, Any] = {}
    for dest, default, kind, _ in _COMMANDS[args.subcommand][2]:
        value = default
        if dest in config:
            value = config[dest]
            # bool is a subclass of int, but true is not an integer here.
            typed = isinstance(value, kind) and not (kind is int and isinstance(value, bool))
            if not typed and not (value is None and default is None):
                wanted = {str: "a string", int: "an integer", bool: "true or false"}[kind]
                raise DataError(f"config key {dest!r} must be {wanted}, not {json.dumps(value)}")
        flag = getattr(args, dest, None)
        if flag is not None:
            value = flag
        env_value = os.environ.get(TRANSLATE_URL_ENV) if dest == "translate_url" else None
        if env_value:
            value = env_value
        resolved[dest] = value
    return resolved


def _require(resolved: dict[str, Any], *keys: str) -> None:
    missing = [k for k in keys if resolved.get(k) in (None, "")]
    if missing:
        raise _UsageError("missing required option(s): " + ", ".join(f"--{k.replace('_', '-')}" for k in missing))


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
            config=resolved,
            seed=seed,
        )


# ingest: normalize an external or canonical corpus into the canonical
# corpus format, validating ids, questions, and SQL.

_CANONICAL_FIELDS = ("id", "question_template", "question_paraphrase", "sql")


def _read_raw_records(path: str) -> list[Any]:
    with open(path, "rb") as fh:
        head = fh.read(64).removeprefix(codecs.BOM_UTF8).lstrip()
    if head.startswith(b"["):
        return read_json(path, "corpus file", list)
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
    resolved = _resolve(args)
    _require(resolved, "corpus", "schema")
    schema = load_schema(resolved["schema"])
    schema_tables = {t.name.upper() for t in schema.tables}
    field_map = _parse_field_map(resolved["field_map"])
    samples = validate_records(_mapped_records(_read_raw_records(resolved["corpus"]), field_map))
    normalized = 0
    if resolved["normalize_tables"]:
        for k, sample in enumerate(samples):
            rename = _table_renames(sample.gold_query, schema_tables)
            if rename:
                samples[k] = replace(sample, gold_sql=serialize_sql(rename_tables(sample.gold_query, rename)))
                normalized += 1

    out = Path(resolved["out"])
    save_corpus(samples, out)
    _write_manifests(args, resolved, [out], ("corpus", "schema"))
    print(f"ingested {len(samples)} samples ({normalized} with normalized table names) -> {out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
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
    resolved = _resolve(args)
    _require(resolved, "corpus")
    designated = frozenset(t.strip().upper() for t in resolved["designated"].split(",") if t.strip())
    spec = SplitSpec(designated, resolved["test_size"], resolved["seed"])
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
    resolved = _resolve(args)
    _require(resolved, "corpus", "schema", "assignment")
    try:
        split = Split(resolved["split"].upper())
        source = QuestionSource(resolved["question_source"].lower())
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    out = Path(resolved["out"] or f"{split.value.lower()}_{source.value}.jsonl")
    corpus = load_corpus(resolved["corpus"])
    schema = load_schema(resolved["schema"])
    assignment = SplitAssignment.load(resolved["assignment"])
    report = export_training_file(corpus, assignment, split, schema, source, out, sep=resolved["sep"])
    _write_manifests(args, resolved, [out], ("corpus", "schema", "assignment"))
    counts = ", ".join(f"{k}={v}" for k, v in report.per_source.items())
    print(
        f"wrote {report.n_records} records from {report.n_samples} samples "
        f"({counts}; missing_paraphrase={report.missing_paraphrase}) -> {out}"
    )
    return 0


def _cmd_augment(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    _require(resolved, "corpus")
    pivots = tuple(p.strip() for p in resolved["pivots"].split(",") if p.strip())
    if resolved["stub"]:
        translator = StubTranslator()
    elif resolved["translate_url"]:
        endpoint = TranslatorEndpoint(resolved["translate_url"], resolved["timeout_ms"], resolved["retries"])
        translator = HttpTranslator(endpoint)
    else:
        raise _UsageError("augment needs --stub or a translation endpoint (--translate-url or MEDSQL_TRANSLATE_URL)")
    corpus = load_corpus(resolved["corpus"])
    result = augment_corpus(corpus, pivots, translator, jobs=resolved["jobs"])
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
    resolved = _resolve(args)
    _require(resolved, "preds", "db")
    preds = load_predictions(resolved["preds"])
    choices = rerank_file(
        preds,
        resolved["db"],
        require_nonempty=resolved["require_nonempty"],
        timeout_ms=resolved["timeout_ms"],
        jobs=resolved["jobs"],
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
    resolved = _resolve(args)
    _require(resolved, "preds", "db", "schema")
    preds = load_predictions(resolved["preds"])
    schema = load_schema(resolved["schema"])
    lookup = build_value_lookup(resolved["db"], schema)
    prefilter = resolved["prefilter"]

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

    results = map_in_order(work, items, resolved["jobs"])

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
    resolved = _resolve(args)
    _require(resolved, "corpus", "assignment", "preds", "db")
    try:
        split = Split(resolved["split"].upper())
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    corpus = load_corpus(resolved["corpus"])
    assignment = SplitAssignment.load(resolved["assignment"])
    samples = [s for s in corpus if assignment.by_id.get(s.id) is split]
    preds = load_predictions(resolved["preds"])
    report = evaluate(
        samples,
        preds,
        resolved["db"],
        strict=resolved["strict"],
        with_breakdown=resolved["breakdown"],
        timeout_ms=resolved["timeout_ms"],
        jobs=resolved["jobs"],
    )
    out = Path(resolved["out"])
    write_json(out, report.to_dict())
    _write_manifests(args, resolved, [out], ("corpus", "assignment", "preds", "db"))
    print(f"acc_lf={report.acc_lf:.4f} acc_ex={report.acc_ex:.4f} n={report.n} -> {out}")
    return 0


# Every subcommand's help, handler, and options, each option declared once
# as (dest, default, kind, help). The flag is --dest with dashes; kind is
# str, int, or bool (a --x/--no-x switch). Defaults live here, not in
# argparse, so that an unset flag stays None and config values show through.
_COMMANDS: dict[str, tuple[str, Callable[[argparse.Namespace], int], tuple[tuple, ...]]] = {
    "ingest": ("validate and normalize a corpus into canonical form", _cmd_ingest, (
        ("corpus", None, str, None),
        ("schema", None, str, None),
        ("out", "corpus.jsonl", str, None),
        ("field_map", None, str, "canonical=source field renames, comma separated"),
        ("normalize_tables", True, bool, None),
    )),
    "stats": ("corpus statistics", _cmd_stats, (
        ("corpus", None, str, None),
        ("schema", None, str, None),
        ("out", "corpus_stats.json", str, None),
    )),
    "split": ("assign TRAIN/DEV/TEST by the designated-table rule", _cmd_split, (
        ("corpus", None, str, None),
        ("schema", None, str, None),
        ("out", "split_assignment.tsv", str, None),
        ("report", "split_report.json", str, None),
        ("test_size", DEFAULT_TEST_SIZE, int, None),
        ("seed", 0, int, None),
        ("designated", ",".join(sorted(DEFAULT_DESIGNATED)), str, "comma separated designated tables"),
    )),
    "linearize": ("export model input/target records for one split", _cmd_linearize, (
        ("corpus", None, str, None),
        ("schema", None, str, None),
        ("assignment", None, str, None),
        ("split", "TRAIN", str, None),
        ("question_source", "template", str, None),
        ("sep", DEFAULT_SEPARATOR, str, None),
        ("out", None, str, None),
    )),
    "augment": ("add back-translated paraphrases", _cmd_augment, (
        ("corpus", None, str, None),
        ("out", "augmented_corpus.jsonl", str, None),
        ("report", "augment_report.json", str, None),
        ("pivots", ",".join(DEFAULT_PIVOTS), str, None),
        ("stub", False, bool, None),
        ("translate_url", None, str, None),  # MEDSQL_TRANSLATE_URL overrides it
        ("timeout_ms", 10_000, int, None),
        ("retries", 2, int, None),
        ("jobs", 1, int, None),
    )),
    "rerank": ("pick the first executable candidate per beam", _cmd_rerank, (
        ("preds", None, str, None),
        ("db", None, str, None),
        ("out", "reranked_predictions.jsonl", str, None),
        ("require_nonempty", False, bool, None),
        ("timeout_ms", DEFAULT_TIMEOUT_MS, int, None),
        ("jobs", 1, int, None),
    )),
    "recover": ("replace condition values with database values", _cmd_recover, (
        ("preds", None, str, None),
        ("db", None, str, None),
        ("schema", None, str, None),
        ("out", "recovered_predictions.jsonl", str, None),
        ("report", "recover_report.json", str, None),
        ("prefilter", True, bool, None),
        ("jobs", 1, int, None),
    )),
    "eval": ("logic-form and execution accuracy for a prediction file", _cmd_eval, (
        ("corpus", None, str, None),
        ("assignment", None, str, None),
        ("split", "TEST", str, None),
        ("preds", None, str, None),
        ("db", None, str, None),
        ("out", "eval_report.json", str, None),
        ("strict", False, bool, None),
        ("breakdown", True, bool, None),
        ("timeout_ms", None, int, None),
        ("jobs", 1, int, None),
    )),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="medsql", description=__doc__)
    parser.add_argument("--version", action="version", version=f"medsql {__version__}")
    subs = parser.add_subparsers(dest="subcommand", parser_class=_Parser)
    for name, (help_text, handler, options) in _COMMANDS.items():
        p = subs.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags and env vars override it")
        for dest, _, kind, option_help in options:
            flag = "--" + dest.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, dest=dest, action=argparse.BooleanOptionalAction, help=option_help)
            else:
                p.add_argument(flag, dest=dest, type=kind, help=option_help)
        p.set_defaults(func=handler)
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

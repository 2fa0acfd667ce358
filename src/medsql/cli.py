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
import threading
from dataclasses import asdict, replace
from pathlib import Path
from enum import Enum
from typing import Any, Callable
from urllib.parse import urlsplit

from . import __version__
from .augment import (
    DEFAULT_PIVOTS,
    TRANSLATE_URL_ENV,
    HttpTranslator,
    StubTranslator,
    augment_corpus,
)
from .errors import DataError, EnvError, RecordError
from .linearize import DEFAULT_SEPARATOR, QuestionSource, export_training_file
from .metrics import evaluate
from .predictions import Candidate, CandidateSet, load_predictions, save_predictions
from .query import ColumnRef, SqlQuery, rename_tables, serialize_sql
from .records import (
    FORMAT_VERSION,
    hash_inputs,
    manifest_path,
    read_json,
    read_jsonl,
    write_json,
    write_jsonl,
    write_manifests,
)
from .recovery import recover_query
from .rerank import rerank_file
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
    DEFAULT_TIMEOUT_MS,
    build_value_lookup,
    corpus_stats,
    exec_connection,
    load_corpus,
    load_schema,
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


# The least value of a numeric option, whichever source gives it.
_MINIMUM = {"jobs": 1, "timeout_ms": 1, "retries": 0, "test_size": 0}
# The largest: a timeout the platform's waits and socket timeouts can take.
_MAXIMUM = {"timeout_ms": int(threading.TIMEOUT_MAX) * 1000}


def _resolve(args: argparse.Namespace) -> dict[str, Any]:
    """Merge defaults, config file, flags, and env vars, in that order.

    A config value must have its option's JSON type; null is accepted only
    where the default is null."""
    config = read_json(args.config, "config file", dict) if args.config else {}
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
        least = _MINIMUM.get(dest)
        if least is not None and value is not None and value < least:
            raise DataError(f"--{dest.replace('_', '-')} must be at least {least}, not {value}")
        most = _MAXIMUM.get(dest)
        if most is not None and value is not None and value > most:
            raise DataError(f"--{dest.replace('_', '-')} must be at most {most}, not {value}")
        if dest == "sep" and not value.strip():
            raise DataError(f"--sep must hold a character other than whitespace, not {value!r}")
        if dest == "pivots":
            _pivots(value)
        if dest == "designated":
            _designated(value)
        if dest == "split":
            _choice(dest, value)
        if dest == "field_map":
            _parse_field_map(value)
        resolved[dest] = value
    return resolved


def _pivots(text: str) -> tuple[str, ...]:
    """The pivots ``--pivots`` names: at least one, each once, or a data error."""
    pivots = tuple(p.strip() for p in text.split(",") if p.strip())
    if not pivots or len(set(pivots)) < len(pivots):
        raise DataError(f"--pivots must name at least one pivot, each once, not {text!r}")
    return pivots


def _designated(text: str) -> frozenset[str]:
    """The tables ``--designated`` names, uppercase: at least one, or a data error."""
    tables = frozenset(t.strip().upper() for t in text.split(",") if t.strip())
    if not tables:
        raise DataError(f"--designated must name at least one table, not {text!r}")
    return tables


# ingest: normalize an external or canonical corpus into the canonical
# corpus format, validating ids, questions, and SQL.

_CANONICAL_FIELDS = ("id", "question_template", "question_paraphrase", "sql")


def _read_raw_records(path: str) -> list[tuple[int, Any]]:
    """(number, record) pairs of a JSON array, numbered by position, when the
    first byte after a BOM and whitespace is ``[``; of JSON Lines, numbered
    by line, otherwise."""
    data = Path(path).read_bytes()
    if data.removeprefix(codecs.BOM_UTF8).lstrip().startswith(b"["):
        return list(enumerate(read_json(data, "corpus file", list), start=1))
    return list(read_jsonl(data))


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
        if canonical in mapping:
            raise _UsageError(f"--field-map must name each canonical field once, not {canonical!r} twice")
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


def _table_renames(number: int, query: SqlQuery, schema_tables: set[str]) -> dict[str, str]:
    """Map each mentioned table name that differs from exactly one schema
    name only by a trailing S/ES to that schema name. A rename that would
    make two FROM/JOIN tables one is an error of record ``number``."""
    mentioned = {query.main_table} | {j.table for j in query.joins}
    mentioned |= {c.column.table for c in query.conditions}
    mentioned |= {it.column.table for it in query.select_items if isinstance(it.column, ColumnRef)}
    rename: dict[str, str] = {}
    for name in mentioned - schema_tables - {None}:
        matches = sorted(_name_variants(name) & schema_tables)
        if len(matches) == 1:
            rename[name] = matches[0]
    seen: dict[str, str] = {}
    for table in (query.main_table, *(j.table for j in query.joins)):
        target = rename.get(table, table)
        if target in seen:
            raise RecordError(number, f"tables {seen[target]} and {table} would both be normalized to {target}")
        seen[target] = table
    return rename


def _mapped_records(numbered: list[tuple[int, Any]], field_map: dict[str, str]):
    """The (number, record) pairs with source fields renamed to canonical
    ones and missing ids defaulted to the record's ordinal."""
    for ordinal, (number, rec) in enumerate(numbered, start=1):
        if isinstance(rec, dict):
            mapped = dict(rec)
            for canonical, source in field_map.items():
                if source in rec:
                    mapped[canonical] = rec[source]
                    if source != canonical:
                        mapped.pop(source, None)
            mapped.setdefault("id", str(ordinal))
            rec = mapped
        yield number, rec


# Each handler does one stage's work on the resolved options and returns
# (output files, summary line); cmd() does the rest.

def _cmd_ingest(resolved: dict[str, Any]) -> tuple[list[Path], str]:
    schema = load_schema(resolved["schema"])
    schema_tables = {t.name.upper() for t in schema.tables}
    field_map = _parse_field_map(resolved["field_map"])
    numbered = list(_mapped_records(_read_raw_records(resolved["corpus"]), field_map))
    samples = validate_records(numbered)
    normalized = 0
    if resolved["normalize_tables"]:
        for k, ((number, _), sample) in enumerate(zip(numbered, samples)):
            rename = _table_renames(number, sample.gold_query, schema_tables)
            if rename:
                samples[k] = replace(sample, gold_sql=serialize_sql(rename_tables(sample.gold_query, rename)))
                normalized += 1
    out = save_corpus(samples, resolved["out"])
    return [out], f"ingested {len(samples)} samples ({normalized} with normalized table names) -> {out}"


def _cmd_stats(resolved: dict[str, Any]) -> tuple[list[Path], str]:
    corpus = load_corpus(resolved["corpus"])
    stats = corpus_stats(corpus, load_schema(resolved["schema"]))
    out = write_json(resolved["out"], {"format_version": FORMAT_VERSION, **asdict(stats)})
    return [out], f"{stats.n_samples} samples over {stats.n_tables} tables -> {out}"


def _cmd_split(resolved: dict[str, Any]) -> tuple[list[Path], str]:
    spec = SplitSpec(_designated(resolved["designated"]), resolved["test_size"], resolved["seed"])
    corpus = load_corpus(resolved["corpus"])
    if resolved["schema"]:
        schema = load_schema(resolved["schema"])
        missing = sorted(t for t in spec.designated_tables if schema.table(t) is None)
        if missing:
            raise DataError("designated table(s) not in schema: " + ", ".join(missing))
    assignment = assign_splits(corpus, spec)
    violations = verify_split(corpus, assignment, spec)
    report = split_report(assignment, spec)
    report["violations"] = [
        {"id": v.sample_id, "rule": v.rule, "detail": v.detail} for v in violations
    ]
    report["format_version"] = FORMAT_VERSION

    out = assignment.save(resolved["out"])
    report_path = write_json(resolved["report"], report)
    sizes = report["sizes"]
    diff = report["reference"]["diff"]
    return [out, report_path], (
        f"TRAIN={sizes['TRAIN']} DEV={sizes['DEV']} TEST={sizes['TEST']} "
        f"(reference diff TRAIN{diff['TRAIN']:+d} DEV{diff['DEV']:+d} TEST{diff['TEST']:+d}; "
        f"violations={len(violations)}) -> {out}"
    )


# Options whose value names a member of an enum, and the case its values are in.
_CHOICES: dict[str, tuple[type[Enum], Callable[[str], str]]] = {
    "split": (Split, str.upper),
    "question_source": (QuestionSource, str.lower),
}


def _choice(dest: str, value: str) -> Any:
    """The member that option ``dest`` names by ``value`` in any case; a
    usage error naming the option and quoting ``value`` otherwise."""
    enum, case = _CHOICES[dest]
    try:
        return enum(case(value))
    except ValueError:
        members = ", ".join(member.value for member in enum)
        raise _UsageError(f"--{dest.replace('_', '-')} must be one of {members}, not {value!r}") from None


def _linearize_args(resolved: dict[str, Any]) -> tuple[Split, QuestionSource, Path]:
    """linearize's split, question source and output: ``--out``, or
    ``<split>_<source>.jsonl`` when it is unset."""
    split = _choice("split", resolved["split"])
    source = _choice("question_source", resolved["question_source"])
    return split, source, Path(resolved["out"] or f"{split.value.lower()}_{source.value}.jsonl")


def _cmd_linearize(resolved: dict[str, Any]) -> tuple[list[Path], str]:
    split, source, out = _linearize_args(resolved)
    corpus = load_corpus(resolved["corpus"], parse_gold=lambda sample: False)
    schema = load_schema(resolved["schema"])
    assignment = SplitAssignment.load(resolved["assignment"])
    report = export_training_file(corpus, assignment, split, schema, source, out, sep=resolved["sep"])
    counts = ", ".join(f"{k}={v}" for k, v in report.per_source.items())
    return [out], (
        f"wrote {report.n_records} records from {report.n_samples} samples "
        f"({counts}; missing_paraphrase={report.missing_paraphrase}) -> {out}"
    )


def _translator(resolved: dict[str, Any]) -> StubTranslator | HttpTranslator:
    """augment's translator: the stub with ``--stub``; otherwise the
    endpoint, which must be an http or https URL with a host (a data error),
    and a usage error when there is none."""
    if resolved["stub"]:
        return StubTranslator()
    url = resolved["translate_url"]
    if not url:
        raise _UsageError("augment needs --stub or a translation endpoint (--translate-url or MEDSQL_TRANSLATE_URL)")
    try:
        if urlsplit(url).scheme not in ("http", "https") or not urlsplit(url).hostname:
            raise ValueError
    except ValueError:
        raise DataError(f"--translate-url must be an http or https URL with a host, not {url!r}") from None
    return HttpTranslator(url, resolved["timeout_ms"], resolved["retries"])


def _cmd_augment(resolved: dict[str, Any]) -> tuple[list[Path], str]:
    pivots = _pivots(resolved["pivots"])
    translator = _translator(resolved)
    corpus = load_corpus(resolved["corpus"], parse_gold=lambda sample: False)
    result = augment_corpus(corpus, pivots, translator, jobs=resolved["jobs"])
    out = save_corpus(result.samples, resolved["out"])
    rep = result.report
    report_path = write_json(resolved["report"], {"format_version": FORMAT_VERSION, **asdict(rep)})
    return [out, report_path], (
        f"added {rep.added} synthetic paraphrases "
        f"(degenerate={rep.dropped_degenerate}, errors={len(rep.errors)}) -> {out}"
    )


def _cmd_rerank(resolved: dict[str, Any]) -> tuple[list[Path], str]:
    preds = load_predictions(resolved["preds"])
    choices = rerank_file(
        preds, resolved["db"], require_nonempty=resolved["require_nonempty"], timeout_ms=resolved["timeout_ms"]
    )
    # vars: a record's fields in declaration order, as asdict gives them, without its deep copy.
    out = write_jsonl(resolved["out"], (vars(c) for c in choices.values()))
    failed = sum(1 for c in choices.values() if c.all_failed)
    return [out], f"reranked {len(choices)} beams (all_failed={failed}) -> {out}"


def _cmd_recover(resolved: dict[str, Any]) -> tuple[list[Path], str]:
    preds = load_predictions(resolved["preds"])
    schema = load_schema(resolved["schema"])
    recovered: dict[str, Any] = {}
    results = []
    with exec_connection(resolved["db"]) as session:
        lookup = build_value_lookup(session, schema)
        for sid, pred in preds.items():
            if isinstance(pred, CandidateSet):
                per_pred = [recover_query(c.sql, lookup) for c in pred.candidates]
                cands = tuple(Candidate(res.sql, c.score) for res, c in zip(per_pred, pred.candidates))
                recovered[sid] = CandidateSet(sid, cands)
            else:
                per_pred = [recover_query(pred, lookup)]
                recovered[sid] = per_pred[0].sql
            results += per_pred
    totals = {
        "replaced": sum(len(res.replacements) for res in results),
        "unresolved": sum(len(res.unresolved) for res in results),
        "unparsed": sum(not res.parsed for res in results),
    }
    out = save_predictions(recovered, resolved["out"])
    report_path = write_json(resolved["report"], {"format_version": FORMAT_VERSION, **totals})
    return [out, report_path], (
        f"recovered {len(recovered)} predictions "
        f"(replaced={totals['replaced']}, unresolved={totals['unresolved']}, "
        f"unparsed={totals['unparsed']}) -> {out}"
    )


def _cmd_eval(resolved: dict[str, Any]) -> tuple[list[Path], str]:
    split = _choice("split", resolved["split"])
    # The assignment is read first, so that only the scored split's gold queries are parsed.
    assignment = SplitAssignment.load(resolved["assignment"])
    corpus = load_corpus(resolved["corpus"], parse_gold=lambda sample: assignment.by_id.get(sample.id) is split)
    samples = assignment.members(corpus, split)
    preds = load_predictions(resolved["preds"])
    report = evaluate(
        samples, preds, resolved["db"],
        strict=resolved["strict"], with_breakdown=resolved["breakdown"], timeout_ms=resolved["timeout_ms"],
    )
    out = write_json(resolved["out"], report.to_dict())
    return [out], f"acc_lf={report.acc_lf:.4f} acc_ex={report.acc_ex:.4f} n={report.n} -> {out}"


# Options that name input files. Each one a subcommand declares is required,
# in declaration order, unless listed here as optional; each one set is
# recorded with its digest in every manifest of the run.
_INPUTS = ("corpus", "schema", "assignment", "preds", "db")
_OPTIONAL_INPUTS = {"split": ("schema",)}

# Every subcommand's help, handler, and options, each option declared once
# as (dest, default, kind, help). The flag is --dest with dashes; kind is
# str, int, or bool (a --x/--no-x switch). Defaults live here, not in
# argparse, so that an unset flag stays None and config values show through.
_COMMANDS: dict[str, tuple[str, Callable[[dict[str, Any]], tuple[list[Path], str]], tuple[tuple, ...]]] = {
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
    )),
    "recover": ("replace condition values with database values", _cmd_recover, (
        ("preds", None, str, None),
        ("db", None, str, None),
        ("schema", None, str, None),
        ("out", "recovered_predictions.jsonl", str, None),
        ("report", "recover_report.json", str, None),
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
        ("timeout_ms", DEFAULT_TIMEOUT_MS, int, None),
    )),
}


def build_parser(only: str | None = None) -> _Parser:
    """The ``medsql`` parser with every subcommand, or with only the one
    named ``only``, so that a run adds no options it cannot use. The usage
    line names all eight subcommands either way."""
    parser = _Parser(prog="medsql", description=__doc__)
    parser.add_argument("--version", action="version", version=f"medsql {__version__}")
    # The usage line lists the choices, so a parser holding one subcommand
    # lists all eight as its metavar. The full parser has none: a metavar
    # would also rename "argument subcommand" in its "invalid choice" error.
    metavar = "{" + ",".join(_COMMANDS) + "}" if only else None
    subs = parser.add_subparsers(dest="subcommand", parser_class=_Parser, metavar=metavar)
    for name in [only] if only else _COMMANDS:
        help_text, _, options = _COMMANDS[name]
        p = subs.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags and env vars override it")
        for dest, _, kind, option_help in options:
            flag = "--" + dest.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, dest=dest, action=argparse.BooleanOptionalAction, help=option_help)
            else:
                p.add_argument(flag, dest=dest, type=kind, help=option_help)
    return parser


def _check_outputs(name: str, resolved: dict[str, Any]) -> None:
    """A usage error if an output (``--out``, linearize's default one
    included, or ``--report``) is the empty string; an environment error
    unless the directory of each exists and neither an output nor its
    manifest is a directory, so that no output is written before another
    fails; a usage error unless the outputs and the manifest beside each are
    all different files, so that none replaces another."""
    named: dict[Path, str] = {}
    for dest in ("out", "report"):
        value = _linearize_args(resolved)[2] if (name, dest) == ("linearize", "out") else resolved.get(dest)
        if value == "":
            raise _UsageError(f"--{dest} must name a file, not ''")
        if value:
            out = Path(value)
            if not out.parent.is_dir():
                raise EnvError(f"--{dest} {out}: {out.parent} is not an existing directory")
            for path, role in ((out, f"--{dest}"), (manifest_path(out), f"the manifest of --{dest}")):
                if path.is_dir():
                    raise EnvError(f"--{dest} {out}: {path} is a directory")
                target = path.resolve()
                if target in named:
                    raise _UsageError(f"{named[target]} and {role} name the same file {target}")
                named[target] = role


def cmd(argv: list[str]) -> int:
    """Run one subcommand and return the process exit code: resolve and
    check its options, require its input files and distinct output files in
    existing directories, hash every input once, so that a read error exits
    3 with nothing written (:func:`medsql.records.hash_inputs`), run its
    stage, write one manifest per output after all outputs, and print its
    summary line."""
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    name = getattr(args, "subcommand", None)
    if not name:
        parser.print_usage(sys.stderr)
        return 1
    _, handler, options = _COMMANDS[name]
    inputs = [dest for dest, *_ in options if dest in _INPUTS]
    try:
        resolved = _resolve(args)
        optional = _OPTIONAL_INPUTS.get(name, ())
        missing = [dest for dest in inputs if resolved[dest] in (None, "") and dest not in optional]
        if missing:
            raise _UsageError("missing required option(s): " + ", ".join(f"--{dest}" for dest in missing))
        _check_outputs(name, resolved)
        if name == "augment":
            _translator(resolved)
        # Hashed before the stage runs: an output may replace its input.
        digests = hash_inputs({dest: resolved[dest] for dest in inputs if resolved[dest]})
        outputs, summary = handler(resolved)
        write_manifests(outputs, command=name, tool_version=__version__, config=resolved,
                        seed=resolved.get("seed"), inputs=digests)
        print(summary)
        return 0
    except _UsageError as exc:
        print(f"medsql {name}: error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"medsql {name}: data error: {exc}", file=sys.stderr)
        return 2
    except (EnvError, OSError) as exc:
        print(f"medsql {name}: environment error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cmd(sys.argv[1:]))


if __name__ == "__main__":
    main()

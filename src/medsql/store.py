"""Corpus, schema, and execution-database storage.

File formats: the corpus is UTF-8 JSON Lines with one sample per line
(fields ``id``, ``question_template``, ``question_paraphrase``,
``synthetic``, ``sql`` and a sample's own ``schema``; unknown fields
survive a load/save round trip),
the schema is a JSON document mirroring :class:`SchemaDef`, table data is
RFC 4180 CSV with a header row, and the execution database is a single
SQLite file.
"""

from __future__ import annotations

import csv
import os
import sqlite3
import tempfile
import time
from contextlib import closing, contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence
from urllib.parse import quote

from .errors import (
    ColumnTypeError,
    CsvError,
    DataError,
    DbError,
    EmptyCorpus,
    QueryExecutionError,
    RecordError,
    UnknownColumn,
)
from .query import SqlQuery, _builder, _parse_and_count
from .records import read_json, read_jsonl, record_id, write_json, write_jsonl

ATTR_TEXT = "text"
ATTR_NUMBER = "number"
ATTR_DATETIME = "datetime"
ATTRS = frozenset({ATTR_TEXT, ATTR_NUMBER, ATTR_DATETIME})

_SQLITE_TYPES = {ATTR_TEXT: "TEXT", ATTR_NUMBER: "NUMERIC", ATTR_DATETIME: "TEXT"}


@dataclass(frozen=True)
class ColumnDef:
    name: str
    attr: str

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise DataError(f"column name must be a string, not {type(self.name).__name__}")
        if not isinstance(self.attr, str) or self.attr not in ATTRS:
            raise DataError(f"column {self.name}: unknown attribute {self.attr!r}")


@dataclass(frozen=True)
class TableDef:
    name: str
    columns: tuple[ColumnDef, ...]

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise DataError(f"table name must be a string, not {type(self.name).__name__}")
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "_by_name", {c.name.upper(): c for c in self.columns})
        if len(self._by_name) != len(self.columns):
            raise DataError(f"table {self.name}: duplicate column names")

    def column(self, name: str) -> ColumnDef | None:
        return self._by_name.get(name.upper())


@dataclass(frozen=True)
class SchemaDef:
    tables: tuple[TableDef, ...]

    def __post_init__(self):
        object.__setattr__(self, "tables", tuple(self.tables))
        object.__setattr__(self, "_by_name", {t.name.upper(): t for t in self.tables})
        if len(self._by_name) != len(self.tables):
            raise DataError("duplicate table names in schema")

    def table(self, name: str) -> TableDef | None:
        return self._by_name.get(name.upper())

    def to_dict(self) -> dict[str, Any]:
        return {
            "tables": [
                {"name": t.name, "columns": [{"name": c.name, "attr": c.attr} for c in t.columns]}
                for t in self.tables
            ]
        }

    @classmethod
    def from_dict(cls, obj: Any) -> "SchemaDef":
        """The schema a JSON document describes; a :class:`DataError` in its terms otherwise."""
        if not isinstance(obj, dict):
            raise DataError("a schema must be a JSON object")
        return cls(tuple(
            TableDef(_key(t, "name"), tuple(ColumnDef(_key(c, "name"), _key(c, "attr")) for c in _objects(t, "columns")))
            for t in _objects(obj, "tables")
        ))


def _key(obj: Mapping[str, Any], key: str) -> Any:
    if key not in obj:
        raise DataError(f"missing key {key!r}")
    return obj[key]


def _objects(obj: Mapping[str, Any], key: str) -> list[dict[str, Any]]:
    items = _key(obj, key)
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise DataError(f"{key!r} must be a list of objects")
    return items


def load_schema(path: str | Path) -> SchemaDef:
    """The schema in a JSON file; every :class:`DataError` names the file."""
    try:
        return SchemaDef.from_dict(read_json(path, "the document", dict))
    except DataError as exc:
        raise DataError(f"schema file {path}: {exc}") from exc


def save_schema(schema: SchemaDef, path: str | Path) -> Path:
    return write_json(path, schema.to_dict())


@dataclass(frozen=True)
class Paraphrase:
    text: str
    pivot: str


_SAMPLE_KEYS = frozenset(("id", "question_template", "question_paraphrase", "synthetic", "sql", "schema"))


@dataclass(frozen=True)
class Sample:
    """One corpus record. :func:`validate_records` builds its samples
    without this constructor and stores each gold parse it makes where the
    first read of :attr:`gold_query` would keep it, so a loaded sample
    cannot be told from a constructed one whose gold query has been read."""

    id: str
    template_question: str
    gold_sql: str
    paraphrase_question: str | None = None
    synthetic_paraphrases: tuple[Paraphrase, ...] = ()
    schema: SchemaDef | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "synthetic_paraphrases", tuple(self.synthetic_paraphrases))

    @cached_property
    def _gold(self) -> tuple[SqlQuery, int]:
        # The tokens are not kept: most commands never read them again.
        return _parse_and_count(self.gold_sql)

    @property
    def gold_query(self) -> SqlQuery:
        """The parsed gold SQL: parsed on first use, then kept, unless
        :func:`validate_records` kept its parse already. A parse error is
        raised again on every access. :func:`validate_records`
        parses it only where its ``parse_gold`` says so, so a sample that
        ``linearize`` or ``augment`` loads, or one outside the split that
        ``eval`` scores, may hold SQL outside the dialect."""
        return self._gold[0]

    @property
    def gold_token_count(self) -> int:
        """``len(tokenize_sql(self.gold_sql))``, counted as :attr:`gold_query`
        is parsed. Raises the parse error of SQL outside the dialect."""
        return self._gold[1]

    def to_record(self) -> dict[str, Any]:
        rec: dict[str, Any] = {"id": self.id, "question_template": self.template_question}
        if self.paraphrase_question is not None:
            rec["question_paraphrase"] = self.paraphrase_question
        if self.synthetic_paraphrases:
            rec["synthetic"] = [{"text": p.text, "pivot": p.pivot} for p in self.synthetic_paraphrases]
        rec["sql"] = self.gold_sql
        if self.schema is not None:
            rec["schema"] = self.schema.to_dict()
        rec.update(self.extra)
        return rec


_build_paraphrase = _builder(Paraphrase)
_build_sample = _builder(Sample)


_SYNTHETIC_ERROR = "synthetic must be a list of objects with string text and pivot"


def validate_records(
    numbered: Iterable[tuple[int, Any]], *, parse_gold: Callable[[Sample], bool] = lambda sample: True
) -> list[Sample]:
    """Validate (number, record) pairs into samples.

    Every record must be a JSON object with a unique id, a non-empty
    string ``question_template``, a string or null
    ``question_paraphrase``, a list of ``{text, pivot}`` string objects as
    ``synthetic``, and a string ``sql``; violations raise
    :class:`RecordError` carrying the record's number. A record is checked
    in one pass, in that order, and its sample built without the
    constructor: see :class:`Sample`.

    The ``sql`` of each sample for which ``parse_gold`` is true must also
    parse under the dialect, checked in record order with the rest; its
    parse stays on the sample as :attr:`Sample.gold_query`. Each distinct
    ``sql`` text is parsed once per call, and samples that repeat it share
    its parse; nothing is kept between calls. The default parses every
    sample's, as ``ingest``, ``stats`` and ``split`` do; ``eval`` parses the
    samples of the split it scores, and ``linearize`` and ``augment`` parse
    none.
    """
    samples: list[Sample] = []
    seen: set[str] = set()
    parses: dict[str, tuple[SqlQuery, int]] = {}  # gold text -> its parse, for this call alone
    for number, rec in numbered:
        try:
            if not isinstance(rec, dict):
                raise DataError("record is not a JSON object")
            synthetic = rec.get("synthetic", [])
            if not isinstance(synthetic, list):
                raise DataError(_SYNTHETIC_ERROR)
            paraphrases = []
            for p in synthetic:
                if not isinstance(p, dict):
                    raise DataError(_SYNTHETIC_ERROR)
                text = p.get("text")
                pivot = p.get("pivot")
                if not isinstance(text, str) or not isinstance(pivot, str):
                    raise DataError(_SYNTHETIC_ERROR)
                paraphrases.append(_build_paraphrase(text, pivot))
            if "id" not in rec or "question_template" not in rec or "sql" not in rec:
                missing = [k for k in ("id", "question_template", "sql") if k not in rec]
                raise DataError("missing field(s): " + ", ".join(missing))
            sample_id = record_id(rec["id"])
            schema = rec.get("schema")
            if schema is not None:
                schema = SchemaDef.from_dict(schema)
            question = rec["question_template"]
            if not question or not str(question).strip():
                raise DataError("question_template is empty")
            if not isinstance(question, str):
                raise DataError(f"question_template must be a string, not {type(question).__name__}")
            paraphrase = rec.get("question_paraphrase")
            if paraphrase is not None and not isinstance(paraphrase, str):
                raise DataError(f"question_paraphrase must be a string or null, not {type(paraphrase).__name__}")
            sql = rec["sql"]
            if not isinstance(sql, str):
                raise DataError(f"sql must be a string, not {type(sql).__name__}")
            extra = {} if rec.keys() <= _SAMPLE_KEYS else {k: v for k, v in rec.items() if k not in _SAMPLE_KEYS}
            sample = _build_sample(sample_id, question, sql, paraphrase, tuple(paraphrases), schema, extra)
            if parse_gold(sample):
                # SQL outside the dialect is a record error.
                gold = parses.get(sql)
                if gold is None:
                    gold = parses[sql] = _parse_and_count(sql)
                sample.__dict__["_gold"] = gold  # where Sample._gold keeps its value
        except DataError as exc:
            raise RecordError(number, str(exc)) from exc
        if sample_id in seen:
            raise RecordError(number, f"duplicate id {sample_id!r}")
        seen.add(sample_id)
        samples.append(sample)
    return samples


def load_corpus(path: str | Path, *, parse_gold: Callable[[Sample], bool] = lambda sample: True) -> list[Sample]:
    """Load and validate a corpus file; errors carry the line number.
    ``parse_gold`` picks the samples whose gold SQL is parsed, as in
    :func:`validate_records`: every one by default, each distinct text
    once per call."""
    return validate_records(read_jsonl(path), parse_gold=parse_gold)


def save_corpus(samples: list[Sample], path: str | Path) -> Path:
    return write_jsonl(path, (s.to_record() for s in samples))


def _quote(name: str) -> str:
    """``name`` as an SQL identifier: in double quotes, with an embedded
    double quote doubled."""
    return '"' + name.replace('"', '""') + '"'


def build_exec_db(schema: SchemaDef, table_files: Mapping[str, str | Path], out_path: str | Path) -> Path:
    """Build a SQLite database from per-table CSV files.

    Every schema table needs an entry in ``table_files``. Number columns
    must parse as int or float (empty cells become NULL); offending cells
    raise :class:`ColumnTypeError` with their row and column.

    Every column gets an index, so that conditions and ``SELECT DISTINCT``
    search it instead of scanning the table. They are created after the
    inserts, table by table and column by column in schema order, and the
    index of ``T.C`` is named ``ix_<len(T)>_T_C``: the length prefix keeps
    the names of different columns apart. Names SQLite cannot take are a
    :class:`DataError` raised before anything is written: a table name
    that begins with ``sqlite_`` in any case (reserved by SQLite), a table
    or column name that holds a NUL character, and an index name that is
    also a table name, compared case-insensitively. Two builds of the same
    inputs give the same bytes.

    The database is built in a temporary directory beside ``out_path`` and
    renamed onto it once committed, so a failed build leaves ``out_path``
    as it was.
    """
    out_path = Path(out_path)
    for table in schema.tables:
        if table.name not in table_files:
            raise DataError(f"no CSV provided for table {table.name}")
        if table.name[:7].isascii() and table.name[:7].lower() == "sqlite_":
            raise DataError(f"table {table.name}: SQLite reserves names that begin with sqlite_")
        if "\0" in table.name:
            raise DataError(f"table {table.name!r}: a name cannot hold a NUL character")
        for column in table.columns:
            if "\0" in column.name:
                raise DataError(f"column {column.name!r} of table {table.name!r}: a name cannot hold a NUL character")
    indexes = [(f"ix_{len(t.name)}_{t.name}_{c.name}", t.name, c.name) for t in schema.tables for c in t.columns]
    for index, table, column in indexes:
        clash = schema.table(index)
        if clash is not None:
            raise DataError(f"index {index} of column {table}.{column} has the name of table {clash.name}")
    with tempfile.TemporaryDirectory(dir=out_path.parent, prefix=f".{out_path.name}.") as tmp:
        building = Path(tmp) / out_path.name
        with closing(sqlite3.connect(building)) as conn:
            for table in schema.tables:
                decls = ", ".join(f"{_quote(c.name)} {_SQLITE_TYPES[c.attr]}" for c in table.columns)
                conn.execute(f"CREATE TABLE {_quote(table.name)} ({decls})")
                rows = _read_table_csv(table, table_files[table.name])
                placeholders = ", ".join("?" for _ in table.columns)
                conn.executemany(f"INSERT INTO {_quote(table.name)} VALUES ({placeholders})", rows)
            for index, table, column in indexes:
                conn.execute(f"CREATE INDEX {_quote(index)} ON {_quote(table)} ({_quote(column)})")
            conn.commit()
        os.replace(building, out_path)
    return out_path


# Rows per batch of the CSV reader: enough to convert cells a column at a
# time, few enough that a batch adds nothing to the build's peak memory.
_BATCH_ROWS = 512


def _read_table_csv(table: TableDef, path: str | Path) -> Iterator[tuple]:
    """The rows of a table's CSV file, converted by column attribute, read
    a batch at a time as the caller consumes them.

    A batch is converted column by column; a batch that holds a fault goes
    through :func:`_convert_rows`, which raises its error."""
    expected = [c.name for c in table.columns]
    numeric = [c.attr == ATTR_NUMBER for c in table.columns]
    if not Path(path).is_file():
        raise DataError(f"CSV for table {table.name} not found: {path}")
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvError(1, f"{path}: missing header row") from None
        if [h.upper() for h in header] != [c.upper() for c in expected]:
            raise CsvError(1, f"{path}: header {header!r} does not match columns {expected!r}")
        rownum = 2
        # A batch of blank lines converts to no rows; only the end of the file ends the loop.
        while batch := list(islice(reader, _BATCH_ROWS)):
            rows = _convert_batch(batch, numeric)
            yield from _convert_rows(path, expected, numeric, rownum, batch) if rows is None else rows
            rownum += len(batch)


def _convert_batch(batch: list[list[str]], numeric: list[bool]) -> Iterator[tuple] | None:
    """The rows of ``batch``, blank lines skipped, each column converted as
    a whole; None when a row has the wrong number of fields or a number
    cell does not parse."""
    rows = [cells for cells in batch if cells]
    if any(len(cells) != len(numeric) for cells in rows):
        return None
    try:
        # CSV cannot distinguish "missing" from "empty"; treat both as NULL.
        columns = [
            [None if cell == "" else _number(cell) for cell in column] if number else [cell or None for cell in column]
            for number, column in zip(numeric, zip(*rows))
        ]
    except ValueError:
        return None
    return zip(*columns)


def _convert_rows(
    path: str | Path, expected: list[str], numeric: list[bool], start: int, batch: list[list[str]]
) -> Iterator[tuple]:
    """The rows of ``batch``, whose first row has number ``start``, converted
    one at a time: the one place that raises a row's :class:`CsvError`."""
    for rownum, cells in enumerate(batch, start=start):
        if not cells:
            continue
        if len(cells) != len(expected):
            raise CsvError(rownum, f"{path}: expected {len(expected)} fields, got {len(cells)}")
        yield tuple(
            None if cell == "" else _number_cell(rownum, name, cell) if number else cell
            for number, name, cell in zip(numeric, expected, cells)
        )


def _number(cell: str) -> int | float:
    try:
        return int(cell)
    except ValueError:
        return float(cell)


def _number_cell(rownum: int, column: str, cell: str) -> int | float:
    try:
        return _number(cell)
    except ValueError:
        raise ColumnTypeError(rownum, f"{cell!r} is not a number", column=column) from None


_ALLOWED_ACTIONS = frozenset({sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ})

# The functions whose result the database and the SQL do not fix: every
# built-in scalar that SQLite does not flag deterministic (flag 0x800 in
# pragma_function_list), and the date and time functions, which read the
# clock for 'now': their arguments cannot be seen when a statement is
# authorized.
_DENIED_FUNCTIONS = frozenset({
    "random", "randomblob", "changes", "total_changes", "last_insert_rowid", "current_date", "current_time",
    "current_timestamp", "sqlite_version", "sqlite_source_id", "sqlite_compileoption_get",
    "sqlite_compileoption_used", "load_extension",
    # FTS3, FTS5 and R*Tree
    "bm25", "fts3_tokenizer", "fts5", "fts5_source_id", "highlight", "match", "matchinfo", "offsets",
    "optimize", "rtreecheck", "rtreedepth", "rtreenode", "snippet",
    # date and time
    "date", "time", "datetime", "julianday", "strftime", "unixepoch", "timediff",
})


def _authorize(action: int, _arg1: Any, name: Any, *_: Any) -> int:
    """The authorizer of every execution connection: a statement may select,
    read columns and call any function but those of ``_DENIED_FUNCTIONS``,
    which SQLite names in lower case, so that its result depends only on the
    database and the SQL. ATTACH, PRAGMA (and the pragma_* table functions),
    recursive CTEs and every write are denied when the statement is prepared."""
    if action == sqlite3.SQLITE_FUNCTION:
        return sqlite3.SQLITE_DENY if name in _DENIED_FUNCTIONS else sqlite3.SQLITE_OK
    return sqlite3.SQLITE_OK if action in _ALLOWED_ACTIONS else sqlite3.SQLITE_DENY


# The longest string or blob a statement on an execution connection may
# build, in bytes: far above any stored value, far below the host's memory.
_MAX_VALUE_BYTES = 10_000_000


def _guard(conn: sqlite3.Connection) -> None:
    """Install the authorizer and the value bound on an execution
    connection. A longer value fails its statement with "string or blob too
    big". Python 3.10 cannot set an SQLite limit, so there values are not
    bounded."""
    conn.set_authorizer(_authorize)
    if hasattr(conn, "setlimit"):
        conn.setlimit(sqlite3.SQLITE_LIMIT_LENGTH, _MAX_VALUE_BYTES)


def open_exec_db(path: str | Path) -> sqlite3.Connection:
    """Open the execution database read-only, with the authorizer and the
    value bound of :func:`_guard`, so that executing untrusted predicted SQL
    can neither mutate it, reach anything else, nor build a value that
    takes the host's memory. Only the thread that opened it may use it. A file that
    is missing or is not an SQLite database fails here."""
    path = Path(path)
    conn = None
    try:
        # Every character but a letter, digit or "_.-~" percent-encoded, slashes too: SQLite
        # reads "?" and "#" as the URI's query and fragment, and a leading "//" as its authority.
        conn = sqlite3.connect(f"file:{quote(str(path), safe='')}?mode=ro", uri=True)
        _guard(conn)
        # Reads the schema: "SELECT 1" reads no page, so it passes on any file.
        conn.execute("SELECT 1 FROM sqlite_master LIMIT 1").fetchall()
        return conn
    except sqlite3.Error as exc:
        if conn is not None:
            conn.close()
        raise DbError(f"cannot open database {path}: {exc}") from exc


@contextmanager
def exec_connection(
    db: str | Path | sqlite3.Connection | Execution, timeout_ms: int | None = None
) -> Iterator[Execution]:
    """The :class:`Execution` session of ``db``, each statement bounded by
    ``timeout_ms``: how every function that takes ``db`` treats it. A
    session is used as it is, with its own bound. A connection is borrowed:
    it gets the authorizer and the value bound of :func:`open_exec_db`,
    keeps them and stays open, but loses any progress handler its caller
    set, which :func:`run_select` replaces and Python cannot read back to
    restore. Any other ``db`` is opened read-only and closed on exit."""
    if isinstance(db, (Execution, sqlite3.Connection)):
        yield _borrow(db, timeout_ms)
        return
    with closing(open_exec_db(db)) as conn:
        yield Execution(conn, timeout_ms)


def _borrow(db: sqlite3.Connection | Execution, timeout_ms: int | None = None) -> Execution:
    if isinstance(db, Execution):
        return db
    _guard(db)
    return Execution(db, timeout_ms)


# The per-query bound of every command that executes predicted SQL.
DEFAULT_TIMEOUT_MS = 5000


def run_select(
    conn: sqlite3.Connection,
    sql: str,
    timeout_ms: int | None = None,
    params: Sequence[Any] = (),
    *,
    keep: int | None = None,
    memo: dict[tuple[str, int], int | str] | None = None,
) -> list[tuple]:
    """Execute one query, with ``params`` bound to its ``?`` placeholders,
    and return its rows: the one place where a statement runs on an
    execution connection.

    With ``keep`` None every row is returned. Otherwise at most the first
    ``keep`` rows are, and the rest are stepped through one at a time and
    dropped: the statement still runs to its end, so an error in a later
    row and the timeout fail it as they would with every row fetched, and
    at most two rows past the kept ones are held at once.

    ``memo`` is a session's record of the texts it has run, keyed by
    ``(sql, keep)``: it needs a ``keep`` and takes no ``params``. It holds
    the number of rows kept or the error message, never a value. A text
    found there does not run again: it returns that many empty rows, or its
    failure is raised again with the same message.

    Every way the statement can fail raises :class:`QueryExecutionError`:
    an SQLite error (a denied action included), the ``sqlite3.Warning``
    that some Python versions raise for two statements, text that SQLite
    cannot take, an elapsed per-query timeout, which a progress handler
    enforces so that runaway queries are interrupted, and running out of
    memory, in SQLite or while the rows are fetched.
    """
    if memo is None:
        return _execute(conn, sql, timeout_ms, params, keep)
    if keep is None or params:
        raise ValueError("a memo needs a keep bound and takes no params")
    kept = memo.get((sql, keep))
    if isinstance(kept, str):
        raise QueryExecutionError(kept)
    if kept is not None:
        return [()] * kept
    try:
        rows = _execute(conn, sql, timeout_ms, params, keep)
    except QueryExecutionError as exc:
        memo[sql, keep] = str(exc)
        raise
    memo[sql, keep] = len(rows)
    return rows


def _execute(
    conn: sqlite3.Connection, sql: str, timeout_ms: int | None, params: Sequence[Any], keep: int | None
) -> list[tuple]:
    if timeout_ms is not None:
        deadline = time.monotonic() + timeout_ms / 1000.0
        conn.set_progress_handler(lambda: 1 if time.monotonic() > deadline else 0, 2000)
    try:
        cursor = conn.execute(sql, params)
        if keep is None:
            return cursor.fetchall()
        rows = cursor.fetchmany(keep) if keep > 0 else []
        for _ in cursor:
            pass
        return rows
    except (sqlite3.Error, sqlite3.Warning, UnicodeEncodeError) as exc:
        raise QueryExecutionError(str(exc)) from exc
    except MemoryError as exc:
        raise QueryExecutionError("out of memory") from exc
    finally:
        if timeout_ms is not None:
            conn.set_progress_handler(None, 0)


@dataclass(frozen=True)
class Execution:
    """One execution session: a guarded connection, the per-query bound of
    every statement run on it, and the outcomes of the texts that
    :meth:`outcome` has run. :func:`exec_connection` makes it: one per
    opened database, and a fresh one each time it borrows a connection, so
    no outcome outlives the call that borrowed it: another writer may change
    the file between calls."""

    conn: sqlite3.Connection
    timeout_ms: int | None = None
    # A row count (0 or 1) or an error message per text, never a value.
    _outcomes: dict[tuple[str, int], int | str] = field(default_factory=dict, init=False, repr=False, compare=False)

    def rows(self, sql: str, params: Sequence[Any] = (), keep: int | None = None) -> list[tuple] | None:
        """The rows of ``sql``, at most ``keep`` of them unless ``keep`` is
        None, or None where :func:`run_select` raises."""
        try:
            return run_select(self.conn, sql, self.timeout_ms, params, keep=keep)
        except QueryExecutionError:
            return None

    def outcome(self, sql: str) -> bool | None:
        """None when ``sql`` fails, else whether it returns a row. Each text
        runs once in the session: a repeat is answered from its first run, a
        failure (a timeout included) too. While the text runs, a few of its
        rows are held at most (see :func:`run_select`); the session keeps
        none."""
        try:
            return bool(run_select(self.conn, sql, self.timeout_ms, keep=1, memo=self._outcomes))
        except QueryExecutionError:
            return None


def canonical_value(value: Any) -> str:
    """Render a database cell as its canonical string form."""
    if isinstance(value, float):
        return str(int(value)) if value.is_integer() else repr(value)
    return str(value)


class ColumnValues(tuple):
    """One column's distinct values in canonical (sorted) order, indexed
    for value recovery.

    A tuple of the values. ``members`` answers exact hits, ``memo`` keeps
    the recovered answer for each predicted string already seen, and
    :attr:`folded` holds each value case-folded, with its words, once a
    miss first needs it.
    """

    def __init__(self, values: Iterable[str]):
        self.members = frozenset(self)
        self.memo: dict[str, tuple[str, float]] = {}

    def __contains__(self, value: object) -> bool:
        return value in self.members

    @cached_property
    def folded(self) -> tuple[tuple[str, list[str]], ...]:
        """(case-folded value, its whitespace words) per value, in order."""
        return tuple((f, f.split()) for f in (v.casefold() for v in self))


class ValueLookup:
    """The columns of a schema, each read as its :class:`LookupColumn` asks,
    on ``conn`` borrowed as :func:`exec_connection` says; the lookup must
    not outlive it."""

    def __init__(self, conn: sqlite3.Connection | Execution, schema: SchemaDef):
        self._exec = _borrow(conn)
        self._schema = schema
        self._columns: dict[tuple[str, str], LookupColumn] = {}

    def column(self, table: str | None, column: str) -> LookupColumn:
        """The kept :class:`LookupColumn` of ``table.column``, names matched
        case-insensitively; with ``table`` None, of the one schema table that
        has ``column``. :class:`UnknownColumn` when there is no such one."""
        if table is None:
            tables = [t for t in self._schema.tables if t.column(column)]
            tab = tables[0] if len(tables) == 1 else None
        else:
            tab = self._schema.table(table)
        col = tab.column(column) if tab else None
        if col is None:
            raise UnknownColumn(f"column {column} is not in {table or 'exactly one table'}")
        kept = self._columns.get((tab.name, col.name))
        if kept is None:
            kept = self._columns[tab.name, col.name] = LookupColumn(self._exec, tab, col)
        return kept


class LookupColumn:
    """One column of a :class:`ValueLookup`, resolved once, as
    :func:`~medsql.recovery.recover_value` takes it: ``table``, ``column``
    and ``attr`` are the schema's, ``in`` runs one indexed point query while
    the column is not loaded, and :meth:`load` reads its values once."""

    def __init__(self, session: Execution, table: TableDef, column: ColumnDef):
        self._exec = session
        self.table = table.name
        self.column = column.name
        self.attr = column.attr
        # Qualified: a missing column is an error, not a string.
        name = f"{_quote(table.name)}.{_quote(column.name)}"
        self._point = f"SELECT {name} FROM {_quote(table.name)} WHERE {name} = ? LIMIT 1"
        self._distinct = f"SELECT DISTINCT {name} FROM {_quote(table.name)} WHERE {name} IS NOT NULL"
        self._values: ColumnValues | None = None

    def __contains__(self, value: object) -> bool:
        """Whether ``value`` is one of the column's :meth:`load` values.

        While the column is not loaded, one point query searches its index
        for the first cell equal to ``value``. A ``str`` cell equal to it in
        Python is a hit; under a collation other than BINARY, that first
        cell of its equal group is also the one ``SELECT DISTINCT`` keeps.
        Any other outcome (no cell, a number that the column's affinity made
        of the text, a cell equal only under the column's collation, a
        failed query) loads the column and answers from it. So the answer is
        the one :meth:`load` gives, and a load error is raised in its terms.
        """
        if self._values is None:
            rows = self._exec.rows(self._point, (value,))
            if rows and isinstance(rows[0][0], str) and rows[0][0] == value:
                return True
        return value in self.load()

    def load(self) -> ColumnValues:
        """The column's distinct values, canonically ordered, read on the first call."""
        if self._values is None:
            try:
                rows = run_select(self._exec.conn, self._distinct, self._exec.timeout_ms)
            except QueryExecutionError as exc:
                where = f"{self.table}.{self.column}"
                raise DataError(f"cannot read the values of {where} from the database: {exc}") from None
            self._values = ColumnValues(sorted(canonical_value(r[0]) for r in rows))
        return self._values


def build_value_lookup(conn: sqlite3.Connection | Execution, schema: SchemaDef) -> ValueLookup:
    """A lookup over ``conn``, which its caller opens and closes."""
    return ValueLookup(conn, schema)


@dataclass(frozen=True)
class CorpusStats:
    n_samples: int
    n_tables: int
    columns_per_table: tuple[int, ...]
    avg_template_question_len: float
    avg_paraphrase_question_len: float
    avg_sql_len: float
    avg_agg_columns: float
    avg_conditions: float


def _mean2(total: float, count: int) -> float:
    return round(total / count, 2) if count else 0.0


def corpus_stats(corpus: list[Sample], schema: SchemaDef) -> CorpusStats:
    """Descriptive statistics: question/SQL lengths are word/token counts,
    averages are rounded to two decimals."""
    if not corpus:
        raise EmptyCorpus("cannot compute statistics for an empty corpus")
    template_words = 0
    paraphrase_words = 0
    paraphrase_count = 0
    sql_tokens = 0
    select_items = 0
    conditions = 0
    for sample in corpus:
        template_words += len(sample.template_question.split())
        if sample.paraphrase_question is not None:
            paraphrase_words += len(sample.paraphrase_question.split())
            paraphrase_count += 1
        sql_tokens += sample.gold_token_count
        query = sample.gold_query
        select_items += len(query.select_items)
        conditions += len(query.conditions)
    n = len(corpus)
    return CorpusStats(
        n_samples=n,
        n_tables=len(schema.tables),
        columns_per_table=tuple(len(t.columns) for t in schema.tables),
        avg_template_question_len=_mean2(template_words, n),
        avg_paraphrase_question_len=_mean2(paraphrase_words, paraphrase_count),
        avg_sql_len=_mean2(sql_tokens, n),
        avg_agg_columns=_mean2(select_items, n),
        avg_conditions=_mean2(conditions, n),
    )


def with_synthetic(sample: Sample, paraphrases: Iterable[Paraphrase]) -> Sample:
    return replace(
        sample, synthetic_paraphrases=sample.synthetic_paraphrases + tuple(paraphrases)
    )

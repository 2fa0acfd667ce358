"""Exception types shared across the toolkit.

Two broad families matter to callers: ``DataError`` covers inputs that
violate a contract (malformed records, SQL outside the dialect, impossible
requests) and ``EnvError`` covers unusable external resources (database
files, translation endpoints). The command line maps them to exit codes 2
and 3 respectively.
"""

from __future__ import annotations


class MedsqlError(Exception):
    """Base class for every toolkit-specific error."""


class DataError(MedsqlError):
    """Input data violates a contract."""


class EnvError(MedsqlError):
    """An external resource is unreachable or unusable."""


class ParseError(DataError):
    """SQL text that cannot be parsed under the restricted dialect."""

    def __init__(self, message: str, offset: int, expected: frozenset[str] | set[str] = frozenset()):
        self.offset = offset
        self.expected = frozenset(expected)
        detail = f"{message} at offset {offset}"
        if self.expected:
            detail += " (expected " + " or ".join(sorted(self.expected)) + ")"
        super().__init__(detail)


class UnsupportedSyntax(ParseError):
    """SQL that is well formed but uses constructs outside the dialect."""


class UnterminatedLiteral(DataError):
    """A quoted literal is missing its closing quote."""

    def __init__(self, offset: int):
        self.offset = offset
        super().__init__(f"unterminated string literal starting at offset {offset}")


class RecordError(DataError):
    """A corpus or prediction record is malformed.

    ``line`` is the record's line number in a line-delimited file and its
    1-based position in a JSON array.
    """

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"record {line}: {message}")


class EmptyCorpus(DataError):
    """An operation that needs at least one sample received none."""


class CsvError(DataError):
    """A table data file violates the CSV contract."""

    def __init__(self, row: int, message: str, column: str | None = None):
        self.row = row
        self.column = column
        where = f"row {row}" + (f", column {column}" if column else "")
        super().__init__(f"{where}: {message}")


class ColumnTypeError(CsvError):
    """A number column received a value that does not parse as a number."""


class DbError(EnvError):
    """The execution database cannot be opened."""


class QueryExecutionError(MedsqlError):
    """A single query failed or timed out while executing.

    This is a per-query mechanism, not a pipeline failure: metrics and
    reranking catch it and record the failure on the affected query.
    """


class EvalPoolTooSmall(DataError):
    """The designated-table pool has fewer samples than test_size."""

    def __init__(self, pool_size: int, test_size: int):
        self.pool_size = pool_size
        self.test_size = test_size
        super().__init__(f"eval pool has {pool_size} samples, need test_size={test_size}")


class MissingPrediction(DataError):
    """Strict evaluation found split samples without predictions."""

    def __init__(self, ids: list[str]):
        self.ids = tuple(ids)
        shown = ", ".join(self.ids[:5]) + (", ..." if len(self.ids) > 5 else "")
        super().__init__(f"{len(self.ids)} sample(s) without a prediction: {shown}")


class UnknownColumn(DataError):
    """A (table, column) pair is absent from the value lookup."""


class EmptyQuestion(DataError):
    """A question is empty or whitespace-only."""


class ReservedToken(DataError):
    """A question contains the schema/question separator token."""


class UnknownPivot(DataError):
    """A pivot language is not in the configured pivot set."""


class TranslateError(EnvError):
    """The translation endpoint failed after all retries."""

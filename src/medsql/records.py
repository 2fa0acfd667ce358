"""Line-delimited record files, atomic writes, and run manifests."""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import stat
import tempfile
from collections.abc import Iterable, Iterator, Mapping
from pathlib import Path
from typing import Any

from .errors import DataError, RecordError

FORMAT_VERSION = 1


# The escape of a UTF-16 surrogate, \uD800-\uDFFF: only text holding one
# can decode to a lone surrogate.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def parse_json(text: str) -> Any:
    """``json.loads(text)``, except that an escape decoding to a lone
    surrogate (``"\\ud800"``) raises ``ValueError``: neither a UTF-8 file nor
    SQLite can take it. An escaped pair decodes to its one character."""
    obj = json.loads(text)
    if _SURROGATE_ESCAPE.search(text):
        try:
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(f"lone surrogate {exc.object[exc.start]!r} is not text") from None
    return obj


def read_json(source: str | Path | bytes, what: str, shape: type[dict] | type[list]) -> Any:
    """The JSON document in a UTF-8 file, given as its path or its bytes:
    an object (``shape`` dict) or an array (list); a leading byte order mark
    is skipped. Bytes that are not UTF-8, not JSON (nesting too deep to parse
    and a lone surrogate included), or not of that shape raise
    :class:`DataError` naming the file as ``what``."""
    data = source if isinstance(source, bytes) else Path(source).read_bytes()
    try:
        obj = parse_json(data.decode("utf-8-sig"))
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(obj, shape):
        raise DataError(f"{what} must hold a JSON {'object' if shape is dict else 'array'}")
    return obj


def read_lines(source: str | Path | bytes) -> Iterator[tuple[int, str]]:
    """Yield (line_number, line) pairs of a UTF-8 text file, given as its
    path or its bytes, newline kept; a leading byte order mark is skipped. A
    byte that is not UTF-8 raises :class:`RecordError` carrying its line
    number."""

    def text(errors: str) -> io.TextIOWrapper:
        raw = io.BytesIO(source) if isinstance(source, bytes) else open(source, "rb")
        return io.TextIOWrapper(raw, encoding="utf-8-sig", errors=errors)

    try:
        with text("strict") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError:
        # Text mode decodes in chunks, so the error does not tell the line.
        with text("surrogateescape") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise RecordError(lineno, str(exc)) from None


def read_jsonl(source: str | Path | bytes) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield (line_number, record) pairs of a :func:`read_lines` file;
    whitespace-only lines are skipped. A line that :func:`parse_json`
    rejects raises :class:`RecordError` carrying its line number."""
    for lineno, line in read_lines(source):
        if not line.strip():
            continue
        try:
            obj = parse_json(line)
        except (ValueError, RecursionError) as exc:
            raise RecordError(lineno, f"invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise RecordError(lineno, "record is not a JSON object")
        yield lineno, obj


def record_id(value: Any) -> str:
    """A record's id as text: a string or an integer, not a boolean, and
    without a tab or a line break, which would break the split file, or a
    leading byte order mark, which :func:`read_lines` would strip from it."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise DataError(f"id must be a string or an integer, not {json.dumps(value)}")
    text = str(value)
    if "\t" in text or "\n" in text or "\r" in text:
        raise DataError(f"id must not contain a tab or a line break, not {json.dumps(value)}")
    if text.startswith("\ufeff"):
        raise DataError(f"id must not begin with a byte order mark (U+FEFF), not {json.dumps(value)}")
    return text


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write text to a temporary file and rename it into place. The file
    gets the mode that ``open(path, "w")`` gives a new file, 0666 less the
    umask, whether or not ``path`` existed."""
    path = Path(path)
    # A name of fixed length, so it fits wherever the target's name fits.
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=".medsql-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            # mkstemp creates the file with mode 0600. The umask can be read
            # only by setting it, so it is set back at once; a file another
            # thread created in between would get 0600 at most.
            umask = os.umask(0o077)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


# The encoder of every JSON Lines record: json.dumps builds a new one per call.
_LINE_ENCODER = json.JSONEncoder(ensure_ascii=False)


def write_jsonl(path: str | Path, records: Iterable[Mapping[str, Any]]) -> Path:
    return atomic_write_text(path, "".join(_LINE_ENCODER.encode(rec) + "\n" for rec in records))


def write_json(path: str | Path, obj: Mapping[str, Any]) -> Path:
    return atomic_write_text(path, json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True) + "\n")


def file_sha256(path: str | Path) -> str:
    """The digest of a file, read in chunks of up to 1 MiB into one buffer:
    the one hashing loop."""
    digest = hashlib.sha256()
    with open(path, "rb", buffering=0) as fh:
        # No larger than the file: zeroing 1 MiB costs more than hashing a small input.
        buffer = bytearray(min(1 << 20, os.fstat(fh.fileno()).st_size + 1))
        view = memoryview(buffer)
        while size := fh.readinto(buffer):
            digest.update(view[:size])
    return digest.hexdigest()


def config_hash(config: Mapping[str, Any]) -> str:
    canonical = json.dumps(config, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def manifest_path(output_path: str | Path) -> Path:
    output_path = Path(output_path)
    return output_path.with_name(output_path.name + ".manifest.json")


def hash_inputs(inputs: Mapping[str, str | Path]) -> dict[str, dict[str, str]]:
    """A manifest's ``inputs``: the path and digest of each input file named
    by option, each hashed once, in name order. A command hashes its inputs
    before its stage runs, so a read error fails before any output is
    written, and an output that replaces an input leaves the digest of the
    bytes that were read.

    A pipe, socket or character device cannot be read twice, so naming one
    is a :class:`DataError` raised before any input is read."""
    names = sorted(inputs)
    for name in names:
        mode = os.stat(inputs[name]).st_mode
        if stat.S_ISFIFO(mode) or stat.S_ISSOCK(mode) or stat.S_ISCHR(mode):
            raise DataError(f"--{name} must name a file, not a pipe, socket or device: {inputs[name]}")
    return {name: {"path": str(inputs[name]), "sha256": file_sha256(inputs[name])} for name in names}


def write_manifests(
    output_paths: Iterable[str | Path],
    *,
    command: str,
    tool_version: str,
    inputs: Mapping[str, Mapping[str, str]],
    config: Mapping[str, Any],
    seed: int | None = None,
) -> list[Path]:
    """Write the run manifest that accompanies each output file; ``inputs``
    is what :func:`hash_inputs` gave before the stage ran. A manifest is
    fully determined by the inputs and configuration (no timestamps), so
    identical reruns produce identical bytes.
    """
    shared = {
        "format_version": FORMAT_VERSION,
        "tool": {"name": "medsql", "version": tool_version},
        "command": command,
        "seed": seed,
        "config": dict(config),
        "config_hash": config_hash(config),
        "inputs": dict(inputs),
    }
    return [write_json(manifest_path(out), {**shared, "output": Path(out).name}) for out in output_paths]

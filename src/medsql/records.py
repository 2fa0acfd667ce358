"""Line-delimited record files, atomic writes, and run manifests."""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import stat
import tempfile
import threading
from collections.abc import Callable, Iterable, Iterator, Mapping
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Any, BinaryIO

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
    """Write text to a temporary file and rename it into place."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def write_jsonl(path: str | Path, records: Iterable[Mapping[str, Any]]) -> Path:
    return atomic_write_text(path, "".join(json.dumps(rec, ensure_ascii=False) + "\n" for rec in records))


def write_json(path: str | Path, obj: Mapping[str, Any]) -> Path:
    return atomic_write_text(path, json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True) + "\n")


def file_sha256(path: str | Path) -> str:
    with open(path, "rb") as fh:
        return _sha256_open(fh)


def config_hash(config: Mapping[str, Any]) -> str:
    canonical = json.dumps(config, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def manifest_path(output_path: str | Path) -> Path:
    output_path = Path(output_path)
    return output_path.with_name(output_path.name + ".manifest.json")


# An input larger than this is hashed on a second thread while the stage
# runs; hashing a smaller one inline costs less than starting a thread.
_INLINE_HASH_BYTES = 1 << 20


def _sha256_open(fh: BinaryIO) -> str:
    """The digest of an open file from its position to its end, read in
    chunks of up to 1 MiB into one buffer: the one hashing loop. The hashing
    thread runs it too, so it calls no function a tracer may wrap."""
    digest = hashlib.sha256()
    # No larger than the file: zeroing 1 MiB costs more than hashing a small input.
    buffer = bytearray(min(1 << 20, os.fstat(fh.fileno()).st_size + 1))
    view = memoryview(buffer)
    while size := fh.readinto(buffer):
        digest.update(view[:size])
    return digest.hexdigest()


@contextmanager
def hash_inputs(inputs: Mapping[str, str | Path]) -> Iterator[Callable[[], dict[str, dict[str, str]]]]:
    """A scope that hashes the input files named by option while its body
    runs. It yields the call that gives a manifest's ``inputs``: each file's
    path and digest, hashed once, in name order. That call waits for the
    hashing and re-raises its read error. Leaving the scope, by any path,
    waits for the hashing and closes every file; a read error that the call
    did not raise is dropped there, so the body's own error is the one seen.

    A pipe, socket or character device cannot be read twice, so naming one
    is a :class:`DataError` raised before any input is read. A file of at
    most ``_INLINE_HASH_BYTES`` is hashed on entry. A larger one is opened on
    entry and hashed on one thread while the body runs. So a missing or
    unreadable input fails on entry, and an output renamed onto an input
    later leaves the digest of the bytes that were there."""
    names = sorted(inputs)
    sizes = {}
    for name in names:
        info = os.stat(inputs[name])
        if stat.S_ISFIFO(info.st_mode) or stat.S_ISSOCK(info.st_mode) or stat.S_ISCHR(info.st_mode):
            raise DataError(f"--{name} must name a file, not a pipe, socket or device: {inputs[name]}")
        sizes[name] = info.st_size
    digests: dict[str, str] = {}
    with ExitStack() as stack:
        large = {}
        for name in names:
            if sizes[name] > _INLINE_HASH_BYTES:
                large[name] = stack.enter_context(open(inputs[name], "rb", buffering=0))
            else:
                digests[name] = file_sha256(inputs[name])
        thread = None
        failed: list[Exception] = []

        def work() -> None:
            try:
                digests.update({name: _sha256_open(fh) for name, fh in large.items()})
            except Exception as exc:  # raised again by hashed(), so none escapes the thread
                failed.append(exc)

        if large:
            thread = threading.Thread(target=work, name="medsql-hash-inputs")
            thread.start()
            # Pushed after the files, so leaving the scope joins the thread before they close.
            stack.callback(thread.join)

        def hashed() -> dict[str, dict[str, str]]:
            if thread:
                thread.join()
            if failed:
                raise failed[0]
            return {name: {"path": str(inputs[name]), "sha256": digests[name]} for name in names}

        yield hashed


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
    is what the call :func:`hash_inputs` yields gives once the stage has
    run. A manifest is fully determined by the inputs and configuration (no
    timestamps), so identical reruns produce identical bytes.
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

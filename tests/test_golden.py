"""The bytes of the eight commands on the clinic fixture, pinned by digest.

The commands of ``test_cli._pipeline`` run in an empty working directory
with relative paths, so no manifest holds an absolute path: once through
:func:`medsql.cli.cmd` in this process, and once with each command in its own
``python -m medsql.cli`` process, as a shell runs them. The SHA-256 of every file left there (outputs, manifests and
the staged inputs) and of every command's stdout is compared with
``golden.json``. A database is pinned by its content (:func:`_db_digest`),
since SQLite versions write the same content as different bytes, and each
manifest is hashed with that database's file digest blanked. ``--help`` is
not pinned: argparse formats it differently across Python versions.

A change that alters these bytes on purpose regenerates the table with
``PYTHONPATH=src python -m tests.test_golden`` and says why.
"""

from __future__ import annotations

import hashlib
import io
import os
import sqlite3
import subprocess
import sys
import tempfile
from collections.abc import Callable
from contextlib import closing, redirect_stdout
from pathlib import Path

import medsql
from medsql.cli import cmd
from medsql.records import file_sha256, read_json, write_json

from .conftest import clinic_files
from .test_cli import _pipeline, _stage

GOLDEN = Path(__file__).with_name("golden.json")


def _db_digest(path: Path) -> str:
    """The digest of a database's content: the SQL of every schema object,
    then every row of every table in rowid order."""
    digest = hashlib.sha256()
    with closing(sqlite3.connect(f"file:{path}?mode=ro", uri=True)) as conn:
        objects = conn.execute("SELECT type, name, sql FROM sqlite_master ORDER BY type, name").fetchall()
        for kind, name, sql in objects:
            digest.update(repr((kind, name, sql)).encode("utf-8"))
            if kind == "table":
                for row in conn.execute(f'SELECT * FROM "{name}" ORDER BY rowid'):
                    digest.update(repr(row).encode("utf-8"))
    return digest.hexdigest()


def in_process(argv: list[str]) -> tuple[int, str]:
    """Run one command through :func:`cmd`: its exit code and stdout."""
    with redirect_stdout(io.StringIO()) as out:
        code = cmd(argv)
    return code, out.getvalue()


def one_process(argv: list[str]) -> tuple[int, str]:
    """Run one command as ``python -m medsql.cli`` in a process of its own,
    importing the medsql that this process imported: its exit code and
    stdout. Its stderr is printed."""
    path = [str(Path(medsql.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), "PYTHONIOENCODING": "utf-8"}
    done = subprocess.run([sys.executable, "-m", "medsql.cli", *argv], env=env, capture_output=True,
                          encoding="utf-8", check=False)
    print(done.stderr, end="")
    return done.returncode, done.stdout


def pipeline_digests(clinic, directory: Path, run: Callable[[list[str]], tuple[int, str]] = in_process
                     ) -> dict[str, str]:
    """Stage the clinic files in ``directory``, run the pipeline there, one
    command at a time through ``run``, and give the digest of each file and
    of each command's stdout, by name."""
    _stage(clinic, directory)
    digests = {}
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for argv in _pipeline(clinic):
            code, out = run(argv)
            assert code == 0, argv
            digests[f"stdout {argv[0]}"] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    finally:
        os.chdir(cwd)
    db_file = file_sha256(directory / "clinic.db")
    for path in sorted(directory.iterdir()):
        if path.suffix == ".db":
            digests[path.name] = _db_digest(path)
        else:
            text = path.read_bytes().replace(db_file.encode("ascii"), b"")
            digests[path.name] = hashlib.sha256(text).hexdigest()
    return digests


def _differ(clinic, directory: Path, run: Callable[[list[str]], tuple[int, str]]) -> list[str]:
    """The names whose digest differs from ``golden.json``'s."""
    golden = read_json(GOLDEN, GOLDEN.name, dict)
    digests = pipeline_digests(clinic, directory, run)
    return sorted(name for name in golden.keys() | digests.keys() if golden.get(name) != digests.get(name))


def test_the_pipeline_gives_the_pinned_bytes(clinic, tmp_path):
    differ = _differ(clinic, tmp_path / "run", in_process)
    assert not differ, f"not the bytes that {GOLDEN.name} pins: " + ", ".join(differ)


def test_one_process_per_command_gives_the_pinned_bytes(clinic, tmp_path):
    # No state carries from one command to the next, and each process hashes and writes the same bytes.
    differ = _differ(clinic, tmp_path / "run", one_process)
    assert not differ, f"not the bytes that {GOLDEN.name} pins: " + ", ".join(differ)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, clinic_files(Path(tmp)) as files:
        write_json(GOLDEN, pipeline_digests(files, Path(tmp) / "run"))
    print(f"wrote {GOLDEN}")

from __future__ import annotations

import hashlib

import pytest

from medsql.records import atomic_write_text, file_sha256, hash_inputs

# The hashing loop reads into a buffer of up to 1 MiB.
BUFFER = 1 << 20


class TestAtomicWrite:
    def test_a_directory_in_the_way_is_left_as_it_was_with_no_temporary_file(self, tmp_path):
        (tmp_path / "out").mkdir()
        with pytest.raises(IsADirectoryError):
            atomic_write_text(tmp_path / "out", "text\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert list((tmp_path / "out").iterdir()) == []

    def test_a_name_of_the_longest_length_is_written_with_no_temporary_file_left(self, tmp_path):
        # The temporary file used to be named <target>.<8 random>.tmp: 13 bytes over this name.
        name = "n" * 255
        atomic_write_text(tmp_path / name, "text\n")
        assert [p.name for p in tmp_path.iterdir()] == [name]
        assert (tmp_path / name).read_text(encoding="utf-8") == "text\n"


class TestHashing:
    @pytest.mark.parametrize("size", [0, 1, BUFFER - 1, BUFFER, BUFFER + 1, 2 * BUFFER + 3])
    def test_the_digest_of_a_file_of_any_size_is_its_sha256(self, tmp_path, size):
        data = bytes(i % 251 for i in range(size))
        (tmp_path / "f").write_bytes(data)
        assert file_sha256(tmp_path / "f") == hashlib.sha256(data).hexdigest()

    def test_inputs_are_listed_in_name_order_with_their_paths_and_digests(self, tmp_path):
        for name in ("a", "b"):
            (tmp_path / name).write_text(name, encoding="utf-8")
        inputs = hash_inputs({"schema": tmp_path / "b", "corpus": tmp_path / "a"})
        assert list(inputs) == ["corpus", "schema"]
        assert inputs["corpus"] == {"path": str(tmp_path / "a"), "sha256": hashlib.sha256(b"a").hexdigest()}
        assert inputs["schema"] == {"path": str(tmp_path / "b"), "sha256": hashlib.sha256(b"b").hexdigest()}

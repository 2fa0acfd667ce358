from __future__ import annotations

import pytest

from medsql.records import atomic_write_text


class TestAtomicWrite:
    def test_a_directory_in_the_way_is_left_as_it_was_with_no_temporary_file(self, tmp_path):
        (tmp_path / "out").mkdir()
        with pytest.raises(IsADirectoryError):
            atomic_write_text(tmp_path / "out", "text\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert list((tmp_path / "out").iterdir()) == []

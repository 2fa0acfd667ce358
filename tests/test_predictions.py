from __future__ import annotations

import pytest

from medsql.errors import RecordError
from medsql.predictions import load_predictions


def _beam_line(score_token: str) -> str:
    return (
        '{"id": "q1", "candidates": [{"sql": "SELECT NOPE FROM LAB", "score": %s}, '
        '{"sql": "SELECT COUNT(*) FROM LAB", "score": 2.0}]}\n' % score_token
    )


class TestLoadPredictions:
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", '"nan"', '"inf"'])
    def test_non_finite_scores_are_rejected(self, tmp_path, token):
        # A NaN candidate used to sort to rank 1, ahead of a score of 2.0.
        path = tmp_path / "p.jsonl"
        path.write_text("\n" + _beam_line(token), encoding="utf-8")
        with pytest.raises(RecordError, match="finite") as exc:
            load_predictions(path)
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "token",
        ['"0.5"', '"2"', "true", "false", "null", "[1]", '{"v": 1}', pytest.param("1" + "0" * 400, id="huge-integer")],
    )
    def test_a_score_must_be_a_json_number(self, tmp_path, token):
        # float() used to read "0.5" as 0.5 and true as 1.0, which outranked a real 0.5.
        path = tmp_path / "p.jsonl"
        path.write_text("\n" + _beam_line(token), encoding="utf-8")
        with pytest.raises(RecordError, match="finite numbers") as exc:
            load_predictions(path)
        assert exc.value.line == 2

    def test_integer_and_float_scores_load_as_floats(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(_beam_line("3"), encoding="utf-8")
        beam = load_predictions(path)["q1"]
        assert [(c.score, type(c.score)) for c in beam.candidates] == [(3.0, float), (2.0, float)]

    @pytest.mark.parametrize(
        "line, message",
        [
            (b'{"id": null, "sql": "SELECT COUNT(*) FROM LAB"}', "id must be a string or an integer"),
            (b'{"id": [1], "sql": "SELECT COUNT(*) FROM LAB"}', "id must be a string or an integer"),
            (b'{"id": "q\\t2", "sql": "SELECT COUNT(*) FROM LAB"}', "id must not contain a tab or a line break"),
            (b'{"id": "q\\n2", "sql": "SELECT COUNT(*) FROM LAB"}', "id must not contain a tab or a line break"),
            (b'{"id": "q\\r2", "sql": "SELECT COUNT(*) FROM LAB"}', "id must not contain a tab or a line break"),
            (b'{"id": "q2", "candidates": [{"sql": null, "score": 1.0}]}', "candidate sql must be a non-empty string"),
            (b'{"id": "q2", "candidates": [{"sql": 5, "score": 1.0}]}', "candidate sql must be a non-empty string"),
            (b'{"id": "q2", "sql": "SELECT \xff FROM LAB"}', "can't decode byte 0xff"),
        ],
    )
    def test_malformed_record_is_rejected_with_its_line(self, tmp_path, line, message):
        path = tmp_path / "p.jsonl"
        path.write_bytes(b'{"id": "q1", "sql": "SELECT COUNT(*) FROM LAB"}\n\n' + line + b"\n")
        with pytest.raises(RecordError, match=message) as exc:
            load_predictions(path)
        assert exc.value.line == 3

    def test_integer_id_is_read_as_text(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_bytes(b'{"id": 7, "sql": "SELECT COUNT(*) FROM LAB"}\n')
        assert load_predictions(path) == {"7": "SELECT COUNT(*) FROM LAB"}

    def test_leading_byte_order_mark_is_accepted(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_bytes(b"\xef\xbb\xbf" + b'{"id": "q1", "sql": "SELECT COUNT(*) FROM LAB"}\n')
        assert load_predictions(path) == {"q1": "SELECT COUNT(*) FROM LAB"}

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
            (b'{"id": "\\ufeffq2", "sql": "SELECT COUNT(*) FROM LAB"}', "id must not begin with a byte order mark"),
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

    @pytest.mark.parametrize(
        "line, message",
        [
            (b'{"sql": "SELECT COUNT(*) FROM LAB"}', "record 3: missing id"),
            (b'{"id": "q1", "sql": "SELECT COUNT(*) FROM LAB"}', "record 3: duplicate id 'q1'"),
            (b'{"id": "q2", "candidates": []}', "record 3: candidates must be a non-empty list"),
            (b'{"id": "q2", "candidates": {"sql": "SELECT 1", "score": 1}}',
             "record 3: candidates must be a non-empty list"),
            (b'{"id": "q2", "candidates": [{"score": 1.0}]}', "record 3: candidate 1: missing key 'sql'"),
            (b'{"id": "q2", "candidates": [{"sql": "SELECT 1"}]}', "record 3: candidate 1: missing key 'score'"),
            (b'{"id": "q2", "sql": ""}', "record 3: sql must be a non-empty string"),
            (b'{"id": "q2", "sql": ["SELECT 1"]}', "record 3: sql must be a non-empty string"),
            (b'{"id": "q2", "score": 1.0}', "record 3: record has neither sql nor candidates"),
            (b'{"id": "q2", "sql": "SELECT \\ud800"}', "record 3: invalid JSON: lone surrogate '\\ud800' is not text"),
            (b'{"id": "q2", "sql": "SELECT \\udc00\\ud83d"}',
             "record 3: invalid JSON: lone surrogate '\\udc00' is not text"),
            (b'{"id": "q2", "\\uD800": 1, "sql": "SELECT 1"}',
             "record 3: invalid JSON: lone surrogate '\\ud800' is not text"),
        ],
        ids=["missing-id", "duplicate-id", "empty-candidates", "candidates-not-a-list", "candidate-without-sql",
             "candidate-without-score", "empty-sql", "sql-not-a-string", "neither", "lone-surrogate",
             "reversed-pair", "surrogate-key"],
    )
    def test_each_malformed_shape_names_its_line(self, tmp_path, line, message):
        path = tmp_path / "p.jsonl"
        path.write_bytes(b'{"id": "q1", "sql": "SELECT COUNT(*) FROM LAB"}\n\n' + line + b"\n")
        with pytest.raises(RecordError) as exc:
            load_predictions(path)
        assert (str(exc.value), exc.value.line) == (message, 3)

    @pytest.mark.parametrize(
        "candidate, message",
        [
            ('["SELECT 1", 1.0]', "candidate 2 must be an object with sql and score"),
            ("null", "candidate 2 must be an object with sql and score"),
            ('"SELECT 1"', "candidate 2 must be an object with sql and score"),
            ('{"sql": "SELECT 1"}', "candidate 2: missing key 'score'"),
            ('{"score": 1.0}', "candidate 2: missing key 'sql'"),
        ],
        ids=["list", "null", "string", "without-score", "without-sql"],
    )
    def test_a_malformed_candidate_is_named_in_the_terms_of_the_format(self, tmp_path, candidate, message):
        # These used to show Python's own text: "list indices must be integers or slices, not str",
        # "'NoneType' object is not subscriptable" and "malformed candidate: 'score'".
        path = tmp_path / "p.jsonl"
        path.write_text('{"id": "q1", "candidates": [{"sql": "SELECT 1", "score": 2.0}, %s]}\n' % candidate,
                        encoding="utf-8")
        with pytest.raises(RecordError) as exc:
            load_predictions(path)
        assert (str(exc.value), exc.value.line) == (f"record 1: {message}", 1)

    @pytest.mark.parametrize(
        "escaped, text",
        [(b"\\ud83d\\ude00", "\N{GRINNING FACE}"), (b"\\\\ud800", "\\ud800"), (b"\\u00e9\\uDBFF\\uDFFF", "\xe9\U0010ffff")],
        ids=["pair", "escaped-backslash", "upper-case-pair"],
    )
    def test_escapes_that_decode_to_text_load(self, tmp_path, escaped, text):
        path = tmp_path / "p.jsonl"
        path.write_bytes(b'{"id": "q1", "sql": "SELECT ' + escaped + b'"}\n')
        assert load_predictions(path) == {"q1": "SELECT " + text}

    def test_integer_id_is_read_as_text(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_bytes(b'{"id": 7, "sql": "SELECT COUNT(*) FROM LAB"}\n')
        assert load_predictions(path) == {"7": "SELECT COUNT(*) FROM LAB"}

    def test_leading_byte_order_mark_is_accepted(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_bytes(b"\xef\xbb\xbf" + b'{"id": "q1", "sql": "SELECT COUNT(*) FROM LAB"}\n')
        assert load_predictions(path) == {"q1": "SELECT COUNT(*) FROM LAB"}

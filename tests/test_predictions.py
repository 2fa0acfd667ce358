from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from medsql.errors import RecordError
from medsql.predictions import Candidate, CandidateSet, load_predictions

from . import loader_oracle


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


# Any JSON value, small: a wrong type for any field.
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)
# (valid values, faulty values): scores that tie, and scores that are not
# numbers or not finite (NaN and Infinity in the JSON text).
SCORES = (
    st.sampled_from([0.5, -1.25, 2, 0, -0.0]) | st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([10**400, True, "0.5", None, float("nan"), float("inf"), float("-inf")]) | ANY_JSON,
)
SQLS = (st.sampled_from(["SELECT A FROM T", "SELECT B FROM T", "SELECT A FROM T "]), st.sampled_from(["", None]) | ANY_JSON)
IDS = (st.text("ab1", min_size=1, max_size=2) | st.integers(0, 9), st.sampled_from(["\ufeffa", "a\tb", True]) | ANY_JSON)


def valid_or_faulty(draw, values):
    valid, faulty = values
    return draw(faulty if draw(st.integers(0, 19)) == 0 else valid)


@st.composite
def candidate(draw):
    """A candidate object with each key valid, faulty or missing, now and
    then a JSON value of another kind; most candidates are valid."""
    if draw(st.integers(0, 39)) == 0:
        return draw(ANY_JSON)
    cand = {}
    if draw(st.integers(0, 39)):
        cand["sql"] = valid_or_faulty(draw, SQLS)
    if draw(st.integers(0, 39)):
        cand["score"] = valid_or_faulty(draw, SCORES)
    return cand


@st.composite
def prediction_line(draw):
    """A record with a valid, faulty, missing or repeated id: a beam (its
    candidates now and then not a non-empty list), a single prediction, or
    neither; now and then a line that is not a JSON object."""
    kind = draw(st.integers(0, 19))
    if kind == 0:
        return json.dumps(draw(ANY_JSON))
    rec = {}
    if draw(st.integers(0, 19)):
        rec["id"] = valid_or_faulty(draw, IDS)
    if kind < 12:
        rec["candidates"] = valid_or_faulty(draw, (st.lists(candidate(), min_size=1, max_size=5), ANY_JSON))
    elif kind < 19:
        rec["sql"] = valid_or_faulty(draw, SQLS)
    return json.dumps(rec)


def _beam(*candidates, id="q"):
    return {"id": id, "candidates": [{"sql": sql, "score": score} for sql, score in candidates]}


# One file per kind of record and fault, for the pinned oracle cases; a float
# NaN or infinity is written as the JSON text NaN or Infinity.
PINNED_FILES = {
    "valid": [_beam(("SELECT A FROM T", 0.5), ("SELECT B FROM T", 2)), {"id": 3, "sql": "SELECT A FROM T"}],
    "tied-scores": [_beam(("A", 1.0), ("B", 2), ("C", 1), ("D", 2.0), ("E", -0.0), ("F", 0))],
    "boolean-score": [_beam(("A", 1.0), ("B", True))],
    "string-score": [_beam(("A", "0.5"))],
    "null-score": [_beam(("A", None))],
    "nan-score": [_beam(("A", float("nan")))],
    "infinite-score": [_beam(("A", 1.0), ("B", float("-inf")))],
    "huge-integer-score": [_beam(("A", 10**400))],
    "bad-sql-before-bad-score": [_beam(("A", float("nan")), ("", 1.0))],
    "bad-sql": [_beam(("A", 1.0), (5, 1.0))],
    "missing-key-after-bad-sql": [{"id": "q", "candidates": [{"sql": "", "score": 1.0}, {"sql": "A"}]}],
    "candidate-not-an-object": [{"id": "q", "candidates": [{"sql": "A", "score": 1.0}, ["A", 1.0]]}],
    "candidate-without-sql": [{"id": "q", "candidates": [{"score": 1.0}]}],
    "empty-candidates": [{"id": "q", "candidates": []}],
    "candidates-object": [{"id": "q", "candidates": {"sql": "A", "score": 1.0}}],
    "candidates-and-sql": [{"id": "q", "candidates": [{"sql": "A", "score": 1.0}], "sql": ""}],
    "empty-sql": [{"id": "q", "sql": ""}],
    "neither": [{"id": "q"}],
    "missing-id": [{"sql": "A"}],
    "duplicate-id": [{"id": "1", "sql": "A"}, _beam(("A", 1.0), id=1)],
    "bom-id": [{"id": "\ufeffq", "sql": "A"}],
    "boolean-id": [{"id": False, "sql": "A"}],
    "not-an-object": [{"id": "q", "sql": "A"}, ["q"]],
}


def predictions_outcome(load, data: bytes):
    """What ``load`` gives: each prediction with its attributes, or the type,
    number and message of its error."""
    try:
        preds = load(data)
    except Exception as exc:
        return type(exc), getattr(exc, "line", None), str(exc)
    return repr(list(preds.items())), [
        pred if isinstance(pred, str) else (vars(pred), [vars(c) for c in pred.candidates]) for pred in preds.values()
    ]


class TestLoaderOracle:
    """load_predictions against the loader it replaced, which checked each
    beam in three passes and built it through the constructors. CI also runs
    these under the deep hypothesis profile (``-k oracle``)."""

    @pytest.mark.parametrize("records", PINNED_FILES.values(), ids=PINNED_FILES)
    def test_predictions_and_errors_match_the_loader_oracle_on_pinned_cases(self, records):
        data = "".join(json.dumps(rec) + "\n" for rec in records).encode("utf-8")
        assert predictions_outcome(load_predictions, data) == predictions_outcome(loader_oracle.load_predictions, data)

    @given(st.lists(prediction_line(), max_size=6))
    def test_predictions_and_errors_match_the_loader_oracle(self, lines):
        data = "\n".join(lines).encode("utf-8")
        assert predictions_outcome(load_predictions, data) == predictions_outcome(loader_oracle.load_predictions, data)

    @given(st.lists(st.lists(st.sampled_from([0.5, 0.25, 1, -3.0, 0.5]), min_size=1, max_size=6), max_size=4))
    def test_tied_beams_match_the_loader_oracle(self, beams):
        data = "".join(
            json.dumps({"id": k, "candidates": [{"sql": f"SELECT {n} FROM T", "score": score}
                                                for n, score in enumerate(scores)]}) + "\n"
            for k, scores in enumerate(beams)
        ).encode("utf-8")
        outcome = predictions_outcome(load_predictions, data)
        assert outcome == predictions_outcome(loader_oracle.load_predictions, data)
        assert len(outcome[1]) == len(beams)


class TestLoadedBeams:
    def test_a_loaded_beam_equals_a_constructed_one(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"id": "q", "candidates": [{"sql": "B", "score": 1}, {"sql": "A", "score": 2.5}, '
                        '{"sql": "C", "score": 1.0}]}\n', encoding="utf-8")
        loaded = load_predictions(path)["q"]
        built = CandidateSet("q", (Candidate("B", 1.0), Candidate("A", 2.5), Candidate("C", 1.0)))
        assert loaded == built and vars(loaded) == vars(built)
        assert [vars(c) for c in loaded.candidates] == [vars(c) for c in built.candidates]
        assert [c.sql for c in loaded.candidates] == ["A", "B", "C"]  # the tie keeps its file order
        assert all(type(c) is Candidate for c in loaded.candidates)

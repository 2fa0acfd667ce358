from __future__ import annotations

import contextlib
import socket

import pytest

from medsql.augment import (
    AugmentReport,
    HttpTranslator,
    StubTranslator,
    augment_corpus,
    back_translate,
)
from medsql.errors import TranslateError, UnknownPivot
from medsql.query import parse_sql
from medsql.store import Sample


class TestStubTranslator:
    def test_round_trip_through_fr_lowercases(self):
        stub = StubTranslator()
        assert back_translate("How Many Patients", "fr", stub) == "how many patients"

    def test_round_trip_through_de_swaps_the_first_two_words(self):
        stub = StubTranslator()
        assert back_translate("what is age", "de", stub) == "is what age"

    def test_lowercase_question_is_degenerate_under_fr(self):
        stub = StubTranslator()
        question = "all lowercase already"
        assert back_translate(question, "fr", stub) == question

    def test_single_word_is_degenerate_under_de(self):
        stub = StubTranslator()
        assert back_translate("labs", "de", stub) == "labs"

    def test_forward_leg_carries_a_pivot_marker(self):
        assert StubTranslator().translate("text", "en", "fr") == "[fr] text"


class TestBackTranslate:
    def test_whitespace_is_normalized(self):
        assert back_translate("  a   b ", "fr", StubTranslator()) == "a b"

    def test_unknown_pivot_is_rejected_before_any_call(self):
        class Untouchable:
            def translate(self, text, src, tgt):
                raise AssertionError("translator must not be called")

        with pytest.raises(UnknownPivot):
            back_translate("q", "es", Untouchable())

    def test_pivot_set_is_configurable(self):
        # es has no rewrite rule in the stub, so the round trip is a no-op.
        got = back_translate("Mixed Case", "es", StubTranslator(), pivots=("es",))
        assert got == "Mixed Case"


class TestHttpTranslator:
    def test_round_trip_against_a_live_endpoint(self, translate_server):
        base_url, _ = translate_server("echo")
        translator = HttpTranslator(base_url)
        assert back_translate("How Many", "fr", translator) == "how many"

    def test_persistent_failure_exhausts_retries(self, translate_server):
        base_url, handler = translate_server("fail")
        translator = HttpTranslator(base_url, retries=1)
        with pytest.raises(TranslateError):
            translator.translate("q", "en", "fr")
        assert handler.hits == 2

    def test_a_success_other_than_200_is_retried(self, translate_server):
        base_url, handler = translate_server("no_content")
        translator = HttpTranslator(base_url, retries=1)
        with pytest.raises(TranslateError) as exc:
            translator.translate("q", "en", "fr")
        assert str(exc.value) == f"{base_url}/translate failed after 2 attempt(s): HTTP 204"
        assert handler.hits == 2

    def test_transient_failure_is_retried(self, translate_server):
        base_url, handler = translate_server("flaky")
        translator = HttpTranslator(base_url, retries=1)
        assert translator.translate("How", "en", "fr") == "[fr] How"
        assert handler.hits == 2

    def test_malformed_success_body_is_not_retried(self, translate_server):
        base_url, handler = translate_server("malformed")
        translator = HttpTranslator(base_url, retries=3)
        with pytest.raises(TranslateError):
            translator.translate("q", "en", "fr")
        assert handler.hits == 1

    def test_non_object_success_body_is_not_retried(self, translate_server):
        # A 200 carrying a JSON array used to raise an uncaught TypeError.
        base_url, handler = translate_server("not_object")
        translator = HttpTranslator(base_url, retries=3)
        with pytest.raises(TranslateError, match="malformed 200"):
            translator.translate("q", "en", "fr")
        assert handler.hits == 1

    def test_lone_surrogate_text_is_malformed(self, translate_server):
        # It used to come back as a string that no UTF-8 writer can take.
        base_url, handler = translate_server("surrogate")
        translator = HttpTranslator(base_url, retries=3)
        with pytest.raises(TranslateError, match="malformed 200 .*lone surrogate"):
            translator.translate("q", "en", "fr")
        assert handler.hits == 1

    def test_timeout_is_retried(self):
        # A listener that never answers: every attempt connects, then times out.
        with socket.create_server(("127.0.0.1", 0)) as silent:
            port = silent.getsockname()[1]
            translator = HttpTranslator(f"http://127.0.0.1:{port}", timeout_ms=100, retries=1)
            with pytest.raises(TranslateError, match="2 attempt"):
                translator.translate("q", "en", "fr")
            silent.setblocking(False)
            attempts = 0
            with contextlib.suppress(BlockingIOError):
                while True:
                    silent.accept()[0].close()
                    attempts += 1
        assert attempts == 2

    def test_unreachable_endpoint(self):
        translator = HttpTranslator("http://127.0.0.1:9", timeout_ms=200, retries=0)
        with pytest.raises(TranslateError):
            translator.translate("q", "en", "fr")


def _mini_corpus():
    return [
        Sample("s1", "How Many Patients", "SELECT COUNT(*) FROM DEMOGRAPHIC"),
        Sample("s2", "lowercase question here", "SELECT COUNT(*) FROM LAB"),
        Sample("s3", "single", "SELECT COUNT(*) FROM PRESCRIPTIONS"),
    ]


class TestAugmentCorpus:
    def test_hand_computed_counts(self):
        result = augment_corpus(_mini_corpus(), ("fr", "de"), StubTranslator())
        # s1 gains fr+de, s2 is degenerate under fr, s3 under both.
        assert result.report == AugmentReport(added=3, dropped_degenerate=3, errors=())
        s1, s2, s3 = result.samples
        assert [p.pivot for p in s1.synthetic_paraphrases] == ["fr", "de"]
        assert s1.synthetic_paraphrases[0].text == "how many patients"
        assert s1.synthetic_paraphrases[1].text == "Many How Patients"
        assert [p.pivot for p in s2.synthetic_paraphrases] == ["de"]
        assert s3.synthetic_paraphrases == ()

    def test_ids_gold_and_order_are_preserved(self):
        corpus = _mini_corpus()
        result = augment_corpus(corpus, ("fr", "de"), StubTranslator())
        assert [s.id for s in result.samples] == [s.id for s in corpus]
        assert [s.gold_sql for s in result.samples] == [s.gold_sql for s in corpus]
        assert [s.template_question for s in result.samples] == [
            s.template_question for s in corpus
        ]

    def test_translation_failures_are_recorded_per_pivot(self):
        class FailsGerman(StubTranslator):
            def translate(self, text, src, tgt):
                if "de" in (src, tgt):
                    raise TranslateError("boom")
                return super().translate(text, src, tgt)

        result = augment_corpus(_mini_corpus(), ("fr", "de"), FailsGerman())
        assert result.report.added == 1
        assert len(result.report.errors) == 3
        assert {e[1] for e in result.report.errors} == {"de"}
        assert [p.pivot for p in result.samples[0].synthetic_paraphrases] == ["fr"]

    def test_jobs_do_not_change_the_result(self, clinic):
        corpus = clinic.corpus[:50]
        serial = augment_corpus(corpus, ("fr", "de"), StubTranslator(), jobs=1)
        parallel = augment_corpus(corpus, ("fr", "de"), StubTranslator(), jobs=8)
        assert serial.samples == parallel.samples
        assert serial.report == parallel.report


class TestTemplates:
    def test_ids_are_unique(self, clinic):
        ids = [s.id for s in clinic.corpus]
        assert len(set(ids)) == len(ids)

    def test_generated_sql_parses_and_questions_carry_values(self, clinic):
        for sample in clinic.corpus[::101]:
            parse_sql(sample.gold_sql)
            assert "[" not in sample.template_question

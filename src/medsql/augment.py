"""Corpus growth: back-translation paraphrases.

Back-translation round-trips a question through a pivot language using a
translation endpoint (``POST {base_url}/translate`` with ``{"text",
"src", "tgt"}`` returning ``{"text"}``). Round trips that come back
byte-equal to the source are degenerate and dropped. A deterministic
offline stub translator stands in for the endpoint in tests and in
``--stub`` runs.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Protocol, Sequence, TypeVar

from .errors import TranslateError, UnknownPivot
from .records import parse_json
from .store import Paraphrase, Sample, with_synthetic

DEFAULT_PIVOTS = ("fr", "de")
TRANSLATE_URL_ENV = "MEDSQL_TRANSLATE_URL"


class Translator(Protocol):
    def translate(self, text: str, src: str, tgt: str) -> str: ...


class HttpTranslator:
    """Client for the endpoint at ``base_url``: ``timeout_ms`` per request, up to ``retries`` retries."""

    def __init__(self, base_url: str, timeout_ms: int = 10_000, retries: int = 2):
        self.base_url = base_url
        self.timeout_ms = timeout_ms
        self.retries = retries

    def translate(self, text: str, src: str, tgt: str) -> str:
        """POST one translation request. A non-200 status, a connection
        error, or a timeout is retried; a malformed 200 body is not."""
        # Imported here: urllib.request loads ssl and http.client, which
        # only the HTTP translator needs.
        import http.client
        import urllib.error
        import urllib.request

        url = self.base_url.rstrip("/") + "/translate"
        body = json.dumps({"text": text, "src": src, "tgt": tgt}).encode("utf-8")
        attempts = self.retries + 1
        last = "no attempt made"
        for _ in range(attempts):
            request = urllib.request.Request(
                url, data=body, headers={"Content-Type": "application/json"}, method="POST"
            )
            try:
                with urllib.request.urlopen(request, timeout=self.timeout_ms / 1000.0) as resp:
                    status, payload = resp.status, resp.read()
            except urllib.error.HTTPError as exc:
                exc.close()
                last = f"HTTP {exc.code}"
                continue
            except (OSError, http.client.HTTPException) as exc:
                last = str(exc)
                continue
            if status != 200:
                last = f"HTTP {status}"
                continue
            try:
                reply = parse_json(payload.decode("utf-8-sig"))
            except ValueError as exc:
                raise TranslateError(f"malformed 200 response from {url}: {exc}") from exc
            if not isinstance(reply, dict) or not isinstance(reply.get("text"), str):
                raise TranslateError(f'malformed 200 response from {url}: no "text" string in {reply!r:.80}')
            return reply["text"]
        raise TranslateError(f"{url} failed after {attempts} attempt(s): {last}")


class StubTranslator:
    """Deterministic offline translator with a reversible token mapping.

    en -> pivot wraps the text in a pivot marker; pivot -> en strips the
    marker and applies a pivot-specific rewrite: ``fr`` case-folds the
    text to lowercase, ``de`` swaps the first two words. A round trip is
    therefore degenerate exactly when the rewrite is a no-op, which makes
    expected synthetic counts computable in tests.
    """

    def translate(self, text: str, src: str, tgt: str) -> str:
        if src == "en":
            return f"[{tgt}] {text}"
        marker = f"[{src}] "
        inner = text[len(marker):] if text.startswith(marker) else text
        if src == "fr":
            return inner.lower()
        if src == "de":
            words = inner.split()
            if len(words) >= 2:
                words[0], words[1] = words[1], words[0]
            return " ".join(words)
        return inner


def back_translate(
    question: str,
    pivot: str,
    translator: Translator,
    *,
    pivots: Iterable[str] = DEFAULT_PIVOTS,
) -> str:
    """Round-trip a question en -> pivot -> en, whitespace-normalized.

    The pivot is validated against the configured set before any call is
    made; unknown pivots raise :class:`UnknownPivot`.
    """
    allowed = tuple(pivots)
    if pivot not in allowed:
        raise UnknownPivot(f"pivot {pivot!r} is not in the configured set {sorted(allowed)}")
    forward = translator.translate(question, "en", pivot)
    back = translator.translate(forward, pivot, "en")
    return " ".join(back.split())


@dataclass(frozen=True)
class AugmentReport:
    added: int
    dropped_degenerate: int
    errors: tuple[tuple[str, str, str], ...]  # (sample id, pivot, message)


@dataclass(frozen=True)
class AugmentResult:
    samples: list[Sample]
    report: AugmentReport


_T = TypeVar("_T")
_R = TypeVar("_R")


def map_in_order(work: Callable[[_T], _R], items: Sequence[_T], jobs: int) -> list[_R]:
    """``[work(item) for item in items]``, spread over ``jobs`` threads.

    Results come back in input order whatever ``jobs`` is. With one job
    or one item this is a plain loop with no executor.
    """
    if jobs <= 1 or len(items) <= 1:
        return [work(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(work, items))


def augment_corpus(
    corpus: list[Sample],
    pivots: Iterable[str],
    translator: Translator,
    *,
    jobs: int = 1,
) -> AugmentResult:
    """Back-translate every sample's template question through each pivot.

    Ids, gold SQL, and existing question fields are never altered; the
    round trips land in ``synthetic_paraphrases`` with their pivot as
    provenance. Degenerate round trips are dropped and counted. A failed
    translation is recorded per (sample, pivot) and the sample is kept
    without that pivot. Output order matches input order whatever ``jobs``
    is.
    """
    pivot_list = tuple(pivots)

    def work(sample: Sample) -> tuple[tuple[Paraphrase, ...], int, tuple[tuple[str, str, str], ...]]:
        added: list[Paraphrase] = []
        degenerate = 0
        errors: list[tuple[str, str, str]] = []
        for pivot in pivot_list:
            try:
                text = back_translate(
                    sample.template_question, pivot, translator, pivots=pivot_list
                )
            except TranslateError as exc:
                errors.append((sample.id, pivot, str(exc)))
                continue
            if text == sample.template_question:
                degenerate += 1
                continue
            added.append(Paraphrase(text, pivot))
        return tuple(added), degenerate, tuple(errors)

    results = map_in_order(work, corpus, jobs)
    out: list[Sample] = []
    total_added = 0
    total_degenerate = 0
    all_errors: list[tuple[str, str, str]] = []
    for sample, (added, degenerate, errors) in zip(corpus, results):
        out.append(with_synthetic(sample, added) if added else sample)
        total_added += len(added)
        total_degenerate += degenerate
        all_errors.extend(errors)
    return AugmentResult(out, AugmentReport(total_added, total_degenerate, tuple(all_errors)))

"""Self-contained ROUGE-1/2/L/SU4 evaluator.

Candidate summaries are compared against one or more reference summaries
with the settings conventional for length-budgeted news summarization:
lowercased alphanumeric tokenization, Porter stemming, truncation of the
candidate to the word or byte budget before scoring, and averaging of
per-reference scores when a topic has several references.

Metric ids are ``r1``, ``r2`` (clipped n-gram overlap), ``rl``
(summary-level union-LCS) and ``rsu4`` (skip-bigrams with at most four
intervening tokens, plus unigrams). Bootstrap confidence intervals are out
of scope; all values are point estimates.
"""

from __future__ import annotations

import csv
import io
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .corpus import Corpus, segment_sentences
from .selection import Budget
from .stem import porter_stem

METRIC_IDS = ("r1", "r2", "rl", "rsu4")

_TOKEN_RE = re.compile(r"[a-z0-9]+")


@dataclass(frozen=True)
class RougeScore:
    recall: float
    precision: float
    f1: float


def _prf(overlap: float, ref_total: float, cand_total: float) -> RougeScore:
    recall = overlap / ref_total if ref_total > 0 else 0.0
    precision = overlap / cand_total if cand_total > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return RougeScore(recall=recall, precision=precision, f1=f1)


def _average(scores: Sequence[RougeScore]) -> RougeScore:
    if not scores:
        raise ValueError("at least one reference summary is required")
    n = len(scores)
    return RougeScore(
        recall=sum(s.recall for s in scores) / n,
        precision=sum(s.precision for s in scores) / n,
        f1=sum(s.f1 for s in scores) / n,
    )


def tokenize(text: str, stem: bool = False) -> list[str]:
    """Lowercase alphanumeric tokens, optionally Porter-stemmed."""
    return TokenMemo(stem).tokens(text)


class TokenMemo:
    """Tokenization memo for one evaluation run.

    Stems each distinct token once and keeps the tokens of each reference
    text, so references are tokenized and stemmed once however many
    candidates are scored against them. Only token lists are kept (their
    strings are shared with the stem table); n-gram counts are rebuilt per
    use, which keeps the memo small. Scope one to a run (an
    ``evaluate_corpus`` call or a whole grid search), not to the process.
    """

    def __init__(self, stem: bool = True):
        self.stem = stem
        self._stems: dict[str, str] = {}
        self._reference_tokens: dict[str, list[str]] = {}
        self._reference_sentences: dict[str, list[list[str]]] = {}

    def tokens(self, text: str) -> list[str]:
        """Lowercase alphanumeric tokens, Porter-stemmed if ``self.stem``."""
        tokens = _TOKEN_RE.findall(text.lower())
        if not self.stem:
            return tokens
        stems = self._stems
        out = []
        for token in tokens:
            stemmed = stems.get(token)
            if stemmed is None:
                stemmed = stems[token] = porter_stem(token)
            out.append(stemmed)
        return out

    def sentence_tokens(self, text: str) -> list[list[str]]:
        """Tokens of each non-empty sentence of ``text``."""
        sentences = [self.tokens(s.text) for s in segment_sentences(text)]
        return [s for s in sentences if s]

    def reference_tokens(self, text: str) -> list[str]:
        """``tokens(text)``, computed once per reference text."""
        if text not in self._reference_tokens:
            self._reference_tokens[text] = self.tokens(text)
        return self._reference_tokens[text]

    def reference_sentences(self, text: str) -> list[list[str]]:
        """``sentence_tokens(text)``, computed once per reference text."""
        if text not in self._reference_sentences:
            self._reference_sentences[text] = self.sentence_tokens(text)
        return self._reference_sentences[text]


def truncate(text: str, budget: Budget) -> str:
    """Cut a summary down to its budget, keeping whole tokens.

    Word budgets keep the first ``limit`` whitespace tokens. Byte budgets
    keep the longest token prefix whose total UTF-8 length, including the
    single joining spaces, stays within the limit.
    """
    tokens = text.split()
    if budget.unit == "words":
        return " ".join(tokens[: budget.limit])
    kept: list[str] = []
    used = 0
    for token in tokens:
        cost = len(token.encode("utf-8")) + (1 if kept else 0)
        if used + cost > budget.limit:
            break
        kept.append(token)
        used += cost
    return " ".join(kept)


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    """n-gram counts; a unigram is keyed by its token, a longer n-gram by
    the tuple of its tokens."""
    if n == 1:
        return Counter(tokens)
    return Counter(zip(*(tokens[i:] for i in range(n))))


def _clipped_overlap(cand: Counter, ref: Counter) -> int:
    return sum(min(count, ref[gram]) for gram, count in cand.items() if gram in ref)


def rouge_n(
    candidate: str,
    references: Sequence[str],
    n: int,
    stem: bool = True,
    memo: TokenMemo | None = None,
) -> RougeScore:
    """Clipped n-gram overlap, averaged across references.

    A given ``memo`` decides stemming in place of ``stem``.
    """
    if n not in (1, 2):
        raise ValueError("n must be 1 or 2")
    memo = memo if memo is not None else TokenMemo(stem)
    cand_counts = _ngrams(memo.tokens(candidate), n)
    cand_total = sum(cand_counts.values())
    per_ref = []
    for reference in references:
        ref_counts = _ngrams(memo.reference_tokens(reference), n)
        overlap = _clipped_overlap(cand_counts, ref_counts)
        per_ref.append(_prf(overlap, sum(ref_counts.values()), cand_total))
    return _average(per_ref)


def _match_masks(tokens: Sequence[str]) -> dict[str, int]:
    """Token -> bit mask of its positions in ``tokens`` (bit j for position j)."""
    masks: dict[str, int] = {}
    for j, token in enumerate(tokens):
        masks[token] = masks.get(token, 0) | (1 << j)
    return masks


def _lcs_match_positions(
    ref_tokens: Sequence[str], cand_tokens: Sequence[str], cand_masks: Mapping[str, int]
) -> set[int]:
    """Reference-token positions on one LCS alignment path.

    Bit-parallel LCS (Allison & Dix 1986, in Hyyrö's 2004 form): row ``i``
    of the DP table is one integer ``v`` over the candidate positions, where
    bit ``j - 1`` is clear exactly when ``table[i][j] == table[i][j - 1] + 1``,
    so ``table[i][j] = j - popcount(v & ((1 << j) - 1))``. ``cand_masks`` is
    ``_match_masks(cand_tokens)``. The traceback rebuilds the cells it needs
    from the kept rows and follows the table rule: diagonal on equal tokens,
    up only when ``table[i-1][j] > table[i][j-1]``, left on a tie.
    """
    full = (1 << len(cand_tokens)) - 1
    v = full
    rows = [v]
    mask_of = cand_masks.get
    for token in ref_tokens:
        u = v & mask_of(token, 0)
        if u:
            v = ((v + u) | (v - u)) & full
        rows.append(v)
    positions: set[int] = set()
    # Each diagonal step lowers the table value on the path by one, and a
    # zero cell has no equal tokens left before it, so the walk stops there.
    remaining = len(cand_tokens) - v.bit_count()
    i, j = len(ref_tokens), len(cand_tokens)
    while remaining:
        if ref_tokens[i - 1] == cand_tokens[j - 1]:
            positions.add(i - 1)
            i -= 1
            j -= 1
            remaining -= 1
            continue
        up = j - (rows[i - 1] & ((1 << j) - 1)).bit_count()
        left = j - 1 - (rows[i] & ((1 << (j - 1)) - 1)).bit_count()
        if up > left:
            i -= 1
        else:
            j -= 1
    return positions


def rouge_l(
    candidate: str,
    references: Sequence[str],
    stem: bool = True,
    memo: TokenMemo | None = None,
) -> RougeScore:
    """Summary-level longest-common-subsequence score.

    For each reference sentence, the match positions of its LCS with every
    candidate sentence are unioned; the union sizes are summed over reference
    sentences. Recall divides by the reference token count, precision by the
    candidate token count; per-reference scores are averaged. A given
    ``memo`` decides stemming in place of ``stem``.
    """
    memo = memo if memo is not None else TokenMemo(stem)
    cand_sents = [(s, _match_masks(s)) for s in memo.sentence_tokens(candidate)]
    cand_total = sum(len(s) for s, _ in cand_sents)
    per_ref = []
    for reference in references:
        ref_sents = memo.reference_sentences(reference)
        ref_total = sum(len(s) for s in ref_sents)
        hits = 0
        for ref_sent in ref_sents:
            union: set[int] = set()
            for cand_sent, cand_masks in cand_sents:
                union |= _lcs_match_positions(ref_sent, cand_sent, cand_masks)
            hits += len(union)
        per_ref.append(_prf(hits, ref_total, cand_total))
    return _average(per_ref)


def _su4_counts(sentences: Sequence[Sequence[str]]) -> Counter:
    """Skip-bigrams with at most 4 intervening tokens, plus unigrams.

    Skip-bigrams never cross sentence boundaries; with zero allowed
    intervening tokens they would degenerate to ordinary bigrams. A unigram
    is keyed by its token (a ``str``) and a skip-bigram by its ``(left,
    right)`` tuple, so the two kinds never share a key.
    """
    counts: Counter = Counter()
    for tokens in sentences:
        counts.update(tokens)
        for gap in range(1, 6):
            counts.update(zip(tokens, tokens[gap:]))
    return counts


def rouge_su4(
    candidate: str,
    references: Sequence[str],
    stem: bool = True,
    memo: TokenMemo | None = None,
) -> RougeScore:
    """Skip-bigram(4) + unigram overlap, averaged across references.

    A given ``memo`` decides stemming in place of ``stem``.
    """
    memo = memo if memo is not None else TokenMemo(stem)
    cand_counts = _su4_counts(memo.sentence_tokens(candidate))
    cand_total = sum(cand_counts.values())
    per_ref = []
    for reference in references:
        ref_counts = _su4_counts(memo.reference_sentences(reference))
        overlap = _clipped_overlap(cand_counts, ref_counts)
        per_ref.append(_prf(overlap, sum(ref_counts.values()), cand_total))
    return _average(per_ref)


_METRIC_FNS = {
    "r1": lambda cand, refs, memo: rouge_n(cand, refs, 1, memo=memo),
    "r2": lambda cand, refs, memo: rouge_n(cand, refs, 2, memo=memo),
    "rl": lambda cand, refs, memo: rouge_l(cand, refs, memo=memo),
    "rsu4": lambda cand, refs, memo: rouge_su4(cand, refs, memo=memo),
}


def score_all(
    candidate: str,
    references: Sequence[str],
    metrics: Sequence[str],
    memo: TokenMemo | None = None,
) -> dict[str, RougeScore]:
    """Every requested metric, Porter-stemmed unless a given ``memo`` says
    otherwise."""
    unknown = set(metrics) - set(METRIC_IDS)
    if unknown:
        raise ValueError(f"unknown metrics: {sorted(unknown)}")
    memo = memo if memo is not None else TokenMemo()
    return {m: _METRIC_FNS[m](candidate, references, memo) for m in metrics}


@dataclass
class RougeReport:
    """Per-topic and corpus-averaged scores for the requested metrics."""

    metrics: tuple[str, ...]
    report_kind: str  # "recall" | "f1"
    per_topic: dict[str, dict[str, RougeScore]]
    mean: dict[str, RougeScore]

    def headline(self, metric: str) -> float:
        return getattr(self.mean[metric], self.report_kind)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["topic_id", "metric", "recall", "precision", "f1"])
        for label, scores in [*self.per_topic.items(), ("MEAN", self.mean)]:
            for metric in self.metrics:
                s = scores[metric]
                writer.writerow([label, metric, f"{s.recall:.6f}", f"{s.precision:.6f}", f"{s.f1:.6f}"])
        return out.getvalue()

    def to_text_table(self) -> str:
        stat = self.report_kind
        rows = [
            [label] + [f"{getattr(scores[m], stat):.4f}" for m in self.metrics]
            for label, scores in [*self.per_topic.items(), ("MEAN", self.mean)]
        ]
        return text_table(["topic_id"] + [f"{m}-{stat}" for m in self.metrics], rows)


def text_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Left-aligned columns as wide as their widest cell, two spaces apart."""
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    return "".join(fmt.format(*row) + "\n" for row in [header, *rows])


class EvaluationError(Exception):
    """Raised when a corpus cannot be evaluated as requested."""


def evaluate_corpus(
    summaries: Mapping[str, str],
    corpus: Corpus | Iterable,
    budget: Budget,
    metrics: Sequence[str] = METRIC_IDS,
    report_kind: str = "recall",
    memo: TokenMemo | None = None,
) -> RougeReport:
    """Score one summary per topic against the topic's references.

    Summaries are truncated to the budget first. Every topic needs at least
    one reference and one summary, and every summary must name a topic of
    the corpus; the corpus mean is the arithmetic mean
    over topics. Tokens are Porter-stemmed. Callers scoring many summary
    sets against the same corpus pass one ``memo``, which then decides
    stemming.
    """
    memo = memo if memo is not None else TokenMemo()
    if report_kind not in ("recall", "f1"):
        raise ValueError(f"unknown report kind {report_kind!r}")
    per_topic: dict[str, dict[str, RougeScore]] = {}
    for topic in corpus:
        if not topic.references:
            raise EvaluationError(f"topic {topic.topic_id!r} has no reference summaries")
        if topic.topic_id not in summaries:
            raise EvaluationError(f"no summary provided for topic {topic.topic_id!r}")
        candidate = truncate(summaries[topic.topic_id], budget)
        per_topic[topic.topic_id] = score_all(candidate, list(topic.references), metrics, memo=memo)
    if not per_topic:
        raise EvaluationError("corpus has no topics")
    unknown = sorted(tid for tid in summaries if tid not in per_topic)
    if unknown:
        raise EvaluationError(f"summaries name topics not in the corpus: {unknown}")
    mean = {
        m: _average([scores[m] for scores in per_topic.values()]) for m in metrics
    }
    return RougeReport(
        metrics=tuple(metrics), report_kind=report_kind, per_topic=per_topic, mean=mean
    )

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
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .corpus import Corpus, segment_sentences, tokens
from .selection import Budget
from .stem import porter_stem

METRIC_IDS = ("r1", "r2", "rl", "rsu4")


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


class TokenMemo:
    """Token ids, reference tables and scores for one evaluation run.

    Each distinct token is stemmed once and its stem gets a small integer
    id, so tokens with one stem share an id. Every metric scores a
    candidate against one table per (references, metric): the references'
    r1 or r2 n-gram counts, their rsu4 skip-bigram and unigram counts, or
    for ROUGE-L each reference's sentence ids. The tables a score needs are
    built together from one tokenization of each reference and kept, so
    under one metric list references are tokenized once however many
    candidates are scored against them.
    ``evaluate_corpus`` keeps each topic's scores here, keyed by
    (truncated summary, references, metric list), so a summary text that
    recurs (as across the points of a grid search) is scored once; a
    different metric list is scored anew. Candidates' tokens are not kept.
    Scope one to a run (an ``evaluate_corpus`` call, an ablation or a whole
    grid search), not to the process.
    """

    def __init__(self, stem: bool = True):
        self.stem = stem
        self._ids: dict[bytes, int] = {}  # token -> id of its stem
        self._stem_ids: dict[str | bytes, int] = {}
        self._tables: dict[tuple[tuple[str, ...], str], _CountTable | _LcsTable] = {}
        self._scores: dict[tuple[str, tuple[str, ...], tuple[str, ...]], dict[str, RougeScore]] = {}

    def ids(self, text: str) -> list[int]:
        """The id of each token (``corpus.tokens``) of ``text``;
        Porter-stemmed if ``self.stem``."""
        text_tokens = tokens(text)
        ids = self._ids
        try:
            return [ids[token] for token in text_tokens]
        except KeyError:
            for token in text_tokens:
                if token not in ids:
                    stemmed = porter_stem(token.decode()) if self.stem else token
                    ids[token] = self._stem_ids.setdefault(stemmed, len(self._stem_ids))
            return [ids[token] for token in text_tokens]

    def sentence_ids(self, text: str) -> list[list[int]]:
        """Token ids of each non-empty sentence of ``text``."""
        sentences = [self.ids(s.text) for s in segment_sentences(text)]
        return [s for s in sentences if s]

    def tables(self, references: tuple[str, ...], metrics: Sequence[str]) -> list[_CountTable | _LcsTable]:
        """The table of ``references`` under each of ``metrics``, in order.

        The tables not kept yet are built together, from one ``_Tokens`` per
        reference, so each reference is tokenized and segmented once per
        build whatever the metrics; the tokens are dropped with the build.
        Every table built is kept, so a reference set is tokenized once per
        run under one metric list."""
        tables = [self._tables.get((references, metric)) for metric in metrics]
        if None in tables:
            ref_tokens = [_Tokens(self, r) for r in references]
            for i, metric in enumerate(metrics):
                if tables[i] is None:
                    tables[i] = self._tables[references, metric] = _TABLES[metric](ref_tokens)
        return tables

    def scores(self, candidate: str, references: tuple[str, ...], metrics: tuple[str, ...]) -> dict[str, RougeScore]:
        """``score_all`` of ``candidate`` under this memo, computed once per
        (candidate, references, metrics); each call gets its own dict."""
        key = (candidate, references, metrics)
        scores = self._scores.get(key)
        if scores is None:
            scores = self._scores[key] = score_all(candidate, references, metrics, memo=self)
        return dict(scores)


class _Tokens:
    """A text's token ids and sentence ids under a memo, each computed once,
    on first use."""

    def __init__(self, memo: TokenMemo, text: str):
        self.memo = memo
        self.text = text

    @cached_property
    def ids(self) -> np.ndarray:
        return np.array(self.memo.ids(self.text), dtype=np.int64)

    @cached_property
    def sentences(self) -> list[list[int]]:
        return self.memo.sentence_ids(self.text)


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


# Count keys are int64: a unigram's key is its token id, and a pair's key is
# ((left + 1) << 32) | right, which is at least 2**32 and so never equals a
# unigram key. Ids stay far below 2**31.
def _pair_keys(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    return ((left + 1) << 32) | right


def _su4_keys(sentences: Sequence[Sequence[int]]) -> np.ndarray:
    """One key per unigram and per skip-bigram with at most 4 intervening
    tokens; skip-bigrams never cross sentence boundaries."""
    lengths = [len(s) for s in sentences]
    flat = np.fromiter(chain.from_iterable(sentences), dtype=np.int64, count=sum(lengths))
    # How many tokens follow each position within its own sentence.
    after = np.repeat(np.cumsum(lengths, dtype=np.int64), lengths) - np.arange(flat.size) - 1
    keys = [flat]
    for gap in range(1, 6):
        left = np.flatnonzero(after >= gap)
        keys.append(_pair_keys(flat[left], flat[left + gap]))
    return np.concatenate(keys)


def _key_counts(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and how often each occurs.

    Sort-based rather than ``np.unique``, which costs more resident memory
    and time for the same result. The stable sort, too, keeps the resident
    set smaller than the default kind, whose vectorized code pages in about
    0.35 MB more on x86-64.
    """
    keys = np.sort(keys, kind="stable")
    # bounds: where each run of equal keys starts, then the end.
    edges = np.empty(keys.size + 1, dtype=bool)
    edges[0] = edges[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=edges[1:-1])
    bounds = np.flatnonzero(edges)
    return keys[bounds[:-1]], bounds[1:] - bounds[:-1]


_SENTINEL = np.array([np.iinfo(np.int64).max])


class _CountTable:
    """Key counts of several references over the sorted union of their keys.

    ``keys_of`` gives a text's keys under the table's metric. ``keys`` ends
    in a sentinel above every real key, with count 0, so every
    ``searchsorted`` position of a real key is a valid column. ``counts[r]``
    holds reference ``r``'s count of each key and ``totals[r]`` its number
    of keys.
    """

    def __init__(self, keys_of: Callable[[_Tokens], np.ndarray], references: Iterable[_Tokens]):
        self.keys_of = keys_of
        per_reference = [keys_of(reference) for reference in references]
        counted = [_key_counts(keys) for keys in per_reference]
        self.keys = _key_counts(np.concatenate([_SENTINEL, *(k for k, _ in counted)]))[0]
        self.counts = np.zeros((len(counted), self.keys.size), dtype=np.int64)
        for row, (keys, counts) in zip(self.counts, counted):
            row[np.searchsorted(self.keys, keys)] = counts
        self.totals = [len(keys) for keys in per_reference]

    def score(self, candidate: _Tokens) -> RougeScore:
        """The candidate's clipped overlap with each reference, as recall,
        precision and F1 averaged across references."""
        keys = self.keys_of(candidate)
        distinct, counts = _key_counts(keys)
        columns = np.searchsorted(self.keys, distinct)
        hit = self.keys[columns] == distinct
        overlaps = np.minimum(self.counts[:, columns[hit]], counts[hit]).sum(axis=1)
        return _average([_prf(o, total, keys.size) for o, total in zip(overlaps.tolist(), self.totals)])


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
    metric = f"r{n}"
    return score_all(candidate, references, [metric], memo if memo is not None else TokenMemo(stem))[metric]


class _PackedSentences:
    """Candidate sentences side by side in one integer, for bit-parallel LCS.

    Token ``j`` of sentence ``s`` is bit ``offsets[s] + j``, and one zero
    guard bit follows each sentence. ``masks`` maps a token id to the bits
    of its positions, and ``full`` has every token bit set.
    """

    def __init__(self, sentences: list[list[int]]):
        self.sentences = sentences
        self.offsets = []
        self.masks: dict[int, int] = {}
        bit = 0
        for sentence in sentences:
            self.offsets.append(bit)
            for token in sentence:
                self.masks[token] = self.masks.get(token, 0) | (1 << bit)
                bit += 1
            bit += 1
        self.full = sum(((1 << len(s)) - 1) << o for s, o in zip(sentences, self.offsets))


def _lcs_union(ref_tokens: Sequence[int], packed: _PackedSentences) -> int:
    """Reference positions on the LCS alignment of ``ref_tokens`` with any
    candidate sentence, as a bit mask (bit ``i`` for position ``i``).

    Bit-parallel LCS (Allison & Dix 1986, in Hyyrö's 2004 form), run once
    over all candidate sentences: row ``i`` is one integer ``v`` where, within
    sentence ``s``, bit ``offsets[s] + j - 1`` is clear exactly when
    ``table[i][j] == table[i][j - 1] + 1`` in that sentence's DP table, so
    ``table[i][j] = j - popcount`` of the sentence's bits below ``j``. Within a
    sentence, ``u`` is a subset of ``v``, so ``v - u`` never borrows and a
    carry of ``v + u`` out of the sentence's top bit stops at its guard bit,
    which ``& full`` clears again: each sentence's bits are the row a
    recurrence over that sentence alone computes.

    Only sentences with a non-empty LCS are traced back, by the table rule:
    diagonal on equal tokens, up only when ``table[i-1][j] > table[i][j-1]``,
    left on a tie. On unequal tokens ``table[i][j]`` is the larger of those
    two cells, so up is strictly larger exactly when ``table[i][j] ==
    table[i][j-1] + 1``: when column ``j``'s bit of row ``i`` is clear. Each
    step reads one bit of a kept row.
    """
    full = packed.full
    v = full
    rows = [v]
    mask_of = packed.masks.get
    for token in ref_tokens:
        u = v & mask_of(token, 0)
        if u:
            v = ((v + u) | (v - u)) & full
        rows.append(v)
    positions = 0
    for cand_tokens, offset in zip(packed.sentences, packed.offsets):
        i, j = len(ref_tokens), len(cand_tokens)
        # The walk follows table values down from the LCS length: a diagonal
        # step lowers it by one, and a zero cell has no equal tokens left
        # before it, so the walk stops there.
        remaining = j - ((v >> offset) & ((1 << j) - 1)).bit_count()
        bit = (1 << (offset + j)) >> 1  # column j's bit
        while remaining:
            if ref_tokens[i - 1] == cand_tokens[j - 1]:
                positions |= 1 << (i - 1)
                i -= 1
                j -= 1
                bit >>= 1
                remaining -= 1
            elif rows[i] & bit:
                j -= 1
                bit >>= 1
            else:
                i -= 1
    return positions


class _LcsTable:
    """The sentence ids of each of several references, for ROUGE-L."""

    def __init__(self, references: Iterable[_Tokens]):
        self.sentences = [reference.sentences for reference in references]

    def score(self, candidate: _Tokens) -> RougeScore:
        """The candidate's ROUGE-L against each reference, averaged."""
        packed = _PackedSentences(candidate.sentences)
        cand_total = sum(len(s) for s in packed.sentences)
        per_ref = []
        for ref_sents in self.sentences:
            ref_total = sum(len(s) for s in ref_sents)
            hits = sum(_lcs_union(ref_sent, packed).bit_count() for ref_sent in ref_sents)
            per_ref.append(_prf(hits, ref_total, cand_total))
        return _average(per_ref)


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
    candidate token count; per-reference scores are averaged. One
    bit-parallel recurrence per reference sentence covers all candidate
    sentences at once (see ``_lcs_union``). A given ``memo`` decides stemming
    in place of ``stem``.
    """
    return score_all(candidate, references, ["rl"], memo if memo is not None else TokenMemo(stem))["rl"]


def rouge_su4(
    candidate: str,
    references: Sequence[str],
    stem: bool = True,
    memo: TokenMemo | None = None,
) -> RougeScore:
    """Skip-bigram(4) + unigram overlap, averaged across references.

    Skip-bigrams never cross sentence boundaries; with zero allowed
    intervening tokens they would degenerate to ordinary bigrams. A given
    ``memo`` decides stemming in place of ``stem``.
    """
    return score_all(candidate, references, ["rsu4"], memo if memo is not None else TokenMemo(stem))["rsu4"]


# Each metric's table over the references' tokens.
_TABLES = {
    "r1": partial(_CountTable, lambda tokens: tokens.ids),
    "r2": partial(_CountTable, lambda tokens: _pair_keys(tokens.ids[:-1], tokens.ids[1:])),
    "rl": _LcsTable,
    "rsu4": partial(_CountTable, lambda tokens: _su4_keys(tokens.sentences)),
}


def score_all(
    candidate: str,
    references: Sequence[str],
    metrics: Sequence[str],
    memo: TokenMemo | None = None,
) -> dict[str, RougeScore]:
    """Every requested metric, Porter-stemmed unless a given ``memo`` says
    otherwise. The candidate is tokenized and segmented at most once for all
    of them."""
    unknown = set(metrics) - set(METRIC_IDS)
    if unknown:
        raise ValueError(f"unknown metrics: {sorted(unknown)}")
    memo = memo if memo is not None else TokenMemo()
    tokens = _Tokens(memo, candidate)
    references = tuple(references)
    return {m: table.score(tokens) for m, table in zip(metrics, memo.tables(references, metrics))}


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
    stemming and scores each distinct (truncated summary, references,
    metrics) once.
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
        per_topic[topic.topic_id] = memo.scores(candidate, tuple(topic.references), tuple(metrics))
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

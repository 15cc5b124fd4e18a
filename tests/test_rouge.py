"""ROUGE metrics against hand-computed fixtures and independent oracles."""

from __future__ import annotations

import csv
import io
import random
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from helpers import loop_su4_counts, make_corpus, make_topic, slice_ngrams, table_lcs_match_positions
from treesum import rouge
from treesum.rouge import (
    EvaluationError,
    evaluate_corpus,
    rouge_l,
    rouge_n,
    rouge_su4,
    score_all,
    tokenize,
    truncate,
)
from treesum.selection import Budget


def test_truncate_words():
    assert truncate("a b c", Budget("words", 2)) == "a b"


def test_truncate_bytes_whole_tokens():
    # Keeping both tokens would need 5 bytes including the joining space.
    assert truncate("aa bb", Budget("bytes", 4)) == "aa"


def test_truncate_shorter_text_unchanged():
    assert truncate("short text", Budget("words", 50)) == "short text"


@given(
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=120),
    st.integers(min_value=1, max_value=40),
    st.sampled_from(["words", "bytes"]),
)
def test_truncate_is_idempotent(text, limit, unit):
    budget = Budget(unit, limit)
    once = truncate(text, budget)
    assert truncate(once, budget) == once


# --- ROUGE-N ---------------------------------------------------------------

def test_rouge_n_identity():
    score = rouge_n("The cat sat on the mat.", ["The cat sat on the mat."], 1)
    assert (score.recall, score.precision, score.f1) == (1.0, 1.0, 1.0)


def test_rouge_n_unigram_hand_count():
    score = rouge_n("the cat sat", ["the cat slept"], 1, stem=False)
    assert score.recall == pytest.approx(2 / 3)
    assert score.precision == pytest.approx(2 / 3)
    assert score.f1 == pytest.approx(2 / 3)


def test_rouge_n_bigram_hand_count():
    score = rouge_n("the cat sat", ["the cat slept"], 2, stem=False)
    assert score.recall == pytest.approx(0.5)
    assert score.precision == pytest.approx(0.5)


def test_rouge_n_empty_candidate():
    score = rouge_n("", ["some reference"], 1)
    assert (score.recall, score.precision, score.f1) == (0.0, 0.0, 0.0)


def test_rouge_n_clipped_counts():
    # candidate counts a:3 b:1; reference a:1 b:2 -> clipped overlap 2.
    score = rouge_n("a a a b", ["a b b"], 1, stem=False)
    assert score.recall == pytest.approx(2 / 3)
    assert score.precision == pytest.approx(0.5)
    assert score.f1 == pytest.approx(4 / 7)


def test_rouge_n_stemming_merges_inflections():
    score = rouge_n("the cats are running", ["the cat runs"], 1, stem=True)
    assert score.recall == pytest.approx(1.0)
    assert score.precision == pytest.approx(3 / 4)
    assert score.f1 == pytest.approx(6 / 7)


def test_rouge_n_multi_reference_average():
    score = rouge_n("a b", ["a b", "c d"], 1, stem=False)
    assert score.recall == pytest.approx(0.5)
    assert score.precision == pytest.approx(0.5)
    assert score.f1 == pytest.approx(0.5)


@given(
    st.lists(st.sampled_from("abcdefghij"), min_size=1, max_size=10, unique=True),
    st.lists(st.sampled_from("abcdefghij"), min_size=1, max_size=10, unique=True),
)
def test_rouge1_on_unique_tokens_is_set_overlap(cand_tokens, ref_tokens):
    candidate = " ".join(cand_tokens)
    reference = " ".join(ref_tokens)
    score = rouge_n(candidate, [reference], 1, stem=False)
    expected = len(set(cand_tokens) & set(ref_tokens)) / len(ref_tokens)
    assert score.recall == pytest.approx(expected)


@given(
    st.lists(st.sampled_from("abcde"), min_size=1, max_size=12),
    st.lists(st.sampled_from("abcde"), min_size=1, max_size=12),
)
def test_rouge_n_role_swap_symmetry(a_tokens, b_tokens):
    a = " ".join(a_tokens)
    b = " ".join(b_tokens)
    forward = rouge_n(a, [b], 1, stem=False)
    backward = rouge_n(b, [a], 1, stem=False)
    assert forward.recall == pytest.approx(backward.precision)
    assert forward.precision == pytest.approx(backward.recall)


# --- ROUGE-L ---------------------------------------------------------------

@lru_cache(maxsize=None)
def _lcs_brute(a: tuple, b: tuple) -> int:
    """Independent recursive LCS-length oracle."""
    if not a or not b:
        return 0
    if a[-1] == b[-1]:
        return 1 + _lcs_brute(a[:-1], b[:-1])
    return max(_lcs_brute(a[:-1], b), _lcs_brute(a, b[:-1]))


def test_rouge_l_identity():
    score = rouge_l("A cat sat here.", ["A cat sat here."])
    assert (score.recall, score.precision, score.f1) == (1.0, 1.0, 1.0)


def test_rouge_l_hand_computed_order_swap():
    score = rouge_l("a b c d", ["a c b d"], stem=False)
    assert score.recall == pytest.approx(3 / 4)
    assert score.precision == pytest.approx(3 / 4)


def test_rouge_l_disjoint_vocabulary():
    score = rouge_l("aa bb cc", ["dd ee ff"], stem=False)
    assert (score.recall, score.precision, score.f1) == (0.0, 0.0, 0.0)


def test_rouge_l_union_over_candidate_sentences():
    # Each reference sentence finds half its tokens in each candidate
    # sentence; the union credits all four tokens.
    score = rouge_l("w1 w2. w3 w4.", ["w1 w3. w2 w4."], stem=False)
    assert score.recall == pytest.approx(1.0)
    assert score.precision == pytest.approx(1.0)


def test_rouge_l_empty_candidate():
    score = rouge_l("", ["anything here"], stem=False)
    assert (score.recall, score.precision, score.f1) == (0.0, 0.0, 0.0)


@given(
    st.lists(st.sampled_from("abcd"), min_size=1, max_size=12),
    st.lists(st.sampled_from("abcd"), min_size=1, max_size=12),
)
def test_rouge_l_matches_brute_force_on_single_sentences(cand_tokens, ref_tokens):
    candidate = " ".join(cand_tokens)
    reference = " ".join(ref_tokens)
    lcs = _lcs_brute(tuple(cand_tokens), tuple(ref_tokens))
    score = rouge_l(candidate, [reference], stem=False)
    assert score.recall == pytest.approx(lcs / len(ref_tokens))
    assert score.precision == pytest.approx(lcs / len(cand_tokens))


def _random_tokens(rng: random.Random, alphabet: str, max_len: int) -> list[str]:
    # 63 to 65 tokens put the candidate masks on both sides of a machine word.
    lengths = [0, 1, rng.randint(0, max_len)] + [n for n in (63, 64, 65) if n <= max_len]
    return [rng.choice(alphabet) for _ in range(rng.choice(lengths))]


def test_lcs_match_positions_match_table_oracle():
    rng = random.Random(4)
    for case in range(400):
        alphabet = "abcd"[: rng.randint(1, 4)]
        max_len = 150 if case % 4 == 0 else 20
        ref = _random_tokens(rng, alphabet, max_len)
        cand = _random_tokens(rng, alphabet, max_len)
        got = rouge._lcs_match_positions(ref, cand, rouge._match_masks(cand))
        assert got == table_lcs_match_positions(ref, cand), (ref, cand)


def _random_summary(rng: random.Random, alphabet: str) -> str:
    sentences = [_random_tokens(rng, alphabet, 70) for _ in range(rng.randint(1, 4))]
    return " ".join(" ".join(tokens) + "." for tokens in sentences)


def test_rouge_l_matches_table_oracle_on_multi_sentence_summaries(monkeypatch):
    rng = random.Random(11)
    cases = []
    for _ in range(120):
        alphabet = "abcd"[: rng.randint(1, 4)]
        references = [_random_summary(rng, alphabet) for _ in range(rng.randint(1, 3))]
        cases.append((_random_summary(rng, alphabet), references))
    got = [rouge_l(candidate, references, stem=False) for candidate, references in cases]
    monkeypatch.setattr(
        rouge, "_lcs_match_positions", lambda ref, cand, masks: table_lcs_match_positions(ref, cand)
    )
    expected = [rouge_l(candidate, references, stem=False) for candidate, references in cases]
    # RougeScore equality compares recall, precision and F1 exactly.
    assert got == expected


def _counting_cases():
    """Seeded (candidate, references) pairs over small vocabularies, so that
    n-grams and skip-bigrams repeat within and across texts."""
    rng = random.Random(29)
    words = ["a", "b", "c", "d", "ab", "ba", "u", "sb"]
    cases = []
    for _ in range(150):
        alphabet = words[: rng.randint(1, len(words))]

        def summary():
            sentences = [
                [rng.choice(alphabet) for _ in range(rng.randint(0, 14))] for _ in range(rng.randint(1, 4))
            ]
            return " ".join(" ".join(tokens) + "." for tokens in sentences)

        cases.append((summary(), [summary() for _ in range(rng.randint(1, 3))]))
    return cases


def test_rouge_n_and_su4_match_loop_counting(monkeypatch):
    cases = _counting_cases()
    metrics = {
        "r1": lambda cand, refs: rouge_n(cand, refs, 1, stem=False),
        "r2": lambda cand, refs: rouge_n(cand, refs, 2, stem=False),
        "rsu4": lambda cand, refs: rouge_su4(cand, refs, stem=False),
    }
    got = {name: [fn(cand, refs) for cand, refs in cases] for name, fn in metrics.items()}
    assert any(score.recall not in (0.0, 1.0) for score in got["rsu4"])
    monkeypatch.setattr(rouge, "_ngrams", slice_ngrams)
    monkeypatch.setattr(rouge, "_su4_counts", loop_su4_counts)
    expected = {name: [fn(cand, refs) for cand, refs in cases] for name, fn in metrics.items()}
    # RougeScore equality compares recall, precision and F1 exactly.
    assert got == expected


# --- ROUGE-SU4 ---------------------------------------------------------------

def test_rouge_su4_identical_two_tokens():
    score = rouge_su4("alpha beta", ["alpha beta"], stem=False)
    assert (score.recall, score.precision, score.f1) == (1.0, 1.0, 1.0)


def test_rouge_su4_hand_enumerated():
    # candidate set {ab, ac, bc, a, b, c}; reference set {ac, a, c}.
    score = rouge_su4("a b c", ["a c"], stem=False)
    assert score.recall == pytest.approx(1.0)
    assert score.precision == pytest.approx(0.5)
    assert score.f1 == pytest.approx(2 / 3)


def test_rouge_su4_empty_candidate():
    score = rouge_su4("", ["a b"], stem=False)
    assert (score.recall, score.precision, score.f1) == (0.0, 0.0, 0.0)


def test_rouge_su4_gap_boundary():
    # Four intervening tokens is within the window...
    score = rouge_su4("a b c d e f", ["a f"], stem=False)
    assert score.recall == pytest.approx(1.0)
    # ...five is not: only the two unigrams overlap.
    score = rouge_su4("a b c d e f g", ["a g"], stem=False)
    assert score.recall == pytest.approx(2 / 3)


def test_tokenizer_lowercases_and_keeps_digits():
    assert tokenize("Back in 1999, U.S. GDP grew!") == ["back", "in", "1999", "u", "s", "gdp", "grew"]


# --- corpus evaluation -------------------------------------------------------

def test_evaluate_corpus_identity_summaries():
    corpus = make_corpus(
        make_topic("t1", ["A first document sentence."], ["A first document sentence."]),
        make_topic("t2", ["Another document lives here."], ["Another document lives here."]),
    )
    summaries = {"t1": "A first document sentence.", "t2": "Another document lives here."}
    report = evaluate_corpus(summaries, corpus, Budget("words", 100))
    for metric in ("r1", "r2", "rl", "rsu4"):
        assert report.mean[metric].recall == pytest.approx(1.0)
        assert report.mean[metric].f1 == pytest.approx(1.0)


def test_evaluate_corpus_mean_of_extremes():
    corpus = make_corpus(
        make_topic("hit", ["alpha beta gamma."], ["alpha beta gamma."]),
        make_topic("miss", ["delta epsilon zeta."], ["omega psi chi."]),
    )
    summaries = {"hit": "alpha beta gamma.", "miss": "delta epsilon zeta."}
    report = evaluate_corpus(summaries, corpus, Budget("words", 100), metrics=["r1"])
    assert report.mean["r1"].recall == pytest.approx(0.5)


def test_evaluate_corpus_multi_reference_is_mean_over_references():
    refs = ["a b", "a c", "a d", "b c"]
    corpus = make_corpus(make_topic("t", ["a b."], refs))
    report = evaluate_corpus({"t": "a b"}, corpus, Budget("words", 100), metrics=["r1"])
    # Per-reference recalls: 1.0, 0.5, 0.5, 0.5 -> mean 0.625.
    assert report.per_topic["t"]["r1"].recall == pytest.approx(0.625)


def test_evaluate_corpus_truncates_before_scoring():
    corpus = make_corpus(make_topic("t", ["a b c d."], ["a b"]))
    report = evaluate_corpus({"t": "a b c d"}, corpus, Budget("words", 2), metrics=["r1"])
    assert report.per_topic["t"]["r1"].precision == pytest.approx(1.0)


def test_evaluate_corpus_requires_references():
    corpus = make_corpus(make_topic("t", ["some text."]))
    with pytest.raises(EvaluationError, match="no reference"):
        evaluate_corpus({"t": "some text"}, corpus, Budget("words", 10))


def test_evaluate_corpus_requires_summary_for_every_topic():
    corpus = make_corpus(make_topic("t", ["some text."], ["ref"]))
    with pytest.raises(EvaluationError, match="no summary"):
        evaluate_corpus({}, corpus, Budget("words", 10))


def test_evaluate_corpus_rejects_summary_for_unknown_topic():
    corpus = make_corpus(make_topic("t", ["some text."], ["ref"]))
    with pytest.raises(EvaluationError, match=r"not in the corpus: \['zzz'\]"):
        evaluate_corpus({"t": "some text", "zzz": "typo"}, corpus, Budget("words", 10))


def test_report_renderings_agree():
    corpus = make_corpus(make_topic("t", ["alpha beta gamma."], ["alpha beta delta."]))
    report = evaluate_corpus({"t": "alpha beta gamma"}, corpus, Budget("words", 10))
    csv_lines = report.to_csv().strip().splitlines()
    table = report.to_text_table()
    assert csv_lines[0] == "topic_id,metric,recall,precision,f1"
    # Every metric appears in both renderings with matching recall values.
    for line in csv_lines[1:]:
        topic_id, metric, recall, _, _ = line.split(",")
        assert f"{float(recall):.4f}" in table


def test_report_csv_keeps_topic_ids_with_commas_and_quotes():
    ids = ["a,b \"x\"", "plain"]
    corpus = make_corpus(*(make_topic(tid, ["alpha beta gamma."], ["alpha beta delta."]) for tid in ids))
    report = evaluate_corpus({tid: "alpha beta gamma" for tid in ids}, corpus, Budget("words", 10), ["r1"])
    rows = list(csv.reader(io.StringIO(report.to_csv())))
    assert rows[0] == ["topic_id", "metric", "recall", "precision", "f1"]
    assert all(len(row) == 5 for row in rows)
    assert [row[0] for row in rows[1:]] == [*ids, "MEAN"]
    assert "\nplain,r1," in report.to_csv()


def test_score_all_rejects_unknown_metric():
    with pytest.raises(ValueError, match="unknown metrics"):
        score_all("a", ["a"], ["r9"])


def test_metrics_reject_empty_reference_list():
    for fn in (lambda: rouge_n("a", [], 1), lambda: rouge_l("a", []), lambda: rouge_su4("a", [])):
        with pytest.raises(ValueError, match="at least one reference"):
            fn()

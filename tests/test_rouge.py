"""ROUGE metrics against hand-computed fixtures and independent oracles."""

from __future__ import annotations

import csv
import io
import random
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from helpers import (
    counter_rouge_n,
    counter_rouge_su4,
    make_corpus,
    make_topic,
    table_lcs_match_positions,
    table_rouge_l,
    tokenize,
)
from treesum import rouge
from treesum.rouge import (
    EvaluationError,
    evaluate_corpus,
    rouge_l,
    rouge_n,
    rouge_su4,
    score_all,
    truncate,
)
from treesum.selection import Budget
from treesum.stem import porter_stem


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


def _bits(mask: int) -> set[int]:
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


def test_lcs_match_positions_match_table_oracle():
    """One packed recurrence per reference sentence gives, over all candidate
    sentences, the union of the positions each per-pair DP table traces."""
    rng = random.Random(4)
    for case in range(400):
        alphabet = "abcd"[: rng.randint(1, 4)]
        max_len = 150 if case % 4 == 0 else 20
        ref = _random_tokens(rng, alphabet, max_len)
        cands = [_random_tokens(rng, alphabet, max_len) for _ in range(rng.randint(1, 4))]
        got = rouge._lcs_union(ref, rouge._PackedSentences(cands))
        expected = set().union(*(table_lcs_match_positions(ref, cand) for cand in cands))
        assert _bits(got) == expected, (ref, cands)


def _random_summary(rng: random.Random, alphabet: str) -> str:
    sentences = [_random_tokens(rng, alphabet, 70) for _ in range(rng.randint(1, 4))]
    return " ".join(" ".join(tokens) + "." for tokens in sentences)


# (candidate, references) cases for the packed ROUGE-L recurrence.
_PACKED_LCS_CASES = [
    # The first reference token matches the top token of the first candidate
    # sentence, so v + u carries out of that sentence; without its guard bit
    # the carry would flip the lowest bit of the next sentence.
    ("x a. a x.", ["a x."]),
    ("b a. a b. a.", ["a b a. b a b."]),
    ("c b a. a a a. b.", ["a a b c a."]),
    # One-token sentences.
    ("a. b. a. c.", ["a b c. c a."]),
    ("a.", ["a."]),
    # Candidates with no sentence.
    ("", ["a b."]),
    ("... !", ["a b."]),
    # A repeated reference.
    ("a b. b a.", ["b a b.", "b a b."]),
    # A reference with no token in common with the candidate.
    ("a b. c d.", ["e f. g.", "a c."]),
    ("a b. c d.", ["e f. g."]),
]


def test_rouge_l_matches_table_oracle_on_multi_sentence_summaries():
    rng = random.Random(11)
    cases = list(_PACKED_LCS_CASES)
    for _ in range(120):
        alphabet = "abcd"[: rng.randint(1, 4)]
        references = [_random_summary(rng, alphabet) for _ in range(rng.randint(1, 3))]
        cases.append((_random_summary(rng, alphabet), references))
    got = [rouge_l(candidate, references, stem=False) for candidate, references in cases]
    expected = [table_rouge_l(candidate, references, stem=False) for candidate, references in cases]
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


def test_rouge_n_and_su4_match_loop_counting():
    """Count tables against one ``Counter`` per text and a Python-level
    clipped sum."""
    cases = _counting_cases()
    got = {
        "r1": [rouge_n(cand, refs, 1, stem=False) for cand, refs in cases],
        "r2": [rouge_n(cand, refs, 2, stem=False) for cand, refs in cases],
        "rsu4": [rouge_su4(cand, refs, stem=False) for cand, refs in cases],
    }
    expected = {
        "r1": [counter_rouge_n(cand, refs, 1, stem=False) for cand, refs in cases],
        "r2": [counter_rouge_n(cand, refs, 2, stem=False) for cand, refs in cases],
        "rsu4": [counter_rouge_su4(cand, refs, stem=False) for cand, refs in cases],
    }
    assert any(score.recall not in (0.0, 1.0) for score in got["rsu4"])
    # RougeScore equality compares recall, precision and F1 exactly.
    assert got == expected


def test_stemmed_scores_match_the_oracles_on_words_and_numbers():
    """Stemmed tokens share ids: every metric, on one memo, against the
    oracles stemming with the character-loop stemmer. Three candidates per
    reference pair, so the later ones score against kept tables."""
    rng = random.Random(5)
    words = ["running", "runs", "ran", "cats", "cat", "1999", "2000s", "u", "s", "relational", "relate", "y2k"]

    def text():
        return " ".join(" ".join(rng.choice(words) for _ in range(rng.randint(1, 9))) + "." for _ in range(3))

    memo = rouge.TokenMemo()
    for _ in range(20):
        references = [text(), text()]
        for candidate in (text(), text(), text()):
            scores = score_all(candidate, references, rouge.METRIC_IDS, memo=memo)
            assert scores == {
                "r1": counter_rouge_n(candidate, references, 1),
                "r2": counter_rouge_n(candidate, references, 2),
                "rl": table_rouge_l(candidate, references),
                "rsu4": counter_rouge_su4(candidate, references),
            }
    assert len(memo._tables) == 20 * 4


def test_score_all_tokenizes_each_reference_once_per_table_build(monkeypatch):
    """All four tables of a reference set come from one ``_Tokens`` per
    reference, and the scores equal each metric taken on its own."""
    made = []

    class CountingTokens(rouge._Tokens):
        def __init__(self, memo, text):
            made.append(text)
            super().__init__(memo, text)

    rng = random.Random(11)
    words = ["running", "runs", "ran", "cats", "cat", "1999", "bridges", "relational", "relate", "y2k"]

    def text():
        return " ".join(" ".join(rng.choice(words) for _ in range(rng.randint(1, 9))) + "." for _ in range(3))

    references = [text(), text(), text()]
    candidates = [text(), text(), text()]
    expected = [
        {
            "r1": rouge_n(candidate, references, 1),
            "r2": rouge_n(candidate, references, 2),
            "rl": rouge_l(candidate, references),
            "rsu4": rouge_su4(candidate, references),
        }
        for candidate in candidates
    ]
    monkeypatch.setattr(rouge, "_Tokens", CountingTokens)
    assert score_all(candidates[0], references, rouge.METRIC_IDS) == expected[0]
    assert sorted(made) == sorted([*references, candidates[0]])
    # On one memo: built and kept on the first ask, read from the memo
    # after that.
    memo = rouge.TokenMemo()
    for round_, (candidate, scores) in enumerate(zip(candidates, expected)):
        made.clear()
        assert score_all(candidate, references, rouge.METRIC_IDS, memo=memo) == scores
        assert sorted(made) == sorted([*references, candidate] if round_ < 1 else [candidate])


def test_memo_stems_each_distinct_token_once(monkeypatch):
    """``stem.calls`` in the benchmark counts calls of the module-level
    ``treesum.rouge.porter_stem``: one per distinct token of the run."""
    calls = []

    def counting_stem(token):
        calls.append(token)
        return porter_stem(token)

    monkeypatch.setattr(rouge, "porter_stem", counting_stem)
    corpus = make_corpus(
        make_topic("a", ["Doc a."], ["The bridges reopened after long repairs.", "Repairs ran long."]),
        make_topic("b", ["Doc b."], ["Schools opened a science wing in 1999."]),
    )
    memo = rouge.TokenMemo()
    summaries = {"a": "The bridge reopened. Repairs ran long.", "b": "Schools opened. A wing opened in 1999."}
    for metrics in (["r1"], ["r2", "rl"], list(rouge.METRIC_IDS)):
        evaluate_corpus(summaries, corpus, Budget("words", 20), metrics=metrics, memo=memo)
    evaluate_corpus({"a": "Bridges, bridges and schools.", "b": "New wings"}, corpus, Budget("words", 20), memo=memo)
    texts = [*summaries.values(), "Bridges, bridges and schools.", "New wings"]
    texts += [ref for topic in corpus for ref in topic.references]
    assert sorted(calls) == sorted({token for text in texts for token in tokenize(text)})


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


def test_score_memo_keeps_each_topics_references_apart():
    """One summary text in two topics with different references: with one
    memo, each topic gets the scores against its own references."""
    text = "The bridge reopened after repairs. Crews worked overnight."
    topics = [
        make_topic("a", ["Doc a."], ["The bridge reopened after long repairs."]),
        make_topic("b", ["Doc b."], ["Schools opened a science wing.", "Crews worked overnight on schools."]),
    ]
    budget = Budget("words", 6)
    memo = rouge.TokenMemo()
    report = evaluate_corpus({"a": text, "b": text}, make_corpus(*topics), budget, memo=memo)
    for topic in topics:
        expected = score_all(truncate(text, budget), list(topic.references), rouge.METRIC_IDS)
        assert report.per_topic[topic.topic_id] == expected
    assert report.per_topic["a"] != report.per_topic["b"]


def test_score_memo_reused_with_another_metric_list_scores_that_list():
    """A memo reused with another metric list, as a single-metric rerun on
    one memo does, returns that list's scores and only those."""
    corpus = make_corpus(
        make_topic("a", ["Doc a."], ["The bridge reopened after long repairs."]),
        make_topic("b", ["Doc b."], ["Schools opened a science wing."]),
    )
    summaries = {"a": "The bridge reopened. Repairs ran long.", "b": "A science wing opened at schools."}
    budget = Budget("words", 20)
    memo = rouge.TokenMemo()
    first = evaluate_corpus(summaries, corpus, budget, metrics=["r1", "rl"], memo=memo)
    for metrics in (["r2"], ["rl"], ["rsu4", "r1"], ["r1", "rl"]):
        again = evaluate_corpus(summaries, corpus, budget, metrics=metrics, memo=memo)
        fresh = evaluate_corpus(summaries, corpus, budget, metrics=metrics)
        assert again.per_topic == fresh.per_topic
        assert again.mean == fresh.mean
        assert all(list(scores) == metrics for scores in again.per_topic.values())
    assert first.per_topic == evaluate_corpus(summaries, corpus, budget, metrics=["r1", "rl"]).per_topic

"""Selection protocol: traversal, budget semantics, ordering, tie-breaks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import (
    cs_only,
    embed_with_vectors,
    make_corpus,
    make_topic,
    random_synthetic_topic,
    reference_cosine,
    scalar_selection,
    skey,
    summary_keys,
    tree_and_context,
)
from treesum.embedding import cosine_similarity
from treesum.scoring import Hyperparams, NodeCentroids, blend_cs, node_centroids, score_cs
from treesum.selection import (
    Budget,
    SelectionState,
    SimilarityMemo,
    order_summary,
    run_selection,
    select_summary,
)
from treesum.variants import TopicWork

# Sentence pairs of a two-document topic; index 0 is t/d0/s0, 1 is t/d0/s1,
# 2 is t/d1/s0.
_ORDER_TOPIC = make_topic("t", ["Text t d0 s0. Text t d0 s1.", "Text t d1 s0."])
_ORDER_SENTENCES = [(doc, sent) for doc in _ORDER_TOPIC.documents for sent in doc.sentences]


def test_order_summary_follows_traversal_positions():
    state = SelectionState(selected=[(0, 3, 1), (2, 1, 1)], consumed=8, iteration=1)
    summary = order_summary(state, traversal_order=[1, 3], sentences=_ORDER_SENTENCES)
    assert summary_keys("t", summary) == ["t/d1/s0", "t/d0/s0"]


def test_order_summary_keeps_selection_order_within_node():
    state = SelectionState(selected=[(1, 0, 1), (0, 0, 2)], consumed=8, iteration=2)
    summary = order_summary(state, traversal_order=[0], sentences=_ORDER_SENTENCES)
    assert summary_keys("t", summary) == ["t/d0/s1", "t/d0/s0"]
    assert [s.iteration for s in summary.sentences] == [1, 2]


def test_order_summary_single_sentence():
    state = SelectionState(selected=[(0, 0, 1)], consumed=4, iteration=1)
    summary = order_summary(state, traversal_order=[0], sentences=_ORDER_SENTENCES)
    assert summary.text == "Text t d0 s0."


# --- end-to-end fixtures -------------------------------------------------

# Two well-separated document clusters with hand-assigned 2-d vectors, tuned
# so every selection step has a strict winner (margins far above float
# noise). Every sentence has exactly 4 words, so word budgets convert
# directly to sentence counts.
FIXTURE_VECTORS = {
    skey("fix", 0, 0): (0.95, 0.05),
    skey("fix", 0, 1): (0.70, 0.40),
    skey("fix", 1, 0): (0.98, 0.02),
    skey("fix", 1, 1): (0.90, 0.00),
    skey("fix", 2, 0): (0.99, 0.10),
    skey("fix", 2, 1): (0.92, 0.08),
    skey("fix", 3, 0): (0.02, 0.99),
    skey("fix", 3, 1): (0.15, 0.85),
    skey("fix", 4, 0): (0.00, 0.90),
    skey("fix", 4, 1): (0.05, 0.95),
}


def _fixture_topic():
    texts = [
        "Alpha one two three. Alpha four five six.",
        "Bravo one two three. Bravo four five six.",
        "Charlie one two three. Charlie four five six.",
        "Delta one two three. Delta four five six.",
        "Echo one two three. Echo four five six.",
    ]
    return make_topic("fix", texts)


def _fixture_embedded():
    topic = _fixture_topic()
    return topic, embed_with_vectors(make_corpus(topic), FIXTURE_VECTORS)


def _fixture_tree(embedded, topic, max_nodes=3):
    """The fixture's document tree and its context."""
    return tree_and_context(topic, embedded, k_first=2, k_rest=2, max_nodes=max_nodes, seed=5)


def test_fixture_tree_structure():
    topic, embedded = _fixture_embedded()
    tree, _ = _fixture_tree(embedded, topic)
    assert tree.node_count == 3
    layer2 = [tree.node(i) for i in tree.traversal_order[1:]]
    assert [n.size for n in layer2] == [3, 2]
    assert layer2[0].members == (0, 1, 2)
    assert layer2[1].members == (3, 4)


def test_golden_traversal_trace():
    """Frozen first-iteration trace over the two-cluster fixture.

    Expected picks were derived by evaluating the score formulas directly on
    the fixture vectors: the root picks (0.70, 0.40), the sentence most
    aligned with the global centroid (0.566, 0.434); the big cluster picks
    (0.90, 0.00), which combines alignment with its centroid and
    orthogonality to the small cluster; the small cluster symmetrically
    picks (0.00, 0.90). Winning margins exceed 4e-5.
    """
    topic, embedded = _fixture_embedded()
    tree, ctx = _fixture_tree(embedded, topic)
    summary = select_summary(ctx, cs_only(Hyperparams()), Budget("words", 12))
    assert summary_keys("fix", summary) == ["fix/d0/s1", "fix/d1/s1", "fix/d4/s0"]
    assert [s.node_id for s in summary.sentences] == list(tree.traversal_order)
    assert summary.text == (
        "Alpha four five six. Bravo four five six. Echo one two three."
    )


# Three separated document clusters (one coordinate axis each), two docs
# per cluster. Winning margins checked against a direct evaluation of the
# score formulas; the tightest is about 4e-4.
FIXTURE3_VECTORS = {
    skey("tri", 0, 0): (0.95, 0.05, 0.00),
    skey("tri", 0, 1): (0.60, 0.55, 0.45),
    skey("tri", 1, 0): (0.90, 0.00, 0.10),
    skey("tri", 1, 1): (0.85, 0.10, 0.05),
    skey("tri", 2, 0): (0.05, 0.95, 0.00),
    skey("tri", 2, 1): (0.00, 0.90, 0.10),
    skey("tri", 3, 0): (0.10, 0.85, 0.05),
    skey("tri", 3, 1): (0.00, 0.92, 0.08),
    skey("tri", 4, 0): (0.00, 0.05, 0.95),
    skey("tri", 4, 1): (0.10, 0.00, 0.90),
    skey("tri", 5, 0): (0.05, 0.10, 0.85),
    skey("tri", 5, 1): (0.08, 0.00, 0.92),
}


def _three_cluster_embedded():
    texts = [
        "Golf one two three. Golf four five six.",
        "Hotel one two three. Hotel four five six.",
        "India one two three. India four five six.",
        "Juliet one two three. Juliet four five six.",
        "Kilo one two three. Kilo four five six.",
        "Lima one two three. Lima four five six.",
    ]
    topic = make_topic("tri", texts)
    return topic, embed_with_vectors(make_corpus(topic), FIXTURE3_VECTORS)


def test_golden_trace_three_clusters():
    """Frozen trace over three planted clusters with a 4-sentence budget.

    The root picks the sentence nearest the global centroid, then each
    cluster node contributes its strongest commonality-specificity sentence,
    visiting equal-size nodes in lowest-document-index order.
    """
    topic, embedded = _three_cluster_embedded()
    tree, ctx = tree_and_context(topic, embedded, k_first=3, k_rest=2, max_nodes=4, seed=9)
    assert tree.node_count == 4
    summary = select_summary(ctx, cs_only(Hyperparams()), Budget("words", 16))
    assert summary_keys("tri", summary) == [
        "tri/d0/s1", "tri/d1/s1", "tri/d2/s0", "tri/d4/s0",
    ]
    assert [s.node_id for s in summary.sentences] == list(tree.traversal_order)
    assert [s.iteration for s in summary.sentences] == [1, 1, 1, 1]


def test_iteration_one_follows_traversal_order():
    topic, embedded = _fixture_embedded()
    tree, ctx = _fixture_tree(embedded, topic)
    summary = select_summary(ctx, Hyperparams(), Budget("words", 12))
    assert [s.node_id for s in summary.sentences] == list(tree.traversal_order)
    assert [s.iteration for s in summary.sentences] == [1, 1, 1]


def test_exhaustion_selects_every_sentence_once():
    topic, embedded = _fixture_embedded()
    _, ctx = _fixture_tree(embedded, topic)
    summary = select_summary(ctx, Hyperparams(), Budget("words", 10_000))
    keys = summary_keys("fix", summary)
    assert sorted(keys) == sorted(FIXTURE_VECTORS)
    assert len(set(keys)) == len(keys)


def test_budget_crossing_sentence_is_kept():
    topic, embedded = _fixture_embedded()
    _, ctx = _fixture_tree(embedded, topic)
    # 10 words: two 4-word sentences leave us below the limit, the third
    # crosses it and is kept.
    summary = select_summary(ctx, Hyperparams(), Budget("words", 10))
    consumed = sum(s.text.count(" ") + 1 for s in summary.sentences)
    assert len(summary.sentences) == 3
    assert consumed >= 10
    assert consumed - 10 < 4  # overshoot smaller than the crossing sentence


def test_byte_budget_semantics():
    topic, embedded = _fixture_embedded()
    _, ctx = _fixture_tree(embedded, topic)
    sents = {(d.doc_index, s.sent_index): s for d in topic.documents for s in d.sentences}
    summary = select_summary(ctx, cs_only(Hyperparams()), Budget("bytes", 30))
    consumed = sum(sents[s.doc_index, s.sent_index].byte_length for s in summary.sentences)
    assert consumed >= 30
    last = summary.sentences[-1]
    assert consumed - 30 < sents[last.doc_index, last.sent_index].byte_length


def test_engine_overshoot_bounded_by_crossing_sentence():
    """Exact budget invariant at the engine level, where selection order is
    visible: the final selected sentence is the one that crossed the limit,
    and the overshoot is smaller than that sentence. Every limit up to the
    topic's size, under the configured and the cs-only weights and in both
    budget units."""
    topic, embedded = _fixture_embedded()
    _, ctx = _fixture_tree(embedded, topic)
    for unit in ("words", "bytes"):
        total = sum(Budget(unit, 1).size_of(sent) for _, sent in ctx.sentences)
        for limit in range(1, total + 1):
            budget = Budget(unit, limit)
            for hp in (Hyperparams(), cs_only(Hyperparams())):
                state = run_selection(ctx, hp, budget)
                if state.consumed >= limit:
                    crossing_size = budget.size_of(ctx.sentences[state.selected[-1][0]][1])
                    assert state.consumed - limit < crossing_size
                else:
                    # Budget larger than the topic: everything was selected.
                    assert len(state.selected) == len(ctx.sentences)


def test_selection_is_deterministic():
    topic, embedded = _fixture_embedded()
    _, ctx = _fixture_tree(embedded, topic)
    first = select_summary(ctx, Hyperparams(), Budget("words", 16))
    second = select_summary(ctx, Hyperparams(), Budget("words", 16))
    assert first.text == second.text
    assert summary_keys("fix", first) == summary_keys("fix", second)


def test_single_document_topic_matches_brute_force():
    topic = make_topic("solo", ["One sentence here now. Another sentence sits here. Final words appear here."])
    vectors = {
        skey("solo", 0, 0): (1.0, 0.2),
        skey("solo", 0, 1): (0.4, 0.9),
        skey("solo", 0, 2): (0.7, 0.7),
    }
    embedded = embed_with_vectors(make_corpus(topic), vectors)
    tree, ctx = tree_and_context(topic, embedded, 3, 2, 5, seed=0)
    assert tree.node_count == 1

    summary = select_summary(ctx, cs_only(Hyperparams(delta=0.9)), Budget("words", 4))
    # Independent argmax: cosine to the document vector decides at the root.
    doc_vec = np.mean([vectors[skey("solo", 0, i)] for i in range(3)], axis=0)
    sims = [cosine_similarity(np.array(vectors[skey("solo", 0, i)]), doc_vec) for i in range(3)]
    expected = int(np.argmax(sims))
    assert summary.sentences[0].sent_index == expected
    assert len(summary.sentences) == 1


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget("words", 0)
    with pytest.raises(ValueError):
        Budget("chars", 10)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _random_case(rng: np.random.Generator, case: int):
    topic, vectors = random_synthetic_topic(rng, f"r{case}")
    if case % 3 == 0:
        # Small integer vectors: exact score ties and repeated vectors.
        vectors = {k: np.round(v / 4.0) for k, v in vectors.items()}
    embedded = embed_with_vectors(make_corpus(topic), vectors)
    tree, ctx = tree_and_context(
        topic,
        embedded,
        k_first=int(rng.integers(2, 4)),
        k_rest=2,
        max_nodes=int(rng.integers(1, 8)),
        seed=case,
    )
    return topic, embedded, tree, ctx


def test_score_context_terms_match_scalar_scores():
    """Every stored term gives, bit for bit, what the scalar score
    functions compute from the vectors."""
    rng = np.random.default_rng(11)
    for case in range(30):
        topic, embedded, tree, ctx = _random_case(rng, case)
        sent_vectors = list(embedded.sentence_vectors_for(topic).values())
        documents = TopicWork(topic, embedded).documents
        for node_id, members, inside, outside in ctx.groups:
            centroids = node_centroids(documents, np.array(tree.node(node_id).members))
            for delta in (0.0, 0.3, 0.9, 1.0):
                blended = blend_cs(inside, outside, delta)
                expected = [score_cs(sent_vectors[i], centroids, delta) for i in members]
                assert _bits(blended) == _bits(expected)
        for j in range(len(sent_vectors)):
            expected = [min(1.0, max(0.0, cosine_similarity(v, sent_vectors[j]))) for v in sent_vectors]
            assert _bits(ctx.memo.row(j)) == _bits(expected)


_ROW_KINDS = ("zero", "normal", "sparse", "huge", "tiny", "subnormal", "mixed", "repeat")


def _extreme_row(rng: np.random.Generator, kind: str, d: int, earlier: list) -> np.ndarray:
    """One vector of the given kind: ordinary, partly zero, near 1e+-300,
    subnormal, all of those mixed per component, or a repeat."""
    if kind == "repeat" and earlier:
        return earlier[int(rng.integers(len(earlier)))].copy()
    signs = rng.choice([-1.0, 1.0], size=d)
    parts = {
        "zero": np.zeros(d),
        "normal": rng.standard_normal(d) * 10.0,
        "sparse": rng.standard_normal(d) * (rng.random(d) < 0.3),
        "huge": rng.uniform(1e300, 1.7e308, size=d) * signs,
        "tiny": rng.uniform(-1e-300, 1e-300, size=d),
        "subnormal": rng.integers(-3000, 3000, size=d) * 5e-324,
    }
    if kind in parts:
        return parts[kind]
    pick = rng.integers(len(parts), size=d)
    return np.stack(list(parts.values()))[pick, np.arange(d)]


def _clamped_reference(a, b) -> float:
    return min(1.0, max(0.0, reference_cosine(a, b)))


@given(
    d=st.integers(min_value=1, max_value=400),
    kinds=st.lists(st.sampled_from(_ROW_KINDS), min_size=1, max_size=8),
    centroid_kinds=st.tuples(st.sampled_from(_ROW_KINDS), st.sampled_from(_ROW_KINDS + ("none",))),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_similarity_memo_matches_scalar_reference(d, kinds, centroid_kinds, seed, data):
    """Memo rows and node terms equal, value for value, the clamped scalar
    cosine written out with 1-D ``np.dot`` and ``np.linalg.norm``, and byte
    for byte once -0.0 is folded into +0.0."""
    rng = np.random.default_rng(seed)
    rows: list[np.ndarray] = []
    for kind in kinds:
        rows.append(_extreme_row(rng, kind, d, rows))
    memo = SimilarityMemo(rows)
    for j, b in enumerate(rows):
        expected = [_clamped_reference(a, b) for a in rows]
        got = memo.row(j)
        assert got.tolist() == expected
        assert (got + 0.0).tobytes() == (np.array(expected) + 0.0).tobytes()

    inside = _extreme_row(rng, centroid_kinds[0], d, rows)
    outside = None if centroid_kinds[1] == "none" else _extreme_row(rng, centroid_kinds[1], d, rows)
    members = np.array(
        sorted(data.draw(st.sets(st.integers(0, len(rows) - 1), min_size=1))), dtype=np.intp
    )
    got_in, got_out = memo.node_terms(members, NodeCentroids(inside=inside, outside=outside))
    expected_in = [_clamped_reference(rows[i], inside) for i in members]
    expected_out = [
        1.0 if outside is None else 1.0 - _clamped_reference(rows[i], outside) for i in members
    ]
    for got, expected in ((got_in, expected_in), (got_out, expected_out)):
        assert got.tolist() == expected
        assert (got + 0.0).tobytes() == (np.array(expected) + 0.0).tobytes()


def test_selection_matches_scalar_oracle():
    """Picks, nodes and passes equal the per-candidate scalar selection on
    random topics, including integer vectors with exact ties, under each
    configuration's own weights and with the weights pinned to cs-only
    (against the oracle's ``"cs_only"`` mode), for beta = 0 and (1, 0, 0)
    weights and both budget units. One context serves every configuration
    of a tree."""
    rng = np.random.default_rng(5)
    hps = [
        Hyperparams(),
        Hyperparams(delta=0.0, alpha=0.5, beta=0.3, gamma=0.2),
        Hyperparams(delta=1.0, alpha=0.7, beta=0.0, gamma=0.3),
        Hyperparams(delta=0.5, alpha=1.0, beta=0.0, gamma=0.0),
        Hyperparams(delta=0.2, alpha=0.1, beta=0.8, gamma=0.1),
    ]
    budgets = [Budget("words", 6), Budget("bytes", 90), Budget("words", 10_000)]
    for case in range(25):
        topic, embedded, tree, ctx = _random_case(rng, case)
        for hp in hps:
            for budget in budgets:
                for mode, pinned in (("final", hp), ("cs_only", cs_only(hp))):
                    state = run_selection(ctx, pinned, budget)
                    got = []
                    for i, node_id, it in state.selected:
                        doc, sent = ctx.sentences[i]
                        got.append((skey(topic.topic_id, doc.doc_index, sent.sent_index), node_id, it))
                    assert got == scalar_selection(tree, topic, embedded, hp, budget, mode)

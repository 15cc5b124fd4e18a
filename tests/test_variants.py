"""The six methods: behavior, determinism, shared budget semantics."""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    embed_with_vectors,
    make_corpus,
    make_topic,
    random_synthetic_topic,
    skey,
    summary_keys,
)
from test_selection import FIXTURE_VECTORS, _fixture_embedded
from treesum.corpus import Topic
from treesum.scoring import Hyperparams, node_centroids
from treesum.selection import Budget
from treesum.variants import METHOD_TABLE, METHODS, VariantSpec, summarize_topic


def _summarize(method, topic, embedded, words, hp=Hyperparams(), seed=0, max_nodes=4):
    spec = VariantSpec(method, hp, Budget("words", words), seed)
    return summarize_topic(topic, embedded.vectors[topic.topic_id], spec, max_nodes=max_nodes)


def test_variant_spec_normalizes_and_validates():
    hp = Hyperparams()
    spec = VariantSpec(kind="ours-cs", hp=hp, budget=Budget("words", 10), seed=1)
    assert spec.kind == "ours_cs"
    assert spec.hp == hp
    with pytest.raises(ValueError, match="unknown method"):
        VariantSpec(kind="comp9", hp=Hyperparams(), budget=Budget("words", 10), seed=1)


def test_methods_follow_the_table():
    assert METHODS == tuple(METHOD_TABLE)
    assert set(METHODS) == {"ours_final", "ours_cs", "comp1", "comp2", "comp3", "comp4"}


@pytest.mark.parametrize("seed", [0, 3, 8])
def test_ours_cs_does_not_depend_on_the_weights(seed):
    """ours-cs ranks by commonality-specificity alone, so alpha, beta and
    gamma change nothing, and it equals ours-final at weights (1, 0, 0)."""
    rng = np.random.default_rng(seed)
    topic, vectors = random_synthetic_topic(rng, "t")
    embedded = embed_with_vectors(make_corpus(topic), vectors)
    triples = [(0.8, 0.1, 0.1), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.2, 0.5, 0.3)]
    summaries = [
        _summarize("ours_cs", topic, embedded, 30, Hyperparams(delta=0.6, alpha=a, beta=b, gamma=g), seed)
        for a, b, g in triples
    ]
    assert all(s == summaries[0] for s in summaries)
    final = _summarize("ours_final", topic, embedded, 30, Hyperparams(delta=0.6, alpha=1, beta=0, gamma=0), seed)
    assert final == summaries[0]


@pytest.mark.parametrize("method", METHODS)
def test_summary_carries_the_tree_it_was_selected_from(method):
    topic, embedded = _fixture_embedded()
    summary = _summarize(method, topic, embedded, 12, Hyperparams(k_first=2), seed=5, max_nodes=3)
    entry = METHOD_TABLE[method]
    if entry.grouping != "tree":
        assert summary.tree is None
        return
    units = len(topic.documents) if entry.unit == "documents" else len(FIXTURE_VECTORS)
    assert list(summary.tree.node(0).members) == list(range(units))
    assert {s.node_id for s in summary.sentences} <= set(summary.tree.traversal_order)


def test_comp1_identical_vectors_tiebreak():
    topic = make_topic("t", ["Alpha one two three. Alpha four five six.", "Bravo one two three."])
    same = (0.6, 0.8)
    embedded = embed_with_vectors(
        make_corpus(topic),
        {skey("t", 0, 0): same, skey("t", 0, 1): same, skey("t", 1, 0): same},
    )
    summary = _summarize("comp1", topic, embedded, 4)
    assert summary_keys("t", summary)[0] == "t/d0/s0"


def test_comp1_centroid_direction_sentence_first():
    topic, embedded = _fixture_embedded()
    summary = _summarize("comp1", topic, embedded, 4)
    # (0.70, 0.40) is the fixture sentence most aligned with the global
    # document centroid (0.566, 0.434).
    assert summary_keys("fix", summary)[0] == "fix/d0/s1"


def test_comp1_budget_larger_than_topic_takes_everything():
    topic, embedded = _fixture_embedded()
    summary = _summarize("comp1", topic, embedded, 9999)
    assert sorted(summary_keys("fix", summary)) == sorted(FIXTURE_VECTORS)


def test_comp1_orders_by_score_descending():
    topic, embedded = _fixture_embedded()
    summary = _summarize("comp1", topic, embedded, 16)
    # Computed against the global centroid, the four best-aligned sentences
    # in score order.
    assert summary_keys("fix", summary) == [
        "fix/d0/s1", "fix/d2/s0", "fix/d2/s1", "fix/d0/s0",
    ]


@pytest.mark.parametrize("method", ["comp1", "comp3"])
def test_comp1_comp3_ignore_the_configured_delta(method):
    topic, embedded = _fixture_embedded()
    outs = {
        _summarize(method, topic, embedded, 12, Hyperparams(delta=delta, k_first=2), seed=3).text
        for delta in (0.0, 0.5, 1.0)
    }
    assert len(outs) == 1


def test_comp1_ignores_seed():
    topic, embedded = _fixture_embedded()
    outs = {_summarize("comp1", topic, embedded, 12, seed=seed, max_nodes=3).text for seed in (0, 7, 123)}
    assert len(outs) == 1


def test_comp2_identical_documents_single_cluster():
    topic = make_topic("t", ["Alpha one two three.", "Alpha one two three.", "Alpha one two three."])
    same = (0.6, 0.8)
    vectors = {skey("t", d, 0): same for d in range(3)}
    embedded = embed_with_vectors(make_corpus(topic), vectors)
    summary = _summarize("comp2", topic, embedded, 4)
    assert summary_keys("t", summary)[0] == "t/d0/s0"
    assert len(summary.sentences) == 1


def test_comp2_on_exactly_k_first_documents_makes_no_kmeans_call(monkeypatch):
    """Flat clusters of k_first distinct documents are singletons, split
    without a ``kmeans`` call, as a tree node of k rows is."""
    import treesum.tree as tree

    def refused(*args, **kwargs):
        raise AssertionError("kmeans called")

    topic = make_topic("t", ["Alpha one two three.", "Bravo one two three.", "Charlie one two three."])
    vectors = {skey("t", d, 0): (1.0, float(d)) for d in range(3)}
    embedded = embed_with_vectors(make_corpus(topic), vectors)
    monkeypatch.setattr(tree, "kmeans", refused)
    summary = _summarize("comp2", topic, embedded, 12, Hyperparams(k_first=3))
    assert summary_keys("t", summary) == ["t/d0/s0", "t/d1/s0", "t/d2/s0"]


def _assert_one_sentence_per_flat_cluster(method):
    topic, embedded = _fixture_embedded()
    summary = _summarize(method, topic, embedded, 8, Hyperparams(k_first=2), seed=3)
    assert len(summary.sentences) == 2
    docs = [s.doc.doc_index for s in summary.sentences]
    assert docs[0] in (0, 1, 2) and docs[1] in (3, 4)  # big cluster first


def _assert_deterministic(method):
    topic, embedded = _fixture_embedded()
    hp = Hyperparams(k_first=2)
    a = _summarize(method, topic, embedded, 16, hp, seed=9, max_nodes=3)
    b = _summarize(method, topic, embedded, 16, hp, seed=9, max_nodes=3)
    assert a.text == b.text


def test_comp2_two_clusters_one_sentence_each():
    _assert_one_sentence_per_flat_cluster("comp2")


def test_comp2_deterministic():
    _assert_deterministic("comp2")


def test_comp3_two_clusters_one_sentence_each():
    _assert_one_sentence_per_flat_cluster("comp3")


def test_comp3_deterministic():
    _assert_deterministic("comp3")


def test_single_document_comp2_comp3_reduce_to_comp1():
    topic = make_topic("t", ["First point made here. Second point made here. Third point made here."])
    vectors = {
        skey("t", 0, 0): (1.0, 0.1),
        skey("t", 0, 1): (0.5, 0.8),
        skey("t", 0, 2): (0.9, 0.4),
    }
    embedded = embed_with_vectors(make_corpus(topic), vectors)
    base = summary_keys("t", _summarize("comp1", topic, embedded, 8))
    for method in ("comp2", "comp3"):
        assert summary_keys("t", _summarize(method, topic, embedded, 8, seed=1)) == base


def test_comp4_single_sentence_topic():
    topic = make_topic("t", ["Only sentence lives here."])
    embedded = embed_with_vectors(make_corpus(topic), {skey("t", 0, 0): (1.0, 0.0)})
    summary = _summarize("comp4", topic, embedded, 4)
    assert summary.text == "Only sentence lives here."


def test_comp4_sentence_clusters_trace():
    topic, embedded = _fixture_embedded()
    summary = _summarize("comp4", topic, embedded, 12, Hyperparams(k_first=2), seed=5, max_nodes=3)
    keys = summary_keys("fix", summary)
    # Root of the sentence tree picks the sentence nearest the global
    # sentence centroid; the two sentence-cluster nodes then contribute one
    # sentence each, big cluster first.
    assert keys[0] == "fix/d0/s1"
    big = {skey("fix", d, s) for d in (0, 1, 2) for s in (0, 1)}
    small = {skey("fix", d, s) for d in (3, 4) for s in (0, 1)}
    assert keys[1] in big
    assert keys[2] in small


def test_comp4_deterministic():
    _assert_deterministic("comp4")


@pytest.mark.parametrize("method", METHODS)
def test_all_methods_share_budget_and_duplicate_semantics(method):
    rng = np.random.default_rng(31)
    for trial in range(4):
        topic, vectors = random_synthetic_topic(rng, f"t{trial}")
        embedded = embed_with_vectors(make_corpus(topic), vectors)
        sizes = {
            skey(topic.topic_id, doc.doc_index, sent.sent_index): sent.word_count
            for doc in topic.documents
            for sent in doc.sentences
        }
        limit = max(1, int(rng.integers(1, sum(sizes.values()) + 8)))
        spec = VariantSpec(method, Hyperparams(k_first=2), Budget("words", limit), seed=trial)
        summary = summarize_topic(topic, embedded.vectors[topic.topic_id], spec, max_nodes=4)
        keys = summary_keys(topic.topic_id, summary)
        assert len(set(keys)) == len(keys)  # no duplicates
        consumed = sum(sizes[k] for k in keys)
        if len(keys) == len(sizes):
            assert consumed <= sum(sizes.values())  # exhausted topic
        else:
            assert consumed >= limit
            # The crossing sentence is somewhere in the summary (its exact
            # identity is checked at the engine level), so the overshoot is
            # below the largest selected sentence.
            assert consumed - limit < max(sizes[k] for k in keys)


@pytest.mark.parametrize("method", METHODS)
def test_summary_records_match_the_corpus_sentences(method):
    """Every summary pick holds the corpus's own document and sentence
    objects, so its text, document id, indices and position are theirs."""
    rng = np.random.default_rng(41)
    for trial in range(6):
        topic, vectors = random_synthetic_topic(rng, f"t{trial}")
        # Document ids that do not follow from the document index.
        n = len(topic.documents)
        topic = Topic(topic.topic_id, tuple(replace(d, doc_id=f"src{n - d.doc_index}") for d in topic.documents))
        embedded = embed_with_vectors(make_corpus(topic), vectors)
        pairs = {(d.doc_index, s.sent_index): (d, s) for d in topic.documents for s in d.sentences}
        for budget in (Budget("words", int(rng.integers(1, 40))), Budget("bytes", int(rng.integers(1, 300)))):
            spec = VariantSpec(method, Hyperparams(k_first=2), budget, seed=trial)
            summary = summarize_topic(topic, embedded.vectors[topic.topic_id], spec, max_nodes=4)
            assert summary.sentences
            for got in summary.sentences:
                doc, sent = pairs[got.doc.doc_index, got.sent.sent_index]
                assert got.doc is doc and got.sent is sent


def test_node_centroid_past_the_float_range_keeps_the_picks():
    """Every vector times 2**1021: the root's plain mean over ten documents
    runs past the float range though each document mean is finite. comp1
    still picks what it picks on the unscaled vectors, with no warning, and
    the centroids are finite and point the same way."""
    rng = np.random.default_rng(4)
    docs = [" ".join(f"Doc {d} line {s}." for s in range(3)) for d in range(10)]
    topic = make_topic("t", docs)
    vectors = {}
    for d in range(10):
        for s in range(3):
            vec = rng.random(4)
            vec[0] = 1.0
            vectors[skey("t", d, s)] = vec
    scaled = {key: np.ldexp(vec, 1021) for key, vec in vectors.items()}
    doc_means = np.stack([np.mean([scaled[skey("t", d, s)] for s in range(3)], axis=0) for d in range(10)])
    with np.errstate(over="ignore"):
        assert not np.isfinite(doc_means.mean(axis=0)).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        centroids = node_centroids(doc_means, np.arange(4))
        root = node_centroids(doc_means, np.arange(10))
        picks = [
            summary_keys("t", _summarize("comp1", topic, embed_with_vectors(make_corpus(topic), vecs), 12))
            for vecs in (vectors, scaled)
        ]
    assert np.isfinite(centroids.inside).all() and np.isfinite(centroids.outside).all()
    assert np.isfinite(root.inside).all() and root.outside is None
    assert picks[0] == picks[1]
    assert len(picks[0]) > 1

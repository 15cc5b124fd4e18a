"""Corpus-level reproducibility: what a topic's outputs may depend on."""

from __future__ import annotations

import random

import pytest

from helpers import make_corpus, make_topic
from treesum.embedding import embed_corpus, provider_builtin_tfidf
from treesum.pipeline import resolve_max_nodes, summarize_corpus
from treesum.scoring import Hyperparams
from treesum.selection import Budget
from treesum.tree import tree_to_dict
from treesum.variants import METHODS, VariantSpec

BUDGET = Budget("words", 60)


def _topic(topic_id: str, seed: int, words_per_sentence: tuple[int, int]):
    """Five documents in two word-pool clusters, 3-5 sentences each, every
    sentence ``words_per_sentence`` words long (inclusive range)."""
    rng = random.Random(seed)
    pools = [[f"{topic_id}c{c}w{i}" for i in range(25)] for c in range(2)]
    texts = []
    for d in range(5):
        sentences = []
        for _ in range(rng.randint(3, 5)):
            words = rng.choices(pools[d % 2], k=rng.randint(*words_per_sentence))
            sentences.append(" ".join(words).capitalize() + ".")
        texts.append(" ".join(sentences))
    return make_topic(topic_id, texts)


BASE = tuple(_topic(f"t{i}", i, (8, 16)) for i in range(3))
LONG = _topic("long", 99, (40, 60))


def _outputs(topics, method: str, max_nodes: int) -> dict:
    """Each topic's summary text, sentence records and dumped tree."""
    corpus = make_corpus(*topics)
    embedded = embed_corpus(corpus, provider_builtin_tfidf(corpus, 64, seed=0))
    spec = VariantSpec(method, Hyperparams(k_first=2), BUDGET, seed=3)
    summaries = summarize_corpus(corpus, embedded, spec, max_nodes)
    names = [f"item{i}" for i in range(1000)]
    return {
        tid: (s.text, s.sentences, None if s.tree is None else tree_to_dict(s.tree, names))
        for tid, s in summaries.items()
    }


@pytest.mark.parametrize("method", METHODS)
def test_fixed_cap_outputs_ignore_other_topics_and_their_order(method):
    base = _outputs(BASE, method, max_nodes=6)
    assert all(text for text, _, _ in base.values())
    grown = _outputs((*BASE, LONG), method, max_nodes=6)
    reordered = _outputs(tuple(reversed((*BASE, LONG))), method, max_nodes=6)
    for tid, expected in base.items():
        assert grown[tid] == expected
        assert reordered[tid] == expected
    assert reordered["long"] == grown["long"]


def test_default_cap_follows_the_corpus():
    base, grown = make_corpus(*BASE), make_corpus(*BASE, LONG)
    base_cap, grown_cap = resolve_max_nodes(base, BUDGET, None), resolve_max_nodes(grown, BUDGET, None)
    assert base_cap != grown_cap
    assert resolve_max_nodes(base, BUDGET, 6) == resolve_max_nodes(grown, BUDGET, 6) == 6
    # So the longer topic's sentences change the existing topics' trees.
    before = _outputs(BASE, "ours_final", base_cap)
    after = _outputs((*BASE, LONG), "ours_final", grown_cap)
    assert any(after[tid] != outputs for tid, outputs in before.items())

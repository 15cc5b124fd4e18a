"""Comparison baselines behind the same summarize interface.

Four reduced pipelines isolate what the full approach adds:

* ``comp1`` ranks every sentence by similarity to the centroid of all
  documents: commonality only, no clustering.
* ``comp2`` clusters documents once (flat k-means) and picks the best
  commonality-specificity sentence per cluster, round-robin.
* ``comp3`` is comp2 but scores by similarity to the cluster centroid alone,
  ignoring what lies outside the cluster.
* ``comp4`` runs the full hierarchical pipeline over sentence vectors
  instead of document vectors.

``summarize_topic`` dispatches between these and the two main methods
(``ours_cs``, ``ours_final``). All variants share the selection engine, so
budget semantics and the no-duplicate rule are identical everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .corpus import Topic
from .embedding import EmbeddedCorpus, Vector
from .scoring import Hyperparams
from .selection import Budget, ScoreContext, Summary, order_summary, select_from_context, select_summary
from .tree import build_class_tree, derive_seed, kmeans

METHODS = ("ours_final", "ours_cs", "comp1", "comp2", "comp3", "comp4")


@dataclass(frozen=True)
class VariantSpec:
    """A method choice plus everything needed to run it reproducibly."""

    kind: str
    hp: Hyperparams
    budget: Budget
    seed: int

    def __post_init__(self) -> None:
        kind = self.kind.replace("-", "_")
        if kind not in METHODS:
            raise ValueError(f"unknown method {self.kind!r}")
        object.__setattr__(self, "kind", kind)
        if kind == "ours_cs":
            object.__setattr__(self, "hp", replace(self.hp, alpha=1.0, beta=0.0, gamma=0.0))


def _select_cs(
    topic: Topic,
    embedded: EmbeddedCorpus,
    nodes: Sequence[tuple[int, Sequence[str]]],
    universe: Mapping[str, Vector],
    delta: float,
    budget: Budget,
) -> Summary:
    """Round-robin over ``nodes`` by commonality-specificity alone.

    With ``delta`` 1 the score is the clamped similarity to the node centroid.
    """
    ctx = ScoreContext(topic, embedded, nodes, universe)
    state = select_from_context(ctx, Hyperparams(delta=delta), budget, "cs_only")
    return order_summary(state, [node_id for node_id, _ in nodes])


def summarize_comp1(topic: Topic, embedded: EmbeddedCorpus, budget: Budget) -> Summary:
    """Rank all sentences against the global document centroid, no clustering.

    Sentences appear in the summary in score order.
    """
    doc_vectors = embedded.doc_vectors_for(topic)
    return _select_cs(topic, embedded, [(0, list(doc_vectors))], doc_vectors, 1.0, budget)


def _flat_document_clusters(
    topic: Topic, embedded: EmbeddedCorpus, k: int, seed: int
) -> list[tuple[int, list[str]]]:
    """One round of k-means over the topic's documents.

    Falls back to a single cluster when the documents cannot be divided.
    Clusters come back largest first, ties by lowest document index.
    """
    doc_vectors = embedded.doc_vectors_for(topic)
    keys = list(doc_vectors)
    result = kmeans([doc_vectors[key] for key in keys], k, seed=seed) if len(keys) >= 2 else None
    if result is None:
        return [(0, keys)]
    groups: dict[int, list[str]] = {}
    for key, label in zip(keys, result.labels):
        groups.setdefault(int(label), []).append(key)
    index_of = {key: i for i, key in enumerate(keys)}
    ordered = sorted(groups.values(), key=lambda g: (-len(g), min(index_of[k_] for k_ in g)))
    return [(i, group) for i, group in enumerate(ordered)]


def summarize_comp2(
    topic: Topic, embedded: EmbeddedCorpus, hp: Hyperparams, budget: Budget, seed: int
) -> Summary:
    """Flat document clusters scored with the commonality-specificity blend."""
    clusters = _flat_document_clusters(topic, embedded, hp.k_first, seed)
    return _select_cs(topic, embedded, clusters, embedded.doc_vectors_for(topic), hp.delta, budget)


def summarize_comp3(
    topic: Topic, embedded: EmbeddedCorpus, hp: Hyperparams, budget: Budget, seed: int
) -> Summary:
    """Flat document clusters scored by in-cluster similarity only."""
    clusters = _flat_document_clusters(topic, embedded, hp.k_first, seed)
    return _select_cs(topic, embedded, clusters, embedded.doc_vectors_for(topic), 1.0, budget)


def summarize_comp4(
    topic: Topic,
    embedded: EmbeddedCorpus,
    hp: Hyperparams,
    budget: Budget,
    seed: int,
    max_nodes: int,
) -> Summary:
    """The hierarchical pipeline with sentences as the clustered unit.

    Nodes hold sentences; centroids are means of member sentence vectors and
    the complement centroid is the mean of the topic's other sentences.
    """
    sent_vectors = embedded.sentence_vectors_for(topic)
    tree = build_class_tree(list(sent_vectors.items()), hp.k_first, hp.k_rest, max_nodes, seed)
    nodes = [(i, tree.node(i).member_keys) for i in tree.traversal_order]
    return _select_cs(topic, embedded, nodes, sent_vectors, hp.delta, budget)


def summarize_topic(
    topic: Topic,
    embedded: EmbeddedCorpus,
    spec: VariantSpec,
    max_nodes: int,
) -> Summary:
    """Run one method on one topic. Seeds are derived per topic from the
    spec's master seed, so results for a topic never depend on which other
    topics are in the corpus."""
    topic_seed = derive_seed(spec.seed, f"topic:{topic.topic_id}")
    hp, budget = spec.hp, spec.budget
    if spec.kind in ("ours_final", "ours_cs"):
        doc_vectors = embedded.doc_vectors_for(topic)
        tree = build_class_tree(list(doc_vectors.items()), hp.k_first, hp.k_rest, max_nodes, topic_seed)
        mode = "final" if spec.kind == "ours_final" else "cs_only"
        return select_summary(tree, topic, embedded, hp, budget, scoring_mode=mode)
    if spec.kind == "comp1":
        return summarize_comp1(topic, embedded, budget)
    if spec.kind == "comp2":
        return summarize_comp2(topic, embedded, hp, budget, topic_seed)
    if spec.kind == "comp3":
        return summarize_comp3(topic, embedded, hp, budget, topic_seed)
    if spec.kind == "comp4":
        return summarize_comp4(topic, embedded, hp, budget, topic_seed, max_nodes)
    raise ValueError(f"unknown method {spec.kind!r}")

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
from typing import Callable, Sequence

import numpy as np

from .corpus import Topic
from .embedding import EmbeddedCorpus, TopicVectors
from .scoring import Hyperparams
from .selection import (
    Budget,
    ScoreContext,
    SentenceRef,
    SimilarityMemo,
    Summary,
    order_summary,
    select_from_context,
    select_summary,
    sentence_refs,
)
from .tree import ClassTree, build_class_tree, derive_seed, kmeans, label_groups

METHODS = ("ours_final", "ours_cs", "comp1", "comp2", "comp3", "comp4")

# (node_id, item indices) per node, in visiting order.
NodeList = list[tuple[int, Sequence[int]]]


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


class TopicWork:
    """What the methods run on one topic share, each piece computed on first use.

    Holds the topic's ``TopicVectors``, ``sentence_refs`` and
    ``SimilarityMemo``, its class trees and flat document clusters, and one
    ``ScoreContext`` per node set, each keyed by everything it depends on.
    Methods that agree on those inputs get the same object: ours-final and
    ours-cs share the document tree and its context, comp2 and comp3 the flat
    clusters and theirs, and every context shares the memo. One thread at a
    time may use an instance.
    """

    def __init__(self, topic: Topic, embedded: EmbeddedCorpus):
        self.topic = topic
        self.embedded = embedded
        self._results: dict[tuple, object] = {}

    def _once(self, key: tuple, build: Callable[[], object]):
        if key not in self._results:
            self._results[key] = build()
        return self._results[key]

    @property
    def vectors(self) -> TopicVectors:
        return self._once(("vectors",), lambda: self.embedded.topic_vectors(self.topic))

    @property
    def refs(self) -> list[SentenceRef]:
        return self._once(("refs",), lambda: sentence_refs(self.topic))

    @property
    def memo(self) -> SimilarityMemo:
        return self._once(("memo",), lambda: SimilarityMemo(self.vectors.sentences))

    def _unit(self, unit: str) -> tuple[np.ndarray, np.ndarray]:
        """The matrix of the topic's documents or sentences, and the row of it
        that each sentence belongs to."""
        if unit == "documents":
            return self.vectors.documents, self.vectors.doc_of_sentence
        return self.vectors.sentences, np.arange(len(self.vectors.sentences))

    def tree(self, unit: str, k_first: int, k_rest: int, max_nodes: int, seed: int) -> ClassTree:
        """The class tree over the topic's documents or sentences."""
        return self._once(
            ("tree", unit, k_first, k_rest, max_nodes, seed),
            lambda: build_class_tree(self._unit(unit)[0], k_first, k_rest, max_nodes, seed),
        )

    def _context(self, key: tuple, nodes: Callable[[], NodeList], unit: str) -> ScoreContext:
        return self._once(
            key, lambda: ScoreContext(self.refs, self.memo, nodes(), *self._unit(unit))
        )

    def tree_context(
        self, unit: str, k_first: int, k_rest: int, max_nodes: int, seed: int
    ) -> ScoreContext:
        """Context of ``tree(...)`` with the same arguments, nodes in traversal order."""

        def nodes() -> NodeList:
            tree = self.tree(unit, k_first, k_rest, max_nodes, seed)
            return [(i, tree.node(i).members) for i in tree.traversal_order]

        return self._context(("tree_context", unit, k_first, k_rest, max_nodes, seed), nodes, unit)

    def flat_context(self, k: int, seed: int) -> ScoreContext:
        """Context of one round of k-means over the documents (comp2, comp3)."""
        return self._context(
            ("flat_context", k, seed),
            lambda: _flat_clusters(self.vectors.documents, k, seed),
            "documents",
        )

    def root_context(self) -> ScoreContext:
        """Context of a single node holding every document (comp1)."""
        return self._context(
            ("root_context",), lambda: [(0, range(len(self.vectors.documents)))], "documents"
        )


def _work(topic: Topic, embedded: EmbeddedCorpus, work: TopicWork | None) -> TopicWork:
    return work if work is not None else TopicWork(topic, embedded)


def _select_cs(ctx: ScoreContext, delta: float, budget: Budget) -> Summary:
    """Round-robin over the context's nodes by commonality-specificity alone.

    With ``delta`` 1 the score is the clamped similarity to the node centroid.
    """
    state = select_from_context(ctx, Hyperparams(delta=delta), budget, "cs_only")
    return order_summary(state, [node_id for node_id, _ in ctx.groups])


def summarize_comp1(
    topic: Topic, embedded: EmbeddedCorpus, budget: Budget, work: TopicWork | None = None
) -> Summary:
    """Rank all sentences against the global document centroid, no clustering.

    Sentences appear in the summary in score order.
    """
    return _select_cs(_work(topic, embedded, work).root_context(), 1.0, budget)


def _flat_clusters(vectors: np.ndarray, k: int, seed: int) -> NodeList:
    """One round of k-means over the rows of ``vectors``.

    Falls back to a single cluster when the rows cannot be divided.
    Clusters come back largest first, ties by lowest row index.
    """
    items = range(len(vectors))
    result = kmeans(vectors, k, seed=seed) if len(items) >= 2 else None
    if result is None:
        return [(0, items)]
    return list(enumerate(label_groups(items, result.labels)))


def summarize_comp2(
    topic: Topic,
    embedded: EmbeddedCorpus,
    hp: Hyperparams,
    budget: Budget,
    seed: int,
    work: TopicWork | None = None,
) -> Summary:
    """Flat document clusters scored with the commonality-specificity blend."""
    return _select_cs(_work(topic, embedded, work).flat_context(hp.k_first, seed), hp.delta, budget)


def summarize_comp3(
    topic: Topic,
    embedded: EmbeddedCorpus,
    hp: Hyperparams,
    budget: Budget,
    seed: int,
    work: TopicWork | None = None,
) -> Summary:
    """Flat document clusters scored by in-cluster similarity only."""
    return _select_cs(_work(topic, embedded, work).flat_context(hp.k_first, seed), 1.0, budget)


def summarize_comp4(
    topic: Topic,
    embedded: EmbeddedCorpus,
    hp: Hyperparams,
    budget: Budget,
    seed: int,
    max_nodes: int,
    work: TopicWork | None = None,
) -> Summary:
    """The hierarchical pipeline with sentences as the clustered unit.

    Nodes hold sentences; centroids are means of member sentence vectors and
    the complement centroid is the mean of the topic's other sentences.
    """
    work = _work(topic, embedded, work)
    ctx = work.tree_context("sentences", hp.k_first, hp.k_rest, max_nodes, seed)
    return _select_cs(ctx, hp.delta, budget)


def summarize_topic(
    topic: Topic,
    embedded: EmbeddedCorpus,
    spec: VariantSpec,
    max_nodes: int,
    work: TopicWork | None = None,
) -> Summary:
    """Run one method on one topic. Seeds are derived per topic from the
    spec's master seed, so results for a topic never depend on which other
    topics are in the corpus. Callers running several methods or settings on
    one topic pass one ``work`` to all of them, which computes what they
    share once; each call makes a fresh one otherwise."""
    work = _work(topic, embedded, work)
    topic_seed = derive_seed(spec.seed, f"topic:{topic.topic_id}")
    hp, budget = spec.hp, spec.budget
    if spec.kind in ("ours_final", "ours_cs"):
        tree_args = ("documents", hp.k_first, hp.k_rest, max_nodes, topic_seed)
        mode = "final" if spec.kind == "ours_final" else "cs_only"
        return select_summary(
            work.tree(*tree_args),
            topic,
            embedded,
            hp,
            budget,
            scoring_mode=mode,
            context=work.tree_context(*tree_args),
        )
    if spec.kind == "comp1":
        return summarize_comp1(topic, embedded, budget, work)
    if spec.kind == "comp2":
        return summarize_comp2(topic, embedded, hp, budget, topic_seed, work)
    if spec.kind == "comp3":
        return summarize_comp3(topic, embedded, hp, budget, topic_seed, work)
    if spec.kind == "comp4":
        return summarize_comp4(topic, embedded, hp, budget, topic_seed, max_nodes, work)
    raise ValueError(f"unknown method {spec.kind!r}")

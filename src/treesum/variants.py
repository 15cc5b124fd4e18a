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

from .corpus import Topic
from .embedding import EmbeddedCorpus, Vector
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
from .tree import ClassTree, build_class_tree, derive_seed, kmeans

METHODS = ("ours_final", "ours_cs", "comp1", "comp2", "comp3", "comp4")

# (node_id, member keys) per node, in visiting order.
NodeList = list[tuple[int, Sequence[str]]]


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

    Holds the topic's ``sentence_refs`` and ``SimilarityMemo``, its class
    trees and flat document clusters, and one ``ScoreContext`` per node set,
    each keyed by everything it depends on. Methods that agree on those inputs
    get the same object: ours-final and ours-cs share the document tree and
    its context, comp2 and comp3 the flat clusters and theirs, and every
    context shares the memo. One thread at a time may use an instance.
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
    def refs(self) -> list[SentenceRef]:
        return self._once(("refs",), lambda: sentence_refs(self.topic))

    @property
    def memo(self) -> SimilarityMemo:
        return self._once(
            ("memo",), lambda: SimilarityMemo(list(self.vectors("sentences").values()))
        )

    def vectors(self, unit: str) -> dict[str, Vector]:
        """Ordered key -> vector map of the topic's documents or sentences."""
        if unit == "documents":
            return self.embedded.doc_vectors_for(self.topic)
        return self.embedded.sentence_vectors_for(self.topic)

    def tree(self, unit: str, k_first: int, k_rest: int, max_nodes: int, seed: int) -> ClassTree:
        """The class tree over the topic's documents or sentences."""

        def build() -> ClassTree:
            items = list(self.vectors(unit).items())
            return build_class_tree(items, k_first, k_rest, max_nodes, seed)

        return self._once(("tree", unit, k_first, k_rest, max_nodes, seed), build)

    def _context(self, key: tuple, nodes: Callable[[], NodeList], unit: str) -> ScoreContext:
        def build() -> ScoreContext:
            universe = self.vectors(unit)
            return ScoreContext(self.topic, self.embedded, nodes(), universe, self.memo, self.refs)

        return self._once(key, build)

    def tree_context(
        self, unit: str, k_first: int, k_rest: int, max_nodes: int, seed: int
    ) -> ScoreContext:
        """Context of ``tree(...)`` with the same arguments, nodes in traversal order."""

        def nodes() -> NodeList:
            tree = self.tree(unit, k_first, k_rest, max_nodes, seed)
            return [(i, tree.node(i).member_keys) for i in tree.traversal_order]

        return self._context(("tree_context", unit, k_first, k_rest, max_nodes, seed), nodes, unit)

    def flat_context(self, k: int, seed: int) -> ScoreContext:
        """Context of one round of k-means over the documents (comp2, comp3)."""
        return self._context(
            ("flat_context", k, seed),
            lambda: _flat_document_clusters(self.topic, self.embedded, k, seed),
            "documents",
        )

    def root_context(self) -> ScoreContext:
        """Context of a single node holding every document (comp1)."""
        return self._context(
            ("root_context",), lambda: [(0, list(self.vectors("documents")))], "documents"
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


def _flat_document_clusters(topic: Topic, embedded: EmbeddedCorpus, k: int, seed: int) -> NodeList:
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

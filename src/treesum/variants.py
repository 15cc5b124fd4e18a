"""The six methods as records over one summarize path.

Every method groups a topic's sentences, scores them and runs the same
round-robin selection, so budget semantics and the no-duplicate rule are
identical everywhere. The methods differ only in the fields of their
``Method`` record in ``METHOD_TABLE``:

* ``ours_final`` and ``ours_cs`` select from the class tree of the topic's
  documents, with the full three-way score or with commonality-specificity
  alone.
* ``comp1`` ranks every sentence by similarity to the centroid of all
  documents: commonality only, no clustering.
* ``comp2`` clusters documents once (flat k-means) and picks the best
  commonality-specificity sentence per cluster, round-robin.
* ``comp3`` is comp2 but scores by similarity to the cluster centroid alone,
  ignoring what lies outside the cluster.
* ``comp4`` runs the hierarchical pipeline over sentence vectors instead of
  document vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .corpus import Topic
from .embedding import EmbeddedCorpus, TopicVectors
from .scoring import Hyperparams
from .selection import Budget, ScoreContext, SimilarityMemo, Summary, select_summary
from .tree import build_class_tree, derive_seed, kmeans, label_groups


@dataclass(frozen=True)
class Method:
    """What one method clusters, how it groups it and how it scores.

    ``grouping`` is ``"root"`` (one node holding the whole topic), ``"flat"``
    (one round of k-means into ``k_first`` clusters) or ``"tree"`` (the
    class tree); ``unit`` is the clustered unit, ``"documents"`` or
    ``"sentences"``; ``scoring`` is a ``run_selection`` mode, ``"final"`` or
    ``"cs_only"``. ``delta``, when set, replaces the configured delta: 1.0
    scores by similarity to the node centroid alone.
    """

    grouping: str
    unit: str
    scoring: str
    delta: float | None = None


METHOD_TABLE = {
    "ours_final": Method("tree", "documents", "final"),
    "ours_cs": Method("tree", "documents", "cs_only"),
    "comp1": Method("root", "documents", "cs_only", delta=1.0),
    "comp2": Method("flat", "documents", "cs_only"),
    "comp3": Method("flat", "documents", "cs_only", delta=1.0),
    "comp4": Method("tree", "sentences", "cs_only"),
}

METHODS = tuple(METHOD_TABLE)


@dataclass(frozen=True)
class VariantSpec:
    """A method choice plus everything needed to run it reproducibly."""

    kind: str
    hp: Hyperparams
    budget: Budget
    seed: int

    def __post_init__(self) -> None:
        kind = self.kind.replace("-", "_")
        if kind not in METHOD_TABLE:
            raise ValueError(f"unknown method {self.kind!r}")
        object.__setattr__(self, "kind", kind)


class TopicWork:
    """What the methods run on one topic share, each piece computed on first use.

    Holds the topic's ``TopicVectors`` and ``SimilarityMemo`` and one
    ``ScoreContext`` per grouping, keyed by everything it depends on; a tree
    grouping's context carries its class tree. ``context`` is the only way a
    selection gets its context. Methods that agree on those inputs get the
    same object: ours-final and ours-cs share the document tree's context,
    comp2 and comp3 the flat clusters', and every context shares the memo.
    One thread at a time may use an instance.
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
    def memo(self) -> SimilarityMemo:
        return self._once(("memo",), lambda: SimilarityMemo(self.vectors.sentences))

    def context(
        self, grouping: str, unit: str, k_first: int, k_rest: int, max_nodes: int, seed: int
    ) -> ScoreContext:
        """Context of the topic's ``unit`` grouped by ``grouping`` (see
        ``Method``). A tree grouping's nodes come in traversal order from the
        class tree that ``build_class_tree`` makes with the same arguments."""

        def build() -> ScoreContext:
            if unit == "documents":
                universe, owner = self.vectors.documents, self.vectors.doc_of_sentence
            else:
                universe, owner = self.vectors.sentences, np.arange(len(self.vectors.sentences))
            tree = None
            if grouping == "root":
                nodes = [(0, range(len(universe)))]
            elif grouping == "flat":
                nodes = _flat_clusters(universe, k_first, seed)
            else:
                tree = build_class_tree(universe, k_first, k_rest, max_nodes, seed)
                nodes = [(i, tree.node(i).members) for i in tree.traversal_order]
            return ScoreContext(self.topic, self.memo, nodes, universe, owner, tree)

        return self._once(("context", grouping, unit, k_first, k_rest, max_nodes, seed), build)


def _flat_clusters(vectors: np.ndarray, k: int, seed: int) -> list[tuple[int, Sequence[int]]]:
    """One round of k-means over the rows of ``vectors``, as (cluster index,
    row indices) per cluster.

    Falls back to a single cluster when the rows cannot be divided.
    Clusters come back largest first, ties by lowest row index.
    """
    items = range(len(vectors))
    result = kmeans(vectors, k, seed=seed) if len(items) >= 2 else None
    if result is None:
        return [(0, items)]
    return list(enumerate(label_groups(items, result.labels)))


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
    share once; each call makes a fresh one otherwise. The summary carries
    the class tree it was selected from, None for the methods without one."""
    if work is None:
        work = TopicWork(topic, embedded)
    method = METHOD_TABLE[spec.kind]
    hp = spec.hp if method.delta is None else replace(spec.hp, delta=method.delta)
    seed = derive_seed(spec.seed, f"topic:{topic.topic_id}")
    context = work.context(method.grouping, method.unit, hp.k_first, hp.k_rest, max_nodes, seed)
    return select_summary(context, hp, spec.budget, method.scoring)

"""The six methods as records over one summarize path.

Every method groups a topic's sentences, scores them with the paper's
``alpha*cs + beta*nr + gamma*pos`` and runs the same round-robin selection,
so budget semantics and the no-duplicate rule are identical everywhere. The
methods differ only in the fields of their ``Method`` record in
``METHOD_TABLE``: what they cluster and which hyperparameters they pin.
Ranking by commonality-specificity alone ("cs-only") is the same score with
the weights pinned to (alpha, beta, gamma) = (1, 0, 0).

* ``ours_final`` and ``ours_cs`` select from the class tree of the topic's
  documents, with the configured weights or cs-only.
* ``comp1`` ranks every sentence by similarity to the centroid of all
  documents: commonality only (delta pinned to 1), no clustering.
* ``comp2`` clusters documents once (flat k-means) and picks the best
  cs-only sentence per cluster, round-robin.
* ``comp3`` is comp2 but scores by similarity to the cluster centroid alone
  (delta pinned to 1), ignoring what lies outside the cluster.
* ``comp4`` runs the hierarchical pipeline over sentence vectors instead of
  document vectors, cs-only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .corpus import Topic
from .embedding import EmbeddedCorpus
from .scoring import Hyperparams
from .selection import Budget, ScoreContext, SimilarityMemo, Summary, select_summary
from .tree import build_class_tree, derive_seed, kmeans, label_groups


@dataclass(frozen=True)
class Method:
    """What one method clusters, how it groups it and which hyperparameters
    it pins.

    ``grouping`` is ``"root"`` (one node holding the whole topic), ``"flat"``
    (one round of k-means into ``k_first`` clusters) or ``"tree"`` (the
    class tree); ``unit`` is the clustered unit, ``"documents"`` or
    ``"sentences"``. ``pinned`` maps ``Hyperparams`` fields to the values
    that replace the configured ones: cs-only pins the weights to
    (alpha, beta, gamma) = (1, 0, 0), and delta 1.0 scores by similarity to
    the node centroid alone.
    """

    grouping: str
    unit: str
    pinned: Mapping[str, float]


CS_ONLY = {"alpha": 1.0, "beta": 0.0, "gamma": 0.0}

METHOD_TABLE = {
    "ours_final": Method("tree", "documents", {}),
    "ours_cs": Method("tree", "documents", CS_ONLY),
    "comp1": Method("root", "documents", {**CS_ONLY, "delta": 1.0}),
    "comp2": Method("flat", "documents", CS_ONLY),
    "comp3": Method("flat", "documents", {**CS_ONLY, "delta": 1.0}),
    "comp4": Method("tree", "sentences", CS_ONLY),
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
    """What the methods run on one topic share.

    ``sentences`` holds the topic's vectors as rows in (doc_index,
    sent_index) order, ``doc_of_sentence[i]`` the index of sentence ``i``'s
    document, and row ``d`` of ``documents`` the mean of document ``d``'s
    sentence rows; ``memo`` is the topic's ``SimilarityMemo``. One
    ``ScoreContext`` per grouping is built on first use, keyed by everything
    it depends on; a tree grouping's context carries its class tree.
    ``context`` is the only way a selection gets its context. Methods that
    agree on those inputs get the same object: ours-final and ours-cs share
    the document tree's context, comp2 and comp3 the flat clusters', and
    every context shares the memo. Stacking copies the topic's vectors, so a
    caller builds one when it starts on a topic and drops it with the topic.
    One thread at a time may use an instance.
    """

    def __init__(self, topic: Topic, embedded: EmbeddedCorpus):
        self.topic = topic
        self.sentences = np.stack(embedded.vectors[topic.topic_id])
        counts = [len(doc.sentences) for doc in topic.documents]
        ends = np.cumsum(counts)
        self.documents = np.stack([self.sentences[end - n : end].mean(axis=0) for n, end in zip(counts, ends)])
        self.doc_of_sentence = np.repeat(np.arange(len(counts)), counts)
        self.memo = SimilarityMemo(self.sentences)
        self._contexts: dict[tuple, ScoreContext] = {}

    def context(
        self, grouping: str, unit: str, k_first: int, k_rest: int, max_nodes: int, seed: int
    ) -> ScoreContext:
        """Context of the topic's ``unit`` grouped by ``grouping`` (see
        ``Method``). A tree grouping's nodes come in traversal order from the
        class tree that ``build_class_tree`` makes with the same arguments."""
        key = (grouping, unit, k_first, k_rest, max_nodes, seed)
        if key in self._contexts:
            return self._contexts[key]
        if unit == "documents":
            universe, owner = self.documents, self.doc_of_sentence
        else:
            universe, owner = self.sentences, np.arange(len(self.sentences))
        tree = None
        if grouping == "root":
            nodes = [(0, range(len(universe)))]
        elif grouping == "flat":
            nodes = _flat_clusters(universe, k_first, seed)
        else:
            tree = build_class_tree(universe, k_first, k_rest, max_nodes, seed)
            nodes = [(i, tree.node(i).members) for i in tree.traversal_order]
        self._contexts[key] = ScoreContext(self.topic, self.memo, nodes, universe, owner, tree)
        return self._contexts[key]


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
    hp = replace(spec.hp, **method.pinned)
    seed = derive_seed(spec.seed, f"topic:{topic.topic_id}")
    context = work.context(method.grouping, method.unit, hp.k_first, hp.k_rest, max_nodes, seed)
    return select_summary(context, hp, spec.budget)

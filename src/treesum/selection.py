"""Sentence selection over the class tree and summary assembly.

Selection walks the tree's traversal order (layer by layer, larger nodes
first) and takes at most one sentence per node per pass; passes repeat from
the top until the length budget is met or every sentence is used. The
sentence that crosses the budget is kept: evaluation-time truncation deals
with the overshoot. The final summary orders sentences by their node's
traversal position, then by the order they were picked.

Selection addresses a sentence by its index into the topic's own
``(Document, Sentence)`` pairs in (doc_index, sent_index) order; a pick is
the triple (sentence index, node_id, pass), and only the final summary
copies sentence fields into ``SummarySentence`` records. The score terms
that depend on neither delta nor the weights (similarities to node
centroids, sentence-to-sentence similarities and position scores) live in a
``ScoreContext``, which ``variants.TopicWork.context`` builds once per
grouping, so repeated selections from one tree, as in a hyperparameter
search, compute them once. ``run_selection`` is the one selection loop and
``score_final`` its one scoring rule: it reads those terms from the context
and blends them under the delta and weights of the run. The methods that
rank by commonality-specificity alone ("cs-only") run it with the weights
pinned to (alpha, beta, gamma) = (1, 0, 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .corpus import Document, Sentence, Topic
from .embedding import Vector, cosine_rows, prescale_rows
from .scoring import (
    Hyperparams,
    NodeCentroids,
    blend_cs,
    clamp01,
    node_centroids,
    non_redundancy,
    outside_term,
    score_final,
    score_position,
)
from .tree import ClassTree


@dataclass(frozen=True)
class Budget:
    """Summary length limit, counted in whitespace words or UTF-8 bytes."""

    unit: str  # "words" | "bytes"
    limit: int

    def __post_init__(self) -> None:
        if self.unit not in ("words", "bytes"):
            raise ValueError(f"unknown budget unit {self.unit!r}")
        if self.limit < 1:
            raise ValueError("budget limit must be >= 1")

    def size_of(self, sent: Sentence) -> int:
        return sent.word_count if self.unit == "words" else sent.byte_length


@dataclass
class SelectionState:
    """Evolving state of one selection run: each pick as (sentence index,
    node_id, pass), in pick order."""

    selected: list[tuple[int, int, int]] = field(default_factory=list)
    consumed: int = 0
    iteration: int = 1


@dataclass(frozen=True)
class SummarySentence:
    text: str
    node_id: int
    doc_id: str
    doc_index: int
    sent_index: int
    iteration: int

    @property
    def position_1based(self) -> int:
        return self.sent_index + 1


@dataclass(frozen=True)
class Summary:
    sentences: tuple[SummarySentence, ...]
    # The class tree the sentences were selected from, for the tree methods.
    tree: ClassTree | None = field(default=None, compare=False, repr=False)

    @property
    def text(self) -> str:
        return " ".join(s.text for s in self.sentences)


class SimilarityMemo:
    """Pre-scaled sentence vectors of one topic and their pair similarities.

    Sentences are addressed by their index in (doc_index, sent_index) order;
    the memo holds them as one ``prescale_rows`` matrix. Rows of clamped
    sentence-to-sentence similarities are computed the first time a sentence
    is selected and kept for the memo's lifetime, so selections that share a
    memo (grid points, cluster counts) compute each pair once.
    """

    def __init__(self, vectors: Sequence[Vector] | np.ndarray):
        self.scaled, self.norms = prescale_rows(vectors)
        self._rows: dict[int, np.ndarray] = {}

    def _clamped(self, b: Vector, nb: float) -> np.ndarray:
        return clamp01(cosine_rows(self.scaled, self.norms, b, nb))

    def row(self, j: int) -> np.ndarray:
        """Clamped similarity of every sentence to sentence ``j``."""
        row = self._rows.get(j)
        if row is None:
            row = self._rows[j] = self._clamped(self.scaled[j], self.norms[j])
        return row

    def node_terms(self, members: np.ndarray, centroids: NodeCentroids) -> tuple[np.ndarray, np.ndarray]:
        """Clamped inside similarity and outside term of each sentence in
        ``members``, in the order of ``members``."""
        inside = self._clamped(*_prescaled(centroids.inside))[members]
        if centroids.outside is None:
            return inside, np.full(len(members), outside_term(None))
        return inside, outside_term(self._clamped(*_prescaled(centroids.outside))[members])


def _prescaled(vec: Vector) -> tuple[Vector, float]:
    scaled, norms = prescale_rows(vec[None])
    return scaled[0], norms[0]


class ScoreContext:
    """The delta- and weight-free score terms of one topic's selection groups.

    ``nodes`` lists (node_id, item indices) in visiting order. Items are rows
    of ``universe``, the matrix of the clustered unit (the topic's documents
    or its sentences), and ``owner[i]`` is the row that sentence ``i``
    belongs to. ``sentences`` holds the topic's ``(Document, Sentence)``
    pairs in (doc_index, sent_index) order; ``groups`` holds, per node in
    visiting order, (node_id, members, inside, outside): the sorted indices
    of its member sentences and, for each member, its clamped inside
    similarity and outside term. ``position`` holds every sentence's position
    score and ``tree`` the class tree the nodes came from (None for the
    groupings without one). Selection under any delta and weights reuses
    them, and contexts of one topic may share ``memo``.
    """

    def __init__(
        self,
        topic: Topic,
        memo: SimilarityMemo,
        nodes: Sequence[tuple[int, Sequence[int]]],
        universe: np.ndarray,
        owner: np.ndarray,
        tree: ClassTree | None,
    ):
        self.sentences = [(doc, sent) for doc in topic.documents for sent in doc.sentences]
        self.memo = memo
        self.tree = tree
        self.position = np.array(
            [score_position(sent.position_1based, len(doc.sentences)) for doc, sent in self.sentences]
        )
        self.groups: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
        for node_id, items in nodes:
            items = np.array(items, dtype=np.intp)
            members = np.flatnonzero(np.isin(owner, items))
            self.groups.append((node_id, members, *memo.node_terms(members, node_centroids(universe, items))))


def run_selection(ctx: ScoreContext, hp: Hyperparams, budget: Budget) -> SelectionState:
    """Round-robin selection over ``ctx``'s groups under one delta and weights.

    Every sentence is ranked by ``score_final``, the paper's
    ``alpha*cs + beta*nr + gamma*pos``, whose non-redundancy term is one
    minus the sentence's highest similarity to everything selected so far.
    Ranking by commonality-specificity alone is this score with the weights
    pinned to (1, 0, 0): ``nr`` and ``pos`` are finite and ``cs >= 0``, so
    ``1.0*cs + 0.0*nr + 0.0*pos`` is ``cs`` bit for bit. Each pass takes the
    best-scoring unselected member from every group in turn, exact ties
    going to the lowest (doc_index, sent_index); groups whose sentences are
    all taken are skipped. Selection stops the moment the budget is consumed
    (keeping the crossing sentence) or when a full pass selects nothing.
    """
    groups = [(node_id, members, blend_cs(inside, out, hp.delta)) for node_id, members, inside, out in ctx.groups]
    state = SelectionState()
    taken = np.zeros(len(ctx.sentences), dtype=bool)
    # Highest clamped similarity to the picks so far. Similarities are >= 0,
    # so 0 stands for "nothing picked" and gives nr = 1.
    worst = np.zeros(len(ctx.sentences))
    while True:
        picked_in_pass = False
        for node_id, members, cs in groups:
            free = ~taken[members]
            if not free.any():
                continue
            candidates = members[free]
            scores = score_final(cs[free], non_redundancy(worst[candidates]), ctx.position[candidates], hp)
            best = int(candidates[int(np.argmax(scores))])
            taken[best] = True
            state.selected.append((best, node_id, state.iteration))
            state.consumed += budget.size_of(ctx.sentences[best][1])
            picked_in_pass = True
            if state.consumed >= budget.limit:
                return state
            worst = np.maximum(worst, ctx.memo.row(best))
        if not picked_in_pass:
            return state
        state.iteration += 1


def order_summary(
    state: SelectionState, traversal_order: Sequence[int], sentences: Sequence[tuple[Document, Sentence]]
) -> Summary:
    """Arrange selected sentences into the final summary order.

    Primary key: the originating node's position in the traversal order.
    Secondary key: the order in which sentences were selected, which keeps a
    node's first-pass sentence ahead of its later ones. Picks index
    ``sentences``, the pairs selection ran on.
    """
    position = {node_id: pos for pos, node_id in enumerate(traversal_order)}
    ordered = sorted(enumerate(state.selected), key=lambda item: (position[item[1][1]], item[0]))
    summary = []
    for _, (index, node_id, iteration) in ordered:
        doc, sent = sentences[index]
        summary.append(
            SummarySentence(
                text=sent.text,
                node_id=node_id,
                doc_id=doc.doc_id,
                doc_index=doc.doc_index,
                sent_index=sent.sent_index,
                iteration=iteration,
            )
        )
    return Summary(sentences=tuple(summary))


def select_summary(context: ScoreContext, hp: Hyperparams, budget: Budget) -> Summary:
    """Select a summary from ``context``'s groups, as ``run_selection`` does,
    and attach the context's class tree. Picks are ordered by the context's
    group order."""
    state = run_selection(context, hp, budget)
    order = [node_id for node_id, *_ in context.groups]
    return replace(order_summary(state, order, context.sentences), tree=context.tree)

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
search, compute them once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

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
        """Clamped inside similarity and outside term of each member sentence.

        Both arrays cover every sentence of the topic, NaN off the node, so
        they can be indexed by sentence index.
        """
        inside = np.full(len(self.norms), np.nan)
        outside = np.full(len(self.norms), np.nan)
        inside[members] = self._clamped(*_prescaled(centroids.inside))[members]
        if centroids.outside is None:
            outside[members] = outside_term(None)
        else:
            outside[members] = outside_term(self._clamped(*_prescaled(centroids.outside))[members])
        return inside, outside


def _prescaled(vec: Vector) -> tuple[Vector, float]:
    scaled, norms = prescale_rows(vec[None])
    return scaled[0], norms[0]


class ScoreContext:
    """The delta- and weight-free score terms of one topic's selection groups.

    ``nodes`` lists (node_id, item indices) in visiting order. Items are rows
    of ``universe``, the matrix of the clustered unit (the topic's documents
    or its sentences), and ``owner[i]`` is the row that sentence ``i``
    belongs to. The context holds ``sentences``, the topic's
    ``(Document, Sentence)`` pairs in (doc_index, sent_index) order, each
    node's member sentences with their clamped inside similarity and outside
    term, every sentence's position score and ``memo``; selection under any
    delta and weights reuses them, and contexts of one topic may share
    ``memo``.
    """

    def __init__(
        self,
        topic: Topic,
        memo: SimilarityMemo,
        nodes: Sequence[tuple[int, Sequence[int]]],
        universe: np.ndarray,
        owner: np.ndarray,
    ):
        self.sentences = [(doc, sent) for doc in topic.documents for sent in doc.sentences]
        self.memo = memo
        self.position = np.array(
            [score_position(sent.position_1based, len(doc.sentences)) for doc, sent in self.sentences]
        )
        self.groups: list[tuple[int, np.ndarray]] = []
        self.terms: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for node_id, items in nodes:
            items = np.array(items, dtype=np.intp)
            members = np.flatnonzero(np.isin(owner, items))
            self.groups.append((node_id, members))
            self.terms[node_id] = memo.node_terms(members, node_centroids(universe, items))


ScoreFn = Callable[[int, np.ndarray, Sequence[int]], np.ndarray]


def run_selection(
    sentences: Sequence[tuple[Document, Sentence]],
    groups: Sequence[tuple[int, np.ndarray]],
    score_fn: ScoreFn,
    budget: Budget,
) -> SelectionState:
    """Round-robin selection engine shared by the tree pipeline and variants.

    ``groups`` lists (node_id, member indices into ``sentences``) in
    visiting order; ``sentences`` is in (doc_index, sent_index) order and
    members are sorted. ``score_fn(node_id, candidates, picked)`` scores the unselected
    candidates of a group given the indices picked so far. Each pass takes
    the best-scoring candidate from every group in turn, exact ties going to
    the lowest (doc_index, sent_index); groups whose sentences are all taken
    are skipped. Selection stops the moment the budget is consumed (keeping
    the crossing sentence) or when a full pass selects nothing.
    """
    state = SelectionState()
    taken = np.zeros(len(sentences), dtype=bool)
    picked: list[int] = []
    while True:
        picked_in_pass = False
        for node_id, members in groups:
            candidates = members[~taken[members]]
            if candidates.size == 0:
                continue
            best = int(candidates[int(np.argmax(score_fn(node_id, candidates, picked)))])
            taken[best] = True
            picked.append(best)
            state.selected.append((best, node_id, state.iteration))
            state.consumed += budget.size_of(sentences[best][1])
            picked_in_pass = True
            if state.consumed >= budget.limit:
                return state
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


def select_from_context(
    ctx: ScoreContext, hp: Hyperparams, budget: Budget, scoring_mode: str
) -> SelectionState:
    """Run selection over a context's groups under one delta and weights.

    ``scoring_mode`` is ``"cs_only"`` to rank by the commonality-specificity
    score alone or ``"final"`` for the full three-way combination. The
    non-redundancy score follows the selection: a running maximum of each
    sentence's similarity to everything selected so far.
    """
    if scoring_mode not in ("cs_only", "final"):
        raise ValueError(f"unknown scoring mode {scoring_mode!r}")
    cs = {node_id: blend_cs(*terms, hp.delta) for node_id, terms in ctx.terms.items()}

    if scoring_mode == "cs_only":
        def score_fn(node_id: int, candidates: np.ndarray, picked: Sequence[int]) -> np.ndarray:
            return cs[node_id][candidates]
    else:
        # Highest clamped similarity to the picks so far. Similarities are
        # >= 0, so 0 stands for "nothing picked" and gives nr = 1.
        worst = np.zeros(len(ctx.sentences))
        folded = 0

        def score_fn(node_id: int, candidates: np.ndarray, picked: Sequence[int]) -> np.ndarray:
            nonlocal worst, folded
            for j in picked[folded:]:
                worst = np.maximum(worst, ctx.memo.row(j))
            folded = len(picked)
            return score_final(
                cs[node_id][candidates],
                non_redundancy(worst[candidates]),
                ctx.position[candidates],
                hp,
            )

    return run_selection(ctx.sentences, ctx.groups, score_fn, budget)


def select_summary(
    context: ScoreContext,
    hp: Hyperparams,
    budget: Budget,
    scoring_mode: str,
    tree: ClassTree | None = None,
) -> Summary:
    """Select a summary from ``context``'s groups and attach ``tree``, the
    class tree they came from (None for the methods without one).

    ``scoring_mode`` is as in ``select_from_context``. Picks are ordered by
    the context's group order.
    """
    state = select_from_context(context, hp, budget, scoring_mode)
    order = [node_id for node_id, _ in context.groups]
    return replace(order_summary(state, order, context.sentences), tree=tree)

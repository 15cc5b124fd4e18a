"""Sentence selection over the class tree and summary assembly.

Selection walks the tree's traversal order (layer by layer, larger nodes
first) and takes at most one sentence per node per pass; passes repeat from
the top until the length budget is met or every sentence is used. The
sentence that crosses the budget is kept: evaluation-time truncation deals
with the overshoot. The final summary orders sentences by their node's
traversal position, then by the order they were picked.

The score terms that depend on neither delta nor the weights (similarities
to node centroids, sentence-to-sentence similarities and position scores)
live in a ``ScoreContext``, so repeated selections from one tree, as in a
hyperparameter search, compute them once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .corpus import Topic
from .embedding import EmbeddedCorpus, Vector, cosine_rows, prescale_rows
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

    def size_of(self, ref: "SentenceRef") -> int:
        return ref.word_count if self.unit == "words" else ref.byte_length


@dataclass(frozen=True)
class SentenceRef:
    """Everything selection needs to know about one sentence."""

    doc_id: str
    doc_index: int
    sent_index: int
    text: str
    word_count: int
    byte_length: int
    doc_sentence_count: int

    @property
    def position_1based(self) -> int:
        return self.sent_index + 1


@dataclass(frozen=True)
class SelectedSentence:
    ref: SentenceRef
    node_id: int
    iteration: int


@dataclass
class SelectionState:
    """Evolving state of one selection run."""

    selected: list[SelectedSentence] = field(default_factory=list)
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


def sentence_refs(topic: Topic) -> list[SentenceRef]:
    """All sentences of a topic ordered by (doc_index, sent_index)."""
    refs = []
    for doc in topic.documents:
        for sent in doc.sentences:
            refs.append(
                SentenceRef(
                    doc_id=doc.doc_id,
                    doc_index=doc.doc_index,
                    sent_index=sent.sent_index,
                    text=sent.text,
                    word_count=sent.word_count,
                    byte_length=sent.byte_length,
                    doc_sentence_count=len(doc.sentences),
                )
            )
    return refs


class SimilarityMemo:
    """Pre-scaled sentence vectors of one topic and their pair similarities.

    Sentences are addressed by their index in ``sentence_refs`` order; the
    memo holds them as one ``prescale_rows`` matrix. Rows of clamped
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
    belongs to. The context holds each node's member sentences with their
    clamped inside similarity and outside term, every sentence's position
    score, ``refs`` (the topic's ``sentence_refs``) and ``memo``; selection
    under any delta and weights reuses them, and contexts of one topic may
    share ``refs`` and ``memo``.
    """

    def __init__(
        self,
        refs: Sequence[SentenceRef],
        memo: SimilarityMemo,
        nodes: Sequence[tuple[int, Sequence[int]]],
        universe: np.ndarray,
        owner: np.ndarray,
    ):
        self.refs = refs
        self.memo = memo
        self.position = np.array(
            [score_position(r.position_1based, r.doc_sentence_count) for r in self.refs]
        )
        self.groups: list[tuple[int, np.ndarray]] = []
        self.terms: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for node_id, items in nodes:
            items = np.array(items, dtype=np.intp)
            members = np.flatnonzero(np.isin(owner, items))
            self.groups.append((node_id, members))
            self.terms[node_id] = memo.node_terms(members, node_centroids(universe, items))

    @classmethod
    def for_tree(
        cls,
        tree: ClassTree,
        topic: Topic,
        embedded: EmbeddedCorpus,
        memo: SimilarityMemo | None = None,
    ) -> "ScoreContext":
        """Context of a document class tree, nodes in traversal order."""
        vectors = embedded.topic_vectors(topic)
        if memo is None:
            memo = SimilarityMemo(vectors.sentences)
        nodes = [(i, tree.node(i).members) for i in tree.traversal_order]
        return cls(sentence_refs(topic), memo, nodes, vectors.documents, vectors.doc_of_sentence)


ScoreFn = Callable[[int, np.ndarray, Sequence[int]], np.ndarray]


def run_selection(
    refs: Sequence[SentenceRef],
    groups: Sequence[tuple[int, np.ndarray]],
    score_fn: ScoreFn,
    budget: Budget,
) -> SelectionState:
    """Round-robin selection engine shared by the tree pipeline and variants.

    ``groups`` lists (node_id, member indices into ``refs``) in visiting
    order; ``refs`` is in (doc_index, sent_index) order and members are
    sorted. ``score_fn(node_id, candidates, picked)`` scores the unselected
    candidates of a group given the indices picked so far. Each pass takes
    the best-scoring candidate from every group in turn, exact ties going to
    the lowest (doc_index, sent_index); groups whose sentences are all taken
    are skipped. Selection stops the moment the budget is consumed (keeping
    the crossing sentence) or when a full pass selects nothing.
    """
    state = SelectionState()
    taken = np.zeros(len(refs), dtype=bool)
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
            ref = refs[best]
            state.selected.append(SelectedSentence(ref=ref, node_id=node_id, iteration=state.iteration))
            state.consumed += budget.size_of(ref)
            picked_in_pass = True
            if state.consumed >= budget.limit:
                return state
        if not picked_in_pass:
            return state
        state.iteration += 1


def order_summary(state: SelectionState, traversal_order: Sequence[int]) -> Summary:
    """Arrange selected sentences into the final summary order.

    Primary key: the originating node's position in the traversal order.
    Secondary key: the order in which sentences were selected, which keeps a
    node's first-pass sentence ahead of its later ones.
    """
    position = {node_id: pos for pos, node_id in enumerate(traversal_order)}
    ordered = sorted(
        enumerate(state.selected),
        key=lambda item: (position[item[1].node_id], item[0]),
    )
    sentences = tuple(
        SummarySentence(
            text=sel.ref.text,
            node_id=sel.node_id,
            doc_id=sel.ref.doc_id,
            doc_index=sel.ref.doc_index,
            sent_index=sel.ref.sent_index,
            iteration=sel.iteration,
        )
        for _, sel in ordered
    )
    return Summary(sentences=sentences)


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
        worst = np.zeros(len(ctx.refs))
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

    return run_selection(ctx.refs, ctx.groups, score_fn, budget)


def select_summary(
    tree: ClassTree | None,
    topic: Topic,
    embedded: EmbeddedCorpus,
    hp: Hyperparams,
    budget: Budget,
    scoring_mode: str = "final",
    context: ScoreContext | None = None,
) -> Summary:
    """Select a summary for one topic and attach ``tree`` to it.

    ``scoring_mode`` is as in ``select_from_context``. ``context`` carries the
    score terms of the groups selected from; without one, they are the nodes
    of ``tree``, a document class tree, in traversal order. Callers selecting
    repeatedly from one grouping pass the context to compute it once, and
    methods that select without a tree pass ``tree=None`` and their context.
    Picks are ordered by the context's group order.
    """
    if context is None:
        if tree is None or tree.node_count < 1:
            raise ValueError("selection needs a non-empty tree or a context")
        context = ScoreContext.for_tree(tree, topic, embedded)
    state = select_from_context(context, hp, budget, scoring_mode)
    return replace(order_summary(state, [node_id for node_id, _ in context.groups]), tree=tree)

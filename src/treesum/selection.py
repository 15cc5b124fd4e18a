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
search, compute them once. ``run_selections`` is the one selection loop and
``score_final`` its one scoring rule: it reads those terms from the context
and blends them under the delta and weights of each run. It runs any number
of hyperparameter sets over one context in lockstep, one row of its arrays
per set, with the same picks as running each alone; ``run_selection`` is
its one-row case, and a grid search runs every delta and weight triple of a
class tree as one call. The methods that rank by commonality-specificity
alone ("cs-only") run it with the weights pinned to (alpha, beta, gamma) =
(1, 0, 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import Document, Sentence
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

    def __init__(self, vectors: np.ndarray):
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

    def rows(self, js: Sequence[int]) -> np.ndarray:
        """``row(j)`` of each of ``js``, stacked; one row, shaped like ``row``,
        when ``js`` holds one index."""
        if len(js) == 1:
            return self.row(js[0])
        distinct = dict.fromkeys(js)
        for i, j in enumerate(distinct):
            distinct[j] = i
        return np.stack([self.row(j) for j in distinct])[[distinct[j] for j in js]]

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
    them, and the sentence sizes of each budget unit (``sizes``); contexts
    of one topic share ``sentences``, ``position`` and ``memo``.
    """

    def __init__(
        self,
        sentences: Sequence[tuple[Document, Sentence]],
        position: np.ndarray,
        memo: SimilarityMemo,
        nodes: Sequence[tuple[int, Sequence[int]]],
        universe: np.ndarray,
        owner: np.ndarray,
        tree: ClassTree | None,
    ):
        self.sentences = sentences
        self.position = position
        self.memo = memo
        self.tree = tree
        self.groups: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
        for node_id, items in nodes:
            items = np.array(items, dtype=np.intp)
            in_node = np.zeros(len(universe), dtype=bool)
            in_node[items] = True
            members = np.flatnonzero(in_node[owner])
            self.groups.append((node_id, members, *memo.node_terms(members, node_centroids(universe, items))))
        self.order = [node_id for node_id, *_ in self.groups]
        self._sizes: dict[str, np.ndarray] = {}

    def sizes(self, budget: Budget) -> np.ndarray:
        """Every sentence's size in ``budget``'s unit, made once per unit."""
        sizes = self._sizes.get(budget.unit)
        if sizes is None:
            sizes = np.array([budget.size_of(sent) for _, sent in self.sentences], dtype=np.int64)
            self._sizes[budget.unit] = sizes
        return sizes


class _Weights(NamedTuple):
    """The weights of the live rows as ``(rows, 1)`` columns, which
    ``score_final`` reads in place of a ``Hyperparams``."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray


def run_selections(ctx: ScoreContext, hps: Sequence[Hyperparams], budget: Budget) -> list[SelectionState]:
    """Round-robin selection over ``ctx``'s groups under each of ``hps``, in
    lockstep; one state per hyperparameter set, in the order of ``hps``.

    Every sentence is ranked by ``score_final``, the paper's
    ``alpha*cs + beta*nr + gamma*pos``, whose non-redundancy term is one
    minus the sentence's highest similarity to everything selected so far.
    Ranking by commonality-specificity alone is this score with the weights
    pinned to (1, 0, 0): ``nr`` and ``pos`` are finite and ``cs >= 0``, so
    ``1.0*cs + 0.0*nr + 0.0*pos`` is ``cs`` bit for bit. Each pass takes the
    best-scoring unselected member from every group in turn, exact ties
    going to the lowest (doc_index, sent_index); groups whose sentences are
    all taken are skipped. A run stops the moment its budget is consumed
    (keeping the crossing sentence) or when a full pass selects nothing.

    Each hyperparameter set is one row of ``(rows, sentences)`` arrays, and
    a group visit scores all live rows at once as a ``(rows, members)``
    matrix: each row's cs blend (made once per distinct delta) and its
    weights (``(rows, 1)`` columns) go through the same IEEE operations as
    ``score_final`` on that row alone, taken members score ``-inf`` and each
    row takes its first maximum. So every row picks what a run under its
    hyperparameters alone picks.
    """
    deltas: dict[float, int] = {}
    blend_row = np.array([deltas.setdefault(hp.delta, len(deltas)) for hp in hps], dtype=np.intp)
    # Per group in visiting order, (node_id, members, cs, positions): the
    # members' cs blends as a (deltas, members) matrix, one row per delta,
    # and their position scores as a (1, members) row.
    delta = np.array(list(deltas), dtype=float)[:, None]
    visits = [
        (node_id, members, blend_cs(inside, out, delta), ctx.position[members][None])
        for node_id, members, inside, out in ctx.groups
    ]
    sizes = ctx.sizes(budget)
    # Per live row: its index into hps, blend row, weights, what it has
    # taken and its highest clamped similarity to its picks so far.
    # Similarities are >= 0, so 0 stands for "nothing picked" and gives
    # nr = 1. Per set of hps: the budget it has consumed and the last pass
    # in which it picked, which is its final pass once it leaves.
    live = np.arange(len(hps))
    columns = _Weights(*(np.array([[getattr(hp, name)] for hp in hps]) for name in _Weights._fields))
    taken = np.zeros((len(hps), len(ctx.sentences)), dtype=bool)
    worst = np.zeros(taken.shape)
    consumed = np.zeros(len(hps), dtype=np.int64)
    passes = np.zeros(len(hps), dtype=np.intp)
    log: list[tuple[np.ndarray, np.ndarray, int, int]] = []  # (owners, chosen, node_id, pass) per visit
    iteration = 1
    while len(live):
        for node_id, members, cs, pos in visits:
            taken_here = taken.take(members, axis=1)
            rows = (~taken_here.all(axis=1)).nonzero()[0]
            if not len(rows):
                continue
            scores = score_final(cs[blend_row], non_redundancy(worst.take(members, axis=1)), pos, columns)
            scores[taken_here] = -np.inf
            chosen = members[scores.argmax(axis=1)[rows]]
            owners = live[rows]
            taken[rows, chosen] = True
            consumed[owners] += sizes[chosen]
            passes[owners] = iteration
            log.append((owners, chosen, node_id, iteration))
            # A row whose budget is met leaves before its worst update.
            keep = consumed[live] < budget.limit
            going = keep[rows]
            if len(rows) == len(live) and going.all():
                np.maximum(worst, ctx.memo.rows(chosen.tolist()), out=worst)
            elif going.any():
                rows = rows[going]
                worst[rows] = np.maximum(worst[rows], ctx.memo.rows(chosen[going].tolist()))
            if not keep.all():
                live, blend_row, taken, worst = live[keep], blend_row[keep], taken[keep], worst[keep]
                columns = _Weights(*(column[keep] for column in columns))
                if not len(live):
                    break
        # Rows that picked nothing in this pass leave, with it as their last.
        keep = passes[live] == iteration
        passes[live] = iteration
        if not keep.all():
            live, blend_row, taken, worst = live[keep], blend_row[keep], taken[keep], worst[keep]
            columns = _Weights(*(column[keep] for column in columns))
        iteration += 1
    # Each state's picks from the log, once: appending pick by pick beat a
    # stable argsort of the log by owner for one row and for 726 rows alike.
    selected: list[list[tuple[int, int, int]]] = [[] for _ in hps]
    for owners, chosen, node_id, iteration in log:
        for owner, index in zip(owners.tolist(), chosen.tolist()):
            selected[owner].append((index, node_id, iteration))
    return [SelectionState(*state) for state in zip(selected, consumed.tolist(), passes.tolist())]


def run_selection(ctx: ScoreContext, hp: Hyperparams, budget: Budget) -> SelectionState:
    """Round-robin selection over ``ctx``'s groups under one delta and
    weights: ``run_selections`` with one row."""
    return run_selections(ctx, [hp], budget)[0]


def order_summary(
    state: SelectionState,
    traversal_order: Sequence[int],
    sentences: Sequence[tuple[Document, Sentence]],
    tree: ClassTree | None = None,
) -> Summary:
    """Arrange selected sentences into the final summary order.

    Primary key: the originating node's position in the traversal order.
    Secondary key: the order in which sentences were selected, which keeps a
    node's first-pass sentence ahead of its later ones. Picks index
    ``sentences``, the pairs selection ran on; the summary carries ``tree``.
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
    return Summary(sentences=tuple(summary), tree=tree)


def select_summary(context: ScoreContext, hp: Hyperparams, budget: Budget) -> Summary:
    """Select a summary from ``context``'s groups, as ``run_selection`` does,
    and attach the context's class tree. Picks are ordered by the context's
    group order."""
    state = run_selection(context, hp, budget)
    return order_summary(state, context.order, context.sentences, context.tree)


def select_summaries(context: ScoreContext, hps: Sequence[Hyperparams], budget: Budget) -> list[Summary]:
    """``select_summary`` under each of ``hps``, from one lockstep
    ``run_selections``; runs that pick the same sentences in the same passes
    share one ``Summary``."""
    made: dict[tuple, Summary] = {}
    summaries = []
    for state in run_selections(context, hps, budget):
        key = tuple(state.selected)
        if key not in made:
            made[key] = order_summary(state, context.order, context.sentences, context.tree)
        summaries.append(made[key])
    return summaries

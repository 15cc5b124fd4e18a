"""Sentence scores used during selection from a class-tree node.

Three per-sentence signals are combined:

* commonality/specificity: how close a sentence sits to the centroid of the
  node's own documents, blended with how far it sits from the centroid of
  the documents outside the node;
* non-redundancy: one minus the highest similarity to anything already
  selected;
* position: an exponential decay in the sentence's 1-based position within
  its document, floored at 0.5.

Cosines are clamped to [0, 1] before entering the formulas so every score is
bounded in [0, 1] for arbitrary embedding providers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embedding import Vector, cosine_similarity, power_of_two_scaled


@dataclass(frozen=True)
class Hyperparams:
    """Tunable weights of the pipeline.

    ``delta`` balances in-node similarity against out-of-node dissimilarity;
    ``alpha``/``beta``/``gamma`` weight the commonality-specificity,
    non-redundancy and position scores and must sum to 1. ``k_first`` is the
    cluster count for the tree's second layer, ``k_rest`` for deeper layers.
    """

    delta: float = 0.9
    alpha: float = 0.8
    beta: float = 0.1
    gamma: float = 0.1
    k_first: int = 3
    k_rest: int = 2

    def __post_init__(self) -> None:
        for name in ("delta", "alpha", "beta", "gamma"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if abs(self.alpha + self.beta + self.gamma - 1.0) > 1e-9:
            raise ValueError("alpha + beta + gamma must equal 1")
        if self.k_first < 2 or self.k_rest < 2:
            raise ValueError("cluster counts must be >= 2")


@dataclass(frozen=True)
class NodeCentroids:
    """Mean vectors of a node's members and (when any) of its complement."""

    inside: Vector
    outside: Vector | None


def finite_means(vectors: np.ndarray, groups: list) -> list[np.ndarray]:
    """The mean of ``vectors[g]`` for each ``g`` in ``groups``.

    Where a mean runs past the float range although every row is finite,
    every mean is taken again over the rows scaled by the power of two that
    brings every component within 1 (``power_of_two_scaled``): that scales
    them all by one exact factor, which their users (cosine similarity and
    ``kmeans``) ignore. ``groups`` is read a second time then, so it is a
    list.
    """
    with np.errstate(over="ignore"):  # checked below
        means = [vectors[g].mean(axis=0) for g in groups]
    if all(np.isfinite(mean).all() for mean in means):
        return means
    scaled, _ = power_of_two_scaled(vectors)
    return [scaled[g].mean(axis=0) for g in groups]


def node_centroids(vectors: np.ndarray, members: np.ndarray) -> NodeCentroids:
    """Centroids of a node's rows of ``vectors`` and of the other rows, by
    ``finite_means``.

    ``members`` holds the node's row indices, ascending. ``outside`` is None
    exactly when the node holds every row (e.g. the root node).
    """
    if len(members) == 0:
        raise ValueError("node has no members")
    rest = np.ones(len(vectors), dtype=bool)
    rest[members] = False
    inside, *outside = finite_means(vectors, [members, rest] if rest.any() else [members])
    return NodeCentroids(inside=inside, outside=outside[0] if outside else None)


def clamp01(value):
    """``value`` clamped to [0, 1]; floats or elementwise on arrays."""
    return np.minimum(1.0, np.maximum(0.0, value))


def _clamped_sim(a: Vector, b: Vector) -> float:
    return clamp01(cosine_similarity(a, b))


def outside_term(outside_sim: float | None) -> float:
    """Dissimilarity factor ``1 - sim(s, outside)``; 1.0 for a node without a
    complement (``outside_sim`` None)."""
    return 1.0 if outside_sim is None else 1.0 - outside_sim


def blend_cs(inside_sim, outside, delta: float):
    """``delta * inside_sim + (1 - delta) * outside``, clamped to [0, 1].

    Takes clamped similarities and ``outside_term`` values, as floats or
    elementwise as arrays; both give the same bits.
    """
    return clamp01(delta * inside_sim + (1.0 - delta) * outside)


def score_cs(sentence_vec: Vector, centroids: NodeCentroids, delta: float) -> float:
    """Commonality-specificity score of a sentence within a node.

    ``delta * sim(s, inside) + (1 - delta) * (1 - sim(s, outside))``. When the
    node has no complement the dissimilarity factor is defined as 1, which
    adds the same constant to every sentence and leaves the ranking purely
    about commonality.
    """
    inside_sim = _clamped_sim(sentence_vec, centroids.inside)
    outside_sim = None if centroids.outside is None else _clamped_sim(sentence_vec, centroids.outside)
    return float(blend_cs(inside_sim, outside_term(outside_sim), delta))


def non_redundancy(worst_sim):
    """``1 - worst_sim``, the highest clamped similarity to what is selected;
    floats or arrays."""
    return 1.0 - worst_sim


def score_nr(sentence_vec: Vector, selected: Sequence[Vector]) -> float:
    """Non-redundancy: 1 minus the highest similarity to selected sentences.

    Returns 1.0 when nothing has been selected yet.
    """
    if not selected:
        return 1.0
    return non_redundancy(max(_clamped_sim(sentence_vec, prev) for prev in selected))


def score_position(position_1based: int, doc_sentence_count: int) -> float:
    """Position score ``max(0.5, exp(-position / cbrt(doc_length)))``.

    Highest for the first sentence of a document, decaying toward a floor of
    0.5 a few sentences in.
    """
    if position_1based < 1 or doc_sentence_count < 1:
        raise ValueError("position and document length must be >= 1")
    return max(0.5, math.exp(-position_1based / doc_sentence_count ** (1.0 / 3.0)))


def score_final(cs, nr, pos, hp: Hyperparams):
    """Convex combination ``alpha*cs + beta*nr + gamma*pos``; floats or arrays."""
    return hp.alpha * cs + hp.beta * nr + hp.gamma * pos

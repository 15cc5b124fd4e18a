"""Class-tree construction by top-down k-means over one topic's vectors.

The root node holds every item (normally the documents of one topic; the
sentence-clustering variant feeds sentences instead). Each layer splits the
nodes of the previous layer with k-means until either no node can be divided
any further or the tree already holds as many nodes as the summary needs
sentences.

Everything here is deterministic: k-means uses k-means++ seeding from an
explicit seed, restarts select the best inertia, and all orderings are total.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

Vector = np.ndarray

_SEED_MASK = 0xFFFFFFFFFFFFFFFF


def derive_seed(master_seed: int, label: str) -> int:
    """Stable 63-bit seed derived from a master seed and a text label.

    Used to give each topic (and each tree node) its own random stream, so
    adding or removing topics never perturbs the others.
    """
    payload = f"{master_seed & _SEED_MASK}:{label}".encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


@dataclass
class KMeansResult:
    labels: np.ndarray  # (n,) cluster index per input vector
    centroids: np.ndarray  # (k, dim)
    inertia: float


@dataclass
class ClassTreeNode:
    node_id: int
    layer: int  # 1 = root
    members: tuple[int, ...]  # item (row) indices, ascending
    children: list["ClassTreeNode"] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class ClassTree:
    root: ClassTreeNode
    node_count: int
    traversal_order: tuple[int, ...]
    nodes: dict[int, ClassTreeNode]

    def node(self, node_id: int) -> ClassTreeNode:
        return self.nodes[node_id]


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeds: each next center drawn with probability proportional
    to the squared distance to the nearest center so far.

    Where those distances sum past the float range, the weights are taken
    on the points scaled by a power of two that brings every component
    within 1, which changes them by that exact factor alone (bar the
    underflow of components far smaller than the largest).
    """
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    closest = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        weights = closest
        with np.errstate(over="ignore"):  # checked below
            total = weights.sum()
        if not np.isfinite(total):
            shift = -math.frexp(float(np.abs(points).max()))[1]
            weights = _sq_dists(np.ldexp(points, shift), np.ldexp(centers[:j], shift)).min(axis=1)
            total = weights.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=weights / total))
        centers[j] = points[idx]
        closest = np.minimum(closest, np.sum((points - centers[j]) ** 2, axis=1))
    return centers


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared distances of every point to every center, as
    ``sum((x - c) ** 2)`` in the broadcast (n, k, d) form.

    Each entry reduces the same ``d`` contiguous values as the 1-D form
    ``np.sum((x - c) ** 2)``, so it equals that form bit for bit, whatever
    the other rows and centers are.
    """
    return np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)


def _cluster_mean(points: np.ndarray, labels: np.ndarray, j: int) -> np.ndarray:
    """The mean of cluster ``j``'s points, the one exact form of it."""
    return points[labels == j].mean(axis=0)


def _cluster_means(points: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    return np.stack([_cluster_mean(points, labels, j) for j in range(k)])


# Unit roundoff and the smallest subnormal of float64, and a safety factor.
_UNIT_ROUNDOFF = 2.0**-53
_SUBNORMAL = 2.0**-1074
_SAFETY = 8.0


def _gram_error_bound(dim: int, max_sq_norm: float, max_center_sq: float) -> float:
    """Bound on |Gram form - difference form| of any one squared distance.

    ``max_sq_norm`` is the largest ``|x|^2`` over the points and
    ``max_center_sq`` the largest ``|c|^2`` over the centers. The Gram form
    ``|x|^2 - 2 x.c + |c|^2`` and the difference form ``sum((x - c) ** 2)``
    each stay within ``gamma_{d+2} (|x| + |c|)^2`` of the true squared
    distance, whatever the summation order and with or without FMA (Higham
    2002, section 3.1), plus half a subnormal for each of at most ``4 d``
    products that underflow. The bound is ``_SAFETY`` times ``(d + 4)``
    units of each.

    No Gram term exceeds ``(1 + gamma_{d+2}) (|x| + |c|)^2``, so
    ``4 (|x| + |c|)^2`` overflows before any of them can. The bound is taken
    from that product, and so it is ``inf`` whenever a Gram distance might
    be ``-inf`` or ``inf``, and NaN when a norm is NaN; every comparison
    against it then sends the point to the difference form.
    """
    reach = math.sqrt(max_sq_norm) + math.sqrt(max_center_sq)
    headroom = 4.0 * reach * reach
    return _SAFETY * (dim + 4) * (_UNIT_ROUNDOFF / 4.0 * headroom + _SUBNORMAL)


@np.errstate(over="ignore")
def _sq_norms(points: np.ndarray) -> np.ndarray:
    """The points' ``|x|^2`` for the Gram screen; past ``1e308`` they are
    ``inf``, silently, and so is ``_gram_error_bound``."""
    return np.vecdot(points, points)


@np.errstate(over="ignore", invalid="ignore")
def _gram_dists(
    centers: np.ndarray, points: np.ndarray, sq_norms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(k, n) Gram-form squared distances ``|x|^2 - 2 x.c + |c|^2`` of every
    point to every center, from one BLAS product, and the centers' ``|c|^2``.

    ``sq_norms`` holds the points' ``|x|^2``. Entries past ``1e308``
    overflow silently: ``_gram_error_bound`` is then ``inf`` and no entry
    decides anything.
    """
    center_sq = np.vecdot(centers, centers)
    gram = (-2.0 * centers) @ points.T
    gram += sq_norms
    gram += center_sq[:, None]
    return gram, center_sq


def _lloyd(
    points: np.ndarray, k: int, rng: np.random.Generator, max_iters: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations from k-means++ seeds over ``n >= k`` points.

    Returns the labels of ``k`` non-empty clusters and their centroids (the
    means of each cluster's points). Each point goes to the centroid at the
    smallest difference-form distance ``sum((x - c) ** 2)``, the first on
    exact ties. The Gram form only screens: where a point's second-smallest
    Gram distance exceeds its smallest by more than twice
    ``_gram_error_bound``, the difference form has the same strict minimum,
    so that choice stands. Every other point (a near-tie, a NaN, an
    overflowed bound) gets difference-form distances and their ``argmin``. Difference-form distances of all points are built
    only to repair an empty cluster, which takes the point farthest from
    its centroid in a cluster that can spare one. One always can: while a
    cluster is empty, ``n >= k`` points lie in at most ``k - 1`` clusters.
    """
    n, dim = points.shape
    rows = np.arange(n)
    sq_norms = _sq_norms(points)
    max_sq_norm = float(sq_norms.max())
    centroids = _kmeans_pp_init(points, k, rng)
    labels = np.full(n, -1)
    for _ in range(max_iters):
        gram, center_sq = _gram_dists(centroids, points, sq_norms)
        new_labels = gram.argmin(axis=0)
        best = gram.min(axis=0)
        gram[new_labels, rows] = np.inf
        with np.errstate(invalid="ignore"):  # inf - inf: undecided
            gap = gram.min(axis=0) - best
        decided = gap > 2.0 * _gram_error_bound(dim, max_sq_norm, float(center_sq.max()))
        unsure = (~decided).nonzero()[0]
        if unsure.size:
            new_labels[unsure] = _sq_dists(points[unsure], centroids).argmin(axis=1)
        counts = np.bincount(new_labels, minlength=k)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            dists = _sq_dists(points, centroids)
        for j in empty:
            donors = np.flatnonzero(counts[new_labels] > 1)
            point_dists = dists[donors, new_labels[donors]]
            donor = donors[int(point_dists.argmax())]
            counts[new_labels[donor]] -= 1
            new_labels[donor] = j
            counts[j] += 1
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        centroids = _cluster_means(points, labels, k)
    return labels, centroids


def _mean_error(count: float, reach: float, dim: int) -> float:
    """Bound on |c - mu| for the mean ``c`` that ``_cluster_mean`` computes of
    ``count`` or fewer points of norm at most ``reach`` and their real mean
    ``mu``.

    The sum of m points, in any order, is within ``gamma_{m-1} sum |x_i|``
    of the exact sum componentwise, and the division by m adds ``u |c|``:
    ``gamma_{m+1} R`` in norm, plus half a subnormal per component where the
    division underflows. The bound is ``_SAFETY`` times ``(m + 1) u R`` and
    ``d`` subnormals.
    """
    return _SAFETY * ((count + 1.0) * _UNIT_ROUNDOFF * reach + dim * _SUBNORMAL)


def _reach(max_sq_norm: float, dim: int) -> float:
    """``R``, at least every ``|x|``, from the largest computed ``|x|^2``.

    A computed ``|x|^2`` is within ``gamma_d |x|^2`` of the real one, plus
    half a subnormal for each of ``d`` products that underflow, so ``d``
    subnormals and ``_SAFETY d u`` cover it where the squares underflow too.
    ``inf`` or NaN where ``|x|^2`` is.
    """
    return math.sqrt((max_sq_norm + dim * _SUBNORMAL) * (1.0 + _SAFETY * dim * _UNIT_ROUNDOFF))


def _exact_row_error(
    dim: int, max_sq_norm: float, center_sq: float, reach: float, mean_error: float
) -> float:
    """Bound on the gap between the real squared distance ``|x - mu|^2`` of
    a point to the real mean ``mu`` of a cluster and either form of the
    squared distance to its exact mean ``c`` (``_cluster_mean``), where
    ``|c|^2 <= center_sq``, ``|c - mu| <= mean_error`` (``e``) and ``reach``
    (``R``) is at least every ``|x|``.

    Both forms are within ``_gram_error_bound`` of ``|x - c|^2``, and
    ``|x - c|^2 - |x - mu|^2 = (c - mu).(c + mu - 2 x)``, at most
    ``e (4 R + e)`` since ``|mu| <= R``; ``e (4 R + 3 e)`` is added.
    """
    return _gram_error_bound(dim, max_sq_norm, center_sq) + mean_error * (4.0 * reach + 3.0 * mean_error)


@np.errstate(over="ignore", invalid="ignore")
def _pairwise_gram(points: np.ndarray) -> np.ndarray:
    """(n, n) Gram-form squared distances between the points: the entries
    ``_gram_dists`` gives with the points as centers, each within
    ``_gram_error_bound(d, M, M)`` of the real squared distance, for ``M``
    the largest ``|x|^2`` (or not finite where that bound is not). The BLAS
    products take four rows at a time, which keeps the BLAS work buffer,
    and so the peak memory, small."""
    sq_norms = _sq_norms(points)
    n = len(points)
    pairwise = np.empty((n, n))
    for start in range(0, n, 4):
        np.matmul(-2.0 * points[start : start + 4], points.T, out=pairwise[start : start + 4])
    pairwise += sq_norms
    pairwise += sq_norms[:, None]
    return pairwise


def _move_row(
    row: np.ndarray, pairwise_row: np.ndarray, i: int, count: float, bound: float, pair_error: float,
    reach: float, added: bool,
) -> float:
    """Update ``row``, the squared distances of every point to the mean of a
    cluster of ``count`` points, in place for point ``i`` added to the
    cluster (``added``) or taken out of it; return the row's new bound.

    ``pairwise_row`` holds the squared distances of every point to point
    ``i``, each within ``pair_error`` of the real ones; ``bound`` bounds the
    row's gap to the real squared distances to the real mean, and the
    returned bound does so after the update. ``reach`` is at least every
    ``|x|``. See ``_refine_labels`` for the identities and the bound.
    """
    new_count = count + 1.0 if added else count - 1.0
    own = float(row[i]) * (count / (new_count * new_count))
    row *= count
    if added:
        row += pairwise_row
        row /= new_count
        row -= own
    else:
        row -= pairwise_row
        row /= new_count
        row += own
    # Every term from 4 R^2 first: where that overflows, so does the bound.
    span = 4.0 * reach * reach + (bound + pair_error)
    headroom = 4.0 * ((count + 1.0) * span)
    rounding = 2.0 * _UNIT_ROUNDOFF * headroom / new_count + 4.0 * _SUBNORMAL
    growth = count / new_count * (1.0 + 1.0 / new_count)
    return growth * bound + pair_error / new_count + _SAFETY * rounding


# Overflow and inf - inf only make bounds and deltas inf or NaN, which decide
# nothing.
@np.errstate(over="ignore", invalid="ignore")
def _refine_labels(
    points: np.ndarray, labels: np.ndarray, centroids: np.ndarray, pairwise: np.ndarray, max_sweeps: int = 200
) -> tuple[np.ndarray, np.ndarray]:
    """Single-point improvement sweeps after Lloyd converges.

    ``centroids`` must be ``_cluster_means(points, labels, k)`` and
    ``pairwise`` ``_pairwise_gram(points)``; the final labels are returned
    with their centroids, computed the same way.

    Lloyd stops at assignments that are centroid-stable but may still admit
    an objective-reducing move of one point; the exact change of moving
    point i from its cluster s to cluster j is
    ``n_j/(n_j+1) * d(i, c_j)^2 - n_s/(n_s-1) * d(i, c_s)^2`` (Hartigan &
    Wong 1979). Applying the best strictly-improving move per sweep is
    deterministic, terminates (the objective decreases each time) and never
    empties a cluster.

    Every move applied is the one the exact rule picks: the minimum of the
    (n, k) matrix of deltas built from difference-form distances
    ``sum((x - c) ** 2)`` to the exact means ``c_j`` (``_cluster_mean``), in
    row-major (point, cluster) order, taking the first on exact ties, and
    only when it is strictly below ``-1e-12``; otherwise the labels are
    final. Moves to the point's own cluster, moves out of a singleton
    cluster and NaN deltas are never candidates. This is the same move a
    scalar loop over points, then clusters, keeping the first strictly
    smaller delta, would pick.

    Most moves are decided without any mean. Row ``G_j`` holds every
    point's squared distance to cluster j's mean. A move of point i changes
    two rows, and each follows in real arithmetic from the row itself and
    ``P_i``, the squared distances to point i (``pairwise``): with ``m``
    points before the move, adding i gives
    ``G <- (m G + P_i)/(m+1) - G[i] m/(m+1)^2`` and taking it out gives
    ``G <- (m G - P_i)/(m-1) + G[i] m/(m-1)^2`` (``_move_row``). Both come
    from ``mu' - x_p = (m (mu - x_p) +- (x_i - x_p))/m'`` with
    ``2 (mu - x_p).(x_i - x_p) = G[p] + P_i[p] - G[i]``.

    Each row carries a bound ``eps_j`` on its gap to the real squared
    distances to the real mean ``mu_j``, with ``R`` at least every ``|x|``
    (``_reach``). A row built from an exact mean starts at
    ``_exact_row_error``. An update scales the row's error by
    ``m/m' + m/m'^2`` (the ``G[i]`` term carries the same row's error),
    which is below 1 for an addition and at most 4 for a removal; adds
    ``pairwise``'s entry bound over ``m'``; and adds ``_SAFETY`` times its
    own rounding: no operand exceeds ``4 R^2 + eps`` and no intermediate
    ``(m + 1)`` times that, plus four subnormals. With ``d`` the
    ``_exact_row_error`` of a center of norm ``R + e``, each ``G_j`` is
    within ``eps_j + d`` of the difference form to ``c_j``, and each delta
    within ``B = 3.5 (max_j eps_j + d)`` of the exact one (the gain factor
    is below 1, the loss factor at most 2). Every bound term is taken from
    ``4 R^2`` first, so it is ``inf`` wherever a row might overflow.

    A point whose smallest Gram delta exceeds ``min(g + 2B, B - 1e-12)``,
    with ``g`` the smallest over all points, can hold neither the overall
    minimum nor a delta below ``-1e-12``; when no point is left, the labels
    are final. When exactly one point is left, ``B`` is finite (so are ``R``
    and every row), the point's cluster has more than one member, its
    smallest delta plus ``B`` is below ``-1e-12``, and its next smallest
    delta exceeds it by more than ``2B`` (always for ``k = 2``, where it is
    the own cluster's ``inf``), the exact rule makes that move too, and it
    is applied. Otherwise, if any cluster has changed since its last exact
    mean, those means are computed exactly, their rows rebuilt from one
    BLAS product and their bounds reset, and the sweep is redone without
    counting against ``max_sweeps``. With every centroid exact, the points
    left (NaN rows, and every row when the bound overflows, included) get
    difference-form distances and deltas, with the same operations in the
    same order, and the exact rule picks the move. Before returning, the
    changed clusters get their exact means.
    """
    labels = labels.copy()
    centroids = centroids.copy()
    k = len(centroids)
    n, dim = points.shape
    sq_norms = _sq_norms(points)
    max_sq_norm = float(sq_norms.max())
    reach = _reach(max_sq_norm, dim)
    exact_error = _mean_error(n, reach, dim)
    pair_error = _gram_error_bound(dim, max_sq_norm, max_sq_norm)
    # d: the real squared distance to mu vs the difference form to the
    # exact mean, whose norm is at most R + e.
    center_reach = reach + exact_error
    exact_gap = _exact_row_error(dim, max_sq_norm, center_reach * center_reach, reach, exact_error)
    counts = np.bincount(labels, minlength=k).astype(float)
    gram, center_sq = _gram_dists(centroids, points, sq_norms)
    bounds = [_exact_row_error(dim, max_sq_norm, sq, reach, exact_error) for sq in center_sq.tolist()]
    # The clusters changed since their last exact mean.
    moved: set[int] = set()
    own_flat = labels * n + np.arange(n)  # flat index of each point's own entry
    sweeps = 0
    while sweeps < max_sweeps:
        gain = counts / (counts + 1.0)
        # n_s/(n_s - 1); singleton rows get a finite placeholder and are
        # dropped below.
        loss = (counts / np.maximum(counts - 1.0, 0.5))[labels]
        # min_j fl(a_j - b) = fl(min_j a_j - b): subtraction is monotone.
        gain_on = gram * gain[:, None]
        gain_on.ravel()[own_flat] = np.inf
        row_min = gain_on.min(axis=0) - loss * gram.take(own_flat)
        if counts.min() <= 1.0:
            row_min[counts[labels] <= 1.0] = np.inf
        bound = 3.5 * (max(bounds) + exact_gap)
        # A NaN minimum gives a NaN cap (Python's min keeps its first
        # argument unless the second is smaller), and then every row stays.
        cap = min(float(row_min.min()) + 2.0 * bound, bound - 1e-12)
        near = (~(row_min > cap)).nonzero()[0]
        if near.size == 0:
            break
        move = None
        if near.size == 1 and math.isfinite(bound) and counts[labels[near[0]]] > 1.0:
            # The row's deltas as row_min computed them; all finite but
            # the own cluster's inf.
            i = int(near[0])
            s = int(labels[i])
            loss_off = float(loss[i]) * float(gram[s, i])
            deltas = [g - loss_off for g in gain_on[:, i].tolist()]
            best = min(deltas)
            if best + bound < -1e-12 and sorted(deltas)[1] - best > 2.0 * bound:
                move = i, deltas.index(best)
        if move is None and moved:
            stale = sorted(moved)
            for j in stale:
                centroids[j] = _cluster_mean(points, labels, j)
            gram[stale], center_sq = _gram_dists(centroids[stale], points, sq_norms)
            for j, sq in zip(stale, center_sq.tolist()):
                bounds[j] = _exact_row_error(dim, max_sq_norm, sq, reach, exact_error)
            moved.clear()
            continue
        if move is None:
            # The exact deltas of the rows left, in row-major order: the
            # first strictly smallest below -1e-12 is the move (NaN never is).
            best = -1e-12
            gains = gain.tolist()
            for i, dists in zip(near.tolist(), _sq_dists(points[near], centroids).tolist()):
                s = int(labels[i])
                if counts[s] <= 1.0:
                    continue
                loss_off = float(loss[i]) * dists[s]
                for j in range(k):
                    if j != s:
                        delta = gains[j] * dists[j] - loss_off
                        if delta < best:
                            best, move = delta, (i, j)
            if move is None:
                break
        i, t = move
        s = int(labels[i])
        labels[i] = t
        own_flat[i] = t * n + i
        for j, added in ((t, True), (s, False)):
            count = float(counts[j])
            bounds[j] = _move_row(gram[j], pairwise[i], i, count, bounds[j], pair_error, reach, added)
        counts[s] -= 1.0
        counts[t] += 1.0
        moved.update((s, t))
        sweeps += 1
    for j in moved:
        centroids[j] = _cluster_mean(points, labels, j)
    return labels, centroids


def _has_k_distinct_rows(points: np.ndarray, k: int) -> bool:
    """Whether ``points`` holds at least ``k`` distinct rows.

    The verdict of ``np.unique(points, axis=0).shape[0] >= k`` (``-0.0``
    equals ``0.0``; a row with a NaN equals no other row), reached by keeping
    representatives that differ from every earlier one and stopping at ``k``.
    """
    reps: list[np.ndarray] = []
    for row in points:
        if all(np.any(row != rep) for rep in reps):
            reps.append(row)
            if len(reps) >= k:
                return True
    return False


def kmeans(
    vectors: Sequence[Vector] | np.ndarray,
    k: int,
    seed: int,
    restarts: int = 3,
    max_iters: int = 100,
) -> KMeansResult | None:
    """k-means with k-means++ seeding; best inertia over restarts.

    ``vectors`` is an ``(n, d)`` matrix or the sequence of its rows. Each
    restart runs Lloyd iterations to convergence and then a
    deterministic single-point refinement pass, which escapes the
    centroid-stable local optima plain Lloyd gets stuck in on small inputs.
    The refinement reads the ``(n, n)`` squared distances between the
    points, built once per call and shared by every restart, so memory is
    ``O(n^2)`` per call (0.72 MB at n = 300).

    Returns None exactly when the input holds fewer than k distinct
    vectors, so it cannot be divided into k non-empty clusters. That is a
    signal, not a failure. The result is fully determined by (vectors, k,
    seed, restarts, max_iters).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if restarts < 1 or max_iters < 1:
        raise ValueError("restarts and max_iters must be >= 1")
    points = np.ascontiguousarray(vectors, dtype=float)
    if points.ndim != 2 or len(points) == 0:
        raise ValueError(f"kmeans needs a non-empty (n, d) matrix, not shape {points.shape}")
    if not _has_k_distinct_rows(points, k):
        return None
    seed = seed & _SEED_MASK
    pairwise = _pairwise_gram(points)
    best: KMeansResult | None = None
    for restart in range(restarts):
        rng = np.random.default_rng([seed, 0, restart])
        labels, centroids = _refine_labels(points, *_lloyd(points, k, rng, max_iters), pairwise)
        inertia = float(np.sum((points - centroids[labels]) ** 2))
        if best is None or inertia < best.inertia:
            best = KMeansResult(labels=labels, centroids=centroids, inertia=inertia)
    return best


def label_groups(members: Sequence[int], labels: Sequence[int]) -> list[tuple[int, ...]]:
    """The ``members`` of each k-means cluster, ``labels`` giving each
    member's cluster: largest cluster first, ties by smallest member.

    ``members`` must be ascending, and then so is every group.
    """
    groups: dict[int, list[int]] = {}
    for member, label in zip(members, labels):
        groups.setdefault(int(label), []).append(member)
    return sorted((tuple(g) for g in groups.values()), key=lambda g: (-len(g), g[0]))


def build_class_tree(
    vectors: np.ndarray,
    k_first: int,
    k_rest: int,
    max_nodes: int,
    seed: int,
) -> ClassTree:
    """Build the class tree over the rows of one topic's ``(n, d)`` matrix.

    The root (layer 1) holds every row. Layer 2 is built with ``k_first``
    clusters per node, deeper layers with ``k_rest``. Construction stops when
    a pass over the newest layer divides nothing, or as soon as the tree
    holds ``max_nodes`` nodes (checked before each split, so the total never
    exceeds ``max_nodes + max(k_first, k_rest) - 1``).

    Traversal order sorts nodes by layer ascending, then size descending,
    ties by the smallest contained row index.
    """
    points = np.asarray(vectors, dtype=float)
    if points.ndim != 2 or len(points) == 0:
        raise ValueError(f"cannot build a tree over an array of shape {points.shape}")
    if k_first < 2 or k_rest < 2:
        raise ValueError("cluster counts must be >= 2")
    if max_nodes < 1:
        raise ValueError("max_nodes must be >= 1")

    root = ClassTreeNode(node_id=0, layer=1, members=tuple(range(len(points))))
    nodes: dict[int, ClassTreeNode] = {0: root}
    node_count = 1
    next_id = 1
    current_layer = [root]
    layer_no = 1
    stopped = False

    while current_layer and not stopped:
        k = k_first if layer_no == 1 else k_rest
        next_layer: list[ClassTreeNode] = []
        for node in sorted(current_layer, key=lambda n: (-n.size, n.members[0])):
            if node_count >= max_nodes:
                stopped = True
                break
            if node.size < 2:
                continue
            result = kmeans(points[list(node.members)], k, seed=derive_seed(seed, f"node:{node.node_id}"))
            if result is None:
                continue
            for group in label_groups(node.members, result.labels):
                child = ClassTreeNode(node_id=next_id, layer=layer_no + 1, members=group)
                node.children.append(child)
                nodes[next_id] = child
                next_layer.append(child)
                next_id += 1
                node_count += 1
        if not next_layer:
            break
        current_layer = next_layer
        layer_no += 1

    order = sorted(nodes.values(), key=lambda n: (n.layer, -n.size, n.members[0]))
    return ClassTree(
        root=root,
        node_count=node_count,
        traversal_order=tuple(n.node_id for n in order),
        nodes=nodes,
    )


def estimate_sentence_budget(avg_target_summary_words: float, avg_source_sentence_words: float) -> float:
    """How many sentences a summary of the target length roughly needs.

    Average target summary length divided by the average sentence length of
    the source documents. Used to default the node-count cap and to sanity
    bound the first-layer cluster count.
    """
    if avg_target_summary_words <= 0 or avg_source_sentence_words <= 0:
        raise ValueError("lengths must be positive")
    return avg_target_summary_words / avg_source_sentence_words


def default_max_nodes(avg_target_summary_words: float, avg_source_sentence_words: float) -> int:
    return max(1, math.ceil(estimate_sentence_budget(avg_target_summary_words, avg_source_sentence_words)))


def tree_to_dict(tree: ClassTree, names: Sequence[str]) -> dict:
    """JSON-friendly rendering of a tree for debugging dumps; ``names[i]``
    stands for item ``i`` in the members lists."""
    position = {node_id: pos for pos, node_id in enumerate(tree.traversal_order)}
    return {
        "node_count": tree.node_count,
        "nodes": [
            {
                "node_id": node.node_id,
                "layer": node.layer,
                "size": node.size,
                "members": [names[i] for i in node.members],
                "children": [c.node_id for c in node.children],
                "traversal_position": position[node.node_id],
            }
            for node in (tree.nodes[i] for i in tree.traversal_order)
        ],
    }

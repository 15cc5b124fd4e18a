"""Class-tree construction by top-down k-means over one topic's vectors.

The root node holds every item (normally the documents of one topic; the
sentence-clustering variant feeds sentences instead). Each layer splits the
nodes of the previous layer with ``split_rows`` until either no node can be
divided any further or the tree holds the node cap its caller passes
(``pipeline.resolve_max_nodes``: as many nodes as the summary needs
sentences). ``split_rows`` is also the one flat k-means split, so the flat
clustering methods divide their rows by the same rule as a tree node.

Everything here is deterministic: k-means uses k-means++ seeding from an
explicit seed, restarts select the best inertia, and all orderings are total.

``kmeans`` has two paths to the same bits, chosen from the input's size.
Below ``_TABLE_LIMIT`` rows^2 x dims (a topic's few documents), one table
of point-to-point distances seeds every restart, and Lloyd and the
refinement apply the exact rule directly (``_table_restarts``): at that
size numpy's fixed cost per call outweighs the table's rows^2 x dims
arithmetic. Above it (sentence splits of a few hundred rows), that table
would cost more than it saves, and a Gram screen with certified bounds
decides most steps without exact distances (``_certified_restarts``):
each restart runs its own Lloyd iterations, starting from the distances
its seeding computed, and then all restarts refine side by side, one
screen per sweep for all of them (``_refine_restarts``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .embedding import blake2b, power_of_two_scaled

Vector = np.ndarray

_SEED_MASK = 0xFFFFFFFFFFFFFFFF


def derive_seed(master_seed: int, label: str) -> int:
    """Stable 63-bit seed derived from a master seed and a text label.

    Used to give each topic (and each tree node) its own random stream, so
    adding or removing topics never perturbs the others.
    """
    payload = f"{master_seed & _SEED_MASK}:{label}".encode("utf-8")
    digest = blake2b(payload, digest_size=8).digest()
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


def _weighted_draw(weights: np.ndarray, total: float, rng: np.random.Generator) -> int:
    """The index ``rng.choice(len(weights), p=weights / total)`` draws, made
    as that call makes it but without its checks of ``p``: the cumulative
    sum normalized by its last entry, searched for one ``rng.random()`` from
    the right. It returns the same index and leaves ``rng`` in the same
    state. ``total`` must be the positive sum of the weights.
    """
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _kmeans_pp_indices(
    n: int, k: int, rng: np.random.Generator, sq_dists_to: Callable[[int], np.ndarray]
) -> tuple[int, ...]:
    """The indices of ``k`` k-means++ seeds among ``n`` points: each next
    seed drawn with probability proportional to the squared distance to the
    nearest seed so far (``_weighted_draw``). ``sq_dists_to(i)`` gives the
    squared distances of every point to point ``i``.
    """
    seeds = [int(rng.integers(n))]
    closest = sq_dists_to(seeds[0])
    for _ in range(1, k):
        total = closest.sum()
        seeds.append(int(rng.integers(n)) if total <= 0.0 else _weighted_draw(closest, total, rng))
        closest = np.minimum(closest, sq_dists_to(seeds[-1]))
    return tuple(seeds)


def _kmeans_pp_dists(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """The ``(n, k)`` squared distances of every point to each of ``k``
    k-means++ seeds (``_kmeans_pp_indices``), in seed order: the rows the
    seeding weighs, each taken as ``sum((x - c) ** 2)``, so they are the
    columns of ``_sq_dists(points, seeds)`` bit for bit."""
    columns: list[np.ndarray] = []

    def sq_dists_to(i: int) -> np.ndarray:
        columns.append(np.add.reduce((points - points[i]) ** 2, axis=1))
        return columns[-1]

    _kmeans_pp_indices(len(points), k, rng, sq_dists_to)
    return np.stack(columns, axis=1)


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared distances of every point to every center, as
    ``sum((x - c) ** 2)`` in the broadcast (n, k, d) form.

    Each entry reduces the same ``d`` contiguous values as the 1-D form
    ``np.sum((x - c) ** 2)``, so it equals that form bit for bit, whatever
    the other rows and centers are.
    """
    return np.add.reduce((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)


def _cluster_mean(points: np.ndarray, labels: np.ndarray, j: int) -> np.ndarray:
    """The mean of cluster ``j``'s points, the one exact form of it: the
    reduction and division ``ndarray.mean`` makes, without its wrapper."""
    rows = points[labels == j]
    return np.add.reduce(rows, axis=0) / len(rows)


def _cluster_means(points: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """``_cluster_mean`` of each of the ``k`` clusters, stacked.

    One stable ``argsort`` of the labels puts each cluster's points in a
    contiguous slice, in their original order: the same rows in the same
    order as ``points[labels == j]``, so each mean has the same bits.
    """
    grouped = points[labels.argsort(kind="stable")]
    means = np.empty((k, points.shape[1]))
    start = 0
    for j, count in enumerate(np.bincount(labels, minlength=k).tolist()):
        np.divide(np.add.reduce(grouped[start : start + count], axis=0), count, out=means[j])
        start += count
    return means


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
    """
    reach = math.sqrt(max_sq_norm) + math.sqrt(max_center_sq)
    return _SAFETY * (dim + 4) * (_UNIT_ROUNDOFF * (reach * reach) + _SUBNORMAL)


def _sq_norms(points: np.ndarray) -> np.ndarray:
    """The points' ``|x|^2`` for the Gram screen."""
    return np.vecdot(points, points)


def _gram_dists(
    centers: np.ndarray, points: np.ndarray, sq_norms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(k, n) Gram-form squared distances ``|x|^2 - 2 x.c + |c|^2`` of every
    point to every center, from one BLAS product, and the centers' ``|c|^2``.
    ``sq_norms`` holds the points' ``|x|^2``.
    """
    center_sq = np.vecdot(centers, centers)
    gram = (-2.0 * centers) @ points.T
    gram += sq_norms
    gram += center_sq[:, None]
    return gram, center_sq


def _fill_empty_clusters(labels: np.ndarray, counts: np.ndarray, dists: np.ndarray) -> None:
    """Give each empty cluster, in order, the point farthest from its
    centroid (``dists``, difference form, ``(n, k)``) in a cluster that can
    spare one; ``labels`` and their ``counts`` are updated in place. There
    always is one: while a cluster is empty, ``n >= k`` points lie in at
    most ``k - 1`` clusters.
    """
    for j in np.flatnonzero(counts == 0):
        donors = np.flatnonzero(counts[labels] > 1)
        donor = donors[int(dists[donors, labels[donors]].argmax())]
        counts[labels[donor]] -= 1
        labels[donor] = j
        counts[j] += 1


def _lloyd(
    points: np.ndarray, k: int, rng: np.random.Generator, max_iters: int, sq_norms: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
    """Lloyd iterations from k-means++ seeds over ``n >= k`` points, whose
    ``|x|^2`` are ``sq_norms``.

    Returns the labels of ``k`` non-empty clusters, their centroids (the
    means of each cluster's points) and, when the labels repeated, the last
    ``_gram_dists(centroids, points, sq_norms)``, taken against exactly
    those centroids (None when ``max_iters`` ran out first).

    Each point goes to the centroid at the smallest difference-form
    distance ``sum((x - c) ** 2)``, the first on exact ties. The first
    assignment reads those distances to the seeds from the seeding itself
    (``_kmeans_pp_dists``). Later ones take the Gram form, which only
    screens: where a point's second-smallest Gram distance exceeds its
    smallest by more than twice ``_gram_error_bound``, the difference form
    has the same strict minimum, so that choice stands. Every other point (a
    near-tie) gets difference-form distances and their ``argmin``.
    Difference-form distances of all points are built only to repair an
    empty cluster (``_fill_empty_clusters``).
    """
    n, dim = points.shape
    rows = np.arange(n)
    max_sq_norm = float(sq_norms.max())
    seed_dists = _kmeans_pp_dists(points, k, rng)
    labels = seed_dists.argmin(axis=1)
    counts = np.bincount(labels, minlength=k)
    if counts.min() == 0:
        _fill_empty_clusters(labels, counts, seed_dists)
    centroids = _cluster_means(points, labels, k)
    for _ in range(max_iters - 1):
        last = _gram_dists(centroids, points, sq_norms)
        gram, center_sq = last[0].copy(), last[1]  # ``last`` is returned without the infs below
        new_labels = gram.argmin(axis=0)
        best = gram.min(axis=0)
        gram[new_labels, rows] = np.inf
        gap = gram.min(axis=0) - best
        decided = gap > 2.0 * _gram_error_bound(dim, max_sq_norm, float(center_sq.max()))
        unsure = (~decided).nonzero()[0]
        if unsure.size:
            new_labels[unsure] = _sq_dists(points[unsure], centroids).argmin(axis=1)
        counts = np.bincount(new_labels, minlength=k)
        if counts.min() == 0:
            _fill_empty_clusters(new_labels, counts, _sq_dists(points, centroids))
        if np.array_equal(new_labels, labels):
            return labels, centroids, last
        labels = new_labels
        centroids = _cluster_means(points, labels, k)
    return labels, centroids, None


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
    ``|x|``. See ``_refine_restarts`` for the identities and the bound.
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
    span = 4.0 * reach * reach + (bound + pair_error)
    headroom = 4.0 * ((count + 1.0) * span)
    rounding = 2.0 * _UNIT_ROUNDOFF * headroom / new_count + 4.0 * _SUBNORMAL
    growth = count / new_count * (1.0 + 1.0 / new_count)
    return growth * bound + pair_error / new_count + _SAFETY * rounding


def _move_guard(n: int, k: int) -> int:
    """The most moves one refinement of ``n`` points into ``k`` clusters
    makes: ``n * k``.

    Every move lowers the objective, so in exact arithmetic a refinement
    ends at a local optimum whatever the guard; the ``-1e-12`` threshold
    does not rule out a cycle that rounding might make, and the guard stops
    one. It grows with the input, since real refinements of a few hundred
    points take a few hundred moves (225 for a sentence split of n = 300,
    k = 3, on a generated bench corpus).
    """
    return n * k


def _best_move(dists: np.ndarray, labels: np.ndarray, counts: list[float]) -> tuple[int, int] | None:
    """The move the exact refinement rule picks, as (row, cluster), or None.

    ``dists`` holds the difference-form squared distances of some points,
    in the clusters ``labels``, to the exact means of the clusters of
    ``counts`` points. The move is the first strictly smallest delta
    ``gain_j d(i, c_j) - loss_s d(i, c_s)`` in (row, cluster) order, with
    ``gain_j = n_j/(n_j+1)`` and ``loss_s = n_s/(n_s-1)``, when it is below
    ``-1e-12``. Moves to the point's own cluster and moves out of a
    singleton are never candidates. A NaN candidate delta gives None, as
    an ``argmin`` over the deltas would pick that NaN.

    The deltas are Python floats from ``dists.tolist()``, each
    ``d * gain - loss * d_own`` with the two roundings of the array form,
    so the move is the array form's bit for bit; the matrices here are a
    few rows by ``k``, where numpy's fixed cost per call outweighs the
    arithmetic.
    """
    gains = [c / (c + 1.0) for c in counts]
    losses = [c / max(c - 1.0, 0.5) for c in counts]
    best, move = -1e-12, None
    for i, (row, s) in enumerate(zip(dists.tolist(), labels.tolist())):
        if counts[s] <= 1:
            continue
        loss_own = losses[s] * row[s]
        for j, (d, gain) in enumerate(zip(row, gains)):
            if j != s:
                delta = d * gain - loss_own
                if delta < best:
                    best, move = delta, (i, j)
                elif delta != delta:
                    return None
    return move


def _refine_restarts(
    points: np.ndarray,
    starts: Sequence[tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray] | None]],
    sq_norms: np.ndarray,
    max_sweeps: int | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Single-point improvement sweeps after Lloyd converges, for each
    restart's ``(labels, centroids, dists)`` in ``starts``; returns each
    restart's final labels and their centroids, in order.

    ``centroids`` must be ``_cluster_means(points, labels, k)`` and
    ``sq_norms`` the points' ``|x|^2``; the final centroids are computed
    the same way. ``dists``, ``_gram_dists(centroids, points, sq_norms)``,
    is taken here when None; a given one is read, not changed.

    Lloyd stops at assignments that are centroid-stable but may still admit
    an objective-reducing move of one point; the exact change of moving
    point i from its cluster s to cluster j is
    ``n_j/(n_j+1) * d(i, c_j)^2 - n_s/(n_s-1) * d(i, c_s)^2`` (Hartigan &
    Wong 1979). Applying the best strictly-improving move per sweep is
    deterministic, terminates (the objective decreases each time) and never
    empties a cluster. At most ``max_sweeps`` moves are made per restart, by
    default ``_move_guard(n, k)``, which only a rounding cycle could reach.

    Every move applied is the one the exact rule picks (``_best_move``):
    the minimum of the (n, k) matrix of deltas built from difference-form
    distances ``sum((x - c) ** 2)`` to the exact means ``c_j``
    (``_cluster_mean``), in row-major (point, cluster) order, taking the
    first on exact ties, and only when it is strictly below ``-1e-12``;
    otherwise the labels are final. Moves to the point's own cluster and
    moves out of a singleton cluster are never candidates. This is the
    same move a scalar loop over points, then clusters, keeping the first
    strictly smaller delta, would pick.

    Most moves are decided without any mean. Row ``G_j`` holds every
    point's squared distance to cluster j's mean. A move of point i changes
    two rows, and each follows in real arithmetic from the row itself and
    ``P_i``, the squared distances to point i: with ``m`` points before the
    move, adding i gives ``G <- (m G + P_i)/(m+1) - G[i] m/(m+1)^2`` and
    taking it out gives ``G <- (m G - P_i)/(m-1) + G[i] m/(m-1)^2``
    (``_move_row``). Both come from
    ``mu' - x_p = (m (mu - x_p) +- (x_i - x_p))/m'`` with
    ``2 (mu - x_p).(x_i - x_p) = G[p] + P_i[p] - G[i]``. ``P_i`` is the
    Gram form ``_gram_dists(points[i : i + 1], points, sq_norms)``, each
    entry within ``_gram_error_bound(d, M, M)`` of the real one, for ``M``
    the largest ``|x|^2``; it is built the first time point i moves and kept
    for the later moves of i in any restart.

    Each row carries a bound ``eps_j`` on its gap to the real squared
    distances to the real mean ``mu_j``, with ``R`` at least every ``|x|``
    (``_reach``). A row built from an exact mean starts at
    ``_exact_row_error``. An update scales the row's error by
    ``m/m' + m/m'^2`` (the ``G[i]`` term carries the same row's error),
    which is below 1 for an addition and at most 4 for a removal; adds
    ``P_i``'s entry bound over ``m'``; and adds ``_SAFETY`` times its own
    rounding: no operand exceeds ``4 R^2 + eps`` and no intermediate
    ``(m + 1)`` times that, plus four subnormals. With ``d`` the
    ``_exact_row_error`` of a center of norm ``R + e``, each ``G_j`` is
    within ``eps_j + d`` of the difference form to ``c_j``, and each delta
    within ``B = 3.5 (max_j eps_j + d)`` of the exact one (the gain factor
    is below 1, the loss factor at most 2).

    A point whose smallest Gram delta exceeds ``min(g + 2B, B - 1e-12)``,
    with ``g`` the smallest over all points, can hold neither the overall
    minimum nor a delta below ``-1e-12``; when no point is left, the labels
    are final. When exactly one point is left, its cluster has more than one
    member, its smallest delta plus ``B`` is below ``-1e-12``, and its next
    smallest delta exceeds it by more than ``2B`` (always for ``k = 2``,
    where it is the own cluster's ``inf``), the exact rule makes that move
    too, and it is applied. Otherwise, if any cluster has changed since its
    last exact mean, those means are computed exactly, their rows rebuilt
    from one BLAS product and their bounds reset, and the sweep is redone
    without counting against ``max_sweeps``. With every centroid exact, the
    points left get difference-form distances and ``_best_move`` picks the
    move among them. Before returning, the changed clusters get their exact
    means.

    The restarts' sweeps run side by side. Most sweeps cost numpy's fixed
    price per call more than arithmetic, so each pass screens every restart
    still refining with one call per step: their Gram rows are one
    ``(R, k, n)`` array and their gain and loss factors ``(R, k, 1)``
    columns, updated at each move. Each restart then decides as it would
    alone, from Python floats and its own slices: stop, a one-point move, a
    rebuild of its stale means or the exact rule's move. No step mixes
    restarts, so each result has the bits of that restart refined alone,
    whatever the bits of a shared ``P_i``. A restart that stops leaves the
    arrays before the next pass.
    """
    n, dim = points.shape
    k = len(starts[0][1])
    if max_sweeps is None:
        max_sweeps = _move_guard(n, k)
    max_sq_norm = float(sq_norms.max())
    reach = _reach(max_sq_norm, dim)
    exact_error = _mean_error(n, reach, dim)
    pair_error = _gram_error_bound(dim, max_sq_norm, max_sq_norm)
    # d: the real squared distance to mu vs the difference form to the
    # exact mean, whose norm is at most R + e.
    center_reach = reach + exact_error
    exact_gap = _exact_row_error(dim, max_sq_norm, center_reach * center_reach, reach, exact_error)
    labels = [start[0].copy() for start in starts]
    centroids = [start[1].copy() for start in starts]
    counts = [np.bincount(lab, minlength=k).astype(float).tolist() for lab in labels]
    grams, bounds = [], []
    for _, start_centroids, dists in starts:
        gram, center_sq = _gram_dists(start_centroids, points, sq_norms) if dists is None else dists
        grams.append(gram)
        bounds.append([_exact_row_error(dim, max_sq_norm, sq, reach, exact_error) for sq in center_sq.tolist()])
    gram = np.stack(grams)
    # n_s/(n_s - 1); singleton clusters get a finite placeholder, and their
    # points are dropped below.
    gains = np.array([[c / (c + 1.0) for c in row] for row in counts])[:, :, None]
    losses = np.array([[c / max(c - 1.0, 0.5) for c in row] for row in counts])[:, :, None]
    # ``P_i`` of each point moved so far, shared by the restarts.
    pair_rows: dict[int, np.ndarray] = {}
    # The clusters of each restart changed since their last exact mean.
    moved: list[set[int]] = [set() for _ in starts]
    sweeps = [0] * len(starts)
    # The restarts still refining; position a of the arrays is active[a].
    active = list(range(len(starts))) if max_sweeps > 0 else []
    own_flat = None
    while active:
        if own_flat is None:
            # The flat index of each point's own entry in ``gram``.
            own_flat = (np.stack([labels[r] for r in active]) + k * np.arange(len(active))[:, None]) * n + np.arange(n)
        gain_on = gram * gains
        gain_on.ravel()[own_flat] = np.inf
        loss_own = (gram * losses).take(own_flat)
        # min_j fl(a_j - b) = fl(min_j a_j - b): subtraction is monotone.
        row_min = np.minimum.reduce(gain_on, axis=1)
        row_min -= loss_own
        if min(min(counts[r]) for r in active) <= 1.0:
            row_min[np.array([counts[r] for r in active]).take(own_flat // n) <= 1.0] = np.inf
        screen = [3.5 * (max(bounds[r]) + exact_gap) for r in active]
        caps = [min(low + 2.0 * bound, bound - 1e-12) for low, bound in zip(row_min.min(axis=1).tolist(), screen)]
        # A NaN delta compares false, so it stays near.
        far = row_min > np.array(caps)[:, None]
        near_counts = [n - count for count in np.add.reduce(far, axis=1).tolist()]
        firsts = far.argmin(axis=1).tolist() if 1 in near_counts else None
        stopped = set()
        for a, r in enumerate(active):
            if near_counts[a] == 0:
                stopped.add(r)
                continue
            move = None
            if near_counts[a] == 1:
                i = firsts[a]  # the one point near
                s = int(labels[r][i])
                if counts[r][s] > 1.0:
                    # The row's deltas as row_min computed them; all finite
                    # but the own cluster's inf.
                    loss_off = float(loss_own[a, i])
                    deltas = [g - loss_off for g in gain_on[a, :, i].tolist()]
                    best = min(deltas)
                    if best + screen[a] < -1e-12 and sorted(deltas)[1] - best > 2.0 * screen[a]:
                        move = i, deltas.index(best)
            if move is None and moved[r]:
                stale = sorted(moved[r])
                for j in stale:
                    centroids[r][j] = _cluster_mean(points, labels[r], j)
                gram[a, stale], center_sq = _gram_dists(centroids[r][stale], points, sq_norms)
                for j, sq in zip(stale, center_sq.tolist()):
                    bounds[r][j] = _exact_row_error(dim, max_sq_norm, sq, reach, exact_error)
                moved[r].clear()
                continue
            if move is None:
                near = np.flatnonzero(~far[a])
                move = _best_move(_sq_dists(points[near], centroids[r]), labels[r][near], counts[r])
                if move is None:
                    stopped.add(r)
                    continue
                move = int(near[move[0]]), move[1]
            i, t = move
            s = int(labels[r][i])
            labels[r][i] = t
            own_flat[a, i] = (a * k + t) * n + i
            if i not in pair_rows:
                pair_rows[i] = _gram_dists(points[i : i + 1], points, sq_norms)[0][0]
            for j, added in ((t, True), (s, False)):
                bounds[r][j] = _move_row(gram[a, j], pair_rows[i], i, counts[r][j], bounds[r][j], pair_error, reach, added)
            counts[r][s] -= 1.0
            counts[r][t] += 1.0
            for j in (s, t):
                c = counts[r][j]
                gains[a, j, 0] = c / (c + 1.0)
                losses[a, j, 0] = c / max(c - 1.0, 0.5)
            moved[r].update((s, t))
            sweeps[r] += 1
            if sweeps[r] == max_sweeps:
                stopped.add(r)
        if stopped:
            keep = [a for a, r in enumerate(active) if r not in stopped]
            active = [active[a] for a in keep]
            gram, gains, losses = gram[keep], gains[keep], losses[keep]
            own_flat = None
    for r, changed in enumerate(moved):
        for j in changed:
            centroids[r][j] = _cluster_mean(points, labels[r], j)
    return list(zip(labels, centroids))


def _table_lloyd(
    points: np.ndarray, k: int, seeds: tuple[int, ...], table: np.ndarray, max_iters: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_lloyd`` from the k-means++ seeds ``seeds``, without the Gram
    screen: the same labels and centroids, and the difference-form
    distances ``_sq_dists(points, centroids)`` to the centroids returned.

    ``table`` is ``_sq_dists(points, points)``, so the first distances are
    its seed columns; each later step takes ``_sq_dists`` to the new means.
    """
    labels = np.full(len(points), -1)
    centroids = points[list(seeds)]
    dists = table[:, seeds]
    for _ in range(max_iters):
        new_labels = dists.argmin(axis=1)
        counts = np.bincount(new_labels, minlength=k)
        if counts.min() == 0:
            _fill_empty_clusters(new_labels, counts, dists)
        if (new_labels == labels).all():
            break
        labels = new_labels
        centroids = _cluster_means(points, labels, k)
        dists = _sq_dists(points, centroids)
    return labels, centroids, dists


def _exact_refine(
    points: np.ndarray, labels: np.ndarray, centroids: np.ndarray, dists: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``_refine_restarts`` of one restart without the screen: each sweep,
    up to ``_move_guard(n, k)`` of them, applies the move of the exact rule
    (``_best_move``).

    ``centroids`` must be ``_cluster_means(points, labels, k)`` and
    ``dists`` the ``(n, k)`` ``_sq_dists(points, centroids)``; all three are
    updated in place. The two clusters a move changes get their exact
    ``_cluster_mean`` and distance columns.
    """
    counts = np.bincount(labels, minlength=len(centroids)).tolist()
    for _ in range(_move_guard(len(points), len(centroids))):
        move = _best_move(dists, labels, counts)
        if move is None:
            break
        i, t = move
        s = int(labels[i])
        labels[i] = t
        counts[s] -= 1
        counts[t] += 1
        for j in (s, t):
            centroids[j] = _cluster_mean(points, labels, j)
        dists[:, [s, t]] = _sq_dists(points, centroids[[s, t]])
    return labels, centroids


def _table_restarts(
    points: np.ndarray, k: int, rngs: Iterable[np.random.Generator], max_iters: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The labels and centroids of each restart, from ``_table_lloyd`` and
    ``_exact_refine`` over one ``_sq_dists(points, points)`` table, whose
    rows k-means++ seeding reads. A restart drawing the seeds of an earlier
    one is skipped: nothing after seeding is random, so it would repeat that
    restart's result, and ``kmeans`` keeps the first of equal inertias.
    """
    table = _sq_dists(points, points)  # symmetric bit for bit: (x - y)^2 == (y - x)^2
    seen: set[tuple[int, ...]] = set()
    for rng in rngs:
        seeds = _kmeans_pp_indices(len(points), k, rng, table.__getitem__)
        if seeds not in seen:
            seen.add(seeds)
            yield _exact_refine(points, *_table_lloyd(points, k, seeds, table, max_iters))


def _certified_restarts(
    points: np.ndarray, k: int, rngs: Iterable[np.random.Generator], max_iters: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The labels and centroids of each restart, from its own ``_lloyd``
    run and one ``_refine_restarts`` of them all, sharing the points'
    ``|x|^2``."""
    sq_norms = _sq_norms(points)
    starts = [_lloyd(points, k, rng, max_iters, sq_norms) for rng in rngs]
    return _refine_restarts(points, starts, sq_norms)


# ``kmeans`` inputs of fewer rows^2 x dims take ``_table_restarts``. The two
# paths cost about the same near 1e5 (n = 24 at d = 128, n = 16 at d = 384).
_TABLE_LIMIT = 1 << 16


def _has_k_distinct_rows(points: np.ndarray, k: int) -> bool:
    """Whether ``points`` holds at least ``k`` distinct rows.

    The verdict of ``np.unique(points, axis=0).shape[0] >= k`` (``-0.0``
    equals ``0.0``), reached by keeping representatives that differ from
    every earlier one and stopping at ``k``. Its callers pass finite rows;
    a row with a NaN would, as in ``np.unique``, equal no other row.
    """
    reps: list[np.ndarray] = []
    for row in points:
        if all((row != rep).any() for rep in reps):
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
    The refinement moves one point at a time until no move lowers the
    objective, guarded at ``n * k`` moves (``_move_guard``); each move the
    exact rule picks comes from ``_best_move``, on Python floats.

    Both paths give the same bits; ``n^2 d`` picks one. Below
    ``_TABLE_LIMIT`` (2^16, about 0.5 MB for the table and its broadcast
    temporaries), one ``(n, n)`` table of squared distances gives the
    k-means++ seeding weights and the first assignment, later steps take
    difference-form distances to the means directly, and a restart that
    draws an earlier restart's seeds is skipped (``_table_restarts``).
    Here numpy's fixed cost per call dominates, and the table and the
    direct rule make the fewest calls. Above it, the table's ``n^2 d``
    arithmetic would dominate, so Lloyd screens with Gram distances and
    the refinement with certified bounds (``_certified_restarts``). Lloyd
    takes its first assignment from the seeds' distance columns that
    k-means++ seeding computed. Once every restart's Lloyd run is done,
    the restarts refine side by side: each sweep screens all of them from
    one ``(restarts, k, n)`` array, and each restart then makes its own
    decision, so each result is the one it would reach alone
    (``_refine_restarts``). That refinement reads the squared distances
    between the points only from the rows of points it moves, each built
    from one BLAS product the first time its point moves and shared by
    every restart: memory is ``n`` floats per distinct moved point, at most
    ``n^2`` per call. Lloyd and refinement
    share the points' ``|x|^2``, and a refinement starts from the last Gram
    distances of the Lloyd run it follows when they were taken against the
    centroids it starts from.

    All of it runs on the points scaled by the power of two that brings
    their largest component into [0.5, 1) (``power_of_two_scaled``), so no
    squared distance, bound or seeding weight can overflow, and the
    refinement's move threshold of ``-1e-12`` is relative to that scale.
    The centroids and the inertia are scaled back, the inertia to ``inf``
    where it runs past the float range. Since scaling by a power of two is
    exact, the labels, and the centroids up to that factor, do not depend
    on a common power-of-two scale of the vectors, bar components that
    underflow.

    Returns None exactly when the input holds fewer than k distinct
    vectors, so it cannot be divided into k non-empty clusters. That is a
    signal, not a failure. The result is fully determined by (vectors, k,
    seed, restarts, max_iters). Bad arguments raise ValueError, and so does
    a NaN or infinite component, which k-means++ seeding cannot weigh.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if restarts < 1 or max_iters < 1:
        raise ValueError("restarts and max_iters must be >= 1")
    points = np.ascontiguousarray(vectors, dtype=float)
    if points.ndim != 2 or len(points) == 0:
        raise ValueError(f"kmeans needs a non-empty (n, d) matrix, not shape {points.shape}")
    if not np.isfinite(points).all():
        raise ValueError("kmeans needs finite vectors")
    if not _has_k_distinct_rows(points, k):
        return None
    points, shift = power_of_two_scaled(points)
    seed = seed & _SEED_MASK
    n, dim = points.shape
    runs = _table_restarts if n * n * dim < _TABLE_LIMIT else _certified_restarts
    rngs = (np.random.default_rng([seed, 0, restart]) for restart in range(restarts))
    best: KMeansResult | None = None
    for labels, centroids in runs(points, k, rngs, max_iters):
        inertia = float(np.add.reduce((points - centroids[labels]) ** 2, axis=None))
        if best is None or inertia < best.inertia:
            best = KMeansResult(labels=labels, centroids=centroids, inertia=inertia)
    best.centroids = np.ldexp(best.centroids, -shift)
    try:
        best.inertia = math.ldexp(best.inertia, -2 * shift)
    except OverflowError:
        best.inertia = math.inf
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


def split_rows(points: np.ndarray, members: Sequence[int], k: int, seed: int) -> list[tuple[int, ...]]:
    """The rows ``members`` of ``points`` split into ``k`` groups of member
    indices in ``label_groups`` order, or ``[]`` when they cannot be.

    The rows are split by ``kmeans`` under ``seed``. Exactly ``k`` rows are
    split without the call: ``kmeans`` gives ``k`` singletons when the rows
    are distinct, which ``label_groups`` puts in member order whatever their
    labels, and None otherwise.
    """
    rows = points[list(members)]
    if len(rows) == k:
        return [(m,) for m in members] if _has_k_distinct_rows(rows, k) else []
    result = kmeans(rows, k, seed=seed)
    return [] if result is None else label_groups(members, result.labels)


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

    A node is split by ``split_rows`` under a seed derived from its id, and
    its groups become children in that order. A NaN or infinite component
    raises ValueError, as ``kmeans`` does, whenever the root is to be split.

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
    if len(points) > 1 and max_nodes > 1 and not np.isfinite(points).all():
        raise ValueError("kmeans needs finite vectors")

    root = ClassTreeNode(node_id=0, layer=1, members=tuple(range(len(points))))
    nodes: dict[int, ClassTreeNode] = {0: root}
    node_count = 1
    current_layer = [root]
    layer_no = 1

    while current_layer and node_count < max_nodes:
        k = k_first if layer_no == 1 else k_rest
        next_layer: list[ClassTreeNode] = []
        for node in sorted(current_layer, key=lambda n: (-n.size, n.members[0])):
            if node_count >= max_nodes:
                break
            if node.size < 2:
                continue
            for group in split_rows(points, node.members, k, derive_seed(seed, f"node:{node.node_id}")):
                child = ClassTreeNode(node_id=node_count, layer=layer_no + 1, members=group)
                node.children.append(child)
                nodes[node_count] = child
                next_layer.append(child)
                node_count += 1
        current_layer = next_layer
        layer_no += 1

    order = sorted(nodes.values(), key=lambda n: (n.layer, -n.size, n.members[0]))
    return ClassTree(
        root=root,
        node_count=node_count,
        traversal_order=tuple(n.node_id for n in order),
        nodes=nodes,
    )


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

"""k-means behavior and class-tree construction invariants."""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import treesum
from helpers import (
    blas_kernels_selectable,
    broadcast_sq_dists,
    brute_force_min_inertia,
    difference_form_lloyd,
    embed_with_vectors,
    kmeans_class_tree,
    make_corpus,
    random_synthetic_topic,
    reference_kmeans,
    restricted_growth_labelings,
    scalar_refine_labels,
)
from treesum.embedding import document_key, sentence_key
from treesum.tree import (
    ClassTree,
    _cluster_mean,
    _cluster_means,
    _exact_row_error,
    _gram_dists,
    _gram_error_bound,
    _has_k_distinct_rows,
    _lloyd,
    _mean_error,
    _move_row,
    _PairwiseRows,
    _reach,
    _refine_labels,
    _sq_dists,
    _sq_norms,
    _weighted_draw,
    build_class_tree,
    derive_seed,
    kmeans,
    label_groups,
    split_rows,
    tree_to_dict,
)
from treesum.variants import TopicWork


def test_kmeans_separated_pairs():
    points = [np.array(p) for p in [(0.0, 0.0), (0.0, 0.1), (10.0, 10.0), (10.0, 10.1)]]
    result = kmeans(points, k=2, seed=0)
    assert result is not None
    labels = result.labels
    assert labels[0] == labels[1] and labels[2] == labels[3] and labels[0] != labels[2]
    # Matches the exhaustive-partition optimum.
    assert result.inertia == pytest.approx(brute_force_min_inertia(np.stack(points), 2))


def test_kmeans_identical_points_not_divisible():
    points = [np.array([1.0, 1.0])] * 3
    assert kmeans(points, k=2, seed=0) is None


def test_kmeans_two_points_two_clusters():
    points = [np.array([0.0, 0.0]), np.array([5.0, 5.0])]
    result = kmeans(points, k=2, seed=3)
    assert result is not None
    assert sorted(result.labels) == [0, 1]
    assert result.inertia == pytest.approx(0.0)


def test_kmeans_deterministic():
    rng = np.random.default_rng(11)
    points = [rng.normal(size=3) for _ in range(12)]
    a = kmeans(points, k=3, seed=99)
    b = kmeans(points, k=3, seed=99)
    assert a is not None and b is not None
    assert np.array_equal(a.labels, b.labels)
    assert a.inertia == b.inertia


def test_kmeans_never_returns_empty_cluster():
    rng = np.random.default_rng(5)
    for trial in range(50):
        n = int(rng.integers(2, 10))
        points = [rng.normal(size=2) for _ in range(n)]
        k = int(rng.integers(2, 4))
        result = kmeans(points, k=k, seed=trial)
        if result is not None:
            counts = np.bincount(result.labels, minlength=k)
            assert counts.min() >= 1


def _refine_cases(rng):
    """Seeded (points, k) inputs for the refinement oracle, ties included."""
    for kind in ("gaussian", "integer", "decimal1"):
        for dim in (1, 3, 8, 9, 128, 384):
            for k in (2, 3, 4, 5):
                n = int(rng.integers(k + 1, 41))
                if kind == "gaussian":
                    points = rng.normal(size=(n, dim)) * rng.uniform(0.5, 3.0)
                elif kind == "integer":
                    points = rng.integers(0, 3, size=(n, dim)).astype(float)
                else:
                    points = np.round(rng.normal(size=(n, dim)), 1)
                yield points, k
    # Duplicate rows: equal deltas, so the first in row order must win.
    for dim in (2, 8):
        pool = rng.normal(size=(6, dim))
        yield pool[rng.integers(0, 6, size=30)], 3
    # Deltas of about 1e-12, on both sides of the move threshold.
    for dim in (3, 16):
        yield rng.normal(size=(30, dim)) * 3e-7, 3
    # Huge rows.
    yield rng.normal(size=(20, 8)) * 1e150, 3
    # Subnormal rows: squares underflow, alone and beside normal rows.
    yield rng.normal(size=(16, 4)) * 1e-310, 2
    mixed = rng.normal(size=(20, 4))
    mixed[::3] *= 1e-310
    yield mixed, 3
    # Sentence scale: one topic's 300 sentence vectors split three ways.
    yield rng.normal(size=(300, 128)), 3


def _start_labels(rng, points, k):
    """Lloyd's own result, a noisier start, and one with a singleton cluster."""
    n = len(points)
    lloyd = difference_form_lloyd(points, k, np.random.default_rng([int(rng.integers(1 << 30))]), 100)
    if lloyd is not None:
        yield lloyd
    if n > 40:
        # Sentence scale: a few points off Lloyd's optimum keep the scalar
        # oracle's sweeps (n * k calls each) short.
        labels = lloyd.copy()
        labels[rng.choice(n, 10, replace=False)] = rng.integers(0, k, size=10)
        yield labels
        return
    labels = rng.integers(0, k, size=n)
    labels[rng.permutation(n)[:k]] = np.arange(k)
    yield labels
    # Merge cluster 0 into cluster 1, then move one of those points back.
    singleton = labels.copy()
    singleton[singleton == 0] = 1
    singleton[int(rng.choice(np.flatnonzero(singleton == 1)))] = 0
    yield singleton


def _refine_args(points):
    """The points' ``_PairwiseRows`` and ``|x|^2``, as ``kmeans`` passes them."""
    sq_norms = _sq_norms(points)
    return _PairwiseRows(points, sq_norms), sq_norms


def _refine(points, labels, k, **kwargs):
    """``_refine_labels`` from the labels' own centroids; checks that the
    centroids it returns are those of its labels, byte for byte."""
    start = _cluster_means(points, labels, k)
    got, centroids = _refine_labels(points, labels, start, *_refine_args(points), **kwargs)
    assert centroids.tobytes() == _cluster_means(points, got, k).tobytes()
    return got


def _gram_form_dists(points, centroids):
    """The Gram form alone, with no exact check: |x|^2 - 2 x.c + |c|^2."""
    return np.vecdot(points, points)[:, None] - 2.0 * (points @ centroids.T) + np.vecdot(centroids, centroids)


def _gram_alone_refine(points, labels, k, max_sweeps=200):
    """The refinement rule with Gram-form distances deciding every move."""
    labels = labels.copy()
    rows = np.arange(len(points))
    for _ in range(max_sweeps):
        counts = np.bincount(labels, minlength=k).astype(float)
        dists = _gram_form_dists(points, _cluster_means(points, labels, k))
        own = counts[labels]
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = (counts / (counts + 1.0)) * dists - (own / (own - 1.0) * dists[rows, labels])[:, None]
        delta[np.isnan(delta)] = np.inf
        delta[rows, labels] = np.inf
        delta[own <= 1] = np.inf
        flat = int(delta.argmin())
        if not delta.flat[flat] < -1e-12:
            return labels
        labels[flat // k] = flat % k
    return labels


def _near_tie_case(rng):
    """Near-duplicate points far from the origin: their exact deltas differ
    by about 1e-7, far less than the Gram form's rounding (about 1e-3)."""
    k, dim = 3, 8
    centers = rng.normal(size=(k, dim))
    points = 1e6 + centers[rng.integers(0, k, size=24)] + 1e-7 * rng.normal(size=(24, dim))
    labels = rng.integers(0, k, size=24)
    labels[:k] = np.arange(k)
    return points, labels, k


def test_refine_labels_matches_scalar_oracle():
    rng = np.random.default_rng(1979)
    cases = 0
    for points, k in _refine_cases(rng):
        for labels in _start_labels(rng, points, k):
            expected = scalar_refine_labels(points, labels, k)
            got = _refine(points, labels, k)
            assert np.array_equal(got, expected), (points.shape, k)
            cases += 1
    assert cases > 200
    # Long move paths over sparse non-negative vectors, like hashed tf-idf
    # sentences: each move refreshes two of k columns and leaves the rest.
    for n, k in ((150, 2), (190, 3), (240, 4), (300, 5)):
        points, labels = _sparse_long_path_case(rng, n, k)
        path = _scalar_path(points, labels, k)
        assert np.count_nonzero(path[-1] != labels) >= 20
        assert np.array_equal(_refine(points, labels, k), path[-1]), (n, k)
    # Every sweep cap cuts the last path short in both.
    for cap in range(1, len(path)):
        assert np.array_equal(_refine(points, labels, k, max_sweeps=cap), path[cap]), cap


def test_oracle_sweep_distances_equal_the_scalar_form_bytewise():
    """``scalar_refine_labels`` takes each sweep's distances from one
    broadcast call; every entry is the scalar ``np.sum((x - c) ** 2)``."""
    rng = np.random.default_rng(1979)
    cases = 0
    for points, k in _refine_cases(rng):
        for labels in _start_labels(rng, points, k):
            centroids = np.stack([points[labels == j].mean(axis=0) for j in range(k)])
            scalar = np.array([[np.sum((x - c) ** 2) for c in centroids] for x in points])
            assert broadcast_sq_dists(points, centroids).tobytes() == scalar.tobytes(), (points.shape, k)
            cases += 1
    assert cases > 200


def _scalar_path(points, labels, k):
    """The labels before and after each sweep of ``scalar_refine_labels`` up
    to its last move: ``path[c]`` is its result with ``max_sweeps=c``."""
    path = [labels]
    while True:
        step = scalar_refine_labels(points, path[-1], k, max_sweeps=1)
        if np.array_equal(step, path[-1]):
            return path
        path.append(step)


def _counted_refine(monkeypatch, points, labels, k, **kwargs):
    """``_refine_labels`` from the labels' own centroids: its labels, for
    each exact mean it takes the labels that mean is taken under, and the
    number of BLAS products (``_gram_dists`` calls) it makes.

    The final means are taken under the final labels, so every entry under
    other labels belongs to a fallback sweep, which takes at most ``k``.
    """
    start = _cluster_means(points, labels, k)
    args = _refine_args(points)
    seen = []
    products = []

    def counted(points, labels, j):
        seen.append(labels.tobytes())
        return _cluster_mean(points, labels, j)

    def counted_product(*args):
        products.append(1)
        return _gram_dists(*args)

    with monkeypatch.context() as patch:
        patch.setattr(treesum.tree, "_cluster_mean", counted)
        patch.setattr(treesum.tree, "_gram_dists", counted_product)
        got, centroids = _refine_labels(points, labels, start, *args, **kwargs)
    assert centroids.tobytes() == _cluster_means(points, got, k).tobytes()
    return got, seen, len(products)


def test_refine_labels_takes_exact_means_only_on_fallbacks_and_at_the_end(monkeypatch):
    rng = np.random.default_rng(1979)
    for n, k in ((150, 2), (300, 5)):
        points, labels = _sparse_long_path_case(rng, n, k)
        path = _scalar_path(points, labels, k)
        moves = len(path) - 1
        assert moves >= 20
        got, seen, _ = _counted_refine(monkeypatch, points, labels, k)
        assert np.array_equal(got, path[-1]), (n, k)
        fallbacks = {state for state in seen if state != got.tobytes()}
        assert len(seen) <= k * (1 + len(fallbacks)), (n, k)
        assert 4 * len(seen) <= moves, (n, k, len(seen), moves)
    # Near-ties leave several rows to the exact deltas: the moved centroids
    # become exact means first, and the labels still follow the oracle at
    # every sweep cap, also a cap that falls right after a fallback.
    rng = np.random.default_rng(1107)
    fell_back = capped_after_fallback = 0
    for _ in range(10):
        points, labels, k = _near_tie_case(rng)
        path = _scalar_path(points, labels, k)
        got, seen, _ = _counted_refine(monkeypatch, points, labels, k)
        assert np.array_equal(got, path[-1])
        fell_back += any(state != got.tobytes() for state in seen)
        for cap in range(1, len(path)):
            got, seen, _ = _counted_refine(monkeypatch, points, labels, k, max_sweeps=cap)
            assert np.array_equal(got, path[cap]), cap
            capped_after_fallback += path[cap - 1].tobytes() in seen
    assert fell_back >= 1 and capped_after_fallback >= 1


def test_refine_labels_makes_blas_products_only_to_start_and_on_fallbacks(monkeypatch):
    """A move updates its two rows from ``pairwise`` alone: one BLAS
    product builds the rows at the start and one more each fallback."""
    rng = np.random.default_rng(1979)
    for n, k in ((150, 2), (300, 5)):
        points, labels = _sparse_long_path_case(rng, n, k)
        path = _scalar_path(points, labels, k)
        got, seen, products = _counted_refine(monkeypatch, points, labels, k)
        assert np.array_equal(got, path[-1]), (n, k)
        fallbacks = {state for state in seen if state != got.tobytes()}
        assert len(path) - 1 >= 20
        assert products <= 1 + len(fallbacks), (n, k, products, len(path) - 1)
    # Every sweep cap along the longer path (74 moves).
    assert len(path) - 1 >= 70
    for cap in range(1, len(path)):
        got, seen, products = _counted_refine(monkeypatch, points, labels, k, max_sweeps=cap)
        assert np.array_equal(got, path[cap]), cap
        assert products <= 1 + len({state for state in seen if state != got.tobytes()}), cap


def _fraction_sq_dists(points, center):
    """Exact rational squared distances of every point to ``center``."""
    return [sum((Fraction(x) - c) ** 2 for x, c in zip(row, center)) for row in points.tolist()]


def _max_gap(values, reals):
    """The largest |value - real| over a float array and rationals."""
    return max(abs(Fraction(v) - r) for v, r in zip(values.tolist(), reals))


def _float_above(value):
    """The smallest float at least the rational ``value``."""
    low = float(value)
    return low if Fraction(low) >= value else float(np.nextafter(low, np.inf))


def _move_row_updates():
    """Yield each state of 200 seeded add/remove sequences after a
    ``_move_row`` update of cluster 0's row: ``(case, scale, tight, points,
    labels, row, bound, screen_gap)``.

    Half the sequences run as the refinement does: ``_PairwiseRows`` with
    ``_gram_error_bound``, and a row built from an exact mean with
    ``_exact_row_error``. The other half start from correctly rounded
    distances, a row with an offset of up to 1e-6 of its values, and each
    bound the exact gap, so the update's own terms carry the bound. At
    1e-310 the points are subnormal; at 1e-161 their squared distances are,
    and the divisions round to whole subnormals. A removal first multiplies
    an offset of one sign by ``m/m' + m/m'^2``. ``screen_gap`` is the
    screen's ``d`` from ``_exact_row_error``."""
    rng = np.random.default_rng(1979)
    for case in range(200):
        scale = (1.0, 1e-300, 1e150, 1e-310, 1e-161)[case % 5]
        tight = case % 10 >= 5
        n, dim = int(rng.integers(3, 10)), int(rng.integers(1, 5))
        points = rng.normal(size=(n, dim)) * scale
        zeros = rng.random((n, dim)) < 0.2
        points[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
        sq_norms = _sq_norms(points)
        max_sq_norm = float(sq_norms.max())
        reach = _reach(max_sq_norm, dim)
        mean_error = _mean_error(n, reach, dim)
        center_reach = reach + mean_error
        screen_gap = _exact_row_error(dim, max_sq_norm, center_reach * center_reach, reach, mean_error)
        labels = np.ones(n, dtype=int)
        labels[rng.permutation(n)[: int(rng.integers(1, n))]] = 0
        if tight:
            real_pairs = [_fraction_sq_dists(points, list(map(Fraction, x))) for x in points.tolist()]
            pairwise = np.array([[float(v) for v in row] for row in real_pairs])
            pair_error = _float_above(max(map(_max_gap, pairwise, real_pairs)))
            real = _real_row(points, labels)
            offset = 1e-6 * float(max(real)) * rng.choice([1.0, -1.0, rng.uniform(-1.0, 1.0)])
            row = np.array([float(v) + offset for v in real])
            bound = _float_above(_max_gap(row, real))
        else:
            pairwise = _PairwiseRows(points, sq_norms)
            pair_error = _gram_error_bound(dim, max_sq_norm, max_sq_norm)
            gram, center_sq = _gram_dists(_cluster_mean(points, labels, 0)[None], points, sq_norms)
            row = gram[0]
            bound = _exact_row_error(dim, max_sq_norm, float(center_sq[0]), reach, mean_error)
        for _ in range(12):
            inside, outside = np.flatnonzero(labels == 0), np.flatnonzero(labels != 0)
            added = outside.size > 0 and (inside.size < 2 or rng.random() < 0.5)
            i = int(rng.choice(outside if added else inside))
            bound = _move_row(row, pairwise[i], i, float(inside.size), bound, pair_error, reach, added)
            labels[i] = 0 if added else 1
            yield case, scale, tight, points, labels.copy(), row.copy(), bound, screen_gap


def _real_row(points, labels):
    """Exact rational squared distances of every point to cluster 0's real mean."""
    members = points[labels == 0].tolist()
    mean = [sum(map(Fraction, column)) / len(members) for column in zip(*members)]
    return _fraction_sq_dists(points, mean)


def test_move_row_bound_covers_the_real_distances():
    """After every in-place update, the bound ``_move_row`` returns covers
    the row's gap to the real squared distances to the real mean of the
    cluster, in exact rational arithmetic."""
    for case, scale, tight, points, labels, row, bound, _ in _move_row_updates():
        assert math.isfinite(bound), (case, scale)
        assert _max_gap(row, _real_row(points, labels)) <= Fraction(bound), (case, scale, tight)


def test_move_row_bound_with_the_screen_gap_covers_distances_to_the_exact_means():
    """After every in-place update, the bound ``_move_row`` returns, with
    the screen's gap ``_exact_row_error`` added, covers the row's gap to the
    difference form to the mean that ``_cluster_mean`` computes."""
    for case, scale, tight, points, labels, row, bound, screen_gap in _move_row_updates():
        exact = _sq_dists(points, _cluster_mean(points, labels, 0)[None])[:, 0].tolist()
        assert _max_gap(row, map(Fraction, exact)) <= Fraction(bound) + Fraction(screen_gap), (case, scale, tight)


def test_pairwise_rows_are_built_on_first_read_with_the_whole_matrix_bits():
    """Rows read in any order equal the whole matrix built four rows per
    BLAS product, and only the blocks of rows read are built."""
    rng = np.random.default_rng(2206)
    for n, dim in ((1, 3), (6, 2), (13, 384), (300, 128)):
        points = rng.normal(size=(n, dim)) if dim != 128 else _sparse_points(rng, n)
        sq_norms = _sq_norms(points)
        whole = np.empty((n, n))
        for start in range(0, n, 4):
            np.matmul(-2.0 * points[start : start + 4], points.T, out=whole[start : start + 4])
        whole += sq_norms
        whole += sq_norms[:, None]
        rows = _PairwiseRows(points, sq_norms)
        read = rng.choice(n, size=max(1, n // 5), replace=False)
        for i in read:
            assert rows[int(i)].tobytes() == whole[i].tobytes(), (n, i)
        assert len(rows._blocks) == len({int(i) // 4 for i in read})
        assert np.stack([rows[i] for i in range(n)]).tobytes() == whole.tobytes()


def _tied_targets_case(rng):
    """One point far out in cluster 0, nearly as far from clusters 1 and 2.

    Clusters 1 and 2 mirror each other across the plane the point lies
    near, so far from the origin its exact deltas to them differ by about
    1e-7, far less than the Gram form's rounding. Every other point is at
    home, so the screen leaves the point's row alone.
    """
    dim = 8
    near_one = 0.01 * rng.normal(size=(6, dim))
    near_one[:, 0] += 1.0
    mirror = near_one * np.where(np.arange(dim) == 0, -1.0, 1.0)
    near_zero = 0.01 * rng.normal(size=(6, dim))
    near_zero[:, 1] -= 4.0
    lone = np.zeros((1, dim))
    lone[0, 1], lone[0, 0] = 3.0, 1e-7 * rng.normal()
    points = 1e6 + np.vstack([near_zero, near_one, mirror, lone])
    labels = np.repeat([0, 1, 2, 0], [6, 6, 6, 1])
    order = rng.permutation(19)
    return points[order], labels[order], 3


def test_refine_labels_exact_check_decides_tied_targets():
    """One row left, two targets within the bound: the exact rule chooses."""
    rng = np.random.default_rng(1908)
    gram_differs = 0
    for _ in range(30):
        points, labels, k = _tied_targets_case(rng)
        for sweeps in (200, 1):
            expected = scalar_refine_labels(points, labels, k, max_sweeps=sweeps)
            assert np.array_equal(_refine(points, labels, k, max_sweeps=sweeps), expected)
        gram_differs += not np.array_equal(_gram_alone_refine(points, labels, k, 1), expected)
    assert gram_differs >= 3


def test_refine_labels_exact_check_decides_near_ties():
    """The Gram form alone picks other moves here; the refinement must not."""
    rng = np.random.default_rng(1107)
    gram_differs = 0
    for _ in range(40):
        points, labels, k = _near_tie_case(rng)
        for sweeps in (1, 200):
            expected = scalar_refine_labels(points, labels, k, max_sweeps=sweeps)
            assert np.array_equal(_refine(points, labels, k, max_sweeps=sweeps), expected)
            gram_differs += not np.array_equal(_gram_alone_refine(points, labels, k, sweeps), expected)
    assert gram_differs >= 5



def test_refine_labels_keeps_a_nan_gram_delta_near():
    """A NaN in the given Gram rows makes its point's smallest delta NaN,
    which the screen keeps near: the exact rule then decides the moves, and
    the labels are the scalar oracle's, not the start labels."""
    rng = np.random.default_rng(2009)
    moved = 0
    for _ in range(200):
        n, k, dim = int(rng.integers(6, 30)), int(rng.integers(2, 5)), int(rng.integers(1, 9))
        points = rng.normal(size=(n, dim))
        labels = rng.integers(0, k, size=n)
        labels[rng.permutation(n)[:k]] = np.arange(k)
        start = _cluster_means(points, labels, k)
        pairwise, sq_norms = _refine_args(points)
        dists = _gram_dists(start, points, sq_norms)
        dists[0][rng.integers(k), rng.integers(n)] = np.nan
        expected = scalar_refine_labels(points, labels, k)
        got, _ = _refine_labels(points, labels, start, pairwise, sq_norms, dists=dists)
        assert np.array_equal(got, expected)
        moved += not np.array_equal(expected, labels)
    assert moved >= 190


def _sparse_points(rng, n):
    """n sparse non-negative 128-dim points, like hashed tf-idf sentences."""
    points = np.zeros((n, 128))
    for row in points:
        cols = rng.choice(128, size=int(rng.integers(3, 12)), replace=False)
        row[cols] = rng.random(len(cols))
    return points


def _sparse_long_path_case(rng, n, k):
    """Sparse non-negative 128-dim points and Lloyd labels with 30 scrambled."""
    points = _sparse_points(rng, n)
    labels = difference_form_lloyd(points, k, np.random.default_rng([n, k]), 100)
    labels[rng.choice(n, 30, replace=False)] = rng.integers(0, k, size=30)
    return points, labels


def _lloyd_cases(rng):
    """Seeded (points, k) inputs for the Lloyd oracle."""
    for dim in (1, 3, 8, 128, 384):
        for k in (2, 3, 5):
            yield rng.normal(size=(int(rng.integers(k, 60)), dim)), k
    yield rng.integers(0, 2, size=(40, 6)).astype(float), 4
    pool = rng.normal(size=(5, 4))
    yield pool[rng.integers(0, 5, size=30)], 3
    yield rng.normal(size=(20, 8)) * 1e150, 3
    yield rng.normal(size=(16, 4)) * 1e-310, 2
    for _ in range(20):
        # Points a little off a large offset: the Gram form's rounding is
        # about the size of the gaps between distances.
        centers = rng.normal(size=(3, 8))
        yield 1e6 + 0.03 * (centers[rng.integers(0, 3, size=30)] + 0.3 * rng.normal(size=(30, 8))), 3


def _assert_last_dists_match(points, centroids, dists):
    """``_lloyd``'s last Gram distances, when it returns them, are the ones
    taken against the centroids it returns, bit for bit."""
    if dists is not None:
        for got, expected in zip(dists, _gram_dists(centroids, points, _sq_norms(points))):
            assert got.tobytes() == expected.tobytes()


def test_lloyd_matches_difference_form_oracle():
    rng = np.random.default_rng(1979)
    gram_differs = 0
    for points, k in _lloyd_cases(rng):
        seed = int(rng.integers(1 << 30))
        expected = difference_form_lloyd(points, k, np.random.default_rng(seed), 100)
        got = _lloyd(points, k, np.random.default_rng(seed), 100, _sq_norms(points))
        if expected is None:
            assert got is None
            continue
        labels, centroids, dists = got
        assert np.array_equal(labels, expected), (points.shape, k)
        assert centroids.tobytes() == _cluster_means(points, labels, k).tobytes()
        _assert_last_dists_match(points, centroids, dists)
        exact = _sq_dists(points, centroids).argmin(axis=1)
        gram_differs += not np.array_equal(_gram_form_dists(points, centroids).argmin(axis=1), exact)
    assert gram_differs >= 3


def _few_distinct_rows_cases(rng):
    """Seeded (points, k) with exactly k distinct rows: many duplicates,
    n == k, and each with NaN rows among them (a NaN row equals no row)."""
    for _ in range(40):
        k = int(rng.integers(2, 6))
        dim = int(rng.integers(1, 5))
        pool = rng.integers(-2, 3, size=(k, dim)).astype(float)
        while len(np.unique(pool, axis=0)) < k:
            pool = rng.integers(-2, 3, size=(k, dim)).astype(float)
        yield pool[rng.permutation(k)], k
        points = pool[np.concatenate([np.arange(k), rng.integers(0, k, size=int(rng.integers(1, 40)))])]
        yield points[rng.permutation(len(points))], k
        nan_rows = np.full((int(rng.integers(1, k + 1)), dim), np.nan)
        yield np.concatenate([pool[: k - len(nan_rows)], nan_rows])[rng.permutation(k)], k
        points = np.concatenate([points, nan_rows])
        yield points[rng.permutation(len(points))], k


def test_lloyd_always_returns_k_non_empty_clusters(monkeypatch):
    """Once ``n >= k``, an empty cluster always finds a donor, so ``_lloyd``
    returns k non-empty clusters. k-means++ cannot seed NaN rows (their
    weights are NaN), so those and half of the others start from seeds drawn
    among the rows with repeats, which leaves clusters empty at once."""
    rng = np.random.default_rng(1985)
    seeded = 0
    for points, k in _few_distinct_rows_cases(rng):
        stream = np.random.default_rng(int(rng.integers(1 << 30)))
        drawn = points[rng.integers(0, len(points), size=k)]
        own_seeds = not np.isnan(points).any() and rng.random() < 0.5
        seeded += own_seeds
        with monkeypatch.context() as patch:
            if not own_seeds:
                patch.setattr("treesum.tree._kmeans_pp_init", lambda *_: drawn.copy())
            labels, centroids, dists = _lloyd(points, k, stream, int(rng.integers(1, 20)), _sq_norms(points))
        _assert_last_dists_match(points, centroids, dists)
        assert labels.shape == (len(points),) and centroids.shape == (k, points.shape[1])
        assert np.bincount(labels, minlength=k).min() >= 1, (points, k)
        assert len(np.bincount(labels)) == k
    assert seeded >= 20


def test_lloyd_distance_columns_equal_broadcast_form_bytewise():
    rng = np.random.default_rng(2003)
    for n, dim, k in ((7, 1, 2), (40, 3, 3), (120, 9, 4), (300, 128, 3), (10, 384, 2), (33, 200, 5)):
        points = rng.normal(size=(n, dim)) * rng.uniform(0.1, 10.0)
        centroids = points[rng.choice(n, k, replace=False)] + rng.normal(size=(k, dim)) * 0.01
        broadcast = _sq_dists(points, centroids)
        columns = np.stack([np.sum((points - c) ** 2, axis=1) for c in centroids], axis=1)
        assert columns.tobytes() == broadcast.tobytes(), (n, dim, k)
        scalar = np.array([[np.sum((x - c) ** 2) for c in centroids] for x in points])
        assert scalar.tobytes() == broadcast.tobytes(), (n, dim, k)
        rows = np.sort(rng.choice(n, min(n, 3), replace=False))
        assert _sq_dists(points[rows], centroids).tobytes() == broadcast[rows].tobytes()


def test_weighted_draw_matches_generator_choice():
    """The k-means++ draw picks what ``rng.choice(n, p=...)`` picks and
    leaves the generator where that call leaves it."""
    cases = 0
    for seed in (0, 1, 7, 2024):
        source = np.random.default_rng(seed)
        for case in range(300):
            n = int(source.integers(2, 301))
            weights = source.random(n) ** source.uniform(1.0, 6.0)
            weights[source.random(n) < source.uniform(0.0, 0.9)] = 0.0
            if case % 3 == 0:
                weights[source.integers(n)] = source.uniform(1e3, 1e12)
            if case % 7 == 0:
                weights[:] = 0.0
                weights[source.integers(n)] = 1.0
            if not weights.any():
                weights[-1] = 0.5
            weights *= 2.0 ** int(source.integers(-40, 40))
            total = weights.sum()
            ours = np.random.default_rng([seed, case])
            theirs = np.random.default_rng([seed, case])
            for _ in range(3):
                assert _weighted_draw(weights, total, ours) == int(theirs.choice(n, p=weights / total))
                assert ours.bit_generator.state == theirs.bit_generator.state
            cases += 1
    assert cases >= 1000

    # Two draws a random stream all but never makes, pinned with a stand-in
    # generator: a value on a step of the cumulative sum (zero weights make
    # flat steps), and one above the last cumulative sum before it is
    # normalized (0.9999999999999999 for ten weights of 0.1).
    class Fixed:
        def __init__(self, value):
            self.value = value

        def random(self):
            return self.value

    assert _weighted_draw(np.array([1.0, 0.0, 0.0, 1.0]), 2.0, Fixed(0.5)) == 3
    tenths = np.full(10, 0.1)
    assert _weighted_draw(tenths, tenths.sum(), Fixed(np.nextafter(1.0, 0.0))) == 9


def test_cluster_means_equal_per_cluster_means_bytewise():
    rng = np.random.default_rng(2005)
    for case in range(200):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(k, 60))
        dim = int(rng.choice([1, 2, 3, 7, 128, 384]))
        points = rng.normal(size=(n, dim)) * rng.uniform(0.01, 100.0)
        # Every cluster non-empty, the first ``singletons`` of them with one
        # point, labels shuffled.
        singletons = int(rng.integers(0, k))
        labels = np.concatenate([np.arange(k), rng.integers(singletons, k, n - k)])
        rng.shuffle(labels)
        expected = np.stack([_cluster_mean(points, labels, j) for j in range(k)])
        assert _cluster_means(points, labels, k).tobytes() == expected.tobytes(), case


def test_distinct_row_check_matches_np_unique():
    rng = np.random.default_rng(2004)
    specials = np.array([0.0, -0.0, 1.0, np.nan])
    for _ in range(2000):
        n, dim = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        pool = rng.choice(specials, size=(int(rng.integers(1, 4)), dim))
        points = pool[rng.integers(0, len(pool), size=n)]
        # Re-draw some coordinates so that rows are near-duplicates, with
        # signed zeros and NaNs in the same places as other rows.
        mask = rng.random((n, dim)) < 0.2
        points[mask] = rng.choice(specials, size=int(mask.sum()))
        distinct = np.unique(points, axis=0).shape[0]
        for k in range(1, n + 2):
            assert _has_k_distinct_rows(points, k) == (distinct >= k), (points, k)


def _overflowing_sum_points(rng):
    """20 1-D points from 0.1e154 to 1.3e154: every squared distance is
    finite, their sum is not."""
    return rng.uniform(0.1e154, 1.3e154, size=(20, 1))


def test_kmeans_splits_points_whose_squared_distances_sum_past_the_float_range():
    rng = np.random.default_rng(1300)
    for trial in range(10):
        points = _overflowing_sum_points(rng)
        for k in (2, 3):
            result = kmeans(points, k, seed=trial)
            assert result is not None
            assert sorted(set(result.labels.tolist())) == list(range(k))


def _scaling_cases(rng):
    """Seeded (name, points, k): normal points, the same times 1e-7, with
    every third row subnormal, and points of norm about 1e154."""
    for _ in range(12):
        n, dim, k = int(rng.integers(4, 30)), int(rng.integers(1, 9)), int(rng.integers(2, 5))
        points = rng.normal(size=(n, dim))
        yield "normal", points, k
        yield "1e-7", points * 1e-7, k
        mixed = points.copy()
        mixed[::3] *= 1e-310
        yield "subnormal-mixed", mixed, k
        band = 1e154 * rng.choice([0.85, 1.0, 1.3], size=(n, 1)) * (1.0 + 1e-3 * rng.normal(size=(n, dim)))
        yield "1e154", band, k


def test_kmeans_does_not_depend_on_a_power_of_two_scale():
    """``kmeans(points * 2**j)`` gives ``kmeans(points)``'s labels and its
    centroids times ``2**j``, byte for byte, wherever that scaling is exact
    (no component leaves or enters the subnormal range or overflows)."""
    rng = np.random.default_rng(2018)
    checked = {}
    for name, points, k in _scaling_cases(rng):
        seed = int(rng.integers(1 << 30))
        expected = kmeans(points, k, seed)
        for j in (-1000, -20, 20, 1000):
            with np.errstate(over="ignore"):
                scaled = np.ldexp(points, j)
            if not np.array_equal(np.ldexp(scaled, -j), points):
                continue
            got = kmeans(scaled, k, seed)
            assert got.labels.tobytes() == expected.labels.tobytes(), (name, j)
            assert got.centroids.tobytes() == np.ldexp(expected.centroids, j).tobytes(), (name, j)
            checked[name, j] = checked.get((name, j), 0) + 1
    assert sorted(checked) == sorted(
        [(name, j) for name in ("normal", "1e-7") for j in (-1000, -20, 20, 1000) if (name, j) != ("1e-7", -1000)]
        + [("subnormal-mixed", 20), ("subnormal-mixed", 1000), ("1e154", -1000), ("1e154", -20), ("1e154", 20)]
    )
    assert min(checked.values()) == 12


def test_kmeans_matches_reference_at_sentence_tree_shape():
    """A topic's sentence vectors split two or three ways, byte for byte
    against the reference Lloyd and refinement with the same restarts."""
    rng = np.random.default_rng(665)
    for n, k, seeds in ((150, 2, 2), (150, 3, 2), (300, 2, 1), (300, 3, 1)):
        points = _sparse_points(rng, n)
        for _ in range(seeds):
            seed = int(rng.integers(1 << 62))
            got = kmeans(points, k, seed)
            labels, centroids, inertia = reference_kmeans(points, k, seed)
            assert got.labels.tobytes() == labels.tobytes(), (n, k, seed)
            assert got.centroids.tobytes() == centroids.tobytes(), (n, k, seed)
            assert got.inertia == inertia, (n, k, seed)


def test_restricted_growth_labelings_enumerate_each_partition_once():
    def stirling(n, k):
        if n == k:
            return 1
        if k == 0 or k > n:
            return 0
        return k * stirling(n - 1, k) + stirling(n - 1, k - 1)

    for n in range(1, 9):
        for k in range(1, 5):
            partitions = [
                frozenset(frozenset(i for i, label in enumerate(labels) if label == j) for j in range(k))
                for labels in restricted_growth_labelings(n, k)
            ]
            assert len(partitions) == stirling(n, k), (n, k)
            assert len(set(partitions)) == len(partitions)
            assert all(len(blocks) == k and all(blocks) for blocks in partitions)


def test_kmeans_validates_arguments():
    with pytest.raises(ValueError):
        kmeans([np.zeros(2)], k=1, seed=0)
    with pytest.raises(ValueError):
        kmeans([], k=2, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kmeans_rejects_non_finite_input(bad):
    points = np.random.default_rng(5).normal(size=(10, 3))
    points[4, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        kmeans(points, k=3, seed=1)


def test_kmeans_takes_a_matrix_or_its_rows():
    points = np.random.default_rng(3).normal(size=(12, 3))
    expected = kmeans(points, 3, seed=4)
    for same in (list(points), points.tolist(), np.asfortranarray(points)):
        got = kmeans(same, 3, seed=4)
        assert got.labels.tolist() == expected.labels.tolist()
        assert got.inertia == expected.inertia
    for bad in ([np.zeros(2), np.zeros(3)], np.zeros(4), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError):
            kmeans(bad, k=2, seed=0)


@pytest.mark.parametrize("restarts, max_iters", [(0, 100), (-1, 100), (3, 0), (3, -2)])
def test_kmeans_rejects_fewer_than_one_restart_or_iteration(restarts, max_iters):
    points = [np.array([0.0, 0.0]), np.array([5.0, 5.0]), np.array([5.0, 6.0])]
    with pytest.raises(ValueError, match="restarts and max_iters"):
        kmeans(points, k=2, seed=0, restarts=restarts, max_iters=max_iters)
    assert kmeans(points, k=2, seed=0, restarts=1, max_iters=1) is not None


# Seeded k-means inputs: a sparse non-negative 300x128 case like one topic's
# hashed tf-idf sentences, near ties far from the origin, duplicate rows and
# small 384-dim inputs. Prints one digest of labels, centroid bytes and
# inertia per case.
_KMEANS_DIGESTS = """
import hashlib
import numpy as np
from treesum.tree import kmeans

def cases():
    rng = np.random.default_rng(77)
    sparse = np.zeros((300, 128))
    for row in sparse:
        cols = rng.choice(128, size=int(rng.integers(3, 12)), replace=False)
        row[cols] = rng.random(len(cols))
    yield sparse, 3
    centers = rng.normal(size=(3, 8))
    yield 1e6 + 0.03 * (centers[rng.integers(0, 3, size=30)] + 0.3 * rng.normal(size=(30, 8))), 3
    yield rng.normal(size=(5, 4))[rng.integers(0, 5, size=30)], 3
    for n in (5, 7, 10):
        yield np.round(rng.normal(size=(n, 384)), 4), 2

for points, k in cases():
    result = kmeans(list(points), k, seed=5)
    digest = hashlib.sha256()
    digest.update(result.labels.astype(np.int64).tobytes())
    digest.update(result.centroids.tobytes())
    digest.update(np.float64(result.inertia).tobytes())
    print(digest.hexdigest())
"""


@pytest.mark.skipif(
    not blas_kernels_selectable(),
    reason="OPENBLAS_CORETYPE selects kernels of OpenBLAS with DYNAMIC_ARCH on x86-64 only",
)
@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_kmeans_does_not_depend_on_blas_kernel(coretype):
    """BLAS enters k-means only through the Gram screen, whose bound holds
    for any summation order, so another kernel gives the same bytes."""
    src = os.path.dirname(os.path.dirname(treesum.__file__))
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _KMEANS_DIGESTS], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        exec(_KMEANS_DIGESTS, {})
    assert len(here.getvalue().split()) == 6
    assert result.stdout == here.getvalue()


def _assert_partition_property(tree: ClassTree):
    for node in tree.nodes.values():
        if not node.children:
            continue
        child_members = [set(c.members) for c in node.children]
        union = set().union(*child_members)
        assert union == set(node.members)
        total = sum(len(m) for m in child_members)
        assert total == len(node.members)  # disjointness
        for child in node.children:
            assert child.layer == node.layer + 1
            assert child.size >= 1


def _matrix(vectors):
    return np.array(vectors, dtype=float)


def test_single_item_tree_is_root_only():
    tree = build_class_tree(_matrix([(1.0, 2.0)]), k_first=3, k_rest=2, max_nodes=10, seed=0)
    assert tree.node_count == 1
    assert tree.root.layer == 1
    assert tree.traversal_order == (0,)


def test_three_separated_pairs_build_ten_nodes():
    # Three tight pairs far apart: layer 2 holds the three pairs, layer 3
    # splits each pair into singletons, which cannot divide further.
    vectors = [
        (0.0, 0.0), (0.0, 0.3),
        (50.0, 0.0), (50.0, 0.3),
        (0.0, 50.0), (0.3, 50.0),
    ]
    tree = build_class_tree(_matrix(vectors), k_first=3, k_rest=2, max_nodes=100, seed=1)
    assert tree.node_count == 10
    layer2 = [n for n in tree.nodes.values() if n.layer == 2]
    layer3 = [n for n in tree.nodes.values() if n.layer == 3]
    assert sorted(n.size for n in layer2) == [2, 2, 2]
    assert sorted(n.size for n in layer3) == [1] * 6
    _assert_partition_property(tree)


def test_max_nodes_one_keeps_root_only():
    vectors = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)]
    tree = build_class_tree(_matrix(vectors), k_first=3, k_rest=2, max_nodes=1, seed=0)
    assert tree.node_count == 1


def test_traversal_order_sorts_by_layer_then_size():
    # 5 points: one cluster of 3 and one of 2, well separated.
    vectors = [(0.0, 0.0), (0.1, 0.0), (0.0, 0.1), (30.0, 30.0), (30.1, 30.0)]
    tree = build_class_tree(_matrix(vectors), k_first=2, k_rest=2, max_nodes=3, seed=2)
    order = [tree.node(i) for i in tree.traversal_order]
    assert order[0].node_id == 0  # root first
    assert [n.layer for n in order] == sorted(n.layer for n in order)
    layer2 = [n for n in order if n.layer == 2]
    assert [n.size for n in layer2] == [3, 2]


def test_tree_determinism():
    rng = np.random.default_rng(21)
    vectors = [tuple(rng.normal(size=2)) for _ in range(9)]
    a = build_class_tree(_matrix(vectors), 3, 2, 20, seed=77)
    b = build_class_tree(_matrix(vectors), 3, 2, 20, seed=77)
    names = [f"k{i}" for i in range(len(vectors))]
    assert tree_to_dict(a, names) == tree_to_dict(b, names)


def test_tree_to_dict_renders_the_members_of_document_and_sentence_trees():
    """A document tree and a sentence tree of one synthetic topic, with the
    node ids, layers, member keys and children of an earlier release that
    built its trees over key -> vector maps."""
    topic, vectors = random_synthetic_topic(np.random.default_rng(9), "t9")
    record = TopicWork(topic, embed_with_vectors(make_corpus(topic), vectors))
    doc_names = [document_key("t9", d.doc_index) for d in topic.documents]
    sent_names = [
        sentence_key("t9", d.doc_index, s.sent_index) for d in topic.documents for s in d.sentences
    ]
    doc_tree = tree_to_dict(build_class_tree(record.documents, 2, 2, 20, seed=5), doc_names)
    sent_tree = tree_to_dict(build_class_tree(record.sentences, 3, 2, 6, seed=5), sent_names)

    def compact(dump):
        for position, node in enumerate(dump["nodes"]):
            assert (node["size"], node["traversal_position"]) == (len(node["members"]), position)
        return dump["node_count"], [
            (n["node_id"], n["layer"], n["members"], n["children"]) for n in dump["nodes"]
        ]

    d = [f"t9/d{i}" for i in range(6)]
    assert compact(doc_tree) == (11, [
        (0, 1, d, [1, 2]),
        (1, 2, d[0:3], [3, 4]),
        (2, 2, d[3:6], [5, 6]),
        (3, 3, [d[0], d[2]], [7, 8]),
        (5, 3, [d[4], d[5]], [9, 10]),
        (4, 3, [d[1]], []),
        (6, 3, [d[3]], []),
        (7, 4, [d[0]], []),
        (8, 4, [d[2]], []),
        (9, 4, [d[4]], []),
        (10, 4, [d[5]], []),
    ])
    s = {f"{i}.{j}": f"t9/d{i}/s{j}" for i in range(6) for j in range(4)}
    d3, d5 = [s[f"3.{j}"] for j in range(4)], [s[f"5.{j}"] for j in range(4)]
    assert compact(sent_tree) == (6, [
        (0, 1, [s["0.0"], s["1.0"], s["1.1"], s["2.0"], s["2.1"], *d3, s["4.0"], *d5], [1, 2, 3]),
        (1, 2, [*d3, s["4.0"], *d5], [4, 5]),
        (2, 2, [s["0.0"], s["2.0"], s["2.1"]], []),
        (3, 2, [s["1.0"], s["1.1"]], []),
        (4, 3, [s["4.0"], *d5], []),
        (5, 3, d3, []),
    ])


def test_condition2_bound_random_trees():
    rng = np.random.default_rng(3)
    for trial in range(60):
        n = int(rng.integers(1, 14))
        vectors = [tuple(rng.normal(size=2) * 5) for _ in range(n)]
        k_first = int(rng.integers(2, 5))
        k_rest = 2
        max_nodes = int(rng.integers(1, 12))
        tree = build_class_tree(_matrix(vectors), k_first, k_rest, max_nodes, seed=trial)
        assert tree.node_count <= max_nodes + max(k_first, k_rest) - 1
        _assert_partition_property(tree)


def _tree_cases(rng):
    """Seeded (points, k_first, k_rest, max_nodes, seed): normal rows, and
    integer rows with many duplicates, so that some nodes of exactly k rows
    hold equal rows."""
    for trial in range(90):
        n = int(rng.integers(2, 25))
        dim = int(rng.integers(1, 4))
        if trial % 2:
            points = rng.integers(0, 2, size=(n, dim)).astype(float)
        else:
            points = rng.normal(size=(n, dim))
        k_first, k_rest = (int(k) for k in rng.integers(2, 4, size=2))
        for max_nodes in (2, 5, 9, 1000):
            yield points, k_first, k_rest, max_nodes, trial


def _tree_nodes(tree: ClassTree):
    return tree.node_count, tree.traversal_order, [
        (node_id, node.layer, node.members, [c.node_id for c in node.children])
        for node_id, node in sorted(tree.nodes.items())
    ]


def test_class_tree_equals_one_kmeans_call_per_node():
    """Nodes of exactly k rows split without a ``kmeans`` call, node for
    node as the call splits them: into singletons in member order, and not
    at all where the rows are not distinct."""
    rng = np.random.default_rng(2204)
    k_member_splits = k_member_leaves = 0
    for points, k_first, k_rest, max_nodes, seed in _tree_cases(rng):
        expected = kmeans_class_tree(points, k_first, k_rest, max_nodes, seed)
        got = build_class_tree(points, k_first, k_rest, max_nodes, seed)
        assert _tree_nodes(got) == _tree_nodes(expected), (points, k_first, k_rest, max_nodes)
        if max_nodes == 1000:  # every node was offered a split
            for node in expected.nodes.values():
                if node.size == (k_first if node.layer == 1 else k_rest):
                    k_member_splits += bool(node.children)
                    k_member_leaves += not node.children
    assert k_member_splits >= 20 and k_member_leaves >= 20, (k_member_splits, k_member_leaves)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_class_tree_rejects_non_finite_rows_of_a_k_member_root(bad):
    """A root of exactly k rows still raises the ValueError ``kmeans``
    raises on a non-finite component."""
    points = np.array([[0.5, 1.0], [2.0, bad]])
    with pytest.raises(ValueError, match="finite"):
        build_class_tree(points, k_first=2, k_rest=2, max_nodes=10, seed=0)


def _no_kmeans(monkeypatch):
    import treesum.tree as tree

    def refused(*args, **kwargs):
        raise AssertionError("kmeans called")

    monkeypatch.setattr(tree, "kmeans", refused)


def test_split_rows_of_k_distinct_rows_are_the_kmeans_split_without_the_call(monkeypatch):
    """Exactly k distinct rows give singletons in member order, which is
    ``label_groups`` of the ``kmeans`` labels, and make no ``kmeans`` call."""
    rng = np.random.default_rng(2901)
    cases = []
    for trial in range(60):
        k = int(rng.integers(2, 6))
        points = rng.normal(size=(int(rng.integers(k, 3 * k)), int(rng.integers(1, 4))))
        members = tuple(sorted(rng.choice(len(points), size=k, replace=False).tolist()))
        result = kmeans(points[list(members)], k, seed=trial)
        cases.append((points, members, k, trial, label_groups(members, result.labels)))
    _no_kmeans(monkeypatch)
    for points, members, k, seed, expected in cases:
        assert split_rows(points, members, k, seed) == expected == [(m,) for m in members]


def test_split_rows_of_k_rows_with_a_duplicate_is_empty_without_the_call(monkeypatch):
    """``-0.0`` equals ``0.0``, as in ``np.unique``."""
    _no_kmeans(monkeypatch)
    points = np.array([[0.0, 1.0], [2.0, 3.0], [0.0, 1.0], [-0.0, 1.0], [5.0, 5.0]])
    assert split_rows(points, (0, 1, 2), 3, seed=0) == []
    assert split_rows(points, (2, 3), 2, seed=0) == []


def test_derive_seed_is_stable_and_label_sensitive():
    assert derive_seed(7, "topic:a") == derive_seed(7, "topic:a")
    assert derive_seed(7, "topic:a") != derive_seed(7, "topic:b")
    assert derive_seed(7, "topic:a") != derive_seed(8, "topic:a")

"""k-means behavior and class-tree construction invariants."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import brute_force_min_inertia, scalar_refine_labels
from treesum.tree import (
    ClassTree,
    _has_k_distinct_rows,
    _lloyd,
    _refine_labels,
    _sq_dists,
    build_class_tree,
    default_max_nodes,
    derive_seed,
    estimate_sentence_budget,
    kmeans,
    tree_to_dict,
)


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
    # A NaN coordinate: every delta it touches is NaN and never a move.
    points = rng.normal(size=(12, 3))
    points[4, 1] = np.nan
    yield points, 3
    # Sentence scale: one topic's 300 sentence vectors split three ways.
    yield rng.normal(size=(300, 128)), 3


def _start_labels(rng, points, k):
    """Lloyd's own result, a noisier start, and one with a singleton cluster."""
    n = len(points)
    lloyd = None
    if np.isfinite(points).all():
        lloyd = _lloyd(points, k, np.random.default_rng([int(rng.integers(1 << 30))]), 100)
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


def test_refine_labels_matches_scalar_oracle():
    rng = np.random.default_rng(1979)
    cases = 0
    for points, k in _refine_cases(rng):
        for labels in _start_labels(rng, points, k):
            expected = scalar_refine_labels(points, labels, k)
            got = _refine_labels(points, labels, k)
            assert np.array_equal(got, expected), (points.shape, k)
            cases += 1
    assert cases > 200
    # Long move paths over sparse non-negative vectors, like hashed tf-idf
    # sentences: each move refreshes two of k columns and leaves the rest.
    for n, k in ((150, 2), (190, 3), (240, 4), (300, 5)):
        points, labels = _sparse_long_path_case(rng, n, k)
        expected = scalar_refine_labels(points, labels, k)
        assert np.count_nonzero(expected != labels) >= 20
        assert np.array_equal(_refine_labels(points, labels, k), expected), (n, k)
    # A sweep cap cuts the path short in both.
    expected = scalar_refine_labels(points, labels, k, max_sweeps=4)
    assert np.count_nonzero(expected != labels) == 4
    assert np.array_equal(_refine_labels(points, labels, k, max_sweeps=4), expected)


def _sparse_long_path_case(rng, n, k):
    """Sparse non-negative 128-dim points and Lloyd labels with 30 scrambled."""
    points = np.zeros((n, 128))
    for row in points:
        cols = rng.choice(128, size=int(rng.integers(3, 12)), replace=False)
        row[cols] = rng.random(len(cols))
    labels = _lloyd(points, k, np.random.default_rng([n, k]), 100)
    labels[rng.choice(n, 30, replace=False)] = rng.integers(0, k, size=30)
    return points, labels


def test_lloyd_distance_columns_equal_broadcast_form_bytewise():
    rng = np.random.default_rng(2003)
    for n, dim, k in ((7, 1, 2), (40, 3, 3), (120, 9, 4), (300, 128, 3), (10, 384, 2), (33, 200, 5)):
        points = rng.normal(size=(n, dim)) * rng.uniform(0.1, 10.0)
        centroids = points[rng.choice(n, k, replace=False)] + rng.normal(size=(k, dim)) * 0.01
        broadcast = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        columns = np.stack([_sq_dists(points, c) for c in centroids], axis=1)
        assert columns.tobytes() == broadcast.tobytes(), (n, dim, k)


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


def test_kmeans_validates_arguments():
    with pytest.raises(ValueError):
        kmeans([np.zeros(2)], k=1, seed=0)
    with pytest.raises(ValueError):
        kmeans([], k=2, seed=0)


def _assert_partition_property(tree: ClassTree):
    for node in tree.nodes.values():
        if not node.children:
            continue
        child_members = [set(c.member_keys) for c in node.children]
        union = set().union(*child_members)
        assert union == set(node.member_keys)
        total = sum(len(m) for m in child_members)
        assert total == len(node.member_keys)  # disjointness
        for child in node.children:
            assert child.layer == node.layer + 1
            assert child.size >= 1


def _items(vectors):
    return [(f"k{i}", np.asarray(v, dtype=float)) for i, v in enumerate(vectors)]


def test_single_item_tree_is_root_only():
    tree = build_class_tree(_items([(1.0, 2.0)]), k_first=3, k_rest=2, max_nodes=10, seed=0)
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
    tree = build_class_tree(_items(vectors), k_first=3, k_rest=2, max_nodes=100, seed=1)
    assert tree.node_count == 10
    layer2 = [n for n in tree.nodes.values() if n.layer == 2]
    layer3 = [n for n in tree.nodes.values() if n.layer == 3]
    assert sorted(n.size for n in layer2) == [2, 2, 2]
    assert sorted(n.size for n in layer3) == [1] * 6
    _assert_partition_property(tree)


def test_max_nodes_one_keeps_root_only():
    vectors = [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)]
    tree = build_class_tree(_items(vectors), k_first=3, k_rest=2, max_nodes=1, seed=0)
    assert tree.node_count == 1


def test_traversal_order_sorts_by_layer_then_size():
    # 5 points: one cluster of 3 and one of 2, well separated.
    vectors = [(0.0, 0.0), (0.1, 0.0), (0.0, 0.1), (30.0, 30.0), (30.1, 30.0)]
    tree = build_class_tree(_items(vectors), k_first=2, k_rest=2, max_nodes=3, seed=2)
    order = [tree.node(i) for i in tree.traversal_order]
    assert order[0].node_id == 0  # root first
    assert [n.layer for n in order] == sorted(n.layer for n in order)
    layer2 = [n for n in order if n.layer == 2]
    assert [n.size for n in layer2] == [3, 2]


def test_tree_determinism():
    rng = np.random.default_rng(21)
    vectors = [tuple(rng.normal(size=2)) for _ in range(9)]
    a = build_class_tree(_items(vectors), 3, 2, 20, seed=77)
    b = build_class_tree(_items(vectors), 3, 2, 20, seed=77)
    assert tree_to_dict(a) == tree_to_dict(b)


def test_condition2_bound_random_trees():
    rng = np.random.default_rng(3)
    for trial in range(60):
        n = int(rng.integers(1, 14))
        vectors = [tuple(rng.normal(size=2) * 5) for _ in range(n)]
        k_first = int(rng.integers(2, 5))
        k_rest = 2
        max_nodes = int(rng.integers(1, 12))
        tree = build_class_tree(_items(vectors), k_first, k_rest, max_nodes, seed=trial)
        assert tree.node_count <= max_nodes + max(k_first, k_rest) - 1
        _assert_partition_property(tree)


def test_estimate_sentence_budget():
    # Budget of 118 words over 25.38-word sentences.
    assert estimate_sentence_budget(118, 25.38) == pytest.approx(4.65, abs=0.01)
    # Budget of 100 words over 25.43-word sentences.
    assert estimate_sentence_budget(100, 25.43) == pytest.approx(3.93, abs=0.01)
    assert estimate_sentence_budget(100, 25) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        estimate_sentence_budget(0, 10)
    with pytest.raises(ValueError):
        estimate_sentence_budget(10, -1)


def test_default_max_nodes_ceils():
    assert default_max_nodes(118, 25.38) == 5
    assert default_max_nodes(100, 25) == 4
    assert default_max_nodes(1, 100) == 1


def test_derive_seed_is_stable_and_label_sensitive():
    assert derive_seed(7, "topic:a") == derive_seed(7, "topic:a")
    assert derive_seed(7, "topic:a") != derive_seed(7, "topic:b")
    assert derive_seed(7, "topic:a") != derive_seed(8, "topic:a")

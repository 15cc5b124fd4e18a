"""k-means behavior and class-tree construction invariants."""

from __future__ import annotations

import contextlib
import io
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import treesum
from helpers import (
    brute_force_min_inertia,
    difference_form_lloyd,
    embed_with_vectors,
    make_corpus,
    random_synthetic_topic,
    scalar_refine_labels,
)
from treesum.embedding import document_key, sentence_key
from treesum.tree import (
    ClassTree,
    _cluster_means,
    _gram_dists,
    _gram_error_bound,
    _has_k_distinct_rows,
    _kmeans_pp_init,
    _lloyd,
    _refine_labels,
    _sq_dists,
    _sq_norms,
    build_class_tree,
    default_max_nodes,
    derive_seed,
    estimate_sentence_budget,
    kmeans,
    tree_to_dict,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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


def _overflow_band_points(rng, dim):
    """5-8 points of norm 0.85e154 to 1.3e154 in 1-3 dims: every |x|^2 is
    finite, but ``2 x.c`` overflows for the larger centroids, so some Gram
    distances are -inf while others stay finite. Their spread keeps the
    k-means++ weights finite."""
    n = int(rng.integers(5, 9))
    scale = rng.choice([0.85, 1.0, 1.3], size=(n, 1))
    return 1e154 / np.sqrt(dim) * scale * (1.0 + 1e-3 * rng.normal(size=(n, dim)))


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
    # Duplicate rows: equal deltas, so the first in row order must win.
    for dim in (2, 8):
        pool = rng.normal(size=(6, dim))
        yield pool[rng.integers(0, 6, size=30)], 3
    # Deltas of about 1e-12, on both sides of the move threshold.
    for dim in (3, 16):
        yield rng.normal(size=(30, dim)) * 3e-7, 3
    # Huge rows: 1e150 keeps the bound finite; around 1e154 it overflows
    # (|x|^2 is inf) and every row goes to the difference form.
    yield rng.normal(size=(20, 8)) * 1e150, 3
    yield 1e154 * (1.0 + 1e-4 * rng.normal(size=(20, 8))), 3
    # |x|^2 finite, some Gram terms not: the bound must overflow too.
    for dim in (1, 2, 3):
        for k in (2, 3):
            yield _overflow_band_points(rng, dim), k
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
    lloyd = None
    if np.isfinite(points).all():
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


def _refine(points, labels, k, **kwargs):
    """``_refine_labels`` from the labels' own centroids; checks that the
    centroids it returns are those of its labels, byte for byte."""
    got, centroids = _refine_labels(points, labels, _cluster_means(points, labels, k), **kwargs)
    assert centroids.tobytes() == _cluster_means(points, got, k).tobytes()
    return got


@np.errstate(over="ignore", invalid="ignore")
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
        expected = scalar_refine_labels(points, labels, k)
        assert np.count_nonzero(expected != labels) >= 20
        assert np.array_equal(_refine(points, labels, k), expected), (n, k)
    # A sweep cap cuts the path short in both.
    expected = scalar_refine_labels(points, labels, k, max_sweeps=4)
    assert np.count_nonzero(expected != labels) == 4
    assert np.array_equal(_refine(points, labels, k, max_sweeps=4), expected)


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


def _overflow_band_refine_case(rng, dim):
    """Labels under which the Gram screen of the first sweep sees -inf.

    Along one direction, a point at 1.2e154 sits in the cluster near 0 and a
    point at 0 in the cluster near 1.3e154. The first point's Gram distance
    to the far centroid overflows to -inf; the second point's row is finite
    and holds the better move, which the first sweep must apply.
    """
    t = np.array([0.0, 0.02, 0.04, 1.2, 1.3, 1.3, 1.31, 1.29, 0.0])
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1])
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    points = 1e154 * (t[:, None] * direction + 1e-3 * rng.normal(size=(len(t), dim)))
    order = rng.permutation(len(t))
    return points[order], labels[order], 2


def test_refine_labels_decides_where_gram_form_overflows():
    rng = np.random.default_rng(154)
    for dim in (1, 2, 3):
        for _ in range(5):
            points, labels, k = _overflow_band_refine_case(rng, dim)
            sq_norms = _sq_norms(points)
            gram, _ = _gram_dists(_cluster_means(points, labels, k), points, sq_norms)
            assert np.isfinite(sq_norms).all() and np.isneginf(gram).any()
            for sweeps in (1, 200):
                expected = scalar_refine_labels(points, labels, k, max_sweeps=sweeps)
                assert np.array_equal(_refine(points, labels, k, max_sweeps=sweeps), expected), (dim, sweeps)


def test_gram_error_bound_overflows_with_the_gram_form():
    """Wherever a Gram distance is not finite, the bound is not either, so
    no overflowed entry can decide a label or drop a row."""
    rng = np.random.default_rng(308)
    overflowed = 0
    for _ in range(2000):
        dim = int(rng.integers(1, 6))
        scale = 10.0 ** rng.uniform(153.5, 154.3) / np.sqrt(dim)
        points = rng.uniform(-1.0, 1.0, size=(6, dim)) * scale
        centers = rng.uniform(-1.0, 1.0, size=(3, dim)) * scale
        sq_norms = _sq_norms(points)
        gram, center_sq = _gram_dists(centers, points, sq_norms)
        if not np.isfinite(gram).all():
            overflowed += 1
            assert not np.isfinite(_gram_error_bound(dim, float(sq_norms.max()), center_sq))
    assert overflowed > 200


def _sparse_long_path_case(rng, n, k):
    """Sparse non-negative 128-dim points and Lloyd labels with 30 scrambled."""
    points = np.zeros((n, 128))
    for row in points:
        cols = rng.choice(128, size=int(rng.integers(3, 12)), replace=False)
        row[cols] = rng.random(len(cols))
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
    yield 1e154 * (1.0 + 1e-4 * rng.normal(size=(20, 8))), 3
    for dim in (1, 2, 3):
        for _ in range(4):
            yield _overflow_band_points(rng, dim), int(rng.integers(2, 4))
    yield rng.normal(size=(16, 4)) * 1e-310, 2
    for _ in range(20):
        # Points a little off a large offset: the Gram form's rounding is
        # about the size of the gaps between distances.
        centers = rng.normal(size=(3, 8))
        yield 1e6 + 0.03 * (centers[rng.integers(0, 3, size=30)] + 0.3 * rng.normal(size=(30, 8))), 3


def test_lloyd_matches_difference_form_oracle():
    rng = np.random.default_rng(1979)
    gram_differs = 0
    for points, k in _lloyd_cases(rng):
        seed = int(rng.integers(1 << 30))
        expected = difference_form_lloyd(points, k, np.random.default_rng(seed), 100)
        got = _lloyd(points, k, np.random.default_rng(seed), 100)
        if expected is None:
            assert got is None
            continue
        labels, centroids = got
        assert np.array_equal(labels, expected), (points.shape, k)
        assert centroids.tobytes() == _cluster_means(points, labels, k).tobytes()
        exact = _sq_dists(points, centroids).argmin(axis=1)
        gram_differs += not np.array_equal(_gram_form_dists(points, centroids).argmin(axis=1), exact)
    assert gram_differs >= 3


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


def test_kmeans_pp_seeds_where_squared_distances_sum_past_the_float_range():
    """The seeds drawn are those drawn for the same points scaled by 2^-512,
    whose weights are the same up to that exact factor and sum finitely."""
    rng = np.random.default_rng(154)
    for trial in range(20):
        points = _overflowing_sum_points(rng)
        k = int(rng.integers(2, 5))
        got = _kmeans_pp_init(points, k, np.random.default_rng(trial))
        scaled = _kmeans_pp_init(np.ldexp(points, -512), k, np.random.default_rng(trial))
        assert got.tobytes() == np.ldexp(scaled, 512).tobytes()


def test_kmeans_splits_points_whose_squared_distances_sum_past_the_float_range():
    rng = np.random.default_rng(1300)
    for trial in range(10):
        points = _overflowing_sum_points(rng)
        for k in (2, 3):
            result = kmeans(points, k, seed=trial)
            assert result is not None
            assert sorted(set(result.labels.tolist())) == list(range(k))


def test_kmeans_validates_arguments():
    with pytest.raises(ValueError):
        kmeans([np.zeros(2)], k=1, seed=0)
    with pytest.raises(ValueError):
        kmeans([], k=2, seed=0)


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


def _numpy_uses_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return False
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64") or not _numpy_uses_openblas(),
    reason="OPENBLAS_CORETYPE selects OpenBLAS kernels on x86-64 only",
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
    record = embed_with_vectors(make_corpus(topic), vectors).topic_vectors(topic)
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

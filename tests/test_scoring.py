"""Score formulas: hand-computed cases, bounds and ranking properties."""

from __future__ import annotations

import math

import numpy as np
import pytest

from treesum.scoring import (
    Hyperparams,
    NodeCentroids,
    node_centroids,
    score_cs,
    score_final,
    score_nr,
    score_position,
)


def unit_at_cosine(reference: np.ndarray, target_cos: float) -> np.ndarray:
    """A unit vector whose cosine with ``reference`` is exactly ``target_cos``."""
    ref = reference / np.linalg.norm(reference)
    # Any unit vector orthogonal to ref.
    probe = np.zeros_like(ref)
    probe[int(np.argmin(np.abs(ref)))] = 1.0
    ortho = probe - np.dot(probe, ref) * ref
    ortho = ortho / np.linalg.norm(ortho)
    return target_cos * ref + math.sqrt(1.0 - target_cos**2) * ortho


def test_hyperparams_defaults_and_validation():
    hp = Hyperparams()
    assert (hp.delta, hp.alpha, hp.beta, hp.gamma, hp.k_first) == (0.9, 0.8, 0.1, 0.1, 3)
    with pytest.raises(ValueError):
        Hyperparams(alpha=0.5, beta=0.5, gamma=0.5)
    with pytest.raises(ValueError):
        Hyperparams(delta=1.5)
    with pytest.raises(ValueError):
        Hyperparams(k_first=1)


def test_node_centroids_full_universe_has_no_outside():
    universe = np.array([[1.0, 0.0], [0.0, 1.0]])
    cents = node_centroids(universe, np.array([0, 1]))
    np.testing.assert_allclose(cents.inside, [0.5, 0.5])
    assert cents.outside is None


def test_node_centroids_with_complement():
    universe = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    cents = node_centroids(universe, np.array([0, 1]))
    np.testing.assert_allclose(cents.inside, [0.5, 0.5])
    np.testing.assert_allclose(cents.outside, [1.0, 1.0])


def test_node_centroids_singleton():
    universe = np.array([[2.0, 3.0], [0.0, 1.0]])
    cents = node_centroids(universe, np.array([0]))
    np.testing.assert_allclose(cents.inside, [2.0, 3.0])


def test_node_centroids_without_members_raises():
    with pytest.raises(ValueError, match="no members"):
        node_centroids(np.ones((3, 2)), np.array([], dtype=np.intp))


def test_node_centroids_equal_means_of_member_and_other_rows_bitwise():
    rng = np.random.default_rng(64)
    for _ in range(50):
        universe = rng.normal(size=(int(rng.integers(2, 12)), 5)) * 10.0 ** rng.integers(-3, 4)
        n = len(universe)
        members = np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
        others = [i for i in range(n) if i not in set(members.tolist())]
        cents = node_centroids(universe, members)
        assert cents.inside.tobytes() == np.stack([universe[i] for i in members]).mean(axis=0).tobytes()
        assert cents.outside.tobytes() == np.stack([universe[i] for i in others]).mean(axis=0).tobytes()


def test_score_cs_delta_one_parallel():
    inside = np.array([2.0, 0.0])
    cents = NodeCentroids(inside=inside, outside=np.array([0.0, 1.0]))
    assert score_cs(np.array([4.0, 0.0]), cents, delta=1.0) == pytest.approx(1.0)


def test_score_cs_hand_computed():
    # sim(s, inside) = 0.8 and sim(s, outside) = 0.3:
    # 0.9*0.8 + 0.1*(1 - 0.3) = 0.79
    inside = np.array([1.0, 0.0, 0.0])
    s = unit_at_cosine(inside, 0.8)
    outside = unit_at_cosine(s, 0.3)
    cents = NodeCentroids(inside=inside, outside=outside)
    assert score_cs(s, cents, delta=0.9) == pytest.approx(0.79, abs=1e-9)


def test_score_cs_root_uses_constant_outside_term():
    # With no complement: 0.9*0.5 + 0.1*1 = 0.55
    inside = np.array([1.0, 0.0])
    s = unit_at_cosine(inside, 0.5)
    cents = NodeCentroids(inside=inside, outside=None)
    assert score_cs(s, cents, delta=0.9) == pytest.approx(0.55, abs=1e-9)


def test_score_cs_clamps_negative_similarity():
    cents = NodeCentroids(inside=np.array([1.0, 0.0]), outside=np.array([1.0, 0.0]))
    value = score_cs(np.array([-1.0, 0.0]), cents, delta=0.5)
    # Both cosines are -1, clamped to 0: 0.5*0 + 0.5*(1-0) = 0.5.
    assert value == pytest.approx(0.5)


def test_score_nr_empty_selection_is_one():
    assert score_nr(np.array([1.0, 0.0]), []) == 1.0


def test_score_nr_identical_vector_is_zero():
    v = np.array([0.3, 0.4])
    assert score_nr(v, [np.array([3.0, 4.0])]) == pytest.approx(0.0)


def test_score_nr_uses_max_similarity():
    # Similarities to the selected set are 0.2 and 0.6 -> 1 - 0.6 = 0.4.
    s = np.array([1.0, 0.0, 0.0])
    selected = [unit_at_cosine(s, 0.2), unit_at_cosine(s, 0.6)]
    assert score_nr(s, selected) == pytest.approx(0.4, abs=1e-9)


def test_score_nr_non_increasing_as_selection_grows():
    rng = np.random.default_rng(0)
    s = rng.normal(size=4)
    selected = []
    previous = score_nr(s, selected)
    for _ in range(6):
        selected.append(rng.normal(size=4))
        current = score_nr(s, selected)
        assert current <= previous + 1e-12
        previous = current


def test_score_position_values():
    assert score_position(1, 8) == pytest.approx(math.exp(-0.5), abs=1e-4)  # 0.6065
    assert score_position(1, 1) == 0.5  # exp(-1) < 0.5 floor
    assert score_position(100, 27) == 0.5
    with pytest.raises(ValueError):
        score_position(0, 5)


def test_score_position_first_sentence_is_max():
    for count in (1, 2, 5, 30):
        scores = [score_position(p, count) for p in range(1, count + 1)]
        assert scores[0] == max(scores)
        assert all(a >= b for a, b in zip(scores, scores[1:]))


def test_score_final_alpha_one_is_pure_cs():
    hp = Hyperparams(alpha=1.0, beta=0.0, gamma=0.0)
    assert score_final(0.7, 0.1, 0.9, hp) == pytest.approx(0.7)


def test_score_final_hand_computed():
    hp = Hyperparams()
    value = score_final(0.79, 1.0, math.exp(-0.5), hp)
    assert value == pytest.approx(0.79265, abs=1e-5)


def test_score_final_all_ones():
    assert score_final(1.0, 1.0, 1.0, Hyperparams()) == pytest.approx(1.0)


def test_score_bounds_random_inputs():
    rng = np.random.default_rng(12)
    for _ in range(300):
        dim = int(rng.integers(2, 6))
        s = rng.normal(size=dim)
        inside = rng.normal(size=dim)
        outside = rng.normal(size=dim) if rng.random() < 0.8 else None
        delta = float(rng.random())
        cs = score_cs(s, NodeCentroids(inside=inside, outside=outside), delta)
        assert 0.0 <= cs <= 1.0
        nr = score_nr(s, [rng.normal(size=dim) for _ in range(int(rng.integers(0, 4)))])
        assert 0.0 <= nr <= 1.0
        pos = score_position(int(rng.integers(1, 50)), int(rng.integers(1, 50)))
        assert 0.5 <= pos < 1.0


def test_root_ranking_independent_of_delta():
    # With no outside centroid the delta-weighted constant shifts every
    # sentence equally, so the ranking only depends on inside similarity.
    rng = np.random.default_rng(4)
    inside = rng.normal(size=5)
    sentences = [rng.normal(size=5) for _ in range(10)]
    cents = NodeCentroids(inside=inside, outside=None)
    for delta in (0.1, 0.5, 0.9):
        base = [score_cs(s, cents, 1.0) for s in sentences]
        other = [score_cs(s, cents, delta) for s in sentences]
        assert np.argsort(base).tolist() == np.argsort(other).tolist()

"""Acceptance suite: one test per release criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL line for
every criterion. Each test prints its verdict before asserting, so the
verdict is visible even when a criterion fails.
"""

from __future__ import annotations

import math
import os
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    brute_force_min_inertia,
    cs_only,
    embed_with_vectors,
    make_corpus,
    make_topic,
    random_synthetic_topic,
    summary_keys,
    tree_and_context,
)
from test_selection import _fixture_embedded, _fixture_tree, _three_cluster_embedded
from treesum.embedding import embed_corpus, provider_builtin_tfidf
from treesum.experiments import full_grid, simplex_triples
from treesum.pipeline import resolve_max_nodes, summarize_corpus
from treesum.rouge import TokenMemo, evaluate_corpus, score_all
from treesum.scoring import Hyperparams, NodeCentroids, score_cs, score_final, score_nr, score_position
from treesum.selection import Budget, select_summary
from treesum.stem import porter_stem
from treesum.tree import build_class_tree, kmeans, tree_to_dict
from treesum.variants import TopicWork, VariantSpec

DATA = Path(__file__).parent / "data"


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


# --- criterion 1: score bounds on randomized inputs -------------------------

def test_score_bounds_suite():
    rng = np.random.default_rng(20240501)
    start = time.time()
    violations = 0
    checks = 0
    for _ in range(10_000):
        dim = int(rng.integers(2, 8))
        s = rng.normal(size=dim) * rng.uniform(0.1, 10)
        inside = rng.normal(size=dim) * rng.uniform(0.1, 10)
        outside = rng.normal(size=dim) * rng.uniform(0.1, 10) if rng.random() < 0.85 else None
        delta = float(rng.random())
        hp_weights = rng.dirichlet(np.ones(3))
        hp = Hyperparams(delta=delta, alpha=hp_weights[0], beta=hp_weights[1], gamma=hp_weights[2])
        selected = [rng.normal(size=dim) for _ in range(int(rng.integers(0, 4)))]

        cs = score_cs(s, NodeCentroids(inside=inside, outside=outside), delta)
        nr = score_nr(s, selected)
        pos = score_position(int(rng.integers(1, 200)), int(rng.integers(1, 200)))
        final = score_final(cs, nr, pos, hp)

        checks += 1
        if not (0.0 <= cs <= 1.0 and 0.0 <= nr <= 1.0 and 0.0 <= final <= 1.0):
            violations += 1
        if not (0.5 <= pos < 1.0):
            violations += 1
    elapsed = time.time() - start
    _verdict(
        "score-bounds",
        violations == 0 and elapsed < 10.0,
        f"{checks} randomized inputs, {violations} violations, {elapsed:.1f}s",
    )


# --- criterion 2: direct formula re-evaluation oracle -----------------------

def _py_cos(a, b):
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def _clamp01(x):
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def _oracle_cs(s, inside, outside, delta):
    term_in = _clamp01(_py_cos(s, inside))
    term_out = 1.0 if outside is None else 1.0 - _clamp01(_py_cos(s, outside))
    return _clamp01(delta * term_in + (1.0 - delta) * term_out)


def _oracle_nr(s, selected):
    if not selected:
        return 1.0
    return 1.0 - max(_clamp01(_py_cos(s, p)) for p in selected)


def _oracle_position(position, doc_len):
    return max(0.5, math.exp(-position / doc_len ** (1.0 / 3.0)))


def test_formula_oracle():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1_000):
        dim = int(rng.integers(2, 7))
        s = list(rng.normal(size=dim))
        inside = list(rng.normal(size=dim))
        outside = list(rng.normal(size=dim)) if rng.random() < 0.8 else None
        delta = float(rng.random())
        weights = rng.dirichlet(np.ones(3))
        hp = Hyperparams(delta=delta, alpha=weights[0], beta=weights[1], gamma=weights[2])
        selected = [list(rng.normal(size=dim)) for _ in range(int(rng.integers(0, 4)))]
        position = int(rng.integers(1, 60))
        doc_len = int(rng.integers(1, 60))

        cents = NodeCentroids(
            inside=np.array(inside), outside=None if outside is None else np.array(outside)
        )
        got_cs = score_cs(np.array(s), cents, delta)
        got_nr = score_nr(np.array(s), [np.array(p) for p in selected])
        got_pos = score_position(position, doc_len)
        got_final = score_final(got_cs, got_nr, got_pos, hp)

        exp_cs = _oracle_cs(s, inside, outside, delta)
        exp_nr = _oracle_nr(s, selected)
        exp_pos = _oracle_position(position, doc_len)
        exp_final = hp.alpha * exp_cs + hp.beta * exp_nr + hp.gamma * exp_pos

        worst = max(
            worst,
            abs(got_cs - exp_cs),
            abs(got_nr - exp_nr),
            abs(got_pos - exp_pos),
            abs(got_final - exp_final),
        )
    _verdict("formula-oracle", worst <= 1e-9, f"max deviation {worst:.2e} over 1000 inputs")


# --- criterion 3: k-means vs exhaustive-partition optimum -------------------

def test_kmeans_oracle():
    rng = np.random.default_rng(2024)
    start = time.time()
    hits = 0
    total = 0
    for trial in range(150):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(2, 4))
        points = rng.normal(size=(n, 2)) * rng.uniform(0.5, 3.0)
        result = kmeans(list(points), k, seed=trial, restarts=3)
        assert result is not None
        optimum = brute_force_min_inertia(points, k)
        total += 1
        if result.inertia <= optimum * 1.0 + 1e-9:
            hits += 1
    elapsed = time.time() - start
    rate = hits / total
    _verdict(
        "kmeans-oracle",
        rate >= 0.95 and elapsed < 30.0,
        f"observed optimality rate {rate:.3f} ({hits}/{total}), {elapsed:.1f}s",
    )


# --- criterion 4: class-tree invariants on random topics --------------------

def _check_tree_invariants(tree, max_nodes, k_max):
    for node in tree.nodes.values():
        if node.children:
            members = [set(c.members) for c in node.children]
            union = set().union(*members)
            if union != set(node.members):
                return "children do not cover parent"
            if sum(len(m) for m in members) != len(node.members):
                return "children overlap"
            if any(c.layer != node.layer + 1 for c in node.children):
                return "layer monotonicity broken"
        if node.size < 1:
            return "empty node"
    layers = [tree.nodes[i].layer for i in tree.traversal_order]
    if layers != sorted(layers):
        return "traversal not layer-ascending"
    if tree.node_count > max_nodes + k_max - 1:
        return "node-count bound exceeded"
    return None


def test_tree_invariants_random_topics():
    rng = np.random.default_rng(555)
    failures = []
    for trial in range(200):
        topic, vectors = random_synthetic_topic(rng, f"t{trial}")
        embedded = embed_with_vectors(make_corpus(topic), vectors)
        documents = TopicWork(topic, embedded).documents
        k_first = int(rng.integers(2, 5))
        k_rest = int(rng.integers(2, 4))
        max_nodes = int(rng.integers(1, 14))
        seed = int(rng.integers(0, 10_000))
        tree = build_class_tree(documents, k_first, k_rest, max_nodes, seed)
        problem = _check_tree_invariants(tree, max_nodes, max(k_first, k_rest))
        if problem:
            failures.append((trial, problem))
            continue
        again = build_class_tree(documents, k_first, k_rest, max_nodes, seed)
        names = [f"d{i}" for i in range(len(documents))]
        if tree_to_dict(tree, names) != tree_to_dict(again, names):
            failures.append((trial, "not deterministic"))
    _verdict("tree-invariants", not failures, f"200 random topics, failures: {failures[:3]}")


# --- criterion 5: selection protocol on constructed fixtures ----------------

def test_selection_protocol_fixture():
    topic, embedded = _fixture_embedded()
    tree, ctx = _fixture_tree(embedded, topic)
    summary = select_summary(ctx, cs_only(Hyperparams()), Budget("words", 12))
    keys = summary_keys("fix", summary)
    ok = (
        keys == ["fix/d0/s1", "fix/d1/s1", "fix/d4/s0"]
        and [s.node_id for s in summary.sentences] == list(tree.traversal_order)
        and len(set(keys)) == len(keys)
    )
    # Budget semantics: the third sentence crosses the 12-word budget when
    # the limit is 10; it is kept and the overshoot is below one sentence.
    crossing = select_summary(ctx, cs_only(Hyperparams()), Budget("words", 10))
    consumed = sum(s.sent.text.count(" ") + 1 for s in crossing.sentences)
    ok = ok and len(crossing.sentences) == 3 and consumed >= 10 and consumed - 10 < 4

    # Three separated clusters: root pick plus one per cluster node, nodes
    # of equal size visited in lowest-document-index order.
    topic3, embedded3 = _three_cluster_embedded()
    tree3, ctx3 = tree_and_context(topic3, embedded3, 3, 2, 4, seed=9)
    summary3 = select_summary(ctx3, cs_only(Hyperparams()), Budget("words", 16))
    keys3 = summary_keys("tri", summary3)
    ok = ok and keys3 == ["tri/d0/s1", "tri/d1/s1", "tri/d2/s0", "tri/d4/s0"]
    ok = ok and [s.node_id for s in summary3.sentences] == list(tree3.traversal_order)
    _verdict("selection-protocol", ok, f"golden keys {keys} / {keys3}")


# --- criterion 6: ROUGE correctness ------------------------------------------

ROUGE_FIXTURES = [
    # (metric, stemmed, candidate, references, expected (recall, precision, f1))
    ("r1", False, "the cat sat", ["the cat sat"], (1.0, 1.0, 1.0)),
    ("r1", False, "the cat sat", ["the cat slept"], (2 / 3, 2 / 3, 2 / 3)),
    ("r2", False, "the cat sat", ["the cat slept"], (0.5, 0.5, 0.5)),
    ("r1", False, "a a a b", ["a b b"], (2 / 3, 0.5, 4 / 7)),
    ("r1", True, "the cats are running", ["the cat runs"], (1.0, 0.75, 6 / 7)),
    ("r1", False, "a b", ["a b", "c d"], (0.5, 0.5, 0.5)),
    ("r1", False, "", ["a b"], (0.0, 0.0, 0.0)),
    ("rl", True, "a b c d", ["a c b d"], (0.75, 0.75, 0.75)),
    ("rl", True, "w1 w2. w3 w4.", ["w1 w3. w2 w4."], (1.0, 1.0, 1.0)),
    ("rl", True, "aa bb cc", ["dd ee ff"], (0.0, 0.0, 0.0)),
    ("rsu4", True, "a b c", ["a c"], (1.0, 0.5, 2 / 3)),
    ("rsu4", True, "alpha beta", ["alpha beta"], (1.0, 1.0, 1.0)),
    # candidate counts: 6 unigrams + 15 in-window skip-bigrams = 21;
    # reference counts: u(a), u(f), sb(a,f) = 3; overlap 3.
    ("rsu4", True, "a b c d e f", ["a f"], (1.0, 1 / 7, 0.25)),
]


@lru_cache(maxsize=None)
def _lcs_brute(a: tuple, b: tuple) -> int:
    if not a or not b:
        return 0
    if a[-1] == b[-1]:
        return 1 + _lcs_brute(a[:-1], b[:-1])
    return max(_lcs_brute(a[:-1], b), _lcs_brute(a, b[:-1]))


def test_rouge_correctness():
    problems = []
    for i, (metric, stemmed, cand, refs, expected) in enumerate(ROUGE_FIXTURES):
        got = score_all(cand, list(refs), [metric], TokenMemo(stem=stemmed))[metric]
        for name, got_v, exp_v in zip(("recall", "precision", "f1"), (got.recall, got.precision, got.f1), expected):
            if abs(got_v - exp_v) > 1e-6:
                problems.append(f"fixture {i} {name}: got {got_v:.8f}, expected {exp_v:.8f}")

    # LCS oracle on 500 random short strings.
    rng = np.random.default_rng(31337)
    vocab = list("abcd")
    for _ in range(500):
        cand_tokens = [vocab[int(rng.integers(4))] for _ in range(int(rng.integers(1, 13)))]
        ref_tokens = [vocab[int(rng.integers(4))] for _ in range(int(rng.integers(1, 13)))]
        lcs = _lcs_brute(tuple(cand_tokens), tuple(ref_tokens))
        got = score_all(" ".join(cand_tokens), [" ".join(ref_tokens)], ["rl"], TokenMemo(stem=False))["rl"]
        if abs(got.recall - lcs / len(ref_tokens)) > 1e-9:
            problems.append(f"lcs oracle recall mismatch on {cand_tokens} vs {ref_tokens}")
            break

    # Porter stemmer vs the frozen cross-verified vector file.
    words = (DATA / "porter_vocabulary.txt").read_text().splitlines()
    stems = (DATA / "porter_output.txt").read_text().splitlines()
    bad = sum(1 for w, s in zip(words, stems) if porter_stem(w) != s)
    if bad:
        problems.append(f"porter: {bad} mismatches out of {len(words)}")

    _verdict(
        "rouge-correctness",
        not problems,
        f"{len(ROUGE_FIXTURES)} fixtures, 500 LCS strings, {len(words)} stems; "
        + (problems[0] if problems else "all matched"),
    )


# --- criterion 7: ablation direction on a planted-structure corpus ----------

def planted_cluster_corpus(n_topics: int = 50, seed: int = 123):
    """Topics with one fact common to all documents and one fact per planted
    document cluster; the reference summary is exactly those four facts."""
    rng = np.random.default_rng(seed)
    topics = []
    for t in range(n_topics):
        def words(tag, n=6):
            return " ".join(f"{tag}{rng.integers(0, 10**6)}x{i}" for i in range(n))

        common = words(f"t{t}com") + "."
        cluster_facts = [words(f"t{t}cl{c}") + "." for c in range(3)]
        docs = []
        for c in range(3):
            for d in range(3):
                filler = words(f"t{t}c{c}d{d}f") + "."
                docs.append(f"{common} {cluster_facts[c]} {filler}")
        reference = " ".join([common] + cluster_facts)
        topics.append(make_topic(f"topic{t}", docs, [reference]))
    return make_corpus(*topics)


def test_ablation_direction_synthetic():
    start = time.time()
    corpus = planted_cluster_corpus()
    embedded = embed_corpus(corpus, provider_builtin_tfidf(corpus, dim=512, seed=7))
    budget = Budget("words", 24)
    hp = Hyperparams()
    cap = resolve_max_nodes(corpus, budget, None)

    means = {}
    for method in ("ours_cs", "comp1", "comp3"):
        spec = VariantSpec(method, hp, budget, seed=11)
        summaries = summarize_corpus(corpus, embedded, spec, cap)
        report = evaluate_corpus(
            {tid: s.text for tid, s in summaries.items()}, corpus, budget, metrics=["r1"]
        )
        means[method] = report.mean["r1"].recall
    elapsed = time.time() - start
    ok = means["ours_cs"] > means["comp1"] and means["ours_cs"] > means["comp3"] and elapsed < 120
    _verdict(
        "ablation-direction",
        ok,
        f"mean R-1 recall ours_cs {means['ours_cs']:.4f} vs comp1 {means['comp1']:.4f} "
        f"and comp3 {means['comp3']:.4f}; {elapsed:.1f}s",
    )


# --- criterion 8: hyperparameter grid ----------------------------------------

def test_hyperparameter_grid():
    triples = simplex_triples(0.1)
    grid = full_grid()
    tuned_optimum = Hyperparams(delta=0.9, alpha=0.8, beta=0.1, gamma=0.1, k_first=3)
    ok = len(triples) == 66 and len(grid) == 11 * 66 * 3 == 2178 and tuned_optimum in grid
    _verdict(
        "hyperparameter-grid",
        ok,
        f"{len(grid)} configurations, optimum member: {tuned_optimum in grid}",
    )


# --- optional: real-data check, only when data and an encoder are supplied --

@pytest.mark.skipif(
    not (os.environ.get("TREESUM_MULTINEWS_JSONL") and os.environ.get("TREESUM_EMBED_ENDPOINT")),
    reason="set TREESUM_MULTINEWS_JSONL and TREESUM_EMBED_ENDPOINT to run the real-data check",
)
def test_optional_multinews_sample():
    from treesum.corpus import load_corpus
    from treesum.embedding import provider_remote

    corpus = load_corpus(os.environ["TREESUM_MULTINEWS_JSONL"], "jsonl")
    sample = make_corpus(*corpus.topics[:100])
    embedded = embed_corpus(sample, provider_remote(os.environ["TREESUM_EMBED_ENDPOINT"]))
    budget = Budget("words", 264)
    spec = VariantSpec("ours_final", Hyperparams(), budget, seed=0)
    cap = resolve_max_nodes(sample, budget, None)
    summaries = summarize_corpus(sample, embedded, spec, cap, workers=4)
    report = evaluate_corpus(
        {tid: s.text for tid, s in summaries.items()}, sample, budget,
        metrics=["r1"], report_kind="f1",
    )
    f1 = report.mean["r1"].f1
    _verdict("multinews-sample", abs(f1 - 0.4404) <= 0.03, f"R-1 F1 {f1:.4f} vs 0.4404 +/- 0.03")

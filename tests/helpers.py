"""Shared fixtures and independent oracles used across the test suite."""

from __future__ import annotations

import hashlib
import math
import platform
import re
from collections import Counter
from dataclasses import replace
from typing import Mapping, Sequence

import numpy as np

from treesum.corpus import (
    Corpus,
    CorpusError,
    Document,
    Sentence,
    Topic,
    _is_abbreviation,
    segment_sentences,
)
from treesum.embedding import EmbeddedCorpus, embed_corpus, sentence_key, topic_keys
from treesum.rouge import RougeScore, _average, _prf
from treesum.scoring import Hyperparams
from treesum.stem import porter_stem
from treesum.tree import ClassTree, ClassTreeNode, _kmeans_pp_indices, derive_seed, kmeans, label_groups
from treesum.variants import CS_ONLY, TopicWork


def blas_kernels_selectable() -> bool:
    """Whether ``OPENBLAS_CORETYPE`` picks numpy's BLAS kernel: OpenBLAS
    built with ``DYNAMIC_ARCH`` on x86-64."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return False
    return "openblas" in str(blas.get("name", "")).lower() and "DYNAMIC_ARCH" in str(
        blas.get("openblas configuration", "")
    )


def make_document(doc_id: str, doc_index: int, text: str) -> Document:
    sentences = segment_sentences(text)
    if not sentences:
        raise CorpusError(f"fixture document {doc_id!r} has no sentences")
    return Document(doc_id=doc_id, doc_index=doc_index, sentences=tuple(sentences))


def make_topic(topic_id: str, doc_texts: Sequence[str], references: Sequence[str] = ()) -> Topic:
    docs = tuple(make_document(f"doc{i}", i, text) for i, text in enumerate(doc_texts))
    return Topic(topic_id=topic_id, documents=docs, references=tuple(references))


def make_corpus(*topics: Topic) -> Corpus:
    return Corpus(topics=tuple(topics))


class DictProvider:
    """Embedding provider backed by an explicit key -> vector mapping.

    Vectors are returned as given, so a test can hand ``embed_corpus``
    arrays, plain lists or malformed values.
    """

    def __init__(self, vectors: Mapping[str, object]):
        self._vectors = dict(vectors)

    def embed(self, topic):
        return [self._vectors[k] for k in topic_keys(topic)]


def embed_with_vectors(corpus: Corpus, vectors: Mapping[str, Sequence[float]]) -> EmbeddedCorpus:
    return embed_corpus(corpus, DictProvider(vectors))


def tree_and_context(topic: Topic, embedded: EmbeddedCorpus, k_first: int, k_rest: int, max_nodes: int, seed: int):
    """The class tree over a topic's documents and its selection context,
    both from ``TopicWork`` as the CLI builds them; the arguments are
    ``build_class_tree``'s."""
    work = TopicWork(topic, embedded.vectors[topic.topic_id])
    ctx = work.context("tree", "documents", k_first, k_rest, max_nodes, seed)
    return ctx.tree, ctx


def cs_only(hp: Hyperparams) -> Hyperparams:
    """``hp`` with the weights the cs-only methods pin, (alpha, beta, gamma)
    = (1, 0, 0)."""
    return replace(hp, **CS_ONLY)


def skey(topic_id: str, doc_index: int, sent_index: int) -> str:
    return sentence_key(topic_id, doc_index, sent_index)


def summary_keys(topic_id: str, summary) -> list[str]:
    """The sentence key of each summary sentence, in summary order."""
    return [skey(topic_id, s.doc.doc_index, s.sent.sent_index) for s in summary.sentences]


def reference_cosine(a, b) -> float:
    """The cosine arithmetic written out in one piece with 1-D ``np.dot`` and
    ``np.linalg.norm``: each vector divided by its largest absolute component,
    0.0 for a zero vector. The oracle for ``embedding.cosine_rows``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    scale_a = float(np.max(np.abs(a)))
    scale_b = float(np.max(np.abs(b)))
    if scale_a == 0.0 or scale_b == 0.0:
        return 0.0
    a = a / scale_a
    b = b / scale_b
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def loop_tfidf_vectors(corpus: Corpus, dim: int, seed: int) -> dict[str, np.ndarray]:
    """Reference builtin embedder, one sentence vector at a time.

    The per-sentence form of ``treesum.embedding.BuiltinTfidfProvider``:
    each token is hashed by a fresh keyed blake2b, each ``tf * idf`` weight
    is added into the sentence's zero vector in ``Counter`` order, and the
    vector is divided by its 1-D ``np.linalg.norm`` (e1 when that is 0).
    The provider must give exactly the same bits for every sentence key.
    """
    token_re = re.compile(r"[a-z0-9]+")
    seed_bytes = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    vectors: dict[str, np.ndarray] = {}
    for topic in corpus:
        df: Counter[str] = Counter()
        for doc in topic.documents:
            df.update({tok for s in doc.sentences for tok in token_re.findall(s.text.lower())})
        n_docs = len(topic.documents)
        idf = {tok: math.log((1 + n_docs) / (1 + count)) + 1.0 for tok, count in df.items()}
        for doc in topic.documents:
            for sent in doc.sentences:
                vec = np.zeros(dim)
                for tok, tf in Counter(token_re.findall(sent.text.lower())).items():
                    digest = hashlib.blake2b(tok.encode("utf-8"), digest_size=8, key=seed_bytes).digest()
                    vec[int.from_bytes(digest, "little") % dim] += tf * idf[tok]
                norm = float(np.linalg.norm(vec))
                if norm == 0.0:
                    vec = np.zeros(dim)
                    vec[0] = 1.0
                else:
                    vec = vec / norm
                vectors[skey(topic.topic_id, doc.doc_index, sent.sent_index)] = vec
    return vectors


def count_words(text: str) -> int:
    """Number of maximal whitespace-delimited tokens in ``text``."""
    return len(text.split())


def _token_before(text: str, idx: int) -> str:
    """The run of non-whitespace characters immediately before ``text[idx]``."""
    j = idx
    while j > 0 and not text[j - 1].isspace():
        j -= 1
    return text[j:idx]


def loop_segment_sentences(document_text: str) -> list[Sentence]:
    """The per-character form of ``treesum.corpus.segment_sentences``.

    Walks the text and ends a sentence at ``.``, ``!`` or ``?`` followed by
    ``str.isspace`` whitespace or the end of input, unless the period closes
    an abbreviation, read by walking back from the period. Each span is
    split twice: once for its collapsed text, once for its word count. The
    word-split form must give exactly the same sentences.
    """
    spans: list[str] = []
    start = 0
    n = len(document_text)
    for i, ch in enumerate(document_text):
        if ch not in ".!?":
            continue
        at_end = i + 1 >= n
        if not at_end and not document_text[i + 1].isspace():
            continue
        if ch == "." and _is_abbreviation(_token_before(document_text, i)):
            continue
        spans.append(document_text[start : i + 1])
        start = i + 1
    if start < n:
        spans.append(document_text[start:])
    sentences: list[Sentence] = []
    for raw in spans:
        text = " ".join(raw.split())
        if text:
            sentences.append(
                Sentence(
                    text=text,
                    sent_index=len(sentences),
                    word_count=count_words(text),
                    byte_length=len(text.encode("utf-8")),
                )
            )
    return sentences


def restricted_growth_labelings(n: int, k: int):
    """Every partition of ``n >= 1`` points into exactly ``k`` blocks, once
    each, as a label tuple in restricted-growth form: point 0 is in block 0,
    and each next point joins a block already opened or opens the next one.
    There are S(n, k) of them (a Stirling number of the second kind), not
    the ``k ** n`` of all labelings."""
    labels = [0] * n

    def extend(i: int, opened: int):
        if n - i < k - opened:  # too few points left to open every block
            return
        if i == n:
            yield tuple(labels)
            return
        for j in range(min(opened + 1, k)):
            labels[i] = j
            yield from extend(i + 1, max(opened, j + 1))

    yield from extend(1, 1)


def brute_force_min_inertia(points: np.ndarray, k: int) -> float:
    """Exact minimum within-cluster sum of squares over all k-partitions.

    Enumerates every partition once (``restricted_growth_labelings``); only
    feasible for small inputs (n <= 8 or so). Independent of the k-means
    implementation.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    best = float("inf")
    for labels in restricted_growth_labelings(n, k):
        labels_arr = np.asarray(labels)
        total = 0.0
        for j in range(k):
            cluster = points[labels_arr == j]
            centroid = cluster.mean(axis=0)
            total += float(np.sum((cluster - centroid) ** 2))
        if total < best:
            best = total
    return best


def difference_form_lloyd(
    points: np.ndarray, k: int, rng: np.random.Generator, max_iters: int
) -> np.ndarray | None:
    """Reference Lloyd iterations: every distance in the difference form.

    The form of ``treesum.tree._lloyd`` before the Gram screen: each
    iteration builds the whole (n, k) matrix of ``sum((x - c) ** 2)``
    columns and takes its row ``argmin``; an empty cluster takes the point
    farthest from its centroid in a cluster that can spare one. The
    screened version must return exactly the same labels.
    """
    n = points.shape[0]
    seeds = _kmeans_pp_indices(n, k, rng, lambda i: np.sum((points - points[i]) ** 2, axis=1))
    centroids = points[list(seeds)]
    labels = np.full(n, -1)
    dists = np.empty((n, k))
    for _ in range(max_iters):
        for j in range(k):
            dists[:, j] = np.sum((points - centroids[j]) ** 2, axis=1)
        new_labels = dists.argmin(axis=1)
        counts = np.bincount(new_labels, minlength=k)
        for j in np.flatnonzero(counts == 0):
            donors = np.flatnonzero(counts[new_labels] > 1)
            if donors.size == 0:
                return None
            point_dists = dists[donors, new_labels[donors]]
            donor = donors[int(point_dists.argmax())]
            counts[new_labels[donor]] -= 1
            new_labels[donor] = j
            counts[j] += 1
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        centroids = np.stack([points[labels == j].mean(axis=0) for j in range(k)])
    if np.bincount(labels, minlength=k).min() == 0:
        return None
    return labels


def broadcast_sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) squared distances of every point to every centroid in the
    broadcast (n, k, d) form. Each entry reduces the same ``d`` contiguous
    values as the scalar ``np.sum((points[i] - centroids[j]) ** 2)``, and
    equals it bit for bit."""
    return np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)


def scalar_refine_labels(
    points: np.ndarray, labels: np.ndarray, k: int, max_sweeps: int | None = None
) -> np.ndarray:
    """Reference single-point refinement: one scalar delta per (point, cluster).

    The original loop form of ``treesum.tree._refine_restarts``. Each sweep
    walks points, then clusters, in order and keeps the first move whose
    delta is strictly below the best seen so far (starting at -1e-12), then
    applies that one move. The vectorized version must return exactly the
    same labels. Each sweep takes its distances from one
    ``broadcast_sq_dists`` call, whose entries are the scalar
    ``np.sum((points[i] - centroids[j]) ** 2)``. At most ``max_sweeps``
    moves are made, by default ``n * k``, the guard ``_refine_restarts``
    keeps.
    """
    labels = labels.copy()
    for _ in range(len(points) * k if max_sweeps is None else max_sweeps):
        counts = np.bincount(labels, minlength=k).astype(float)
        centroids = np.stack([points[labels == j].mean(axis=0) for j in range(k)])
        dists = broadcast_sq_dists(points, centroids).tolist()
        best_move = None
        best_delta = -1e-12
        for i in range(len(points)):
            s = int(labels[i])
            if counts[s] <= 1:
                continue
            loss_off = counts[s] / (counts[s] - 1.0) * dists[i][s]
            for j in range(k):
                if j == s:
                    continue
                gain_on = counts[j] / (counts[j] + 1.0) * dists[i][j]
                delta = gain_on - loss_off
                if delta < best_delta:
                    best_delta = delta
                    best_move = (i, j)
        if best_move is None:
            return labels
        labels[best_move[0]] = best_move[1]
    return labels


def array_best_move(dists: np.ndarray, labels: np.ndarray, counts: list[float]) -> tuple[int, int] | None:
    """Reference ``treesum.tree._best_move``: its earlier numpy form, one
    ``(n, k)`` delta matrix, masked with ``inf``, and its ``argmin``, which
    takes the first of exact ties and a NaN wherever there is one."""
    rows = np.arange(len(labels))
    loss = np.array([c / max(c - 1.0, 0.5) for c in counts])
    deltas = dists * np.array([c / (c + 1.0) for c in counts])
    deltas -= (loss[labels] * dists[rows, labels])[:, None]
    deltas[rows, labels] = np.inf
    if min(counts) <= 1:
        deltas[np.array(counts)[labels] <= 1] = np.inf
    best = int(deltas.argmin())
    return divmod(best, len(counts)) if deltas.flat[best] < -1e-12 else None


def reference_kmeans(
    points: np.ndarray, k: int, seed: int, restarts: int = 3, max_iters: int = 100
) -> tuple[np.ndarray, np.ndarray, float] | None:
    """Reference ``treesum.tree.kmeans`` from the reference Lloyd and
    refinement: up to three attempts of ``restarts`` restarts, each seeded
    with ``default_rng([seed, attempt, restart])``, keeping the first
    smallest inertia; the centroids are the means of the final labels.
    Returns (labels, centroids, inertia), or None when no restart of any
    attempt gives k non-empty clusters.
    """
    points = np.ascontiguousarray(points, dtype=float)
    seed &= 0xFFFFFFFFFFFFFFFF
    for attempt in range(3):
        best = None
        for restart in range(restarts):
            rng = np.random.default_rng([seed, attempt, restart])
            labels = difference_form_lloyd(points, k, rng, max_iters)
            if labels is None:
                continue
            labels = scalar_refine_labels(points, labels, k)
            centroids = np.stack([points[labels == j].mean(axis=0) for j in range(k)])
            inertia = float(np.sum((points - centroids[labels]) ** 2))
            if best is None or inertia < best[2]:
                best = (labels, centroids, inertia)
        if best is not None:
            return best
    return None


def kmeans_class_tree(points: np.ndarray, k_first: int, k_rest: int, max_nodes: int, seed: int) -> ClassTree:
    """Reference ``treesum.tree.build_class_tree``: the same layers, split
    order and ``max_nodes`` stop, with every node of two or more rows split
    by a ``kmeans`` call, a node of exactly k rows included. Arguments are
    not validated."""
    root = ClassTreeNode(node_id=0, layer=1, members=tuple(range(len(points))))
    nodes = {0: root}
    layer, k = [root], k_first
    while layer:
        next_layer = []
        for node in sorted(layer, key=lambda n: (-n.size, n.members[0])):
            if len(nodes) >= max_nodes:
                break
            if node.size < 2:
                continue
            result = kmeans(points[list(node.members)], k, seed=derive_seed(seed, f"node:{node.node_id}"))
            for group in [] if result is None else label_groups(node.members, result.labels):
                child = ClassTreeNode(node_id=len(nodes), layer=node.layer + 1, members=group)
                node.children.append(child)
                nodes[child.node_id] = child
                next_layer.append(child)
        if len(nodes) >= max_nodes:
            break
        layer, k = next_layer, k_rest
    order = sorted(nodes.values(), key=lambda n: (n.layer, -n.size, n.members[0]))
    return ClassTree(root=root, node_count=len(nodes), traversal_order=tuple(n.node_id for n in order), nodes=nodes)


_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str, stem: bool = False) -> list[str]:
    """Lowercase alphanumeric tokens, optionally Porter-stemmed: the maximal
    runs of ``_TOKEN_RE`` in the lowercased text."""
    tokens = _TOKEN_RE.findall(text.lower())
    return [porter_stem(token) for token in tokens] if stem else tokens


# --- ROUGE oracles: per-pair counting and per-pair LCS ------------------------
#
# The Counter forms of ROUGE-N and ROUGE-SU4 and a ROUGE-L that traces one
# full DP table per (reference sentence, candidate sentence) pair. They share
# only the recall/precision/F1 formulas with ``treesum.rouge``; tokens are
# made here, stemmed by the character-loop stemmer below.

def oracle_tokens(text: str, stem: bool) -> list[str]:
    tokens = re.findall(r"[a-z0-9]+", text.lower())
    return [loop_porter_stem(t) for t in tokens] if stem else tokens


def oracle_sentences(text: str, stem: bool) -> list[list[str]]:
    sentences = [oracle_tokens(s.text, stem) for s in segment_sentences(text)]
    return [s for s in sentences if s]


def _counter_ngrams(tokens: Sequence[str], n: int) -> Counter:
    if n == 1:
        return Counter(tokens)
    return Counter(zip(*(tokens[i:] for i in range(n))))


def _counter_su4(sentences: Sequence[Sequence[str]]) -> Counter:
    counts: Counter = Counter()
    for tokens in sentences:
        counts.update(tokens)
        for gap in range(1, 6):
            counts.update(zip(tokens, tokens[gap:]))
    return counts


def _clipped_overlap(cand: Counter, ref: Counter) -> int:
    return sum(min(count, ref[gram]) for gram, count in cand.items() if gram in ref)


def _counter_score(cand_counts: Counter, ref_counts: Sequence[Counter]) -> RougeScore:
    cand_total = sum(cand_counts.values())
    return _average([
        _prf(_clipped_overlap(cand_counts, ref), sum(ref.values()), cand_total) for ref in ref_counts
    ])


def counter_rouge_n(candidate: str, references: Sequence[str], n: int, stem: bool = True) -> RougeScore:
    """ROUGE-N from one ``Counter`` per text and a Python-level clipped sum."""
    return _counter_score(
        _counter_ngrams(oracle_tokens(candidate, stem), n),
        [_counter_ngrams(oracle_tokens(ref, stem), n) for ref in references],
    )


def counter_rouge_su4(candidate: str, references: Sequence[str], stem: bool = True) -> RougeScore:
    """ROUGE-SU4 from one ``Counter`` per text: a unigram keyed by its token,
    a skip-bigram by its (left, right) tuple."""
    return _counter_score(
        _counter_su4(oracle_sentences(candidate, stem)),
        [_counter_su4(oracle_sentences(ref, stem)) for ref in references],
    )


def table_rouge_l(candidate: str, references: Sequence[str], stem: bool = True) -> RougeScore:
    """Summary-level union-LCS with one ``table_lcs_match_positions`` per
    (reference sentence, candidate sentence) pair."""
    cand_sents = oracle_sentences(candidate, stem)
    cand_total = sum(len(s) for s in cand_sents)
    per_ref = []
    for reference in references:
        ref_sents = oracle_sentences(reference, stem)
        hits = 0
        for ref_sent in ref_sents:
            union: set[int] = set()
            for cand_sent in cand_sents:
                union |= table_lcs_match_positions(ref_sent, cand_sent)
            hits += len(union)
        per_ref.append(_prf(hits, sum(len(s) for s in ref_sents), cand_total))
    return _average(per_ref)


def table_lcs_match_positions(ref_tokens: Sequence[str], cand_tokens: Sequence[str]) -> set[int]:
    """Reference LCS match positions from the full DP table.

    Fill the (m+1) x (n+1) table, then walk back from the corner, taking
    the diagonal on equal tokens, going up only when the cell above is
    strictly larger than the cell to the left, and left otherwise. The
    bit-parallel ``treesum.rouge._lcs_union`` must return exactly the union
    of these positions over candidate sentences.
    """
    m, n = len(ref_tokens), len(cand_tokens)
    if m == 0 or n == 0:
        return set()
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if ref_tokens[i - 1] == cand_tokens[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    positions: set[int] = set()
    i, j = m, n
    while i > 0 and j > 0:
        if ref_tokens[i - 1] == cand_tokens[j - 1]:
            positions.add(i - 1)
            i -= 1
            j -= 1
        elif table[i - 1][j] > table[i][j - 1]:
            i -= 1
        else:
            j -= 1
    return positions


# --- Porter stemmer oracle ------------------------------------------------

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        # y is a consonant at the start of a word or after a vowel.
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel-consonant sequences in [C](VC)^m[V]."""
    i = 0
    n = len(stem)
    while i < n and _is_consonant(stem, i):
        i += 1
    m = 0
    while i < n:
        while i < n and not _is_consonant(stem, i):
            i += 1
        if i >= n:
            break
        m += 1
        while i < n and _is_consonant(stem, i):
            i += 1
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _is_consonant(word, len(word) - 1)


def _ends_cvc(word: str) -> bool:
    n = len(word)
    if n < 3:
        return False
    if not (_is_consonant(word, n - 3) and not _is_consonant(word, n - 2) and _is_consonant(word, n - 1)):
        return False
    return word[-1] not in "wxy"


def _post_ed_ing(word: str) -> str:
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _ends_double_consonant(word) and word[-1] not in "lsz":
        return word[:-1]
    if _measure(word) == 1 and _ends_cvc(word):
        return word + "e"
    return word


def _step1ab(word: str) -> str:
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith("ies"):
        word = word[:-2]
    elif word.endswith("s") and word[-2] != "s":
        word = word[:-1]

    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            word = word[:-1]
    elif word.endswith("ed") and _has_vowel(word[:-2]):
        word = _post_ed_ing(word[:-2])
    elif word.endswith("ing") and _has_vowel(word[:-3]):
        word = _post_ed_ing(word[:-3])
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


# (suffix, replacement) pairs; within each step the first matching suffix
# decides, applied only when the remaining stem's measure clears the bar.
_STEP2_RULES = (
    ("ational", "ate"), ("tional", "tion"),
    ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"),
    ("bli", "ble"),
    ("alli", "al"), ("entli", "ent"), ("eli", "e"), ("ousli", "ous"),
    ("ization", "ize"), ("ation", "ate"), ("ator", "ate"),
    ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"), ("ousness", "ous"),
    ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
    ("logi", "log"),
)

_STEP3_RULES = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"),
    ("iciti", "ic"), ("ical", "ic"), ("ful", ""), ("ness", ""),
)

_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant",
    "ement", "ment", "ent", "ion", "ou", "ism", "ate", "iti",
    "ous", "ive", "ize",
)


def _apply_rules(word: str, rules, min_measure: int) -> str:
    for suffix, replacement in rules:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if _measure(stem) > min_measure:
                return stem + replacement
            return word
    return word


def _step4(word: str) -> str:
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if suffix == "ion" and not (stem and stem[-1] in "st"):
                return word
            if _measure(stem) > 1:
                return stem
            return word
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if word.endswith("ll") and _measure(word) > 1:
        return word[:-1]
    return word


def loop_porter_stem(token: str) -> str:
    """Stem a single lowercase token; uppercase input is lowercased first.

    The character-at-a-time form of ``treesum.stem.porter_stem``: one
    ``_is_consonant`` call per character a condition reads, and each step's
    suffixes tried in table order. The table-driven form must agree on every
    token."""
    word = token.lower()
    if len(word) <= 2:
        return word
    word = _step1ab(word)
    word = _step1c(word)
    word = _apply_rules(word, _STEP2_RULES, 0)
    word = _apply_rules(word, _STEP3_RULES, 0)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word


def random_synthetic_topic(rng: np.random.Generator, topic_id: str) -> tuple[Topic, dict]:
    """A topic with random cluster structure plus hand-assigned vectors.

    Documents get vectors near one of a few random cluster centers; each
    document holds 1-4 single-sentence paragraphs so sentence keys exist.
    Returns (topic, {sentence_key or doc placement -> vector}) where sentence
    vectors are small perturbations of their document's vector.
    """
    n_clusters = int(rng.integers(1, 4))
    docs_per_cluster = [int(rng.integers(1, 4)) for _ in range(n_clusters)]
    dim = int(rng.integers(2, 6))
    centers = rng.normal(size=(n_clusters, dim)) * 10.0

    doc_texts = []
    doc_vectors = []
    for c, n_docs in enumerate(docs_per_cluster):
        for _ in range(n_docs):
            n_sents = int(rng.integers(1, 5))
            words = [f"w{int(rng.integers(0, 50))}" for _ in range(n_sents * 4)]
            text = ". ".join(
                " ".join(words[i * 4 : (i + 1) * 4]) for i in range(n_sents)
            ) + "."
            doc_texts.append(text)
            doc_vectors.append(centers[c] + rng.normal(size=dim))

    topic = make_topic(topic_id, doc_texts)
    vectors: dict[str, np.ndarray] = {}
    for doc, base in zip(topic.documents, doc_vectors):
        for sent in doc.sentences:
            vectors[skey(topic_id, doc.doc_index, sent.sent_index)] = base + 0.01 * rng.normal(
                size=base.shape
            )
    return topic, vectors


def scalar_selection(tree, topic: Topic, embedded: EmbeddedCorpus, hp, budget, scoring_mode: str):
    """Reference selection: every candidate scored one at a time.

    The per-candidate form of ``treesum.selection.select_summary``, over
    its own key -> vector maps: document vectors are the means of their
    sentence vectors, a node's centroids the means of its documents' and of
    the other documents' vectors. Each candidate of a node gets
    ``score_cs`` (and, in ``"final"`` mode, ``score_nr`` against the vectors
    selected so far, ``score_position`` and ``score_final``), and the lowest
    (-score, doc_index, sent_index) wins. Returns (sentence key, node_id,
    iteration) per pick, in pick order.
    """
    from treesum.embedding import document_key
    from treesum.scoring import NodeCentroids, score_cs, score_final, score_nr, score_position

    tid = topic.topic_id
    sent_vectors = embedded.sentence_vectors_for(topic)
    doc_vectors = {
        document_key(tid, d.doc_index): np.stack(
            [sent_vectors[skey(tid, d.doc_index, s.sent_index)] for s in d.sentences]
        ).mean(axis=0)
        for d in topic.documents
    }
    doc_keys = list(doc_vectors)
    groups = []
    for node_id in tree.traversal_order:
        docs = {doc_keys[i] for i in tree.node(node_id).members}
        members = [
            (doc, sent)
            for doc in topic.documents
            if document_key(tid, doc.doc_index) in docs
            for sent in doc.sentences
        ]
        inside = [vec for key, vec in doc_vectors.items() if key in docs]
        outside = [vec for key, vec in doc_vectors.items() if key not in docs]
        centroids = NodeCentroids(
            inside=np.stack(inside).mean(axis=0),
            outside=np.stack(outside).mean(axis=0) if outside else None,
        )
        groups.append((node_id, members, centroids))

    picks, taken, selected = [], set(), []
    consumed, iteration = 0, 1
    while True:
        picked_in_pass = False
        for node_id, members, centroids in groups:
            best, best_rank = None, None
            for doc, sent in members:
                key = skey(tid, doc.doc_index, sent.sent_index)
                if key in taken:
                    continue
                vec = sent_vectors[key]
                score = score_cs(vec, centroids, hp.delta)
                if scoring_mode == "final":
                    pos = score_position(sent.position_1based, len(doc.sentences))
                    score = score_final(score, score_nr(vec, selected), pos, hp)
                rank = (-score, doc.doc_index, sent.sent_index)
                if best_rank is None or rank < best_rank:
                    best, best_key, best_rank = sent, key, rank
            if best is None:
                continue
            taken.add(best_key)
            selected.append(sent_vectors[best_key])
            picks.append((best_key, node_id, iteration))
            consumed += budget.size_of(best)
            picked_in_pass = True
            if consumed >= budget.limit:
                return picks
        if not picked_in_pass:
            return picks
        iteration += 1

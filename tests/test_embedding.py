"""Embedding providers, document means and cosine similarity."""

from __future__ import annotations

import json
import math
import os
import platform
import re
import subprocess
import sys
import threading
import weakref
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from helpers import (
    DictProvider,
    embed_with_vectors,
    loop_tfidf_vectors,
    make_corpus,
    make_topic,
    reference_cosine,
    skey,
)
from treesum.corpus import Corpus, CorpusError, Document, Sentence, Topic
from treesum.embedding import (
    MAX_BUILTIN_DIM,
    ProviderError,
    cosine_rows,
    cosine_similarity,
    embed_corpus,
    embed_topics,
    prescale_rows,
    provider_builtin_tfidf,
    provider_file,
    provider_remote,
)
from treesum.variants import TopicWork


def test_cosine_identity_and_orthogonality():
    assert cosine_similarity(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)
    assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)


def test_cosine_hand_computed():
    # 32 / (sqrt(14) * sqrt(77))
    value = cosine_similarity(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
    assert value == pytest.approx(0.9746, abs=1e-4)


def test_cosine_zero_norm_is_zero():
    assert cosine_similarity(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0


def test_cosine_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        cosine_similarity(np.ones(2), np.ones(3))


_component = st.floats(min_value=-50, max_value=50, allow_subnormal=False)


@given(
    st.lists(_component, min_size=2, max_size=6),
    st.lists(_component, min_size=2, max_size=6),
    st.floats(min_value=0.01, max_value=100),
)
def test_cosine_symmetry_and_scale_invariance(a, b, c):
    n = min(len(a), len(b))
    va, vb = np.array(a[:n]), np.array(b[:n])
    scaled = c * va
    # Scaling must not lose precision: a component that underflows to zero
    # or to a subnormal is a different vector, not a rescaled one.
    assume(np.all(np.abs(scaled[va != 0]) >= np.finfo(float).tiny))
    assert cosine_similarity(va, vb) == pytest.approx(cosine_similarity(vb, va), abs=1e-9)
    assert cosine_similarity(scaled, vb) == pytest.approx(cosine_similarity(va, vb), abs=1e-9)


def _bits(value) -> bytes:
    """Bytes of a float or array with -0.0 folded into +0.0: the sign of a
    zero dot product is the one thing ``np.vecdot`` and 1-D ``np.dot`` may
    disagree on."""
    return (np.asarray(value, dtype=float) + 0.0).tobytes()


# Zeros (whole zero vectors included), ordinary values, and magnitudes near
# both ends of the float range, subnormals included.
_any_component = st.one_of(
    st.just(0.0),
    st.floats(min_value=-50, max_value=50),
    st.floats(min_value=1e300, max_value=1.7e308),
    st.floats(min_value=-1.7e308, max_value=-1e300),
    st.floats(min_value=-1e-300, max_value=1e-300),
)


@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(
            st.lists(_any_component, min_size=n, max_size=n),
            st.lists(_any_component, min_size=n, max_size=n),
        )
    )
)
@example(([0.0, 0.0], [1.0, 2.0]))
@example(([5e-324, 0.0], [1.7e308, -1.7e308]))
@example(([1e-310, 3e-320], [2e-320, 1e-310]))
def test_cosine_rows_matches_reference_bit_for_bit(pair):
    a, b = (np.array(v) for v in pair)
    expected = reference_cosine(a, b)
    sa, na = prescale_rows(a[None])
    sb, nb = prescale_rows(b[None])
    got = cosine_rows(sa, na, sb[0], nb[0])[0]
    assert got == expected and _bits(got) == _bits(expected)
    assert cosine_similarity(a, b) == expected
    assert _bits(cosine_similarity(a, b)) == _bits(expected)


@given(
    st.lists(_any_component, min_size=1, max_size=5),
    st.lists(_any_component, min_size=1, max_size=5),
)
def test_cosine_rows_dimension_mismatch_raises(a, b):
    assume(len(a) != len(b))
    with pytest.raises(ValueError):
        cosine_similarity(np.array(a), np.array(b))
    sa, na = prescale_rows(np.array([a, a]))
    sb, nb = prescale_rows(np.array([b]))
    with pytest.raises(ValueError):
        cosine_rows(sa, na, sb[0], nb[0])


def test_prescale_rows_keeps_zero_rows_with_norm_zero():
    scaled, norms = prescale_rows(np.array([[0.0, 0.0, 0.0, 0.0], [2.0, -4.0, 0.0, 1.0]]))
    assert scaled.tobytes() == np.array([[0.0, 0.0, 0.0, 0.0], [0.5, -1.0, 0.0, 0.25]]).tobytes()
    assert norms[0] == 0.0 and norms[1] == np.linalg.norm(scaled[1])
    assert _bits(cosine_rows(scaled, norms, scaled[1], norms[1])) == _bits([0.0, 1.0])
    assert _bits(cosine_rows(scaled, norms, scaled[0], norms[0])) == _bits([0.0, 0.0])
    with pytest.raises(ValueError, match="2-D"):
        prescale_rows(np.ones(3))


_VECDOT_VS_DOT = """
import numpy as np
rng = np.random.default_rng(3)
for d in (1, 2, 3, 5, 17, 31, 128, 384, 400):
    a = rng.standard_normal((300, d))
    b = rng.standard_normal(d)
    rows = np.vecdot(a, b)
    assert rows.tobytes() == np.array([np.dot(r, b) for r in a]).tobytes(), d
    norms = np.sqrt(np.vecdot(a, a))
    assert norms.tobytes() == np.array([np.linalg.norm(r) for r in a]).tobytes(), d
print("same")
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
def test_vecdot_equals_dot_under_other_blas_kernels(coretype):
    """The row form is exact because ``np.vecdot`` runs each row through the
    same BLAS ``ddot`` as a 1-D ``np.dot``; that must hold for whichever
    kernel OpenBLAS picks for the CPU, not just this machine's."""
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype)
    result = subprocess.run(
        [sys.executable, "-c", _VECDOT_VS_DOT], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "same"


def test_embed_corpus_without_sentences_raises_corpus_error():
    with pytest.raises(CorpusError, match="no sentences"):
        embed_corpus(Corpus(), DictProvider({}))


def test_embed_corpus_rejects_a_vector_count_other_than_the_sentence_count():
    topic = make_topic("t", ["One sentence here. Another one here."])

    class OneShort:
        def embed(self, topic):
            return [[1.0, 0.0]]

    with pytest.raises(ProviderError, match="provider returned 1 vectors for 2 sentences"):
        embed_corpus(make_corpus(topic), OneShort())


class NeverAsked:
    def embed(self, topic):
        raise AssertionError(f"the provider was asked for topic {topic.topic_id!r}")


def test_embed_corpus_rejects_a_topic_without_sentences():
    """The loaders refuse a topic without documents, but a library caller can
    build one. It is named before the provider is asked for it, by
    ``embed_corpus`` and by the per-topic draw alike, after the topics
    before it were drawn."""
    corpus = Corpus(topics=(Topic(topic_id="empty", documents=()),))
    with pytest.raises(CorpusError, match="topic 'empty' has no sentences"):
        embed_corpus(corpus, NeverAsked())
    with pytest.raises(CorpusError, match="topic 'empty' has no sentences"):
        next(embed_topics(corpus, NeverAsked()))
    first = make_topic("a", ["One sentence here."])
    topics = embed_topics(make_corpus(first, corpus.topics[0]), DictProvider({skey("a", 0, 0): [1.0, 2.0]}))
    assert next(topics).tolist() == [[1.0, 2.0]]
    with pytest.raises(CorpusError, match="topic 'empty' has no sentences"):
        next(topics)


def test_document_vector_is_mean_of_sentences():
    topic = make_topic("t", ["First point here. Second point here.", "Only one here."])
    embedded = embed_with_vectors(
        make_corpus(topic),
        {
            skey("t", 0, 0): [1.0, 0.0],
            skey("t", 0, 1): [0.0, 1.0],
            skey("t", 1, 0): [3.0, 4.0],
        },
    )
    documents = TopicWork(topic, embedded.vectors[topic.topic_id]).documents
    np.testing.assert_allclose(documents[0], [0.5, 0.5])
    # A single-sentence document's vector equals its sentence vector.
    np.testing.assert_allclose(documents[1], [3.0, 4.0])


def test_document_mean_invariant_tight():
    topic = make_topic("t", ["Alpha beta. Gamma delta. Epsilon zeta."])
    rng = np.random.default_rng(7)
    vectors = {skey("t", 0, i): rng.normal(size=8) for i in range(3)}
    embedded = embed_with_vectors(make_corpus(topic), vectors)
    mean = np.stack([vectors[skey("t", 0, i)] for i in range(3)]).mean(axis=0)
    assert np.max(np.abs(TopicWork(topic, embedded.vectors[topic.topic_id]).documents[0] - mean)) <= 1e-9


def _random_topic_vectors(seed):
    """A topic of documents with 1-7 sentences each and its 16-dim vectors."""
    rng = np.random.default_rng(seed)
    texts = [
        " ".join(f"Sentence {s} of document {d}." for s in range(int(rng.integers(1, 8))))
        for d in range(int(rng.integers(1, 9)))
    ]
    topic = make_topic("t", texts)
    vectors = {
        skey("t", doc.doc_index, sent.sent_index): rng.normal(size=16) * 10.0 ** rng.integers(-3, 4)
        for doc in topic.documents
        for sent in doc.sentences
    }
    return topic, vectors


@pytest.mark.parametrize("seed", range(20))
def test_topic_vectors_rows_follow_doc_and_sentence_order(seed):
    topic, vectors = _random_topic_vectors(seed)
    record = TopicWork(topic, embed_with_vectors(make_corpus(topic), vectors).vectors["t"])
    order = [(doc.doc_index, sent.sent_index) for doc in topic.documents for sent in doc.sentences]
    assert order == sorted(order)
    assert record.sentences.tobytes() == np.stack([vectors[skey("t", *ds)] for ds in order]).tobytes()
    assert record.doc_of_sentence.tolist() == [d for d, _ in order]


@pytest.mark.parametrize("seed", range(20))
def test_topic_document_matrix_equals_per_document_means_bitwise(seed):
    """Each document row is ``np.stack`` of the document's sentence vectors
    averaged over axis 0, the arithmetic of the per-document means."""
    topic, vectors = _random_topic_vectors(seed)
    record = TopicWork(topic, embed_with_vectors(make_corpus(topic), vectors).vectors["t"])
    means = [
        np.stack([vectors[skey("t", doc.doc_index, s.sent_index)] for s in doc.sentences]).mean(axis=0)
        for doc in topic.documents
    ]
    assert record.documents.shape == (len(topic.documents), 16)
    assert record.documents.tobytes() == np.stack(means).tobytes()


def test_dimension_mismatch_across_sentences_errors():
    topic = make_topic("t", ["First point here. Second point here."])
    provider = DictProvider({skey("t", 0, 0): [1.0, 0.0, 0.0, 0.0], skey("t", 0, 1): np.ones(8)})
    with pytest.raises(ProviderError, match="dimension mismatch"):
        embed_corpus(make_corpus(topic), provider)


def _two_topic_corpus():
    return make_corpus(
        make_topic("a", ["First point here. Second point here."]),
        make_topic("b", ["Third point here. Fourth point here.", "Fifth point here."]),
    )


@pytest.mark.parametrize(
    "bad_key, bad_vector",
    [
        (skey("b", 0, 1), [1.0, float("nan")]),
        (skey("b", 0, 1), [float("inf"), 1.0]),
        (skey("b", 0, 1), []),
        (skey("b", 0, 1), [[1.0, 0.5]]),
        (skey("b", 0, 1), ["x", 1.0]),
        (skey("b", 0, 1), [10**400, 1.0]),
        (skey("b", 0, 0), None),
    ],
    ids=["nan", "inf", "empty", "2-d", "non-numeric", "past-float-range", "dim-of-an-earlier-topic"],
)
def test_embed_corpus_names_the_key_of_a_malformed_vector(bad_key, bad_vector):
    """Each topic is checked as one array; a fault anywhere in a later topic
    is still reported with the key of its vector."""
    corpus = _two_topic_corpus()
    vectors = {
        skey(topic.topic_id, doc.doc_index, sent.sent_index): [1.0, 2.0]
        for topic in corpus
        for doc in topic.documents
        for sent in doc.sentences
    }
    if bad_vector is None:  # every vector of topic b is 3-D, topic a's are 2-D
        vectors.update({key: [1.0, 2.0, 3.0] for key in vectors if key.startswith("b/")})
    else:
        vectors[bad_key] = bad_vector
    with pytest.raises(ProviderError, match=re.escape(f"key {bad_key!r}")):
        embed_corpus(corpus, DictProvider(vectors))


def test_embed_corpus_keeps_a_float_matrix_without_a_copy():
    """A provider's float ``(n, d)`` matrix is kept as it is; rows, lists and
    integer vectors come back as one float matrix of the same values."""
    corpus = _two_topic_corpus()
    matrix = np.arange(4.0).reshape(2, 2)

    class MatrixProvider:
        def embed(self, topic):
            if topic.topic_id == "a":
                return matrix
            return [np.array([1.0, 0.0]), [3, 4], np.array([5, 6])]

    embedded = embed_corpus(corpus, MatrixProvider())
    assert embedded.vectors["a"] is matrix
    assert embedded.vectors["b"].dtype == float
    assert embedded.vectors["b"].tolist() == [[1.0, 0.0], [3.0, 4.0], [5.0, 6.0]]


def _write_records(path, records):
    path.write_text("".join(json.dumps({"key": key, "vector": list(vec)}) + "\n" for key, vec in records))


def test_file_provider_roundtrip(tmp_path):
    path = tmp_path / "vectors.jsonl"
    path.write_text(json.dumps({"key": "t1/d0/s0", "vector": [0.1, 0.2]}) + "\n")
    topic = make_topic("t1", ["Whatever."])
    provider = provider_file(path, make_corpus(topic))
    np.testing.assert_allclose(provider.embed(topic)[0], [0.1, 0.2])


def _draw_all(path, corpus):
    """Every topic of ``corpus`` drawn from a file provider, in corpus order."""
    return embed_corpus(corpus, provider_file(path, corpus))


def test_file_provider_duplicate_key(tmp_path):
    path = tmp_path / "vectors.jsonl"
    record = json.dumps({"key": "t1/d0/s0", "vector": [0.1]})
    path.write_text(record + "\n" + record + "\n")
    with pytest.raises(ProviderError, match="duplicate key"):
        _draw_all(path, make_corpus(make_topic("t1", ["Whatever."])))


@pytest.mark.parametrize(
    "line, message",
    [
        pytest.param("[" * 100000, "invalid JSON on line 1", id="deeply nested"),
        ('{"key": ["t1/d0/s0"], "vector": [0.1]}', "not a string"),
    ],
)
def test_file_provider_rejects_unusable_records(tmp_path, line, message):
    path = tmp_path / "vectors.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(ProviderError, match=message):
        _draw_all(path, make_corpus(make_topic("t1", ["Whatever."])))


def test_file_provider_missing_key(tmp_path):
    path = tmp_path / "vectors.jsonl"
    path.write_text(json.dumps({"key": "t1/d0/s0", "vector": [0.1]}) + "\n")
    topic = make_topic("t1", ["Whatever. Text."])
    provider = provider_file(path, make_corpus(topic))
    with pytest.raises(ProviderError, match="t1/d0/s1"):
        provider.embed(topic)


def _file_records(corpus, seed):
    """(key, vector) of every sentence of ``corpus`` in corpus order, 5-dim."""
    rng = np.random.default_rng(seed)
    return [(key, rng.normal(size=5)) for topic in corpus for key in _keys(topic)]


def _keys(topic):
    return [skey(topic.topic_id, doc.doc_index, sent.sent_index) for doc in topic.documents for sent in doc.sentences]


def test_file_provider_matrices_do_not_depend_on_record_order(tmp_path):
    """Shuffled records, with records for keys outside the corpus among
    them, fill the same matrices as records in corpus order."""
    corpus = _two_topic_corpus()
    records = _file_records(corpus, 3)
    _write_records(tmp_path / "ordered.jsonl", records)
    shuffled = records + [("a/d0/s9", [1.0] * 5), ("zz/d0/s0", [7.0, 8.0]), ("free text", [0.5])]
    shuffled = [shuffled[i] for i in np.random.default_rng(4).permutation(len(shuffled))]
    _write_records(tmp_path / "shuffled.jsonl", shuffled)
    ordered = provider_file(tmp_path / "ordered.jsonl", corpus)
    mixed = provider_file(tmp_path / "shuffled.jsonl", corpus)
    for topic in corpus:
        expected = np.array([vec for key, vec in records if key in _keys(topic)])
        assert ordered.embed(topic).tobytes() == expected.tobytes()
        assert mixed.embed(topic).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "extra, message",
    [
        ([("zz/d0/s0", [1.0, float("nan")])], "key 'zz/d0/s0': vector has non-finite"),
        ([("zz/d0/s0", [])], "key 'zz/d0/s0': vector must be a non-empty flat list"),
        ([("zz/d0/s0", [1.0]), ("zz/d0/s0", [1.0])], "duplicate key 'zz/d0/s0'"),
        ([("a/d0/s1", [1.0] * 5)], "duplicate key 'a/d0/s1'"),
    ],
    ids=["outside-nan", "outside-empty", "outside-duplicate", "corpus-duplicate"],
)
def test_file_provider_checks_every_record(tmp_path, extra, message):
    """A record for a key outside the corpus is checked before it is
    dropped, and a repeated key is named wherever it points."""
    corpus = _two_topic_corpus()
    _write_records(tmp_path / "vectors.jsonl", _file_records(corpus, 5) + extra)
    with pytest.raises(ProviderError, match=re.escape(message)):
        _draw_all(tmp_path / "vectors.jsonl", corpus)


def test_file_provider_names_the_first_missing_key_in_corpus_order(tmp_path):
    corpus = _two_topic_corpus()
    records = [(key, vec) for key, vec in _file_records(corpus, 6) if key not in ("b/d1/s0", "b/d0/s1")]
    _write_records(tmp_path / "vectors.jsonl", records[::-1])
    provider = provider_file(tmp_path / "vectors.jsonl", corpus)
    assert provider.embed(corpus.topics[0]).shape == (2, 5)
    with pytest.raises(ProviderError, match=re.escape("missing embedding for key 'b/d0/s1'")):
        provider.embed(corpus.topics[1])
    # A topic without a record, here one outside the provider's corpus.
    with pytest.raises(ProviderError, match=re.escape("missing embedding for key 'c/d0/s0'")):
        provider.embed(make_topic("c", ["Not in the corpus."]))


def test_file_provider_dimension_is_fixed_by_a_topics_first_record(tmp_path):
    """A vector whose dimension differs from its topic's first vector in the
    file is named with both dimensions; topics of different dimensions reach
    ``embed_corpus``, which names the first key of the later one."""
    corpus = _two_topic_corpus()
    records = _file_records(corpus, 7)
    records.insert(2, ("b/d1/s0", [1.0, 2.0]))
    records = [r for i, r in enumerate(records) if r[0] != "b/d1/s0" or i == 2]
    _write_records(tmp_path / "vectors.jsonl", records)
    with pytest.raises(ProviderError, match=re.escape("dimension mismatch: key 'b/d0/s0' has dim 5, expected 2")):
        _draw_all(tmp_path / "vectors.jsonl", corpus)
    records = [(key, vec[:3] if key.startswith("b/") else vec) for key, vec in _file_records(corpus, 7)]
    _write_records(tmp_path / "vectors.jsonl", records)
    provider = provider_file(tmp_path / "vectors.jsonl", corpus)
    with pytest.raises(ProviderError, match=re.escape("dimension mismatch: key 'b/d0/s0' has dim 3, expected 5")):
        embed_corpus(corpus, provider)


class Recording:
    """A provider that keeps every matrix ``inner`` hands out, in draw order."""

    def __init__(self, inner):
        self.inner = inner
        self.drawn = []

    def embed(self, topic):
        self.drawn.append(self.inner.embed(topic))
        return self.drawn[-1]


@pytest.mark.parametrize("embedder", ["builtin", "file"])
def test_topic_work_runs_on_the_embedded_matrix_itself(tmp_path, embedder):
    corpus = _two_topic_corpus()
    if embedder == "builtin":
        provider = Recording(provider_builtin_tfidf(corpus, dim=8, seed=1))
    else:
        _write_records(tmp_path / "vectors.jsonl", _file_records(corpus, 8))
        provider = Recording(provider_file(tmp_path / "vectors.jsonl", corpus))
    embedded = embed_corpus(corpus, provider)
    assert len(provider.drawn) == len(corpus.topics)
    for topic, matrix in zip(corpus, provider.drawn):
        assert embedded.vectors[topic.topic_id] is matrix
        assert TopicWork(topic, matrix).sentences is matrix
    assert list(embedded) == provider.drawn


def test_a_second_draw_of_a_topic_from_a_file_provider_raises(tmp_path):
    """The file provider forgets a topic once it has handed it out, so a
    second draw raises; the builtin provider keeps every topic's block and
    hands out the same array again."""
    corpus = _two_topic_corpus()
    _write_records(tmp_path / "vectors.jsonl", _file_records(corpus, 9))
    provider = provider_file(tmp_path / "vectors.jsonl", corpus)
    first = provider.embed(corpus.topics[0])
    with pytest.raises(ProviderError, match=re.escape("the vectors of topic 'a' were already drawn from")):
        provider.embed(corpus.topics[0])
    assert provider.embed(corpus.topics[1]).shape == (3, 5)
    assert first.shape == (2, 5)
    with pytest.raises(ProviderError, match="already drawn"):
        embed_corpus(corpus, provider)
    builtin = provider_builtin_tfidf(corpus, dim=8, seed=1)
    assert builtin.embed(corpus.topics[1]) is builtin.embed(corpus.topics[1])


def _three_topic_corpus():
    return make_corpus(*_two_topic_corpus().topics, make_topic("c", ["Sixth point here.", "Seventh point here."]))


def test_file_provider_reads_the_file_as_topics_are_drawn(tmp_path):
    """A draw scans only until its topic is complete, so a fault after a
    topic's records is raised by a later draw; a topic completed ahead of
    its turn is kept until it is drawn, and forgotten once handed out."""
    corpus = _three_topic_corpus()
    records = _file_records(corpus, 10)
    a, b, c = ([r for r in records if r[0].startswith(f"{tid}/")] for tid in "abc")
    path = tmp_path / "vectors.jsonl"
    path.write_text(
        "".join(json.dumps({"key": key, "vector": list(vec)}) + "\n" for key, vec in c + a)
        + "not json\n"
        + "".join(json.dumps({"key": key, "vector": list(vec)}) + "\n" for key, vec in b)
    )
    provider = provider_file(path, corpus)
    topics = embed_topics(corpus, provider)
    matrix = next(topics)
    assert matrix.tobytes() == np.array([vec for _, vec in a]).tobytes()
    gone = weakref.ref(matrix)
    del matrix
    with pytest.raises(ProviderError, match="invalid JSON on line 5 of"):
        next(topics)
    assert gone() is None  # nothing held topic a once topic b was drawn
    # Topic c completed ahead of its turn and is still there to draw.
    assert provider.embed(corpus.topics[2]).tobytes() == np.array([vec for _, vec in c]).tobytes()


def test_file_provider_reads_to_the_end_when_the_last_topic_is_drawn(tmp_path):
    corpus = _two_topic_corpus()
    path = tmp_path / "vectors.jsonl"
    _write_records(path, _file_records(corpus, 11) + [("zz/d0/s0", [1.0, float("inf")])])
    provider = provider_file(path, corpus)
    assert provider.embed(corpus.topics[0]).shape == (2, 5)
    with pytest.raises(ProviderError, match=re.escape("key 'zz/d0/s0': vector has non-finite")):
        provider.embed(corpus.topics[1])


def _open_handles(monkeypatch):
    """Every file handle ``Path.open`` returns from now on."""
    handles = []
    real_open = Path.open

    def recording_open(self, *args, **kwargs):
        handles.append(real_open(self, *args, **kwargs))
        return handles[-1]

    monkeypatch.setattr(Path, "open", recording_open)
    return handles


@pytest.mark.parametrize("stop", ["closed", "file fault", "dimension of an earlier topic", "at the end"])
def test_the_file_scan_is_closed_whenever_the_draws_stop(tmp_path, monkeypatch, stop):
    """The provider stays alive, so only an explicit close can have closed
    its file: at the end of the file, on a fault in the file, on a fault
    ``embed_topics`` finds, and when the caller closes the draws early."""
    corpus = _three_topic_corpus()
    records = _file_records(corpus, 12)
    if stop == "file fault":
        records[3] = ("b/d0/s1", [1.0])
    elif stop == "dimension of an earlier topic":
        records = [(key, vec[:3] if key.startswith("b/") else vec) for key, vec in records]
    _write_records(tmp_path / "vectors.jsonl", records)
    handles = _open_handles(monkeypatch)
    provider = provider_file(tmp_path / "vectors.jsonl", corpus)
    topics = embed_topics(corpus, provider)
    assert next(topics).shape == (2, 5)
    assert len(handles) == 1 and not handles[0].closed  # the scan stopped after topic a
    if stop == "closed":
        topics.close()
    elif stop == "at the end":
        assert [m.shape for m in topics] == [(3, 5), (2, 5)]
    else:
        with pytest.raises(ProviderError, match="dimension mismatch"):
            next(topics)
    assert handles[0].closed


@pytest.mark.parametrize("dim", [1, 0, -3, MAX_BUILTIN_DIM + 1])
def test_builtin_rejects_a_dim_out_of_range(dim):
    corpus = make_corpus(make_topic("t", ["One sentence here."]))
    with pytest.raises(ValueError, match="builtin embedder needs 2 <= dim"):
        provider_builtin_tfidf(corpus, dim=dim, seed=1)


def test_builtin_identical_sentences_identical_vectors():
    topic = make_topic("t", ["The same sentence here. The same sentence here."])
    provider = provider_builtin_tfidf(make_corpus(topic), dim=32, seed=1)
    a, b = provider.embed(topic)
    np.testing.assert_array_equal(a, b)
    assert cosine_similarity(a, b) == pytest.approx(1.0)


def test_builtin_is_bitwise_deterministic():
    corpus = make_corpus(make_topic("t", ["Words vary here. Other words there.", "Third doc text."]))
    first = provider_builtin_tfidf(corpus, dim=16, seed=42).embed(corpus.topics[0])
    second = provider_builtin_tfidf(corpus, dim=16, seed=42).embed(corpus.topics[0])
    for a, b in zip(first, second):
        assert a.tobytes() == b.tobytes()


def test_builtin_tokenless_sentence_falls_back_to_e1():
    topic = make_topic("t", ["Real words here. ???"])
    assert topic.documents[0].sentences[1].text == "???"
    provider = provider_builtin_tfidf(make_corpus(topic), dim=8, seed=0)
    vec = provider.embed(topic)[1]
    expected = np.zeros(8)
    expected[0] = 1.0
    np.testing.assert_array_equal(vec, expected)


def test_builtin_vectors_have_unit_norm():
    corpus = make_corpus(
        make_topic("t", ["Shared words appear here. Unique tokens also appear.", "Shared words again."])
    )
    provider = provider_builtin_tfidf(corpus, dim=24, seed=3)
    for vec in provider.embed(corpus.topics[0]):
        assert float(np.linalg.norm(vec)) == pytest.approx(1.0, abs=1e-9)


def _oracle_corpora():
    """A hand-made corpus whose topics share tokens, with repeated and
    digit-only tokens, token-less sentences and a topic with no token at
    all; then random corpora over a small vocabulary with the same traits."""
    corpora = [
        make_corpus(
            make_topic("a", [
                "City council votes on the 2024 budget. Vote vote VOTE! ???",
                "The 17 council members vote 17 times; 007 and 2024 again.",
                "Budget news: city vote.",
            ]),
            make_topic("b", ["City news today. The council met.", "Crews repaired the bridge bridge 007."]),
            make_topic("c", ["!!! ???", "..."]),
        )
    ]
    words = ["city", "council", "vote", "budget", "bridge", "news", "2024", "17", "007", "x9", "--"]
    rng = np.random.default_rng(11)
    for _ in range(4):
        topics = []
        for t in range(int(rng.integers(1, 4))):
            docs = [
                " ".join(
                    " ".join(rng.choice(words, size=int(rng.integers(1, 9)))) + "."
                    for _ in range(int(rng.integers(1, 6)))
                )
                for _ in range(int(rng.integers(1, 5)))
            ]
            topics.append(make_topic(f"r{t}", docs))
        corpora.append(make_corpus(*topics))
    return corpora


@pytest.mark.parametrize("seed", [0, 5, -1])
@pytest.mark.parametrize("dim", [2, 3, 7, 128])
def test_builtin_matches_per_sentence_oracle_bit_for_bit(dim, seed):
    """The per-topic matrix build gives every sentence the same bits as the
    one-vector-at-a-time loop. Dims 2 and 3 put several tokens of one
    sentence into one bucket, so the order of the sums is checked too."""
    for corpus in _oracle_corpora():
        expected = loop_tfidf_vectors(corpus, dim, seed)
        keys = list(expected)
        provider = provider_builtin_tfidf(corpus, dim, seed)
        got = [vec for topic in corpus for vec in provider.embed(topic)]
        assert [v.tobytes() for v in got] == [expected[k].tobytes() for k in keys]


@pytest.mark.parametrize("dim", [3, 128])
def test_builtin_tokenizes_non_ascii_text_like_the_oracle(dim):
    """Tokens are the ``[a-z0-9]+`` runs of the lowercased text: characters
    that lowercase to ASCII (KELVIN SIGN, dotted capital I) join tokens, and
    other letters, digits and ligatures split them."""
    corpus = make_corpus(
        make_topic("u", [
            "The \u212aelvin scale in \u0130stanbul. Na\u00efve caf\u00e9 x\u00b2y 3\u00bd \u216b.",
            "\uff21\uff42\uff43 \ufb01le \u03a3\u0391\u03a3 ok. \u00c9t\u00c9 ete ETE k.",
        ]),
    )
    expected = loop_tfidf_vectors(corpus, dim, 3)
    keys = list(expected)
    got = provider_builtin_tfidf(corpus, dim, 3).embed(corpus.topics[0])
    assert [v.tobytes() for v in got] == [expected[k].tobytes() for k in keys]


class _EmbedHandler(BaseHTTPRequestHandler):
    behavior = "ok"  # ok | short | flaky
    failures_left = 0

    def do_POST(self):
        if self.path != "/embed":
            self.send_error(404)
            return
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        texts = body["texts"]
        if type(self).behavior == "flaky" and type(self).failures_left > 0:
            type(self).failures_left -= 1
            self.send_error(503)
            return
        vectors = [[float(len(t)), 1.0] for t in texts]
        if type(self).behavior == "short":
            vectors = vectors[:-1]
        payload = json.dumps({"vectors": vectors}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def _stop(server: HTTPServer) -> None:
    """Stop a test server's loop and close its listening socket."""
    server.shutdown()
    server.server_close()


@pytest.fixture
def embed_server():
    server = HTTPServer(("127.0.0.1", 0), _EmbedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    _stop(server)


def _texts_topic(*texts):
    """A one-document topic whose sentences are exactly ``texts``."""
    sentences = tuple(Sentence(text, i, len(text.split()), len(text.encode())) for i, text in enumerate(texts))
    return Topic("t", (Document("d", 0, sentences),))


def test_remote_provider_orders_vectors(embed_server):
    _EmbedHandler.behavior = "ok"
    provider = provider_remote(embed_server, batch_size=2)
    vectors = provider.embed(_texts_topic("a", "bb", "ccc"))
    assert [v[0] for v in vectors] == [1.0, 2.0, 3.0]


def test_remote_provider_count_mismatch(embed_server):
    _EmbedHandler.behavior = "short"
    provider = provider_remote(embed_server, batch_size=4)
    with pytest.raises(ProviderError, match="returned 1 vectors for 2 texts"):
        provider.embed(_texts_topic("a", "bb"))


def test_remote_provider_retries_transient_failures(embed_server):
    _EmbedHandler.behavior = "flaky"
    _EmbedHandler.failures_left = 2
    provider = provider_remote(embed_server, batch_size=4, backoff=0.0)
    vectors = provider.embed(_texts_topic("abcd"))
    assert vectors[0][0] == 4.0


def test_remote_provider_unreachable_after_retries():
    provider = provider_remote("http://127.0.0.1:1", batch_size=2, max_attempts=2, backoff=0.0, timeout=0.2)
    with pytest.raises(ProviderError, match="after 2 attempts"):
        provider.embed(_texts_topic("text"))


def test_remote_provider_rejects_non_finite():
    class NaNHandler(_EmbedHandler):
        def do_POST(self):
            payload = json.dumps({"vectors": [[math.inf, 0.0]]}).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

    server = HTTPServer(("127.0.0.1", 0), NaNHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        provider = provider_remote(f"http://127.0.0.1:{server.server_port}")
        with pytest.raises(ProviderError, match="non-finite"):
            provider.embed(_texts_topic("text"))
    finally:
        _stop(server)


def _serve_body(status, body):
    """A server answering every POST with ``status`` and ``body``; returns
    (server, base URL)."""

    class BodyHandler(_EmbedHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            self.send_response(status)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    server = HTTPServer(("127.0.0.1", 0), BodyHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server, f"http://127.0.0.1:{server.server_port}"


_DEEP = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize(
    "body",
    [
        b"[1,2]",
        b'{"vectors": 5}',
        _DEEP,
        b'{"vectors": ' + _DEEP + b"}",
        b'{"vectors": [' + b"[" * 500 + b"1.0" + b"]" * 500 + b"]}",
        b"not json",
        b'{"vectors": [{"x": 1}]}',
        b"\xff\xfe\x00",
        b'{"vectors": [[1' + b"0" * 400 + b", 1.0]]}",
    ],
    ids=[
        "list", "vectors-number", "deep", "deep-vectors", "deep-vector", "text", "dict-vector",
        "binary", "past-float-range",
    ],
)
def test_remote_malformed_response_is_a_provider_error(tmp_path, body):
    from treesum.cli import main

    server, url = _serve_body(200, body)
    try:
        with pytest.raises(ProviderError):
            provider_remote(url, max_attempts=1).embed(_texts_topic("text"))
        (tmp_path / "corpus.jsonl").write_text(
            json.dumps({"topic_id": "t", "documents": [{"doc_id": "d", "text": "One sentence here."}]})
        )
        code = main([
            "summarize", "--input", str(tmp_path / "corpus.jsonl"), "--layout", "jsonl",
            "--embedder", f"remote:{url}", "--budget-words", "10", "--out", str(tmp_path / "out"),
        ])
        assert code == 3
    finally:
        _stop(server)


@pytest.mark.parametrize("batch_size", [0, -1])
def test_remote_provider_rejects_a_batch_size_below_1(batch_size):
    # Checked on construction, before any request is made.
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        provider_remote("http://127.0.0.1:9", batch_size=batch_size)


@pytest.mark.parametrize("url", ["localhost:8000", "file:///tmp", "ftp://127.0.0.1:1"])
def test_remote_endpoint_must_be_http(url):
    with pytest.raises(ProviderError, match="not an http"):
        provider_remote(url)


def test_remote_client_error_reports_the_start_of_the_body():
    server, url = _serve_body(400, b"bad request: " + b"x" * 500)
    try:
        with pytest.raises(ProviderError) as info:
            provider_remote(url).embed(_texts_topic("text"))
        assert str(info.value) == "embedding service returned 400: bad request: " + "x" * 187
    finally:
        _stop(server)


def test_remote_server_error_is_retried_then_reported():
    server, url = _serve_body(502, b"upstream down")
    try:
        with pytest.raises(ProviderError, match="after 2 attempts: embedding service returned 502"):
            provider_remote(url, max_attempts=2, backoff=0.0).embed(_texts_topic("text"))
    finally:
        _stop(server)

"""Sentence and document embeddings through interchangeable providers.

Every sentence gets a fixed-length vector; each document vector is the
componentwise mean of its sentences' vectors. A provider's ``embed(topic)``
gives the topic's vectors as one ``(n, d)`` matrix, a row per sentence in
(doc_index, sent_index) order. Three providers are available:

* ``provider_file``: precomputed vectors from a JSONL file, one record per
  line shaped ``{"key": "<topic_id>/d<doc_index>/s<sent_index>",
  "vector": [floats]}``. Only this format (and ``trees.json``) names
  sentences by key.
* ``provider_builtin_tfidf``: a deterministic hashed tf-idf embedder that
  keeps the whole pipeline self-contained (tests, CI, demos).
* ``provider_remote``: a client for a sidecar embedding service speaking
  ``POST <endpoint>/embed`` with body ``{"texts": [str]}`` and response
  ``{"vectors": [[float]]}``.

All providers are safe for concurrent ``embed`` calls: the first two only
read prebuilt matrices, and the remote client keeps no per-call state.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Protocol

import numpy as np

from .corpus import Corpus, CorpusError, Topic, jsonl_records, tokens

Vector = np.ndarray


class ProviderError(Exception):
    """Raised when an embedding provider cannot produce vectors."""


def sentence_key(topic_id: str, doc_index: int, sent_index: int) -> str:
    return f"{topic_id}/d{doc_index}/s{sent_index}"


def document_key(topic_id: str, doc_index: int) -> str:
    return f"{topic_id}/d{doc_index}"


def topic_keys(topic: Topic) -> list[str]:
    """The sentence key of each of ``topic``'s sentences, in (doc_index,
    sent_index) order."""
    tid = topic.topic_id
    return [sentence_key(tid, doc.doc_index, s.sent_index) for doc in topic.documents for s in doc.sentences]


class EmbeddingProvider(Protocol):
    def embed(self, topic: Topic) -> np.ndarray | list[Vector]:
        """The topic's ``(n, d)`` sentence matrix (or its rows), in (doc_index, sent_index) order."""


@dataclass
class EmbeddedCorpus:
    """A corpus together with one vector per sentence.

    ``vectors`` maps each topic id to its ``(n, d)`` sentence matrix in
    (doc_index, sent_index) order, the provider's own array if it can be.
    """

    corpus: Corpus
    vectors: dict[str, np.ndarray]
    dim: int

    def sentence_vectors_for(self, topic: Topic) -> dict[str, Vector]:
        """Ordered sentence-key -> vector map for one topic."""
        return dict(zip(topic_keys(topic), self.vectors[topic.topic_id]))


def power_of_two_scaled(values: np.ndarray) -> tuple[np.ndarray, int]:
    """``values`` times ``2**s`` and ``s``, the power of two that brings their
    largest absolute component into [0.5, 1) (0 where every component is 0).

    Scaling by a power of two is exact, bar components that underflow, so
    anything that ignores a common scale gives the same bits on the result
    whatever the scale of ``values``.
    """
    shift = -math.frexp(float(np.abs(values).max()))[1]
    return np.ldexp(values, shift), shift


def prescale_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """Each row divided by its largest absolute component, and the rows' norms.

    The rescaling keeps squaring from underflowing or overflowing for extreme
    magnitudes. A zero row stays zero with norm 0, and its cosine with
    anything is 0.0. Computing this once per matrix lets repeated
    similarities skip it. ``np.vecdot`` sums each row with the same BLAS
    ``ddot`` as ``np.linalg.norm`` of that row on its own, so every norm is
    bit-equal to the one-vector computation.
    """
    scaled = np.array(rows, dtype=float)
    if scaled.ndim != 2:
        raise ValueError(f"expected a 2-D array of rows, got shape {scaled.shape}")
    scale = np.maximum(scaled.max(axis=1), -scaled.min(axis=1))
    scale[scale == 0.0] = 1.0
    scaled /= scale[:, None]
    return scaled, np.sqrt(np.vecdot(scaled, scaled))


def cosine_rows(scaled: np.ndarray, norms: np.ndarray, b: Vector, nb: float) -> np.ndarray:
    """Cosine of every ``prescale_rows`` row with one prescaled vector ``b`` of
    norm ``nb``; 0.0 wherever either norm is 0.

    One ``np.vecdot`` over all rows gives each row the same bits as a 1-D
    ``np.dot`` with ``b`` (up to the sign of a zero). ``scaled @ b`` and
    ``(scaled * b).sum(axis=1)`` sum in other orders and do not.
    """
    denom = norms * nb
    return np.divide(np.vecdot(scaled, b), denom, out=np.zeros(denom.shape), where=denom != 0.0)


def cosine_similarity(a: Vector, b: Vector) -> float:
    """Cosine of the angle between two vectors; 0.0 when either norm is 0.

    The one-row case of ``cosine_rows``. Raises ValueError on dimension
    mismatch so shape bugs surface instead of broadcasting silently.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    sa, na = prescale_rows(a[None])
    sb, nb = prescale_rows(b[None])
    return float(cosine_rows(sa, na, sb[0], nb[0])[0])


def _as_vector(values, context: str) -> Vector:
    try:
        vec = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProviderError(f"{context}: vector is not numeric") from exc
    except OverflowError as exc:
        raise ProviderError(f"{context}: vector has a component past the float range") from exc
    if vec.ndim != 1 or vec.size == 0:
        raise ProviderError(f"{context}: vector must be a non-empty flat list")
    if not np.isfinite(vec).all():
        raise ProviderError(f"{context}: vector has non-finite components")
    return vec


class FileProvider:
    """Precomputed sentence vectors, one matrix per topic of ``corpus``.

    Every record is checked as it is read. One whose key names a sentence of
    the corpus is written into that sentence's row of its topic's matrix;
    the others are dropped. A topic's first record fixes its dimension. A
    row that no record reached holds NaN, which no checked record does.
    """

    def __init__(self, path: str | Path, corpus: Corpus):
        self._path = Path(path)
        if not self._path.is_file():
            raise ProviderError(f"embedding file {self._path} does not exist")
        place = {key: (topic, row) for topic in corpus for row, key in enumerate(topic_keys(topic))}
        self._matrices: dict[str, np.ndarray] = {}
        seen: set[str] = set()
        for line_no, record in jsonl_records(self._path, ProviderError):
            try:
                key = record["key"]
                values = record["vector"]
            except (KeyError, TypeError) as exc:
                raise ProviderError(f"malformed record on line {line_no} of {self._path}: {exc}") from exc
            if not isinstance(key, str):
                raise ProviderError(f"key on line {line_no} of {self._path} is not a string")
            if key in seen:
                raise ProviderError(f"duplicate key {key!r} in {self._path}")
            seen.add(key)
            vec = _as_vector(values, f"key {key!r}")
            if key not in place:
                continue
            topic, row = place[key]
            matrix = self._matrices.get(topic.topic_id)
            if matrix is None:
                rows = sum(len(doc.sentences) for doc in topic.documents)
                matrix = self._matrices[topic.topic_id] = np.full((rows, len(vec)), np.nan)
            elif len(vec) != matrix.shape[1]:
                raise ProviderError(f"dimension mismatch: key {key!r} has dim {len(vec)}, expected {matrix.shape[1]}")
            matrix[row] = vec

    def embed(self, topic: Topic) -> np.ndarray:
        matrix = self._matrices.get(topic.topic_id)
        missing = [0] if matrix is None else np.flatnonzero(np.isnan(matrix[:, 0]))
        if len(missing):
            raise ProviderError(f"missing embedding for key {topic_keys(topic)[missing[0]]!r}")
        return matrix


def provider_file(path: str | Path, corpus: Corpus) -> FileProvider:
    return FileProvider(path, corpus)


# The largest ``builtin:<dim>``, 128 times the largest dim in use. The
# vectors take 8 * dim bytes per sentence, 512 KiB at this ceiling.
MAX_BUILTIN_DIM = 65536


def _distinct_pairs(major: np.ndarray, minor: np.ndarray, n_minor: int):
    """The distinct ``(major, minor)`` pairs, in order of first occurrence,
    as ``(major, minor, count)`` arrays.

    A stable sort of the pair codes puts each pair's first occurrence at the
    start of its run, and the run lengths are the counts.
    """
    codes = major * n_minor + minor
    order = np.argsort(codes, kind="stable")
    starts = np.flatnonzero(np.diff(codes[order], prepend=-1))
    count = np.zeros(len(codes), np.intp)  # nonzero only at first occurrences
    count[order[starts]] = np.diff(starts, append=len(codes))
    first = np.flatnonzero(count)
    return major[first], minor[first], count[first]


class BuiltinTfidfProvider:
    """Deterministic hashed tf-idf sentence embedder.

    Tokens (``corpus.tokens``, lowercased alphanumeric runs) are hashed
    into ``dim`` buckets with a seeded hash; bucket weights are term
    frequency in the sentence times a smoothed inverse document frequency
    over the topic's documents (``ln((1+n_docs)/(1+df)) + 1``). Vectors
    are L2-normalized; a sentence with no tokens falls back to the unit
    basis vector e1. All vectors are precomputed at construction, so
    results are bitwise reproducible for a given (corpus, dim, seed).

    Each topic fills its block of one corpus matrix, a row per sentence,
    and ``embed`` returns that block.
    Each distinct token of the corpus gets one integer id, in first-seen
    order, and is hashed when it gets it. A topic's distinct (sentence,
    token) pairs come out of a stable sort in order of first occurrence,
    which is each sentence's ``Counter`` order, with their counts as tf.
    df counts the distinct (document, token) pairs. The ``(row, bucket)``
    weights ``tf * idf`` are summed in that order by one unbuffered
    ``np.add.at``, which adds them into the zero block in input order: the
    same sums as adding each weight into a zero vector one at a time.
    ``np.vecdot`` takes each row's squared norm with the same BLAS ``ddot``
    as ``np.linalg.norm`` of that row on its own, and every row is divided
    by its norm once, so the vectors are bit-equal to a per-sentence build.
    """

    def __init__(self, corpus: Corpus, dim: int, seed: int):
        if not 2 <= dim <= MAX_BUILTIN_DIM:
            raise ValueError(f"builtin embedder needs 2 <= dim <= {MAX_BUILTIN_DIM}")
        keyed = hashlib.blake2b(digest_size=8, key=(seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))
        ids: dict[bytes, int] = {}  # each distinct token of the corpus, numbered in first-seen order
        buckets: list[int] = []  # the hash bucket of each token id
        self._blocks: dict[str, np.ndarray] = {}
        # One matrix for the whole corpus, allocated before any per-topic
        # temporary, so the heap those free is not pinned under a topic's rows.
        all_rows = np.zeros((sum(len(doc.sentences) for topic in corpus for doc in topic.documents), dim))
        first_row = 0
        for topic in corpus:
            sent_tokens = [tokens(s.text) for doc in topic.documents for s in doc.sentences]
            topic_tokens = list(chain.from_iterable(sent_tokens))
            for tok in topic_tokens:
                if tok not in ids:
                    ids[tok] = len(buckets)
                    h = keyed.copy()  # the digest of a fresh keyed blake2b
                    h.update(tok)
                    buckets.append(int.from_bytes(h.digest(), "little") % dim)
            token_ids = np.fromiter(map(ids.__getitem__, topic_tokens), np.intp, len(topic_tokens))
            n_ids = len(buckets)
            rows = len(sent_tokens)
            row_of = np.repeat(np.arange(rows), [len(t) for t in sent_tokens])
            pair_row, pair_id, tf = _distinct_pairs(row_of, token_ids, n_ids)
            n_docs = len(topic.documents)
            doc_of_row = np.repeat(np.arange(n_docs), [len(doc.sentences) for doc in topic.documents])
            df = np.bincount(_distinct_pairs(doc_of_row[pair_row], pair_id, n_ids)[1], minlength=n_ids)
            # idf depends on a token only through its df, which is 1..n_docs
            idf_of_df = np.array([math.log((1 + n_docs) / (1 + count)) + 1.0 for count in range(n_docs + 1)])
            matrix = all_rows[first_row : first_row + rows]
            first_row += rows
            bucket_of = np.array(buckets, np.intp)
            np.add.at(matrix.reshape(-1), pair_row * dim + bucket_of[pair_id], tf * idf_of_df[df[pair_id]])
            norms = np.sqrt(np.vecdot(matrix, matrix))
            empty = norms == 0.0
            matrix[empty, 0] = 1.0
            norms[empty] = 1.0
            matrix /= norms[:, None]
            self._blocks[topic.topic_id] = matrix

    def embed(self, topic: Topic) -> np.ndarray:
        return self._blocks[topic.topic_id]


def provider_builtin_tfidf(corpus: Corpus, dim: int, seed: int) -> BuiltinTfidfProvider:
    return BuiltinTfidfProvider(corpus, dim, seed)


def _response_vectors(payload: bytes, expected: int) -> list[Vector]:
    """The ``vectors`` of an embedding-service response body, checked."""
    try:
        vectors = json.loads(payload)["vectors"]
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise ProviderError(f"malformed embedding response: {exc}") from exc
    if not isinstance(vectors, list):
        raise ProviderError("malformed embedding response: 'vectors' is not a list")
    if len(vectors) != expected:
        raise ProviderError(
            f"embedding service returned {len(vectors)} vectors for {expected} texts"
        )
    return [_as_vector(v, f"response vector {i}") for i, v in enumerate(vectors)]


class RemoteProvider:
    """Client for an HTTP embedding service.

    Sends sentence texts in batches and expects vectors back in request
    order. Connection failures, timeouts and 5xx responses are retried a
    bounded number of times with a short backoff. The HTTP modules (and the
    ``ssl`` and ``email`` packages they pull in) are imported on the first
    request, so runs with the other providers never load them.
    """

    def __init__(
        self,
        endpoint_url: str,
        batch_size: int = 32,
        max_attempts: int = 3,
        timeout: float = 30.0,
        backoff: float = 0.5,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        # urllib would also open file: and ftp: URLs.
        if not endpoint_url.lower().startswith(("http://", "https://")):
            raise ProviderError(f"embedding endpoint {endpoint_url!r} is not an http(s) URL")
        self._url = endpoint_url.rstrip("/") + "/embed"
        self._batch_size = batch_size
        self._max_attempts = max_attempts
        self._timeout = timeout
        self._backoff = backoff

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """Status and body of one POST; an error status is returned, not raised."""
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            self._url, data=body, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(request, timeout=self._timeout) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:
            with exc:
                return exc.code, exc.read()

    def _post_batch(self, batch: list[str]) -> list[Vector]:
        import http.client

        body = json.dumps({"texts": batch}).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(self._max_attempts):
            if attempt:
                time.sleep(self._backoff * attempt)
            try:
                status, payload = self._post(body)
            # Connection failures and timeouts (OSError, which URLError is),
            # broken responses, and a malformed URL (ValueError).
            except (OSError, http.client.HTTPException, ValueError) as exc:
                last_error = exc
                continue
            if status >= 500:
                last_error = ProviderError(f"embedding service returned {status}")
                continue
            if status != 200:
                text = payload.decode("utf-8", errors="replace")
                raise ProviderError(f"embedding service returned {status}: {text[:200]}")
            return _response_vectors(payload, len(batch))
        raise ProviderError(
            f"embedding service unreachable after {self._max_attempts} attempts: {last_error}"
        )

    def embed(self, topic: Topic) -> list[Vector]:
        texts = [sent.text for doc in topic.documents for sent in doc.sentences]
        starts = range(0, len(texts), self._batch_size)
        return [vec for start in starts for vec in self._post_batch(texts[start : start + self._batch_size])]


def provider_remote(endpoint_url: str, batch_size: int = 32, **kwargs) -> RemoteProvider:
    return RemoteProvider(endpoint_url, batch_size=batch_size, **kwargs)


def _topic_matrix(topic: Topic, returned, dim: int | None) -> tuple[np.ndarray, int]:
    """One topic's returned vectors as a checked float ``(n, d)`` matrix, and
    the corpus dimension (``dim``, or the topic's when ``dim`` is None).

    The matrix checks the whole topic at once: its shape, its one dimension
    and ``np.isfinite``. A float matrix in C order is kept as it is, not
    copied. A topic passes exactly when every vector passes ``_as_vector``
    with that dimension, so only a topic that fails goes one vector at a
    time, to name the key of the first bad vector.
    """
    try:
        matrix = np.ascontiguousarray(returned, dtype=float)
    except (TypeError, ValueError, OverflowError):
        matrix = np.empty(0)  # fails the check below
    if matrix.ndim == 2 and matrix.shape[1] > 0 and dim in (None, matrix.shape[1]) and np.isfinite(matrix).all():
        return matrix, matrix.shape[1]
    for key, vec in zip(topic_keys(topic), returned):
        vec = _as_vector(vec, f"key {key!r}")
        if dim is None:
            dim = int(vec.shape[0])
        elif vec.shape[0] != dim:
            raise ProviderError(f"dimension mismatch: key {key!r} has dim {vec.shape[0]}, expected {dim}")
    raise ProviderError(f"the vectors of topic {topic.topic_id!r} do not form one matrix")


def embed_corpus(corpus: Corpus, provider: EmbeddingProvider) -> EmbeddedCorpus:
    """Embed every sentence of every topic.

    All vectors in a run must share one dimension; a provider returning mixed
    dimensions, or a vector that is empty, not flat, not numeric or not
    finite, raises ProviderError naming its key. A corpus without sentences
    raises CorpusError. Each topic is checked as one matrix (see
    ``_topic_matrix``).
    """
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    for topic in corpus:
        returned = provider.embed(topic)
        count = sum(len(doc.sentences) for doc in topic.documents)
        if len(returned) != count:
            raise ProviderError(f"provider returned {len(returned)} vectors for {count} sentences")
        vectors[topic.topic_id], dim = _topic_matrix(topic, returned, dim)
    if dim is None:
        raise CorpusError("corpus has no sentences")
    return EmbeddedCorpus(corpus=corpus, vectors=vectors, dim=dim)

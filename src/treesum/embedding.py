"""Sentence and document embeddings through interchangeable providers.

Every sentence gets a fixed-length vector; each document vector is the
componentwise mean of its sentences' vectors. Three providers are available:

* ``provider_file``: precomputed vectors from a JSONL file, one record per
  line shaped ``{"key": "<topic_id>/d<doc_index>/s<sent_index>",
  "vector": [floats]}``.
* ``provider_builtin_tfidf``: a deterministic hashed tf-idf embedder that
  keeps the whole pipeline self-contained (tests, CI, demos).
* ``provider_remote``: a client for a sidecar embedding service speaking
  ``POST <endpoint>/embed`` with body ``{"texts": [str]}`` and response
  ``{"vectors": [[float]]}``.

All providers are safe for concurrent ``embed`` calls: the first two only
read prebuilt maps, and the remote client keeps no per-call state.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import re
import time
import urllib.error
import urllib.request
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .corpus import Corpus, CorpusError, Topic

Vector = np.ndarray


class ProviderError(Exception):
    """Raised when an embedding provider cannot produce vectors."""


def sentence_key(topic_id: str, doc_index: int, sent_index: int) -> str:
    return f"{topic_id}/d{doc_index}/s{sent_index}"


def document_key(topic_id: str, doc_index: int) -> str:
    return f"{topic_id}/d{doc_index}"


class EmbeddingProvider(Protocol):
    def embed(self, keys: Sequence[str], texts: Sequence[str]) -> list[Vector]:
        """Vectors for the given sentences, in request order."""


@dataclass(frozen=True)
class TopicVectors:
    """One topic's embeddings as integer-indexed arrays.

    Row ``i`` of ``sentences`` is the topic's ``i``-th sentence in
    (doc_index, sent_index) order and ``doc_of_sentence[i]`` the index of its
    document; row ``d`` of ``documents`` is the mean of document ``d``'s
    sentence rows.
    """

    sentences: np.ndarray
    documents: np.ndarray
    doc_of_sentence: np.ndarray


@dataclass
class EmbeddedCorpus:
    """A corpus together with one vector per sentence.

    ``vectors`` maps each topic id to its sentences' vectors in
    (doc_index, sent_index) order, the arrays the provider returned.
    """

    corpus: Corpus
    vectors: dict[str, list[Vector]]
    dim: int

    def topic_vectors(self, topic: Topic) -> TopicVectors:
        """The topic's ``TopicVectors``, built anew on each call.

        Stacking copies the topic's vectors, so a caller builds the record
        when it starts on a topic and drops it with the topic: only the
        topics in progress ever hold a second copy.
        """
        sentences = np.stack(self.vectors[topic.topic_id])
        counts = [len(doc.sentences) for doc in topic.documents]
        ends = np.cumsum(counts)
        documents = np.stack([sentences[end - n : end].mean(axis=0) for n, end in zip(counts, ends)])
        return TopicVectors(sentences, documents, np.repeat(np.arange(len(counts)), counts))

    def sentence_vectors_for(self, topic: Topic) -> dict[str, Vector]:
        """Ordered sentence-key -> vector map for one topic."""
        keys = (
            sentence_key(topic.topic_id, doc.doc_index, sent.sent_index)
            for doc in topic.documents
            for sent in doc.sentences
        )
        return dict(zip(keys, self.vectors[topic.topic_id]))


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
    if vec.ndim != 1 or vec.size == 0:
        raise ProviderError(f"{context}: vector must be a non-empty flat list")
    if not np.all(np.isfinite(vec)):
        raise ProviderError(f"{context}: vector has non-finite components")
    return vec


class FileProvider:
    """Looks up precomputed vectors by sentence key."""

    def __init__(self, path: str | Path):
        self._path = Path(path)
        self._vectors: dict[str, Vector] = {}
        if not self._path.is_file():
            raise ProviderError(f"embedding file {self._path} does not exist")
        try:
            with self._path.open(encoding="utf-8") as handle:
                for line_no, line in enumerate(handle, start=1):
                    if not line.strip():
                        continue
                    try:
                        record = json.loads(line)
                        key = record["key"]
                        values = record["vector"]
                    except (json.JSONDecodeError, RecursionError, KeyError, TypeError) as exc:
                        raise ProviderError(
                            f"malformed record on line {line_no} of {self._path}: {exc}"
                        ) from exc
                    if not isinstance(key, str):
                        raise ProviderError(f"key on line {line_no} of {self._path} is not a string")
                    if key in self._vectors:
                        raise ProviderError(f"duplicate key {key!r} in {self._path}")
                    self._vectors[key] = _as_vector(values, f"key {key!r}")
        except UnicodeDecodeError as exc:
            raise ProviderError(f"embedding file {self._path} is not valid UTF-8: {exc}") from exc

    def embed(self, keys: Sequence[str], texts: Sequence[str]) -> list[Vector]:
        out = []
        for key in keys:
            if key not in self._vectors:
                raise ProviderError(f"missing embedding for key {key!r}")
            out.append(self._vectors[key])
        return out


def provider_file(path: str | Path) -> FileProvider:
    return FileProvider(path)


_TOKEN_RE = re.compile(r"[a-z0-9]+")


def _hash_bucket(token: str, dim: int, seed_bytes: bytes) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8, key=seed_bytes).digest()
    return int.from_bytes(digest, "little") % dim


class BuiltinTfidfProvider:
    """Deterministic hashed tf-idf sentence embedder.

    Lowercased alphanumeric tokens are hashed into ``dim`` buckets with a
    seeded hash; bucket weights are term frequency in the sentence times a
    smoothed inverse document frequency over the topic's documents
    (``ln((1+n_docs)/(1+df)) + 1``). Vectors are L2-normalized; a sentence
    with no tokens falls back to the unit basis vector e1. All vectors are
    precomputed at construction, so results are bitwise reproducible for a
    given (corpus, dim, seed).
    """

    def __init__(self, corpus: Corpus, dim: int, seed: int):
        if dim < 2:
            raise ValueError("builtin embedder needs dim >= 2")
        self.dim = dim
        seed_bytes = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
        self._vectors: dict[str, Vector] = {}
        buckets: dict[str, int] = {}  # each distinct token hashed once
        for topic in corpus:
            df: Counter[str] = Counter()
            for doc in topic.documents:
                df.update({tok for s in doc.sentences for tok in _TOKEN_RE.findall(s.text.lower())})
            n_docs = len(topic.documents)
            idf = {tok: math.log((1 + n_docs) / (1 + count)) + 1.0 for tok, count in df.items()}
            for doc in topic.documents:
                for sent in doc.sentences:
                    vec = np.zeros(dim)
                    for tok, tf in Counter(_TOKEN_RE.findall(sent.text.lower())).items():
                        bucket = buckets.get(tok)
                        if bucket is None:
                            bucket = buckets[tok] = _hash_bucket(tok, dim, seed_bytes)
                        vec[bucket] += tf * idf[tok]
                    norm = float(np.linalg.norm(vec))
                    if norm == 0.0:
                        vec = np.zeros(dim)
                        vec[0] = 1.0
                    else:
                        vec = vec / norm
                    key = sentence_key(topic.topic_id, doc.doc_index, sent.sent_index)
                    self._vectors[key] = vec

    def embed(self, keys: Sequence[str], texts: Sequence[str]) -> list[Vector]:
        try:
            return [self._vectors[key] for key in keys]
        except KeyError as exc:
            raise ProviderError(f"unknown sentence key {exc.args[0]!r}") from exc


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
    bounded number of times with a short backoff.
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

    def embed(self, keys: Sequence[str], texts: Sequence[str]) -> list[Vector]:
        out: list[Vector] = []
        for start in range(0, len(texts), self._batch_size):
            out.extend(self._post_batch(list(texts[start : start + self._batch_size])))
        return out


def provider_remote(endpoint_url: str, batch_size: int = 32, **kwargs) -> RemoteProvider:
    return RemoteProvider(endpoint_url, batch_size=batch_size, **kwargs)


def embed_corpus(corpus: Corpus, provider: EmbeddingProvider) -> EmbeddedCorpus:
    """Embed every sentence of every topic.

    All vectors in a run must share one dimension; a provider returning mixed
    dimensions raises ProviderError. A corpus without sentences raises
    CorpusError.
    """
    vectors: dict[str, list[Vector]] = {}
    dim: int | None = None

    for topic in corpus:
        keys: list[str] = []
        texts: list[str] = []
        for doc in topic.documents:
            for sent in doc.sentences:
                keys.append(sentence_key(topic.topic_id, doc.doc_index, sent.sent_index))
                texts.append(sent.text)
        returned = provider.embed(keys, texts)
        if len(returned) != len(keys):
            raise ProviderError(
                f"provider returned {len(returned)} vectors for {len(keys)} sentences"
            )
        rows = vectors[topic.topic_id] = []
        for key, vec in zip(keys, returned):
            vec = _as_vector(vec, f"key {key!r}")
            if dim is None:
                dim = int(vec.shape[0])
            elif vec.shape[0] != dim:
                raise ProviderError(
                    f"dimension mismatch: key {key!r} has dim {vec.shape[0]}, expected {dim}"
                )
            rows.append(vec)

    if dim is None:
        raise CorpusError("corpus has no sentences")
    return EmbeddedCorpus(corpus=corpus, vectors=vectors, dim=dim)

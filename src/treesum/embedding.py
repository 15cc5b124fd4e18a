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
import json
import math
import time
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .corpus import Corpus, CorpusError, Topic, jsonl_records

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


@dataclass
class EmbeddedCorpus:
    """A corpus together with one vector per sentence.

    ``vectors`` maps each topic id to its sentences' vectors in
    (doc_index, sent_index) order, the arrays the provider returned.
    """

    corpus: Corpus
    vectors: dict[str, list[Vector]]
    dim: int

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
    except OverflowError as exc:
        raise ProviderError(f"{context}: vector has a component past the float range") from exc
    if vec.ndim != 1 or vec.size == 0:
        raise ProviderError(f"{context}: vector must be a non-empty flat list")
    if not np.isfinite(vec).all():
        raise ProviderError(f"{context}: vector has non-finite components")
    return vec


class FileProvider:
    """Looks up precomputed vectors by sentence key."""

    def __init__(self, path: str | Path):
        self._path = Path(path)
        self._vectors: dict[str, Vector] = {}
        if not self._path.is_file():
            raise ProviderError(f"embedding file {self._path} does not exist")
        for line_no, record in jsonl_records(self._path, ProviderError):
            try:
                key = record["key"]
                values = record["vector"]
            except (KeyError, TypeError) as exc:
                raise ProviderError(f"malformed record on line {line_no} of {self._path}: {exc}") from exc
            if not isinstance(key, str):
                raise ProviderError(f"key on line {line_no} of {self._path} is not a string")
            if key in self._vectors:
                raise ProviderError(f"duplicate key {key!r} in {self._path}")
            self._vectors[key] = _as_vector(values, f"key {key!r}")

    def embed(self, keys: Sequence[str], texts: Sequence[str]) -> list[Vector]:
        out = []
        for key in keys:
            if key not in self._vectors:
                raise ProviderError(f"missing embedding for key {key!r}")
            out.append(self._vectors[key])
        return out


def provider_file(path: str | Path) -> FileProvider:
    return FileProvider(path)


# Tokens are the maximal runs of [a-z0-9] in the lowercased text. Those are
# ASCII, so encoding with "?" for every other character and mapping every
# byte outside [a-z0-9] to a space leaves exactly the tokens to ``split``;
# each comes out as its own UTF-8 bytes, the input of its hash.
_TOKEN_BYTES = bytes(b if b in b"abcdefghijklmnopqrstuvwxyz0123456789" else 32 for b in range(256))

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

    Lowercased alphanumeric tokens are hashed into ``dim`` buckets with a
    seeded hash; bucket weights are term frequency in the sentence times a
    smoothed inverse document frequency over the topic's documents
    (``ln((1+n_docs)/(1+df)) + 1``). Vectors are L2-normalized; a sentence
    with no tokens falls back to the unit basis vector e1. All vectors are
    precomputed at construction, so results are bitwise reproducible for a
    given (corpus, dim, seed).

    Each topic fills its block of one corpus matrix, a row per sentence.
    The topic's tokens get integer ids (a token new to the corpus is hashed
    then), and the distinct (sentence, token) pairs come out of a stable
    sort in order of first occurrence, which is each sentence's ``Counter``
    order, with their counts as tf. df counts the distinct (document, token)
    pairs. The ``(row, bucket)`` weights ``tf * idf`` are summed in that
    order by one unbuffered ``np.add.at``, which adds them into the zero
    block in input order: the same sums as adding each weight into a zero
    vector one at a time. ``np.vecdot`` takes each row's squared
    norm with the same BLAS ``ddot`` as ``np.linalg.norm`` of that row on its
    own, and every row is divided by its norm once, so the vectors are
    bit-equal to a per-sentence build.
    """

    def __init__(self, corpus: Corpus, dim: int, seed: int):
        if not 2 <= dim <= MAX_BUILTIN_DIM:
            raise ValueError(f"builtin embedder needs 2 <= dim <= {MAX_BUILTIN_DIM}")
        self.dim = dim
        keyed = hashlib.blake2b(digest_size=8, key=(seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))
        buckets: dict[bytes, int] = {}  # each distinct token of the corpus hashed once
        self._vectors: dict[str, Vector] = {}
        # One matrix for the whole corpus, allocated before any per-topic
        # temporary, so the heap those free is not pinned under a topic's rows.
        all_rows = np.zeros((sum(len(doc.sentences) for topic in corpus for doc in topic.documents), dim))
        first_row = 0
        for topic in corpus:
            sent_tokens = [
                s.text.lower().encode("ascii", "replace").translate(_TOKEN_BYTES).split()
                for doc in topic.documents
                for s in doc.sentences
            ]
            tokens = list(chain.from_iterable(sent_tokens))
            distinct = dict.fromkeys(tokens)  # the topic's tokens, in order of first occurrence
            for tok in distinct.keys() - buckets.keys():
                h = keyed.copy()  # the digest of a fresh keyed blake2b
                h.update(tok)
                buckets[tok] = int.from_bytes(h.digest(), "little") % dim
            bucket_of = np.fromiter(map(buckets.__getitem__, distinct), np.intp, len(distinct))
            index = dict(zip(distinct, range(len(distinct))))
            ids = np.fromiter(map(index.__getitem__, tokens), np.intp, len(tokens))
            n_ids = len(index)
            rows = len(sent_tokens)
            row_of = np.repeat(np.arange(rows), [len(t) for t in sent_tokens])
            pair_row, pair_id, tf = _distinct_pairs(row_of, ids, n_ids)
            n_docs = len(topic.documents)
            doc_of_row = np.repeat(np.arange(n_docs), [len(doc.sentences) for doc in topic.documents])
            df = np.bincount(_distinct_pairs(doc_of_row[pair_row], pair_id, n_ids)[1], minlength=n_ids)
            # idf depends on a token only through its df, which is 1..n_docs
            idf_of_df = np.array([math.log((1 + n_docs) / (1 + count)) + 1.0 for count in range(n_docs + 1)])
            matrix = all_rows[first_row : first_row + rows]
            first_row += rows
            np.add.at(matrix.reshape(-1), pair_row * dim + bucket_of[pair_id], tf * idf_of_df[df[pair_id]])
            norms = np.sqrt(np.vecdot(matrix, matrix))
            empty = norms == 0.0
            matrix[empty, 0] = 1.0
            norms[empty] = 1.0
            matrix /= norms[:, None]
            keys = (
                sentence_key(topic.topic_id, doc.doc_index, sent.sent_index)
                for doc in topic.documents
                for sent in doc.sentences
            )
            self._vectors.update(zip(keys, matrix))

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

    def embed(self, keys: Sequence[str], texts: Sequence[str]) -> list[Vector]:
        out: list[Vector] = []
        for start in range(0, len(texts), self._batch_size):
            out.extend(self._post_batch(list(texts[start : start + self._batch_size])))
        return out


def provider_remote(endpoint_url: str, batch_size: int = 32, **kwargs) -> RemoteProvider:
    return RemoteProvider(endpoint_url, batch_size=batch_size, **kwargs)


def _topic_rows(keys: list[str], returned: Sequence, dim: int | None) -> tuple[list[Vector], int | None]:
    """One topic's returned vectors as float arrays, checked, and the corpus
    dimension (``dim``, or the first vector's when ``dim`` is None).

    One stacked array checks the whole topic: its shape, its one dimension
    and ``np.isfinite``. A topic passes exactly when every vector passes
    ``_as_vector`` with that dimension, so only a topic that fails goes one
    vector at a time, to name the key of the first bad vector. The rows kept
    are the provider's own arrays (``np.asarray`` copies only a vector that
    is not float already), not the stacked copy.
    """
    try:
        stacked = np.array(returned, dtype=float)
    except (TypeError, ValueError, OverflowError):
        stacked = None
    if (
        stacked is not None
        and stacked.ndim == 2
        and stacked.shape[1] > 0
        and dim in (None, stacked.shape[1])
        and np.isfinite(stacked).all()
    ):
        return [np.asarray(vec, dtype=float) for vec in returned], stacked.shape[1]
    rows = []
    for key, vec in zip(keys, returned):
        vec = _as_vector(vec, f"key {key!r}")
        if dim is None:
            dim = int(vec.shape[0])
        elif vec.shape[0] != dim:
            raise ProviderError(f"dimension mismatch: key {key!r} has dim {vec.shape[0]}, expected {dim}")
        rows.append(vec)
    return rows, dim


def embed_corpus(corpus: Corpus, provider: EmbeddingProvider) -> EmbeddedCorpus:
    """Embed every sentence of every topic.

    All vectors in a run must share one dimension; a provider returning mixed
    dimensions, or a vector that is empty, not flat, not numeric or not
    finite, raises ProviderError naming its key. A corpus without sentences
    raises CorpusError. Each topic is checked as one array (see
    ``_topic_rows``).
    """
    vectors: dict[str, list[Vector]] = {}
    dim: int | None = None
    for topic in corpus:
        sentences = [(doc.doc_index, sent) for doc in topic.documents for sent in doc.sentences]
        keys = [sentence_key(topic.topic_id, doc_index, sent.sent_index) for doc_index, sent in sentences]
        returned = provider.embed(keys, [sent.text for _, sent in sentences])
        if len(returned) != len(keys):
            raise ProviderError(
                f"provider returned {len(returned)} vectors for {len(keys)} sentences"
            )
        vectors[topic.topic_id], dim = _topic_rows(keys, returned, dim)
    if dim is None:
        raise CorpusError("corpus has no sentences")
    return EmbeddedCorpus(corpus=corpus, vectors=vectors, dim=dim)

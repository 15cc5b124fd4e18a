"""Corpus loading and sentence segmentation.

A corpus is a list of topics; each topic holds an ordered list of documents
plus optional reference summaries. Documents are segmented into sentences at
load time with a deterministic rule-based splitter, so identical inputs always
produce identical corpora.

Two on-disk layouts are supported:

* ``topic-dirs``: ``<root>/<topic_id>/docs/*.txt`` with one document per file,
  plus optional ``<root>/<topic_id>/refs/*.txt`` reference summaries.
  Documents are ordered by filename.
* ``jsonl``: one JSON record per topic, shaped as
  ``{"topic_id": str, "documents": [{"doc_id": str, "text": str}],
  "references": [str]}``. Documents keep file order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator


class CorpusError(Exception):
    """Raised when input data cannot be loaded into a valid corpus."""


@dataclass(frozen=True)
class Sentence:
    text: str
    sent_index: int
    word_count: int
    byte_length: int

    @property
    def position_1based(self) -> int:
        return self.sent_index + 1


@dataclass(frozen=True)
class Document:
    doc_id: str
    doc_index: int
    sentences: tuple[Sentence, ...]


@dataclass(frozen=True)
class Topic:
    topic_id: str
    documents: tuple[Document, ...]
    references: tuple[str, ...] = ()


@dataclass(frozen=True)
class Corpus:
    topics: tuple[Topic, ...] = field(default_factory=tuple)

    def __iter__(self):
        return iter(self.topics)

    def __len__(self) -> int:
        return len(self.topics)


# Tokens that end with a period without ending a sentence. Stored lowercase,
# without the final period ("u.s" covers "U.S."). Single capital letters
# ("John F. Kennedy") are handled separately.
_ABBREVIATIONS = frozenset(
    {
        "mr", "mrs", "ms", "dr", "prof", "rev", "hon", "st", "mt", "ft",
        "gen", "col", "maj", "capt", "cmdr", "adm", "sgt", "lt", "gov",
        "sen", "rep", "pres", "supt", "det", "jr", "sr", "no", "vs", "etc",
        "inc", "ltd", "co", "corp", "dept", "univ", "est", "fig", "al",
        "u.s", "u.k", "u.n", "d.c", "a.m", "p.m", "e.g", "i.e", "a.d", "b.c",
    }
)


def _is_abbreviation(token: str) -> bool:
    """True when a period after ``token`` closes an abbreviation.

    ``token`` is the run of non-whitespace characters before the period.
    Covers a stoplist of common titles and dotted initialisms, plus the
    single-capital-letter rule for personal initials. Periods inside decimal
    numbers never reach this check: a digit follows them, so they do not
    end a word.
    """
    # Drop opening punctuation such as quotes or parentheses.
    token = token.lstrip("\"'([{“‘")
    if not token:
        return False
    if len(token) == 1 and token.isalpha() and token.isupper():
        return True
    return token.lower() in _ABBREVIATIONS


def _sentence(words: list[str], sent_index: int) -> Sentence:
    text = " ".join(words)
    return Sentence(
        text=text, sent_index=sent_index, word_count=len(words), byte_length=len(text.encode("utf-8"))
    )


def segment_sentences(document_text: str) -> list[Sentence]:
    """Split raw document text into sentences.

    The text is split into words at whitespace once. A sentence ends after
    each word whose last character is ``.``, ``!`` or ``?``, except when the
    period closes a known abbreviation (``_is_abbreviation`` of the word
    without it). Such a word's terminator is exactly a terminator followed
    by whitespace or the end of input. A sentence's text is its words
    joined by single spaces; whitespace-only input yields an empty list.
    Sentence indices are assigned in order, so positions run 1..n with no
    gaps.
    """
    words = document_text.split()
    sentences: list[Sentence] = []
    start = 0
    for end, word in enumerate(words, 1):
        if word[-1] in ".!?" and not (word[-1] == "." and _is_abbreviation(word[:-1])):
            sentences.append(_sentence(words[start:end], len(sentences)))
            start = end
    if start < len(words):
        sentences.append(_sentence(words[start:], len(sentences)))
    return sentences


_TOKEN_BYTES = bytes(b if b in b"abcdefghijklmnopqrstuvwxyz0123456789" else 32 for b in range(256))


def tokens(text: str) -> list[bytes]:
    """The maximal runs of ``[a-z0-9]`` in the lowercased ``text``, as ASCII
    bytes: the one token rule of the embedder and ROUGE.

    The tokens are ASCII, so encoding with ``?`` for every other character
    and mapping every byte outside ``[a-z0-9]`` to a space leaves exactly
    the tokens to ``split``.
    """
    return text.lower().encode("ascii", "replace").translate(_TOKEN_BYTES).split()


def _build_document(doc_id: str, doc_index: int, text: str, origin: str) -> Document:
    sentences = segment_sentences(text)
    if not sentences:
        raise CorpusError(f"document {doc_id!r} in {origin} produced zero sentences")
    return Document(doc_id=doc_id, doc_index=doc_index, sentences=tuple(sentences))


def read_text(path: Path, error: type[Exception]) -> str:
    """The UTF-8 text of one file; an unreadable file or bad UTF-8 raises
    ``error`` naming the file."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def text_files(directory: Path) -> list[Path]:
    """The ``*.txt`` regular files in ``directory``, sorted by name."""
    return sorted(p for p in directory.iterdir() if p.suffix == ".txt" and p.is_file())


def jsonl_records(path: Path, error: type[Exception]) -> Iterator[tuple[int, object]]:
    """``(line_no, value)`` for each non-blank line of a JSONL file, read as
    it streams.

    A line that does not parse raises ``error`` naming the file and line.
    That includes an integer literal past Python's int-string digit limit,
    which ``json.loads`` reports as a plain ``ValueError``, and nesting too
    deep to parse. Bad UTF-8 or an unreadable file raises ``error`` naming
    the file.
    """
    try:
        with path.open(encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    value = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    raise error(f"invalid JSON on line {line_no} of {path}: {exc}") from exc
                yield line_no, value
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def _load_topic_dir(topic_dir: Path) -> Topic:
    if not is_unicode_text(topic_dir.name):
        raise CorpusError(f"topic directory {str(topic_dir)!r} is not named in UTF-8")
    docs_dir = topic_dir / "docs"
    if not docs_dir.is_dir():
        raise CorpusError(f"topic {topic_dir.name!r} has no docs/ directory")
    doc_files = text_files(docs_dir)
    if not doc_files:
        raise CorpusError(f"topic {topic_dir.name!r} contains zero documents")
    origin = f"topic {topic_dir.name!r}"
    documents = [
        _build_document(path.stem, doc_index, read_text(path, CorpusError), origin)
        for doc_index, path in enumerate(doc_files)
    ]
    refs_dir = topic_dir / "refs"
    ref_files = text_files(refs_dir) if refs_dir.is_dir() else []
    references = [read_text(path, CorpusError).strip() for path in ref_files]
    return Topic(topic_id=topic_dir.name, documents=tuple(documents), references=tuple(references))


def is_unicode_text(text: str) -> bool:
    """Whether ``text`` is encodable as UTF-8.

    JSON's ``\\u`` escapes can spell a lone UTF-16 surrogate, which is no
    Unicode character: measuring or writing such text would fail later.
    """
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _check_topic_id(topic_id: object, line_no: int) -> None:
    """Reject a JSONL topic id that is not safe as one file name under ``--out``.

    Topic-dirs ids are directory names, which are single components already.
    """
    if not isinstance(topic_id, str) or not topic_id:
        raise CorpusError(f"topic record on line {line_no} needs a non-empty string topic_id")
    unsafe = topic_id in (".", "..") or any(c in topic_id for c in "/\\\0")
    if unsafe or not is_unicode_text(topic_id):
        raise CorpusError(
            f"topic_id {topic_id!r} on line {line_no} is not a single safe path component"
        )


def _load_topic_record(record: dict, line_no: int) -> Topic:
    try:
        topic_id = record["topic_id"]
        raw_docs = record["documents"]
    except (KeyError, TypeError) as exc:
        raise CorpusError(f"malformed topic record on line {line_no}: {exc}") from exc
    _check_topic_id(topic_id, line_no)
    if not isinstance(raw_docs, list):
        raise CorpusError(f"documents of topic {topic_id!r} must be a list")
    if not raw_docs:
        raise CorpusError(f"topic {topic_id!r} contains zero documents")

    documents = []
    for doc_index, raw in enumerate(raw_docs):
        try:
            doc_id = raw["doc_id"]
            text = raw["text"]
        except (KeyError, TypeError) as exc:
            raise CorpusError(f"malformed document record in topic {topic_id!r}: {exc}") from exc
        if not isinstance(doc_id, str) or not isinstance(text, str):
            raise CorpusError(
                f"document {doc_index} in topic {topic_id!r} needs string doc_id and text"
            )
        if not (is_unicode_text(doc_id) and is_unicode_text(text)):
            raise CorpusError(
                f"document {doc_index} in topic {topic_id!r} holds a lone surrogate escape"
            )
        documents.append(_build_document(doc_id, doc_index, text, f"topic {topic_id!r}"))

    references = record.get("references")
    if references is None:
        references = []
    if not isinstance(references, list) or not all(isinstance(r, str) for r in references):
        raise CorpusError(f"references of topic {topic_id!r} must be a list of strings")
    if not all(is_unicode_text(r) for r in references):
        raise CorpusError(f"references of topic {topic_id!r} hold a lone surrogate escape")
    return Topic(topic_id=topic_id, documents=tuple(documents), references=tuple(references))


def load_corpus(root_path: str | Path, layout: str = "topic-dirs") -> Corpus:
    """Load a corpus from disk.

    ``layout`` selects between ``topic-dirs`` and ``jsonl`` (see module
    docstring for the on-disk formats). Loading is order-stable: the same
    input always yields the same topic order and doc_index assignments.
    """
    root = Path(root_path)
    if layout == "topic-dirs":
        if not root.is_dir():
            raise CorpusError(f"corpus root {root} is not a directory")
        topic_dirs = sorted(p for p in root.iterdir() if p.is_dir())
        if not topic_dirs:
            raise CorpusError(f"no topics found under {root}")
        topics = tuple(_load_topic_dir(d) for d in topic_dirs)
    elif layout == "jsonl":
        if not root.is_file():
            raise CorpusError(f"corpus file {root} does not exist")
        topics = tuple(_load_topic_record(record, n) for n, record in jsonl_records(root, CorpusError))
        if not topics:
            raise CorpusError(f"no topics found in {root}")
    else:
        raise CorpusError(f"unknown corpus layout {layout!r}")

    seen: set[str] = set()
    for topic in topics:
        if topic.topic_id in seen:
            raise CorpusError(f"duplicate topic_id {topic.topic_id!r}")
        seen.add(topic.topic_id)
    return Corpus(topics=topics)

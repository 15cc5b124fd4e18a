"""Corpus loading, segmentation and word counting."""

from __future__ import annotations

import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from helpers import count_words, loop_segment_sentences, tokenize
from treesum.corpus import CorpusError, Sentence, load_corpus, segment_sentences, tokens


def test_two_terminated_clauses():
    sentences = segment_sentences("A cat sat. It slept.")
    assert [s.text for s in sentences] == ["A cat sat.", "It slept."]
    assert [s.position_1based for s in sentences] == [1, 2]


def test_sentence_record_fields_equality_hashing_and_immutability():
    first, second = segment_sentences("Caf\u00e9 news today. The bridge opened.")
    assert Sentence._fields == ("text", "sent_index", "word_count", "byte_length")
    assert first == Sentence("Caf\u00e9 news today.", 0, 3, 17)
    assert second == Sentence(text="The bridge opened.", sent_index=1, word_count=3, byte_length=18)
    assert first != second and hash(first) == hash(Sentence("Caf\u00e9 news today.", 0, 3, 17))
    assert len({first, second, Sentence(*first)}) == 2
    assert (first.position_1based, second.position_1based) == (1, 2)
    with pytest.raises(AttributeError):
        first.text = "changed"
    with pytest.raises(AttributeError):
        first.extra = 1


def test_abbreviation_does_not_split():
    sentences = segment_sentences("Dr. Smith arrived. He spoke.")
    assert [s.text for s in sentences] == ["Dr. Smith arrived.", "He spoke."]


def test_unterminated_text_is_one_sentence():
    sentences = segment_sentences("One sentence without terminator")
    assert len(sentences) == 1
    assert sentences[0].position_1based == 1


# Hand-verified segmentations across the rule set: abbreviations, initials,
# decimals, bangs and question marks, quotes before the token.
SEGMENTATION_FIXTURES = [
    ("Hello there! How are you? Fine.", ["Hello there!", "How are you?", "Fine."]),
    ("U.S. officials said so. They left.", ["U.S. officials said so.", "They left."]),
    ("John F. Kennedy spoke in D.C. yesterday.", ["John F. Kennedy spoke in D.C. yesterday."]),
    ("Pi is 3.14159 roughly. Next fact.", ["Pi is 3.14159 roughly.", "Next fact."]),
    ("Mr. and Mrs. Jones met Prof. Lee. It went well.",
     ["Mr. and Mrs. Jones met Prof. Lee.", "It went well."]),
    ("It cost 3. 50 was too much.", ["It cost 3.", "50 was too much."]),
    ("Whitespace   is\n\ncollapsed to single spaces. See?",
     ["Whitespace is collapsed to single spaces.", "See?"]),
    ("No terminator at all", ["No terminator at all"]),
    ("Ends mid", ["Ends mid"]),
    ("The meeting is at 9 a.m. sharp. Be there.", ["The meeting is at 9 a.m. sharp.", "Be there."]),
]


@pytest.mark.parametrize("text,expected", SEGMENTATION_FIXTURES)
def test_segmentation_fixtures(text, expected):
    assert [s.text for s in segment_sentences(text)] == expected


def test_whitespace_only_input_yields_empty_list():
    assert segment_sentences("   \n\t  ") == []


@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=400))
def test_segmentation_is_deterministic_and_lossless(text):
    first = segment_sentences(text)
    second = segment_sentences(text)
    assert [(s.text, s.sent_index) for s in first] == [(s.text, s.sent_index) for s in second]
    # Positions are exactly 1..n.
    assert [s.position_1based for s in first] == list(range(1, len(first) + 1))
    # Concatenation equals the input modulo whitespace.
    assert " ".join(s.text for s in first).split() == text.split()
    for s in first:
        assert s.text.strip()
        assert s.word_count >= 1


def _benchmark_corpus_generator(monkeypatch):
    """``perfbench/corpus_gen.py``, loaded without putting ``perfbench`` on the path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "corpus_gen.py"
    spec = importlib.util.spec_from_file_location("bench_corpus_gen", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_segmentation_matches_loop_on_benchmark_documents(tmp_path, monkeypatch):
    """The word split segments every generated benchmark document, joined as
    either loader sees it, exactly as the per-character loop does."""
    gen = _benchmark_corpus_generator(monkeypatch)
    vocab = gen.load_vocabulary(Path(__file__).resolve().parent / "data" / "porter_vocabulary.txt")
    shape = gen.CorpusSpec(topics=4, docs=10, sentences=30, clusters=3, references=2,
                           reference_words=110, layout="topic-dirs")
    checked = 0
    for seed in (1, 7):
        corpus = gen.generate(shape, seed, vocab, tmp_path / f"s{seed}")
        for topic in corpus.topics:
            for text in [*(" ".join(d) for d in topic.documents),
                         *("\n".join(d) + "\n" for d in topic.documents), *topic.references]:
                assert segment_sentences(text) == loop_segment_sentences(text)
                checked += 1
    assert checked == 2 * 4 * (2 * 10 + 2)


_PIECES = (
    ".", "!", "?", "...", "\n", "\x1c", "\x85", " ", "\t", "\u2003", "\u00a0", "\u200b",
    '"', "'", "(", "[", "\u201c", "\u2018", ")", "Mr", "mrs", "U.S", "e.g", "i.e", "St",
    "etc", "A", "J", "b", "word", "Word", "3.5", "x", "\u00e9t\u00e9",
)


def test_segmentation_matches_loop_on_random_strings():
    """Seeded random strings over terminators, the whitespace ``str.split``
    and ``str.isspace`` must agree on, quotes and abbreviations."""
    rng = random.Random(20231)
    for _ in range(5000):
        text = "".join(rng.choice(_PIECES) for _ in range(rng.randrange(0, 40)))
        assert segment_sentences(text) == loop_segment_sentences(text), repr(text)



# Characters whose lowercase form is or holds ASCII (the Kelvin sign is
# "k", "İ" is "i" plus a combining dot), or that expand ("ß", "ﬁ"); digits
# outside ASCII; whitespace and separators outside ASCII and C0 controls.
_TOKEN_PIECES = (
    "\u212a", "\u0130", "\u00df", "\ufb01", "\uff11", "\uff21", "\u0663", "\u0085", "\x1c",
    "\u3000", "\u00e9", "\u00c9", "\ud800", "\U0001f600", "A", "z", "Q", "0", "9", "_", "-",
    "'", ".", " ", "\t", "\n", "Kelvin", "STRASSE", "caf\u00e9", "x2", "\x7f", "\x00",
)


def test_tokens_equal_the_regex_oracle_on_random_unicode():
    """``corpus.tokens`` gives the maximal runs of ``[a-z0-9]`` in the
    lowercased text, as bytes, on seeded random text over ASCII, characters
    whose lowercase form is or holds ASCII, non-ASCII digits and spaces, and
    random code points."""
    rng = random.Random(1004)
    texts = [""]
    for _ in range(20000):
        pieces = [
            rng.choice(_TOKEN_PIECES) if rng.random() < 0.8 else chr(rng.randrange(0x110000))
            for _ in range(rng.randrange(0, 24))
        ]
        texts.append("".join(pieces))
    for text in texts:
        assert tokens(text) == [t.encode() for t in tokenize(text)], repr(text)
    assert tokens("\u212aelvin \u0130STANBUL Stra\u00dfe \ufb01ne") == [b"kelvin", b"i", b"stanbul", b"stra", b"e", b"ne"]


def test_count_words():
    assert count_words("a b  c") == 3
    assert count_words("") == 0
    assert count_words("U.S. officials said") == 3
    assert [s.word_count for s in segment_sentences("U.S. officials  said. Mr. Lee left")] == [3, 3]


def _write_topic_dir(root, topic_id, docs, refs=()):
    docs_dir = root / topic_id / "docs"
    docs_dir.mkdir(parents=True)
    for name, text in docs:
        (docs_dir / name).write_text(text, encoding="utf-8")
    if refs:
        refs_dir = root / topic_id / "refs"
        refs_dir.mkdir()
        for name, text in refs:
            (refs_dir / name).write_text(text, encoding="utf-8")


def test_load_topic_dirs_orders_by_filename(tmp_path):
    _write_topic_dir(tmp_path, "t1", [("b.txt", "From b. More b."), ("a.txt", "From a.")])
    corpus = load_corpus(tmp_path, "topic-dirs")
    assert len(corpus) == 1
    topic = corpus.topics[0]
    assert topic.topic_id == "t1"
    assert [d.doc_id for d in topic.documents] == ["a", "b"]
    assert topic.documents[0].doc_index == 0
    assert topic.documents[0].sentences[0].text == "From a."


def test_load_empty_directory_errors(tmp_path):
    with pytest.raises(CorpusError, match="no topics found"):
        load_corpus(tmp_path, "topic-dirs")


def test_load_missing_path_errors(tmp_path):
    with pytest.raises(CorpusError):
        load_corpus(tmp_path / "nope", "topic-dirs")


def test_topic_with_zero_documents_errors(tmp_path):
    (tmp_path / "t1" / "docs").mkdir(parents=True)
    with pytest.raises(CorpusError, match="zero documents"):
        load_corpus(tmp_path, "topic-dirs")


def test_document_with_zero_sentences_errors(tmp_path):
    _write_topic_dir(tmp_path, "t1", [("a.txt", "   \n  ")])
    with pytest.raises(CorpusError, match="zero sentences"):
        load_corpus(tmp_path, "topic-dirs")


def test_load_is_order_stable(tmp_path):
    _write_topic_dir(tmp_path, "t2", [("x.txt", "Xx one."), ("y.txt", "Yy one.")])
    _write_topic_dir(tmp_path, "t1", [("m.txt", "Mm one.")], refs=[("r0.txt", "Ref.")])
    first = load_corpus(tmp_path, "topic-dirs")
    second = load_corpus(tmp_path, "topic-dirs")
    assert first == second
    assert [t.topic_id for t in first] == ["t1", "t2"]
    assert first.topics[0].references == ("Ref.",)


def test_load_jsonl_counts(tmp_path):
    path = tmp_path / "corpus.jsonl"
    records = []
    for tid, n_docs in [("a", 2), ("b", 5), ("c", 10)]:
        records.append(
            {
                "topic_id": tid,
                "documents": [
                    {"doc_id": f"{tid}{i}", "text": f"Sentence one of {tid}{i}. Sentence two."}
                    for i in range(n_docs)
                ],
                "references": [f"Reference for {tid}."],
            }
        )
    path.write_text("\n".join(json.dumps(r) for r in records), encoding="utf-8")
    corpus = load_corpus(path, "jsonl")
    assert [len(t.documents) for t in corpus] == [2, 5, 10]
    assert [t.topic_id for t in corpus] == ["a", "b", "c"]
    assert all(d.doc_index == i for t in corpus for i, d in enumerate(t.documents))


def test_load_jsonl_duplicate_topic_errors(tmp_path):
    path = tmp_path / "corpus.jsonl"
    record = {"topic_id": "t", "documents": [{"doc_id": "d", "text": "One sentence."}]}
    path.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="duplicate topic_id"):
        load_corpus(path, "jsonl")


@pytest.mark.parametrize(
    "line", [pytest.param('{"topic_id": ', id="cut short"), pytest.param("[" * 100000, id="deeply nested")]
)
def test_load_jsonl_rejects_unparseable_lines(tmp_path, line):
    path = tmp_path / "corpus.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="invalid JSON on line 1"):
        load_corpus(path, "jsonl")


def test_unknown_layout_errors(tmp_path):
    with pytest.raises(CorpusError, match="unknown corpus layout"):
        load_corpus(tmp_path, "zip")


def _jsonl_with(tmp_path, **fields):
    record = {"topic_id": "t", "documents": [{"doc_id": "d", "text": "One sentence."}]}
    record.update(fields)
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"references": "some text"}, "list of strings"),
        ({"references": ["fine", 3]}, "list of strings"),
        ({"references": ""}, "list of strings"),
        ({"documents": [{"doc_id": "d", "text": 7}]}, "string doc_id and text"),
        ({"documents": [{"doc_id": "d", "text": None}]}, "string doc_id and text"),
        ({"documents": [{"doc_id": "d", "text": ["One sentence."]}]}, "string doc_id and text"),
        ({"documents": [{"doc_id": 1, "text": "One sentence."}]}, "string doc_id and text"),
        ({"documents": 5}, "must be a list"),
        ({"topic_id": 12}, "non-empty string topic_id"),
        ({"topic_id": ""}, "non-empty string topic_id"),
        ({"references": ["One \ud800 sentence."]}, "lone surrogate"),
        ({"documents": [{"doc_id": "d", "text": "One \udc80 sentence."}]}, "lone surrogate"),
        ({"documents": [{"doc_id": "d\ud800", "text": "One sentence."}]}, "lone surrogate"),
    ],
)
def test_load_jsonl_rejects_wrong_field_types(tmp_path, fields, message):
    with pytest.raises(CorpusError, match=message):
        load_corpus(_jsonl_with(tmp_path, **fields), "jsonl")


@pytest.mark.parametrize("topic_id", ["../escape", "a/b", "/abs", "a\\b", "a\0b", ".", "..", "t\ud800"])
def test_load_jsonl_rejects_unsafe_topic_ids(tmp_path, topic_id):
    with pytest.raises(CorpusError, match="single safe path component"):
        load_corpus(_jsonl_with(tmp_path, topic_id=topic_id), "jsonl")


@pytest.mark.parametrize("fields", [{}, {"references": None}, {"topic_id": "d30.a-b_1"}])
def test_load_jsonl_accepts_missing_references_and_dotted_ids(tmp_path, fields):
    corpus = load_corpus(_jsonl_with(tmp_path, **fields), "jsonl")
    assert corpus.topics[0].references == ()
    assert corpus.topics[0].topic_id == fields.get("topic_id", "t")

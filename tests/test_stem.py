"""Porter stemmer behavior against frozen reference vectors."""

from __future__ import annotations

from pathlib import Path

from treesum.stem import porter_stem

DATA = Path(__file__).parent / "data"


def test_classic_examples():
    assert porter_stem("running") == "run"
    assert porter_stem("cats") == "cat"
    assert porter_stem("the") == "the"


def test_uppercase_is_lowercased():
    assert porter_stem("Running") == "run"


def test_short_tokens_unchanged():
    assert porter_stem("a") == "a"
    assert porter_stem("by") == "by"


def test_reference_vector_file():
    """Every word in the frozen vocabulary stems to the recorded output.

    The vectors were generated by running two independent ports of the
    reference implementation over a vocabulary that exercises every rule
    family and keeping only words where both agreed.
    """
    words = (DATA / "porter_vocabulary.txt").read_text().splitlines()
    stems = (DATA / "porter_output.txt").read_text().splitlines()
    assert len(words) == len(stems) and len(words) > 5000
    failures = [
        (word, expected, porter_stem(word))
        for word, expected in zip(words, stems)
        if porter_stem(word) != expected
    ]
    assert failures == []

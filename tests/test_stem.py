"""Porter stemmer behavior against frozen reference vectors and the\ncharacter-at-a-time oracle."""

from __future__ import annotations

import random
import string
from pathlib import Path

import pytest

from helpers import loop_porter_stem
from treesum import stem
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


# Every suffix a Porter step tests, so that random stems followed by one to
# three of them reach every rule, alone and in chains.
_SUFFIXES = sorted(
    {"sses", "ies", "ss", "s", "eed", "ed", "ing", "at", "bl", "iz", "y", "e", "ll"}
    | {suffix for suffix, _ in stem._STEP2_RULES}
    | {suffix for suffix, _ in stem._STEP3_RULES}
    | set(stem._STEP4_SUFFIXES)
)


def _suffixed_tokens(rng: random.Random, count: int) -> list[str]:
    """Tokens over ``[a-z0-9]``, as the ROUGE tokenizer makes them, that end
    in Porter suffixes. Vowels, ``y`` and digits are drawn more often, so that
    ``y`` after every class and digits inside measures are common."""
    alphabet = string.ascii_lowercase + string.digits + "aeiouy" * 2 + string.digits
    tokens = []
    for _ in range(count):
        head = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 7)))
        tail = "".join(rng.choice(_SUFFIXES) for _ in range(rng.randint(1, 3)))
        tokens.append(head + tail)
    return tokens


def test_table_driven_stemmer_matches_the_character_loop_oracle():
    """Differential check against the character-at-a-time stemmer: the frozen
    vocabulary holds no digits, and a digit must count as a consonant. Both
    lowercase first, so mixed-case copies of the tokens, short ones among
    them, must stem alike too."""
    rng = random.Random(3)
    tokens = _suffixed_tokens(rng, 40_000) + ["c5a01e", "y1y2ying", "0ies", "9ational"]
    mixed = ["".join(ch.upper() if rng.random() < 0.4 else ch for ch in token) for token in tokens[:10_000]]
    tokens += mixed + ["Y", "By", "YY", "SSES", "IES", "HopInG", "RatIONAL", "YellING"]
    assert sum(token != token.lower() for token in mixed) > 9_000
    mismatches = [(t, loop_porter_stem(t), porter_stem(t)) for t in tokens if porter_stem(t) != loop_porter_stem(t)]
    assert mismatches == []


@pytest.mark.parametrize("step", ["2", "3", "4"])
def test_longest_suffix_lookup_picks_the_first_rule_in_table_order(step):
    rules = {
        "2": stem._STEP2_RULES,
        "3": stem._STEP3_RULES,
        "4": [(suffix, "") for suffix in stem._STEP4_SUFFIXES],
    }[step]
    table = getattr(stem, f"_STEP{step}")
    words = {head + suffix for suffix, _ in rules for head in ["", "x", "a", *(s for s, _ in rules)]}
    words |= set((DATA / "porter_vocabulary.txt").read_text().splitlines())
    for word in sorted(words):
        first = next(((suffix, repl) for suffix, repl in rules if word.endswith(suffix)), None)
        found = stem._longest_suffix(word, table)
        assert (None if found is None else (word[-found[0]:], found[1][0])) == first, word

"""Porter stemmer.

A self-contained implementation of the classic Porter suffix-stripping
algorithm, matching the behavior of the reference implementation distributed
by its author (including its two long-standing rule adjustments, bli -> ble
and logi -> log). Tokens of length one or two are returned unchanged.

Every condition reads one consonant/vowel pattern of the word: ``c`` or
``v`` per character. ``a e i o u`` are vowels; ``y`` is a consonant at the
start of a word or after a vowel, and a vowel after a consonant; every other
character, digits included, is a consonant. A character's class depends only
on the characters before it, so the pattern of a prefix is the prefix of the
pattern, and each step keeps the pair (word, pattern) in step by slicing.
The measure m of [C](VC)^m[V] is the number of ``vc`` pairs in the pattern.
"""

from __future__ import annotations


class _Classes(dict):
    """``str.translate`` table: a vowel to ``v``, ``y`` to itself (classed
    afterwards by position), any other character to ``c``."""

    def __missing__(self, code: int) -> str:
        return "c"


_CLASSES = _Classes({code: "c" for code in range(128)})
_CLASSES.update({ord(ch): "v" for ch in "aeiou"})
_CLASSES[ord("y")] = "y"


def _pattern(word: str) -> str:
    pattern = word.translate(_CLASSES)
    if "y" not in pattern:
        return pattern
    out = []
    previous = "v"  # so that a leading y is a consonant
    for cls in pattern:
        if cls == "y":
            cls = "c" if previous == "v" else "v"
        out.append(cls)
        previous = cls
    return "".join(out)


def _ends_cvc(word: str, pattern: str) -> bool:
    return pattern.endswith("cvc") and word[-1] not in "wxy"


def _post_ed_ing(word: str, pattern: str) -> tuple[str, str]:
    if word.endswith(("at", "bl", "iz")):
        return word + "e", pattern + "v"
    # A double consonant other than l, s or z loses one letter.
    if len(word) >= 2 and word[-1] == word[-2] and pattern[-1] == "c" and word[-1] not in "lsz":
        return word[:-1], pattern[:-1]
    if pattern.count("vc") == 1 and _ends_cvc(word, pattern):
        return word + "e", pattern + "v"
    return word, pattern


def _step1ab(word: str, pattern: str) -> tuple[str, str]:
    if word.endswith(("sses", "ies")):
        word, pattern = word[:-2], pattern[:-2]
    elif word.endswith("s") and word[-2] != "s":
        word, pattern = word[:-1], pattern[:-1]

    if word.endswith("eed"):
        if pattern[:-3].count("vc") > 0:
            word, pattern = word[:-1], pattern[:-1]
    elif word.endswith("ed") and "v" in pattern[:-2]:
        word, pattern = _post_ed_ing(word[:-2], pattern[:-2])
    elif word.endswith("ing") and "v" in pattern[:-3]:
        word, pattern = _post_ed_ing(word[:-3], pattern[:-3])
    return word, pattern


def _step1c(word: str, pattern: str) -> tuple[str, str]:
    if word.endswith("y") and "v" in pattern[:-1]:
        return word[:-1] + "i", pattern[:-1] + "v"
    return word, pattern


# (suffix, replacement) pairs; within each step the longest matching suffix
# decides, applied only when the remaining stem's measure clears the bar.
# Where one suffix ends another, the longer comes first, so this is also
# the first match in table order.
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


def _by_last_letter(rules) -> dict[str, tuple[tuple[int, dict[str, tuple[str, str]]], ...]]:
    """Last letter -> ((length, {suffix: (replacement, its pattern)}), ...),
    longest first, over the suffixes that end in that letter. No replacement
    holds a ``y``, so its pattern does not depend on the stem before it."""
    table = {}
    for last in sorted({suffix[-1] for suffix, _ in rules}):
        ending = [(suffix, repl) for suffix, repl in rules if suffix[-1] == last]
        lengths = sorted({len(suffix) for suffix, _ in ending}, reverse=True)
        table[last] = tuple(
            (n, {suffix: (repl, _pattern(repl)) for suffix, repl in ending if len(suffix) == n})
            for n in lengths
        )
    return table


_STEP2 = _by_last_letter(_STEP2_RULES)
_STEP3 = _by_last_letter(_STEP3_RULES)
_STEP4 = _by_last_letter([(suffix, "") for suffix in _STEP4_SUFFIXES])


def _longest_suffix(word: str, table) -> tuple[int, tuple[str, str]] | None:
    """The longest suffix of ``word`` in ``table``, as (length, rule)."""
    for n, rules in table.get(word[-1:], ()):
        rule = rules.get(word[-n:])
        if rule is not None:
            return n, rule
    return None


def _apply_rules(word: str, pattern: str, table) -> tuple[str, str]:
    found = _longest_suffix(word, table)
    if found is not None:
        n, (replacement, replacement_pattern) = found
        if pattern[:-n].count("vc") > 0:
            return word[:-n] + replacement, pattern[:-n] + replacement_pattern
    return word, pattern


def _step4(word: str, pattern: str) -> tuple[str, str]:
    found = _longest_suffix(word, _STEP4)
    if found is not None:
        n = found[0]
        if n == 3 and word.endswith("ion") and word[-4:-3] not in ("s", "t"):
            return word, pattern
        if pattern[:-n].count("vc") > 1:
            return word[:-n], pattern[:-n]
    return word, pattern


def _step5(word: str, pattern: str) -> str:
    if word.endswith("e"):
        m = pattern[:-1].count("vc")
        if m > 1 or (m == 1 and not _ends_cvc(word[:-1], pattern[:-1])):
            word, pattern = word[:-1], pattern[:-1]
    if word.endswith("ll") and pattern.count("vc") > 1:
        return word[:-1]
    return word


def porter_stem(token: str) -> str:
    """Stem a single lowercase token; uppercase input is lowercased first.

    Each step finds its suffix by ``word[-n:]`` lookups, longest first, and
    reads every measure from the word's consonant/vowel pattern (see the
    module docstring) instead of classifying characters one call at a time.
    """
    word = token.lower()
    if len(word) <= 2:
        return word
    word, pattern = _step1ab(word, _pattern(word))
    word, pattern = _step1c(word, pattern)
    word, pattern = _apply_rules(word, pattern, _STEP2)
    word, pattern = _apply_rules(word, pattern, _STEP3)
    word, pattern = _step4(word, pattern)
    return _step5(word, pattern)

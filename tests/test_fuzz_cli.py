"""Hostile inputs through the command line.

Hypothesis draws small corpora in both layouts, summaries files, embedding
files and flag sets, with unsafe topic ids, fields of the wrong type, lone
surrogate escapes, invalid UTF-8 bytes, broken JSON and repeated ids, and
runs them through ``treesum.cli.main``. Whatever the input, the exit code is
0, 2 (input or configuration error) or 3 (embedding-provider error), no
exception escapes, and nothing is written outside ``--out``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings, strategies as st

from treesum.cli import main

WORDS = ["bridge", "council", "parks", "river", "school", "storm", "crews", "budget", "city", "vote"]

sentences = st.lists(st.sampled_from(WORDS), min_size=1, max_size=6).map(
    lambda words: " ".join(words).capitalize() + "."
)
texts = st.lists(sentences, min_size=1, max_size=4).map(" ".join)
odd_strings = st.sampled_from(["", " ", "..", ".", "a/b", "a\\b", "x\x00y", "t\ud800", "\udc80."])
non_strings = st.one_of(st.none(), st.integers(-2, 2), st.booleans(), st.just(1.5), st.just([]), st.just({}))
hostile = st.one_of(odd_strings, non_strings)


def _rarely(draw, n: int = 6) -> bool:
    """True about one time in ``n``; shrinks to False."""
    return draw(st.sampled_from(range(n))) == n - 1


def _pick(draw, good, bad=hostile):
    """Mostly a value from ``good``; about one time in six one from ``bad``."""
    return draw(bad) if _rarely(draw) else draw(good)


def _corrupt(draw, data: bytes) -> bytes:
    """One time in six, insert a byte sequence that is not valid UTF-8."""
    if not data or not _rarely(draw):
        return data
    at = draw(st.integers(0, len(data)))
    return data[:at] + draw(st.sampled_from([b"\xe9", b"\xff\xfe", b"\xc3", b"\x80"])) + data[at:]


def _jsonl(draw, records) -> bytes:
    """One JSON value per line; maybe a broken line, maybe bad bytes."""
    lines = [json.dumps(r) for r in records]
    if _rarely(draw):
        broken = st.sampled_from(['{"topic_id": ', "[1,", "nan", "1" * 4301])
        lines.insert(draw(st.integers(0, len(lines))), draw(broken))
    return _corrupt(draw, "\n".join(lines).encode("utf-8") + b"\n")


def _document_record(draw, d: int):
    record = {"doc_id": _pick(draw, st.just(f"d{d}")), "text": _pick(draw, texts)}
    if _rarely(draw, 12):
        del record[draw(st.sampled_from(["doc_id", "text"]))]
    return _pick(draw, st.just(record), non_strings)


def _topic_record(draw, t: int):
    n_docs = _pick(draw, st.integers(1, 3), st.just(0))
    record = {
        # Repeats of another topic's id come from the small pool.
        "topic_id": _pick(draw, st.sampled_from([f"t{t}", f"t{t}", "t0", "t.2"])),
        "documents": _pick(draw, st.just([_document_record(draw, d) for d in range(n_docs)]), non_strings),
        "references": _pick(draw, st.just([_pick(draw, texts) for _ in range(draw(st.integers(1, 2)))])),
    }
    if _rarely(draw, 12):
        del record[draw(st.sampled_from(sorted(record)))]
    return _pick(draw, st.just(record), non_strings)


def _write_topic_dirs(draw, root: Path) -> None:
    for t in range(_pick(draw, st.integers(1, 3), st.just(0))):
        topic = root / f"t{t}"
        topic.mkdir(parents=True)
        if _rarely(draw, 12):
            continue  # no docs/ directory
        (topic / "docs").mkdir()
        for d in range(_pick(draw, st.integers(1, 3), st.just(0))):
            (topic / "docs" / f"d{d}.txt").write_bytes(_corrupt(draw, draw(texts).encode("utf-8")))
        if not _rarely(draw):
            (topic / "refs").mkdir()
            (topic / "refs" / "r0.txt").write_bytes(_corrupt(draw, draw(texts).encode("utf-8")))


def _write_summaries(draw, path: Path) -> None:
    if draw(st.booleans()):
        path.mkdir()
        for t in range(draw(st.integers(0, 3))):
            (path / f"t{t}.txt").write_bytes(_corrupt(draw, draw(texts).encode("utf-8")))
        return
    records = [
        _pick(draw, st.just({"topic_id": _pick(draw, st.sampled_from(["t0", "t1", "t2"])),
                             "summary": _pick(draw, texts)}), non_strings)
        for _ in range(draw(st.integers(1, 4)))
    ]
    path.write_bytes(_jsonl(draw, records))


def _write_vectors(draw, path: Path) -> None:
    dim = _pick(draw, st.integers(2, 3), st.just(1))
    records = [
        {"key": f"t{t}/d{d}/s{s}", "vector": [1.0 + t, float(d), float(s)][:dim]}
        for t in range(3)
        for d in range(3)
        for s in range(4)
    ]
    if _rarely(draw, 4):
        bad = st.fixed_dictionaries({"key": hostile, "vector": st.sampled_from([[], [1.0, 2.0], "v", [None]])})
        records[draw(st.integers(0, len(records) - 1))] = draw(st.one_of(bad, non_strings))
    path.write_bytes(_jsonl(draw, records))


def _write_run(draw, root: Path) -> list[str]:
    """Write one drawn set of inputs under ``root`` and return the argv."""
    layout = draw(st.sampled_from(["topic-dirs", "jsonl"]))
    if layout == "jsonl":
        corpus = root / "corpus.jsonl"
        n_topics = _pick(draw, st.integers(1, 3), st.just(0))
        corpus.write_bytes(_jsonl(draw, [_topic_record(draw, t) for t in range(n_topics)]))
    else:
        corpus = root / "corpus"
        _write_topic_dirs(draw, corpus)
    command = draw(st.sampled_from(["summarize", "evaluate", "ablate", "tune"]))
    argv = [command, "--input", str(corpus), "--layout", layout, "--out", str(root / "out")]
    unit = draw(st.sampled_from(["--budget-words", "--budget-bytes"]))
    argv += [unit, _pick(draw, st.sampled_from(["6", "40"]), st.sampled_from(["-1", "0", "1"]))]
    embedder = _pick(
        draw, st.sampled_from(["builtin:8", "file"]), st.sampled_from(["builtin:1", "builtin:x", "file:"])
    )
    if embedder == "file":
        _write_vectors(draw, root / "vectors.jsonl")
        embedder = f"file:{root / 'vectors.jsonl'}"
    argv += ["--embedder", embedder]
    optional = {
        "--method": st.sampled_from(["ours-final", "ours-cs", "comp1", "comp2", "comp3", "comp4"]),
        "--k-first": st.sampled_from(["2", "3", "1"]),
        "--max-nodes": st.sampled_from(["1", "4", "0", "-1"]),
        "--metrics": st.sampled_from(["r1", "r2,rl,rsu4", "bogus", ","]),
        "--report": st.sampled_from(["recall", "f1"]),
        "--workers": st.sampled_from(["1", "2"]),
        "--seed": st.sampled_from(["0", "-5", "7"]),
        "--delta": st.sampled_from(["0.5", "1.5"]),
    }
    for flag, values in optional.items():
        if _rarely(draw, 4):
            argv += [flag, draw(values)]
    if command == "summarize":
        argv += ["--format", draw(st.sampled_from(["files", "jsonl"]))]
        if draw(st.booleans()):
            argv.append("--dump-trees")
    elif command == "evaluate" and draw(st.booleans()):
        _write_summaries(draw, root / "summaries")
        argv += ["--summaries", str(root / "summaries")]
    elif command == "tune":
        argv += ["--deltas", "0.5", "--ks", _pick(draw, st.just("2"), st.just("1")),
                 "--weights", _pick(draw, st.just("0.8,0.1,0.1"), st.just("1,0"))]
    return argv


def _snapshot(root: Path, out: Path) -> dict[str, bytes | None]:
    """Every path under ``root`` outside ``out``, with its bytes if a file."""
    return {
        str(p): (p.read_bytes() if p.is_file() else None)
        for p in root.rglob("*")
        if out not in p.parents and p != out
    }


@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.data())
def test_hostile_inputs_exit_0_2_or_3_and_write_only_under_out(data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        argv = _write_run(data.draw, root)
        out = root / "out"
        before = _snapshot(root, out)
        cwd_before = sorted(os.listdir())
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a flag value
                code = exc.code
        event(f"{argv[0]} exit {code}")
        assert code in (0, 2, 3), (argv, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
        assert _snapshot(root, out) == before, argv
        assert sorted(os.listdir()) == cwd_before

"""Golden outputs: the SHA-256 of every file the command line writes for a
fixed set of generated corpora and commands.

``tests/data/golden_outputs.json`` holds the digests, and
``tests/test_golden.py`` checks them. Regenerate the manifest with::

    PYTHONPATH=src python tests/golden.py

Every regeneration changes a check, so the outputs that moved, and why,
belong in ``CHANGES.md``.

The corpora come from ``write_corpora``, which uses only the standard
library and numpy and gives the same bytes for the same code. They cover
both layouts, the builtin and the ``file:`` embedder, word and byte budgets,
and one ``file:`` corpus whose largest vector component lies far outside
[0.5, 1). Every command runs with relative paths from the corpora's
directory, and ``config.txt`` is compared without its ``out =`` line.

``comp4``'s outputs and ``ablate``'s (which runs comp4) depend on the BLAS
kernel: numpy's dot products sum in the kernel's order. Their digests are
kept apart, tagged with the kernel they were made under, and made in a
fresh interpreter that selects that kernel through ``OPENBLAS_CORETYPE``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from helpers import blas_kernels_selectable

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "data" / "golden_outputs.json"
KERNEL = "Haswell"

METHODS = ("ours-final", "ours-cs", "comp1", "comp2", "comp3", "comp4")

# name: (layout, embedder, budget flags, vector dim and largest |component|
# for the file provider, or None for the builtin one)
CORPORA = {
    "dirs-builtin": ("topic-dirs", "builtin:128", ["--budget-words", "60"], None),
    "jsonl-file": ("jsonl", "file", ["--budget-bytes", "380"], (16, 0.75)),
    "dirs-file-wide": ("topic-dirs", "file", ["--budget-words", "50", "--k-first", "2"], (12, 1000.0)),
}

TUNE_GRID = ["--deltas", "0.7,0.9", "--ks", "2,3", "--weights", "0.8,0.1,0.1;0.5,0.3,0.2"]

TOPICS, DOCS, SENTENCES, CLUSTERS = 3, 6, 7, 2


def _vocabulary(rng: random.Random) -> list[str]:
    """Two- and three-syllable words of consonant-vowel pairs: none is an
    abbreviation the segmenter keeps a period after."""
    syllables = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
    words = {"".join(rng.choices(syllables, k=rng.choice((2, 3)))) for _ in range(400)}
    return sorted(words)


def _sentence(words: list[str]) -> str:
    return " ".join([words[0].capitalize(), *words[1:]]) + "."


def _topic(rng: random.Random, vocab: list[str]):
    """One topic: documents as (sentence, kind, index) lists, each document's
    cluster, and two references built from the planted facts."""
    topic_facts = [rng.sample(vocab, rng.randint(6, 10)) for _ in range(3)]
    cluster_facts = [[rng.sample(vocab, rng.randint(6, 10)) for _ in range(2)] for _ in range(CLUSTERS)]
    doc_cluster = [d % CLUSTERS for d in range(DOCS)]
    rng.shuffle(doc_cluster)
    documents = []
    for cluster in doc_cluster:
        planted = [("topic", i) for i in rng.sample(range(3), 2)]
        planted += [("cluster", i) for i in range(2)]
        order = planted + [("filler", -1)] * (SENTENCES - len(planted))
        rng.shuffle(order)
        sentences = []
        for kind, i in order:
            if kind == "filler":
                words = rng.choices(vocab, k=rng.randint(5, 12))
            else:
                # Half the facts are stated verbatim: equal sentences tie.
                words = list(topic_facts[i] if kind == "topic" else cluster_facts[cluster][i])
                if rng.random() < 0.5:
                    words[rng.randrange(len(words))] = rng.choice(vocab)
            sentences.append((_sentence(words), kind, i))
        documents.append(sentences)
    facts = [_sentence(f) for f in topic_facts] + [_sentence(f) for fs in cluster_facts for f in fs]
    references = [" ".join(rng.sample(facts, 4)) for _ in range(2)]
    return documents, doc_cluster, references


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _vectors(seed: int, topic_id: str, documents, doc_cluster, dim: int, top: float) -> dict[str, list[float]]:
    """Sentence vectors with the topic's structure: a topic direction, a
    cluster direction and one direction per fact, plus noise, scaled so the
    largest component is ``top``."""
    rng = np.random.default_rng([seed, int(topic_id[1:])])
    topic_dir = _unit(rng, dim)
    cluster_dirs = [_unit(rng, dim) for _ in range(CLUSTERS)]
    fact_dirs = {"topic": [_unit(rng, dim) for _ in range(3)], "cluster": [_unit(rng, dim) for _ in range(2)]}
    keys, rows = [], []
    for d, sentences in enumerate(documents):
        cluster = cluster_dirs[doc_cluster[d]]
        for s, (_, kind, i) in enumerate(sentences):
            if kind == "topic":
                vec = 0.8 * topic_dir + fact_dirs["topic"][i]
            elif kind == "cluster":
                vec = 0.5 * topic_dir + 0.8 * cluster + fact_dirs["cluster"][i]
            else:
                vec = 0.3 * topic_dir + 0.3 * cluster + _unit(rng, dim)
            keys.append(f"{topic_id}/d{d}/s{s}")
            rows.append(vec + 0.3 * rng.standard_normal(dim) / np.sqrt(dim))
    matrix = np.array(rows)
    matrix *= top / np.abs(matrix).max()
    return dict(zip(keys, matrix.tolist()))


def write_corpora(root: Path, seed: int = 23) -> None:
    """Write every corpus of ``CORPORA`` under ``root``: ``<name>`` (a
    directory of topics or ``<name>.jsonl``) and, for the file provider,
    ``<name>.vectors.jsonl``."""
    for c, (name, (layout, _, _, vectors)) in enumerate(CORPORA.items()):
        rng = random.Random(f"treesum-golden:{seed}:{c}")
        vocab = _vocabulary(rng)
        records, keyed = [], {}
        for t in range(TOPICS):
            topic_id = f"t{t}"
            documents, doc_cluster, references = _topic(rng, vocab)
            texts = [" ".join(text for text, _, _ in sentences) for sentences in documents]
            records.append((topic_id, texts, references))
            if vectors:
                keyed.update(_vectors(seed + c, topic_id, documents, doc_cluster, *vectors))
        if layout == "jsonl":
            lines = (
                json.dumps({
                    "topic_id": topic_id,
                    "documents": [{"doc_id": f"doc{d}", "text": text} for d, text in enumerate(texts)],
                    "references": references,
                }) + "\n"
                for topic_id, texts, references in records
            )
            (root / f"{name}.jsonl").write_text("".join(lines), encoding="utf-8")
        else:
            for topic_id, texts, references in records:
                for sub, items in (("docs", texts), ("refs", references)):
                    folder = root / name / topic_id / sub
                    folder.mkdir(parents=True)
                    for i, text in enumerate(items):
                        (folder / f"{sub[0]}{i}.txt").write_text(text + "\n", encoding="utf-8")
        if vectors:
            lines = (json.dumps({"key": key, "vector": vec}) + "\n" for key, vec in keyed.items())
            (root / f"{name}.vectors.jsonl").write_text("".join(lines), encoding="utf-8")


def runs() -> dict[str, list[str]]:
    """Every command of the manifest by run name, its ``--out`` ``out/<name>``."""
    out = {}
    for name, (layout, embedder, budget, _) in CORPORA.items():
        source = f"{name}.jsonl" if layout == "jsonl" else name
        if embedder == "file":
            embedder = f"file:{name}.vectors.jsonl"
        common = ["--input", source, "--layout", layout, "--embedder", embedder, *budget, "--seed", "7"]
        for method in METHODS:
            for fmt in ("files", "jsonl"):
                out[f"{name}/summarize-{method}-{fmt}"] = [
                    "summarize", *common, "--method", method, "--format", fmt, "--dump-trees"
                ]
        out[f"{name}/evaluate"] = ["evaluate", *common, "--metrics", "r1,r2,rl,rsu4"]
        out[f"{name}/ablate"] = ["ablate", *common]
        out[f"{name}/tune"] = ["tune", *common, *TUNE_GRID]
    return {name: [*argv, "--out", f"out/{name}"] for name, argv in out.items()}


def kernel_dependent(run: str) -> bool:
    """Whether a run's outputs move with the BLAS kernel (comp4's and ablate's)."""
    return run.endswith("/ablate") or "-comp4-" in run


def _digest(path: Path, is_config: bool) -> str:
    data = path.read_bytes()
    if is_config:
        data = b"".join(line for line in data.splitlines(keepends=True) if not line.startswith(b"out ="))
    return hashlib.sha256(data).hexdigest()


def digests(dependent: bool) -> dict[str, str]:
    """The digest of every output file of the kernel-dependent runs, or of
    the others, by ``<run>/<file>``, run in this process on fresh corpora."""
    from treesum.cli import main

    found = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_corpora(root)
        os.chdir(root)
        try:
            for run, argv in runs().items():
                if kernel_dependent(run) != dependent:
                    continue
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
                if code != 0:
                    raise RuntimeError(f"{run} exited {code}")
                out = root / "out" / run
                for path in sorted(out.iterdir()):
                    found[f"{run}/{path.name}"] = _digest(path, path.name == "config.txt")
        finally:
            os.chdir(cwd)
    return found


def kernel_digests(kernel: str = KERNEL) -> dict[str, str]:
    """``digests(dependent=True)`` in a fresh interpreter under ``kernel``."""
    src = HERE.parent / "src"
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--kernel-digests"],
        env=env, capture_output=True, text=True, timeout=600,
    )
    if result.returncode != 0:
        raise RuntimeError(result.stderr)
    return json.loads(result.stdout)


def main(argv: list[str]) -> int:
    if argv == ["--kernel-digests"]:
        print(json.dumps(digests(dependent=True)))
        return 0
    if argv:
        print("usage: python tests/golden.py", file=sys.stderr)
        return 2
    if not blas_kernels_selectable():
        print("the kernel-dependent digests need OpenBLAS with DYNAMIC_ARCH on x86-64", file=sys.stderr)
        return 2
    manifest = {
        "portable": digests(dependent=False),
        "kernel": KERNEL,
        "kernel_dependent": kernel_digests(),
    }
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(manifest['portable']) + len(manifest['kernel_dependent'])} digests to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The three benchmark workloads: corpus shape and CLI commands per round.

A round is the fixed list of CLI commands a workload times; a run repeats
whole rounds until its measuring time is used up. See README.md for why each
workload exists and which layers it stresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from corpus_gen import CorpusSpec

# 2 deltas x 6 weight triples x 2 cluster counts = 24 grid points.
TUNE_DELTAS = "0.7,0.9"
TUNE_WEIGHTS = "0.8,0.1,0.1;0.6,0.2,0.2;0.5,0.3,0.2;0.4,0.4,0.2;0.7,0.0,0.3;1.0,0.0,0.0"
TUNE_KS = "2,3"
TUNE_POINTS = 2 * 6 * 2
ABLATE_METHODS = 6


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: CorpusSpec
    embedder: str  # "file" means the generated vectors.jsonl
    setup_repeats: int

    def paths(self, work_dir: Path) -> dict[str, Path]:
        return {
            "input": work_dir / ("corpus.jsonl" if self.corpus.layout == "jsonl" else "corpus"),
            "vectors": work_dir / "vectors.jsonl",
            "out": work_dir / "out",
        }

    def embedder_spec(self, work_dir: Path) -> str:
        if self.embedder == "file":
            return f"file:{self.paths(work_dir)['vectors']}"
        return self.embedder

    def input_flags(self, work_dir: Path) -> list[str]:
        p = self.paths(work_dir)
        return [
            "--input", str(p["input"]),
            "--layout", self.corpus.layout,
            "--embedder", self.embedder_spec(work_dir),
        ]

    def commands(self, work_dir: Path) -> list[tuple[str, list[str]]]:
        """(label, argv) of every CLI command in one round, in order."""
        common = self.input_flags(work_dir)
        out = self.paths(work_dir)["out"]
        if self.name == "multinews-264w":
            return [
                ("summarize", ["summarize", *common, "--method", "ours-final",
                               "--budget-words", "264", "--format", "jsonl",
                               "--out", str(out / "summarize")]),
                ("evaluate", ["evaluate", *common,
                              "--summaries", str(out / "summarize" / "summaries.jsonl"),
                              "--budget-words", "264", "--metrics", "r1,r2,rl,rsu4",
                              "--out", str(out / "evaluate")]),
            ]
        if self.name == "duc04-ablate-665b":
            return [("ablate", ["ablate", *common, "--budget-bytes", "665",
                                "--out", str(out / "ablate")])]
        return [("tune", ["tune", *common, "--budget-words", "100", "--objective", "r1",
                          "--workers", "1", "--deltas", TUNE_DELTAS, "--weights", TUNE_WEIGHTS,
                          "--ks", TUNE_KS, "--out", str(out / "tune")])]

    def items_per_round(self) -> int:
        if self.name == "duc04-ablate-665b":
            return self.corpus.topics * ABLATE_METHODS
        if self.name == "duc02-tune-100w":
            return TUNE_POINTS
        return self.corpus.topics


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "multinews-264w",
            CorpusSpec(topics=16, docs=10, sentences=30, clusters=3, references=2,
                       reference_words=280, layout="jsonl", vector_dim=384),
            embedder="file", setup_repeats=5,
        ),
        Workload(
            "duc04-ablate-665b",
            CorpusSpec(topics=10, docs=10, sentences=30, clusters=3, references=4,
                       reference_words=110, layout="topic-dirs"),
            embedder="builtin:128", setup_repeats=9,
        ),
        Workload(
            "duc02-tune-100w",
            CorpusSpec(topics=8, docs=10, sentences=30, clusters=3, references=4,
                       reference_words=110, layout="topic-dirs"),
            embedder="builtin:128", setup_repeats=9,
        ),
    )
}

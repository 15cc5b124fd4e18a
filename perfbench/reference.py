"""Re-measure the baseline rows that ROADMAP.md quotes, on a generated corpus.

The corpus matches the baseline's shape: 20 topics x 10 documents x 30
sentences, ``builtin:128`` vectors, a 100-word budget, one thread unless
stated. Each figure is one timed call of the public function named beside
it; set-up is done once before and is not part of any figure.

Usage, from the repository root:

    python3 perfbench/reference.py [--seed 1]
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from corpus_gen import CorpusSpec, generate, load_vocabulary  # noqa: E402

from treesum.config import config_from_mapping  # noqa: E402
from treesum.corpus import load_corpus  # noqa: E402
from treesum.embedding import embed_corpus  # noqa: E402
from treesum.experiments import full_grid, run_grid_search  # noqa: E402
from treesum.pipeline import resolve_max_nodes, summarize_corpus  # noqa: E402
from treesum.rouge import evaluate_corpus  # noqa: E402
from treesum.scoring import Hyperparams  # noqa: E402
from treesum.selection import Budget  # noqa: E402
from treesum.tree import kmeans  # noqa: E402
from treesum.variants import VariantSpec  # noqa: E402

SPEC = CorpusSpec(topics=20, docs=10, sentences=30, clusters=3, references=4,
                  reference_words=110, layout="topic-dirs")


def timed(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def main() -> int:
    parser = argparse.ArgumentParser(description="re-measure the ROADMAP baseline rows")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    work_dir = ROOT / ".perfbench_tmp" / f"reference-{args.seed}"
    try:
        corpus_files = generate(SPEC, args.seed, load_vocabulary(ROOT / "tests/data/porter_vocabulary.txt"), work_dir)
        config = config_from_mapping({"input": str(corpus_files.input_path), "embedder": "builtin:128"})

        def setup():
            corpus = load_corpus(config.input, config.layout)
            return corpus, embed_corpus(corpus, config.make_provider(corpus))

        embed_s, (corpus, embedded) = timed(setup)
        budget = Budget("words", 100)
        hp = Hyperparams()
        cap = resolve_max_nodes(corpus, budget, None)

        def summarize(method, workers=1):
            spec = VariantSpec(kind=method, hp=hp, budget=budget, seed=0)
            return summarize_corpus(corpus, embedded, spec, cap, workers=workers)

        rows = [("set-up: load + builtin:128 provider + embed", embed_s)]
        ours_s, summaries = timed(lambda: summarize("ours_final"))
        rows.append(("ours-final, 20 topics", ours_s))
        rows.append(("ours-final, 20 topics, --workers 2", timed(lambda: summarize("ours_final", 2))[0]))
        texts = {tid: s.text for tid, s in summaries.items()}
        rows.append(("ROUGE r1,r2,rl,rsu4 on those summaries",
                     timed(lambda: evaluate_corpus(texts, corpus, budget))[0]))
        rows.append(("comp4, 20 topics", timed(lambda: summarize("comp4"))[0]))
        topic = corpus.topics[0]
        vectors = list(embedded.sentence_vectors_for(topic).values())
        rows.append((f"one kmeans, {len(vectors)} x {embedded.dim} vectors, k=3",
                     timed(lambda: kmeans(vectors, 3, seed=0))[0]))
        grid = full_grid(deltas=[0.9], weight_triples=[(0.8, 0.1, 0.1), (0.6, 0.2, 0.2)], ks=[3])
        grid_s = timed(lambda: run_grid_search(corpus, embedded, budget, grid, seed=0))[0]
        rows.append((f"tune, per grid point ({len(grid)} points)", grid_s / len(grid)))
        for label, seconds in rows:
            print(f"{seconds:8.3f} s  {label}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

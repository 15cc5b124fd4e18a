"""Timed part of one benchmark run, executed in its own process.

``run.py`` starts this script after generating the corpus, so the peak RSS
it reads from the finished child belongs to the workload alone. The script
times set-up, then repeats whole rounds of the workload's CLI commands
through ``treesum.cli.main`` until ``--seconds`` of rounds have run, and
writes everything it measured to ``<work-dir>/result.json``.

With ``--trace 1`` it alternates untraced and traced rounds; the traced ones
give the per-layer metrics, and their difference in wall time is the
tracing overhead.

Usage: python3 perfbench/runner.py --workload NAME --work-dir DIR
       --seconds S --trace 0|1 [--trace-out FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import treesum.cli  # noqa: E402
from treesum.config import config_from_mapping  # noqa: E402
from treesum.corpus import load_corpus  # noqa: E402
from treesum.embedding import embed_corpus  # noqa: E402

from layertrace import Tracer  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

METHODS = ("ours_final", "ours_cs", "comp1", "comp2", "comp3", "comp4")
ROUGE_METRICS = ("r1", "r2", "rl", "rsu4")


def time_setup(workload: Workload, work_dir: Path) -> tuple[dict, int]:
    """One set-up as a user pays it: load, build the provider, embed."""
    p = workload.paths(work_dir)
    start = time.perf_counter()
    config = config_from_mapping(
        {
            "input": str(p["input"]),
            "layout": workload.corpus.layout,
            "embedder": workload.embedder_spec(work_dir),
        }
    )
    corpus = load_corpus(config.input, config.layout)
    embed_corpus(corpus, config.make_provider(corpus))
    end = time.perf_counter()
    step = {"seconds": end - start, "start": start, "end": end}
    return step, sum(len(d.sentences) for t in corpus for d in t.documents)


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def run_round(workload: Workload, work_dir: Path) -> dict:
    """Run every command of one round; record wall time, exit code, output digest."""
    out = {"commands": []}
    for label, argv in workload.commands(work_dir):
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = treesum.cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
            print(f"{label} raised {exc!r}", file=sys.stderr)
            rc = -1
        end = time.perf_counter()
        out_dir = Path(argv[argv.index("--out") + 1])
        digest = _digest(out_dir) if rc == 0 and out_dir.is_dir() else ""
        out["commands"].append(
            {"label": label, "seconds": end - start, "start": start, "end": end, "rc": rc, "digest": digest}
        )
    out["seconds"] = sum(c["seconds"] for c in out["commands"])
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced round; absent when their function is."""
    have = tracer.installed
    totals = tracer.totals()
    counts = tracer.counts
    m: dict[str, float] = {}

    def put(name, needed, value):
        if needed in have:
            m[name] = value

    put("corpus.load_s", "load_corpus", totals.get("corpus.load", 0.0))
    if have & {"provider_file", "provider_builtin_tfidf"}:
        m["embedding.provider_s"] = totals.get("embedding.provider", 0.0)
    put("embedding.embed_s", "embed_corpus", totals.get("embedding.embed", 0.0))
    put("embedding.cosine_calls", "cosine_similarity", counts["embedding.cosine_calls"])
    put("tree.build_s", "build_class_tree", totals.get("tree.build", 0.0))
    put("tree.nodes", "build_class_tree", counts["tree.nodes"])
    put("tree.kmeans_s", "kmeans", totals.get("tree.kmeans", 0.0))
    put("tree.kmeans_calls", "kmeans", counts["tree.kmeans_calls"])
    put("tree.kmeans_unsplit", "kmeans", counts["tree.kmeans_unsplit"])
    calls = counts["tree.kmeans_calls"]
    put("tree.split_ratio", "kmeans", (calls - counts["tree.kmeans_unsplit"]) / calls if calls else 0.0)
    put("scoring.score_cs_calls", "score_cs", counts["scoring.score_cs_calls"])
    put("scoring.score_nr_calls", "score_nr", counts["scoring.score_nr_calls"])
    put("selection.select_s", "select_summary", totals.get("selection.select", 0.0))
    put("selection.picks", "run_selection", counts["selection.picks"])
    for method in METHODS:
        put(f"variants.{method}_s", "summarize_topic", totals.get(f"variants.{method}", 0.0))
    put("pipeline.summarize_corpus_s", "summarize_corpus", totals.get("pipeline.summarize_corpus", 0.0))
    put("pipeline.topic_sum_s", "summarize_topic",
        sum(v for k, v in totals.items() if k.startswith("variants.")))
    put("stem.calls", "porter_stem", counts["stem.calls"])
    put("experiments.grid_points", "run_grid_search", counts["experiments.grid_points"])
    put("experiments.tree_builds", "build_class_tree", counts["experiments.tree_builds"])
    if "evaluate_corpus" in have:
        scored = tracer.summaries_scored
        m["experiments.distinct_summary_ratio"] = (
            len(tracer.distinct_summaries) / scored if scored else 0.0
        )
        for metric in ROUGE_METRICS:
            m[f"rouge.{metric}_s"] = _time_one_metric(tracer, metric)
    return m


def _time_one_metric(tracer: Tracer, metric: str) -> float:
    """One evaluate_corpus call with a single metric on the round's first summaries."""
    if tracer.first_evaluate is None:
        return 0.0
    original, bound = tracer.first_evaluate
    arguments = dict(bound, metrics=[metric])
    start = time.perf_counter()
    try:
        original(**arguments)
    except TypeError:
        return 0.0
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    work_dir = Path(args.work_dir)

    result = {"rounds": [], "traced_rounds": [], "layers": []}
    tracer = None
    measured = 0.0
    with SpeedSampler() as sampler:
        setup = [time_setup(workload, work_dir) for _ in range(workload.setup_repeats)]
        result["setup"] = [s for s, _ in setup]
        result["sentences"] = setup[0][1]
        while measured < args.seconds or not result["rounds"]:
            plain = run_round(workload, work_dir)
            result["rounds"].append(plain)
            measured += plain["seconds"]
            if args.trace:
                tracer = Tracer()
                tracer.install()
                try:
                    traced = run_round(workload, work_dir)
                finally:
                    tracer.uninstall()
                result["traced_rounds"].append(traced)
                result["layers"].append(layer_metrics(tracer))
                measured += traced["seconds"]
    for r in result["rounds"] + result["traced_rounds"]:
        for step in r["commands"]:
            sampler.annotate(step)
    for step in result["setup"]:
        sampler.annotate(step)

    if tracer is not None:
        captures = tracer.kmeans_captures
        np.savez(
            work_dir / "kmeans_captures.npz",
            **{f"points{i}": c["points"] for i, c in enumerate(captures)},
            **{f"labels{i}": c["labels"] for i, c in enumerate(captures)},
            k=np.array([c["k"] for c in captures], dtype=int),
            inertia=np.array([c["inertia"] for c in captures], dtype=float),
        )
        result["kmeans_captures"] = len(captures)
        result["kmeans_wrapped"] = "kmeans" in tracer.installed
        if args.trace_out:
            tracer.write(
                Path(args.trace_out),
                {"workload": workload.name, "round_s": traced["seconds"],
                 "untraced_round_s": plain["seconds"]},
            )
    # Per-layer figures: median over traced rounds; counts repeat exactly.
    if result["layers"]:
        names = result["layers"][-1].keys()
        result["layer_medians"] = {
            n: statistics.median(r[n] for r in result["layers"] if n in r) for n in names
        }
        result["layer_medians"]["corpus.sentences"] = result["sentences"]
    (work_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Four subcommands cover the pipeline end to end:

* ``summarize``: corpus in, one summary per topic out.
* ``evaluate``: score summaries (given or freshly generated) against the
  corpus' reference summaries.
* ``ablate``: run every method on the same corpus and print the comparison
  table.
* ``tune``: grid-search the scoring hyperparameters on a held-out corpus.

Flags can also be given through ``--config FILE`` (flat ``key = value``
lines); explicit flags win. Exit codes: 0 on success, 2 for input or
configuration errors, 3 for embedding-provider errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import (
    BUDGET_KEYS,
    CONFIG_KEYS,
    ConfigError,
    RunConfig,
    config_from_mapping,
    config_to_text,
    load_config_file,
)
from .corpus import Corpus, CorpusError, is_unicode_text, jsonl_records, load_corpus, read_text, text_files
from .embedding import (
    MAX_BUILTIN_DIM,
    EmbeddedCorpus,
    ProviderError,
    document_key,
    embed_corpus,
    topic_keys,
)
from .experiments import (
    GridPoint,
    ablation_csv,
    ablation_table,
    full_grid,
    grid_csv,
    run_ablation,
    run_grid_search,
)
from .pipeline import resolve_max_nodes, summarize_corpus
from .rouge import EvaluationError, evaluate_corpus
from .scoring import Hyperparams
from .selection import Summary
from .tree import tree_to_dict
from .variants import METHOD_TABLE, VariantSpec


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file; flags override it")
    parser.add_argument("--input", help="corpus root directory or JSONL file")
    parser.add_argument("--layout", choices=["topic-dirs", "jsonl"])
    parser.add_argument("--method", choices=[name.replace("_", "-") for name in METHOD_TABLE])
    budget = parser.add_mutually_exclusive_group()
    budget.add_argument("--budget-words", type=int, metavar="N")
    budget.add_argument("--budget-bytes", type=int, metavar="N")
    parser.add_argument("--embedder", help=f"file:PATH, builtin:DIM (DIM 2 to {MAX_BUILTIN_DIM}) or remote:URL")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--k-first", type=int)
    parser.add_argument("--k-rest", type=int)
    parser.add_argument("--delta", type=float)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--beta", type=float)
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--max-nodes", type=int)
    parser.add_argument("--metrics", help="comma list from r1,r2,rl,rsu4")
    parser.add_argument("--report", choices=["recall", "f1"])
    parser.add_argument("--out")
    parser.add_argument("--workers", type=int)


def _build_config(args: argparse.Namespace) -> RunConfig:
    values = load_config_file(args.config) if args.config else {}
    flags = {}
    for key in CONFIG_KEYS:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            flags[key] = str(value)
    if any(key in flags for key in BUDGET_KEYS):
        # A budget flag replaces the file's budget, whichever key names it.
        values = {key: raw for key, raw in values.items() if key not in BUDGET_KEYS}
    config = config_from_mapping({**values, **flags})
    if not config.input:
        raise ConfigError("no corpus given; pass --input or set it in the config file")
    return config


def _load_and_embed(config: RunConfig) -> tuple[Corpus, EmbeddedCorpus]:
    corpus = load_corpus(config.input, config.layout)
    provider = config.make_provider(corpus)
    return corpus, embed_corpus(corpus, provider)


def _generate_summaries(config: RunConfig, corpus: Corpus, embedded: EmbeddedCorpus):
    spec = VariantSpec(
        kind=config.method, hp=config.hyperparams(), budget=config.budget(), seed=config.seed
    )
    cap = resolve_max_nodes(corpus, config.budget(), config.max_nodes)
    if config.k_first > max(2, cap - 1):
        print(
            f"warning: k-first {config.k_first} exceeds the estimated sentence budget "
            f"({cap} nodes); second-layer nodes beyond the budget never contribute sentences",
            file=sys.stderr,
        )
    return summarize_corpus(corpus, embedded, spec, cap, workers=config.workers)


def _write_outputs(config: RunConfig, files: dict[str, str]) -> Path:
    """Write ``config.txt`` and then each ``{name: text}`` of ``files`` under ``--out``.

    A ``config.txt`` among ``files`` (the summary of a topic named
    ``config``) would overwrite the config echo, so it is refused before
    anything is written. An ``--out`` that cannot hold the files is a
    ``ConfigError`` naming the path.
    """
    out_dir = Path(config.out)
    if "config.txt" in files:
        raise ConfigError(
            f"the summary of topic 'config' would overwrite {out_dir / 'config.txt'}; "
            "use --format jsonl"
        )
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in {"config.txt": config_to_text(config), **files}.items():
            (out_dir / name).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write the outputs under {out_dir}: {exc}") from exc
    return out_dir


def _trees_json(config: RunConfig, corpus: Corpus, summaries: dict[str, Summary]) -> str:
    """The class tree each topic's summary was selected from, members named
    by document key (or sentence key for comp4's sentence tree); ``null`` for
    the methods that select without a tree."""
    by_sentence = METHOD_TABLE[config.method.replace("-", "_")].unit == "sentences"
    dumps = {}
    for topic in corpus:
        tid, tree = topic.topic_id, summaries[topic.topic_id].tree
        if by_sentence:
            names = topic_keys(topic)
        else:
            names = [document_key(tid, d.doc_index) for d in topic.documents]
        dumps[tid] = None if tree is None else tree_to_dict(tree, names)
    return json.dumps(dumps, indent=2)


def cmd_summarize(args: argparse.Namespace) -> int:
    config = _build_config(args)
    corpus, embedded = _load_and_embed(config)
    summaries = _generate_summaries(config, corpus, embedded)

    if args.format == "jsonl":
        records = (
            {
                "topic_id": topic_id,
                "summary": summary.text,
                "sentences": [
                    {"text": s.text, "node_id": s.node_id, "doc_id": s.doc_id, "position": s.position_1based}
                    for s in summary.sentences
                ],
            }
            for topic_id, summary in summaries.items()
        )
        files = {"summaries.jsonl": "".join(json.dumps(record) + "\n" for record in records)}
    else:
        files = {f"{topic_id}.txt": summary.text + "\n" for topic_id, summary in summaries.items()}
    if args.dump_trees:
        files["trees.json"] = _trees_json(config, corpus, summaries)
    out_dir = _write_outputs(config, files)
    print(f"wrote {len(summaries)} summaries to {out_dir}")
    return 0


def _read_summaries(path: str) -> dict[str, str]:
    """Summaries by topic id, from a directory of ``<topic_id>.txt`` files
    (skipping the ``config.txt`` a run echoes next to them) or from a
    summaries JSONL file."""
    source = Path(path)
    if source.is_dir():
        summaries = {
            p.stem: read_text(p, EvaluationError).strip() for p in text_files(source) if p.name != "config.txt"
        }
        if not summaries:
            raise EvaluationError(f"no *.txt summaries found under {source}")
        return summaries
    if not source.is_file():
        raise EvaluationError(f"summaries path {source} does not exist")
    summaries = {}
    first_line: dict[str, int] = {}
    for line_no, record in jsonl_records(source, EvaluationError):
        fields = record if isinstance(record, dict) else {}
        topic_id, summary = fields.get("topic_id"), fields.get("summary")
        if not isinstance(topic_id, str) or not isinstance(summary, str):
            raise EvaluationError(f"record on line {line_no} of {source} needs string topic_id and summary")
        if not (is_unicode_text(topic_id) and is_unicode_text(summary)):
            raise EvaluationError(f"record on line {line_no} of {source} holds a lone surrogate escape")
        if topic_id in first_line:
            raise EvaluationError(
                f"topic_id {topic_id!r} appears on lines {first_line[topic_id]} and {line_no} of {source}"
            )
        first_line[topic_id] = line_no
        summaries[topic_id] = summary
    if not summaries:
        raise EvaluationError(f"no summary records found in {source}")
    return summaries


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _build_config(args)
    if args.summaries:
        corpus, summaries = load_corpus(config.input, config.layout), _read_summaries(args.summaries)
    else:
        corpus, embedded = _load_and_embed(config)
        summaries = {tid: s.text for tid, s in _generate_summaries(config, corpus, embedded).items()}

    report = evaluate_corpus(
        summaries, corpus, config.budget(), metrics=config.metrics, report_kind=config.report
    )
    table = report.to_text_table()
    _write_outputs(config, {"report.csv": report.to_csv(), "report.txt": table})
    print(table, end="")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    config = _build_config(args)
    corpus, embedded = _load_and_embed(config)
    rows = run_ablation(
        corpus,
        embedded,
        config.hyperparams(),
        config.budget(),
        config.seed,
        metrics=config.metrics,
        report_kind=config.report,
        max_nodes=config.max_nodes,
        workers=config.workers,
    )
    table = ablation_table(rows, config.metrics, config.report)
    _write_outputs(config, {"ablation.csv": ablation_csv(rows, config.metrics), "ablation.txt": table})
    print(table, end="")
    return 0


def _parse_grid(config: RunConfig, base: Hyperparams) -> list[GridPoint]:
    """The ``tune`` grid the config restricts, every point checked as hyperparameters."""
    try:
        deltas = [float(v) for v in config.deltas.split(",") if v.strip()] if config.deltas else None
        ks = [int(v) for v in config.ks.split(",") if v.strip()] if config.ks else None
        triples = None
        if config.weights:
            triples = []
            for chunk in config.weights.split(";"):
                triple = tuple(float(v) for v in chunk.split(","))
                if len(triple) != 3:
                    raise ConfigError(f"--weights triple must have 3 values, got {chunk!r}")
                triples.append(triple)
        grid = full_grid(deltas=deltas, weight_triples=triples, ks=ks)
        for point in grid:
            point.hyperparams(base)
    except ValueError as exc:
        raise ConfigError(f"bad tune grid: {exc}") from exc
    return grid


def cmd_tune(args: argparse.Namespace) -> int:
    config = _build_config(args)
    base_hp = config.hyperparams()
    grid = _parse_grid(config, base_hp)
    objective = config.objective or "r1"
    corpus, embedded = _load_and_embed(config)
    best, results = run_grid_search(
        corpus,
        embedded,
        config.budget(),
        grid,
        seed=config.seed,
        objective_metric=objective,
        report_kind=config.report,
        base_hp=base_hp,
        max_nodes=config.max_nodes,
        workers=config.workers,
    )
    p = best.point
    best_text = (
        f"delta = {p.delta}\nalpha = {p.alpha}\nbeta = {p.beta}\ngamma = {p.gamma}\n"
        f"k-first = {p.k}\nobjective = {best.objective:.6f}\n"
    )
    _write_outputs(
        config, {"grid.csv": grid_csv(results, objective, config.report), "best.txt": best_text}
    )
    print(
        f"best: delta={p.delta} alpha={p.alpha} beta={p.beta} gamma={p.gamma} "
        f"k={p.k} ({objective} {config.report} {best.objective:.4f}; "
        f"{len(results)} configurations)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treesum",
        description="Extractive multi-document summarization over a class tree of documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", help="write one summary per topic")
    _add_common_flags(p_sum)
    p_sum.add_argument("--format", choices=["files", "jsonl"], default="files")
    p_sum.add_argument("--dump-trees", action="store_true", help="also write trees.json")
    p_sum.set_defaults(func=cmd_summarize)

    p_eval = sub.add_parser("evaluate", help="ROUGE-score summaries against references")
    _add_common_flags(p_eval)
    p_eval.add_argument("--summaries", help="directory of <topic_id>.txt files or a summaries JSONL")
    p_eval.set_defaults(func=cmd_evaluate)

    p_abl = sub.add_parser("ablate", help="compare all methods on one corpus")
    _add_common_flags(p_abl)
    p_abl.set_defaults(func=cmd_ablate)

    p_tune = sub.add_parser("tune", help="grid-search scoring hyperparameters")
    _add_common_flags(p_tune)
    p_tune.add_argument("--objective", choices=["r1", "r2", "rl", "rsu4"], help="default r1")
    p_tune.add_argument("--deltas", help="comma list restricting the delta axis")
    p_tune.add_argument("--ks", help="comma list restricting the cluster-count axis")
    p_tune.add_argument("--weights", help="semicolon-separated alpha,beta,gamma triples")
    p_tune.set_defaults(func=cmd_tune)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CorpusError, EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ProviderError as exc:
        print(f"embedding provider error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

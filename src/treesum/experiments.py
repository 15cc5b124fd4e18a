"""Ablation and hyperparameter-tuning harnesses.

``run_ablation`` scores every method on the same corpus and embeddings, so
the comparison isolates the method. ``run_grid_search`` scores the full
pipeline at each point of a grid. ``full_grid`` builds that grid as one
``Hyperparams`` per point, a run's own settings with the point's delta,
weights and first-layer cluster count: by default all weight triples on the
0.1-step simplex (66 of them), the 11 values of delta and the cluster counts
2 to 4, which makes 2178 points for the full sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

from .corpus import Corpus
from .embedding import EmbeddedCorpus
from .pipeline import map_topics, resolve_max_nodes
from .rouge import RougeReport, RougeScore, TokenMemo, evaluate_corpus, text_table
from .scoring import Hyperparams
from .selection import Budget
from .variants import METHODS, VariantSpec, summarize_topic_specs


@dataclass(frozen=True)
class AblationRow:
    method: str
    seed: int
    scores: dict[str, RougeScore]


def _reports(
    corpus: Corpus,
    embedded: EmbeddedCorpus,
    budget: Budget,
    specs: Iterable[VariantSpec],
    max_nodes: int | None,
    workers: int,
    metrics: Sequence[str],
    report_kind: str,
) -> Iterator[RougeReport]:
    """The ROUGE report of each of ``specs``' summaries, every reference
    stemmed once. ``specs`` is read after the node cap is resolved, so a bad
    ``max_nodes`` raises first."""
    cap = resolve_max_nodes(corpus, budget, max_nodes)
    specs = list(specs)
    per_topic = map_topics(
        corpus,
        embedded,
        workers,
        lambda topic, work: [summary.text for summary in summarize_topic_specs(topic, work, specs, cap)],
    )
    memo = TokenMemo()
    for texts in zip(*per_topic):
        summaries = {topic.topic_id: text for topic, text in zip(corpus, texts)}
        yield evaluate_corpus(
            summaries, corpus, budget, metrics=metrics, report_kind=report_kind, memo=memo
        )


def run_ablation(
    corpus: Corpus,
    embedded: EmbeddedCorpus,
    hp: Hyperparams,
    budget: Budget,
    seed: int,
    metrics: Sequence[str],
    report_kind: str,
    max_nodes: int | None = None,
    workers: int = 1,
) -> list[AblationRow]:
    """Evaluate every method on the same inputs; one row per method.

    All methods of a topic share one ``TopicWork``, and the methods that
    select from one context run as one lockstep selection
    (``summarize_topic_specs``): ours-final and ours-cs from one document
    tree, comp2 and comp3 from one flat clustering, so the six methods make
    four selection calls per topic. ROUGE then scores each method, stemming,
    tokenizing and tabling every reference once for the whole run. Results
    are identical to summarizing and evaluating each method on its own.
    """
    specs = (VariantSpec(kind=method, hp=hp, budget=budget, seed=seed) for method in METHODS)
    reports = _reports(corpus, embedded, budget, specs, max_nodes, workers, metrics, report_kind)
    return [
        AblationRow(method=method, seed=seed, scores=dict(report.mean))
        for method, report in zip(METHODS, reports)
    ]


def ablation_csv(rows: Sequence[AblationRow], metrics: Sequence[str]) -> str:
    lines = ["method,seed,metric,recall,precision,f1"]
    for row in rows:
        for metric in metrics:
            s = row.scores[metric]
            lines.append(
                f"{row.method},{row.seed},{metric},{s.recall:.6f},{s.precision:.6f},{s.f1:.6f}"
            )
    return "\n".join(lines) + "\n"


def ablation_table(rows: Sequence[AblationRow], metrics: Sequence[str], report_kind: str) -> str:
    body = [[row.method] + [f"{getattr(row.scores[m], report_kind):.4f}" for m in metrics] for row in rows]
    return text_table(["method"] + [f"{m}-{report_kind}" for m in metrics], body)


@dataclass(frozen=True)
class GridResult:
    point: Hyperparams
    objective: float


def simplex_triples(step: float = 0.1) -> list[tuple[float, float, float]]:
    """All (alpha, beta, gamma) with the given step that sum to 1.

    Enumerated over the integer lattice so members are exact multiples of
    the step; at step 0.1 there are 66 triples.
    """
    n = round(1.0 / step)
    triples = []
    for i in range(n + 1):
        for j in range(n + 1 - i):
            triples.append((i / n, j / n, (n - i - j) / n))
    return triples


def full_grid(
    deltas: Sequence[float] | None = None,
    weight_triples: Sequence[tuple[float, float, float]] | None = None,
    ks: Sequence[int] | None = None,
    base: Hyperparams = Hyperparams(),
) -> list[Hyperparams]:
    """The hyperparameter lattice, optionally restricted per axis: ``base``
    with each point's delta, weights and first-layer cluster count.

    Defaults: delta in {0.0, 0.1, ..., 1.0}, all 0.1-step weight triples,
    and cluster counts 2..4: 11 x 66 x 3 = 2178 points. An axis that names
    one value twice (0.7 and 0.70 are one delta) raises ValueError, since
    it would only repeat grid points; so do an empty axis and a point that
    is not valid ``Hyperparams``.
    """
    if deltas is None:
        deltas = [i / 10 for i in range(11)]
    if weight_triples is None:
        weight_triples = simplex_triples(0.1)
    if ks is None:
        ks = [2, 3, 4]
    for axis, values in (("delta", deltas), ("weight triple", weight_triples), ("k", ks)):
        repeated = [value for i, value in enumerate(values) if value in values[:i]]
        if repeated:
            raise ValueError(f"{axis} {repeated[0]} is named more than once")
    points = []
    for delta in deltas:
        for alpha, beta, gamma in weight_triples:
            for k in ks:
                points.append(replace(base, delta=delta, alpha=alpha, beta=beta, gamma=gamma, k_first=k))
    if not points:
        raise ValueError("empty hyperparameter grid")
    return points


def run_grid_search(
    corpus: Corpus,
    embedded: EmbeddedCorpus,
    budget: Budget,
    grid: Sequence[Hyperparams],
    seed: int,
    objective_metric: str = "r1",
    report_kind: str = "recall",
    max_nodes: int | None = None,
    workers: int = 1,
) -> tuple[GridResult, list[GridResult]]:
    """Score every grid point and return (best, all results).

    The objective is the corpus-mean value of one metric (recall or f1 per
    ``report_kind``) for the full pipeline. Ties go to the lexicographically
    smallest (delta, alpha, beta, gamma, k_first). Topics are independent, so the
    search runs topic by topic (``workers`` topics at a time): a topic's
    class tree is built once per cluster count, its delta- and weight-free
    score terms once per tree, its sentence-pair similarities once for all
    trees, and each tree's cs blend once per delta. One lockstep selection
    per tree then runs every delta and weight triple of that cluster count
    as one row. ROUGE then scores each grid point with one ``TokenMemo`` for
    the whole search, which stems every reference once and scores each
    distinct (topic, truncated summary) once. Results are identical to
    running each configuration standalone.
    """
    if not grid:
        raise ValueError("empty hyperparameter grid")
    specs = (VariantSpec("ours_final", hp, budget, seed) for hp in grid)
    reports = _reports(corpus, embedded, budget, specs, max_nodes, workers, [objective_metric], report_kind)
    results = [
        GridResult(point=point, objective=report.headline(objective_metric))
        for point, report in zip(grid, reports)
    ]
    best = min(
        results,
        key=lambda r: (
            -r.objective,
            r.point.delta,
            r.point.alpha,
            r.point.beta,
            r.point.gamma,
            r.point.k_first,
        ),
    )
    return best, results


def grid_csv(results: Sequence[GridResult], objective_metric: str, report_kind: str) -> str:
    lines = [f"delta,alpha,beta,gamma,k,{objective_metric}_{report_kind}"]
    for r in results:
        p = r.point
        lines.append(f"{p.delta},{p.alpha},{p.beta},{p.gamma},{p.k_first},{r.objective:.6f}")
    return "\n".join(lines) + "\n"

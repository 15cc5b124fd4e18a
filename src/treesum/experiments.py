"""Ablation and hyperparameter-tuning harnesses.

``run_ablation`` scores every method on the same corpus and embeddings, so
the comparison isolates the method. ``run_grid_search`` sweeps the scoring
hyperparameters over a lattice of all weight triples on the 0.1-step simplex
(66 of them), the 11 values of delta, and the candidate cluster counts,
which makes 2178 configurations for the full sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Iterator, Sequence

from .corpus import Corpus
from .embedding import EmbeddedCorpus
from .pipeline import map_topics, resolve_max_nodes
from .rouge import RougeReport, RougeScore, TokenMemo, evaluate_corpus, text_table
from .scoring import Hyperparams
from .selection import Budget
from .variants import METHODS, VariantSpec


@dataclass(frozen=True)
class AblationRow:
    method: str
    seed: int
    scores: dict[str, RougeScore]


def _reports(
    corpus: Corpus,
    per_topic: Sequence[Sequence[str]],
    budget: Budget,
    metrics: Sequence[str],
    report_kind: str,
) -> Iterator[RougeReport]:
    """The ROUGE report of each spec's summaries, every reference stemmed once."""
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
    methods: Sequence[str] = METHODS,
) -> list[AblationRow]:
    """Evaluate every method on the same inputs; one row per method.

    All methods of a topic share one ``TopicWork``: ours-final and ours-cs
    select from one document tree, comp2 and comp3 from one flat clustering.
    ROUGE then scores each method, stemming every reference once for the
    whole run. Results are identical to summarizing and evaluating each
    method on its own.
    """
    cap = resolve_max_nodes(corpus, budget, max_nodes)
    specs = [VariantSpec(kind=method, hp=hp, budget=budget, seed=seed) for method in methods]
    per_topic = map_topics(corpus, embedded, specs, cap, workers, keep=attrgetter("text"))
    reports = _reports(corpus, per_topic, budget, metrics, report_kind)
    return [
        AblationRow(method=method, seed=seed, scores=dict(report.mean))
        for method, report in zip(methods, reports)
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
class GridPoint:
    delta: float
    alpha: float
    beta: float
    gamma: float
    k: int

    def hyperparams(self, base: Hyperparams) -> Hyperparams:
        """``base`` with this point's delta, weights and first-layer cluster count."""
        return replace(
            base, delta=self.delta, alpha=self.alpha, beta=self.beta, gamma=self.gamma, k_first=self.k
        )


@dataclass(frozen=True)
class GridResult:
    point: GridPoint
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
) -> list[GridPoint]:
    """The hyperparameter lattice, optionally restricted per axis.

    Defaults: delta in {0.0, 0.1, ..., 1.0}, all 0.1-step weight triples,
    and cluster counts 2..4: 11 x 66 x 3 = 2178 points.
    """
    if deltas is None:
        deltas = [i / 10 for i in range(11)]
    if weight_triples is None:
        weight_triples = simplex_triples(0.1)
    if ks is None:
        ks = [2, 3, 4]
    points = []
    for delta in deltas:
        for alpha, beta, gamma in weight_triples:
            for k in ks:
                points.append(GridPoint(delta=delta, alpha=alpha, beta=beta, gamma=gamma, k=k))
    if not points:
        raise ValueError("empty hyperparameter grid")
    return points


def run_grid_search(
    corpus: Corpus,
    embedded: EmbeddedCorpus,
    budget: Budget,
    grid: Sequence[GridPoint],
    seed: int,
    objective_metric: str = "r1",
    report_kind: str = "recall",
    base_hp: Hyperparams | None = None,
    max_nodes: int | None = None,
    workers: int = 1,
) -> tuple[GridResult, list[GridResult]]:
    """Score every grid point and return (best, all results).

    The objective is the corpus-mean value of one metric (recall or f1 per
    ``report_kind``) for the full pipeline. Ties go to the lexicographically
    smallest (delta, alpha, beta, gamma, k). Topics are independent, so the
    search runs topic by topic (``workers`` topics at a time): a topic's
    class tree is built once per cluster count, its delta- and weight-free
    score terms once per tree, its sentence-pair similarities once for all
    trees, and then only the greedy selection runs per grid point. ROUGE
    then scores each grid point, stemming every reference once for the
    whole search. Results are identical to running each configuration
    standalone.
    """
    if not grid:
        raise ValueError("empty hyperparameter grid")
    base = base_hp or Hyperparams()
    cap = resolve_max_nodes(corpus, budget, max_nodes)
    specs = [VariantSpec("ours_final", point.hyperparams(base), budget, seed) for point in grid]

    per_topic = map_topics(corpus, embedded, specs, cap, workers, keep=attrgetter("text"))
    reports = _reports(corpus, per_topic, budget, [objective_metric], report_kind)
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
            r.point.k,
        ),
    )
    return best, results


def grid_csv(results: Sequence[GridResult], objective_metric: str, report_kind: str) -> str:
    lines = [f"delta,alpha,beta,gamma,k,{objective_metric}_{report_kind}"]
    for r in results:
        p = r.point
        lines.append(f"{p.delta},{p.alpha},{p.beta},{p.gamma},{p.k},{r.objective:.6f}")
    return "\n".join(lines) + "\n"

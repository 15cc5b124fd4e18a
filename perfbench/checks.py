"""Output checks computed apart from the program.

Nothing here imports treesum, and nothing compares against a stored copy of
earlier output. Each check recomputes what the program claims from the
generated corpus, the benchmark's own vectors, the frozen Porter table in
``tests/data`` and the documented rules, and returns a list of problems (an
empty list is a pass). ``corrupt_*`` build the damaged inputs that the
self-test feeds back to the checks, each of which must then fail.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np

from corpus_gen import GeneratedCorpus, GeneratedTopic

SCORE_TOLERANCE = 1e-9
ROUGE_TOLERANCE = 1e-6
_TOKEN_RE = re.compile(r"[a-z0-9]+")


# -- summaries: membership, no repeats, budget rule -------------------------


def pick_order(sentences: list[dict]) -> list[dict]:
    """Sentences in the order they were picked.

    The summary lists a node's picks together, nodes in traversal order.
    Round-robin selection gives a node its i-th pick in pass i (a node whose
    candidates run out is skipped from then on), so picks are ordered by
    (pass, node's traversal rank).
    """
    rank: dict[int, int] = {}
    seen: Counter = Counter()
    keyed = []
    for sent in sentences:
        node = sent["node_id"]
        rank.setdefault(node, len(rank))
        seen[node] += 1
        keyed.append(((seen[node], rank[node]), sent))
    return [sent for _, sent in sorted(keyed, key=lambda item: item[0])]


def _size(text: str, unit: str) -> int:
    return len(text.split()) if unit == "words" else len(text.encode("utf-8"))


def _doc_index(doc_id: str) -> int:
    return int(doc_id.removeprefix("doc"))


def check_summaries(records: dict[str, dict], corpus: GeneratedCorpus, unit: str, limit: int) -> list[str]:
    problems = []
    for topic in corpus.topics:
        record = records.get(topic.topic_id)
        if record is None:
            problems.append(f"{topic.topic_id}: no summary")
            continue
        seen = set()
        for sent in record["sentences"]:
            d, p = _doc_index(sent["doc_id"]), sent["position"] - 1
            if not (0 <= d < len(topic.documents) and 0 <= p < len(topic.documents[d])):
                problems.append(f"{topic.topic_id}: {sent['doc_id']}#{p + 1} is not in the topic")
                continue
            if topic.documents[d][p] != sent["text"]:
                problems.append(f"{topic.topic_id}: text of {sent['doc_id']}#{p + 1} differs from the source")
            if (d, p) in seen:
                problems.append(f"{topic.topic_id}: {sent['doc_id']}#{p + 1} repeats")
            seen.add((d, p))
        if record["summary"] != " ".join(s["text"] for s in record["sentences"]):
            problems.append(f"{topic.topic_id}: summary text is not its sentences joined")
        sizes = [_size(s["text"], unit) for s in pick_order(record["sentences"])]
        if not sizes:
            problems.append(f"{topic.topic_id}: empty summary")
            continue
        total = sum(sizes)
        available = sum(len(doc) for doc in topic.documents)
        if total - sizes[-1] >= limit:
            problems.append(f"{topic.topic_id}: picks continue after the budget of {limit} {unit} was met")
        if total < limit and len(sizes) < available:
            problems.append(f"{topic.topic_id}: stopped at {total} of {limit} {unit} with sentences left")
    return problems


# -- selection: every pick maximizes its node's score ------------------------


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=-1, keepdims=True)
    return np.divide(matrix, norms, out=np.zeros_like(matrix), where=norms > 0)


def _clamp(x):
    return np.clip(x, 0.0, 1.0)


def pick_scores(record: dict, tree: dict, topic: GeneratedTopic, vectors: dict, hp: dict):
    """For each pick in pick order: (index, picked score, best remaining score,
    remaining sentence ids sorted by score). Sentence ids are (doc, position)."""
    ids = [(d, p) for d, doc in enumerate(topic.documents) for p in range(len(doc))]
    row_of = {sid: i for i, sid in enumerate(ids)}
    sent = np.stack([vectors[f"{topic.topic_id}/d{d}/s{p}"] for d, p in ids])
    unit = _unit_rows(sent)
    doc_vecs = np.stack(
        [sent[[row_of[(d, p)] for p in range(len(doc))]].mean(axis=0) for d, doc in enumerate(topic.documents)]
    )
    pos = np.array(
        [max(0.5, math.exp(-(p + 1) / len(topic.documents[d]) ** (1.0 / 3.0))) for d, p in ids]
    )
    nodes = {n["node_id"]: n for n in tree["nodes"]}
    taken: set = set()
    selected: list[int] = []
    for index, pick in enumerate(pick_order(record["sentences"])):
        node = nodes[pick["node_id"]]
        member_docs = sorted(int(key.rsplit("/d", 1)[1]) for key in node["members"])
        others = [d for d in range(len(topic.documents)) if d not in member_docs]
        rows = [row_of[(d, p)] for d in member_docs for p in range(len(topic.documents[d]))]
        rows = [r for r in rows if ids[r] not in taken]
        inside = _unit_rows(doc_vecs[member_docs].mean(axis=0))
        cs_in = _clamp(unit[rows] @ inside)
        if others:
            outside = _unit_rows(doc_vecs[others].mean(axis=0))
            out_term = 1.0 - _clamp(unit[rows] @ outside)
        else:
            out_term = np.ones(len(rows))
        cs = _clamp(hp["delta"] * cs_in + (1.0 - hp["delta"]) * out_term)
        if selected:
            nr = 1.0 - _clamp(unit[rows] @ unit[selected].T).max(axis=1)
        else:
            nr = np.ones(len(rows))
        scores = hp["alpha"] * cs + hp["beta"] * nr + hp["gamma"] * pos[rows]
        picked_id = (_doc_index(pick["doc_id"]), pick["position"] - 1)
        if picked_id in taken or picked_id not in row_of or row_of[picked_id] not in rows:
            picked_score = float("-inf")
        else:
            picked_score = float(scores[rows.index(row_of[picked_id])])
        order = np.argsort(scores, kind="stable")
        yield index, picked_score, float(scores.max()), [ids[rows[i]] for i in order]
        taken.add(picked_id)
        if picked_id in row_of:
            selected.append(row_of[picked_id])


def check_selection(records: dict, trees: dict, corpus: GeneratedCorpus, vectors: dict, hp: dict) -> list[str]:
    problems = []
    picks = 0
    for topic in corpus.topics:
        for index, picked, best, _ in pick_scores(
            records[topic.topic_id], trees[topic.topic_id], topic, vectors, hp
        ):
            picks += 1
            if picked < best - SCORE_TOLERANCE:
                problems.append(
                    f"{topic.topic_id}: pick {index} scores {picked:.12f}, best remaining {best:.12f}"
                )
    if picks == 0:
        problems.append("no picks to check")
    return problems


def corrupt_selection(records: dict, trees: dict, corpus: GeneratedCorpus, vectors: dict, hp: dict) -> dict:
    """Swap the first pick that has a clearly worse alternative for that alternative."""
    topic = corpus.topics[0]
    record = records[topic.topic_id]
    for index, _, _, ranked in pick_scores(record, trees[topic.topic_id], topic, vectors, hp):
        worst_d, worst_p = ranked[0]
        target = pick_order(record["sentences"])[index]
        if (worst_d, worst_p) == (_doc_index(target["doc_id"]), target["position"] - 1):
            continue
        bad = dict(
            target,
            text=topic.documents[worst_d][worst_p],
            doc_id=f"doc{worst_d:02d}",
            position=worst_p + 1,
        )
        sentences = [bad if s is target else s for s in record["sentences"]]
        return dict(records, **{topic.topic_id: dict(record, sentences=sentences)})
    raise ValueError("no pick has an alternative")


# -- ROUGE-1 and ROUGE-2 recall from the frozen Porter table -----------------


def load_stem_table(data_dir: Path) -> dict[str, str]:
    words = (data_dir / "porter_vocabulary.txt").read_text(encoding="utf-8").split()
    stems = (data_dir / "porter_output.txt").read_text(encoding="utf-8").split()
    if len(words) != len(stems):
        raise ValueError("Porter vocabulary and output tables differ in length")
    return dict(zip(words, stems))


def _truncate(text: str, unit: str, limit: int) -> str:
    tokens = text.split()
    if unit == "words":
        return " ".join(tokens[:limit])
    kept, used = [], 0
    for token in tokens:
        cost = len(token.encode("utf-8")) + (1 if kept else 0)
        if used + cost > limit:
            break
        kept.append(token)
        used += cost
    return " ".join(kept)


def _grams(text: str, n: int, stems: dict[str, str]) -> Counter:
    tokens = [stems.get(t, t) for t in _TOKEN_RE.findall(text.lower())]
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def rouge_recall(candidate: str, references: list[str], n: int, stems: dict[str, str]) -> float:
    cand = _grams(candidate, n, stems)
    values = []
    for ref in references:
        ref_grams = _grams(ref, n, stems)
        overlap = sum(min(c, ref_grams[g]) for g, c in cand.items())
        total = sum(ref_grams.values())
        values.append(overlap / total if total else 0.0)
    return sum(values) / len(values)


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_rouge(report_csv: str, summaries: dict[str, str], corpus: GeneratedCorpus,
                unit: str, limit: int, stems: dict[str, str]) -> list[str]:
    rows = {(r["topic_id"], r["metric"]): float(r["recall"]) for r in parse_csv(report_csv)}
    problems = []
    for metric, n in (("r1", 1), ("r2", 2)):
        mine = {}
        for topic in corpus.topics:
            candidate = _truncate(summaries[topic.topic_id], unit, limit)
            mine[topic.topic_id] = rouge_recall(candidate, topic.references, n, stems)
        mine["MEAN"] = sum(mine.values()) / len(corpus.topics)
        for topic_id, value in mine.items():
            reported = rows.get((topic_id, metric))
            if reported is None or abs(reported - value) > ROUGE_TOLERANCE:
                problems.append(f"{topic_id} {metric} recall: report {reported}, recomputed {value:.8f}")
    return problems


def corrupt_rouge(report_csv: str) -> str:
    """Move the first topic's R-1 recall by 1e-3."""
    rows = parse_csv(report_csv)
    for row in rows:
        if row["metric"] == "r1" and row["topic_id"] != "MEAN":
            row["recall"] = f"{float(row['recall']) + 1e-3:.6f}"
            break
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


# -- k-means: non-empty, honest inertia, no improving single move -------------


def check_kmeans(captures: list[dict]) -> list[str]:
    problems = []
    if not captures:
        problems.append("no k-means results captured")
    for i, cap in enumerate(captures):
        points, labels, k = cap["points"], cap["labels"], cap["k"]
        counts = np.bincount(labels, minlength=k)
        if len(counts) != k or counts.min() == 0:
            problems.append(f"k-means {i}: cluster sizes {counts.tolist()} for k={k}")
            continue
        centroids = np.stack([points[labels == j].mean(axis=0) for j in range(k)])
        inertia = float(((points - centroids[labels]) ** 2).sum())
        if abs(inertia - cap["inertia"]) > 1e-9 * max(1.0, inertia):
            problems.append(f"k-means {i}: reported inertia {cap['inertia']}, recomputed {inertia}")
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        # Moving point i from cluster s to j changes inertia by
        # n_j/(n_j+1)*d(i,c_j)^2 - n_s/(n_s-1)*d(i,c_s)^2; singletons cannot move.
        n = counts.astype(float)
        rows = np.arange(len(labels))
        movable = n[labels] > 1
        own_n = n[labels][movable]
        loss_off = np.zeros(len(labels))
        loss_off[movable] = own_n / (own_n - 1.0) * d2[rows, labels][movable]
        delta = n / (n + 1.0) * d2 - loss_off[:, None]
        delta[rows, labels] = np.inf
        delta[~movable] = np.inf
        if delta.min() < -1e-9 * max(1.0, inertia):
            point, target = np.unravel_index(int(delta.argmin()), delta.shape)
            problems.append(
                f"k-means {i}: moving point {point} to cluster {target} lowers inertia by {-delta.min():.3g}"
            )
    return problems


def corrupt_kmeans(captures: list[dict]) -> list[dict]:
    """Move one point of a cluster with two or more members to another cluster."""
    cap = captures[0]
    labels = cap["labels"].copy()
    counts = np.bincount(labels, minlength=cap["k"])
    point = int(np.flatnonzero(counts[labels] > 1)[0])
    labels[point] = (labels[point] + 1) % cap["k"]
    return [dict(cap, labels=labels)] + captures[1:]


# -- tune and ablate tables ----------------------------------------------------


def check_grid(grid_csv: str, best_txt: str, expected_points: set) -> list[str]:
    rows = parse_csv(grid_csv)
    if len(rows) != len(expected_points):
        return [f"grid.csv has {len(rows)} rows for {len(expected_points)} points"]
    problems = []
    points = [
        (float(r["delta"]), float(r["alpha"]), float(r["beta"]), float(r["gamma"]), int(r["k"]))
        for r in rows
    ]
    if set(points) != expected_points:
        problems.append("grid.csv points differ from the requested grid")
    objective = list(rows[0])[-1]
    values = [float(r[objective]) for r in rows]
    top = max(values)
    best_point = min(p for p, v in zip(points, values) if v == top)
    best = dict(line.split(" = ") for line in best_txt.strip().splitlines())
    claimed = (float(best["delta"]), float(best["alpha"]), float(best["beta"]),
               float(best["gamma"]), int(best["k-first"]))
    if claimed != best_point or abs(float(best["objective"]) - top) > ROUGE_TOLERANCE:
        problems.append(f"best.txt names {claimed} at {best['objective']}; expected {best_point} at {top}")
    return problems


def mean_recall(report_csv: str, metric: str) -> float:
    for row in parse_csv(report_csv):
        if row["topic_id"] == "MEAN" and row["metric"] == metric:
            return float(row["recall"])
    raise ValueError(f"report has no MEAN row for {metric}")


def check_ablation(ablation_csv: str, report_csv: str, methods: int) -> list[str]:
    rows = parse_csv(ablation_csv)
    problems = []
    names = sorted({r["method"] for r in rows})
    if len(names) != methods:
        problems.append(f"ablation.csv has {len(names)} methods, expected {methods}")
    for r in rows:
        for column in ("recall", "precision", "f1"):
            if not 0.0 <= float(r[column]) <= 1.0:
                problems.append(f"{r['method']} {r['metric']} {column} = {r[column]} is outside [0, 1]")
    report = {
        (r["metric"], c): float(r[c])
        for r in parse_csv(report_csv) if r["topic_id"] == "MEAN"
        for c in ("recall", "precision", "f1")
    }
    ours = [r for r in rows if r["method"] == "ours_final"]
    if not ours:
        problems.append("ablation.csv has no ours_final row")
    for r in ours:
        for c in ("recall", "precision", "f1"):
            standalone = report.get((r["metric"], c))
            if standalone is None or abs(standalone - float(r[c])) > ROUGE_TOLERANCE:
                problems.append(f"ours_final {r['metric']} {c}: ablate {r[c]}, evaluate {standalone}")
    return problems

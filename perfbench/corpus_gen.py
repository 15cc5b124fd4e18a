"""Deterministic offline corpus generator for the benchmark workloads.

Words come from the frozen Porter test vocabulary in ``tests/data``. Every
topic has planted structure that the summarizer should find:

* topic facts: sentences that recur, lightly reworded, in every document;
* cluster facts: sentences shared only by the documents of one cluster;
* filler: sentences of random vocabulary words.

References are built from the planted facts, so a summary that finds them
scores well. For the ``file:`` embedder the generator also writes sentence
vectors with the same structure: a topic direction, a cluster direction and
one direction per fact, plus noise. The same ``(spec, seed)`` always gives
byte-identical files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Words that must never end a sentence: the segmenter treats a period after
# them as an abbreviation (see ``treesum.corpus._ABBREVIATIONS``), which
# would merge two planted sentences into one.
_ABBREVIATIONS = frozenset(
    "mr mrs ms dr prof rev hon st mt ft gen col maj capt cmdr adm sgt lt gov "
    "sen rep pres supt det jr sr no vs etc inc ltd co corp dept univ est fig al".split()
)

TOPIC_FACTS = 6
CLUSTER_FACTS = 4
FACTS_PER_DOC = 4  # of each kind, planted in every document


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of one generated corpus."""

    topics: int
    docs: int
    sentences: int  # per document
    clusters: int  # document clusters per topic
    references: int  # per topic
    reference_words: int  # target length of each reference
    layout: str  # "jsonl" or "topic-dirs"
    vector_dim: int = 0  # > 0 writes ``vectors.jsonl`` for the file provider


@dataclass
class GeneratedTopic:
    topic_id: str
    documents: list[list[str]]  # sentence texts per document
    references: list[str]
    doc_cluster: list[int]


@dataclass
class GeneratedCorpus:
    input_path: Path
    layout: str
    topics: list[GeneratedTopic]
    vectors: dict[str, np.ndarray]  # sentence key -> vector; empty without a file provider
    vectors_path: Path | None

    @property
    def sentence_count(self) -> int:
        return sum(len(doc) for t in self.topics for doc in t.documents)


def load_vocabulary(path: Path) -> list[str]:
    """Vocabulary words that survive segmentation and tokenization unchanged."""
    words = path.read_text(encoding="utf-8").split()
    return [w for w in words if len(w) >= 3 and w.isalpha() and w not in _ABBREVIATIONS]


def _sentence(words: list[str]) -> str:
    return " ".join([words[0].capitalize()] + words[1:]) + "."


def _reword(rng: random.Random, words: list[str], vocab: list[str]) -> list[str]:
    """A fact as one document states it: one or two words swapped for others."""
    out = list(words)
    for _ in range(rng.randint(1, 2)):
        out[rng.randrange(len(out))] = rng.choice(vocab)
    return out


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _make_topic(rng: random.Random, topic_id: str, spec: CorpusSpec, vocab: list[str]):
    pool = rng.sample(vocab, 120)
    cluster_pools = [rng.sample(vocab, 60) for _ in range(spec.clusters)]
    topic_facts = [rng.sample(pool, rng.randint(10, 16)) for _ in range(TOPIC_FACTS)]
    cluster_facts = [
        [rng.sample(cp, rng.randint(10, 16)) for _ in range(CLUSTER_FACTS)] for cp in cluster_pools
    ]
    doc_cluster = [d % spec.clusters for d in range(spec.docs)]
    rng.shuffle(doc_cluster)

    documents: list[list[str]] = []
    labels: list[list[tuple[str, int]]] = []  # ("topic"|"cluster"|"filler", fact index)
    for d in range(spec.docs):
        c = doc_cluster[d]
        planted = [("topic", i) for i in rng.sample(range(TOPIC_FACTS), FACTS_PER_DOC)]
        planted += [("cluster", i) for i in rng.sample(range(CLUSTER_FACTS), FACTS_PER_DOC)]
        slots = [("filler", -1)] * (spec.sentences - len(planted))
        # Facts lean toward the start of a document, as lead sentences do.
        order = planted + slots
        rng.shuffle(order)
        order.sort(key=lambda item: (item[0] == "filler") and rng.random() < 0.5)
        texts = []
        for kind, i in order:
            if kind == "topic":
                words = _reword(rng, topic_facts[i], vocab)
            elif kind == "cluster":
                words = _reword(rng, cluster_facts[c][i], vocab)
            else:
                words = [rng.choice(vocab) for _ in range(rng.randint(8, 20))]
            texts.append(_sentence(words))
        documents.append(texts)
        labels.append(order)

    references = []
    for _ in range(spec.references):
        facts = [_sentence(f) for f in topic_facts]
        facts += [_sentence(f) for cf in cluster_facts for f in cf]
        rng.shuffle(facts)
        chosen, words = [], 0
        for text in facts:
            if words >= spec.reference_words:
                break
            chosen.append(text)
            words += len(text.split())
        references.append(" ".join(chosen))
    return GeneratedTopic(topic_id, documents, references, doc_cluster), labels


def _topic_vectors(
    seed: int, topic: GeneratedTopic, labels, dim: int
) -> dict[str, np.ndarray]:
    rng = np.random.default_rng([seed, int(topic.topic_id[1:])])
    topic_dir = _unit(rng, dim)
    cluster_dirs = [_unit(rng, dim) for _ in range(max(topic.doc_cluster) + 1)]
    topic_fact_dirs = [_unit(rng, dim) for _ in range(TOPIC_FACTS)]
    cluster_fact_dirs = [
        [_unit(rng, dim) for _ in range(CLUSTER_FACTS)] for _ in cluster_dirs
    ]
    out = {}
    for d, order in enumerate(labels):
        c = topic.doc_cluster[d]
        for s, (kind, i) in enumerate(order):
            if kind == "topic":
                vec = 0.8 * topic_dir + topic_fact_dirs[i]
            elif kind == "cluster":
                vec = 0.5 * topic_dir + 0.8 * cluster_dirs[c] + cluster_fact_dirs[c][i]
            else:
                vec = 0.3 * topic_dir + 0.3 * cluster_dirs[c] + _unit(rng, dim)
            vec = vec + 0.3 * rng.standard_normal(dim) / np.sqrt(dim)
            # Rounded so the JSON text round-trips to exactly these floats.
            out[f"{topic.topic_id}/d{d}/s{s}"] = np.round(vec, 4)
    return out


def generate(spec: CorpusSpec, seed: int, vocab: list[str], out_dir: Path) -> GeneratedCorpus:
    """Write one corpus (and its vectors, if any) under ``out_dir``."""
    rng = random.Random(f"treesum-bench:{seed}")
    topics, vectors = [], {}
    for t in range(spec.topics):
        topic, labels = _make_topic(rng, f"t{t:03d}", spec, vocab)
        topics.append(topic)
        if spec.vector_dim:
            vectors.update(_topic_vectors(seed, topic, labels, spec.vector_dim))

    out_dir.mkdir(parents=True, exist_ok=True)
    if spec.layout == "jsonl":
        input_path = out_dir / "corpus.jsonl"
        with input_path.open("w", encoding="utf-8") as handle:
            for topic in topics:
                record = {
                    "topic_id": topic.topic_id,
                    "documents": [
                        {"doc_id": f"doc{d:02d}", "text": " ".join(sents)}
                        for d, sents in enumerate(topic.documents)
                    ],
                    "references": topic.references,
                }
                handle.write(json.dumps(record) + "\n")
    else:
        input_path = out_dir / "corpus"
        for topic in topics:
            docs_dir = input_path / topic.topic_id / "docs"
            refs_dir = input_path / topic.topic_id / "refs"
            docs_dir.mkdir(parents=True)
            refs_dir.mkdir()
            for d, sents in enumerate(topic.documents):
                (docs_dir / f"doc{d:02d}.txt").write_text("\n".join(sents) + "\n", encoding="utf-8")
            for r, ref in enumerate(topic.references):
                (refs_dir / f"ref{r}.txt").write_text(ref + "\n", encoding="utf-8")

    vectors_path = None
    if vectors:
        vectors_path = out_dir / "vectors.jsonl"
        with vectors_path.open("w", encoding="utf-8") as handle:
            for key, vec in vectors.items():
                handle.write(json.dumps({"key": key, "vector": vec.tolist()}) + "\n")
    return GeneratedCorpus(input_path, spec.layout, topics, vectors, vectors_path)

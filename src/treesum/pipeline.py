"""Corpus-level orchestration: embed once, summarize every topic.

Topics are independent, so they can be fanned out to a worker pool; results
are collected back in corpus order, which keeps output identical no matter
how many workers run.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

from .corpus import Corpus, Topic
from .embedding import EmbeddedCorpus
from .selection import Budget, Summary
from .variants import TopicWork, VariantSpec, summarize_topic

T = TypeVar("T")


def resolve_max_nodes(corpus: Corpus, budget: Budget, max_nodes: int | None) -> int:
    """Node-count cap for tree construction: ``max_nodes`` when given, else
    the number of sentences the summary needs over the whole corpus,
    ``max(1, ceil(target_words / (words / sentences)))``.

    A byte budget is converted to ``target_words`` through the average bytes
    per word plus one joining space. Sentence texts are whitespace-normalized,
    so a sentence's word bytes are its byte length less its separators.
    """
    if max_nodes is not None:
        if max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")
        return max_nodes
    sentences = words = word_bytes = 0
    for topic in corpus:
        for doc in topic.documents:
            for sent in doc.sentences:
                sentences += 1
                words += sent.word_count
                word_bytes += sent.byte_length - (sent.word_count - 1)
    if budget.unit == "words":
        target_words = float(budget.limit)
    else:
        target_words = budget.limit / (word_bytes / words + 1.0)
    return max(1, math.ceil(target_words / (words / sentences)))


def map_topics(
    corpus: Corpus,
    embedded: EmbeddedCorpus,
    workers: int,
    run: Callable[[Topic, TopicWork], T],
) -> list[T]:
    """``run(topic, work)`` of each topic, in corpus order.

    Topics run one at a time (``workers`` at a time), each on a fresh
    ``TopicWork``, so what the runs on a topic share is computed once and
    dropped with the topic; only what ``run`` returns outlives it.
    """
    topics = list(corpus)
    if workers <= 1:
        return [run(topic, TopicWork(topic, embedded)) for topic in topics]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda topic: run(topic, TopicWork(topic, embedded)), topics))


def summarize_corpus(
    corpus: Corpus,
    embedded: EmbeddedCorpus,
    spec: VariantSpec,
    max_nodes: int,
    workers: int = 1,
) -> dict[str, Summary]:
    """One summary per topic, keyed by topic_id, in corpus order."""
    per_topic = map_topics(
        corpus, embedded, workers, lambda topic, work: summarize_topic(topic, embedded, spec, max_nodes, work=work)
    )
    return {topic.topic_id: summary for topic, summary in zip(corpus, per_topic)}

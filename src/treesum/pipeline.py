"""Corpus-level orchestration: embed once, summarize every topic.

Topics are independent, so they can be fanned out to a worker pool; results
are collected back in corpus order, which keeps output identical no matter
how many workers run.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

from .corpus import Corpus, Topic
from .embedding import EmbeddedCorpus
from .selection import Budget, Summary
from .tree import default_max_nodes
from .variants import TopicWork, VariantSpec, summarize_topic

T = TypeVar("T")


def corpus_length_stats(corpus: Corpus) -> tuple[float, float]:
    """(avg words per sentence, avg bytes per word) over the whole corpus.

    Sentence texts are whitespace-normalized, so internal separators are
    single spaces and per-word byte cost excludes them.
    """
    total_sentences = 0
    total_words = 0
    total_word_bytes = 0
    for topic in corpus:
        for doc in topic.documents:
            for sent in doc.sentences:
                total_sentences += 1
                total_words += sent.word_count
                total_word_bytes += sent.byte_length - (sent.word_count - 1)
    avg_sentence_words = total_words / total_sentences
    avg_word_bytes = total_word_bytes / total_words
    return avg_sentence_words, avg_word_bytes


def resolve_max_nodes(corpus: Corpus, budget: Budget, max_nodes: int | None) -> int:
    """Node-count cap for tree construction.

    Defaults to the estimated number of sentences the summary needs: the
    budget expressed in words divided by the corpus' average sentence length
    (byte budgets are converted through the average word byte cost plus one
    joining space).
    """
    if max_nodes is not None:
        if max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")
        return max_nodes
    avg_sentence_words, avg_word_bytes = corpus_length_stats(corpus)
    if budget.unit == "words":
        target_words = float(budget.limit)
    else:
        target_words = budget.limit / (avg_word_bytes + 1.0)
    return default_max_nodes(target_words, avg_sentence_words)


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

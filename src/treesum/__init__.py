"""Extractive multi-document summarization over a class tree of documents.

The pipeline clusters a topic's documents top-down into a class tree, then
selects sentences that express the commonality of all documents and the
specificity of each subclass until a length budget is met. A ROUGE evaluator
and an ablation/tuning harness are included.
"""

from .corpus import Corpus, CorpusError, Document, Sentence, Topic, load_corpus, segment_sentences
from .embedding import (
    EmbeddedCorpus,
    ProviderError,
    embed_corpus,
    provider_builtin_tfidf,
    provider_file,
    provider_remote,
)
from .rouge import RougeReport, RougeScore, evaluate_corpus, rouge_l, rouge_n, rouge_su4, truncate
from .scoring import Hyperparams, score_final, score_position
from .selection import Budget, Summary, select_summary
from .stem import porter_stem
from .tree import ClassTree, build_class_tree, kmeans
from .variants import METHOD_TABLE, VariantSpec, summarize_topic

__version__ = "0.1.0"

"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public treesum functions with pass-through
wrappers, in their defining module and in every treesum module that imported
them by name, and ``uninstall`` puts the originals back. Nothing under
``src/`` changes and no signature is assumed: arguments are forwarded as
given, and a hook that needs one binds it with ``inspect.signature`` and
gives up quietly if the binding fails. A function missing from the code under
test is skipped, so its metrics are left out.

Two kinds of wrapper exist. A span records name, start, end, thread and
parent span; a counter only counts calls, for functions called hundreds of
thousands of times per round. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np

KMEANS_CAPTURE_LIMIT = 60

# (module, function, span name or None for a call counter)
TARGETS = (
    ("treesum.corpus", "load_corpus", "corpus.load"),
    ("treesum.embedding", "provider_file", "embedding.provider"),
    ("treesum.embedding", "provider_builtin_tfidf", "embedding.provider"),
    ("treesum.embedding", "embed_corpus", "embedding.embed"),
    ("treesum.tree", "build_class_tree", "tree.build"),
    ("treesum.tree", "kmeans", "tree.kmeans"),
    ("treesum.selection", "select_summary", "selection.select"),
    ("treesum.selection", "run_selection", "selection.run"),
    ("treesum.variants", "summarize_topic", "variants.topic"),
    ("treesum.pipeline", "summarize_corpus", "pipeline.summarize_corpus"),
    ("treesum.rouge", "evaluate_corpus", "rouge.evaluate"),
    ("treesum.experiments", "run_ablation", "experiments.ablation"),
    ("treesum.experiments", "run_grid_search", "experiments.grid"),
    ("treesum.embedding", "cosine_similarity", None),
    ("treesum.scoring", "score_cs", None),
    ("treesum.scoring", "score_nr", None),
    ("treesum.stem", "porter_stem", None),
)

COUNTER_NAMES = {
    "cosine_similarity": "embedding.cosine_calls",
    "score_cs": "scoring.score_cs_calls",
    "score_nr": "scoring.score_nr_calls",
    "porter_stem": "stem.calls",
}


def _bind(fn, args, kwargs) -> dict:
    try:
        return dict(inspect.signature(fn).bind(*args, **kwargs).arguments)
    except (TypeError, ValueError):
        return {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.kmeans_captures: list[dict] = []
        self.first_evaluate: tuple | None = None  # (original fn, bound arguments)
        self.summaries_scored = 0
        self.distinct_summaries: set = set()
        self.installed: set[str] = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {}
        for module_name, _, _ in TARGETS:
            try:
                modules[module_name] = importlib.import_module(module_name)
            except ImportError:
                continue
        for module_name, fn_name, span in TARGETS:
            module = modules.get(module_name)
            original = getattr(module, fn_name, None)
            if not callable(original):
                continue
            if span is None:
                wrapper = self._counter(COUNTER_NAMES[fn_name], original)
            else:
                wrapper = self._span(span, fn_name, original)
            self.installed.add(fn_name)
            for name, mod in list(sys.modules.items()):
                if not (name == "treesum" or name.startswith("treesum.")) or mod is None:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    # -- wrappers ---------------------------------------------------------

    def _counter(self, metric: str, original):
        lock, counts = self._lock, self.counts

        def wrapper(*args, **kwargs):
            with lock:
                counts[metric] += 1
            return original(*args, **kwargs)

        return wrapper

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, span_name: str, fn_name: str, original):
        before = getattr(self, f"_before_{fn_name}", None)
        after = getattr(self, f"_after_{fn_name}", None)

        def wrapper(*args, **kwargs):
            stack = self._stack()
            bound = _bind(original, args, kwargs) if (before or after) else {}
            name = span_name
            if before is not None:
                name = before(original, bound, stack) or span_name
            record = {
                "name": name,
                "parent": stack[-1] if stack else None,
                "thread": threading.get_ident(),
                "start": time.perf_counter(),
            }
            with self._lock:
                index = len(self.spans)
                self.spans.append(record)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(bound, result, stack)
            return result

        return wrapper

    def _in_experiments(self, stack: list[int]) -> bool:
        return any(self.spans[i]["name"].startswith("experiments.") for i in stack)

    # -- per-function hooks ----------------------------------------------

    def _before_summarize_topic(self, original, bound, stack):
        kind = getattr(bound.get("spec"), "kind", None)
        return f"variants.{str(kind).replace('-', '_')}" if kind else None

    def _before_build_class_tree(self, original, bound, stack):
        if self._in_experiments(stack):
            with self._lock:
                self.counts["experiments.tree_builds"] += 1

    def _after_build_class_tree(self, bound, result, stack):
        with self._lock:
            self.counts["tree.nodes"] += int(getattr(result, "node_count", 0))

    def _after_kmeans(self, bound, result, stack):
        with self._lock:
            self.counts["tree.kmeans_calls"] += 1
            if result is None:
                self.counts["tree.kmeans_unsplit"] += 1
            elif len(self.kmeans_captures) < KMEANS_CAPTURE_LIMIT and "vectors" in bound:
                self.kmeans_captures.append(
                    {
                        "points": np.stack([np.asarray(v, dtype=float) for v in bound["vectors"]]),
                        "k": int(bound.get("k", 0)),
                        "labels": np.asarray(result.labels).copy(),
                        "inertia": float(result.inertia),
                    }
                )

    def _after_run_selection(self, bound, result, stack):
        with self._lock:
            self.counts["selection.picks"] += len(getattr(result, "selected", ()))

    def _before_evaluate_corpus(self, original, bound, stack):
        with self._lock:
            if self.first_evaluate is None and "summaries" in bound:
                self.first_evaluate = (original, bound)
            if self._in_experiments(stack) and "summaries" in bound:
                for topic_id, text in bound["summaries"].items():
                    self.summaries_scored += 1
                    self.distinct_summaries.add((topic_id, text))

    def _after_run_grid_search(self, bound, result, stack):
        if isinstance(result, tuple) and len(result) == 2:
            with self._lock:
                self.counts["experiments.grid_points"] += len(result[1])

    # -- results ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        return own

    def totals(self) -> dict[str, float]:
        """Inclusive seconds per span name, summed over all spans."""
        out: Counter = Counter()
        for span in self.spans:
            out[span["name"]] += span["end"] - span["start"]
        return dict(out)

    def write(self, path: Path, extra: dict) -> None:
        own = self.self_times()
        t0 = min((s["start"] for s in self.spans), default=0.0)
        spans = [
            {
                "id": i,
                "name": s["name"],
                "parent": s["parent"],
                "thread": s["thread"],
                "start_s": s["start"] - t0,
                "dur_s": s["end"] - s["start"],
                "self_s": own[i],
            }
            for i, s in enumerate(self.spans)
        ]
        self_by_name: Counter = Counter()
        for span in spans:
            self_by_name[span["name"]] += span["self_s"]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {"self_s_by_name": dict(self_by_name), "counts": dict(self.counts), **extra, "spans": spans},
                indent=1,
            ),
            encoding="utf-8",
        )

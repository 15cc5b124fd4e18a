"""What the benchmark needs from treesum's names.

``perfbench/layertrace.py`` wraps every function listed in its ``TARGETS``
and silently leaves out the metrics of any function it cannot find, of any
argument its hooks cannot bind, or of any result attribute it reads through
``getattr`` with a default, so a renamed function, parameter or attribute
would drop per-layer metrics from a traced run without an error.
``perfbench/reference.py`` and ``perfbench/runner.py`` import treesum names
and read a few attributes of what those return. Everything is read from the
files' source, without importing ``perfbench``.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERTRACE = PERFBENCH / "layertrace.py"


def _targets() -> tuple[tuple[str, str, str | None], ...]:
    module = ast.parse(LAYERTRACE.read_text(encoding="utf-8"))
    for node in module.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TARGETS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {LAYERTRACE}")


def test_every_traced_target_is_a_treesum_callable():
    targets = _targets()
    assert len(targets) >= 17
    for module_name, fn_name, _ in targets:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, fn_name, None)), (module_name, fn_name)


@pytest.mark.parametrize(
    ("module_name", "fn_name", "params"),
    [
        ("treesum.tree", "kmeans", {"vectors", "k"}),
        ("treesum.variants", "summarize_topic", {"spec"}),
        ("treesum.rouge", "evaluate_corpus", {"summaries"}),
    ],
)
def test_traced_hooks_find_the_arguments_they_bind(module_name, fn_name, params):
    fn = getattr(importlib.import_module(module_name), fn_name)
    assert params <= set(inspect.signature(fn).parameters), (module_name, fn_name)


@pytest.mark.parametrize("script", ["reference.py", "runner.py"])
def test_every_name_the_bench_scripts_import_resolves(script):
    module = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))
    imports = [
        (node.module, alias.name)
        for node in module.body
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("treesum")
        for alias in node.names
    ]
    assert imports, script
    for module_name, name in imports:
        assert hasattr(importlib.import_module(module_name), name), (script, module_name, name)


def _has_attribute(cls, name: str) -> bool:
    """Whether instances of ``cls`` have ``name``: a dataclass field, or an
    attribute of the class itself."""
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    return name in fields or hasattr(cls, name)


@pytest.mark.parametrize(
    ("module_name", "class_name", "attr"),
    [
        # Read by layertrace through getattr with a default.
        ("treesum.tree", "ClassTree", "node_count"),
        ("treesum.selection", "SelectionState", "selected"),
        ("treesum.tree", "KMeansResult", "labels"),
        ("treesum.tree", "KMeansResult", "inertia"),
        ("treesum.variants", "VariantSpec", "kind"),
        # Read by reference.py and runner.py.
        ("treesum.embedding", "EmbeddedCorpus", "sentence_vectors_for"),
        ("treesum.embedding", "EmbeddedCorpus", "dim"),
        ("treesum.config", "RunConfig", "make_provider"),
    ],
)
def test_attributes_the_benchmark_reads_exist(module_name, class_name, attr):
    cls = getattr(importlib.import_module(module_name), class_name)
    assert _has_attribute(cls, attr), (class_name, attr)

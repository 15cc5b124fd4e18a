"""What the traced benchmark run needs from treesum's names.

``perfbench/layertrace.py`` wraps every function listed in its ``TARGETS``
and silently leaves out the metrics of any function it cannot find, or of
any argument its hooks cannot bind, so a renamed function or parameter
would drop per-layer metrics from a traced run without an error. ``TARGETS``
is read from the file's source, without importing ``perfbench``.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


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

"""File I/O happens in one place.

Every read, listing and write of a file or directory in ``src/treesum`` goes
through a few functions that turn an ``OSError`` into the command's error
class with the path in its message. A call to ``open`` or to one of the
``Path`` methods below anywhere else could escape ``cli.main`` as a
traceback. Existence checks (``is_dir``, ``is_file``) are left out here;
the exit-code tests of ``test_cli.py`` cover them.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "treesum"

IO_METHODS = {"open", "read_text", "read_bytes", "iterdir", "write_text", "write_bytes", "mkdir"}

ALLOWED = {
    "corpus.read_text",
    "corpus.text_files",
    "corpus.jsonl_records",
    "corpus.load_corpus",  # the corpus root's listing
    "cli._write_outputs",
}


def _io_call(node: ast.AST) -> str | None:
    """The I/O name ``node`` calls: the builtin ``open(...)`` or a method
    call ``x.m(...)`` with ``m`` in ``IO_METHODS``. A bare ``read_text(...)``
    is the package's own wrapper."""
    if not isinstance(node, ast.Call):
        return None
    if isinstance(node.func, ast.Name) and node.func.id == "open":
        return "open"
    if isinstance(node.func, ast.Attribute) and node.func.attr in IO_METHODS:
        return node.func.attr
    return None


def _io_calls() -> dict[str, list[str]]:
    """``{module.function: [call, ...]}`` for every I/O call in the package.

    Calls in lambdas and nested functions count for the enclosing named
    function (``Class.method`` for a method); module-level calls for
    ``<module>``.
    """
    found: dict[str, list[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [(ast.parse(path.read_text(encoding="utf-8")), "<module>")]
        while stack:
            node, scope = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
            name = _io_call(node)
            if name:
                found.setdefault(f"{path.stem}.{scope}", []).append(f"{name} (line {node.lineno})")
            stack.extend((child, scope) for child in ast.iter_child_nodes(node))
    return found


def test_file_io_happens_only_in_the_allowed_functions():
    outside = {scope: calls for scope, calls in _io_calls().items() if scope not in ALLOWED}
    assert not outside, outside


def test_every_allowed_function_does_file_io():
    assert ALLOWED <= set(_io_calls())

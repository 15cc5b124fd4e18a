"""The README's code examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

import golden

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading: str) -> str:
    """The first ```python block under the README section ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    match = re.search(r"^```python\n(.*?)^```$", section, flags=re.DOTALL | re.MULTILINE)
    assert match, f"no python block under {heading!r}"
    return match.group(1)


def test_library_use_example_runs_on_a_generated_corpus(tmp_path, monkeypatch, capsys):
    golden.write_corpora(tmp_path)
    (tmp_path / "dirs-builtin").rename(tmp_path / "corpus")
    monkeypatch.chdir(tmp_path)
    exec(compile(_python_block("Library use"), str(README), "exec"), {"__name__": "readme_example"})
    table, f1 = capsys.readouterr().out.split("\n\n")
    lines = table.splitlines()
    assert lines[0].split() == ["topic_id", "r1-recall", "r2-recall", "rl-recall", "rsu4-recall"]
    assert [line.split()[0] for line in lines[1:]] == ["t0", "t1", "t2", "MEAN"]
    assert 0.0 < float(lines[-1].split()[1]) <= 1.0
    assert 0.0 < float(f1) <= 1.0

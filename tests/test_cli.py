"""CLI commands, config round-trips and exit codes."""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import treesum
from treesum.cli import main
from treesum.config import (
    ConfigError,
    RunConfig,
    config_from_mapping,
    config_to_text,
    parse_config_text,
)
from treesum.experiments import full_grid, simplex_triples
from treesum.tree import tree_to_dict


def _write_corpus(root, n_topics=2, refs=True):
    for t in range(n_topics):
        docs = root / f"topic{t}" / "docs"
        docs.mkdir(parents=True)
        (docs / "a.txt").write_text(
            "Shared city news update today. Local crews repaired the bridge. Weather stayed calm downtown."
        )
        (docs / "b.txt").write_text(
            "Shared city news update today. The council approved new parks. Residents praised the plan."
        )
        (docs / "c.txt").write_text(
            "Shared city news update today. Schools opened a science wing. Students toured the lab."
        )
        if refs:
            refs_dir = root / f"topic{t}" / "refs"
            refs_dir.mkdir()
            (refs_dir / "r0.txt").write_text(
                "City news update. Crews repaired the bridge. Council approved parks. Schools opened a wing."
            )
    return root


def test_config_round_trip():
    config = RunConfig(
        input="corpus",
        method="comp2",
        budget_unit="bytes",
        budget_limit=665,
        embedder="builtin:64",
        seed=9,
        k_first=4,
        delta=0.7,
        alpha=0.6,
        beta=0.2,
        gamma=0.2,
        max_nodes=6,
        metrics=("r1", "rl"),
        report="f1",
        out="results",
        workers=2,
    )
    parsed = config_from_mapping(parse_config_text(config_to_text(config)))
    assert parsed == config


def test_every_flag_reaches_the_config_and_its_echo():
    from treesum.cli import _build_config, build_parser

    args = build_parser().parse_args([
        "ablate", "--input", "corpus", "--layout", "jsonl", "--method", "comp2",
        "--budget-bytes", "665", "--embedder", "builtin:64", "--seed", "9", "--k-first", "4",
        "--k-rest", "3", "--delta", "0.7", "--alpha", "0.6", "--beta", "0.2", "--gamma", "0.2",
        "--max-nodes", "6", "--metrics", "r1,rl", "--report", "f1", "--out", "results",
        "--workers", "2",
    ])
    config = _build_config(args)
    assert config == RunConfig(
        input="corpus", layout="jsonl", method="comp2", budget_unit="bytes", budget_limit=665,
        embedder="builtin:64", seed=9, k_first=4, k_rest=3, delta=0.7, alpha=0.6, beta=0.2,
        gamma=0.2, max_nodes=6, metrics=("r1", "rl"), report="f1", out="results", workers=2,
    )
    assert config_to_text(config) == (
        "input = corpus\nlayout = jsonl\nmethod = comp2\nbudget-bytes = 665\n"
        "embedder = builtin:64\nseed = 9\nk-first = 4\nk-rest = 3\ndelta = 0.7\nalpha = 0.6\n"
        "beta = 0.2\ngamma = 0.2\nmax-nodes = 6\nmetrics = r1,rl\nreport = f1\nout = results\n"
        "workers = 2\n"
    )
    assert config_to_text(RunConfig()) == (
        "input = \nlayout = topic-dirs\nmethod = ours_final\nbudget-words = 100\n"
        "embedder = builtin:128\nseed = 0\nk-first = 3\nk-rest = 2\ndelta = 0.9\nalpha = 0.8\n"
        "beta = 0.1\ngamma = 0.1\nmetrics = r1,r2,rl,rsu4\nreport = recall\nout = out\n"
        "workers = 1\n"
    )


def test_config_file_with_flag_override(tmp_path):
    corpus = _write_corpus(tmp_path / "corpus")
    config_file = tmp_path / "run.cfg"
    config_file.write_text(
        f"input = {corpus}\nbudget-words = 20\nseed = 3\nout = {tmp_path/'out_a'}\n# comment\n"
    )
    code = main(["summarize", "--config", str(config_file), "--out", str(tmp_path / "out_b")])
    assert code == 0
    assert not (tmp_path / "out_a").exists()
    assert (tmp_path / "out_b" / "topic0.txt").exists()
    echoed = (tmp_path / "out_b" / "config.txt").read_text()
    assert "budget-words = 20" in echoed
    assert f"out = {tmp_path/'out_b'}" in echoed


def test_config_rejects_unknown_keys():
    with pytest.raises(Exception, match="unknown config key"):
        config_from_mapping({"velocity": "11"})


@pytest.mark.parametrize("value", [",", "", " , ,"])
def test_config_rejects_empty_metric_list(value):
    with pytest.raises(ConfigError, match="at least one metric"):
        config_from_mapping({"metrics": value})


def test_empty_metrics_flag_exits_2(tmp_path, capsys):
    corpus = _write_corpus(tmp_path / "corpus")
    code = main([
        "evaluate", "--input", str(corpus), "--budget-words", "10", "--metrics", ",",
        "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert "at least one metric" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, source",
    [("evaluate", "flag"), ("evaluate", "config file"), ("ablate", "flag"), ("ablate", "config file")],
)
def test_repeated_metric_exits_2_and_writes_nothing(tmp_path, capsys, command, source):
    """A metric named twice would write its rows twice; it is refused."""
    corpus = _write_corpus(tmp_path / "corpus")
    argv = [command, "--input", str(corpus), "--budget-words", "10", "--out", str(tmp_path / "out")]
    if source == "flag":
        argv += ["--metrics", "r1,rl,r1"]
    else:
        (tmp_path / "run.cfg").write_text("metrics = r1,r1\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert main(argv) == 2
    assert "metrics name r1 more than once" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["0", "-1"])
def test_config_rejects_max_nodes_below_one(value):
    with pytest.raises(ConfigError, match="max-nodes must be >= 1"):
        config_from_mapping({"max-nodes": value})


def test_summarize_is_deterministic(tmp_path):
    corpus = _write_corpus(tmp_path / "corpus")
    args = [
        "summarize", "--input", str(corpus), "--budget-words", "20",
        "--embedder", "builtin:64", "--seed", "7",
    ]
    assert main(args + ["--out", str(tmp_path / "run1")]) == 0
    assert main(args + ["--out", str(tmp_path / "run2")]) == 0
    for name in ("topic0.txt", "topic1.txt"):
        assert (tmp_path / "run1" / name).read_bytes() == (tmp_path / "run2" / name).read_bytes()


def test_summarize_missing_input_exits_2(tmp_path, capsys):
    code = main(["summarize", "--input", str(tmp_path / "nope"), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_summarize_method_dispatch(tmp_path):
    corpus = _write_corpus(tmp_path / "corpus")
    code = main([
        "summarize", "--input", str(corpus), "--method", "comp1",
        "--budget-words", "12", "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    assert "method = comp1" in (tmp_path / "out" / "config.txt").read_text()
    assert (tmp_path / "out" / "topic0.txt").read_text().strip()


def test_summarize_jsonl_format(tmp_path):
    corpus = _write_corpus(tmp_path / "corpus")
    code = main([
        "summarize", "--input", str(corpus), "--budget-words", "15",
        "--format", "jsonl", "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    lines = (tmp_path / "out" / "summaries.jsonl").read_text().strip().splitlines()
    assert len(lines) == 2
    record = json.loads(lines[0])
    assert set(record) == {"topic_id", "summary", "sentences"}
    assert set(record["sentences"][0]) == {"text", "node_id", "doc_id", "position"}


def test_summarize_dump_trees(tmp_path):
    corpus = _write_corpus(tmp_path / "corpus")
    code = main([
        "summarize", "--input", str(corpus), "--budget-words", "15",
        "--dump-trees", "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    dumps = json.loads((tmp_path / "out" / "trees.json").read_text())
    assert set(dumps) == {"topic0", "topic1"}
    assert dumps["topic0"]["node_count"] >= 1


def test_dump_trees_writes_the_trees_selection_used(tmp_path, monkeypatch):
    """``--dump-trees`` writes the tree each summary was selected from, built
    once per topic: the document tree for ours-final and ours-cs, comp4's
    sentence tree with members named by sentence key, and null for the
    methods that select without a tree."""
    import treesum.variants
    from treesum.tree import build_class_tree

    calls = []

    def counting_build(*args, **kwargs):
        calls.append(args)
        return build_class_tree(*args, **kwargs)

    monkeypatch.setattr(treesum.variants, "build_class_tree", counting_build)
    corpus = _write_corpus(tmp_path / "corpus", n_topics=3)
    for method in ("ours-final", "ours-cs", "comp4", "comp1"):
        calls.clear()
        out = tmp_path / method
        code = main([
            "summarize", "--input", str(corpus), "--method", method, "--budget-words", "15",
            "--dump-trees", "--out", str(out),
        ])
        assert code == 0
        dumps = json.loads((out / "trees.json").read_text())
        if method == "comp1":
            assert calls == []
            assert dumps == {f"topic{t}": None for t in range(3)}
            continue
        if method == "comp4":
            names = [[f"topic{t}/d{d}/s{s}" for d in range(3) for s in range(3)] for t in range(3)]
        else:
            names = [[f"topic{t}/d{d}" for d in range(3)] for t in range(3)]
        assert len(calls) == 3
        assert [len(args[0]) for args in calls] == [len(n) for n in names]
        rebuilt = {f"topic{t}": tree_to_dict(build_class_tree(*calls[t]), names[t]) for t in range(3)}
        assert dumps == rebuilt
        assert dumps["topic0"]["nodes"][0]["members"] == names[0]


def test_empty_corpus_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    (tmp_path / "empty_dir").mkdir()
    for argv in (
        ["--input", str(empty), "--layout", "jsonl"],
        ["--input", str(tmp_path / "empty_dir")],
    ):
        code = main(["summarize", *argv, "--budget-words", "15", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


def test_file_provider_error_exits_3(tmp_path, capsys):
    corpus = _write_corpus(tmp_path / "corpus")
    vectors = tmp_path / "vectors.jsonl"
    vectors.write_text(json.dumps({"key": "topic0/d0/s0", "vector": [1.0, 0.0]}) + "\n")
    code = main([
        "summarize", "--input", str(corpus), "--embedder", f"file:{vectors}",
        "--budget-words", "10", "--out", str(tmp_path / "out"),
    ])
    assert code == 3
    assert "missing embedding" in capsys.readouterr().err


def test_file_vectors_whose_squared_distances_overflow_summarize(tmp_path):
    """One topic of 20 one-sentence documents with 1-D vectors from 0.1e154
    to 1.3e154: k-means++ must seed from squared distances whose sum
    overflows."""
    import numpy as np

    values = np.random.default_rng(20).uniform(0.1e154, 1.3e154, size=20)
    documents = [{"doc_id": f"d{i}", "text": f"Report number {i} is here."} for i in range(20)]
    (tmp_path / "corpus.jsonl").write_text(json.dumps({"topic_id": "t", "documents": documents}))
    (tmp_path / "vectors.jsonl").write_text(
        "".join(json.dumps({"key": f"t/d{i}/s0", "vector": [v]}) + "\n" for i, v in enumerate(values))
    )
    code = main([
        "summarize", "--input", str(tmp_path / "corpus.jsonl"), "--layout", "jsonl",
        "--embedder", f"file:{tmp_path / 'vectors.jsonl'}", "--budget-words", "20",
        "--dump-trees", "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    assert json.loads((tmp_path / "out" / "trees.json").read_text())["t"]["node_count"] > 1


def test_outputs_do_not_depend_on_a_power_of_two_scale_of_the_vectors(tmp_path):
    """Every ``file:`` vector times 2**k: all six methods' summaries and
    trees, and the ablation table, keep the bytes they have at k = 0. The
    components lie on a grid of 2**-10 below 4, so each scale is exact."""
    import numpy as np

    corpus = _write_varied_corpus(tmp_path / "corpus")
    rng = np.random.default_rng(1060)
    keys = []
    for topic in sorted(corpus.iterdir()):
        for d, doc in enumerate(sorted((topic / "docs").iterdir())):
            sentences = treesum.segment_sentences(doc.read_text())
            keys += [f"{topic.name}/d{d}/s{s}" for s in range(len(sentences))]
    base = np.round(np.clip(rng.normal(size=(len(keys), 16)), -3.9, 3.9) * 1024) / 1024
    outputs = {}
    for k in (0, -1060, -20, 1000, 1021):
        vectors = tmp_path / f"vectors{k}.jsonl"
        vectors.write_text(
            "".join(json.dumps({"key": key, "vector": row}) + "\n" for key, row in zip(keys, np.ldexp(base, k).tolist()))
        )
        common = ["--input", str(corpus), "--embedder", f"file:{vectors}", "--budget-words", "40", "--seed", "3"]
        runs = {"ablate": ["ablate", *common]}
        for method in ("ours-final", "ours-cs", "comp1", "comp2", "comp3", "comp4"):
            runs[method] = ["summarize", *common, "--method", method, "--format", "jsonl", "--dump-trees"]
        for name, argv in runs.items():
            out = tmp_path / f"out{k}" / name
            assert main([*argv, "--out", str(out)]) == 0, (k, name)
            outputs[k, name] = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "config.txt"}
    for (k, name), files in outputs.items():
        assert files == outputs[0, name], (k, name)


def test_evaluate_generates_and_reports(tmp_path):
    corpus = _write_corpus(tmp_path / "corpus")
    out = tmp_path / "out"
    code = main([
        "evaluate", "--input", str(corpus), "--budget-words", "20",
        "--metrics", "r1,rl", "--out", str(out),
    ])
    assert code == 0
    csv_text = (out / "report.csv").read_text()
    table = (out / "report.txt").read_text()
    assert csv_text.splitlines()[0] == "topic_id,metric,recall,precision,f1"
    # text table and csv agree on the recall values
    for line in csv_text.strip().splitlines()[1:]:
        _, _, recall, _, _ = line.split(",")
        assert f"{float(recall):.4f}" in table


def test_evaluate_existing_summaries_dir(tmp_path):
    corpus = _write_corpus(tmp_path / "corpus")
    summaries = tmp_path / "summaries"
    summaries.mkdir()
    (summaries / "topic0.txt").write_text("City news update today.\n")
    (summaries / "topic1.txt").write_text("Council approved new parks.\n")
    code = main([
        "evaluate", "--input", str(corpus), "--summaries", str(summaries),
        "--budget-words", "100", "--out", str(tmp_path / "out"),
    ])
    assert code == 0


def test_evaluate_unknown_summary_topic_exits_2(tmp_path, capsys):
    corpus = _write_corpus(tmp_path / "corpus")
    summaries = tmp_path / "summaries"
    summaries.mkdir()
    for topic_id in ("topic0", "topic1", "topic9"):
        (summaries / f"{topic_id}.txt").write_text("City news update today.\n")
    code = main([
        "evaluate", "--input", str(corpus), "--summaries", str(summaries),
        "--budget-words", "100", "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert "not in the corpus: ['topic9']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_evaluate_without_references_exits_2(tmp_path, capsys):
    corpus = _write_corpus(tmp_path / "corpus", refs=False)
    code = main([
        "evaluate", "--input", str(corpus), "--budget-words", "10",
        "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert "no reference" in capsys.readouterr().err


def test_ablate_table_shape_and_agreement(tmp_path):
    corpus = _write_corpus(tmp_path / "corpus")
    out = tmp_path / "out"
    code = main([
        "ablate", "--input", str(corpus), "--budget-words", "20",
        "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    csv_lines = (out / "ablation.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "method,seed,metric,recall,precision,f1"
    body = [line.split(",") for line in csv_lines[1:]]
    methods = [row[0] for row in body]
    assert methods == [m for m in ("ours_final", "ours_cs", "comp1", "comp2", "comp3", "comp4") for _ in range(4)]
    assert all(row[1] == "5" for row in body)  # per-method seeds logged
    table = (out / "ablation.txt").read_text()
    assert len(table.strip().splitlines()) == 7  # header + 6 method rows
    for row in body:
        assert f"{float(row[3]):.4f}" in table


def test_ablate_reports_ignore_the_corpus_layout(tmp_path):
    """One corpus written as topic directories and as JSONL gives
    byte-identical ``ablation.csv`` and ``ablation.txt``."""
    topic_dirs = _write_varied_corpus(tmp_path / "corpus")
    records = [
        {
            "topic_id": topic.name,
            "documents": [
                {"doc_id": path.stem, "text": path.read_text()} for path in sorted((topic / "docs").glob("*.txt"))
            ],
            "references": [path.read_text().strip() for path in sorted((topic / "refs").glob("*.txt"))],
        }
        for topic in sorted(topic_dirs.iterdir())
    ]
    jsonl = tmp_path / "corpus.jsonl"
    jsonl.write_text("".join(json.dumps(record) + "\n" for record in records))
    reports = []
    for source, layout in ((topic_dirs, "topic-dirs"), (jsonl, "jsonl")):
        out = tmp_path / layout
        assert main([
            "ablate", "--input", str(source), "--layout", layout, "--budget-bytes", "140",
            "--seed", "9", "--out", str(out),
        ]) == 0
        reports.append([(out / name).read_bytes() for name in ("ablation.csv", "ablation.txt")])
    assert reports[0] == reports[1]


def test_console_script_names_the_cli_main():
    """``[project.scripts]`` in ``pyproject.toml`` points ``treesum`` at
    ``treesum.cli:main``, and that name resolves to the CLI's entry point."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"treesum": "treesum.cli:main"}
    module, _, attr = scripts["treesum"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main


@pytest.mark.skipif(shutil.which("treesum") is None, reason="console script not installed")
def test_console_script_entry_point(tmp_path):
    corpus = _write_corpus(tmp_path / "corpus")
    result = subprocess.run(
        [
            "treesum", "summarize", "--input", str(corpus),
            "--budget-words", "15", "--out", str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / "topic0.txt").exists()


def test_simplex_enumeration_size():
    triples = simplex_triples(0.1)
    assert len(triples) == 66
    assert all(abs(a + b + g - 1.0) < 1e-9 for a, b, g in triples)


def test_full_grid_default_size():
    assert len(full_grid()) == 11 * 66 * 3


def test_tune_restricted_to_single_point(tmp_path):
    corpus = _write_corpus(tmp_path / "corpus")
    out = tmp_path / "out"
    code = main([
        "tune", "--input", str(corpus), "--budget-words", "20",
        "--deltas", "0.9", "--ks", "3", "--weights", "0.8,0.1,0.1",
        "--out", str(out),
    ])
    assert code == 0
    best = (out / "best.txt").read_text()
    assert "delta = 0.9" in best
    assert "alpha = 0.8" in best
    assert "k-first = 3" in best
    grid_lines = (out / "grid.csv").read_text().strip().splitlines()
    assert len(grid_lines) == 2  # header + the single point


def test_results_independent_of_worker_count(tmp_path):
    corpus = _write_corpus(tmp_path / "corpus")
    base = [
        "summarize", "--input", str(corpus), "--budget-words", "20",
        "--seed", "11", "--embedder", "builtin:64",
    ]
    assert main(base + ["--workers", "1", "--out", str(tmp_path / "w1")]) == 0
    assert main(base + ["--workers", "3", "--out", str(tmp_path / "w3")]) == 0
    for name in ("topic0.txt", "topic1.txt"):
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w3" / name).read_bytes()


@pytest.mark.parametrize(
    "command",
    [
        ["ablate", "--budget-bytes", "120"],
        ["tune", "--budget-words", "20", "--deltas", "0.0,0.5,1.0", "--ks", "2,3",
         "--weights", "1,0,0;0.6,0.3,0.1;0.2,0.6,0.2"],
    ],
)
def test_ablate_and_tune_outputs_independent_of_worker_count(tmp_path, command):
    corpus = _write_varied_corpus(tmp_path / "corpus", n_topics=3)
    base = [*command, "--input", str(corpus), "--seed", "11", "--embedder", "builtin:64"]
    assert main(base + ["--workers", "1", "--out", str(tmp_path / "w1")]) == 0
    assert main(base + ["--workers", "2", "--out", str(tmp_path / "w2")]) == 0
    names = sorted(p.name for p in (tmp_path / "w1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "w2").iterdir())
    for name in names:
        if name != "config.txt":
            assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes(), name


def test_echoed_config_round_trips_to_identical_run_config(tmp_path):
    corpus = _write_corpus(tmp_path / "corpus")
    out = tmp_path / "out"
    assert main([
        "summarize", "--input", str(corpus), "--budget-bytes", "120",
        "--method", "comp3", "--seed", "4", "--k-first", "2",
        "--out", str(out),
    ]) == 0
    from treesum.config import load_config_file

    echoed = config_from_mapping(load_config_file(out / "config.txt"))
    assert echoed.method == "comp3"
    assert (echoed.budget_unit, echoed.budget_limit) == ("bytes", 120)
    assert echoed.seed == 4 and echoed.k_first == 2
    # A run driven purely by the echoed config reproduces the output.
    rerun = tmp_path / "rerun"
    assert main(["summarize", "--config", str(out / "config.txt"), "--out", str(rerun)]) == 0
    assert (rerun / "topic0.txt").read_bytes() == (out / "topic0.txt").read_bytes()


def test_evaluate_jsonl_summaries_file(tmp_path):
    corpus = _write_corpus(tmp_path / "corpus")
    summaries = tmp_path / "summaries.jsonl"
    with summaries.open("w") as handle:
        for t in range(2):
            handle.write(json.dumps({"topic_id": f"topic{t}", "summary": "City news update."}) + "\n")
    code = main([
        "evaluate", "--input", str(corpus), "--summaries", str(summaries),
        "--budget-words", "50", "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    assert (tmp_path / "out" / "report.csv").exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"topic_id": "topic0", "summary": ', "invalid JSON on line 2"),
        pytest.param("[" * 100000, "invalid JSON on line 2", id="deeply nested"),
        ('{"summary": "City news update."}', "needs string topic_id and summary"),
        ('{"topic_id": "topic0"}', "needs string topic_id and summary"),
        ('{"topic_id": 0, "summary": "City news update."}', "needs string topic_id and summary"),
        ('{"topic_id": "topic0", "summary": ["City news."]}', "needs string topic_id and summary"),
        ('["topic0", "City news update."]', "needs string topic_id and summary"),
        ('{"topic_id": "topic0", "summary": "City \\ud800 news."}', "lone surrogate"),
    ],
)
def test_evaluate_malformed_summaries_jsonl_exits_2(tmp_path, capsys, line, message):
    corpus = _write_corpus(tmp_path / "corpus")
    summaries = tmp_path / "summaries.jsonl"
    good = json.dumps({"topic_id": "topic1", "summary": "Council approved new parks."})
    summaries.write_text(good + "\n" + line + "\n")
    code = main([
        "evaluate", "--input", str(corpus), "--summaries", str(summaries),
        "--budget-words", "50", "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert message in capsys.readouterr().err


def test_unsafe_topic_id_exits_2_and_writes_nothing_outside_out(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    record = {
        "topic_id": "../escape",
        "documents": [{"doc_id": "d0", "text": "Crews repaired the bridge. Parks opened."}],
        "references": ["Crews repaired the bridge."],
    }
    corpus.write_text(json.dumps(record) + "\n")
    before = set(tmp_path.rglob("*"))
    code = main([
        "summarize", "--input", str(corpus), "--layout", "jsonl", "--format", "files",
        "--budget-words", "10", "--out", str(tmp_path / "out" / "run"),
    ])
    assert code == 2
    assert "single safe path component" in capsys.readouterr().err
    assert set(tmp_path.rglob("*")) == before


def _write_varied_corpus(root, n_topics=2, n_docs=6, n_sents=5, seed=3):
    """Topics whose documents share a few recurring sentences among random
    filler, so trees differ between cluster counts and weights matter."""
    import random

    rng = random.Random(seed)
    words = [f"w{i}" for i in range(40)]
    for t in range(n_topics):
        shared = [" ".join(rng.choices(words, k=6)).capitalize() + "." for _ in range(4)]
        docs = root / f"topic{t}" / "docs"
        docs.mkdir(parents=True)
        for d in range(n_docs):
            sents = [
                rng.choice(shared) if rng.random() < 0.4
                else " ".join(rng.choices(words, k=rng.randint(4, 10))).capitalize() + "."
                for _ in range(n_sents)
            ]
            (docs / f"d{d}.txt").write_text(" ".join(sents))
        refs = root / f"topic{t}" / "refs"
        refs.mkdir()
        for r in range(2):
            (refs / f"r{r}.txt").write_text(" ".join(rng.sample(shared, 3)))
    return root


def test_grid_search_matches_standalone_run(tmp_path):
    """Every grid point's objective equals a standalone summarize + evaluate
    run with the same settings, for several deltas, weight triples (beta 0
    and (1, 0, 0) included), both cluster counts, word and byte budgets, one
    or two workers, and an f1 objective on another metric."""
    from treesum.corpus import load_corpus
    from treesum.embedding import embed_corpus, provider_builtin_tfidf
    from treesum.experiments import run_grid_search
    from treesum.pipeline import resolve_max_nodes, summarize_corpus
    from treesum.rouge import evaluate_corpus
    from treesum.scoring import Hyperparams
    from treesum.selection import Budget
    from treesum.variants import VariantSpec

    corpus = load_corpus(_write_varied_corpus(tmp_path / "corpus"), "topic-dirs")
    embedded = embed_corpus(corpus, provider_builtin_tfidf(corpus, dim=64, seed=7))
    grid = full_grid(
        deltas=[0.0, 0.5, 1.0],
        weight_triples=[(1.0, 0.0, 0.0), (0.7, 0.0, 0.3), (0.6, 0.3, 0.1), (0.2, 0.6, 0.2)],
        ks=[2, 3],
    )
    runs = [
        (Budget("words", 20), "r1", "recall", 1),
        (Budget("words", 20), "r1", "recall", 2),
        (Budget("bytes", 120), "r1", "recall", 1),
        (Budget("bytes", 120), "r2", "f1", 2),
    ]
    for budget, metric, kind, workers in runs:
        best, results = run_grid_search(
            corpus, embedded, budget, grid, seed=7,
            objective_metric=metric, report_kind=kind, workers=workers,
        )
        assert [r.point for r in results] == grid
        cap = resolve_max_nodes(corpus, budget, None)
        for result in results:
            p = result.point
            hp = Hyperparams(delta=p.delta, alpha=p.alpha, beta=p.beta, gamma=p.gamma, k_first=p.k)
            spec = VariantSpec("ours_final", hp, budget, seed=7)
            summaries = summarize_corpus(corpus, embedded, spec, cap)
            report = evaluate_corpus(
                {tid: s.text for tid, s in summaries.items()},
                corpus,
                budget,
                metrics=[metric],
                report_kind=kind,
            )
            assert result.objective == report.headline(metric), (budget, workers, p)
        assert best.objective == max(r.objective for r in results)


def test_grid_search_selects_once_per_tree_and_scores_each_text_once(tmp_path, monkeypatch):
    """Guard against per-point work in the search: one lockstep selection
    per (topic, cluster count) holding every delta and weight triple, and
    one ROUGE scoring per distinct (topic, truncated summary)."""
    import treesum.rouge
    import treesum.selection
    from treesum.corpus import load_corpus
    from treesum.embedding import embed_corpus, provider_builtin_tfidf
    from treesum.experiments import run_grid_search
    from treesum.pipeline import resolve_max_nodes, summarize_corpus
    from treesum.scoring import Hyperparams
    from treesum.selection import Budget
    from treesum.variants import VariantSpec

    corpus = load_corpus(_write_varied_corpus(tmp_path / "corpus", n_topics=3), "topic-dirs")
    embedded = embed_corpus(corpus, provider_builtin_tfidf(corpus, dim=64, seed=7))
    ks = [2, 3]
    grid = full_grid(
        deltas=[0.0, 0.5, 1.0],
        weight_triples=[(1.0, 0.0, 0.0), (0.7, 0.0, 0.3), (0.6, 0.3, 0.1), (0.2, 0.6, 0.2)],
        ks=ks,
    )
    budget = Budget("words", 20)

    batches = []
    run_selections = treesum.selection.run_selections

    def counting_selections(ctx, hps, budget):
        batches.append(len(hps))
        return run_selections(ctx, hps, budget)

    scored = []
    score_all = treesum.rouge.score_all

    def counting_score_all(candidate, references, metrics, memo=None):
        scored.append((tuple(references), candidate))
        return score_all(candidate, references, metrics, memo=memo)

    monkeypatch.setattr(treesum.selection, "run_selections", counting_selections)
    monkeypatch.setattr(treesum.rouge, "score_all", counting_score_all)
    run_grid_search(corpus, embedded, budget, grid, seed=7)
    monkeypatch.undo()

    assert batches == [len(grid) // len(ks)] * (len(corpus.topics) * len(ks))
    cap = resolve_max_nodes(corpus, budget, None)
    distinct = set()
    for p in grid:
        hp = Hyperparams(delta=p.delta, alpha=p.alpha, beta=p.beta, gamma=p.gamma, k_first=p.k)
        summaries = summarize_corpus(corpus, embedded, VariantSpec("ours_final", hp, budget, seed=7), cap)
        for topic in corpus:
            distinct.add((topic.references, treesum.rouge.truncate(summaries[topic.topic_id].text, budget)))
    assert len(distinct) < len(grid) * len(corpus.topics)
    assert sorted(scored) == sorted(distinct)


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--deltas", "abc"),
        ("--deltas", "2"),
        ("--deltas", "nan"),
        ("--ks", "1"),
        ("--ks", "x"),
        ("--weights", "a,b,c"),
        ("--weights", "0.5,0.5,0.5"),
        ("--weights", "1,0,0;"),
    ],
)
def test_tune_bad_grid_value_exits_2_before_embedding(tmp_path, capsys, monkeypatch, flag, value):
    import treesum.cli

    def no_embedding(*args, **kwargs):
        raise AssertionError("the corpus was embedded before the grid was checked")

    monkeypatch.setattr(treesum.cli, "embed_corpus", no_embedding)
    corpus = _write_corpus(tmp_path / "corpus")
    out = tmp_path / "out"
    code = main(["tune", "--input", str(corpus), "--budget-words", "20", flag, value, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--ks", "2,2"], "k 2 "),
        (["--ks", "3,2,3", "--deltas", "0.7"], "k 3 "),
        (["--deltas", "0.7,0.70", "--ks", "2"], "delta 0.7 "),
        (["--ks", "2,2", "--deltas", "0.7,0.7"], "delta 0.7 "),
        (["--weights", "1,0,0;0.8,0.1,0.1;1.0,0.0,0.0", "--ks", "2"], "weight triple (1.0, 0.0, 0.0) "),
    ],
)
def test_tune_grid_value_named_twice_exits_2(tmp_path, capsys, flags, named):
    corpus = _write_corpus(tmp_path / "corpus")
    out = tmp_path / "out"
    code = main(["tune", "--input", str(corpus), "--budget-words", "20", *flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{named}is named more than once" in err and "Traceback" not in err
    assert not out.exists()


def test_tune_small_grid_runs(tmp_path):
    corpus = _write_corpus(tmp_path / "corpus")
    out = tmp_path / "out"
    code = main([
        "tune", "--input", str(corpus), "--budget-words", "20",
        "--deltas", "0.5,0.9", "--ks", "2", "--weights", "1,0,0;0.8,0.1,0.1",
        "--objective", "r1", "--out", str(out),
    ])
    assert code == 0
    grid_lines = (out / "grid.csv").read_text().strip().splitlines()
    assert len(grid_lines) == 1 + 4


@pytest.mark.parametrize("budget", [("words", 20), ("bytes", 120)])
@pytest.mark.parametrize("workers", [1, 2])
def test_ablation_matches_standalone_runs(tmp_path, budget, workers):
    """Every ablation row equals a standalone summarize + evaluate run of its
    method, although the methods of a topic share trees and score terms."""
    from treesum.corpus import load_corpus
    from treesum.embedding import embed_corpus, provider_builtin_tfidf
    from treesum.experiments import run_ablation
    from treesum.pipeline import resolve_max_nodes, summarize_corpus
    from treesum.rouge import evaluate_corpus
    from treesum.scoring import Hyperparams
    from treesum.selection import Budget
    from treesum.variants import METHODS, VariantSpec

    corpus = load_corpus(_write_varied_corpus(tmp_path / "corpus", n_topics=3), "topic-dirs")
    embedded = embed_corpus(corpus, provider_builtin_tfidf(corpus, dim=64, seed=7))
    budget = Budget(*budget)
    hp = Hyperparams(delta=0.6, alpha=0.6, beta=0.3, gamma=0.1, k_first=3)
    metrics = ["r1", "r2", "rl", "rsu4"]
    rows = run_ablation(
        corpus, embedded, hp, budget, seed=11, metrics=metrics, report_kind="f1", workers=workers
    )
    assert [row.method for row in rows] == list(METHODS)
    cap = resolve_max_nodes(corpus, budget, None)
    for row in rows:
        summaries = summarize_corpus(corpus, embedded, VariantSpec(row.method, hp, budget, 11), cap)
        report = evaluate_corpus(
            {tid: s.text for tid, s in summaries.items()},
            corpus,
            budget,
            metrics=metrics,
            report_kind="f1",
        )
        assert row.scores == report.mean, row.method



def test_ablation_tokenizes_each_reference_once(tmp_path, monkeypatch):
    """One ``run_ablation`` makes one ``_Tokens`` per reference for all six
    methods' reports and all four metrics."""
    from collections import Counter

    import treesum.rouge as rouge
    from treesum.corpus import load_corpus
    from treesum.embedding import embed_corpus, provider_builtin_tfidf
    from treesum.experiments import run_ablation
    from treesum.scoring import Hyperparams
    from treesum.selection import Budget

    made = []

    class CountingTokens(rouge._Tokens):
        def __init__(self, memo, text):
            made.append(text)
            super().__init__(memo, text)

    corpus = load_corpus(_write_varied_corpus(tmp_path / "corpus", n_topics=3), "topic-dirs")
    embedded = embed_corpus(corpus, provider_builtin_tfidf(corpus, dim=64, seed=7))
    monkeypatch.setattr(rouge, "_Tokens", CountingTokens)
    run_ablation(
        corpus, embedded, Hyperparams(), Budget("words", 20), seed=11, metrics=rouge.METRIC_IDS, report_kind="f1"
    )
    references = Counter(ref for topic in corpus for ref in topic.references)
    assert len(references) == 6
    assert Counter(text for text in made if text in references) == references


def test_ablate_builds_each_shared_clustering_once_per_topic(tmp_path, monkeypatch):
    import treesum.variants as variants

    built = {"document tree": 0, "sentence tree": 0, "flat clustering": 0}

    def counting_tree(vectors, *args, **kwargs):
        # The corpus has 6 documents of 5 sentences.
        built["document tree" if len(vectors) == 6 else "sentence tree"] += 1
        return build_class_tree(vectors, *args, **kwargs)

    def counting_split(*args, **kwargs):
        built["flat clustering"] += 1
        return split_rows(*args, **kwargs)

    build_class_tree, split_rows = variants.build_class_tree, variants.split_rows
    monkeypatch.setattr(variants, "build_class_tree", counting_tree)
    monkeypatch.setattr(variants, "split_rows", counting_split)
    corpus = _write_varied_corpus(tmp_path / "corpus", n_topics=1)
    code = main([
        "ablate", "--input", str(corpus), "--budget-words", "20", "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    assert built == {"document tree": 1, "sentence tree": 1, "flat clustering": 1}


def test_ablate_selects_each_shared_context_in_one_lockstep_call(tmp_path, monkeypatch):
    """ours-final with ours-cs and comp2 with comp3 each run as one
    ``run_selections`` call: four calls per topic for the six methods."""
    import treesum.selection as selection

    calls = []

    def counting_run_selections(ctx, hps, budget):
        calls.append(len(hps))
        return run_selections(ctx, hps, budget)

    run_selections = selection.run_selections
    monkeypatch.setattr(selection, "run_selections", counting_run_selections)
    corpus = _write_varied_corpus(tmp_path / "corpus", n_topics=3)
    code = main([
        "ablate", "--input", str(corpus), "--budget-words", "20", "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    assert sorted(calls) == [1] * 6 + [2] * 6


def _invalid_utf8_case(tmp_path, path):
    """Write one input that holds the byte 0xE9 and return the argv reading it."""
    corpus = _write_corpus(tmp_path / "corpus")
    bad = b"Caf\xe9 news today. The bridge opened.\n"
    flags = ["--budget-words", "20", "--out", str(tmp_path / "out")]
    if path == "topic-dirs document":
        (corpus / "topic0" / "docs" / "a.txt").write_bytes(bad)
        return ["summarize", "--input", str(corpus), *flags], "a.txt"
    if path == "topic-dirs reference":
        (corpus / "topic1" / "refs" / "r0.txt").write_bytes(bad)
        return ["summarize", "--input", str(corpus), *flags], "r0.txt"
    if path == "corpus JSONL":
        source = tmp_path / "corpus.jsonl"
        source.write_bytes(b'{"topic_id": "t", "documents": [{"doc_id": "d", "text": "' + bad.strip() + b'"}]}\n')
        return ["summarize", "--input", str(source), "--layout", "jsonl", *flags], "corpus.jsonl"
    if path == "summaries JSONL":
        source = tmp_path / "summaries.jsonl"
        source.write_bytes(b'{"topic_id": "topic0", "summary": "' + bad.strip() + b'"}\n')
        return ["evaluate", "--input", str(corpus), "--summaries", str(source), *flags], "summaries.jsonl"
    if path == "summaries directory":
        source = tmp_path / "summaries"
        source.mkdir()
        (source / "topic0.txt").write_bytes(bad)
        return ["evaluate", "--input", str(corpus), "--summaries", str(source), *flags], "topic0.txt"
    if path == "config file":
        source = tmp_path / "run.cfg"
        source.write_bytes(b"seed = \xe9\n")
        return ["summarize", "--input", str(corpus), "--config", str(source), *flags], "run.cfg"
    source = tmp_path / "vectors.jsonl"
    source.write_bytes(b'{"key": "topic0/d0/s0", "vector": [1.0]} \xe9\n')
    return ["summarize", "--input", str(corpus), "--embedder", f"file:{source}", *flags], "vectors.jsonl"


@pytest.mark.parametrize(
    "path, exit_code",
    [
        ("topic-dirs document", 2),
        ("topic-dirs reference", 2),
        ("corpus JSONL", 2),
        ("summaries JSONL", 2),
        ("summaries directory", 2),
        ("config file", 2),
        ("embedding file", 3),
    ],
)
def test_invalid_utf8_input_exits_with_error_naming_the_file(tmp_path, capsys, path, exit_code):
    argv, file_name = _invalid_utf8_case(tmp_path, path)
    assert main(argv) == exit_code
    err = capsys.readouterr().err
    assert file_name in err and "0xe9" in err


def test_evaluate_repeated_topic_id_exits_2(tmp_path, capsys):
    corpus = _write_corpus(tmp_path / "corpus")
    summaries = tmp_path / "summaries.jsonl"
    records = [
        {"topic_id": "topic0", "summary": "City news update."},
        {"topic_id": "topic1", "summary": "Council approved new parks."},
        {"topic_id": "topic0", "summary": "Nothing."},
    ]
    summaries.write_text("".join(json.dumps(r) + "\n" for r in records))
    code = main([
        "evaluate", "--input", str(corpus), "--summaries", str(summaries),
        "--budget-words", "50", "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert "'topic0' appears on lines 1 and 3" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _fresh_interpreter(args):
    """Run ``python <args>`` with this checkout's ``treesum`` importable."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(treesum.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def _run_cli(argv):
    """Run the command line in a fresh interpreter: (exit code, stderr)."""
    result = _fresh_interpreter(["-m", "treesum.cli", *argv])
    return result.returncode, result.stderr


# One digit past the cap Python puts on int-string conversion: json.loads
# raises a plain ValueError for it, not a JSONDecodeError.
_TOO_MANY_DIGITS = "1" * 4301


@pytest.mark.parametrize(
    "path, exit_code",
    [("corpus JSONL", 2), ("embedding file", 3), ("summaries JSONL", 2)],
)
def test_integer_past_the_digit_limit_exits_cleanly(tmp_path, path, exit_code):
    corpus = _write_corpus(tmp_path / "corpus")
    out = tmp_path / "out"
    flags = ["--budget-words", "20", "--out", str(out)]
    if path == "corpus JSONL":
        source = tmp_path / "corpus.jsonl"
        good = {"topic_id": "t", "documents": [{"doc_id": "d", "text": "Crews repaired the bridge."}]}
        source.write_text(json.dumps(good) + '\n{"topic_id": ' + _TOO_MANY_DIGITS + "}\n")
        argv = ["summarize", "--input", str(source), "--layout", "jsonl", *flags]
    elif path == "embedding file":
        source = tmp_path / "vectors.jsonl"
        good = {"key": "topic0/d0/s0", "vector": [1.0]}
        source.write_text(json.dumps(good) + '\n{"key": "topic0/d0/s1", "vector": [' + _TOO_MANY_DIGITS + "]}\n")
        argv = ["summarize", "--input", str(corpus), "--embedder", f"file:{source}", *flags]
    else:
        source = tmp_path / "summaries.jsonl"
        good = {"topic_id": "topic0", "summary": "City news update."}
        source.write_text(json.dumps(good) + '\n{"topic_id": "topic1", "summary": ' + _TOO_MANY_DIGITS + "}\n")
        argv = ["evaluate", "--input", str(corpus), "--summaries", str(source), *flags]
    code, err = _run_cli(argv)
    assert code == exit_code, err
    assert "Traceback" not in err
    assert f"line 2 of {source}" in err
    assert not out.exists()


def test_vector_component_past_the_float_range_exits_3(tmp_path):
    """An integer of 401 digits parses as JSON but not as a float."""
    corpus = _write_corpus(tmp_path / "corpus")
    vectors = tmp_path / "vectors.jsonl"
    vectors.write_text('{"key": "topic0/d0/s0", "vector": [1' + "0" * 400 + ", 1.0]}\n")
    out = tmp_path / "out"
    code, err = _run_cli([
        "summarize", "--input", str(corpus), "--embedder", f"file:{vectors}",
        "--budget-words", "20", "--out", str(out),
    ])
    assert code == 3, err
    assert "Traceback" not in err
    assert "'topic0/d0/s0'" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [["summarize", "--dump-trees", "--method", m] for m in ("ours-final", "ours-cs", "comp1", "comp2", "comp3", "comp4")]
    + [["ablate"], ["tune"]],
    ids=lambda command: command[-1],
)
def test_document_mean_past_the_float_range_exits_3(tmp_path, command):
    """Every vector is finite, but two sentences of 1.5e308 sum past the
    float range, so documents 0 and 1 have no finite mean in plain
    arithmetic. The name is kept from when such a corpus exited 3; every
    command now exits 0, with the outputs of the same vectors times 2**-8,
    whose plain means are all finite."""
    corpus = tmp_path / "corpus.jsonl"
    texts = [f"Report {d} opens here. Report {d} ends here." for d in range(6)]
    record = {
        "topic_id": "t",
        "documents": [{"doc_id": f"doc{d}", "text": t} for d, t in enumerate(texts)],
        "references": ["Report 2 opens here. Report 0 ends here."],
    }
    corpus.write_text(json.dumps(record) + "\n")
    outputs = []
    for scale in (1.0, 2.0**-8):
        vectors = tmp_path / f"vectors{scale}.jsonl"
        vectors.write_text("".join(
            json.dumps({"key": f"t/d{d}/s{s}", "vector": [v * scale for v in (1.5e308 if d < 2 else d, 1.0, s)]}) + "\n"
            for d in range(6) for s in range(2)
        ))
        out = tmp_path / f"out{scale}"
        code, err = _run_cli([
            *command, "--input", str(corpus), "--layout", "jsonl", "--embedder", f"file:{vectors}",
            "--budget-words", "20", "--out", str(out),
        ])
        assert code == 0, err
        outputs.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "config.txt"})
    assert outputs[0] == outputs[1]
    assert outputs[0]


@pytest.mark.parametrize("spec", ["builtin:" + "1" + "0" * 30, "builtin:100000000000"])
def test_oversized_builtin_dim_exits_2_before_reading_the_corpus(tmp_path, spec):
    """A dim past a C long, and one whose topic matrix could not be
    allocated: both are refused with the config, before any input is read."""
    out = tmp_path / "out"
    code, err = _run_cli([
        "summarize", "--input", str(tmp_path / "no-corpus"), "--embedder", spec,
        "--budget-words", "20", "--out", str(out),
    ])
    assert code == 2, err
    assert "Traceback" not in err
    assert repr(spec) in err
    assert not out.exists()


def test_builtin_and_file_runs_leave_the_http_stack_and_numpy_ma_unloaded(tmp_path):
    """Only the remote provider needs the HTTP modules, and nothing on the
    set-up path needs ``numpy.ma``."""
    corpus = _write_corpus(tmp_path / "corpus")
    vectors = tmp_path / "vectors.jsonl"
    vectors.write_text("".join(
        json.dumps({"key": f"topic{t}/d{d}/s{s}", "vector": [1.0 + t, float(d), float(s)]}) + "\n"
        for t in range(2) for d in range(3) for s in range(3)
    ))
    script = (
        "import sys\n"
        "from treesum.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print([m for m in ('urllib.request', 'http.client', 'numpy.ma') if m in sys.modules])\n"
        "sys.exit(code)\n"
    )
    for embedder in ("builtin:16", f"file:{vectors}"):
        result = _fresh_interpreter([
            "-c", script, "summarize", "--input", str(corpus), "--embedder", embedder,
            "--budget-words", "20", "--out", str(tmp_path / "out"),
        ])
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]", embedder


@pytest.mark.parametrize("source", ["flag", "config file"])
@pytest.mark.parametrize("unit", ["words", "bytes"])
def test_budget_past_the_float_range_exits_2(tmp_path, capsys, unit, source):
    corpus = _write_corpus(tmp_path / "corpus")
    out = tmp_path / "out"
    limit = "1" + "0" * 400
    argv = ["summarize", "--input", str(corpus), "--out", str(out)]
    if source == "flag":
        argv += [f"--budget-{unit}", limit]
    else:
        (tmp_path / "run.cfg").write_text(f"budget-{unit} = {limit}\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert main(argv) == 2
    assert f"'budget-{unit}'" in capsys.readouterr().err
    assert not out.exists()


def _outputs_without_out_line(out):
    """Every file under ``out`` by relative path; ``config.txt`` loses its
    ``out =`` line, the one line a rerun into another directory changes."""
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path == out / "config.txt":
            data = b"".join(
                line for line in data.splitlines(keepends=True) if not line.startswith(b"out =")
            )
        files[path.relative_to(out).as_posix()] = data
    return files


@pytest.mark.parametrize(
    "command, flags, corpus_dir",
    [
        ("summarize", ["--method", "comp3", "--budget-bytes", "150", "--seed", "4",
                       "--embedder", "builtin:32", "--k-first", "2"], "corpus"),
        ("evaluate", ["--method", "comp1", "--budget-words", "25", "--delta", "0.7",
                      "--metrics", "r1,rl", "--report", "f1", "--seed", "2"], "corpus"),
        ("ablate", ["--budget-bytes", "140", "--seed", "9", "--embedder", "builtin:48",
                    "--alpha", "0.6", "--beta", "0.2", "--gamma", "0.2", "--max-nodes", "4"], "corpus"),
        ("tune", ["--budget-words", "30", "--seed", "5", "--deltas", "0.7,0.9", "--ks", "2",
                  "--weights", "0.8,0.1,0.1;0.5,0.3,0.2", "--objective", "r2"], "corpus"),
        ("summarize", ["--budget-words", "30"], "run#1/corpus"),
    ],
    ids=["summarize", "evaluate", "ablate", "tune", "summarize-hash-in-input"],
)
def test_rerun_from_the_echoed_config_gives_identical_outputs(tmp_path, command, flags, corpus_dir):
    """``<command> --config <out>/config.txt --out <other>`` writes the same
    files with the same bytes, also when the input path holds a ``#``."""
    corpus = _write_varied_corpus(tmp_path / corpus_dir)
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([command, "--input", str(corpus), *flags, "--out", str(first)]) == 0
    assert main([command, "--config", str(first / "config.txt"), "--out", str(second)]) == 0
    outputs = _outputs_without_out_line(first)
    assert "config.txt" in outputs and len(outputs) > 1
    assert _outputs_without_out_line(second) == outputs


def _unwritable_out(tmp_path, case):
    """An ``--out`` that cannot hold the outputs, and the path the error names."""
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    if case == "out is a file":
        return blocker, blocker
    if case == "out under a file":
        return blocker / "run", blocker / "run"
    out = tmp_path / "out"
    (out / "topic0.txt").mkdir(parents=True)
    return out, out / "topic0.txt"


@pytest.mark.parametrize("case", ["out is a file", "out under a file", "output name is a directory"])
def test_out_that_cannot_hold_the_outputs_exits_2(tmp_path, capsys, case):
    corpus = _write_corpus(tmp_path / "corpus")
    out, named = _unwritable_out(tmp_path, case)
    code = main(["summarize", "--input", str(corpus), "--budget-words", "20", "--out", str(out)])
    assert code == 2
    assert str(named) in capsys.readouterr().err
    assert (tmp_path / "blocker").read_text() == "not a directory\n"


@pytest.mark.parametrize("source", ["flag", "config file"])
def test_empty_out_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, source):
    corpus = _write_corpus(tmp_path / "corpus")
    run_dir = tmp_path / "cwd"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    argv = ["summarize", "--input", str(corpus), "--budget-words", "20"]
    if source == "flag":
        argv += ["--out", ""]
    else:
        (tmp_path / "run.cfg").write_text("out =\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert main(argv) == 2
    assert "out must name a directory" in capsys.readouterr().err
    assert list(run_dir.iterdir()) == []


def test_summaries_directory_scores_like_the_jsonl_summaries(tmp_path):
    """``summarize --out D`` then ``evaluate --summaries D``: the config echo
    in D is no summary, and the report equals the one from the JSONL form."""
    corpus = _write_corpus(tmp_path / "corpus")
    common = ["--input", str(corpus), "--budget-words", "20"]
    for fmt in ("files", "jsonl"):
        assert main(["summarize", *common, "--format", fmt, "--out", str(tmp_path / fmt)]) == 0
    assert (tmp_path / "files" / "config.txt").exists()
    sources = {"files": tmp_path / "files", "jsonl": tmp_path / "jsonl" / "summaries.jsonl"}
    for fmt, source in sources.items():
        out = tmp_path / f"eval_{fmt}"
        assert main(["evaluate", *common, "--summaries", str(source), "--out", str(out)]) == 0
    report = (tmp_path / "eval_files" / "report.csv").read_text()
    assert report == (tmp_path / "eval_jsonl" / "report.csv").read_text()
    assert report.count("\ntopic") == 2 * 4


def test_topic_named_config_never_overwrites_the_config_echo(tmp_path, capsys):
    source = tmp_path / "corpus.jsonl"
    record = {
        "topic_id": "config",
        "documents": [{"doc_id": "d0", "text": "Crews repaired the bridge. Parks opened downtown."}],
        "references": ["Crews repaired the bridge."],
    }
    source.write_text(json.dumps(record) + "\n")
    argv = ["summarize", "--input", str(source), "--layout", "jsonl", "--budget-words", "10"]
    assert main([*argv, "--format", "files", "--out", str(tmp_path / "files")]) == 2
    assert "config.txt" in capsys.readouterr().err
    assert not (tmp_path / "files").exists()
    # The JSONL form holds the topic in summaries.jsonl, next to an intact echo.
    assert main([*argv, "--format", "jsonl", "--out", str(tmp_path / "jsonl")]) == 0
    echo = tmp_path / "jsonl" / "config.txt"
    rerun = tmp_path / "rerun"
    assert main(["summarize", "--config", str(echo), "--format", "jsonl", "--out", str(rerun)]) == 0
    assert (rerun / "summaries.jsonl").read_bytes() == (tmp_path / "jsonl" / "summaries.jsonl").read_bytes()


def _rename_to_bytes(path, name: bytes):
    """Rename ``path`` to the non-UTF-8 ``name`` in its directory; the new
    path as Python decodes it. Skips where the filesystem refuses the name."""
    target = os.path.join(os.fsencode(path.parent), name)
    try:
        os.rename(os.fsencode(path), target)
    except OSError as exc:
        pytest.skip(f"the filesystem refuses a non-UTF-8 name: {exc}")
    return os.fsdecode(target)


@pytest.mark.parametrize("command", ["summarize", "evaluate --summaries", "ablate", "tune"])
def test_non_utf8_topic_directory_exits_2_naming_it(tmp_path, capsys, command):
    corpus = _write_corpus(tmp_path / "corpus")
    _rename_to_bytes(corpus / "topic1", b"t\xff")
    out = tmp_path / "out"
    argv = [command.split()[0], "--input", str(corpus), "--budget-words", "20", "--out", str(out)]
    if command == "evaluate --summaries":
        summaries = tmp_path / "summaries"
        summaries.mkdir()
        for name in (b"topic0.txt", b"t\xff.txt"):
            with open(os.path.join(os.fsencode(summaries), name), "w") as handle:
                handle.write("City news update.\n")
        argv += ["--summaries", str(summaries)]
    if command == "tune":
        argv += ["--deltas", "0.9", "--ks", "2", "--weights", "0.8,0.1,0.1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "t\\udcff" in err and "UTF-8" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--out", "--input"])
def test_non_utf8_setting_value_exits_2_before_writing(tmp_path, capsys, flag):
    """A value that cannot be echoed into config.txt is refused up front,
    not after the run; the corpus named by a non-UTF-8 ``--input`` exists."""
    corpus = _write_corpus(tmp_path / "corpus")
    out = tmp_path / "out"
    if flag == "--out":
        out = tmp_path / os.fsdecode(b"out\xff")
    else:
        corpus = _rename_to_bytes(corpus, b"corpus\xff")
    assert main(["summarize", "--input", str(corpus), "--budget-words", "20", "--out", str(out)]) == 2
    assert f"'{flag[2:]}'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [os.path.basename(str(corpus))]


@pytest.mark.parametrize("file_keys", [("budget-words", "budget-bytes"), ("budget-bytes", "budget-words")])
@pytest.mark.parametrize("flag, echoed", [("--budget-words", "budget-words = 50"), ("--budget-bytes", "budget-bytes = 300")])
def test_budget_flag_replaces_the_config_files_budget(tmp_path, file_keys, flag, echoed):
    corpus = _write_corpus(tmp_path / "corpus")
    limits = {"budget-words": 100, "budget-bytes": 665}
    (tmp_path / "run.cfg").write_text(f"input = {corpus}\n" + "".join(f"{k} = {limits[k]}\n" for k in file_keys))
    out = tmp_path / "out"
    assert main(["summarize", "--config", str(tmp_path / "run.cfg"), flag, echoed.split()[-1], "--out", str(out)]) == 0
    assert [line for line in (out / "config.txt").read_text().splitlines() if line.startswith("budget-")] == [echoed]


def test_config_file_naming_both_budget_keys_exits_2(tmp_path, capsys):
    corpus = _write_corpus(tmp_path / "corpus")
    (tmp_path / "run.cfg").write_text(f"input = {corpus}\nbudget-words = 100\nbudget-bytes = 665\n")
    out = tmp_path / "out"
    assert main(["summarize", "--config", str(tmp_path / "run.cfg"), "--out", str(out)]) == 2
    assert "budget-words and budget-bytes" in capsys.readouterr().err
    assert not out.exists()

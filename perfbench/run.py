"""treesum benchmark: one workload per call, offline and deterministic.

Usage, from the repository root:

    python3 perfbench/run.py --workload multinews-264w --seed 1 --seconds 20 --trace 0

The run generates the workload's corpus from ``--seed`` under
``.perfbench_tmp/``, times set-up and whole rounds of CLI commands in a child
process (``runner.py``), checks every output against computations made apart
from the program (``checks.py``), and feeds corrupted copies of the outputs
back to the checks, each of which must reject its copy. The last line of
standard output is one JSON object::

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones; the traced run also writes its spans to
``.perfbench_out/``. Every CLI command and every check is one operation.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import corpus_gen
import workloads as wl
from speed import scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = ROOT / "tests" / "data"
CHILD_TIMEOUT_S = 150


class Operations:
    """Counts operations; a failed one is reported but never raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.check_failed = False

    def cli(self, argv: list[str]) -> bool:
        import treesum.cli

        self.attempted += 1
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                ok = treesum.cli.main(argv) == 0
        except Exception as exc:  # a crash is a failed operation
            print(f"{argv[0]} raised {exc!r}", file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1
            print(f"FAILED: treesum {' '.join(argv[:1])}", file=sys.stderr)
        return ok

    def check(self, name: str, problems: list[str], expect_failure: bool = False) -> None:
        """Record one check; with ``expect_failure`` it is a self-test."""
        self.attempted += 1
        ok = bool(problems) if expect_failure else not problems
        if ok:
            return
        self.failed += 1
        self.check_failed = True
        if expect_failure:
            print(f"FAILED self-test {name}: the check accepted a corrupted input", file=sys.stderr)
        else:
            print(f"FAILED check {name}: {len(problems)} problem(s)", file=sys.stderr)
            for line in problems[:10]:
                print(f"  {line}", file=sys.stderr)


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8") if path.is_file() else ""


def _read_jsonl(path: Path) -> dict[str, dict]:
    if not path.is_file():
        return {}
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    return {r["topic_id"]: r for r in records}


def _read_config(path: Path) -> dict[str, str]:
    pairs = (line.split(" = ", 1) for line in _read(path).splitlines() if " = " in line)
    return {k.strip(): v.strip() for k, v in pairs}


def run_checks(workload, corpus, work_dir: Path, child: dict, ops: Operations, trace: bool) -> None:
    out = work_dir / "out"
    check_dir = work_dir / "check"
    stems = checks.load_stem_table(DATA)
    common = workload.input_flags(work_dir)

    digests = [[c["digest"] for c in r["commands"]] for r in child["rounds"] + child["traced_rounds"]]
    ops.check("outputs identical in every round", [] if all(d == digests[0] for d in digests) else ["outputs differ between rounds"])
    ops.check("segmentation", [] if child["sentences"] == corpus.sentence_count else
              [f"program sees {child['sentences']} sentences, generated {corpus.sentence_count}"])

    if workload.name == "multinews-264w":
        records = _read_jsonl(out / "summarize" / "summaries.jsonl")
        ops.check("summaries", checks.check_summaries(records, corpus, "words", 264))
        report = _read(out / "evaluate" / "report.csv")
        texts = {tid: r["summary"] for tid, r in records.items()}
        ops.check("rouge", checks.check_rouge(report, texts, corpus, "words", 264, stems))
        ops.check("rouge self-test", checks.check_rouge(checks.corrupt_rouge(report), texts, corpus, "words", 264, stems), expect_failure=True)
        dump = check_dir / "dump"
        if ops.cli(["summarize", *common, "--method", "ours-final", "--budget-words", "264",
                    "--format", "jsonl", "--dump-trees", "--out", str(dump)]):
            same = _read_jsonl(dump / "summaries.jsonl") == records
            ops.check("dumped run matches", [] if same else ["--dump-trees run wrote other summaries"])
            trees = json.loads(_read(dump / "trees.json"))
            hp = {k: float(v) for k, v in _read_config(dump / "config.txt").items()
                  if k in ("delta", "alpha", "beta", "gamma")}
            ops.check("selection", checks.check_selection(records, trees, corpus, corpus.vectors, hp))
            bad = checks.corrupt_selection(records, trees, corpus, corpus.vectors, hp)
            ops.check("selection self-test", checks.check_selection(bad, trees, corpus, corpus.vectors, hp), expect_failure=True)

    elif workload.name == "duc04-ablate-665b":
        summ, ev = check_dir / "summarize", check_dir / "evaluate"
        if ops.cli(["summarize", *common, "--method", "ours-final", "--budget-bytes", "665",
                    "--format", "jsonl", "--out", str(summ)]):
            records = _read_jsonl(summ / "summaries.jsonl")
            ops.check("summaries", checks.check_summaries(records, corpus, "bytes", 665))
            if ops.cli(["evaluate", *common, "--summaries", str(summ / "summaries.jsonl"),
                        "--budget-bytes", "665", "--out", str(ev)]):
                report = _read(ev / "report.csv")
                texts = {tid: r["summary"] for tid, r in records.items()}
                ops.check("rouge", checks.check_rouge(report, texts, corpus, "bytes", 665, stems))
                ops.check("rouge self-test", checks.check_rouge(checks.corrupt_rouge(report), texts, corpus, "bytes", 665, stems), expect_failure=True)
                ops.check("ablation", checks.check_ablation(_read(out / "ablate" / "ablation.csv"), report, wl.ABLATE_METHODS))

    else:
        grid_csv = _read(out / "tune" / "grid.csv")
        expected = {
            (float(d), *map(float, w.split(",")), int(k))
            for d in wl.TUNE_DELTAS.split(",")
            for w in wl.TUNE_WEIGHTS.split(";")
            for k in wl.TUNE_KS.split(",")
        }
        ops.check("grid", checks.check_grid(grid_csv, _read(out / "tune" / "best.txt"), expected))
        rows = checks.parse_csv(grid_csv)
        if rows:
            objective = list(rows[0])[-1]
            best = max(rows, key=lambda r: float(r[objective]))
            for n, row in enumerate((rows[0], best)):
                ev = check_dir / f"point{n}"
                flags = ["--delta", row["delta"], "--alpha", row["alpha"], "--beta", row["beta"],
                         "--gamma", row["gamma"], "--k-first", row["k"]]
                if ops.cli(["evaluate", *common, "--method", "ours-final", "--budget-words", "100",
                            "--metrics", "r1", *flags, "--out", str(ev)]):
                    standalone = checks.mean_recall(_read(ev / "report.csv"), "r1")
                    diff = abs(standalone - float(row[objective]))
                    ops.check(f"grid point {n} standalone",
                              [] if diff <= checks.ROUGE_TOLERANCE else [f"tune {row[objective]}, evaluate {standalone}"])

    if trace and child.get("kmeans_wrapped"):
        import numpy as np

        with np.load(work_dir / "kmeans_captures.npz") as data:
            captures = [
                {"points": data[f"points{i}"], "labels": data[f"labels{i}"],
                 "k": int(data["k"][i]), "inertia": float(data["inertia"][i])}
                for i in range(child["kmeans_captures"])
            ]
        ops.check("kmeans", checks.check_kmeans(captures))
        if captures:
            ops.check("kmeans self-test", checks.check_kmeans(checks.corrupt_kmeans(captures)), expect_failure=True)


def end_to_end(workload, child: dict, peak_rss_mb: float) -> tuple[dict, dict]:
    """(metrics for the JSON line, per-command figures printed beside them)."""
    rounds = child["rounds"]
    items = workload.items_per_round()
    throughput = statistics.median(items / sum(map(scale, r["commands"])) for r in rounds)
    metrics = {
        "setup_s": {"value": statistics.median(map(scale, child["setup"])), "unit": "s"},
        "throughput": {"value": throughput, "unit": "items/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    per_command = {
        "raw_setup_s": {"value": statistics.median(s["seconds"] for s in child["setup"]), "unit": "s"},
        "raw_throughput": {"value": statistics.median(items / r["seconds"] for r in rounds), "unit": "items/s"},
        "probe_s": {"value": statistics.median(c["probe_s"] for r in rounds for c in r["commands"]), "unit": "s"},
    }
    labels = [c["label"] for c in rounds[0]["commands"]]
    names = {
        "summarize": ("summarize_topics_per_s", "topics/s"),
        "evaluate": ("evaluate_topics_per_s", "topics/s"),
        "ablate": ("ablate_summaries_per_s", "summaries/s"),
        "tune": ("tune_points_per_s", "points/s"),
    }
    for i, label in enumerate(labels):
        name, unit = names[label]
        seconds = statistics.median(scale(r["commands"][i]) for r in rounds)
        per_command[name] = {"value": items / seconds, "unit": unit}
    return metrics, per_command


def main() -> int:
    parser = argparse.ArgumentParser(description="treesum benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    missing = [p for p in (ROOT / "src" / "treesum" / "cli.py", DATA / "porter_vocabulary.txt",
                           DATA / "porter_output.txt") if not p.is_file()]
    if missing:
        print(f"error: not a treesum checkout; missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    work_dir = ROOT / ".perfbench_tmp" / f"{workload.name}-{args.seed}-{os.getpid()}"
    trace_out = ROOT / ".perfbench_out" / f"trace-{workload.name}-seed{args.seed}.json"
    try:
        vocab = corpus_gen.load_vocabulary(DATA / "porter_vocabulary.txt")
        corpus = corpus_gen.generate(workload.corpus, args.seed, vocab, work_dir)
        child_argv = [sys.executable, str(HERE / "runner.py"), "--workload", workload.name,
                      "--work-dir", str(work_dir), "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--trace-out", str(trace_out)]
        child = subprocess.Popen(child_argv, stdout=subprocess.DEVNULL)
        try:
            code = child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print("error: the timed run did not finish in time", file=sys.stderr)
            return 1
        if code != 0:
            print(f"error: the timed run exited with {code}", file=sys.stderr)
            return 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        result = json.loads((work_dir / "result.json").read_text(encoding="utf-8"))

        ops = Operations()
        for r in result["rounds"] + result["traced_rounds"]:
            for command in r["commands"]:
                ops.attempted += 1
                ops.failed += command["rc"] != 0
        run_checks(workload, corpus, work_dir, result, ops, bool(args.trace))

        if args.trace:
            layers = dict(result["layer_medians"])
            layers["trace.overhead_s"] = statistics.median(
                sum(map(scale, r["commands"])) for r in result["traced_rounds"]
            ) - statistics.median(sum(map(scale, r["commands"])) for r in result["rounds"])
            metrics = {
                name: {"value": value, "unit": "s" if name.endswith("_s") else ("ratio" if "ratio" in name else "count")}
                for name, value in sorted(layers.items())
            }
            print(f"trace: spans written to {trace_out.relative_to(ROOT)}")
        else:
            metrics, per_command = end_to_end(workload, result, peak_rss_mb)
            for name, m in {**metrics, **per_command}.items():
                print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}")
            print(f"{workload.name} rounds = {len(result['rounds'])}")
        print(f"{workload.name} operations attempted = {ops.attempted}, failed = {ops.failed}")
        print(json.dumps({
            "correct": not ops.check_failed,
            "attempted": ops.attempted,
            "failed": ops.failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".perfbench_tmp").rmdir()


if __name__ == "__main__":
    sys.exit(main())

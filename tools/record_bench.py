"""Record paired benchmark runs of a parent commit and of this checkout into a BENCH_<n>.json file.

Usage (from the root of a checkout):

    python3 tools/record_bench.py --out BENCH_<n>.json [--base HEAD]

Two trees are laid out under ``.bench_build/``: ``parent`` holds ``src/``
and ``perfbench/`` of the ``--base`` commit, exported with ``git archive``,
and ``change`` a copy of the same two directories of this checkout,
uncommitted edits included.  Neither copy starts with a bytecode cache.
Each tree runs its own ``perfbench/run.py`` with the command and the
``run_seconds`` of ``BENCHMARK.json``, with ``--trace 0``.  Every workload
of ``BENCHMARK.json`` gets ``PAIRS`` pairs, split evenly over ``SEEDS``,
and the order of the two sides alternates from pair to pair: parent,
change, change, parent, and so on.

The output holds every run, and for each workload and end-to-end metric of
``BENCHMARK.json``: the pairs, each side's median and quartiles, the pairs
the change won (ties count for neither side), the change of the median
against the metric's bound, and a verdict.  A metric whose median is worse
by more than its bound is a ``regression``; one whose parent quartiles lie
further apart than the bound is ``unresolved``, unless every run of the
change reads better than every run of the parent.  ``gain`` says whether
the change won at least nine pairs in ten and moved the median by more
than the distance between the parent's quartiles.  Each side's ``digest``
lines are kept, and ``digest_mismatches`` lists every workload and seed
where the two sides, or two runs of one side, printed different digests.
The machine facts are the core count, the Python version, and whether a
bytecode cache was present in either tree after the runs.

Only the standard library and ``git`` are needed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "perfbench")
PAIRS = 10  # per workload: enough for the nine-in-ten rule of a claimed gain
SEEDS = (3, 5)


def export_parent(root: Path, base: str, dest: Path) -> None:
    """src/ and perfbench/ of the commit base, extracted from git archive into dest."""
    archive = subprocess.run(["git", "archive", "--format=tar", base, *TREES], cwd=root, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")


def copy_change(root: Path, dest: Path) -> None:
    """src/ and perfbench/ of the checkout at root, without bytecode caches, into dest."""
    for name in TREES:
        shutil.copytree(root / name, dest / name, ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))


def has_bytecode_cache(tree: Path) -> bool:
    return any(tree.rglob("__pycache__"))


def run_tree(tree: Path, command: list, workload: str, seed: int, seconds: float) -> str:
    """The stdout of one benchmark run in tree; a failed run raises."""
    argv = [sys.executable, *command[1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} in {tree.name} exited with code {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def parse_run(stdout: str) -> dict:
    """The result of one run.py run: its last JSON line, with the value of each metric, and its digest line."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next((line.removeprefix("digest ") for line in lines if line.startswith("digest ")), None)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "digest": digest,
    }


def schedule(workloads, seeds, pairs: int) -> list:
    """(workload, seed, pair index, sides in run order) of every pair, the order alternating within a workload."""
    if pairs % len(seeds):
        raise ValueError(f"{pairs} pairs do not split evenly over {len(seeds)} seeds")
    out = []
    for workload in workloads:
        for i in range(pairs):
            seed = seeds[i * len(seeds) // pairs]
            out.append((workload, seed, i, ("parent", "change") if i % 2 == 0 else ("change", "parent")))
    return out


def spread(values) -> dict:
    """Median and quartiles (inclusive method)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def compare(pairs, better: str, bound: float) -> dict:
    """The summary of one metric over (parent, change) pairs; better is "lower" or "higher"."""
    sign = 1 if better == "higher" else -1
    parent, change = spread([p for p, _ in pairs]), spread([c for _, c in pairs])
    base, iqr = parent["median"], parent["q3"] - parent["q1"]
    rel = (change["median"] - base) / abs(base) if base else None
    every_run_better = min(sign * c for _, c in pairs) > max(sign * p for p, _ in pairs)
    if rel is not None and sign * rel < -bound:
        verdict = "regression"
    elif base and iqr / abs(base) > bound and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    won = sum(sign * (c - p) > 0 for p, c in pairs)
    return {
        "better": better,
        "bound": bound,
        "pairs": [list(pair) for pair in pairs],
        "parent": parent,
        "change": change,
        "change_won": won,
        "parent_won": sum(sign * (c - p) < 0 for p, c in pairs),
        "median_change": rel,
        "verdict": verdict,
        "gain": won * 10 >= 9 * len(pairs) and sign * (change["median"] - base) > iqr,
    }


def summarise(runs: list, bench: dict) -> tuple:
    """(per-workload metric summaries, digest mismatches) of the runs, paired by (workload, seed, pair)."""
    by_pair: dict = {}
    for run in runs:
        by_pair.setdefault((run["workload"], run["seed"], run["pair"]), {})[run["side"]] = run
    workloads: dict = {}
    for (workload, _, _), sides in by_pair.items():
        workloads.setdefault(workload, []).append((sides["parent"], sides["change"]))
    summary = {}
    for workload, pairs in workloads.items():
        summary[workload] = {
            m["name"]: compare([(p["metrics"][m["name"]], c["metrics"][m["name"]]) for p, c in pairs], m["better"], m["bound"])
            | {"unit": m["unit"]}
            for m in bench["end_to_end"]
        }
    digests: dict = {}
    for run in runs:
        digests.setdefault((run["workload"], run["seed"]), set()).add(run["digest"])
    mismatches = [
        {"workload": w, "seed": s, "digests": sorted(map(str, d))}
        for (w, s), d in digests.items()
        if len(d) != 1 or None in d or any(x.startswith("MISMATCH") for x in d)
    ]
    return summary, mismatches


def git(root: Path, *args) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, check=True).stdout.strip()


def record(root: Path, base: str, pairs: int, seeds, workloads, seconds: float) -> dict:
    """Lay out both trees under root/.bench_build, run every pair, and return the BENCH document."""
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    build = root / ".bench_build"
    shutil.rmtree(build, ignore_errors=True)
    trees = {"parent": build / "parent", "change": build / "change"}
    export_parent(root, base, trees["parent"])
    copy_change(root, trees["change"])
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    runs = []
    for workload, seed, pair, order in schedule(workloads, seeds, pairs):
        for side in order:
            out = parse_run(run_tree(trees[side], bench["command"], workload, seed, seconds))
            runs.append({"workload": workload, "seed": seed, "pair": pair, "side": side} | out)
    summary, mismatches = summarise(runs, bench)
    return {
        "base": git(root, "rev-parse", base),
        "head": git(root, "rev-parse", "HEAD"),
        "change_has_uncommitted_edits": bool(git(root, "status", "--porcelain", "--", *TREES)),
        "command": bench["command"],
        "seconds": seconds,
        "seeds": list(seeds),
        "pairs_per_workload": pairs,
        "started_utc": started,
        "finished_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "bytecode_cache_after_runs": {side: has_bytecode_cache(tree) for side, tree in trees.items()},
        },
        "digest_mismatches": mismatches,
        "failed_runs": [r for r in runs if not r["correct"] or r["failed"]],
        "summary": summary,
        "runs": runs,
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path, help="the BENCH_<n>.json file to write")
    parser.add_argument("--base", default="HEAD", help="the parent commit (default HEAD)")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    doc = record(ROOT, args.base, PAIRS, SEEDS, workloads, bench["run_seconds"])
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for workload, metrics in doc["summary"].items():
        for name, s in metrics.items():
            rel = "n/a" if s["median_change"] is None else f"{100 * s['median_change']:+.1f} %"
            print(f"{workload} {name}: {s['parent']['median']:.4g} -> {s['change']['median']:.4g} ({rel}), "
                  f"change won {s['change_won']} of {len(s['pairs'])}; {s['verdict']}{'; gain' if s['gain'] else ''}")
    if doc["digest_mismatches"]:
        print(f"digest mismatches: {doc['digest_mismatches']}")
    return 1 if doc["digest_mismatches"] or doc["failed_runs"] else 0


if __name__ == "__main__":
    sys.exit(main())

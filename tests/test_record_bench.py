"""tools/record_bench.py on canned run.py output: parsing, pairing, statistics, and a recording in a scratch repository."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("record_bench", ROOT / "tools" / "record_bench.py")
record_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record_bench)

METRICS = {"setup_s": "s", "ops_per_s": "1/s", "call_p50_ms": "ms", "call_tail_ms": "ms", "ok_frac": "ratio",
           "peak_rss_mb": "MB"}


def canned_stdout(values: dict, digest="7eba1abf") -> str:
    """run.py's stdout as it prints it with --trace 0, for these metric values."""
    result = {"correct": True, "attempted": 400, "failed": 0,
              "metrics": {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}}
    return "\n".join([
        "workload scan seed 3: 7 set-ups; 40 calls, each timed 12 times; tail percentile p75 over the 40 median times",
        f"digest {digest}",
        "median reference probe 281.0 us (reference 270 us); unscaled: median set-up 0.1100 s, call p50 0.512 ms, "
        "sum of call times 0.031 s",
        json.dumps(result),
    ]) + "\n"


VALUES = {"setup_s": 0.12, "ops_per_s": 1000.0, "call_p50_ms": 0.6, "call_tail_ms": 0.8, "ok_frac": 1.0,
          "peak_rss_mb": 24.0}


def test_parse_run_reads_the_last_json_line_and_the_digest():
    run = record_bench.parse_run(canned_stdout(VALUES))
    assert run == {"correct": True, "attempted": 400, "failed": 0, "metrics": VALUES, "digest": "7eba1abf"}
    assert record_bench.parse_run(canned_stdout(VALUES, digest="MISMATCH a b"))["digest"] == "MISMATCH a b"


def test_schedule_alternates_the_order_and_splits_the_seeds():
    plan = record_bench.schedule(["scan", "free"], [3, 5], 4)
    assert plan == [
        ("scan", 3, 0, ("parent", "change")), ("scan", 3, 1, ("change", "parent")),
        ("scan", 5, 2, ("parent", "change")), ("scan", 5, 3, ("change", "parent")),
        ("free", 3, 0, ("parent", "change")), ("free", 3, 1, ("change", "parent")),
        ("free", 5, 2, ("parent", "change")), ("free", 5, 3, ("change", "parent")),
    ]
    with pytest.raises(ValueError, match="do not split evenly"):
        record_bench.schedule(["scan"], [3, 5], 5)


def test_compare_counts_wins_and_quartiles():
    pairs = [(10.0, 12.0), (11.0, 12.5), (10.5, 10.5), (10.2, 9.0), (10.8, 12.2)]
    s = record_bench.compare(pairs, "higher", 0.2)
    assert s["parent"] == {"median": 10.5, "q1": 10.2, "q3": 10.8}
    assert s["change"] == {"median": 12.0, "q1": 10.5, "q3": 12.2}
    assert (s["change_won"], s["parent_won"]) == (3, 1)  # the tie counts for neither
    assert s["median_change"] == pytest.approx(1.5 / 10.5)
    assert s["verdict"] == "within bound" and not s["gain"]  # 3 of 5 pairs
    lower = record_bench.compare(pairs, "lower", 0.1)
    assert (lower["change_won"], lower["parent_won"]) == (1, 3)
    assert lower["verdict"] == "regression"  # +14.3 % on a lower-is-better metric


def test_compare_gain_and_unresolved():
    tight = [(100.0 + i, 120.0 + i) for i in range(10)]
    s = record_bench.compare(tight, "higher", 0.2)
    assert s["change_won"] == 10 and s["gain"] and s["verdict"] == "within bound"
    assert record_bench.compare(tight[:9] + [(100.0, 90.0)], "higher", 0.2)["gain"]  # 9 of 10 still counts
    assert not record_bench.compare(tight[:8] + [(100.0, 90.0)] * 2, "higher", 0.2)["gain"]
    # 10 of 10, but the medians lie 1 apart and the parent's quartiles 4.5
    assert not record_bench.compare([(100.0 + i, 101.0 + i) for i in range(10)], "higher", 0.2)["gain"]
    # the parent's quartiles lie 50 % apart against a 25 % bound
    wide = [(0.10, 0.11), (0.15, 0.14), (0.10, 0.12), (0.15, 0.13)]
    assert record_bench.compare(wide, "lower", 0.25)["verdict"] == "unresolved"
    # unless every run of the change reads better than every run of the parent
    assert record_bench.compare([(0.10, 0.05), (0.15, 0.06), (0.10, 0.05), (0.15, 0.06)], "lower", 0.25)["verdict"] == "within bound"


FAKE_RUN = '''
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
fake = json.loads((Path(__file__).parent / "fake.json").read_text())
values = dict(fake["values"], ops_per_s=fake["ops"] + int(args["--seed"]), setup_s=float(args["--seconds"]))
print("digest " + fake["digests"][args["--seed"]])
print(json.dumps({"correct": True, "attempted": 400, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()}}))
'''


def scratch_repo(tmp_path: Path) -> Path:
    """A repository whose committed fake run.py reports 100 + seed ops/s, and whose working tree reports 110 + seed."""
    root = tmp_path / "repo"
    (root / "src" / "multiarr").mkdir(parents=True)
    (root / "perfbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    (root / "src" / "multiarr" / "__init__.py").write_text("")
    (root / "perfbench" / "run.py").write_text(FAKE_RUN)
    (root / "perfbench" / "fake.json").write_text(json.dumps({"ops": 100, "digests": {"3": "aaaa", "5": "bbbb"},
                                                                "values": VALUES}))
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    subprocess.run([*git, "init", "-q"], cwd=root, check=True)
    subprocess.run([*git, "add", "-A"], cwd=root, check=True)
    subprocess.run([*git, "commit", "-q", "-m", "parent"], cwd=root, check=True)
    (root / "perfbench" / "fake.json").write_text(json.dumps({"ops": 110, "digests": {"3": "aaaa", "5": "cccc"},
                                                                "values": VALUES}))
    return root


def test_record_runs_each_tree_in_turn(tmp_path):
    root = scratch_repo(tmp_path)
    doc = record_bench.record(root, "HEAD", 4, [3, 5], ["free"], 0.5)
    order = [(r["seed"], r["side"]) for r in doc["runs"]]
    assert order == [(3, "parent"), (3, "change"), (3, "change"), (3, "parent"),
                     (5, "parent"), (5, "change"), (5, "change"), (5, "parent")]
    ops = doc["summary"]["free"]["ops_per_s"]
    assert ops["pairs"] == [[103, 113], [103, 113], [105, 115], [105, 115]]
    assert ops["change_won"] == 4 and ops["gain"] and ops["unit"] == "1/s" and ops["bound"] == 0.2
    setup = doc["summary"]["free"]["setup_s"]
    assert setup["pairs"] == [[0.5, 0.5]] * 4 and setup["change_won"] == setup["parent_won"] == 0
    assert doc["digest_mismatches"] == [{"workload": "free", "seed": 5, "digests": ["bbbb", "cccc"]}]
    assert doc["failed_runs"] == [] and doc["change_has_uncommitted_edits"]
    assert doc["base"] == doc["head"] and len(doc["base"]) == 40
    assert doc["machine"]["cores"] >= 1 and doc["machine"]["python"].count(".") == 2
    assert set(doc["machine"]["bytecode_cache_after_runs"]) == {"parent", "change"}
    build = root / ".bench_build"
    assert json.loads((build / "parent" / "perfbench" / "fake.json").read_text())["ops"] == 100
    assert json.loads((build / "change" / "perfbench" / "fake.json").read_text())["ops"] == 110
    assert sorted(p.name for p in build.iterdir()) == ["change", "parent"]

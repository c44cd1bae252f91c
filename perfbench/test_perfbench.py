"""Tests of the benchmark itself.

Run from the repository root with ``src`` importable:
``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layer_trace  # noqa: E402
import round_child  # noqa: E402
import run  # noqa: E402
import workload_inputs  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BRAID3_DOC = workload_inputs.doc_central3(workload_inputs.BRAID3, name="braid3")


@pytest.mark.parametrize("workload", workload_inputs.WORKLOADS)
def test_inputs_are_a_pure_function_of_the_seed(workload):
    first = workload_inputs.build(workload, 7)
    assert first == workload_inputs.build(workload, 7)
    other = workload_inputs.build(workload, 8)
    assert first != other
    assert [c.get("anchor", False) for c in first["calls"]] == [c.get("anchor", False) for c in other["calls"]]
    # the same in another interpreter with another hash seed
    code = f"import json, workload_inputs; print(json.dumps(workload_inputs.build({workload!r}, 7)))"
    env = dict(os.environ, PYTHONHASHSEED="123")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == json.loads(json.dumps(first))


def test_metric_names_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert run.END_TO_END == e2e
    assert run.per_layer_units() == layers

    pairs = [(0.002, 3e-4), (0.003, 4e-4)]
    calls = [[f"c{i}", pairs, 1, i == 0] for i in range(20)]
    record = {"calls": calls, "attempted": 20, "failed": 0, "rss_kb": 2048, "out_bytes": 10}
    setups = [{"setup_s": 0.1, "probe_s": 3e-4}, {"setup_s": 0.2, "probe_s": 3e-4}]
    assert set(run.end_to_end(setups, record)) == set(e2e)
    traced = dict(record, layers=layer_trace.Tracer().metrics())
    assert set(run.per_layer(record, traced)) == set(layers)


def test_tracer_restores_every_attribute_and_keeps_outputs():
    from multiarr import cli

    untraced = round_child.run_cli(["free", "-", "--json"], BRAID3_DOC)
    before = layer_trace.bound_attributes()
    tracer = layer_trace.Tracer()
    tracer.install()
    try:
        assert cli.main is not before[(cli, "main")]
        traced = round_child.run_cli(["free", "-", "--json"], BRAID3_DOC)
    finally:
        tracer.restore()
    after = layer_trace.bound_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert traced == untraced
    metrics = tracer.metrics()
    assert list(metrics) == list(layer_trace.METRIC_NAMES)
    assert metrics["arr3.restriction_calls"] == 1
    assert metrics["cli.self_s"] > 0 and metrics["arr3.self_s"] > 0
    assert metrics["cli.parse_s"] > 0


def test_rounds_start_with_cold_caches():
    record = run.run_child("free", 1, "setup", 0, time.monotonic() + 60)
    assert record["cold"] and record["setup_s"] > 0
    round_child.run_cli(["free", "-", "--json"], BRAID3_DOC)
    assert round_child.multiarr_caches() and not round_child.caches_cold()


def test_certificates_reject_wrong_results():
    ladder = workload_inputs.build("ladder", 1)
    call = next(c for c in ladder["calls"] if c["check"]["kind"] == "exp" and "|m|=10 " in c["id"])
    rc, text = round_child.run_cli(call["argv"], call["doc"])
    res = json.loads(text)["results"]
    assert rc == 0 and round_child.CliRound._exp_ok(call["check"], res)
    d1, d2 = res["exponents"]
    assert not round_child.CliRound._exp_ok(call["check"], dict(res, exponents=[d1 - 1, d2 + 1]))

    rc, text = round_child.run_cli(["free", "-", "--json"], BRAID3_DOC)
    res = json.loads(text)["results"]
    assert res["free"] and round_child.CliRound._free_ok(res)
    assert not round_child.CliRound._free_ok(dict(res, exponents=[1, 1, 3]))

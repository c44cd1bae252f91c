"""The multiarr benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {scan,ladder,free} --seed N --seconds S --trace {0,1}

A run first times ``SETUP_SAMPLES`` set-ups, then one round that repeats
passes over the workload's calls for ``S`` seconds, and with ``--trace 1``
one more round of a single traced pass.  Every set-up and round is a fresh
interpreter (``round_child.py``) that imports ``multiarr`` from the
checkout's ``src``; every call starts with the multiarr caches empty, as
one ``multiarr`` invocation does.  The last
line of stdout is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md in
this directory for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import layer_trace  # noqa: E402
import workload_inputs  # noqa: E402

SETUP_SAMPLES = 7  # fresh interpreters per run whose set-up time is measured
TAIL_BEYOND = 10  # distinct calls that must lie beyond the tail percentile
RUN_LIMIT_S = 170.0  # no child may run past this many seconds into the run
# The median time of round_child.reference_probe on a quiet 2-core Xeon with
# CPython 3.11.  Times are reported at this reference speed: a measured time
# is scaled by REFERENCE_S / (the mean time of the probes run around it).
REFERENCE_S = 270e-6

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER_EXTRA = {"cli.out_bytes": "bytes", "trace.overhead_s": "s", "anchor.call_ms": "ms"}


def per_layer_units() -> dict:
    units = {}
    for name in layer_trace.METRIC_NAMES:
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_ratio") or name.endswith("_per_point"):
            units[name] = "ratio"
        elif name.endswith("_bits"):
            units[name] = "bits"
        else:
            units[name] = "count"
    return units | PER_LAYER_EXTRA


def tail_percentile(calls: int) -> int:
    """The highest multiple of 5 percent with TAIL_BEYOND of ``calls`` beyond it."""
    return max(q for q in range(50, 100, 5) if calls * (100 - q) >= 100 * TAIL_BEYOND)


def percentile(values, q):
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def run_child(workload, seed, mode, seconds, deadline):
    """One fresh interpreter running ``round_child.py``; returns its record with ``setup_s``."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "round_child.py"), workload, str(seed), mode, str(seconds)]
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - spawned),
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{mode} round of {workload} exited with code {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["first_call"] - spawned
    return record


def collect(workload, seed, seconds, trace):
    """Set-up samples, one timed round of ``seconds``, and with ``trace`` one traced pass."""
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = [run_child(workload, seed, "setup", 0, deadline) for _ in range(SETUP_SAMPLES)]
    plain = run_child(workload, seed, "plain", seconds, deadline)
    traced = run_child(workload, seed, "traced", 0, deadline) if trace else None
    return setups, plain, traced


def call_latencies(plain, scaled=True) -> dict:
    """Each call's median latency over its repeats in the round, keyed by call id.

    With ``scaled``, each repeat is first scaled to the reference speed by
    the probes run around it.  On the shared two-core machine the
    benchmark was built on, single timings moved by tens of percent from
    second to second, and the machine's speed drifted by up to 40 % between
    runs; the probe moves with it.
    """
    return {
        cid: statistics.median(lat * REFERENCE_S / probe if scaled else lat for lat, probe in pairs)
        for cid, pairs, _, _ in plain["calls"]
    }


def first_pass_s(record) -> float:
    """The first pass of a round (one repeat of every call), at the reference speed."""
    return sum(pairs[0][0] * REFERENCE_S / pairs[0][1] for _, pairs, _, _ in record["calls"])


def end_to_end(setups, plain) -> dict:
    best = call_latencies(plain)
    ops = sum(n for _, _, n, _ in plain["calls"])
    return {
        "setup_s": statistics.median(r["setup_s"] * REFERENCE_S / r["probe_s"] for r in setups),
        "ops_per_s": ops / sum(best.values()),
        "call_p50_ms": 1e3 * statistics.median(best.values()),
        "call_tail_ms": 1e3 * percentile(best.values(), tail_percentile(len(best))),
        "ok_frac": (plain["attempted"] - plain["failed"]) / plain["attempted"],
        "peak_rss_mb": plain["rss_kb"] / 1024,
    }


def per_layer(plain, traced) -> dict:
    values = dict(traced["layers"])
    values["cli.out_bytes"] = traced["out_bytes"]
    values["trace.overhead_s"] = first_pass_s(traced) - first_pass_s(plain)
    best = call_latencies(plain, scaled=False)
    values["anchor.call_ms"] = 1e3 * next(best[cid] for cid, _, _, anchor in plain["calls"] if anchor)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=workload_inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "multiarr" / "__init__.py").is_file():
        print(f"multiarr sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    setups, plain, traced = collect(args.workload, args.seed, args.seconds, bool(args.trace))
    rounds = [plain] + ([traced] if traced else [])
    digests = {r["digest"] for r in rounds}
    src_ok = all(Path(r["multiarr"]).resolve().is_relative_to(SRC.resolve()) for r in setups + rounds)
    failures = sorted({f for r in rounds for f in r["failures"]})
    cold = all(r["cold"] for r in setups + rounds)
    correct = not failures and len(digests) == 1 and src_ok and cold and all(r["restored"] for r in rounds)

    calls = len(plain["calls"])
    anchor = next(c[0] for c in plain["calls"] if c[3])
    print(f"workload {args.workload} seed {args.seed}: {len(setups)} set-ups; {calls} calls, each timed "
          f"{plain['passes']} times; tail percentile p{tail_percentile(calls)} over the {calls} median times")
    print(f"digest {digests.pop() if len(digests) == 1 else 'MISMATCH ' + ' '.join(sorted(digests))}")
    raw = call_latencies(plain, scaled=False)
    probes = [probe for _, pairs, _, _ in plain["calls"] for _, probe in pairs]
    print(f"median reference probe {1e6 * statistics.median(probes):.1f} us (reference {1e6 * REFERENCE_S:.0f} us); "
          f"unscaled: median set-up {statistics.median(r['setup_s'] for r in setups):.4f} s, "
          f"call p50 {1e3 * statistics.median(raw.values()):.3f} ms, "
          f"sum of call times {sum(raw.values()):.3f} s")
    if failures:
        print("failed calls: " + "; ".join(failures))
    if not cold:
        print("a round did not start with empty multiarr caches")
    if not src_ok:
        print("a round imported multiarr from outside the checkout's src")

    if args.trace:
        values = per_layer(plain, traced)
        units = per_layer_units()
        print(f"anchor {anchor}: {values['anchor.call_ms']:.1f} ms (untraced, single call)")
    else:
        values = end_to_end(setups, plain)
        units = END_TO_END
    result = {
        "correct": correct,
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One round of a benchmark workload, run in a fresh interpreter.

Usage: ``python3 round_child.py WORKLOAD SEED MODE SECONDS`` with
``multiarr`` importable (``run.py`` puts the checkout's ``src`` on
``PYTHONPATH``).

The round imports multiarr, records whether every multiarr cache is still
empty, and builds the seeded inputs.  MODE ``setup`` stops there.  MODE
``plain`` then times passes over the round's calls for SECONDS (at least
``MIN_PASSES``); MODE ``traced`` times one pass with the layer boundaries
wrapped.  Only after the timed passes, untimed and with every wrapper
removed, it checks each result of the first pass with an exact certificate;
later passes must reproduce the first byte for byte.  It prints one JSON
record on stdout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

import layer_trace
import multiarr
import workload_inputs
from multiarr import cli, lattice, multiarr2
from multiarr.exactalg import GF, QQ, BinaryForm, binary_form_divides

VERIFIERS = {"one": "verify_lemma_one", "limit": "verify_theorem_limit", "str": "verify_theorem_str"}


def multiarr_caches():
    """Every ``lru_cache`` held at module level by a multiarr module."""
    out = []
    for name, mod in sorted(sys.modules.items()):
        if name == "multiarr" or name.startswith("multiarr."):
            out.extend(v for v in vars(mod).values() if hasattr(v, "cache_info"))
    return out


def caches_cold() -> bool:
    return all(c.cache_info().currsize == 0 for c in multiarr_caches())


def reference_probe() -> float:
    """Seconds for a fixed piece of pure-Python ``Fraction`` arithmetic.

    Probes run around each timed unit.  Their time tracks how fast the
    machine runs the same kind of code at that moment, so that ``run.py``
    can give times at a fixed reference speed.
    """
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 120):
        s += Fraction(1, i)
    return time.perf_counter() - t0


def _timed(fn):
    t0 = time.perf_counter()
    try:
        out, err = fn(), None
    except (Exception, SystemExit) as exc:  # a failed call is counted, not fatal
        out, err = None, f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    return time.perf_counter() - t0, out, err


def run_cli(argv, doc):
    """``cli.main(argv)`` with ``doc`` on stdin; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(doc)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    finally:
        sys.stdin = saved
    return rc, out.getvalue()


def _tangent(arr, m, theta) -> bool:
    return all(binary_form_divides(a, k, theta.apply_to_linear(a)) for a, k in zip(arr.forms, m))


def saito_certificate(arr, m, pair) -> bool:
    """A tangent pair of degrees (d1, d2) whose determinant is c * Q(A, m), c != 0."""
    theta1, theta2 = pair
    e = multiarr2.exponents(arr, m)
    if (theta1.degree, theta2.degree) != e.pair or e.total != sum(m):
        return False
    if not (_tangent(arr, m, theta1) and _tangent(arr, m, theta2)):
        return False
    c = multiarr2.saito_det(theta1, theta2).proportional_scalar(multiarr2.defining_form(arr, m))
    return c is not None and bool(c)


# ---------------------------------------------------------------------------
# scan: lattice verifiers called directly


class ScanRound:
    def __init__(self, inputs):
        self.inputs = inputs
        self.arrs = [multiarr2.Arrangement2(QQ, r["forms"]) for r in inputs["regions"]]
        self.regions = [lattice.LatticeRegion(a, r["caps"]) for a, r in zip(self.arrs, inputs["regions"])]
        self.points = [sum(1 for _ in reg.points()) for reg in self.regions]

    def ops(self, call) -> int:
        return self.points[call["region"]]

    @staticmethod
    def unit(call):
        return call["region"]

    def call(self, call):
        return getattr(lattice, VERIFIERS[call["verify"]])(self.regions[call["region"]])

    @staticmethod
    def canonical(call, report) -> str:
        if call["verify"] == "one":
            body = [report.pairs_checked, report.failures]
        elif call["verify"] == "limit":
            body = [report.points_total, report.balanced_count, report.violations,
                    report.maximizers, report.parity_failures]
        else:
            body = [[[c.peak, c.peak_delta, c.size, c.ok] for c in report.components],
                    report.clipped, report.failures, report.notes]
        return json.dumps([report.passed, body])

    def certify(self, outcomes) -> set:
        bad = {i for i, (_, report, err) in enumerate(outcomes) if err or not report.passed}
        for r, (arr, spec) in enumerate(zip(self.arrs, self.inputs["regions"])):
            for m in spec["samples"]:
                try:
                    ok = saito_certificate(arr, m, multiarr2.basis(arr, m))
                except (ArithmeticError, RuntimeError, ValueError):
                    traceback.print_exc(file=sys.stderr)
                    ok = False
                if not ok:
                    bad |= {i for i, c in enumerate(self.inputs["calls"]) if c["region"] == r}
        return bad


# ---------------------------------------------------------------------------
# ladder and free: CLI calls


class CliRound:
    def __init__(self, inputs):
        self.inputs = inputs

    @staticmethod
    def ops(call) -> int:
        return 1

    @staticmethod
    def unit(call):
        return call["id"]

    @staticmethod
    def call(call):
        return run_cli(call["argv"], call["doc"])

    @staticmethod
    def canonical(call, out) -> str:
        rc, text = out
        return f"{rc}\n{text}"

    def certify(self, outcomes) -> set:
        calls = self.inputs["calls"]
        bad = set()
        verdicts = {}
        for i, (call, (_, out, err)) in enumerate(zip(calls, outcomes)):
            check = call["check"]
            if err or out[0] != 0:
                bad.add(i)
                continue
            try:
                res = json.loads(out[1])["results"]
                if check["kind"] == "exp":
                    ok = self._exp_ok(check, res)
                elif check["kind"] == "shift":
                    ok = res["passed"] and all(
                        c["passed"] and c["saito_scalar"] not in (None, "0") for c in res["checks"]
                    )
                else:
                    ok = self._free_ok(res)
                    verdicts.setdefault(check["group"], []).append((i, res["free"], res["exponents"]))
            except (ArithmeticError, KeyError, RuntimeError, TypeError, ValueError):
                traceback.print_exc(file=sys.stderr)
                ok = False
            if not ok:
                bad.add(i)
        for members in verdicts.values():
            if len({(free, str(exps)) for _, free, exps in members}) > 1:
                bad |= {i for i, _, _ in members}
        return bad

    @staticmethod
    def _exp_ok(check, res) -> bool:
        field = QQ if check["p"] is None else GF(check["p"])
        arr = multiarr2.Arrangement2(field, check["forms"])
        m = tuple(check["m"])
        d1, d2 = res["exponents"]
        if d1 + d2 != sum(m):
            return False
        lb = res["lower_basis"]
        theta = multiarr2.Derivation2(
            BinaryForm(field, lb["degree"], lb["f"]), BinaryForm(field, lb["degree"], lb["g"])
        )
        if theta.is_zero() or theta.degree != d1 or not _tangent(arr, m, theta):
            return False
        pair = multiarr2.basis(arr, m)
        return (pair[0].degree, pair[1].degree) == (d1, d2) and saito_certificate(arr, m, pair)

    @staticmethod
    def _free_ok(res) -> bool:
        if res["coker_dim"] < 0:
            return False
        if not res["free"]:
            return True
        # Terao factorisation: chi(t) = (t - 1)(t - d1)(t - d2)
        poly = [1]
        for e in res["exponents"]:
            poly = [a - e * b for a, b in zip(poly + [0], [0] + poly)]
        return poly == res["char_poly"]


RUNNERS = {"scan": ScanRound, "ladder": CliRound, "free": CliRound}


MODES = ("setup", "plain", "traced")
MIN_PASSES = 3  # a plain round makes at least this many passes over its calls
PASS_LIMIT_S = 150.0  # and starts no pass that could end later than this
PASSES_PLANNED = 4  # passes whose repeats fill the round's seconds
SETUP_PROBES = 20  # reference probes after a set-up


def clear_caches() -> None:
    for cache in multiarr_caches():
        cache.cache_clear()


def units(runner, calls):
    """Consecutive calls grouped into units, as lists of call indices.

    A unit is what one ``multiarr`` invocation would do: one CLI call, or
    the three verifications of one scan region, which share their caches.
    """
    out = []
    for i, call in enumerate(calls):
        if out and runner.unit(calls[out[-1][0]]) == runner.unit(call):
            out[-1].append(i)
        else:
            out.append([i])
    return out


def run_pass(runner, calls, groups, repeats):
    """Time every unit ``repeats[u]`` times back to back, each from empty caches.

    Each repeat of a unit is paired with the mean of a reference probe just
    before and one just after it.  Returns the outcome of each call's first
    repeat, and for each call its samples as (latency, probe) pairs.
    """
    outcomes = [None] * len(calls)
    samples = [[] for _ in calls]
    for group, reps in zip(groups, repeats):
        for rep in range(reps):
            clear_caches()
            before = reference_probe()
            timed = [(i, _timed(lambda: runner.call(calls[i]))) for i in group]
            probe = (before + reference_probe()) / 2
            for i, outcome in timed:
                samples[i].append((outcome[0], probe))
                if rep == 0:
                    outcomes[i] = outcome
    return outcomes, samples


def canonical(runner, call, outcome) -> str:
    _, out, err = outcome
    return f"error: {err}" if err else runner.canonical(call, out)


def run_round(workload: str, seed: int, mode: str, seconds: float) -> dict:
    """Set up, then time passes over the round's calls (one pass when traced)."""
    cold = caches_cold()
    inputs = workload_inputs.build(workload, seed)
    runner = RUNNERS[workload](inputs)
    calls = inputs["calls"]
    tracer = layer_trace.Tracer() if mode == "traced" else None
    if tracer is not None:
        before = layer_trace.bound_attributes()
        tracer.install()
    first_call = time.monotonic()
    if mode == "setup":
        probes = [reference_probe() for _ in range(SETUP_PROBES)]
        return {"multiarr": multiarr.__file__, "cold": cold, "first_call": first_call,
                "probe_s": statistics.median(probes)}

    groups = units(runner, calls)
    first, samples = run_pass(runner, calls, groups, [1] * len(groups))
    restored = True
    if tracer is not None:
        tracer.restore()
        after = layer_trace.bound_attributes()
        restored = before.keys() == after.keys() and all(after[k] is v for k, v in before.items())
    texts = [canonical(runner, c, o) for c, o in zip(calls, first)]
    # Later passes repeat short units back to back, so that each unit fills
    # about an equal share of the round: single timings on a shared machine
    # move by tens of percent, and the median of many repeats moves less.
    share = seconds / (PASSES_PLANNED * len(groups))
    repeats = [max(1, int(share / sum(samples[i][0][0] for i in g))) for g in groups]
    unstable = set()
    passes = 1
    pass_started = first_call
    while mode == "plain":
        now = time.monotonic()
        elapsed, last = now - first_call, now - pass_started
        if passes >= MIN_PASSES and elapsed + last > seconds or elapsed + last > PASS_LIMIT_S:
            break
        pass_started = now
        outcomes, more = run_pass(runner, calls, groups, repeats)
        for i, (call, outcome) in enumerate(zip(calls, outcomes)):
            samples[i].extend(more[i])
            if canonical(runner, call, outcome) != texts[i]:
                unstable.add(i)
        passes += 1
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    bad = runner.certify(first) | unstable
    digest = hashlib.sha256()
    for call, text in zip(calls, texts):
        digest.update(f"{call['id']}\n{text}\n".encode())
    record = {
        "multiarr": multiarr.__file__,
        "cold": cold,
        "restored": restored,
        "first_call": first_call,
        "passes": passes,
        "calls": [[c["id"], pairs, runner.ops(c), bool(c.get("anchor"))] for c, pairs in zip(calls, samples)],
        "attempted": passes * sum(runner.ops(c) for c in calls),
        "failed": passes * sum(runner.ops(calls[i]) for i in bad),
        "failures": [calls[i]["id"] for i in sorted(bad)],
        "digest": digest.hexdigest(),
        "rss_kb": rss_kb,
        "out_bytes": sum(len(out[1].encode()) for _, out, err in first if not err and workload != "scan"),
    }
    if tracer is not None:
        record["layers"] = tracer.metrics()
    return record


def main(argv) -> int:
    workload, seed, mode, seconds = argv
    if mode not in MODES:
        raise SystemExit(f"MODE must be one of {', '.join(MODES)}")
    record = run_round(workload, int(seed), mode, float(seconds))
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The ``multiarr`` entry point: load an arrangement document, dispatch, report.

Documents are read by :mod:`multiarr.corpus`.  Human tables go to stdout;
``--json`` switches to canonical JSON (sorted keys, scalars as decimal
strings, no floats), which is byte-identical across runs of the same
document.

Every document command runs through :func:`main`, which loads and builds
the document once, times the command and emits what it returns; a command
refuses an input by raising ``ValueError`` (printed as ``error: ...``).
The grammar is argparse's alone: a plain command line is read off the
actions of its command (see :func:`_parse_args`), and every other line,
with all help, usage and error text, goes to the argparse parser.

Exit codes: 0 success, including a failure flagged as expected because a
hypothesis fails (positive characteristic); 1 hypothesis or usage error;
2 theorem violation under every hypothesis, with a reproducer; 3 I/O or
parse error, or a stdout closed by its reader (with nothing on stderr);
4 internal error (a broken invariant of the library), which :func:`main`
reports once on stderr with its innermost frame, the input digest and
the command line, and no traceback.  :func:`_verdict` is the one rule
behind the choice of 0 or 2.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shlex
import sys
import time
import traceback
from pathlib import Path

from . import __version__, acceptance, arr3, corpus, lattice, multiarr2, shift, stats
from .corpus import ArrangementDocument, DocumentError, canonical_json, parse_document, serialize_document
from .exactalg import char_warning

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

# The slowest of the corners measured inside both budgets, each `lattice
# --verify str` on a shared 2-core Xeon with CPython 3.11, two runs each:
# b2_lines at caps 20,20,20,20 (194,481 points) took 7.2-8.8 s of wall time,
# and the 17 lines x2 and x1 + t*x2 (t = 0..15) at caps 1 (131,072 points)
# 9.2-9.7 s.  Under --total the points are counted exactly: a2 at caps
# 103,103,103 with total 103 (192,920 points) took 7.6-7.8 s.
POINT_BUDGET = 200_000
MULT_BUDGET = 160  # largest |m| that exp, shift and lattice will solve at


def load_document(path: str) -> tuple[ArrangementDocument, str]:
    """Read a document from a path (or '-' for stdin); returns (doc, digest)."""
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    doc = parse_document(text)
    digest = hashlib.sha256(serialize_document(doc).encode()).hexdigest()
    return doc, digest


def _envelope(command: str, doc, digest: str, results: dict) -> dict:
    body = {"command": command, "version": __version__}
    if doc is None:
        return body | results  # verify-all reports at the top level
    body["results"] = results
    body["input"] = {
        "digest": digest,
        "name": doc.name,
        "field": doc.field_desc,
        "dim": doc.dim,
        "central": doc.central,
        "hyperplanes": len(doc.hyperplanes),
    }
    return body


def _emit(args, report: dict, human_lines: list, started: float) -> None:
    if args.json:
        sys.stdout.write(canonical_json(report))
    else:
        for line in human_lines:
            print(line)
        print(f"elapsed: {time.perf_counter() - started:.3f}s")


def _derivation_json(theta):
    f, g = theta.coefficient_strings()
    return {"degree": theta.degree, "f": f, "g": g, "rendered": multiarr2._render_derivation(f, g)}


def _verdict(report) -> tuple[str, int]:
    """PASS, or a failure that is EXPECTED-VIOLATION when a hypothesis fails."""
    if report.passed:
        return "PASS", EXIT_OK
    if not report.hypothesis_met:
        return "EXPECTED-VIOLATION", EXIT_OK
    return "VIOLATION", EXIT_VIOLATION


def _check_mult_budget(total: int, what: str) -> None:
    if total > MULT_BUDGET:
        raise ValueError(f"{what} = {total} exceeds the multiplicity budget of {MULT_BUDGET}")


def _parse_ints(text: str, expect: int, what: str):
    try:
        vals = tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ValueError(f"{what}: expected comma-separated integers") from exc
    if len(vals) != expect:
        raise ValueError(f"{what}: expected {expect} entries, got {len(vals)}")
    return vals


# ---------------------------------------------------------------------------
# commands


def cmd_exp(args, doc):
    _, arr, mult = _require_arr2(doc)
    _check_mult_budget(sum(mult), "|m|")
    e = multiarr2.exponents(arr, mult)
    balanced = multiarr2.is_balanced(arr, mult)
    field = arr.field
    results = {
        "exponents": list(e.pair),
        "delta": e.delta,
        "balanced": balanced,
        "total_multiplicity": sum(mult),
        "multiplicity": list(mult),
        "char_warning": char_warning(field, "characteristic-zero results do not apply"),
    }
    lines = [
        f"arrangement: {doc.name or args.file} (h={arr.h}, field {field.name})",
        f"exp=({e.d1},{e.d2}) Δ={e.delta} balanced={'true' if balanced else 'false'}",
    ]
    if sum(mult) > 0:
        theta = multiarr2.lower_degree_basis(arr, mult)
        results["lower_basis"] = _derivation_json(theta)
        lines.append(f"lower basis: {results['lower_basis']['rendered']}  (degree {theta.degree})")
    else:
        results["lower_basis"] = None
        lines.append("lower basis: undefined for |m| = 0")
    if results["char_warning"]:
        lines.append(f"warning: {results['char_warning']}")
    return "exp", results, lines, EXIT_OK


def _require_arr2(doc):
    if doc.built[0] != "arr2":
        raise DocumentError("this command needs a planar central document (dim 2, central)")
    return doc.built


def cmd_lattice(args, doc):
    _, arr, _ = _require_arr2(doc)
    caps = _parse_ints(args.caps, arr.h, "--caps")
    region = lattice.LatticeRegion(arr, caps, args.total)
    # |m| first: it bounds the count of a region with --total
    top = sum(caps) if args.total is None else min(sum(caps), args.total)
    _check_mult_budget(top, "the largest |m| of the region")
    size = region.size()
    if size > POINT_BUDGET:
        raise ValueError(f"region too large: {size} points exceeds the budget of {POINT_BUDGET}")
    verifier = {
        "one": lattice.verify_lemma_one,
        "limit": lattice.verify_theorem_limit,
        "str": lattice.verify_theorem_str,
    }[args.verify]
    report = verifier(region)
    status, code = _verdict(report)
    lines = _lattice_lines(args.verify, report)
    lines.append(f"verdict: {status}")
    return f"lattice/{args.verify}", _lattice_results(args.verify, report), lines, code


def _lattice_results(which: str, report) -> dict:
    base = {
        "caps": list(report.region.caps),
        "total_cap": report.region.total,
        "passed": report.passed,
        "hypothesis_met": report.hypothesis_met,
        "char_warning": report.char_warning,
    }
    if which == "one":
        base |= {
            "pairs_checked": report.pairs_checked,
            "failures": [
                {"m1": list(a), "m2": list(b), "delta1": d1, "delta2": d2}
                for a, b, d1, d2 in report.failures
            ],
        }
    elif which == "limit":
        base |= {
            "points": report.points_total,
            "balanced": report.balanced_count,
            "violations": [{"m": list(m), "delta": d} for m, d in report.violations],
            "maximizers": [list(m) for m in report.maximizers],
            "parity_failures": report.parity_failures,
            "expected_violation": report.expected_violation,
        }
    else:
        base |= {
            "components": [
                {
                    "peak": list(c.peak),
                    "delta": c.peak_delta,
                    "size": c.size,
                    "ok": c.ok,
                }
                for c in report.components
            ],
            "clipped": [
                {"peak": list(p), "delta": d, "members_in_region": n}
                for p, d, n in report.clipped
            ],
            "failures": report.failures,
            "notes": report.notes,
        }
    return base


def _lattice_lines(which: str, report) -> list:
    lines = []
    if which == "one":
        lines.append(f"adjacent-gap law: {report.pairs_checked} unit steps checked")
        for a, b, d1, d2 in report.failures[:10]:
            lines.append(f"  FAIL {a} -> {b}: gaps {d1}, {d2}")
    elif which == "limit":
        lines.append(
            f"gap bound: {report.points_total} points, {report.balanced_count} balanced, "
            f"{len(report.violations)} violations, {len(report.maximizers)} maximizers"
        )
        for m, d in report.violations[:10]:
            lines.append(f"  violation: gap {d} at {m}")
        lines.append("parity law: ok")  # by construction (see lattice.LimitReport)
    else:
        lines.append(
            f"components: {len(report.components)} verified, {len(report.clipped)} clipped"
        )
        for c in report.components:
            lines.append(f"  peak {c.peak} gap {c.peak_delta} size {c.size} ok={c.ok}")
        for f in report.failures[:10]:
            lines.append(f"  FAIL {f}")
    if report.char_warning:
        lines.append(f"warning: {report.char_warning}")
    return lines


def cmd_shift(args, doc):
    _, arr, mult = _require_arr2(doc)
    m0 = _parse_ints(args.m0, arr.h, "--m0") if args.m0 else mult
    _check_mult_budget(sum(m0), "|m0|")
    cert = shift.shift_isomorphism_check(arr, m0)
    status, code = _verdict(cert)
    field = arr.field
    results = {
        "m0": list(cert.m0),
        "hypothesis": cert.hypothesis,
        "mode": cert.mode,
        "degree_identity_ok": cert.degree_identity_ok,
        "theta0": _derivation_json(cert.theta0),
        "passed": cert.passed,
        "checks": [
            {
                "m": list(c.m),
                "target": list(c.target),
                "membership_ok": c.membership_ok,
                "saito_scalar": field.format(c.saito_scalar) if c.saito_scalar is not None else None,
                "passed": c.passed,
            }
            for c in cert.checked_shifts
        ],
        "reproducers": [c.reproducer for c in cert.failures()],
    }
    lines = [
        f"m0={tuple(cert.m0)} hypothesis: {cert.hypothesis} mode: {cert.mode}",
        f"theta0 = {results['theta0']['rendered']}  (degree {cert.theta0.degree})",
    ]
    for c in cert.checked_shifts:
        mark = "pass" if c.passed else "FAIL"
        scal = field.format(c.saito_scalar) if c.saito_scalar is not None else "-"
        lines.append(f"  m={c.m} -> {c.target}: {mark} scalar={scal}")
    if cert.char_warning:
        lines.append(f"warning: {cert.char_warning}")
    lines.append(
        f"certificate: {status} "
        f"({sum(c.passed for c in cert.checked_shifts)}/{len(cert.checked_shifts)})"
    )
    return "shift", results, lines, code


def cmd_free(args, doc):
    kind, arrangement = doc.built[:2]
    if kind == "arr2":
        raise DocumentError("freeness needs a central dim-3 or affine dim-2 document")
    coned = None
    if kind == "aff2":
        arrangement, coned = arr3.cone(arrangement)
    verdict = arr3.is_free(arrangement, args.H0 if args.H0 is not None else (coned or 0))
    field = arrangement.field
    zieg = None
    if verdict.ziegler is not None:
        restricted, mult = verdict.ziegler
        e = multiarr2.exponents(restricted, mult)
        zieg = {
            "h": restricted.h,
            "forms": [f.render() for f in restricted.forms],
            "multiplicity": list(mult),
            "exponents": list(e.pair),
        }
    results = {
        "free": verdict.free,
        "exponents": list(verdict.exponents) if verdict.exponents else None,
        "coker_dim": verdict.coker_dim,
        "h0": verdict.h0_index,
        "coned": coned is not None,
        "combinatorial": verdict.combinatorial,
        "rule": verdict.rule,
        "char_poly": list(verdict.char_poly.coeffs),
        "ziegler": zieg,
        "char_warning": verdict.char_warning,
    }
    status = "FREE" if verdict.free else "NOT FREE"
    expstr = f" exp=({','.join(map(str, verdict.exponents))})" if verdict.exponents else ""
    comb = f"combinatorial=true({verdict.rule})" if verdict.combinatorial else "combinatorial=false"
    lines = [
        f"{status}{expstr} coker={verdict.coker_dim} {comb} H0={verdict.h0_index}",
        f"char poly: {verdict.char_poly}",
    ]
    if zieg:
        lines.append(
            f"restriction: h={zieg['h']} m={tuple(zieg['multiplicity'])} "
            f"exp=({zieg['exponents'][0]},{zieg['exponents'][1]})"
        )
    if verdict.char_warning:
        lines.append(f"warning: {verdict.char_warning}")
    return "free", results, lines, EXIT_OK


def cmd_verify_all(args, doc):
    # the bundled corpus must parse and round-trip before the suite runs
    for name in corpus.document_names():
        path = corpus.document_path(name)
        doc = parse_document(path.read_text(encoding="utf-8"))
        again = parse_document(serialize_document(doc))
        if serialize_document(again) != serialize_document(doc):
            raise DocumentError(f"corpus document {name} does not round-trip")
    results = acceptance.run_suite()
    ok = all(r.passed for r in results)
    report = {
        "suite": "desk",
        "results": [
            {
                "index": r.index,
                "name": r.name,
                "passed": r.passed,
                "expected_violation": r.expected_violation,
                "detail": r.detail,
            }
            for r in results
        ],
        "passed": ok,
    }
    lines = [r.describe() for r in results]
    lines.append(f"suite: {'PASS' if ok else 'FAIL'}")
    return "verify-all", report, lines, EXIT_OK if ok else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with EXIT_USAGE, not 2."""

    arguments: dict  # on the top parser, set by _build_parser: the actions add_argument returned, by command

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="multiarr",
        description="Exact exponents, multiplicity lattices and freeness of arrangements.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        return (
            p.add_argument("--json", action="store_true", help="emit canonical JSON instead of text"),
            p.add_argument("--stats", action="store_true", help="write the work counters as one JSON line to stderr"),
        )

    arguments = parser.arguments = {}
    p = sub.add_parser("exp", help="exponents and lower basis of a 2-multiarrangement")
    arguments["exp"] = (p.add_argument("file", help="arrangement document (path or '-')"), *common(p))

    p = sub.add_parser("lattice", help="scan a finite multiplicity region and verify a law")
    arguments["lattice"] = (
        p.add_argument("file"),
        p.add_argument("--caps", required=True, help="per-hyperplane caps, comma separated"),
        p.add_argument("--total", type=int, default=None, help="optional cap on |m|"),
        p.add_argument("--verify", required=True, choices=("one", "limit", "str")),
        *common(p),
    )

    p = sub.add_parser("shift", help="certify the shift map at m0")
    arguments["shift"] = (
        p.add_argument("file"),
        p.add_argument("--m0", default=None, help="multiplicity, comma separated (default: document)"),
        *common(p),
    )

    p = sub.add_parser("free", help="freeness verdict of a central 3-arrangement")
    arguments["free"] = (
        p.add_argument("file"),
        p.add_argument("--H0", type=int, default=None, help="restriction hyperplane index"),
        *common(p),
    )

    p = sub.add_parser("verify-all", help="run the full acceptance suite")
    arguments["verify-all"] = common(p)
    return parser


# one parser per process: parse_args keeps no state, and help and usage are formatted when printed
_PARSER = _build_parser()


def _parse_args(argv: list) -> argparse.Namespace:
    """argv parsed as _PARSER.parse_args(argv) parses it, with the same output and exit.

    A plain line, a command followed by exact option strings with their
    values and the command's one positional, is read off the command's
    actions (see :func:`_plain_args`); any other line goes through the top
    parser, which also prints every help, usage and error text.
    """
    actions = _PARSER.arguments.get(argv[0]) if argv else None
    args = _plain_args(argv[0], actions, argv[1:]) if actions else None
    return args if args is not None else _PARSER.parse_args(argv)


def _plain_args(command: str, actions, tokens) -> argparse.Namespace | None:
    """The namespace the top parser gives for command and tokens, or None unless the line is plain.

    Plain means: each token is an exact option string of one of actions,
    used once, or the one positional; an option that takes a value is
    followed by one token, "-" or one that does not start with "-", that
    passes the action's type and choices; and every required action is
    given.  Every dest not given takes its default.  Only the public
    attributes of each action are read, so argparse alone defines the
    grammar, and a line this reading does not cover is left to it.
    """
    options = {s: a for a in actions for s in a.option_strings}
    positionals = [a for a in actions if not a.option_strings]
    given = {}
    tokens = iter(tokens)
    for token in tokens:
        action = options.get(token)
        if action is not None and action.nargs == 0:
            value = action.const
        else:
            if action is not None:
                token = next(tokens, None)
            elif positionals:
                action = positionals.pop()
            else:
                return None
            if token is None or action.nargs is not None or (token.startswith("-") and token != "-"):
                return None
            try:
                value = token if action.type is None else action.type(token)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
        if action.dest in given:
            return None
        given[action.dest] = value
    for action in actions:
        if action.dest not in given:
            if action.required:
                return None
            given[action.dest] = action.default
    return argparse.Namespace(command=command, **given)


def _command(name: str):
    """The function of a command, looked up in this module when it runs, so a patched cmd_* is the one called."""
    return globals()["cmd_" + name.replace("-", "_")]


def _detach_stdout() -> None:
    """Point a closed stdout at the null device, so the flush at exit stays quiet."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # no descriptor, so nothing flushes at exit
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_args(argv)
    started = time.perf_counter()
    digest = None
    digit_limit = sys.get_int_max_str_digits()
    if args.stats:
        stats.reset()  # counts from empty caches, as in a fresh process
    try:
        doc, digest = load_document(args.file) if "file" in args else (None, None)
        sys.set_int_max_str_digits(0)  # exact results may print far more digits than any input holds
        command, results, lines, code = _command(args.command)(args, doc)
        _emit(args, _envelope(command, doc, digest, results), lines, started)
        sys.stdout.flush()
        if args.stats:
            print(stats.report(), file=sys.stderr)
    except BrokenPipeError:  # the reader closed stdout early: not a fault, and nothing to say
        _detach_stdout()
        return EXIT_IO
    except DocumentError as exc:
        print(f"document error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        print(
            f"internal error: {type(exc).__name__}: {exc}\n"
            f"  at {frame.filename}:{frame.lineno} in {frame.name}\n"
            f"input sha256: {digest or 'none'}\n"
            f"reproduce: multiarr {shlex.join(argv)}",
            file=sys.stderr,
        )
        return EXIT_INTERNAL
    finally:
        sys.set_int_max_str_digits(digit_limit)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""Canonical JSON of every corpus command, pinned by digest.

Each command runs with ``--json``; the sha256 of its stdout and its exit
code must match ``golden_cli.json``.  A change that alters any canonical
output on purpose records the digests again with

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from multiarr import cli, corpus

GOLDEN = Path(__file__).with_name("golden_cli.json")


def corpus_commands():
    """argv lists of the corpus commands, keyed by a stable label."""
    out = {}
    for name in corpus.document_names():
        path = str(corpus.document_path(name))
        kind = corpus.parse_document(corpus.document_path(name).read_text(encoding="utf-8")).built
        if kind[0] == "arr2":
            caps = ",".join(["2"] * kind[1].h)
            out[f"exp {name}"] = ["exp", path]
            for which in ("one", "limit", "str"):
                out[f"lattice {which} {name}"] = [
                    "lattice", path, "--caps", caps, "--verify", which,
                ]
            out[f"shift {name}"] = ["shift", path]
            continue
        h = kind[1].h if kind[0] == "arr3" else kind[1].k + 1
        out[f"free {name}"] = ["free", path]
        for h0 in range(h):
            out[f"free {name} H0={h0}"] = ["free", path, "--H0", str(h0)]
    out["verify-all"] = ["verify-all"]
    return out


def run_json(argv):
    """Exit code and sha256 of stdout of ``multiarr ARGV --json``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--json"])
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


COMMANDS = corpus_commands()
RECORD = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}


def test_command_set_matches_record():
    assert sorted(COMMANDS) == sorted(RECORD)


@pytest.mark.parametrize("label", sorted(COMMANDS))
def test_canonical_output_unchanged(label):
    code, digest = run_json(COMMANDS[label])
    assert {"exit": code, "sha256": digest} == RECORD[label]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    record = {}
    for label, argv in sorted(COMMANDS.items()):
        code, digest = run_json(argv)
        record[label] = {"exit": code, "sha256": digest}
    GOLDEN.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"recorded {len(record)} commands")

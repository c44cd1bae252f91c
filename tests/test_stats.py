"""The work counters: exact, repeatable in process and across processes, and off the canonical output."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import multiarr
import oracles
from multiarr import corpus, lattice, multiarr2, stats
from multiarr.cli import main
from multiarr.exactalg import QQ
from multiarr.lattice import LatticeRegion, verify_lemma_one, verify_theorem_limit, verify_theorem_str
from multiarr.multiarr2 import Arrangement2
from multiarr.shift import shift_isomorphism_check

B2 = str(corpus.document_path("b2_lines"))
A2 = str(corpus.document_path("a2"))
FIVE = str(corpus.document_path("five_lines"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def counted(capsys, *argv) -> dict:
    code, out, err = run(capsys, *argv, "--stats")
    assert code == 0
    line, rest = err.split("\n", 1)
    assert rest == ""
    assert json.loads(line) == dict(sorted(json.loads(line).items()))
    assert line == json.dumps(json.loads(line), sort_keys=True)
    return json.loads(line)


class TestCli:
    @pytest.mark.parametrize(
        "argv",
        [
            ("lattice", B2, "--caps", "5,5,5,5", "--verify", "str", "--json"),
            ("shift", A2, "--m0", "3,3,3", "--json"),
            ("exp", A2, "--json"),
            ("free", str(corpus.document_path("braid3"))),
        ],
    )
    def test_stdout_is_unchanged(self, capsys, argv):
        code, plain, err = run(capsys, *argv)
        assert code == 0 and err == ""
        code, out, err = run(capsys, *argv, "--stats")
        if "--json" not in argv:  # the text report ends with the elapsed time
            plain, out = plain.rsplit("elapsed", 1)[0], out.rsplit("elapsed", 1)[0]
        assert code == 0 and out == plain and err.count("\n") == 1

    def test_b2_caps5_steps(self, capsys):
        """limit and str make one walk each: 1,295 unit steps and 2,761 residues, 380 of them on the shell.

        Each point past the first reads one residue, the shell one per point, and each step that raises
        d1 one more (1,086), except at the 121 leaves that need no state, where the walk stops after the
        first residue.
        """
        limit = counted(capsys, "lattice", B2, "--caps", "5,5,5,5", "--verify", "limit")
        strong = counted(capsys, "lattice", B2, "--caps", "5,5,5,5", "--verify", "str")
        assert limit["multiarr2.unit_steps"] == strong["multiarr2.unit_steps"] == 1295
        assert limit["multiarr2.residues"] == strong["multiarr2.residues"] == 2761 == 1295 + 380 + 1086
        assert len(lattice._region_table(LatticeRegion(corpus.arrangement("b2_lines"), (5,) * 4))[1]) == 380
        assert limit["lattice.points"] == strong["lattice.points"] == 1296
        assert limit["cache.lattice._region_table.misses"] == 1
        assert (limit["lattice.ascent_steps"], strong["lattice.ascent_steps"]) == (0, 145)

    def test_five_lines_total_shell(self, capsys):
        """Past total two rim points can reach one outside point; the shell reads it once.

        The walk makes 511 steps; the other 276 are the chains of the 60 exponents that the ascents read
        past the shell, each Sum_{i>=2} m_i steps from its closed-form start on the first two lines.
        """
        got = counted(capsys, "lattice", FIVE, "--caps", "3,3,3,3,3", "--total", "7", "--verify", "str")
        assert (got["multiarr2.unit_steps"], got["multiarr2.residues"]) == (787, 1789)
        assert len(lattice._region_table(LatticeRegion(corpus.arrangement("five_lines"), (3,) * 5, 7))[1]) == 310

    def test_total_bounded_ascents(self, capsys):
        """Clipped groups that share a peak walk each point once: the ascents share one memo of ends."""
        got = counted(capsys, "lattice", FIVE, "--caps", "3,3,3,3,3", "--total", "7", "--verify", "str")
        assert got["lattice.ascent_steps"] == 153

    def test_twelve_line_shift(self, capsys, tmp_path):
        """One Saito check per basis and one per shift; one division per line of positive multiplicity."""
        lines = [["1", "0"], ["0", "1"]] + [["1", str(k)] for k in range(1, 11)]
        doc = {"central": True, "dim": 2, "field": "Q", "hyperplanes": [{"coeffs": c} for c in lines]}
        path = tmp_path / "twelve.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        got = counted(capsys, "shift", str(path), "--json")
        assert got["multiarr2.saito_checks"] == 2 * 4096 - 1  # the zero shift has no basis to certify
        assert got["shift.nabla"] == 2 * 4096
        assert got["exactalg.divide_linear"] == 143_296
        # one walk of the box, one step per nonzero 0/1 point past the first two lines, and m0's walk of
        # Sum_{i>=2} m_i steps
        assert got["cache.multiarr2._unit_state.misses"] == 1
        assert got["multiarr2.unit_steps"] == (2**12 - 4) + 10 == 4_102

    def test_three_line_shift_starts_from_the_two_line_form(self, capsys):
        """a2 at m0 = (5, 5, 5): m0's walk takes 5 steps, the box 2^3 - 4 = 4, one per 0/1 point with m3 = 1.

        Each step reads one residue, and one more when its first residue is nonzero, as at all 9 here.
        """
        got = counted(capsys, "shift", A2, "--m0", "5,5,5")
        assert (got["multiarr2.unit_steps"], got["multiarr2.residues"]) == (5 + 4, 18)

    @pytest.mark.parametrize("k, steps", [(16, 48), (32, 96)])
    def test_exp_steps_past_the_two_line_start(self, capsys, monkeypatch, tmp_path, k, steps):
        """exp on five_lines at m = (k,)*5 steps through lines 3 to 5 only, and reads out no upper element.

        The exponents and the lower basis are read off one cached state: one miss, then one hit.
        """
        doc = json.loads(Path(FIVE).read_text(encoding="utf-8"))
        for plane in doc["hyperplanes"]:
            plane["mult"] = k
        path = tmp_path / "five.json"
        path.write_text(json.dumps(doc), encoding="utf-8")

        def no_upper_element(arr, m):
            raise AssertionError("exp read out a whole basis")

        monkeypatch.setattr(multiarr2, "_canonical_basis", no_upper_element)
        got = counted(capsys, "exp", str(path), "--json")
        assert got["multiarr2.unit_steps"] == steps == 3 * k
        assert (got["cache.multiarr2._unit_state.misses"], got["cache.multiarr2._unit_state.hits"]) == (1, 1)
        assert not any(key.startswith("cache.multiarr2._lower_basis.") for key in got)


def test_three_verifiers_in_one_session():
    """one, limit and str back to back share one walk of 1,295 steps."""
    region = LatticeRegion(corpus.arrangement("b2_lines"), (5, 5, 5, 5))
    stats.reset()
    for verify in (verify_lemma_one, verify_theorem_limit, verify_theorem_str):
        assert verify(region).passed
    got = stats.snapshot()
    assert got["multiarr2.unit_steps"] == 1295
    assert got["lattice.points"] == 3 * 1296


def test_reset_repeats_in_process():
    arr = Arrangement2(QQ, [(1, 0), (0, 1), (1, -1), (1, 1)])
    runs = []
    for _ in range(2):
        stats.reset()
        shift_isomorphism_check(arr, (3, 3, 3, 3))
        verify_theorem_str(LatticeRegion(arr, (3, 3, 3, 3)))
        runs.append(stats.snapshot())
    assert runs[0] == runs[1]
    assert runs[0]["multiarr2.saito_checks"] == 31 and runs[0]["shift.nabla"] == 32


@pytest.mark.parametrize(
    "argv",
    [
        ("lattice", B2, "--caps", "4,4,4,4", "--verify", "str", "--json"),
        ("lattice", FIVE, "--caps", "3,3,3,3,3", "--total", "7", "--verify", "str", "--json"),
        ("shift", A2, "--m0", "5,5,5", "--json"),
        ("verify-all",),
    ],
)
def test_in_process_equals_subprocess(capsys, argv):
    """The same line in this process, twice, and in a fresh interpreter."""
    lines = [counted(capsys, *argv) for _ in range(2)]
    env = dict(os.environ, PYTHONPATH=str(Path(multiarr.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "multiarr", *argv, "--stats"], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert lines[0] == lines[1] == json.loads(proc.stderr)


PINNED = [
    ("lattice", B2, "--caps", "5,5,5,5", "--verify", "str", "--json"),
    ("lattice", FIVE, "--caps", "3,3,3,3,3", "--total", "7", "--verify", "str", "--json"),
    ("shift", A2, "--m0", "5,5,5", "--json"),
    ("exp", A2, "--json"),
    ("free", str(corpus.document_path("braid3"))),
    ("verify-all",),
]


class TestModuleCaches:
    def test_remembered_caches_equal_a_full_scan(self):
        """Once every module is imported, the caches that stats finds are those of a full scan, in order."""
        for info in pkgutil.iter_modules(multiarr.__path__, "multiarr."):
            importlib.import_module(info.name)
        assert list(stats._caches().items()) == list(oracles.module_caches().items())
        assert any(key.startswith("multiarr2.") for key in stats._caches())

    @pytest.mark.parametrize("argv", PINNED, ids=lambda argv: argv[0])
    def test_stats_line_equals_the_full_scan(self, capsys, monkeypatch, argv):
        """The --stats line of a pinned command is byte-identical with the caches found by a full scan."""
        code, _, err = run(capsys, *argv, "--stats")
        monkeypatch.setattr(stats, "_caches", oracles.module_caches)
        assert (code, err) == run(capsys, *argv, "--stats")[::2]

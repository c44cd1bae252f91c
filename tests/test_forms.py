"""Value semantics of canonical forms and form tuples, within and across processes."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import multiarr
from multiarr.arr3 import AffineArrangement2, AffineLine, Arrangement3, LinearForm3
from multiarr.exactalg import GF, QQ, LinearForm2
from multiarr.multiarr2 import Arrangement2


class TestFormValues:
    def test_classes_never_equal(self):
        assert LinearForm3(QQ, 1, 2, 3) != AffineLine(QQ, 1, 2, 3)
        assert AffineLine(QQ, 1, 2, 3) != LinearForm3(QQ, 1, 2, 3)
        assert Arrangement3(QQ, [(1, 0, 0)]) != AffineArrangement2(QQ, [(1, 0, 0)])
        assert AffineArrangement2(QQ, [(1, 0, 0)]) != Arrangement3(QQ, [(1, 0, 0)])

    @pytest.mark.parametrize(
        "make, a, b",
        [
            (LinearForm2, (1, 2), (Fraction(-1, 3), Fraction(-2, 3))),
            (LinearForm3, (1, -2, 3), (-2, 4, -6)),
            (LinearForm3, (0, 2, 0), (0, Fraction(1, 5), 0)),
            (AffineLine, (1, 2, 3), (Fraction(1, 2), 1, Fraction(3, 2))),
        ],
    )
    def test_proportional_forms_are_equal_over_q(self, make, a, b):
        f, g = make(QQ, *a), make(QQ, *b)
        assert f == g and hash(f) == hash(g) and len({f, g}) == 1

    @pytest.mark.parametrize(
        "make, a, b",
        [
            (LinearForm2, (1, 2), (3, 6)),
            (LinearForm3, (1, 2, 3), (3, 6, 2)),
            (LinearForm3, (0, 1, 5), (0, -6, 12)),
            (AffineLine, (2, 4, 6), (1, 9, -4)),
        ],
    )
    def test_proportional_forms_are_equal_over_gf7(self, make, a, b):
        f, g = make(GF(7), *a), make(GF(7), *b)
        assert f == g and hash(f) == hash(g) and len({f, g}) == 1

    def test_fields_distinguish_forms(self):
        assert LinearForm3(QQ, 1, 2, 3) != LinearForm3(GF(7), 1, 2, 3)

    def test_tuples_of_proportional_forms_are_equal(self):
        a = Arrangement2(GF(7), [(1, 2), (0, 3)])
        b = Arrangement2(GF(7), [LinearForm2(GF(7), 3, 6), (0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != Arrangement2(GF(7), [(0, 1), (1, 2)])  # order matters


DUMP = """
import pickle, sys
from multiarr.corpus import arrangement
sys.stdout.buffer.write(pickle.dumps([arrangement(n) for n in ("five_lines", "braid3", "braid_deconing")]))
"""

LOAD = """
import pickle, sys
from multiarr.corpus import arrangement
news = [arrangement(n) for n in ("five_lines", "braid3", "braid_deconing")]
for old, new in zip(pickle.loads(sys.stdin.buffer.read()), news):
    assert old == new, (old, new)
    assert hash(old) == hash(new), type(new).__name__
    assert len({old, new}) == 1
print("ok")
"""


def test_hash_survives_a_process_boundary():
    src = str(Path(multiarr.__file__).parents[1])

    def python(code, seed, data):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", code], env=env, input=data, capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    assert python(LOAD, "2", python(DUMP, "1", b"")) == b"ok\n"

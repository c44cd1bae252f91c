"""Acceptance gate: every criterion of the desk suite at its stated tolerance.

Each test runs one criterion end to end (exact arithmetic, no tolerances
beyond the wall-time budgets built into the criteria) and prints a
one-line verdict; run with ``pytest -s tests/test_acceptance.py`` to see
the lines for passing criteria too.
"""

from types import SimpleNamespace

import pytest

from multiarr import acceptance, corpus, lattice, multiarr2
from multiarr.exactalg import QQ
from multiarr.multiarr2 import Derivation2


def _check(result):
    print(result.describe())
    assert result.passed, result.detail
    return result


def test_criterion_1_simple_baseline():
    res = _check(acceptance.criterion_simple_baseline())
    assert res.elapsed < 1.0


def test_criterion_2_gap_bound_scan():
    res = _check(acceptance.criterion_gap_bound_scan())
    assert res.elapsed < 60.0
    # spot checks on the corpus sizes: 125 + 256 + 256 + 1024 points
    assert "1661 lattice points" in res.detail


def test_criterion_3_char2_remark():
    res = _check(acceptance.criterion_char2_remark())
    assert res.expected_violation


def test_criterion_4_a2_parity_law():
    _check(acceptance.criterion_a2_parity_law())


def test_criterion_5_lattice_structure():
    _check(acceptance.criterion_lattice_structure())


def test_criterion_6_shift_certificates():
    res = _check(acceptance.criterion_shift_certificates())
    assert res.elapsed < 10.0


def test_criterion_7_dihedral_constant_odd():
    _check(acceptance.criterion_dihedral_constant_odd())


def test_criterion_8_freeness_decisions():
    res = _check(acceptance.criterion_freeness_decisions())
    assert res.elapsed < 5.0


def test_criterion_9_coning_zaslavsky():
    _check(acceptance.criterion_coning_zaslavsky())


def test_criterion_10_property_suite():
    _check(acceptance.criterion_property_suite())


@pytest.fixture(scope="module")
def suite():
    return acceptance.run_suite()


def test_suite_runner_all_green(suite):
    assert len(suite) == 10
    assert all(r.passed for r in suite)


def test_desk_contract(suite):
    """Indices, names and wall-time limits of the criteria; the limits are never loosened."""
    assert [(r.index, r.name, r.limit) for r in suite] == [
        (1, "simple-arrangement baseline", 1.0),
        (2, "balanced gap bound scan", 60.0),
        (3, "characteristic-2 gap-bound breakdown", None),
        (4, "3-line parity law", None),
        (5, "lattice structure scan", None),
        (6, "shift certificates", 10.0),
        (7, "dihedral constant-odd exponents", None),
        (8, "freeness decisions", 5.0),
        (9, "coning factorisation and chambers", None),
        (10, "algebraic property suite", None),
    ]


def test_a_criterion_fails_at_its_wall_time_limit(monkeypatch):
    clock = iter([0.0, 1.5])
    monkeypatch.setattr(acceptance, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    res = acceptance.criterion_simple_baseline()
    assert (res.passed, res.elapsed, res.limit) == (False, 1.5, 1.0)
    assert res.detail.endswith("lower basis; exceeded the 1s budget (1.50s)")


# independent spot assertions backing the criteria, kept outside the
# criterion functions on purpose


def test_spot_simple_exponents_formula():
    arr = multiarr2.Arrangement2(QQ, [(1, 0), (0, 1), (1, 2), (2, 1), (1, -1)])
    e = multiarr2.exponents(arr, (1,) * 5)
    assert e.pair == (1, 4)
    theta = multiarr2.lower_degree_basis(arr, (1,) * 5)
    assert theta.proportional_scalar(Derivation2.euler(QQ)) == 1


def test_spot_maximizer_inventory_a2():
    report = lattice.verify_theorem_limit(lattice.LatticeRegion(corpus.arrangement("a2"), (4, 4, 4)))
    # the simple multiplicity attains the bound
    assert (1, 1, 1) in report.maximizers
    assert all(sum(m) % 2 == 1 for m in report.maximizers)  # gap 1 needs odd |m|


def test_spot_dihedral_values():
    assert multiarr2.exponents(corpus.arrangement("a2"), (3, 3, 3)).pair == (4, 5)
    assert multiarr2.exponents(corpus.arrangement("a2"), (5, 5, 5)).pair == (7, 8)
    assert multiarr2.exponents(corpus.arrangement("b2_lines"), (3, 3, 3, 3)).pair == (5, 7)
    assert multiarr2.exponents(corpus.arrangement("b2_lines"), (5, 5, 5, 5)).pair == (9, 11)


def test_spot_char2_solver_basis_shape():
    from multiarr.exactalg import GF, BinaryForm
    from multiarr.multiarr2 import basis, saito_det
    from oracles import mul, sub

    F = GF(2)
    arr = corpus.arrangement("remark_f2")
    t1, t2 = basis(arr, (4, 4, 4))
    assert t1.f == BinaryForm(F, 4, (0, 0, 0, 0, 1))
    # the second element differs from x1^8*D1 + x2^8*D2 by a multiple of t1
    x18 = BinaryForm(F, 8, (0,) * 8 + (1,))
    x28 = BinaryForm(F, 8, (1,) + (0,) * 8)
    for shift_poly in (BinaryForm(F, 4, c) for c in (
        (0, 0, 0, 0, 0),
        (1, 0, 0, 0, 0),
        (0, 0, 0, 0, 1),
        (1, 0, 0, 0, 1),
    )):
        if sub(t2.f, x18) == mul(shift_poly, t1.f) and sub(t2.g, x28) == mul(shift_poly, t1.g):
            break
    else:
        pytest.fail("solver complement does not differ from the documented one by S*theta1")
    assert not saito_det(t1, t2).is_zero()

"""The connection, descent of lower bases, and shift certificates."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiarr import shift
from multiarr.exactalg import GF, QQ, BinaryForm
from multiarr.multiarr2 import (
    Arrangement2,
    Derivation2,
    exponents,
    lower_degree_basis,
)
from multiarr.shift import (
    coordinate_duals,
    is_am_euler,
    nabla,
    nabla_descent_check,
    proposition_next_check,
    shift_isomorphism_check,
)


def a2():
    return Arrangement2(QQ, [(1, 0), (0, 1), (1, 1)])


def b2():
    return Arrangement2(QQ, [(1, 0), (0, 1), (1, -1), (1, 1)])


def form(degree, coeffs):
    return BinaryForm(QQ, degree, coeffs)


class TestNabla:
    def test_direct_formula(self):
        d1 = Derivation2.coordinate(QQ, 0)
        phi = Derivation2(form(2, (0, 0, 1)), form(2, (1, 0, 0)))  # x1^2, x2^2
        out = nabla(d1, phi)
        assert out.f.coeffs == (0, 2) and out.g.is_zero()

    def test_euler_identity(self):
        tE = Derivation2.euler(QQ)
        for d in range(1, 4):
            phi = Derivation2(form(d, (1,) * (d + 1)), form(d, tuple(range(d + 1))))
            out = nabla(tE, phi)
            assert out.f == phi.f.scaled(d)
            assert out.g == phi.g.scaled(d)

    def test_constant_against_euler(self):
        d1 = Derivation2.coordinate(QQ, 0)
        out = nabla(d1, Derivation2.euler(QQ))
        assert out.f.coeffs == (1,) and out.g.is_zero()

    def test_degree_clamp_on_constants(self):
        d1 = Derivation2.coordinate(QQ, 0)
        out = nabla(d1, Derivation2.coordinate(QQ, 1))
        assert out.is_zero() and out.degree == 0

    @given(
        fc=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        gc=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        mult=st.lists(st.integers(-2, 2), min_size=2, max_size=2),
    )
    def test_scaling_rule(self, fc, gc, mult):
        # nabla_{p*theta}(phi) = p * nabla_theta(phi) for a polynomial p
        theta = Derivation2(form(2, fc), form(2, gc))
        phi = Derivation2(form(2, (1, -2, 1)), form(2, (0, 1, 3)))
        p = form(1, mult)
        lhs = nabla(Derivation2(p * theta.f, p * theta.g), phi)
        rhs = nabla(theta, phi)
        assert lhs.f == p * rhs.f and lhs.g == p * rhs.g

    def test_bilinearity_in_theta(self):
        phi = Derivation2(form(2, (1, 0, 2)), form(2, (0, 1, 0)))
        t1 = Derivation2(form(1, (1, 2)), form(1, (0, 1)))
        t2 = Derivation2(form(1, (3, -1)), form(1, (1, 1)))
        s = Derivation2(t1.f + t2.f, t1.g + t2.g)
        out = nabla(s, phi)
        o1, o2 = nabla(t1, phi), nabla(t2, phi)
        assert out.f == o1.f + o2.f and out.g == o1.g + o2.g


class TestCoordinateDuals:
    def test_duality(self):
        arr = b2()
        d1, d2 = coordinate_duals(arr)
        a1, a2_ = arr.forms[0], arr.forms[1]
        assert d1.apply_to_linear(a1).coeffs == (1,)
        assert d1.apply_to_linear(a2_).is_zero()
        assert d2.apply_to_linear(a2_).coeffs == (1,)
        assert d2.apply_to_linear(a1).is_zero()


class TestDescent:
    def test_simple_euler(self):
        assert nabla_descent_check(a2(), (1, 1, 1)).passed

    def test_spec_cases(self):
        assert nabla_descent_check(a2(), (2, 2, 1)).passed
        assert nabla_descent_check(b2(), (2, 1, 2, 1)).passed

    def test_reduced_multiplicities_shape(self):
        rep = nabla_descent_check(a2(), (2, 2, 1))
        reduced = {i: red for i, red, _, _, _ in rep.items}
        # direction 0 keeps the second coordinate hyperplane untouched
        assert reduced[0] == (1, 2, 0)
        assert reduced[1] == (2, 1, 0)

    def test_region_sweep(self):
        arr = a2()
        for m1 in range(3):
            for m2 in range(3):
                for m3 in range(3):
                    if m1 + m2 + m3 == 0:
                        continue
                    assert nabla_descent_check(arr, (m1, m2, m3)).passed

    def test_needs_two_hyperplanes(self):
        with pytest.raises(ValueError):
            nabla_descent_check(Arrangement2(QQ, [(1, 0)]), (2,))


class TestShiftCertificate:
    def test_a2_simple_multiplicity(self):
        cert = shift_isomorphism_check(a2(), (1, 1, 1))
        assert cert.passed and cert.mode == "exhaustive"
        assert len(cert.checked_shifts) == 8
        assert cert.hypothesis == "h=3 and m0-1 balanced"
        assert cert.degree_identity_ok
        assert cert.hypothesis_met and cert.char_warning is None

    def test_b2_all_sixteen(self):
        cert = shift_isomorphism_check(b2(), (1, 1, 1, 1))
        assert cert.passed and len(cert.checked_shifts) == 16
        assert cert.hypothesis == "h>=4"
        assert all(c.membership_ok for c in cert.checked_shifts)
        assert all(c.saito_scalar for c in cert.checked_shifts)

    def test_a2_221(self):
        cert = shift_isomorphism_check(a2(), (2, 2, 1))
        assert cert.passed and len(cert.checked_shifts) == 8

    def test_identity_shift_for_simple(self):
        # with the Euler lower basis the image of theta is theta itself
        cert = shift_isomorphism_check(a2(), (1, 1, 1))
        full = next(c for c in cert.checked_shifts if c.m == (1, 1, 1))
        assert full.target == (1, 1, 1) and full.passed

    def test_precondition_errors(self):
        with pytest.raises(ValueError):
            shift_isomorphism_check(a2(), (2, 2, 2))  # gap 0
        with pytest.raises(ValueError):
            shift_isomorphism_check(a2(), (5, 1, 1))  # unbalanced
        with pytest.raises(ValueError):
            shift_isomorphism_check(a2(), (1, 1, 0))  # not strictly positive
        with pytest.raises(ValueError):
            shift_isomorphism_check(Arrangement2(QQ, [(1, 0), (0, 1)]), (1, 1))  # h <= 2
        with pytest.raises(ValueError):
            # h = 3 with m0 - 1 unbalanced: (3,1,1) has gap 1 but (2,0,0) fails
            shift_isomorphism_check(a2(), (3, 1, 1))

    def test_gap_must_be_maximal(self):
        b2_m = (2, 2, 2, 2)  # gap 0
        with pytest.raises(ValueError):
            shift_isomorphism_check(b2(), b2_m)

    def test_positive_characteristic_is_flagged(self):
        # the paper's remark: over GF(2) the shift map at (2,2,1) fails every check
        arr = Arrangement2(GF(2), [(1, 0), (0, 1), (1, 1)])
        cert = shift_isomorphism_check(arr, (2, 2, 1))
        assert not cert.passed and not cert.hypothesis_met
        assert "characteristic 2" in cert.char_warning
        assert len(cert.failures()) == 8
        repro = cert.failures()[0].reproducer
        assert repro["arrangement"] == [["1", "0"], ["0", "1"], ["1", "1"]]

    def test_thirteen_lines_are_sampled(self):
        # above h = 12 a seeded sample of 256 distinct 0/1-shifts is checked
        arr = Arrangement2(QQ, [(1, k) for k in range(12)] + [(0, 1)])
        cert = shift_isomorphism_check(arr, (1,) * 13)
        assert cert.mode == "sampled(256)"
        assert len(cert.checked_shifts) == 256
        assert cert.passed


class TestAmEuler:
    def test_euler_for_simple(self):
        ok, diags = is_am_euler(a2(), (1, 1, 1), Derivation2.euler(QQ))
        assert ok and not diags

    def test_lower_basis_odd_balanced(self):
        theta = lower_degree_basis(a2(), (2, 2, 1))
        ok, _ = is_am_euler(a2(), (2, 2, 1), theta)
        assert ok

    def test_gap_zero_is_not(self):
        ok, diags = is_am_euler(a2(), (2, 2, 2), Derivation2.euler(QQ))
        assert not ok
        assert any("gap" in d for d in diags)

    def test_wrong_degree_is_not(self):
        theta = Derivation2.euler(QQ)
        ok, diags = is_am_euler(a2(), (2, 2, 1), theta)
        assert not ok
        assert any("degree" in d for d in diags)

    def test_positive_characteristic_is_a_diagnostic(self):
        arr = Arrangement2(GF(2), [(1, 0), (0, 1), (1, 1)])
        ok, diags = is_am_euler(arr, (2, 2, 1), lower_degree_basis(arr, (2, 2, 1)))
        assert not ok
        assert diags == ["shift certificate failed: field has characteristic 2; "
                         "the shift theorem assumes characteristic zero"]

    def test_failure_under_every_hypothesis_raises(self, monkeypatch):
        real = shift.saito_criterion
        monkeypatch.setattr(shift, "saito_criterion", lambda *args: (real(*args)[0], None))
        with pytest.raises(RuntimeError, match="every hypothesis holds"):
            is_am_euler(a2(), (2, 2, 1), lower_degree_basis(a2(), (2, 2, 1)))

    def test_nontangent_is_not(self):
        theta = Derivation2(BinaryForm(QQ, 2, (1, 0, 0)), BinaryForm.zero(QQ, 2))
        ok, diags = is_am_euler(a2(), (2, 2, 1), theta)
        assert not ok
        assert any("tangent" in d for d in diags)


class TestPeakShiftPrerequisite:
    def test_max_gap_peaks_have_balanced_predecessor(self):
        # for four or more lines, a strictly positive balanced multiplicity
        # with the maximal gap h - 2 must keep its predecessor balanced,
        # which is what makes the shift certificate unconditional there
        from multiarr.lattice import LatticeRegion, exponent_map
        from multiarr.multiarr2 import is_balanced

        arr = b2()
        emap = exponent_map(LatticeRegion(arr, (3, 3, 3, 3)))
        seen = 0
        for m, e in emap.items():
            if min(m) >= 1 and e.delta == arr.h - 2 and is_balanced(arr, m):
                seen += 1
                assert is_balanced(arr, tuple(v - 1 for v in m)), m
        assert seen > 0


class TestPropositionNext:
    def test_a2_crossing_pair(self):
        rep = proposition_next_check(a2(), (2, 2, 1), (2, 1, 2))
        assert rep.hypotheses_met and rep.independent and rep.passed

    def test_hypothesis_gate(self):
        rep = proposition_next_check(a2(), (1, 1, 1), (1, 1, 1))
        assert not rep.hypotheses_met
        rep = proposition_next_check(a2(), (2, 2, 1), (2, 2, 2))
        assert not rep.hypotheses_met

    def test_degree_bookkeeping(self):
        # images of the lower basis drop degree by one and land at the
        # lower exponent of the once-reduced multiplicity
        arr = b2()
        m0 = (1, 1, 1, 1)
        theta0 = lower_degree_basis(arr, m0)
        duals = coordinate_duals(arr)
        for i, dd in enumerate(duals):
            img = nabla(dd, theta0)
            assert img.degree == theta0.degree - 1
            j = 1 - i
            target = tuple(
                v - 1 + (1 if t == j else 0) for t, v in enumerate(m0)
            )
            assert exponents(arr, target).pair == (theta0.degree - 1, theta0.degree)

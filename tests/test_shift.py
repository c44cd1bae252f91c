"""The connection, descent of lower bases, and shift certificates."""

import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from fractions import Fraction

from multiarr import corpus, shift
from multiarr.exactalg import GF, QQ, BinaryForm
from multiarr.multiarr2 import (
    Arrangement2,
    Derivation2,
    _content_product,
    basis,
    exponents,
    lower_degree_basis,
    saito_criterion,
    saito_det,
)
from multiarr.lattice import LatticeRegion, verify_theorem_limit, verify_theorem_str
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
            assert out.f == oracles.scaled(phi.f, d)
            assert out.g == oracles.scaled(phi.g, d)

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
        lhs = nabla(Derivation2(oracles.mul(p, theta.f), oracles.mul(p, theta.g)), phi)
        rhs = nabla(theta, phi)
        assert lhs.f == oracles.mul(p, rhs.f) and lhs.g == oracles.mul(p, rhs.g)

    def test_bilinearity_in_theta(self):
        phi = Derivation2(form(2, (1, 0, 2)), form(2, (0, 1, 0)))
        t1 = Derivation2(form(1, (1, 2)), form(1, (0, 1)))
        t2 = Derivation2(form(1, (3, -1)), form(1, (1, 1)))
        s = Derivation2(oracles.add(t1.f, t2.f), oracles.add(t1.g, t2.g))
        out = nabla(s, phi)
        o1, o2 = nabla(t1, phi), nabla(t2, phi)
        assert out.f == oracles.add(o1.f, o2.f) and out.g == oracles.add(o1.g, o2.g)


INT_PATH_FIELDS = [QQ, GF(2), GF(7), GF(2**31 - 1)]


@st.composite
def derivations(draw, field, degree):
    """A degree-d derivation whose parts may be zero, or carry a content that is not 1."""

    def part():
        kind = draw(st.sampled_from(["zero", "ints", "content"]))
        if kind == "zero":
            return oracles.zero_form(field, degree)
        ints = st.integers(-6, 6) | st.integers(-(10**12), 10**12)
        form = BinaryForm(field, degree, draw(st.lists(ints, min_size=degree + 1, max_size=degree + 1)))
        if kind == "content":
            num, den = draw(st.integers(-30, 30)), draw(st.integers(1, 30))
            c = oracles.scalar(field, num) / field(den if den % field.char else 1) if field.char else Fraction(num, den)
            form = oracles.scaled(form, c)
        return form

    return Derivation2(part(), part())


def assert_same_derivation(got: Derivation2, want: Derivation2):
    """The int path and the oracle agree on the value, its forms and every string made from it."""
    assert got == want and hash(got) == hash(want)
    assert (got.degree, got.f, got.g) == (want.degree, want.f, want.g)
    field, d = got.field, got.degree
    f, g = got.coefficient_strings()
    assert (f, g) == ([field.format(c) for c in want.f.coeffs], [field.format(c) for c in want.g.coeffs])
    fr, gr = (oracles.FieldForm(field, d, part.coeffs).render() for part in (want.f, want.g))
    assert got.render() == "{}*dx1 + {}*dx2".format(*(f"({r})" if " " in r else r for r in (fr, gr)))


class TestIntPathAgainstFormOracles:
    """nabla, saito_det and saito_criterion on ints against their BinaryForm versions (tests/oracles.py)."""

    @given(
        data=st.data(),
        field=st.sampled_from(INT_PATH_FIELDS),
        shape=st.sampled_from(["random", "equal degrees", "constant phi", "constant theta"]),
    )
    def test_nabla_and_saito_det(self, data, field, shape):
        d = data.draw(st.integers(0, 4))
        e = {"random": data.draw(st.integers(0, 4)), "equal degrees": d, "constant phi": 0, "constant theta": 3}[shape]
        theta = data.draw(derivations(field, 0 if shape == "constant theta" else d))
        phi = data.draw(derivations(field, e))
        image = nabla(theta, phi)
        assert_same_derivation(image, oracles.nabla(theta, phi))
        if phi.degree:
            assert (image.f, image.g) == (oracles.apply_to_form(theta, phi.f), oracles.apply_to_form(theta, phi.g))
            # the certificate's images: the same ints up to the content, residues over GF(p)
            parts = shift._connection(theta, shift._partials(phi))
            assert Derivation2.from_ints(field, image.degree, *parts, *_content_product(theta, phi)) == image
            if field.char:
                assert tuple(map(tuple, parts)) == image.ints
        assert saito_det(theta, phi) == oracles.saito_det(theta, phi)
        assert saito_det(phi, image) == oracles.saito_det(phi, image)

    @given(
        data=st.data(),
        field=st.sampled_from(INT_PATH_FIELDS),
        m0=st.sampled_from([(1, 1, 1), (2, 2, 1), (3, 3, 3), (1, 1, 1, 1), (3, 3, 3, 3)]),
    )
    def test_saito_criterion_on_shift_images(self, data, field, m0):
        """The certificate of each shift, and of the same images with a part zeroed or rescaled."""
        assume(field.char != 2 or len(m0) == 3)  # GF(2) has three lines
        arr = Arrangement2(field, [(1, 0), (0, 1), (1, 1), (1, 3)][: len(m0)])
        theta0 = lower_degree_basis(arr, m0)
        m = tuple(data.draw(st.lists(st.integers(0, 1), min_size=len(m0), max_size=len(m0)).filter(any)))
        target = tuple(a + b - 1 for a, b in zip(m0, m))
        images = [nabla(t, theta0) for t in basis(arr, m)]
        which = data.draw(st.integers(0, 1))
        change = data.draw(st.sampled_from([None, "zero f", "rescale g"]))
        if change == "zero f":
            images[which] = Derivation2(oracles.zero_form(field, images[which].degree), images[which].g)
        elif change == "rescale g":
            images[which] = Derivation2(images[which].f, oracles.scaled(images[which].g, data.draw(st.integers(2, 9))))
        got = saito_criterion(arr, target, *images)
        want = oracles.saito_criterion(arr, target, *images)
        assert got == want and type(got[1]) in (type(None), type(field.zero))
        if change is None and not field.char and not shift._failed_hypotheses(arr, m0):
            assert got[0] and got[1]


class TestCoordinateDuals:
    def test_duality(self):
        for arr in (b2(), Arrangement2(QQ, [(2, 3), (1, -4)]), Arrangement2(GF(7), [(3, 5), (2, 6), (1, 0)])):
            d1, d2 = coordinate_duals(arr)
            a1, a2_ = arr.forms[0], arr.forms[1]
            one = arr.field(1)
            assert d1.apply_to_linear(a1).coeffs == (one,)
            assert d1.apply_to_linear(a2_).is_zero()
            assert d2.apply_to_linear(a2_).coeffs == (one,)
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
        cert = certified_as_per_shift(arr, (1,) * 13)
        assert cert.mode == "sampled(256)"
        assert len(cert.checked_shifts) == 256
        assert cert.passed


def certified_as_per_shift(arr, m0):
    """shift_isomorphism_check at m0, once each check equals that of the per-shift route (tests/oracles.py).

    The one pass and the route agree on every ShiftCheck field, the type of the scalar and every reproducer.
    """
    cert = shift_isomorphism_check(arr, m0)
    want = oracles.shift_checks(arr, m0)
    assert cert.checked_shifts == want
    assert [type(c.saito_scalar) for c in cert.checked_shifts] == [type(c.saito_scalar) for c in want]
    return cert


# Lines whose constant multiplicities (c,)*h with c odd attain the maximal gap h - 2 over Q (the dihedral
# arrangements of 3, 4 and 6 lines), and five lines where only some do.
SHIFT_LINES = {
    "a2": ((1, 0), (0, 1), (1, 1)),
    "b2": ((1, 0), (0, 1), (1, -1), (1, 1)),
    "five": ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2)),
    "g2": ((1, 0), (0, 1), (1, 1), (1, -1), (3, 1), (3, -1)),
}


class TestOnePassAgainstPerShiftRoute:
    def test_seeded_arrangements(self):
        """Each set of SHIFT_LINES, as it is and after a seeded change of coordinates, at (c,)*h, c odd, ch <= 48.

        Over Q every certificate passes; over GF(p) some fail, with their reproducers.  Only points where the
        hypotheses hold are certified.
        """
        rng = random.Random(34)
        tally = {}
        for field in (QQ, GF(2), GF(3), GF(5), GF(7), GF(13), GF(2**31 - 1)):
            for lines in SHIFT_LINES.values():
                a, b, c, d = 1, 0, 0, 1
                for _ in range(2):
                    try:
                        arr = Arrangement2(field, [(u * a + v * c, u * b + v * d) for u, v in lines])
                    except ValueError:  # two lines meet mod p, or one vanishes
                        arr = None
                    for k in range(1, 48 // len(lines) + 1, 2) if arr else ():
                        try:
                            cert = certified_as_per_shift(arr, (k,) * arr.h)
                        except ValueError:  # a hypothesis fails at (k,)*h
                            continue
                        counted = tally.setdefault(field.char, [0, 0])
                        counted[0] += 1
                        counted[1] += not cert.passed
                    a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
                    while not (a * d - b * c) % (field.char or 2**61 - 1):
                        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        assert tally[0][0] > 30 and tally[0][1] == 0
        assert sum(n for p, (n, _) in tally.items() if p) > 100
        assert sum(bad for p, (_, bad) in tally.items() if p) > 10


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
        real = shift._saito_criterion
        monkeypatch.setattr(shift, "_saito_criterion", lambda *args: (real(*args)[0], None))
        with pytest.raises(RuntimeError, match="every hypothesis holds"):
            is_am_euler(a2(), (2, 2, 1), lower_degree_basis(a2(), (2, 2, 1)))

    def test_zero_theta_is_not(self):
        ok, diags = is_am_euler(a2(), (2, 2, 1), Derivation2.from_ints(QQ, 2, (0, 0, 0), (0, 0, 0)))
        assert not ok and diags == ["theta is zero"]

    def test_nontangent_is_not(self):
        theta = Derivation2(BinaryForm(QQ, 2, (1, 0, 0)), oracles.zero_form(QQ, 2))
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


class TestShiftTheoremAtEveryMaximizer:
    @pytest.mark.parametrize(
        "name, cap, maximizers, enclosed",
        [("b2_lines", 5, 33, 8), ("a2", 9, 215, 154), ("five_lines", 6, 4, 1), ("four_lines", 5, 1, 1)],
    )
    def test_every_maximizer_is_certified(self, name, cap, maximizers, enclosed):
        """The shift certificate passes at each maximizer limit reports; str peaks the enclosed ones."""
        arr = corpus.arrangement(name)
        h = arr.h
        region = LatticeRegion(arr, (cap,) * h)
        found = verify_theorem_limit(region).maximizers
        assert len(found) == maximizers
        assert [m0 for m0 in found if not certified_as_per_shift(arr, m0).passed] == []
        inside = {m0 for m0 in found if max(m0) + h - 2 <= cap}  # the ball of radius h - 2 fits
        assert len(inside) == enclosed
        assert inside == {c.peak for c in verify_theorem_str(region).components if c.peak_delta == h - 2}


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

"""Exponents, bases and the determinant criterion for 2-multiarrangements."""

import itertools
import math
import random
import sys
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import oracles
from multiarr import corpus, multiarr2, stats
from multiarr.exactalg import (
    GF,
    QQ,
    BinaryForm,
    LinearForm2,
    Matrix,
    _constraint_row,
    binary_form_divides,
    divisibility_constraints,
)
from multiarr.multiarr2 import (
    Arrangement2,
    Derivation2,
    basis,
    defining_form,
    exponents,
    is_balanced,
    lower_degree_basis,
    nonbalanced_exponents,
    saito_criterion,
    saito_det,
    untangent_forms,
)
from multiarr.shift import shift_isomorphism_check


def a2():
    return Arrangement2(QQ, [(1, 0), (0, 1), (1, 1)])


def b2():
    return Arrangement2(QQ, [(1, 0), (0, 1), (1, -1), (1, 1)])


def remark():
    return Arrangement2(GF(2), [(1, 0), (0, 1), (1, 1)])


class TestArrangement:
    def test_dedup(self):
        with pytest.raises(ValueError):
            Arrangement2(QQ, [(1, 0), (2, 0)])

    def test_multiplicity_validation(self):
        arr = a2()
        with pytest.raises(ValueError, match="multiplicity has 2 entries, arrangement has 3"):
            arr.check_multiplicity((1, 1))
        with pytest.raises(ValueError, match="multiplicities must be nonnegative"):
            arr.check_multiplicity((1, 1, -1))

    @pytest.mark.parametrize("m", [(1.9, 1, 1), ("2", 1, 1), (1, 1.0, 1)], ids=["float", "string", "float-one"])
    def test_multiplicities_are_checked_not_truncated(self, m):
        with pytest.raises(TypeError, match="object cannot be interpreted as an integer"):
            exponents(a2(), m)

    def test_hashable_value_semantics(self):
        assert a2() == a2()
        assert hash(a2()) == hash(a2())


class TestDimensions:
    def test_simple_a2(self):
        arr = a2()
        assert oracles.derivation_space_dim(arr, (1, 1, 1), 0) == 0
        assert oracles.derivation_space_dim(arr, (1, 1, 1), 1) == 1
        assert oracles.derivation_space_dim(arr, (1, 1, 1), 2) == 3

    def test_remark_no_degree_three(self):
        assert oracles.derivation_space_dim(remark(), (4, 4, 4), 3) == 0

    def test_hilbert_series_law(self):
        # dim at degree d is max(0, d-d1+1) + max(0, d-d2+1)
        cases = [
            (a2(), (1, 1, 1)),
            (a2(), (2, 2, 1)),
            (a2(), (5, 1, 1)),
            (b2(), (1, 1, 1, 1)),
            (b2(), (2, 1, 2, 1)),
            (remark(), (4, 4, 4)),
        ]
        for arr, m in cases:
            e = exponents(arr, m)
            for d in range(e.d2 + 4):
                want = max(0, d - e.d1 + 1) + max(0, d - e.d2 + 1)
                assert oracles.derivation_space_dim(arr, m, d) == want, (arr, m, d)


class TestExponents:
    def test_spec_values(self):
        arr = a2()
        assert exponents(arr, (1, 1, 1)).pair == (1, 2)
        assert exponents(arr, (2, 2, 1)).pair == (2, 3)
        assert exponents(arr, (5, 1, 1)).pair == (2, 5)
        assert exponents(remark(), (4, 4, 4)).pair == (4, 8)

    def test_zero_multiplicity(self):
        assert exponents(a2(), (0, 0, 0)).pair == (0, 0)
        # zero entries drop hyperplanes
        assert exponents(a2(), (1, 1, 0)).pair == (1, 1)

    def test_sum_rule(self):
        for m in [(1, 1, 1), (3, 2, 2), (4, 0, 1), (2, 2, 2)]:
            e = exponents(a2(), m)
            assert e.total == sum(m)

    def test_delta_values(self):
        assert exponents(a2(), (1, 1, 1)).delta == 1
        assert exponents(a2(), (5, 1, 1)).delta == 3
        assert exponents(b2(), (1, 1, 1, 1)).delta == 2

    def test_coordinate_invariance(self):
        transforms = [((1, 1), (0, 1)), ((2, 1), (1, 1)), ((0, 1), (1, 0)), ((1, -3), (0, 1))]
        for arr, m in [(a2(), (2, 2, 1)), (b2(), (2, 1, 2, 1)), (a2(), (5, 1, 1))]:
            e = exponents(arr, m)
            for t in transforms:
                moved = Arrangement2(
                    QQ,
                    [(a * t[0][0] + b * t[1][0], a * t[0][1] + b * t[1][1]) for a, b in (f.ints for f in arr.forms)],
                )
                assert exponents(moved, m).pair == e.pair


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_derivation_proportional_scalar(field):
    f, g = BinaryForm(field, 1, (1, 2)), BinaryForm(field, 1, (0, 3))
    theta = Derivation2(f, g)
    assert Derivation2(oracles.add(f, f), oracles.add(g, g)).proportional_scalar(theta) == field(2)
    assert Derivation2(oracles.add(f, f), g).proportional_scalar(theta) is None  # only f scales
    assert Derivation2(g, f).proportional_scalar(theta) is None
    zero = Derivation2(oracles.zero_form(field, 1), oracles.zero_form(field, 1))
    assert zero.proportional_scalar(theta) == field.zero
    assert theta.proportional_scalar(zero) is None
    assert theta.proportional_scalar(Derivation2.euler(field)) is None
    assert theta.proportional_scalar(Derivation2.coordinate(field, 0)) is None  # degree 0 against degree 1


class TestBalanced:
    def test_examples(self):
        assert is_balanced(a2(), (1, 1, 1))
        assert not is_balanced(a2(), (5, 1, 1))
        assert is_balanced(a2(), (2, 2, 1))
        assert is_balanced(a2(), (0, 0, 0))


class TestLowerBasis:
    def test_euler_for_simple(self):
        theta = lower_degree_basis(a2(), (1, 1, 1))
        c = theta.proportional_scalar(Derivation2.euler(QQ))
        assert c and c == 1  # canonical scaling makes it exactly Euler

    def test_remark_basis(self):
        F = GF(2)
        theta = lower_degree_basis(remark(), (4, 4, 4))
        assert theta.f == BinaryForm(F, 4, (0, 0, 0, 0, 1))
        assert theta.g == BinaryForm(F, 4, (1, 0, 0, 0, 0))

    def test_nonbalanced_shape(self):
        theta = lower_degree_basis(a2(), (5, 1, 1))
        # x2*(x1+x2) on the second component only
        assert theta.f.is_zero()
        assert theta.g.coeffs == (1, 1, 0)

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            lower_degree_basis(a2(), (0, 0, 0))

    def test_membership_of_lower_basis(self):
        for arr, m in [(a2(), (2, 2, 1)), (b2(), (3, 1, 2, 2)), (a2(), (5, 1, 1))]:
            theta = lower_degree_basis(arr, m)
            for alpha, k in zip(arr.forms, arr.check_multiplicity(m)):
                assert binary_form_divides(alpha, k, theta.apply_to_linear(alpha))

    def test_untangent_forms(self):
        arr = a2()
        assert untangent_forms(arr, (2, 2, 1), lower_degree_basis(arr, (2, 2, 1))) == []
        # theta_E(alpha) = alpha: tangent to a line of multiplicity one only
        assert untangent_forms(arr, (2, 2, 1), Derivation2.euler(QQ)) == list(arr.forms[:2])
        with pytest.raises(ValueError, match="multiplicity has 2 entries"):
            untangent_forms(arr, (1, 1), Derivation2.euler(QQ))


class TestBasis:
    def test_zero_total_rejected(self):
        with pytest.raises(ValueError, match=r"\|m\| = 0 has no canonical basis choice"):
            basis(a2(), (0, 0, 0))

    def test_saito_examples(self):
        d1 = Derivation2.coordinate(QQ, 0)
        d2 = Derivation2.coordinate(QQ, 1)
        assert saito_det(d1, d2).coeffs == (1,)
        tE = Derivation2.euler(QQ)
        assert saito_det(tE, tE).is_zero()
        theta = Derivation2(BinaryForm(QQ, 2, (0, 0, 1)), oracles.zero_form(QQ, 2))
        # det(Euler, x1^2*D1) = -x1^2*x2
        assert saito_det(tE, theta).coeffs == (0, 0, -1, 0)

    def test_basis_determinant_is_defining_form(self):
        for arr, m in [
            (a2(), (1, 1, 1)),
            (a2(), (2, 2, 1)),
            (a2(), (5, 1, 1)),
            (b2(), (2, 1, 2, 1)),
            (remark(), (4, 4, 4)),
        ]:
            t1, t2 = basis(arr, m)
            c = saito_det(t1, t2).proportional_scalar(defining_form(arr, m))
            assert c is not None and c

    def test_single_hyperplane(self):
        arr = Arrangement2(QQ, [(1, 0)])
        assert exponents(arr, (3,)).pair == (0, 3)
        t1, t2 = basis(arr, (3,))
        assert t1.degree == 0 and t1.f.is_zero()  # D2
        assert t2.degree == 3 and t2.g.is_zero() and t2.f.coeffs == (0, 0, 0, 1)

    def test_both_elements_tangent(self):
        for arr, m in [(a2(), (3, 2, 2)), (b2(), (1, 1, 1, 1))]:
            mt = arr.check_multiplicity(m)
            for theta in basis(arr, mt):
                for alpha, k in zip(arr.forms, mt):
                    assert binary_form_divides(alpha, k, theta.apply_to_linear(alpha))

    def test_rejects_a_non_tangent_pair(self, monkeypatch):
        # det(x1*d1, x2*(x1+x2)*d2) is the defining form, but x1*d1 is not tangent to x1 + x2
        theta1 = Derivation2(BinaryForm(QQ, 1, (0, 1)), oracles.zero_form(QQ, 1))
        theta2 = Derivation2(oracles.zero_form(QQ, 2), BinaryForm(QQ, 2, (1, 1, 0)))
        monkeypatch.setattr(multiarr2, "_canonical_basis", lambda arr, m: (theta1, theta2))
        assert saito_criterion(a2(), (1, 1, 1), theta1, theta2) == (False, 1)
        with pytest.raises(RuntimeError, match=r"not tangent at m=\(1, 1, 1\)") as info:
            basis(a2(), (1, 1, 1))
        assert theta1.render() in str(info.value) and theta2.render() in str(info.value)


class TestNonbalanced:
    def test_spec_values(self):
        e, theta = nonbalanced_exponents(a2(), (5, 1, 1))
        assert e.pair == (2, 5)
        assert theta.f.is_zero() and theta.g.coeffs == (1, 1, 0)
        e, _ = nonbalanced_exponents(Arrangement2(QQ, [(1, 0), (0, 1)]), (3, 1))
        assert e.pair == (1, 3)
        e, _ = nonbalanced_exponents(a2(), (9, 2, 2))
        assert e.pair == (4, 9)

    def test_balanced_rejected(self):
        with pytest.raises(ValueError):
            nonbalanced_exponents(a2(), (1, 1, 1))

    @given(
        extra=st.integers(0, 6),
        others=st.lists(st.integers(0, 3), min_size=2, max_size=2),
    )
    def test_fast_path_agrees_with_scan(self, extra, others):
        m = (sum(others) + extra + 1, *others)
        arr = a2()
        e, theta = nonbalanced_exponents(arr, m)
        assert e == exponents(arr, m)
        assert theta.degree == e.d1


def scan_exponents(arr, m):
    """Oracle: the degree scan, d1 is the first degree with a tangent derivation."""
    total = sum(m)
    d1 = next(d for d in range(total // 2 + 1) if oracles.derivation_space_dim(arr, m, d) > 0)
    return (d1, total - d1)


def one_rank_exponents(arr, m):
    """Oracle: d1 from the dimension of one degree, one rank computation.

    The module is free of rank two in any characteristic, so its degree-d
    part has dimension (d-d1+1)_+ + (d-d2+1)_+.  At d = (|m|-1)//2 < d2
    only the first term can be positive: d1 = d + 1 - dim, and dim == 0
    means d1 = |m|//2.
    """
    total = sum(m)
    if total == 0:
        return (0, 0)
    d = (total - 1) // 2
    dim = oracles.derivation_space_dim(arr, m, d)
    d1 = d + 1 - dim if dim else total // 2
    return (d1, total - d1)


def clear_multiarr_caches():
    """cache_clear on every module-level lru_cache of the multiarr package."""
    for name, mod in list(sys.modules.items()):
        if name == "multiarr" or name.startswith("multiarr."):
            for v in vars(mod).values():
                if hasattr(v, "cache_clear"):
                    v.cache_clear()


SOLVER_FIELDS = (QQ, GF(2), GF(3), GF(7), GF(2**31 - 1))
RATIONAL_FORMS = tuple(
    dict.fromkeys(LinearForm2(QQ, a, b) for a in range(-4, 5) for b in range(-4, 5) if (a, b) != (0, 0))
)


@st.composite
def multiarrangements(draw):
    """(arrangement, m) with h = 2..6 (as the field allows) and m(H) = 0..6."""
    field = draw(st.sampled_from(SOLVER_FIELDS))
    if field.char:
        pool = [(0, 1)] + [(1, t) for t in range(min(field.char, 8))]
    else:
        pool = RATIONAL_FORMS
    h = draw(st.integers(2, min(6, len(pool))))
    forms = draw(st.lists(st.sampled_from(pool), min_size=h, max_size=h, unique=True))
    m = tuple(draw(st.lists(st.integers(0, 6), min_size=h, max_size=h)))
    return Arrangement2(field, forms), m


class TestOneRankSolver:
    @given(case=multiarrangements())
    @example(case=(Arrangement2(GF(7), [(1, 0), (0, 1), (1, 1)]), (0, 0, 0)))
    @example(case=(Arrangement2(GF(2), [(1, 0), (0, 1), (1, 1)]), (6, 1, 0)))
    @example(case=(Arrangement2(QQ, [(1, 2), (3, -1)]), (6, 6)))
    # steps along x2 after other lines, where the cancelling scalar s must be 1
    @example(case=(Arrangement2(GF(7), [(1, 6), (1, 0), (0, 1), (1, 2)]), (1, 2, 1, 2)))
    @example(case=(Arrangement2(GF(3), [(1, 2), (1, 0), (0, 1), (1, 1)]), (1, 1, 3, 3)))
    def test_matches_degree_scan_with_one_rank(self, case):
        """The unit-step solver makes no rank call and agrees with both oracles."""
        arr, m = case
        clear_multiarr_caches()
        calls = []
        rank = Matrix.rank

        def counted(mat):
            calls.append(mat)
            return rank(mat)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Matrix, "rank", counted)
            got = exponents(arr, m)
        assert calls == []
        assert got.pair == one_rank_exponents(arr, m) == scan_exponents(arr, m)

    @given(case=multiarrangements(), d=st.integers(0, 12))
    def test_rank_matches_sympy(self, case, d):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        arr, m = case
        mat = oracles.tangency_matrix(arr, m, d)
        if not mat.nrows:
            assert mat.rank() == 0
            return
        domain = sympy.GF(arr.field.char) if arr.field.char else sympy.QQ
        want = DomainMatrix.from_list([list(r) for r in mat.rows], sympy.ZZ).convert_to(domain).rank()
        assert mat.rank() == want


class TestUnitSteps:
    @given(
        forms=st.lists(st.sampled_from(RATIONAL_FORMS), min_size=3, max_size=3, unique=True),
        m=st.lists(st.integers(0, 12), min_size=3, max_size=3),
    )
    def test_three_lines_closed_form(self, forms, m):
        # Wakamiko (Tokyo J. Math. 30, 2007): three lines in characteristic 0
        arr = Arrangement2(QQ, forms)
        total, k = sum(m), max(m)
        want = (total - k, k) if 2 * k >= total else (total // 2, total - total // 2)
        assert exponents(arr, m).pair == want

    def test_deep_chain_has_bounded_recursion(self):
        arr = Arrangement2(GF(2**31 - 1), [(1, 0), (0, 1), (1, 1)])
        clear_multiarr_caches()
        assert exponents(arr, (500, 500, 500)).pair == (750, 750)
        clear_multiarr_caches()

    @pytest.mark.parametrize("field", SOLVER_FIELDS, ids=lambda f: f.name)
    def test_step_matches_the_generator_step(self, field):
        """_unit_step, with c1 read by it or by the caller, equals the step it replaced on seeded states.

        Over x1, x2 and a general line, each on the c1 = 0 branch, the c1 != 0 branch and the d1 = d2 swap.
        """
        rng = random.Random(field.char + 5)
        p = field.char
        general = [(1, t) for t in range(1, p)] if 0 < p < 8 else [(1, 1), (1, -1), (2, 3), (3, -5), (1, 10**12 + 39)]
        seen = set()
        for _ in range(40):
            arr = Arrangement2(field, [(1, 0), (0, 1)] + rng.sample(general, min(len(general), rng.randint(1, 3))))
            m = tuple(rng.randint(0, 7) for _ in range(arr.h))
            state = multiarr2._unit_state(arr, m)
            d1, d2, t1, _ = state
            for j, alpha in enumerate(arr.forms):
                c1 = multiarr2._residue(alpha, m[j], d1, t1)
                got = multiarr2._unit_step(alpha, m[j], state)
                assert got == oracles.unit_step(alpha, m[j], state), (arr.forms, m, j)
                assert multiarr2._unit_step(alpha, m[j], state, c1) == got, (arr.forms, m, j)  # c1 read by the caller
                line = "x1" if alpha.ints == (1, 0) else "x2" if alpha.ints == (0, 1) else "general"
                seen.add((line, "c1 = 0" if not c1 else "swap" if d1 == d2 else "c1 != 0"))
        assert seen == {(line, branch) for line in ("x1", "x2", "general") for branch in ("c1 = 0", "c1 != 0", "swap")}

    def test_state_cache_is_bounded_and_clearable(self):
        state = multiarr2._unit_state
        assert state.cache_info().maxsize is not None
        cases = [(a2(), (3, 2, 2)), (b2(), (2, 1, 2, 1)), (remark(), (4, 4, 4))]
        clear_multiarr_caches()
        before = [exponents(arr, m).pair for arr, m in cases]
        assert state.cache_info().currsize > 0
        assert before == [one_rank_exponents(arr, m) for arr, m in cases]
        clear_multiarr_caches()
        assert state.cache_info().currsize == 0
        assert [exponents(arr, m).pair for arr, m in cases] == before


class TestTwoLineStart:
    @pytest.mark.parametrize("field", SOLVER_FIELDS, ids=lambda f: f.name)
    def test_matches_the_chain_from_zero(self, field):
        """_unit_state against the chain from zero on seeded inputs, h = 1..6 as the field allows.

        Both states have the same degrees, their entries are residues over GF(p) and primitive over Q,
        Saito's criterion certifies both pairs, and the read-out from either gives the same basis and
        lower_degree_basis.  The inputs include points of the first two lines, zeros among the first
        two entries of m, and d1 = d2.
        """
        rng = random.Random(field.char + 13)
        p = field.char
        if p:
            pool = [(0, 1)] + [(1, t) for t in range(min(p, 8))]
        else:
            pool = [f.ints for f in RATIONAL_FORMS] + [(1, 10**12 + 39), (7, -(10**9 + 7))]
        seen = set()
        for _ in range(60):
            h = rng.randint(1, min(6, len(pool)))
            arr = Arrangement2(field, rng.sample(pool, h))
            m = [rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(h)]
            if h > 2 and rng.random() < 0.4:
                m[2:] = [0] * (h - 2)  # a point of the first two lines
            m = tuple(m)
            if not sum(m):
                continue
            clear_multiarr_caches()
            state = multiarr2._unit_state(arr, m)
            got = (lower_degree_basis(arr, m), basis(arr, m))
            want = oracles.chain_state(arr, m)
            assert state[:2] == want[:2], (arr.forms, m)
            for d1, d2, t1, t2 in (state, want):
                if p:
                    assert all(0 <= x < p for theta in (t1, t2) for v in theta for x in v), (arr.forms, m)
                else:
                    assert math.gcd(*t1[0], *t1[1]) == math.gcd(*t2[0], *t2[1]) == 1, (arr.forms, m)
                pair = Derivation2.from_ints(field, d1, *t1), Derivation2.from_ints(field, d2, *t2)
                tangent, scalar = saito_criterion(arr, m, *pair)
                assert tangent and scalar, (arr.forms, m)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(multiarr2, "_unit_state", lambda arr, m: oracles.chain_state(arr, m))
                clear_multiarr_caches()
                assert (lower_degree_basis(arr, m), basis(arr, m)) == got, (arr.forms, m)
            assert got[0] == got[1][0]
            seen.add(h)
            seen.add("two-line" if h > 1 and not any(m[2:]) else "chain")
            seen.update(["d1 = d2"] * (state[0] == state[1]) + ["zero on the first two"] * (h > 1 and 0 in m[:2]))
        clear_multiarr_caches()
        assert seen >= {"two-line", "chain", "d1 = d2", "zero on the first two"} | set(range(1, min(6, len(pool)) + 1))

    def test_single_query_steps_past_the_first_two_lines(self):
        """A state takes Sum_{i>=2} m(H_i) unit steps, however large |m|."""
        arr = Arrangement2(QQ, [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2)])
        for m in [(16,) * 5, (32,) * 5, (0, 9, 130, 0, 0), (200, 1, 0, 0, 0), (40, 50, 20, 10, 8)]:
            stats.reset()  # zero counters and empty caches
            assert exponents(arr, m) == exponents(Arrangement2(QQ, arr.forms[::-1]), m[::-1])
            got = stats.snapshot()
            steps = sum(m[2:]) + sum(m[:-2])  # the second query fills its lines in reverse
            assert got["multiarr2.unit_steps"] == steps, m
        clear_multiarr_caches()

    def test_query_cost_does_not_depend_on_earlier_queries(self):
        """After a warm query at m - e_j, the query at m still takes its whole chain from the first two lines."""
        arr = corpus.arrangement("five_lines")
        stats.reset()
        exponents(arr, (3, 3, 3, 3, 2))
        before = stats.snapshot()["multiarr2.unit_steps"]
        exponents(arr, (3, 3, 3, 3, 3))
        assert stats.snapshot()["multiarr2.unit_steps"] - before == 9
        clear_multiarr_caches()

    def test_a_query_caches_only_its_own_state(self):
        arr = corpus.arrangement("five_lines")
        clear_multiarr_caches()
        assert exponents(arr, (32,) * 5).pair == (80, 80)
        assert multiarr2._unit_state.cache_info().currsize == 1
        clear_multiarr_caches()


class TestWalk:
    @pytest.mark.parametrize("field", SOLVER_FIELDS, ids=lambda f: f.name)
    def test_states_are_the_single_query_states(self, field):
        """_walk yields the state of _unit_state at each point, and the pair of basis() at each nonzero 0/1 point.

        Three seeded arrangements for each h = 1..7 that the field allows, each on its whole 0/1 box, on a
        sorted sparse quarter of it and on a sorted set of points with entries 0..4.  The walk builds each
        state past the first two lines once (past none for h = 1): one unit step per distinct m[:j] + (k,)
        with 1 <= k <= m[j], so 2^h - 4 on the whole box for h >= 2.
        """
        rng = random.Random(field.char + 35)
        p = field.char
        if p:
            pool = [(0, 1)] + [(1, t) for t in range(min(p, 8))]
        else:
            pool = [f.ints for f in RATIONAL_FORMS] + [(1, 10**12 + 39), (7, -(10**9 + 7))]
        for h in range(1, min(7, len(pool)) + 1):
            start = 2 if h > 1 else 0
            box = list(itertools.product((0, 1), repeat=h))
            for _ in range(3):
                arr = Arrangement2(field, rng.sample(pool, h))
                wide = sorted({tuple(rng.randint(0, 4) for _ in range(h)) for _ in range(12)})
                for points in (box, sorted(rng.sample(box, max(2, len(box) // 4))), wide):
                    stats.reset()  # zero counters and empty caches
                    states = list(multiarr2._walk(arr, points))
                    steps = stats.snapshot()["multiarr2.unit_steps"]
                    assert steps == len({m[:j] + (k,) for m in points for j in range(start, h) for k in range(1, m[j] + 1)})
                    assert steps == 2**h - 4 or points is not box or h == 1
                    for m, state in zip(points, states):
                        clear_multiarr_caches()
                        assert state == multiarr2._unit_state(arr, m), (arr.forms, m)
                        if any(m) and max(m) == 1:
                            assert multiarr2._certified_basis(arr, m, state) == basis(arr, m), (arr.forms, m)
        clear_multiarr_caches()

    @pytest.mark.parametrize("field", [QQ, GF(2**31 - 1)], ids=lambda f: f.name)
    def test_unsorted_points_restart(self, field):
        """A point below the one before it starts again, so each state is still that of the point alone.

        Three seeded arrangements for each h = 1..6, on the reversed 0/1 box, on unsorted points with entries 0..4
        and on (1, ..., 1) then (1, ..., 1, 0); a walk that stepped on from a higher point would yield its state.
        """
        rng = random.Random(field.char + 36)
        pool = [f.ints for f in RATIONAL_FORMS]
        for h in range(1, 7):
            box = list(itertools.product((0, 1), repeat=h))[::-1]
            for _ in range(3):
                arr = Arrangement2(field, rng.sample(pool, h))
                wide = [tuple(rng.randint(0, 4) for _ in range(h)) for _ in range(12)]
                for points in (box, wide, [(1,) * h, (1,) * (h - 1) + (0,)]):
                    for m, state in zip(points, list(multiarr2._walk(arr, points))):
                        clear_multiarr_caches()
                        assert state == multiarr2._unit_state(arr, m), (arr.forms, m)
        clear_multiarr_caches()


# The dihedral arrangements of 3, 4 and 6 lines over Q; the six G2 lines after a real linear change of coordinates.
COXETER = {
    "a2": ((1, 0), (0, 1), (1, 1)),
    "b2_lines": ((1, 0), (0, 1), (1, -1), (1, 1)),
    "g2": ((1, 0), (0, 1), (1, 1), (1, -1), (3, 1), (3, -1)),
}


def frobenius_slice(p: int):
    """(arrangement, points) pairs: the slice of the Frobenius anchor at p.

    Three seeded arrangements of h lines of P^1(F_p) for each h = 3..5 that P^1(F_p) holds, each with every m
    in [0, p]^h when there are at most 400 of them, else 400 seeded ones.
    """
    rng = random.Random(p)
    lines = [(0, 1)] + [(1, t) for t in range(p)]
    for h in range(3, min(5, p + 1) + 1):
        for _ in range(3):
            arr = Arrangement2(GF(p), rng.sample(lines, h))
            box = list(itertools.product(range(p + 1), repeat=h))
            yield arr, box if len(box) <= 400 else rng.sample(box, 400)


class TestClosedFormAnchors:
    @pytest.mark.parametrize("field", [QQ, GF(2**31 - 1)], ids=lambda f: f.name)
    @pytest.mark.parametrize("name", sorted(COXETER))
    def test_coxeter_exponents(self, field, name):
        """The dihedral arrangement of h lines at constant multiplicity c, for every c with |m| = ch <= 160.

        Terao (Invent. Math. 148, 2002): the exponents are (kh, kh) at c = 2k and (kh + 1, kh + h - 1) at
        c = 2k + 1, the gap h - 2.
        """
        arr = Arrangement2(field, COXETER[name])
        h = arr.h
        for c in range(1, 160 // h + 1):
            k, odd = divmod(c, 2)
            want = (k * h + 1, k * h + h - 1) if odd else (k * h, k * h)
            assert exponents(arr, (c,) * h).pair == want, c

    @pytest.mark.parametrize("name", sorted(COXETER))
    def test_coxeter_shift_certificates(self, name):
        """Each odd constant multiplicity is a maximizer, so the shift theorem applies there."""
        arr = Arrangement2(QQ, COXETER[name])
        for c in (1, 3, 5, 7, 9):
            cert = shift_isomorphism_check(arr, (c,) * arr.h)
            assert cert.passed and cert.hypothesis_met, c

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_frobenius_derivation_breaks_the_gap_bound(self, p):
        """theta_F = x1^p D1 + x2^p D2 has theta_F(alpha) = alpha^p for every line alpha over F_p.

        So theta_F is tangent whenever every m(H) <= p, and then d1 <= p: the gap |m| - 2*d1 exceeds h - 2
        at every balanced m with all m(H) <= p and |m| >= 2p + h - 1.  That the least balanced |m| with a gap
        above h - 2 is 2p + 2 is a search result over exactly frobenius_slice(p), not a theorem.
        """
        least = None
        for arr, points in frobenius_slice(p):
            h = arr.h
            frobenius = Derivation2.from_ints(arr.field, p, (0,) * p + (1,), (1,) + (0,) * p)
            assert untangent_forms(arr, (p,) * h, frobenius) == []
            for m in points:
                e = exponents(arr, m)
                assert e.d1 <= p, (arr.forms, m)
                if is_balanced(arr, m) and e.delta > h - 2:
                    least = sum(m) if least is None else min(least, sum(m))
                elif is_balanced(arr, m):
                    assert sum(m) < 2 * p + h - 1, (arr.forms, m)
        assert least == 2 * p + 2


def residue_by_row(alpha, k, d, theta) -> int:
    """Oracle: row k of the degree-d divisibility rows, as exactalg builds them, applied to theta(alpha)."""
    a, b = alpha.ints
    f, g = theta
    c = sum(r * (a * x + b * y) for r, x, y in zip(_constraint_row(alpha, k, d), f, g))
    p = alpha.field.char
    return c % p if p else c


def residue_alphas(field, rng) -> list:
    """x1, x2, lines a*x1 + b*x2, and stand-ins whose ints are not in canonical form."""
    p = field.char
    out = [LinearForm2(field, 1, 0), LinearForm2(field, 0, 1)]
    out += [LinearForm2(field, 1, t) for t in (range(1, p) if 0 < p < 8 else (1, -1, 2, -3, 10**12 + 39))]
    if not p:
        out += [LinearForm2(field, a, b) for a, b in ((2, 3), (-5, 7), (3, -4))]
    # the formula holds for any ints a, b; the stand-ins reach its factors of a and b
    pairs = [(0, 3), (0, -2), (2, 0), (4, 6), (-3, 5), (rng.randint(-99, 99), rng.randint(1, 99))]
    ints = [(a % p, b % p) if p else (a, b) for a, b in pairs]
    out += [SimpleNamespace(field=field, ints=ab) for ab in ints if any(ab)]
    return out


class TestHornerResidue:
    @pytest.mark.parametrize("field", SOLVER_FIELDS, ids=lambda f: f.name)
    def test_matches_the_constraint_row(self, field):
        """_residue equals row k of divisibility_constraints on theta(alpha), for k from 0 to d + 2."""
        rng = random.Random(field.char + 1)
        p = field.char
        cases = 0
        for alpha in residue_alphas(field, rng):
            for d in range(9):
                for _ in range(3):
                    big = rng.random() < 0.3
                    theta = tuple(
                        tuple(rng.randrange(p) if p else rng.randint(-(10**20), 10**20) if big else rng.randint(-9, 9)
                              for _ in range(d + 1))
                        for _ in range(2)
                    )
                    for k in range(d + 3):
                        want = residue_by_row(alpha, k, d, theta)
                        assert multiarr2._residue(alpha, k, d, theta) == want, (alpha.ints, k, d, theta)
                        cases += 1
        assert cases > 1000


def kernel_bases(arr, m):
    """Oracle: the canonical basis as kernel vectors of the tangency systems.

    theta1 is the first kernel vector at degree d1, theta2 the first kernel
    vector at degree d2 whose determinant with theta1 is nonzero.
    """
    e, system = exponents(arr, m), oracles.tangency_matrix
    theta1 = oracles.from_vector(arr.field, e.d1, system(arr, m, e.d1).kernel()[0])
    for vec in system(arr, m, e.d2).kernel():
        theta2 = oracles.from_vector(arr.field, e.d2, vec)
        if not saito_det(theta1, theta2).is_zero():
            return theta1, theta2
    raise AssertionError(f"no degree-{e.d2} complement at m={m}")


class TestCanonicalBasis:
    @given(case=multiarrangements())
    @example(case=(a2(), (1, 1, 1)))  # d1 < d2
    @example(case=(a2(), (1, 2, 1)))  # d1 == d2, the lower state element ends first
    @example(case=(a2(), (1, 2, 3)))  # d1 == d2, both state elements end at one index
    @example(case=(b2(), (0, 0, 2, 2)))  # d1 == d2, the upper state element ends first
    @example(case=(Arrangement2(QQ, [(1, 2), (3, -1), (1, 1)]), (30, 4, 3)))  # unbalanced, gap 23
    def test_matches_kernel_route_without_solving(self, case):
        """Bases read from the unit-step state equal the kernel vectors, with no solve."""
        arr, m = case
        assume(sum(m))
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            for name in ("kernel", "rank"):
                method = getattr(Matrix, name)
                mp.setattr(Matrix, name, lambda mat, method=method: calls.append(mat) or method(mat))
            clear_multiarr_caches()
            lower = lower_degree_basis(arr, m)
            clear_multiarr_caches()
            pair = basis(arr, m)
        assert calls == []
        assert pair == kernel_bases(arr, m)
        assert lower == pair[0]


def tampered(theta: Derivation2, part: int, index: int) -> Derivation2:
    """theta with one coefficient of its f (part 0) or g (part 1) raised by one."""
    forms = [theta.f, theta.g]
    form = forms[part]
    coeffs = [oracles.scalar(form.field, c) for c in form.coeffs]
    coeffs[index % len(coeffs)] += 1
    forms[part] = BinaryForm(form.field, form.degree, coeffs)
    return Derivation2(*forms)


def tangent_by_rows(arr, m, theta) -> bool:
    """Oracle: theta(alpha) lies in the kernel of the divisibility rows of every line."""
    return all(
        not any(oracles.mul_vec(divisibility_constraints(alpha, k, theta.degree), theta.apply_to_linear(alpha).coeffs))
        for alpha, k in zip(arr.forms, m)
    )


@st.composite
def non_basis_pairs(draw, arr, m):
    """Pairs with d1 + d2 in {|m| - 1, |m|, |m| + 1}: random, with a zero determinant, or off a basis."""
    field, total = arr.field, sum(m)
    ints = st.integers(-3, 3) | st.integers(-(10**9), 10**9)

    def form(d):
        return BinaryForm(field, d, draw(st.lists(ints, min_size=d + 1, max_size=d + 1)))

    kind = draw(st.sampled_from(["random", "zero det", "form times basis", "defining form"]))
    if kind == "form times basis":  # det = u * c * Q(arr, m), one degree too high
        pair = list(basis(arr, m))
        u, which = form(1), draw(st.integers(0, 1))
        pair[which] = Derivation2(oracles.mul(u, pair[which].f), oracles.mul(u, pair[which].g))
        return tuple(pair)
    if kind == "defining form":  # det = c * Q(arr, m), but c * D2 is tangent only to x1 (or zero)
        q = defining_form(arr, m)
        return Derivation2(q, oracles.zero_form(field, total)), Derivation2(oracles.zero_form(field, 0), form(0))
    s = total + draw(st.integers(-1, 1))
    d1 = draw(st.integers(0, max(s, 0)))
    d2 = max(s - d1, 0)
    theta1 = Derivation2(form(d1), form(d1))
    if kind == "random":
        return theta1, Derivation2(form(d2), form(d2))
    if d2 < d1:
        return Derivation2(oracles.zero_form(field, d1), oracles.zero_form(field, d1)), Derivation2(form(d2), form(d2))
    u = form(d2 - d1)
    return theta1, Derivation2(oracles.mul(u, theta1.f), oracles.mul(u, theta1.g))


class TestSaitoCriterion:
    @given(
        case=multiarrangements(),
        tamper=st.none() | st.just("pair") | st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 40)),
        data=st.data(),
    )
    def test_matches_tangency_and_determinant(self, case, tamper, data):
        """saito_criterion against the division rows and proportional_scalar(defining_form)."""
        arr, m = case
        assume(sum(m))
        if tamper == "pair":
            pair = data.draw(non_basis_pairs(arr, m))
        else:
            pair = list(basis(arr, m))
            if tamper is not None:
                which, part, index = tamper
                pair[which] = tampered(pair[which], part, index)
        tangent = tangent_by_rows(arr, m, pair[0]) and tangent_by_rows(arr, m, pair[1])
        assert tangent == (not (untangent_forms(arr, m, pair[0]) or untangent_forms(arr, m, pair[1])))
        scalar = saito_det(*pair).proportional_scalar(defining_form(arr, m))
        got = saito_criterion(arr, m, *pair)
        assert got == (tangent, scalar) == oracles.saito_criterion(arr, m, *pair)
        assert type(got[1]) is type(scalar) and str(got[1]) == str(scalar)
        if tamper is None:
            assert tangent and scalar

    @given(case=multiarrangements(), tamper=st.none() | st.tuples(st.integers(0, 1), st.integers(0, 40)), data=st.data())
    def test_untangent_forms_match_division_of_the_form(self, case, tamper, data):
        """untangent_forms on one int vector against binary_form_divides on theta.apply_to_linear(alpha)."""
        arr, m = case
        assume(sum(m))
        theta = basis(arr, m)[data.draw(st.integers(0, 1))]
        if tamper is not None:
            theta = tampered(theta, *tamper)
        want = [alpha for alpha, k in zip(arr.forms, m) if not binary_form_divides(alpha, k, theta.apply_to_linear(alpha))]
        assert untangent_forms(arr, m, theta) == want
        if tamper is None:
            assert want == []

    @pytest.mark.parametrize("field", SOLVER_FIELDS, ids=lambda f: f.name)
    def test_untangent_forms_with_contents(self, field):
        """f and g with different contents, a zero part, and one tampered coefficient."""
        p = field.char
        arr = Arrangement2(field, [(1, 0), (0, 1), (1, 1)] + ([(1, 2)] if p != 2 else []))
        cf, cg = (field(p - 1), field(1)) if p else (field(3) / field(5), field(7) / field(4))
        for m in [(2, 2, 1, 0), (0, 0, 3, 2), (1, 1, 1, 1), (3, 0, 0, 1)]:
            m = m[: arr.h]
            if not sum(m):
                continue
            theta1, theta2 = basis(arr, m)
            for theta in (theta1, theta2):
                scaled = Derivation2(oracles.scaled(theta.f, cf), oracles.scaled(theta.g, cg))
                variants = [theta, scaled, Derivation2(theta.f, oracles.zero_form(field, theta.degree))]
                variants += [tampered(v, part, i) for v in variants[:2] for part in (0, 1) for i in range(theta.degree + 1)]
                for v in variants:
                    want = [a for a, k in zip(arr.forms, m) if not binary_form_divides(a, k, v.apply_to_linear(a))]
                    assert untangent_forms(arr, m, v) == want, (m, v)

    def test_one_multiplicity_check_per_certified_pair(self, monkeypatch):
        arr, m = b2(), (2, 1, 2, 1)
        calls = []
        check = Arrangement2.check_multiplicity

        def counted(self, mt):
            calls.append(mt)
            return check(self, mt)

        monkeypatch.setattr(Arrangement2, "check_multiplicity", counted)
        pair = basis(arr, m)
        assert len(calls) == 1
        assert saito_criterion(arr, list(m), *pair)[1] and len(calls) == 2
        with pytest.raises(ValueError, match="multiplicity has 3 entries, arrangement has 4"):
            saito_criterion(arr, m[:3], *pair)
        with pytest.raises(ValueError, match="multiplicities must be nonnegative"):
            basis(arr, (2, 1, 2, -1))

    def test_untangent_forms_refuses_mixed_fields(self):
        with pytest.raises(TypeError, match="mixed-field"):
            untangent_forms(Arrangement2(GF(3), [(1, 0), (0, 1)]), (1, 1), Derivation2.euler(QQ))

    @pytest.mark.parametrize("field", SOLVER_FIELDS, ids=lambda f: f.name)
    def test_one_tampered_coefficient(self, field):
        arr = Arrangement2(field, [(1, 0), (0, 1), (1, 1)])
        m = (2, 2, 1)
        theta1, theta2 = basis(arr, m)
        tangent, scalar = saito_criterion(arr, m, theta1, theta2)
        assert tangent and scalar
        for part in (0, 1):
            for index in range(theta1.degree + 1):
                bad = tampered(theta1, part, index)
                tangent, scalar = saito_criterion(arr, m, bad, theta2)
                assert not (tangent and scalar)
                assert tangent == (not untangent_forms(arr, m, bad))
                assert scalar == saito_det(bad, theta2).proportional_scalar(defining_form(arr, m))

"""Scalars, forms, divisibility encodings and kernel computations."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiarr.arr3 import AffineLine, LinearForm3
from multiarr.exactalg import (
    GF,
    QQ,
    BinaryForm,
    LinearForm2,
    Matrix,
    _is_prime,
    binary_form_divides,
    canonical_coefficients,
    divisibility_constraints,
)
from multiarr.multiarr2 import Derivation2
from oracles import FieldForm
from oracles import _int_row as oracle_int_row
from oracles import canonical_coefficients as oracle_canonical_coefficients
from oracles import proportional_scalar as oracle_proportional_scalar


def naive_rank(rows):
    """Independent row-reduction oracle: textbook Gauss over Fraction."""
    rows = [[Fraction(e) for e in r] for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def naive_rank_mod(rows, p):
    """Independent row-reduction oracle: textbook Gauss-Jordan on ints mod p."""
    rows = [[e % p for e in r] for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [a * inv % p for a in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestScalars:
    def test_rational_coercion(self):
        assert QQ("3") == 3
        assert QQ("-7/2") == Fraction(-7, 2)
        with pytest.raises(TypeError):
            QQ(GF(5)(2))

    def test_prime_field(self):
        F = GF(5)
        assert F(7) == F(2)
        assert (F(2) / F(3)) * F(3) == F(2)
        assert F(2) ** 4 == F(1)
        with pytest.raises(ValueError):
            GF(6)
        with pytest.raises(ValueError):
            F(GF(7)(1))
        with pytest.raises(ZeroDivisionError):
            F(1) / F(0)

    def test_mixed_rationals_rejected_in_gf(self):
        with pytest.raises(TypeError):
            GF(3)(Fraction(1, 2))

    @given(
        a=st.fractions(max_denominator=10**12),
        b=st.fractions(max_denominator=10**12),
    )
    def test_big_rational_cancellation(self, a, b):
        assert a + b - b == a


def trial_division_is_prime(n):
    """Oracle: the textbook test by odd divisors up to the square root."""
    if n < 4:
        return n >= 2
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# Carmichael numbers, a strong pseudoprime to the bases 2..23, Mersenne
# primes and the largest prime below 2^64
HARD_CASES = (
    561, 41041, 825265, 321197185, 5394826801, 232250619601, 9746347772161,
    3825123056546413051, 2**31 - 1, 2**61 - 1, 2**64 - 59,
)


class TestPrimality:
    def test_matches_trial_division_below_1e5(self):
        assert [n for n in range(10**5) if _is_prime(n)] == [
            n for n in range(10**5) if trial_division_is_prime(n)
        ]

    def test_hard_cases_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        for n in HARD_CASES:
            assert _is_prime(n) == sympy.isprime(n), n

    @given(st.integers(10**5, 2**64 - 1))
    def test_large_against_sympy(self, n):
        sympy = pytest.importorskip("sympy")
        assert _is_prime(n) == sympy.isprime(n)
        assert _is_prime(sympy.nextprime(n))

    def test_large_prime_field(self):
        F = GF(2**61 - 1)
        assert F(2**61) == F(1)
        with pytest.raises(ValueError, match="2\\^64"):
            GF(2**64 + 13)
        with pytest.raises(ValueError, match="not prime"):
            GF(3825123056546413051)


class TestLinearForm:
    def test_canonicalization_q(self):
        assert LinearForm2(QQ, Fraction(1, 2), Fraction(3, 4)).coeffs == (2, 3)
        assert LinearForm2(QQ, -2, -4).coeffs == (1, 2)
        assert LinearForm2(QQ, 0, -5).coeffs == (0, 1)
        assert LinearForm2(QQ, -3, 6) == LinearForm2(QQ, 1, -2)

    def test_canonicalization_gf(self):
        F = GF(5)
        f = LinearForm2(F, 2, 3)
        assert f.coeffs[0] == F.one
        assert f == LinearForm2(F, 4, 6)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            LinearForm2(QQ, 0, 0)


class TestBinaryForm:
    def test_mul_and_render(self):
        x1px2 = LinearForm2(QQ, 1, 1).form()
        sq = x1px2 * x1px2
        assert sq.coeffs == (1, 2, 1)
        assert sq.render() == "x1^2 + 2*x1*x2 + x2^2"

    def test_derivatives(self):
        # d/dx1 (x1^2*x2) = 2*x1*x2 ; d/dx2 (x1^2*x2) = x1^2
        f = BinaryForm(QQ, 3, (0, 0, 1, 0))
        assert f.dx1().coeffs == (0, 2, 0)
        assert f.dx2().coeffs == (0, 0, 1)

    def test_divide_exact(self):
        a = LinearForm2(QQ, 1, 1)
        p = a.power(3)
        q = p.divide_exact(a.power(2))
        assert q == a.power(1)
        assert a.power(2).divide_exact(a.power(3)) is None
        # x2-valuation mismatch: x1^2 not divisible by x2
        x1sq = BinaryForm(QQ, 2, (0, 0, 1))
        x2 = LinearForm2(QQ, 0, 1).form()
        assert x1sq.divide_exact(x2) is None

    @pytest.mark.parametrize("field", [QQ, GF(7)])
    def test_proportional_scalar(self, field):
        f = BinaryForm(field, 2, (0, 2, 3))
        zero = BinaryForm.zero(field, 2)
        assert BinaryForm(field, 2, (0, 6, 9)).proportional_scalar(f) == field(3)
        assert BinaryForm(field, 2, (0, 6, 8)).proportional_scalar(f) is None
        assert BinaryForm(field, 2, (1, 2, 3)).proportional_scalar(f) is None
        assert zero.proportional_scalar(f) == field.zero
        assert zero.proportional_scalar(zero) == field.zero
        assert f.proportional_scalar(zero) is None
        assert f.proportional_scalar(BinaryForm(field, 1, (2, 3))) is None

    def test_char2_frobenius_power(self):
        F = GF(2)
        a = LinearForm2(F, 1, 1)
        # (x1 + x2)^4 = x1^4 + x2^4 over GF(2)
        assert a.power(4).coeffs == (F.one, F.zero, F.zero, F.zero, F.one)


ORACLE_FIELDS = [QQ, GF(2), GF(3), GF(7), GF(2**31 - 1)]


def scalars(field):
    """Coefficient inputs: small, large and negative ints, and field scalars or strings."""
    ints = st.just(0) | st.integers(-3, 3) | st.integers(-(10**12), 10**12)
    if field.char:
        return ints | ints.map(field) | ints.map(str)
    fracs = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
    return ints | fracs | fracs.map(str)


@st.composite
def coefficient_lists(draw, field, degree=None):
    """(degree, coefficients), the zero form at any degree included."""
    d = draw(st.integers(0, 6)) if degree is None else degree
    if draw(st.integers(0, 5)) == 0:
        return d, [0] * (d + 1)
    return d, draw(st.lists(scalars(field), min_size=d + 1, max_size=d + 1))


def both(field, d, cs):
    return BinaryForm(field, d, cs), FieldForm(field, d, cs)


def assert_same(form, oracle):
    """form and the oracle hold the same field scalars, render alike and rebuild alike."""
    assert isinstance(form, BinaryForm)
    assert form.degree == oracle.degree
    assert form.coeffs == oracle.coeffs
    assert [type(c) for c in form.coeffs] == [type(c) for c in oracle.coeffs]
    assert form.is_zero() == oracle.is_zero()
    assert form.render() == oracle.render()
    assert form.render(("x", "y")) == oracle.render(("x", "y"))
    rebuilt = BinaryForm(form.field, oracle.degree, oracle.coeffs)
    assert rebuilt == form and hash(rebuilt) == hash(form)


def assert_same_scalar(got, want):
    assert got == want and type(got) is type(want)


class TestFormOracle:
    """Differential test: BinaryForm on ints against the field-scalar oracle."""

    @given(data=st.data(), field=st.sampled_from(ORACLE_FIELDS))
    def test_ring_operations(self, data, field):
        d, cs = data.draw(coefficient_lists(field))
        a, oa = both(field, d, cs)
        assert_same(a, oa)
        _, cs_same = data.draw(coefficient_lists(field, d))
        b, ob = both(field, d, cs_same)
        e, other = data.draw(coefficient_lists(field))
        c, oc = both(field, e, other)
        assert_same(a + b, oa + ob)
        assert_same(a - b, oa - ob)
        assert_same(a - a, oa - oa)
        assert_same(a * c, oa * oc)
        assert_same(c * a, oc * oa)
        assert_same(-a, -oa)
        k = data.draw(scalars(field))
        assert_same(a.scaled(k), oa.scaled(k))
        assert_same(a.dx1(), oa.dx1())
        assert_same(a.dx2(), oa.dx2())
        assert_same(a.dx1().dx2(), oa.dx1().dx2())
        assert (a == b) == (oa == ob)
        assert (a == c) == (oa == oc)
        if a == b:
            assert hash(a) == hash(b)

    @given(
        data=st.data(),
        field=st.sampled_from(ORACLE_FIELDS),
        divisor=st.sampled_from(["random", "x1", "x2", "linear"]),
        remainder=st.sampled_from([None, "last step", "constant term"]),
    )
    def test_divide_exact(self, data, field, divisor, remainder):
        if divisor == "random":
            e, ds = data.draw(coefficient_lists(field, data.draw(st.integers(0, 4))))
            q, oq = both(field, e, ds)
        else:
            k = data.draw(st.integers(1, 4))
            if divisor == "linear":
                a, b = data.draw(st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
                if not (field(a) or field(b)):
                    a = 1
            else:
                a, b = (1, 0) if divisor == "x1" else (0, 1)
            q = LinearForm2(field, a, b).power(k)
            oq = FieldForm(field, k, q.coeffs)
        d, cs = data.draw(coefficient_lists(field))
        quotient, oquotient = both(field, d, cs)
        num, onum = quotient * q, oquotient * oq
        if remainder is not None and not oq.is_zero():
            top = max(i for i, c in enumerate(oq.coeffs) if c)
            j = top if remainder == "last step" else 0
            cs = [0] * (num.degree + 1)
            cs[j] = data.draw(scalars(field))
            num, onum = num + BinaryForm(field, num.degree, cs), onum + FieldForm(field, num.degree, cs)
        assert_same(num, onum)
        if oq.is_zero():
            with pytest.raises(ZeroDivisionError):
                num.divide_exact(q)
            return
        got, want = num.divide_exact(q), onum.divide_exact(oq)
        assert (got is None) == (want is None)
        if want is not None:
            assert_same(got, want)
        if remainder is None:
            assert want is not None

    @pytest.mark.parametrize("field", ORACLE_FIELDS)
    def test_divide_exact_small_cases(self, field):
        """Divisors with a non-unit leading int, exact or off by one term at the last step or the end."""
        divisors = [(1, 2), (1, 0, 3), (2, 1, 5), (0, 1, 2), (3, 0), (4, 6, 9)]
        quotients = [(0,), (1,), (5,), (1, 1), (2, 0, 3), (-1, 4)]
        for dc in divisors:
            q, oq = both(field, len(dc) - 1, dc)
            if oq.is_zero():
                continue
            top = max(i for i, c in enumerate(oq.coeffs) if c)
            for qc in quotients:
                quotient, oquotient = both(field, len(qc) - 1, qc)
                num, onum = quotient * q, oquotient * oq
                for j, r in ((0, 0), (top, 1), (top, 2), (0, 1)):
                    cs = [0] * (num.degree + 1)
                    cs[j] = r
                    n, on = num + BinaryForm(field, num.degree, cs), onum + FieldForm(field, num.degree, cs)
                    got, want = n.divide_exact(q), on.divide_exact(oq)
                    assert (got is None) == (want is None), (dc, qc, j, r)
                    if want is not None:
                        assert_same(got, want)

    @given(
        data=st.data(),
        field=st.sampled_from(ORACLE_FIELDS),
        relation=st.sampled_from(["scaled", "random", "zero"]),
    )
    def test_proportional_scalar(self, data, field, relation):
        d, cs = data.draw(coefficient_lists(field))
        a, oa = both(field, d, cs)
        if relation == "scaled":
            k = data.draw(scalars(field))
            b, ob = a.scaled(k), oa.scaled(k)
        elif relation == "zero":
            b, ob = BinaryForm.zero(field, d), FieldForm.zero(field, d)
        else:
            e, other = data.draw(coefficient_lists(field))
            b, ob = both(field, e, other)
        for x, y, ox, oy in ((a, b, oa, ob), (b, a, ob, oa), (a, a, oa, oa)):
            want = ox.proportional_scalar(oy)
            got = x.proportional_scalar(y)
            if want is None:
                assert got is None
            else:
                assert_same_scalar(got, want)

    @given(
        data=st.data(),
        field=st.sampled_from(ORACLE_FIELDS),
        relation=st.sampled_from(["scaled", "random", "f zero", "g zero"]),
    )
    def test_derivation_proportional_scalar(self, data, field, relation):
        d = data.draw(st.integers(0, 4))
        parts = [data.draw(coefficient_lists(field, d))[1] for _ in range(4)]
        if relation == "f zero":
            parts[0] = parts[2] = [0] * (d + 1)
        elif relation == "g zero":
            parts[1] = [0] * (d + 1)
        theta = Derivation2(BinaryForm(field, d, parts[0]), BinaryForm(field, d, parts[1]))
        if relation == "scaled":
            k = data.draw(scalars(field))
            other = Derivation2(theta.f.scaled(k), theta.g.scaled(k))
        else:
            other = Derivation2(BinaryForm(field, d, parts[2]), BinaryForm(field, d, parts[3]))
        for x, y in ((theta, other), (other, theta), (theta, theta)):
            want = oracle_proportional_scalar(field, x.f.coeffs + x.g.coeffs, y.f.coeffs + y.g.coeffs)
            got = x.proportional_scalar(y)
            if want is None:
                assert got is None
            else:
                assert_same_scalar(got, want)

    @pytest.mark.parametrize("field", ORACLE_FIELDS)
    def test_built_equals_reached(self, field):
        assert BinaryForm(QQ, 1, (2, 4)) == BinaryForm(QQ, 1, (1, 2)).scaled(2)
        pairs = [
            (BinaryForm(field, 1, (2, 4)), BinaryForm(field, 1, (1, 2)).scaled(2)),
            (BinaryForm(field, 2, (-1, 0, 3)), -BinaryForm(field, 2, (1, 0, -3))),
            (BinaryForm(field, 2, (0, 0, 0)), BinaryForm(field, 2, (1, 2, 3)).scaled(0)),
            (BinaryForm(field, 1, (0, 0)), BinaryForm(field, 1, (5, 1)) - BinaryForm(field, 1, (5, 1))),
            (BinaryForm(field, 2, (1, 2, 1)), LinearForm2(field, 1, 1).power(2)),
            (BinaryForm(field, 1, (3, 2)), BinaryForm(field, 2, (1, 3, 3)).dx1() - BinaryForm(field, 1, (0, 4))),
        ]
        for built, reached in pairs:
            assert built == reached and hash(built) == hash(reached)
            assert built.coeffs == reached.coeffs

    def test_equal_values_over_q(self):
        half = BinaryForm(QQ, 1, (Fraction(1, 2), 1))
        assert half == BinaryForm(QQ, 1, ("1/2", 1)) == BinaryForm(QQ, 1, (1, 2)).scaled(Fraction(1, 2))
        assert half.ints == (1, 2) and half.content == Fraction(1, 2)
        assert BinaryForm(QQ, 1, (-2, 4)).ints == (1, -2)
        assert BinaryForm(QQ, 1, (-2, 4)).content == -2
        assert BinaryForm(QQ, 2, (0, 0, 0)) != BinaryForm(QQ, 1, (0, 0))
        assert BinaryForm(QQ, 1, (1, 2)) != BinaryForm(GF(7), 1, (1, 2))


@st.composite
def coefficient_vectors(draw, field, width):
    """Coefficient vectors of one width, zero entries and the zero vector included."""
    if draw(st.integers(0, 7)) == 0:
        return [0] * width
    return draw(st.lists(st.just(0) | scalars(field), min_size=width, max_size=width))


class TestCanonicalOracle:
    """Differential test: canonical int vectors against the field-scalar oracle."""

    @given(
        data=st.data(),
        field=st.sampled_from(ORACLE_FIELDS),
        cls_width=st.sampled_from([(LinearForm2, 2), (LinearForm3, 3), (AffineLine, 3)]),
    )
    def test_forms(self, data, field, cls_width):
        cls, width = cls_width
        cs = data.draw(coefficient_vectors(field, width))
        if cls is AffineLine and not any(map(field, cs[:2])):
            with pytest.raises(ValueError, match="^line needs a nonzero direction part$"):
                cls(field, *cs)
            return
        if not any(map(field, cs)):
            with pytest.raises(ValueError, match="^zero coefficient vector has no canonical form$"):
                oracle_canonical_coefficients(field, cs)
            with pytest.raises(ValueError, match="^zero coefficient vector has no canonical form$"):
                cls(field, *cs)
            return
        want = oracle_canonical_coefficients(field, cs)
        form = cls(field, *cs)
        assert canonical_coefficients(field, cs) == form.ints == oracle_int_row(field, want)
        assert all(type(x) is int for x in form.ints)
        assert form.coeffs == want
        assert [type(c) for c in form.coeffs] == [type(c) for c in want]
        built = cls(field, *want)
        assert built == form and hash(built) == hash(form)

    # width 2 up: the oracle's reduce(math.gcd, ...) keeps the sign of a lone entry
    @given(data=st.data(), field=st.sampled_from(ORACLE_FIELDS), width=st.integers(2, 5))
    def test_matrix_rows_and_binary_forms(self, data, field, width):
        rows = data.draw(st.lists(coefficient_vectors(field, width), min_size=1, max_size=4))
        assert Matrix(field, rows).rows == tuple(oracle_int_row(field, r) for r in rows)
        for r in rows:
            form = BinaryForm(field, width - 1, r)
            assert_same(form, FieldForm(field, width - 1, r))
            ints = oracle_int_row(field, r)
            # over GF(p) the ints are the residues; over Q the primitive vector
            assert form.ints == (ints if field.char or not any(ints) else oracle_canonical_coefficients(field, ints))


class TestKernel:
    def test_coordinate_projection(self):
        assert Matrix(QQ, [[1, 0]]).kernel() == [(0, 1)]

    def test_full_rank(self):
        assert Matrix(QQ, [[1, 0], [0, 1]]).kernel() == []

    def test_rank_one_row(self):
        mat = Matrix(QQ, [[1, 1, 1]])
        vecs = mat.kernel()
        assert len(vecs) == 2
        # rank via an independent elimination: 3 columns - rank 1 = 2
        assert 3 - naive_rank(mat.rows) == 2
        for v in vecs:
            assert all(x == 0 for x in mat.mul_vec(v))
            lead = next(c for c in v if c)
            assert lead == 1

    def test_empty_matrix_kernel_is_everything(self):
        vecs = Matrix(QQ, (), ncols=3).kernel()
        assert len(vecs) == 3

    def test_mixed_field_matrix_rejected(self):
        with pytest.raises((TypeError, ValueError)):
            Matrix(QQ, [[GF(5)(1), 0]])

    @given(
        rows=st.lists(
            st.lists(st.integers(-9, 9), min_size=4, max_size=4),
            min_size=1,
            max_size=5,
        )
    )
    def test_kernel_annihilates_and_spans(self, rows):
        mat = Matrix(QQ, rows)
        vecs = mat.kernel()
        for v in vecs:
            assert all(x == 0 for x in mat.mul_vec(v))
        assert len(vecs) == 4 - naive_rank(rows)
        if vecs:
            assert naive_rank(vecs) == len(vecs)

    @given(
        rows=st.lists(
            st.lists(st.integers(0, 6), min_size=3, max_size=3),
            min_size=1,
            max_size=4,
        ),
        p=st.sampled_from([2, 3, 7]),
    )
    def test_kernel_prime_field(self, rows, p):
        F = GF(p)
        mat = Matrix(F, rows)
        vecs = mat.kernel()
        for v in vecs:
            assert all(not x for x in mat.mul_vec(v))
        rank = naive_rank_mod(rows, p)
        assert mat.rank() == rank
        assert len(vecs) == mat.ncols - rank


class TestDivisibility:
    def test_square_divides(self):
        a = LinearForm2(QQ, 1, 1)
        mat = divisibility_constraints(a, 2, 2)
        assert mat.nrows == 2 and mat.ncols == 3
        p = BinaryForm(QQ, 2, (1, 2, 1))
        assert all(x == 0 for x in mat.mul_vec(p.coeffs))
        assert binary_form_divides(a, 2, p)

    def test_coordinate_divisor(self):
        # x1 | P of degree 1 iff the x2-coefficient vanishes
        a = LinearForm2(QQ, 1, 0)
        mat = divisibility_constraints(a, 1, 1)
        vecs = mat.kernel()
        assert vecs == [(0, 1)]  # span{x1}

    def test_cube_kills_quadratics(self):
        a = LinearForm2(QQ, 1, -1)
        mat = divisibility_constraints(a, 3, 2)
        assert mat.kernel() == []
        # brute force over a small coefficient grid: only zero is divisible
        for c0 in range(-2, 3):
            for c1 in range(-2, 3):
                for c2 in range(-2, 3):
                    p = BinaryForm(QQ, 2, (c0, c1, c2))
                    assert binary_form_divides(a, 3, p) == p.is_zero()

    def test_k_zero_and_k_beyond_degree(self):
        a = LinearForm2(QQ, 2, 3)
        assert divisibility_constraints(a, 0, 4).nrows == 0
        big = divisibility_constraints(a, 6, 2)
        assert big.nrows == 6
        assert big.kernel() == []

    def test_remark_divisor_char2(self):
        F = GF(2)
        x1 = LinearForm2(F, 1, 0)
        x1_4 = BinaryForm(F, 4, (0, 0, 0, 0, 1))
        assert binary_form_divides(x1, 4, x1_4)
        assert not binary_form_divides(x1, 1, BinaryForm(F, 3, (1, 0, 0, 0)))

    @given(
        a=st.integers(-4, 4),
        b=st.integers(-4, 4),
        k=st.integers(0, 3),
        d=st.integers(0, 5),
        coeffs=st.lists(st.integers(-5, 5), min_size=6, max_size=6),
        exact=st.booleans(),
        field=st.sampled_from([QQ, GF(2), GF(3), GF(5)]),
    )
    def test_two_routes_agree(self, a, b, k, d, coeffs, exact, field):
        if not (field(a) or field(b)):
            return
        if k > d:
            return
        alpha = LinearForm2(field, a, b)
        if exact:
            rest = BinaryForm(field, d - k, coeffs[: d - k + 1])
            p = alpha.power(k) * rest
        else:
            p = BinaryForm(field, d, coeffs[: d + 1])
        mat = divisibility_constraints(alpha, k, d)
        in_kernel = not any(mat.mul_vec(p.coeffs))
        assert in_kernel == binary_form_divides(alpha, k, p)

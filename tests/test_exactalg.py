"""Scalars, forms, divisibility encodings and kernel computations."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiarr.arr3 import AffineLine, LinearForm3
from multiarr.exactalg import (
    GF,
    QQ,
    BinaryForm,
    FpElement,
    LinearForm2,
    Matrix,
    _MR_BASES,
    _echelon,
    _is_prime,
    binary_form_divides,
    canonical_coefficients,
    divisibility_constraints,
)
from multiarr.multiarr2 import Derivation2
import oracles
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
        two, three = oracles.Fp(2, 5), oracles.Fp(3, 5)
        assert (two / three) * three == F(2)
        assert two**4 == F(1)
        with pytest.raises(ValueError):
            GF(6)
        with pytest.raises(ValueError):
            F(GF(7)(1))
        with pytest.raises(ValueError):
            two + GF(7)(1)
        with pytest.raises(ZeroDivisionError):
            oracles.Fp(1, 5) / F(0)

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


# OEIS A014233: psi_k, the least odd composite that is a strong pseudoprime
# to each of the first k primes (G. Jaeschke, Math. Comp. 61, 1993), with
# its prime factors; the first k bases decide every n < psi_k
PSI = {
    1: (2047, (23, 89)),
    2: (1373653, (829, 1657)),
    3: (25326001, (2251, 11251)),
    4: (3215031751, (151, 751, 28351)),
    5: (2152302898747, (6763, 10627, 29947)),
    6: (3474749660383, (1303, 16927, 157543)),
    7: (341550071728321, (10670053, 32010157)),
    9: (3825123056546413051, (149491, 747451, 34233211)),
}


class TestPrimality:
    def test_matches_trial_division_below_2e5(self):
        assert [n for n in range(2 * 10**5) if _is_prime(n)] == [
            n for n in range(2 * 10**5) if trial_division_is_prime(n)
        ]

    @pytest.mark.parametrize("k", sorted(PSI))
    def test_each_psi_is_a_strong_pseudoprime_to_its_prefix_and_refused(self, k):
        psi, factors = PSI[k]
        assert math.prod(factors) == psi and all(trial_division_is_prime(f) for f in factors)
        assert all(oracles.strong_probable_prime(psi, b) for b in _MR_BASES[:k])
        assert not _is_prime(psi)

    def test_matches_twelve_bases_in_every_band(self):
        """Seeded odd n in each band [psi_j, psi_k) that k bases decide, and products of two primes found there."""
        rng = random.Random(29)
        edges = [psi for psi, _ in PSI.values()] + [2**64]
        for lo, hi in zip(edges, edges[1:]):
            odd = [rng.randrange(lo, hi) | 1 for _ in range(400)] + [lo + 2, hi - 2]
            primes = [n for n in odd if oracles.is_prime_twelve_bases(n)]
            assert primes, (lo, hi)
            for n in odd + [p * q for p, q in zip(primes, primes[1:])]:
                assert _is_prime(n) == oracles.is_prime_twelve_bases(n), n

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
        assert f.coeffs[0] == F(1)
        assert f == LinearForm2(F, 4, 6)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            LinearForm2(QQ, 0, 0)


class TestBinaryForm:
    def test_mul_and_render(self):
        x1px2 = BinaryForm(QQ, 1, (1, 1))
        sq = oracles.mul(x1px2, x1px2)
        assert sq.coeffs == (1, 2, 1)
        assert sq.render() == "x1^2 + 2*x1*x2 + x2^2"

    def test_derivatives(self):
        # d/dx1 (x1^2*x2) = 2*x1*x2 ; d/dx2 (x1^2*x2) = x1^2
        f = BinaryForm(QQ, 3, (0, 0, 1, 0))
        assert oracles.dx1(f).coeffs == (0, 2, 0)
        assert oracles.dx2(f).coeffs == (0, 0, 1)

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
        assert oracles.power(a, 4).coeffs == (F(1), F(0), F(0), F(0), F(1))


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


def oracle_power(alpha: FieldForm, k: int) -> FieldForm:
    out = FieldForm(alpha.field, 0, (1,))
    for _ in range(k):
        out = out * alpha
    return out


def both(field, d, cs):
    return BinaryForm(field, d, cs), FieldForm(field, d, cs)


def assert_same(form, oracle):
    """form and the oracle hold the same field scalars, render alike and rebuild alike.

    The form's scalars are the library's own type: Fraction over Q, a plain FpElement over GF(p).
    """
    assert isinstance(form, BinaryForm)
    assert form.degree == oracle.degree
    assert form.coeffs == oracle.coeffs
    assert {type(c) for c in form.coeffs} == {type(form.field.zero)}
    assert form.is_zero() == oracle.is_zero()
    assert form.render() == oracle.render()
    assert form.render(("x", "y")) == oracle.render(("x", "y"))
    rebuilt = BinaryForm(form.field, oracle.degree, oracle.coeffs)
    assert rebuilt == form and hash(rebuilt) == hash(form)


def assert_same_scalar(got, want):
    """got, a library scalar, equals want, the oracle's, and is a Fraction over Q and a plain FpElement over GF(p)."""
    assert got == want and type(got) is (FpElement if isinstance(want, FpElement) else Fraction)


class TestFormOracle:
    """Differential test: BinaryForm and its arithmetic on ints (oracles) against the field-scalar oracle."""

    @given(data=st.data(), field=st.sampled_from(ORACLE_FIELDS))
    def test_ring_operations(self, data, field):
        d, cs = data.draw(coefficient_lists(field))
        a, oa = both(field, d, cs)
        assert_same(a, oa)
        _, cs_same = data.draw(coefficient_lists(field, d))
        b, ob = both(field, d, cs_same)
        e, other = data.draw(coefficient_lists(field))
        c, oc = both(field, e, other)
        assert_same(oracles.add(a, b), oa + ob)
        assert_same(oracles.sub(a, b), oa - ob)
        assert_same(oracles.sub(a, a), oa - oa)
        assert_same(oracles.mul(a, c), oa * oc)
        assert_same(oracles.mul(c, a), oc * oa)
        assert_same(oracles.scaled(a, -1), -oa)
        k = data.draw(scalars(field))
        assert_same(oracles.scaled(a, k), oa.scaled(k))
        assert_same(oracles.dx1(a), oa.dx1())
        assert_same(oracles.dx2(a), oa.dx2())
        assert_same(oracles.dx2(oracles.dx1(a)), oa.dx1().dx2())
        assert (a == b) == (oa == ob)
        assert (a == c) == (oa == oc)
        if a == b:
            assert hash(a) == hash(b)

    @given(
        data=st.data(),
        field=st.sampled_from(ORACLE_FIELDS),
        divisor=st.sampled_from(["x1", "x2", "linear"]),
        tamper=st.sampled_from([None, "first", "last", "any"]),
    )
    def test_divide_exact(self, data, field, divisor, tamper):
        """binary_form_divides against the oracle's long division by alpha^k, k up to degree + 2."""
        if divisor == "linear":
            ints = st.integers(-5, 5) | st.integers(-(10**12), 10**12)
            a, b = data.draw(st.tuples(ints, ints).filter(lambda ab: field(ab[0]) or field(ab[1])))
        else:
            a, b = (1, 0) if divisor == "x1" else (0, 1)
        alpha, oalpha = LinearForm2(field, a, b), FieldForm(field, 1, (b, a))
        # a multiple of alpha^j whose quotient may have zero coefficients at both ends
        lo, hi = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
        d, cs = data.draw(coefficient_lists(field, data.draw(st.integers(0, 4))))
        onum = FieldForm(field, lo + d + hi, [0] * lo + cs + [0] * hi)
        j = data.draw(st.integers(0, 3))
        for _ in range(j):
            onum = onum * oalpha
        if tamper is not None:
            if tamper == "any":
                i = data.draw(st.integers(0, onum.degree))
            else:
                i = 0 if tamper == "first" else onum.degree
            bump = [0] * (onum.degree + 1)
            bump[i] = data.draw(scalars(field))
            onum = onum + FieldForm(field, onum.degree, bump)
        num = BinaryForm(field, onum.degree, onum.coeffs)
        for k in range(onum.degree + 3):
            want = onum.divide_exact(oracle_power(oalpha, k)) is not None
            assert binary_form_divides(alpha, k, num) == want, (a, b, k)
            if tamper is None and k <= j:
                assert want

    @pytest.mark.parametrize("field", ORACLE_FIELDS)
    def test_divide_exact_small_cases(self, field):
        """Exact multiples of alpha^j, and the same off by one term at either end or inside."""
        alphas = [(1, 0), (0, 1), (1, 1), (1, 2), (2, -3), (5, 7)]
        quotients = [(0,), (1,), (5,), (1, 1), (2, 0, 3), (-1, 4), (0, 1, 0), (0, 0, 2, 0, 0)]
        for a, b in alphas:
            alpha, oalpha = LinearForm2(field, a, b), FieldForm(field, 1, (b, a))
            for qc in quotients:
                for j in range(3):
                    onum = FieldForm(field, len(qc) - 1, qc) * oracle_power(oalpha, j)
                    top = onum.degree
                    for i, r in ((None, 0), (0, 1), (top, 1), (top, 2), (top // 2, 1)):
                        bump = [0] * (top + 1)
                        if i is not None:
                            bump[i] = r
                        on = onum + FieldForm(field, top, bump)
                        n = BinaryForm(field, top, on.coeffs)
                        for k in range(top + 3):
                            want = on.divide_exact(oracle_power(oalpha, k)) is not None
                            assert binary_form_divides(alpha, k, n) == want, ((a, b), qc, j, i, r, k)
                            if i is None and k <= j:
                                assert want

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
            b, ob = oracles.scaled(a, k), oa.scaled(k)
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
            other = Derivation2(oracles.scaled(theta.f, k), oracles.scaled(theta.g, k))
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
        assert BinaryForm(QQ, 1, (2, 4)) == oracles.scaled(BinaryForm(QQ, 1, (1, 2)), 2)
        pairs = [
            (BinaryForm(field, 1, (2, 4)), oracles.scaled(BinaryForm(field, 1, (1, 2)), 2)),
            (BinaryForm(field, 2, (-1, 0, 3)), oracles.scaled(BinaryForm(field, 2, (1, 0, -3)), -1)),
            (BinaryForm(field, 2, (0, 0, 0)), oracles.scaled(BinaryForm(field, 2, (1, 2, 3)), 0)),
            (BinaryForm(field, 1, (0, 0)), oracles.sub(BinaryForm(field, 1, (5, 1)), BinaryForm(field, 1, (5, 1)))),
            (BinaryForm(field, 2, (1, 2, 1)), oracles.power(LinearForm2(field, 1, 1), 2)),
            (BinaryForm(field, 1, (3, 2)), oracles.sub(oracles.dx1(BinaryForm(field, 2, (1, 3, 3))), BinaryForm(field, 1, (0, 4)))),
        ]
        for built, reached in pairs:
            assert built == reached and hash(built) == hash(reached)
            assert built.coeffs == reached.coeffs

    def test_equal_values_over_q(self):
        half = BinaryForm(QQ, 1, (Fraction(1, 2), 1))
        assert half == BinaryForm(QQ, 1, ("1/2", 1)) == oracles.scaled(BinaryForm(QQ, 1, (1, 2)), Fraction(1, 2))
        assert half.ints == (1, 2) and half.content == Fraction(1, 2)
        assert BinaryForm(QQ, 1, (-2, 4)).ints == (1, -2)
        assert BinaryForm(QQ, 1, (-2, 4)).content == -2
        zero = BinaryForm.from_ints(QQ, 1, (4, 6), 0, 3)  # a zero numerator gives the zero form
        assert zero == BinaryForm.zero(QQ, 1) and zero.is_zero() and zero.ints == (0, 0)
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
        assert {type(c) for c in form.coeffs} == {type(field.zero)}
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
            assert all(x == 0 for x in oracles.mul_vec(mat, v))
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
            assert all(x == 0 for x in oracles.mul_vec(mat, v))
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
            assert all(not x for x in oracles.mul_vec(mat, v))
        rank = naive_rank_mod(rows, p)
        assert mat.rank() == rank
        assert len(vecs) == mat.ncols - rank


def seeded_matrices(field, rng) -> list:
    """Matrices with zero rows, full column rank, an empty row list, and a kernel vector whose lead is -1.

    Over Q some entries are Fractions; over GF(p) large ints stand for their residues.
    """
    mats = [Matrix(field, [[0, 0, 0]]), Matrix(field, [[1, 0], [0, 1]]), Matrix(field, [[1, 1]]),
            Matrix(field, (), ncols=3)]
    for _ in range(80):
        nr, nc = rng.randint(1, 5), rng.randint(1, 6)
        rows = []
        for _ in range(nr):
            if rng.random() < 0.2:
                rows.append([0] * nc)
                continue
            row = [rng.choice((0, 0, 1, rng.randint(-9, 9), rng.randint(-(10**12), 10**12))) for _ in range(nc)]
            if not field.char and rng.random() < 0.3:
                row[rng.randrange(nc)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            rows.append(row)
        mats.append(Matrix(field, rows))
    return mats


class TestKernelOracle:
    """Differential test: Matrix.kernel on residues against the back-substitution on field scalars."""

    @pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
    def test_matches_the_scalar_back_substitution(self, field):
        seen = set()
        for mat in seeded_matrices(field, random.Random(31 + field.char)):
            got = mat.kernel()
            assert got == oracles.scalar_kernel(mat), mat.rows
            assert {type(x) for v in got for x in v} <= {type(field.zero)}
            assert len(got) == mat.ncols - mat.rank()
            assert all(not any(oracles.mul_vec(mat, v)) for v in got), mat.rows
            pivots = _echelon(field, mat.rows)[1]
            free = [c for c in range(mat.ncols) if c not in pivots]
            for f, v in zip(free, got):
                assert next(x for x in v if x) == field(1)
                if v[f] != field(1):  # the raw lead was a pivot entry
                    seen.add("lead")
            seen.update({"zero row"} if any(not any(r) for r in mat.rows) else ())
            seen.update(() if got else {"empty kernel"})
        assert seen == {"zero row", "empty kernel"} | ({"lead"} if field.char != 2 else set())


class TestDivisibility:
    def test_square_divides(self):
        a = LinearForm2(QQ, 1, 1)
        mat = divisibility_constraints(a, 2, 2)
        assert mat.nrows == 2 and mat.ncols == 3
        p = BinaryForm(QQ, 2, (1, 2, 1))
        assert all(x == 0 for x in oracles.mul_vec(mat, p.coeffs))
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
            p = oracles.mul(oracles.power(alpha, k), rest)
        else:
            p = BinaryForm(field, d, coeffs[: d + 1])
        mat = divisibility_constraints(alpha, k, d)
        in_kernel = not any(oracles.mul_vec(mat, p.coeffs))
        assert in_kernel == binary_form_divides(alpha, k, p)

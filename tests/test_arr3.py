"""Coning, intersection lattices, restrictions and freeness tests."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multiarr import arr3
from multiarr.arr3 import (
    AffineArrangement2,
    Arrangement3,
    CharPoly,
    LinearForm3,
    chamber_count,
    char_poly,
    cone,
    decone,
    intersection_lattice,
    is_free,
    pb3_membership,
    thm_fc_check,
    thm_rest2_check,
    thm_rest_check,
    ziegler_restriction,
)
from multiarr.corpus import arrangement
from multiarr.exactalg import GF, QQ, Matrix, canonical_coefficients
from multiarr.multiarr2 import exponents, is_balanced
from oracles import canonical_coefficients as oracle_canonical_coefficients
from oracles import int_path_failures
from oracles import scalar, scalar_affine_points, scalar_decone, sweep_chamber_count


# --- independent oracles ---------------------------------------------------


def division_size(arr):
    """|A^H| of a restriction meeting Abe's division condition, or None.

    Abe's division theorem (Invent. Math. 204, 2016): if chi(A^H; t) =
    (t - 1)(t - |A^H| + 1) divides chi(A; t), then A is free with exponents
    (1, |A^H| - 1, h - |A^H|).  Both share the root 1, so the test is on
    q = chi(A; t) / (t - 1), not on chi.
    """
    lattice = intersection_lattice(arr)
    c1, c2 = lattice.char_poly().quadratic_coeffs()
    q = CharPoly((1, -c1, c2))
    sizes = sorted({sum(i in f.hyperplanes for f in lattice.rank2) for i in range(arr.h)})
    return next((n for n in sizes if q(n - 1) == 0), None)


def oracle_rank(rows):
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


def whitney_central(forms):
    """chi via the subset sum: (-1)^|B| t^dim(intersection of B)."""
    coeffs = [0, 0, 0, 0]  # of t^3, t^2, t, 1
    n = len(forms)
    for r in range(n + 1):
        for sub in combinations(range(n), r):
            rank = oracle_rank([forms[i] for i in sub]) if sub else 0
            coeffs[rank] += (-1) ** r
    return tuple(coeffs)


def whitney_affine(lines):
    """Affine subset sum, restricted to subsets with a common point."""
    coeffs = [0, 0, 0]  # of t^2, t, 1
    n = len(lines)
    for r in range(n + 1):
        for sub in combinations(range(n), r):
            rows = [lines[i] for i in sub]
            hom = oracle_rank([row[:2] for row in rows]) if rows else 0
            full = oracle_rank(rows) if rows else 0
            if hom != full:
                continue  # inconsistent: empty intersection
            coeffs[hom] += (-1) ** r
    return tuple(coeffs)


def central_coeff_triples(arr):
    return [[Fraction(c) for c in f.coeffs] for f in arr.forms]


def affine_coeff_triples(aff):
    return [[Fraction(l.a), Fraction(l.b), Fraction(l.c)] for l in aff.forms]


def cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def ranked(n):
    """0, 1, -1, ..., n, -n."""
    yield 0
    for c in range(1, n + 1):
        yield from (c, -c)


def shell_vectors(limit):
    """Integer vectors by max-norm 1..limit; each shell runs z, y, x through ranked."""
    for n in range(1, limit + 1):
        for z in ranked(n):
            for y in ranked(n):
                yield from ((x, y, z) for x in (ranked(n) if n in (abs(y), abs(z)) else (n, -n)))


def shell_rank(v):
    """Position of v in the order of shell_vectors, as a sortable tuple."""
    n = max(map(abs, v))
    order = list(ranked(n))
    return (n, *(order.index(c) for c in reversed(v)))


def residue(x, p):
    return x % p if p else x


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def search_frame(alpha, limit):
    """The bounded frame search, in shell order: the first two independent
    vectors with alpha = 0, or None when they need a max-norm above limit.
    The pivot k of the closed form (alpha's first nonzero index) comes last."""
    p, a = alpha.field.char, alpha.ints
    u1 = None
    for v in shell_vectors(limit):
        if not residue(dot(a, v), p):
            if u1 is None:
                u1 = v
            elif any(residue(c, p) for c in cross(u1, v)):
                return u1, v, next(i for i, c in enumerate(a) if c)
    return None


def assert_valid_frame(alpha, frame):
    """u1 and u2 are int vectors spanning alpha = 0, and a_k is alpha's first nonzero coefficient."""
    u1, u2, k = frame
    p, a = alpha.field.char, alpha.ints
    assert all(type(c) is int for c in u1 + u2)
    assert not residue(dot(a, u1), p) and not residue(dot(a, u2), p)
    assert any(residue(c, p) for c in cross(u1, u2))
    assert residue(a[k], p) and not any(residue(c, p) for c in a[:k])


# --- tests ------------------------------------------------------------------


class TestConeDecone:
    def test_single_line(self):
        aff = AffineArrangement2(QQ, [(1, 0, 0)])  # x = 0
        arr, h0 = cone(aff)
        assert arr.h == 2 and h0 == 1
        assert arr.forms[0].coeffs == (1, 0, 0)
        assert arr.forms[1].coeffs == (0, 0, 1)
        assert decone(arr, h0) == aff

    def test_translated_line(self):
        aff = AffineArrangement2(QQ, [(1, 0, 1)])  # x = 1
        arr, h0 = cone(aff)
        assert arr.forms[0].coeffs == (1, 0, -1)
        assert decone(arr, h0) == aff

    def test_round_trip_corpus(self):
        for aff in map(arrangement, ("braid_deconing", "b2_deform_a", "b2_deform_b", "generic5_lines")):
            arr, h0 = cone(aff)
            assert arr.h == aff.k + 1
            assert decone(arr, h0) == aff

    def test_braid_deconed(self):
        lines = decone(arrangement("braid3"), 2).forms  # view from z
        rendered = {l.render() for l in lines}
        assert rendered == {"x = 0", "y = 0", "x - y = 0", "x = 1", "y = 1"}

    def test_h0_out_of_range(self):
        with pytest.raises(ValueError):
            decone(arrangement("boolean3"), 5)


class TestIntersectionLattice:
    def test_boolean(self):
        lat = intersection_lattice(arrangement("boolean3"))
        assert len(lat.rank2) == 3
        assert all(f.mu == 1 for f in lat.rank2)
        assert lat.origin_mu == -1

    def test_braid_flats(self):
        lat = intersection_lattice(arrangement("braid3"))
        mus = sorted(f.mu for f in lat.rank2)
        assert mus == [1, 1, 1, 2, 2, 2, 2]  # 3 double points, 4 triple points
        assert lat.origin_mu == -6

    def test_generic4(self):
        lat = intersection_lattice(arrangement("generic4"))
        assert len(lat.rank2) == 6
        assert all(f.mu == 1 for f in lat.rank2)
        assert lat.origin_mu == -3

    def test_rank_deficient(self):
        arr = Arrangement3(QQ, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
        lat = intersection_lattice(arr)
        assert lat.origin_mu is None
        assert len(lat.rank2) == 1 and lat.rank2[0].mu == 2

    @settings(max_examples=300, deadline=None)
    @given(
        p=st.sampled_from([0, 2, 3, 5, 7]),
        gens=st.lists(st.tuples(*[st.integers(-4, 4)] * 3), min_size=3, max_size=3),
        combos=st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=1, max_size=7),
        pencil=st.booleans(),
    )
    def test_origin_is_a_flat_iff_the_normals_have_rank_three(self, p, gens, combos, pencil):
        # normals are combinations of three generators; a pencil uses only two
        field = QQ if p == 0 else GF(p)
        normals = [
            tuple(a * u + b * v + (0 if pencil else c) * w for u, v, w in zip(*gens))
            for a, b, c in combos
        ]
        forms = {}
        for n in normals:
            if any(field(x) for x in n):
                forms.setdefault(canonical_coefficients(field, n), n)
        if not forms:
            return
        arr = Arrangement3(field, list(forms.values()))
        rank = Matrix(field, [f.ints for f in arr.forms]).rank()
        lat = intersection_lattice(arr)
        assert (lat.origin_mu is not None) == (rank == 3)
        if pencil:
            assert lat.origin_mu is None


class TestCharPoly:
    def test_boolean_cube(self):
        assert char_poly(arrangement("boolean3")).coeffs == (1, -3, 3, -1)

    def test_braid(self):
        cp = char_poly(arrangement("braid3"))
        assert cp.coeffs == (1, -6, 11, -6)
        assert cp.quadratic_coeffs() == (5, 6)

    def test_generic4(self):
        cp = char_poly(arrangement("generic4"))
        assert cp.coeffs == (1, -4, 6, -3)
        assert cp.quadratic_coeffs() == (3, 3)

    def test_quadratic_coeffs_needs_the_root_one(self):
        with pytest.raises(ValueError, match="does not divide"):
            CharPoly((1, 0, 0, 1)).quadratic_coeffs()
        with pytest.raises(ValueError, match="cubics"):
            CharPoly((1, -1)).quadratic_coeffs()

    def test_whitney_oracle_central(self):
        for arr in map(arrangement, ("boolean3", "braid3", "generic4", "near_pencil5")):
            w = whitney_central(central_coeff_triples(arr))
            got = char_poly(arr)
            # oracle stores the coefficient of t^dim = t^(3-rank)
            assert got.coeffs == (w[0], w[1], w[2], w[3])

    def test_whitney_oracle_affine(self):
        for aff in map(arrangement, ("braid_deconing", "b2_deform_a", "b2_deform_b", "generic5_lines")):
            w = whitney_affine(affine_coeff_triples(aff))
            assert char_poly(aff).coeffs == w

    def test_coning_factorisation(self):
        t1 = CharPoly((1, -1))
        for aff in (
            arrangement("braid_deconing"),
            arrangement("b2_deform_a"),
            arrangement("b2_deform_b"),
            arrangement("generic5_lines"),
            decone(arrangement("boolean3"), 0),
        ):
            arr, _ = cone(aff)
            assert char_poly(arr).coeffs == (t1 * char_poly(aff)).coeffs

    def test_integer_roots(self):
        assert CharPoly((1, -5, 6)).integer_roots_quadratic() == (2, 3)
        assert CharPoly((1, -3, 3)).integer_roots_quadratic() is None
        assert CharPoly((1, -6, 9)).integer_roots_quadratic() == (3, 3)


class TestZieglerRestriction:
    def test_braid_onto_z(self):
        restricted, mult = ziegler_restriction(arrangement("braid3"), 2)
        assert [f.render() for f in restricted.forms] == ["x1", "x2", "x1 - x2"]
        assert mult == (2, 2, 1)

    def test_boolean(self):
        restricted, mult = ziegler_restriction(arrangement("boolean3"), 2)
        assert restricted.h == 2 and mult == (1, 1)

    def test_generic_no_coincidences(self):
        restricted, mult = ziegler_restriction(arrangement("generic4"), 3)
        assert restricted.h == 3 and mult == (1, 1, 1)

    def test_multiplicity_sum_rule(self):
        for arr in map(arrangement, ("braid3", "boolean3", "generic4", "near_pencil5")):
            for h0 in range(arr.h):
                _, mult = ziegler_restriction(arr, h0)
                assert sum(mult) == arr.h - 1

    def test_near_pencil_unbalanced(self):
        restricted, mult = ziegler_restriction(arrangement("near_pencil5"), 0)
        assert not is_balanced(restricted, mult)


FRAME_FIELDS = (QQ, GF(2), GF(3), GF(7), GF(2**31 - 1))
SEARCH_LIMIT = 64  # the max-norm bound the frame search ran with


@st.composite
def random_arrangements(draw):
    """Central 3-arrangements of 2 to 8 planes with coefficients of at most 9."""
    field = draw(st.sampled_from(FRAME_FIELDS))
    coeffs = st.tuples(*[st.integers(-9, 9)] * 3).filter(lambda c: any(field(x) for x in c))
    forms = {}
    for c in draw(st.lists(coeffs, min_size=2, max_size=8)):
        forms.setdefault(canonical_coefficients(field, c), c)
    assume(len(forms) >= 2)
    return Arrangement3(field, list(forms.values()))


def restriction_summary(arr, h0):
    """What the restriction onto h0 decides, which no choice of frame may change."""
    restricted, mult = ziegler_restriction(arr, h0)
    v = is_free(arr, h0)
    return mult, exponents(restricted, mult).pair, v.free, v.exponents, v.coker_dim


class TestPlaneFrame:
    """The closed-form frame against the bounded search it replaced."""

    def test_shell_key_sorts_the_search_order(self):
        vectors = [v for v in product(range(-6, 7), repeat=3) if any(v)]
        assert list(shell_vectors(6)) == sorted(vectors, key=arr3._shell_key)

    @pytest.mark.parametrize("field", FRAME_FIELDS, ids=repr)
    def test_frames_of_small_planes_are_valid(self, field):
        coeffs = product(range(-9, 10), repeat=3)
        for alpha in {LinearForm3(field, *c) for c in coeffs if any(field(x) for x in c)}:
            assert_valid_frame(alpha, arr3._plane_frame(alpha))

    def test_rational_frames_take_the_first_sign_and_order(self):
        # of u and -u the one with its last nonzero entry positive, u1 before u2
        for c in product(range(-9, 10), repeat=3):
            if any(c):
                u1, u2, _ = arr3._plane_frame(LinearForm3(QQ, *c))
                assert shell_rank(u1) < shell_rank(u2)
                for u in (u1, u2):
                    assert shell_rank(u) < shell_rank(tuple(-x for x in u))

    @settings(max_examples=200, deadline=None)
    @given(field=st.sampled_from(FRAME_FIELDS), c=st.tuples(*[st.integers(-10**30, 10**30)] * 3))
    def test_frames_of_large_planes_are_valid(self, field, c):
        assume(any(field(x) for x in c))
        alpha = LinearForm3(field, *c)
        assert_valid_frame(alpha, arr3._plane_frame(alpha))

    def test_int_rounding_matches_fraction_round(self):
        """The Lagrange step rounds n / d on ints as round(Fraction(n, d)) does, ties to even."""
        rng = random.Random(11)
        cases = [(n, d) for d in range(1, 13) for n in range(-40, 41)]  # every tie for even d, odd and even q
        cases += [(rng.randint(-(10**40), 10**40), rng.randint(1, 10**20)) for _ in range(2000)]
        cases += [((2 * q + 1) * d, 2 * d) for q in range(-50, 50) for d in (1, 7, 10**25 + 3)]  # exact ties
        for n, d in cases:
            assert arr3._round_ratio(n, d) == round(Fraction(n, d)), (n, d)
        assert {n // d % 2 for n, d in cases if 2 * (n % d) == d} == {0, 1}  # ties above even and odd floors

    def test_corpus_restrictions_match_the_search(self, monkeypatch):
        arrangements = list(map(arrangement, ("braid3", "boolean3", "generic4", "near_pencil5")))
        for aff in map(arrangement, ("braid_deconing", "b2_deform_a", "b2_deform_b", "generic5_lines")):
            arrangements.append(cone(aff)[0])
        closed = [ziegler_restriction(arr, h0)[0] for arr in arrangements for h0 in range(arr.h)]
        monkeypatch.setattr(arr3, "_plane_frame", lambda alpha: search_frame(alpha, SEARCH_LIMIT))
        searched = [ziegler_restriction(arr, h0)[0] for arr in arrangements for h0 in range(arr.h)]
        assert len(closed) == 43 and closed == searched

    @settings(max_examples=60, deadline=None)
    @given(random_arrangements())
    def test_random_restrictions_agree_with_the_search(self, arr):
        for h0 in range(arr.h):
            closed = restriction_summary(arr, h0)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(arr3, "_plane_frame", lambda alpha: search_frame(alpha, SEARCH_LIMIT))
                searched = restriction_summary(arr, h0)
            assert closed == searched


class TestLatticeOracle:
    """The int path of arr3 against the routes keyed by canonical field scalars and by LinearForm2."""

    @settings(max_examples=200, deadline=None)
    @given(random_arrangements())
    def test_rank2_flats_match_the_scalar_keys(self, arr):
        # and the affine points, chi and the restriction at every H0
        assert int_path_failures(arr) == []

    @pytest.mark.parametrize("field", FRAME_FIELDS, ids=repr)
    def test_large_and_reducible_coefficients_match_the_oracles(self, field):
        # entries up to 10^12, negative leads, and entries that are multiples of p (0 over Q)
        rng = random.Random(28 + field.char)
        p = field.char
        entries = (
            lambda: rng.randint(-(10**12), 10**12),
            lambda: rng.randint(-3, 3) * p,
            lambda: -rng.randint(1, 10**12),
            lambda: rng.randint(-9, 9),
        )
        for _ in range(40):
            forms = {}
            for _ in range(rng.randint(2, 8)):
                c = [rng.choice(entries)() for _ in range(3)]
                if any(field(x) for x in c):
                    forms.setdefault(canonical_coefficients(field, c), c)
            if len(forms) >= 2:
                assert int_path_failures(Arrangement3(field, list(forms.values()))) == []


def seeded_central(field, rng, count=120):
    """Central arrangements of 2 to 8 planes with coefficients of at most 9 (GF(2) has 7 planes in all)."""
    out = []
    while len(out) < count:
        forms = {}
        for _ in range(rng.randint(2, 8)):
            c = [rng.randint(-9, 9) for _ in range(3)]
            if any(field(x) for x in c):
                forms.setdefault(canonical_coefficients(field, c), c)
        if len(forms) >= 2:
            out.append(Arrangement3(field, list(forms.values())))
    return out


def seeded_affine(field, rng, count=120):
    """Up to 7 affine lines with coefficients of at most 3: parallels and concurrences are common."""
    out = []
    for _ in range(count):
        lines = {}
        for _ in range(rng.randint(0, 7)):
            c = [rng.randint(-3, 3) for _ in range(3)]
            if any(field(x) for x in c[:2]):
                lines.setdefault(canonical_coefficients(field, c), c)
        out.append(AffineArrangement2(field, list(lines.values())))
    return out


def assert_affine_matches_scalars(aff):
    """Points, Moebius values, chi and real chambers of aff against the field-division route."""
    field = aff.field
    want = scalar_affine_points(aff)
    poset = arr3.affine_poset(aff)
    got = {}
    for (x, y, z), members, mu in poset.points:
        assert mu == len(members) - 1
        got[scalar(field, x) / field(z), scalar(field, y) / field(z)] = members
    assert got == want, aff
    chi = (1, -aff.k, sum(len(ms) - 1 for ms in want.values()))
    assert char_poly(aff).coeffs == poset.char_poly().coeffs == chi, aff
    if not field.char:
        assert chamber_count(aff) == CharPoly(chi)(-1), aff


@pytest.mark.parametrize("field", FRAME_FIELDS, ids=repr)
class TestScalarOracles:
    """Deconing and affine points on ints against the field-scalar routes they replaced."""

    def test_every_deconing_matches_the_scalar_chart(self, field):
        rng = random.Random(24 + field.char)
        t1 = CharPoly((1, -1))
        for arr in seeded_central(field, rng):
            chi = char_poly(arr).coeffs
            for h0 in range(arr.h):
                aff = decone(arr, h0)
                assert aff == scalar_decone(arr, h0), (arr, h0)
                assert_affine_matches_scalars(aff)
                assert chi == (t1 * char_poly(aff)).coeffs, (arr, h0)

    def test_affine_points_match_field_division(self, field):
        rng = random.Random(42 + field.char)
        for aff in seeded_affine(field, rng):
            assert_affine_matches_scalars(aff)
            if not field.char:
                assert chamber_count(aff) == sweep_chamber_count(f.ints for f in aff.forms), aff
            arr, h0 = cone(aff)
            assert decone(arr, h0) == scalar_decone(arr, h0) == aff


class TestFreeness:
    def test_coker_values(self):
        assert is_free(arrangement("braid3"), 0).coker_dim == 0
        assert is_free(arrangement("generic4"), 0).coker_dim == 1
        assert is_free(arrangement("boolean3"), 0).coker_dim == 0

    def test_braid(self):
        v = is_free(arrangement("braid3"))
        assert v.free and v.exponents == (1, 2, 3) and v.coker_dim == 0
        assert v.combinatorial and v.rule == "fc"

    def test_generic4(self):
        v = is_free(arrangement("generic4"))
        assert not v.free and v.coker_dim == 1 and v.exponents is None
        assert v.combinatorial and v.rule == "A2"  # 3-line restriction

    def test_boolean(self):
        v = is_free(arrangement("boolean3"))
        assert v.free and v.exponents == (1, 1, 1)

    def test_near_pencil_rule(self):
        v = is_free(arrangement("near_pencil5"))
        assert v.rule == "nb" and v.combinatorial
        # pencil of 4 planes plus a transversal one is free: exp (1, 1, 3)
        assert v.free and v.exponents == (1, 1, 3)

    def test_h0_independence(self):
        for arr in map(arrangement, ("braid3", "generic4", "boolean3", "near_pencil5")):
            verdicts = [is_free(arr, h0) for h0 in range(arr.h)]
            assert len({(v.free, v.exponents) for v in verdicts}) == 1

    def test_terao_factorisation_direction(self):
        for arr in map(arrangement, ("braid3", "boolean3", "near_pencil5")):
            v = is_free(arr)
            if not v.free:
                continue
            _, d1, d2 = v.exponents
            want = CharPoly((1, -1)) * CharPoly((1, -d1)) * CharPoly((1, -d2))
            assert char_poly(arr).coeffs == want.coeffs

    def test_single_plane(self):
        v = is_free(Arrangement3(QQ, [(1, 0, 0)]))
        assert v.free and v.exponents == (0, 0, 1)  # ascending, as every free verdict

    def test_h0_out_of_range(self):
        for arr in (Arrangement3(QQ, [(1, 0, 0)]), arrangement("braid3")):
            with pytest.raises(ValueError, match=rf"h0 index {arr.h} out of range \(0\.\.{arr.h - 1}\)"):
                is_free(arr, arr.h)
            with pytest.raises(ValueError, match="out of range"):
                is_free(arr, -1)

    def test_abe_division_oracle(self):
        rng = random.Random(2016)
        met = 0
        for _ in range(300):
            forms = {}
            for _ in range(rng.randint(2, 8)):
                c = [rng.randint(-2, 2) for _ in range(3)]
                if any(c):
                    forms.setdefault(canonical_coefficients(QQ, c), c)
            if len(forms) < 2:
                continue
            arr = Arrangement3(QQ, list(forms.values()))
            n = division_size(arr)
            if n is None:
                continue
            met += 1
            v = is_free(arr)
            assert v.free and v.exponents == tuple(sorted((1, n - 1, arr.h - n))), arr
        assert met >= 50

    def test_fc_rule_and_chamber_equality_oracle(self):
        # The paper's product-shape rule (thm_fc_check) and the equality case of
        # its chamber bound (thm_rest2_check) both declare the cone free.  The
        # two agree, since chambers = chi(-1) = 1 + k + c2, and is_free at
        # another H0 and Abe's division theorem check them from outside.  The
        # rule applies often at coefficient bounds 1 to 3 and seldom at 30.
        rng = random.Random(1989)
        applies = 0
        for bound in (1, 2, 3, 30):
            for _ in range(75):
                k, lines = rng.randint(3, 7), {}
                while len(lines) < k:
                    c = [rng.randint(-bound, bound) for _ in range(3)]
                    if any(c[:2]):
                        lines.setdefault(canonical_coefficients(QQ, c), c)
                aff = AffineArrangement2(QQ, list(lines.values()))
                arr = cone(aff)[0]
                v = is_free(arr)
                fc, r2 = thm_fc_check(aff), thm_rest2_check(aff)
                if fc.applies:
                    applies += 1
                    gap = fc.h - 2 if fc.case == 1 else fc.h - 3
                    assert v.free and v.exponents == tuple(sorted((1, fc.d, fc.d + gap))), aff
                if r2.applicable:
                    assert fc.applies == r2.equality, aff
                if r2.equality:
                    assert r2.freeness_confirmed == v.free, aff
                n = division_size(arr)
                if n is not None:
                    assert v.free and v.exponents == tuple(sorted((1, n - 1, arr.h - n))), aff
        assert applies >= 12

    def test_four_line_even_rule(self):
        # 4-line restriction of an even arrangement is combinatorial even
        # when the product-shape test does not apply
        aff = AffineArrangement2(
            QQ,
            [(1, 0, 0), (0, 1, 0), (1, -1, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, -1, 1)],
        )
        assert char_poly(aff).integer_roots_quadratic() is None
        arr, h0 = cone(aff)
        v = is_free(arr, h0)
        assert not v.free and v.coker_dim == 1
        assert v.combinatorial and v.rule == "four"

    def test_four_line_even_rule_fc_priority(self):
        arr, h0 = cone(arrangement("b2_deform_a"))
        v = is_free(arr, h0)
        assert v.free and v.exponents == (1, 2, 3)
        assert v.ziegler[0].h == 4 and arr.h % 2 == 0
        assert v.combinatorial and v.rule == "fc"


class TestFcCheck:
    def test_braid_deconing_applies(self):
        rep = thm_fc_check(arrangement("braid_deconing"))
        assert rep.applies and rep.free
        assert rep.h == 3 and rep.case == 1 and rep.d == 2

    def test_deformation_case2(self):
        # five lines: x, y, x-y, x+y, x=1; chi = (t-2)(t-3) with h = 4
        rep = thm_fc_check(arrangement("b2_deform_a"))
        assert rep.applies and rep.free
        assert rep.h == 4 and rep.case == 2 and rep.d == 2

    def test_generic4_not_applicable(self):
        rep = thm_fc_check(decone(arrangement("generic4"), 0))
        assert not rep.applies
        assert "factor" in rep.reason

    def test_unbalanced_gate(self):
        # four parallels to x plus two more directions: restriction (4, 1, 1)
        aff = AffineArrangement2(
            QQ, [(1, 0, 0), (1, 0, 1), (1, 0, 2), (1, 0, 3), (0, 1, 0), (1, -1, 0)]
        )
        rep = thm_fc_check(aff)
        assert not rep.applies
        assert "unbalanced" in rep.reason

    def test_deformation_b_square_shape(self):
        # chi = (t-3)^2 matches neither product shape
        rep = thm_fc_check(arrangement("b2_deform_b"))
        assert not rep.applies


class TestRestBounds:
    def test_braid_deconing(self):
        rep = thm_rest_check(arrangement("braid_deconing"))
        assert rep.applicable and rep.passed
        assert rep.roots == (2, 3) and rep.case == 1 and rep.d == 2

    def test_boolean_gate(self):
        rep = thm_rest_check(decone(arrangement("boolean3"), 2))
        assert not rep.applicable
        assert "h = 2" in rep.reason

    def test_deformation_b_bounds(self):
        rep = thm_rest_check(arrangement("b2_deform_b"))
        assert rep.applicable and rep.passed
        assert rep.roots == (3, 3) and rep.case == 1 and rep.d == 2

    def test_non_split_gate(self):
        rep = thm_rest_check(arrangement("generic5_lines"))
        assert not rep.applicable
        assert "split" in rep.reason


class TestChambers:
    def test_tiny_cases(self):
        one = AffineArrangement2(QQ, [(1, 0, 0)])
        assert chamber_count(one) == 2
        two = AffineArrangement2(QQ, [(1, 0, 0), (0, 1, 0)])
        assert chamber_count(two) == 4
        parallel = AffineArrangement2(QQ, [(1, 0, 0), (1, 0, 1)])
        assert chamber_count(parallel) == 3

    def test_braid_deconing_twelve(self):
        assert chamber_count(arrangement("braid_deconing")) == 12

    def test_oracle_agreement_corpus(self):
        for aff in map(arrangement, ("b2_deform_a", "b2_deform_b", "generic5_lines")):
            assert chamber_count(aff) == sweep_chamber_count(f.ints for f in aff.forms)

    def test_empty_plane(self):
        assert chamber_count(AffineArrangement2(QQ, [])) == 1

    def test_sweep_oracle_agreement(self):
        # seeded lines a*x + b*y = c with |a|, |b|, |c| <= 3: parallels and concurrences are common
        rng = random.Random(7)
        parallels = concurrences = 0
        for _ in range(400):
            lines = {}
            for _ in range(rng.randint(0, 7)):
                abc = (rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
                if abc[:2] != (0, 0):
                    lines.setdefault(oracle_canonical_coefficients(QQ, abc), abc)
            aff = AffineArrangement2(QQ, list(lines.values()))
            assert chamber_count(aff) == sweep_chamber_count(f.ints for f in aff.forms), aff
            points = arr3.affine_poset(aff).points
            parallels += sum(len(ms) * (len(ms) - 1) for _, ms, _ in points) < aff.k * (aff.k - 1)
            concurrences += any(len(ms) > 2 for _, ms, _ in points)
        assert min(parallels, concurrences) > 40


class TestRest2:
    def test_braid_equality_confirms_freeness(self):
        rep = thm_rest2_check(arrangement("braid_deconing"))
        assert rep.applicable and rep.passed
        assert rep.chambers == 12 and rep.bound == 12
        assert rep.equality and rep.freeness_confirmed

    def test_generic5_strict(self):
        rep = thm_rest2_check(arrangement("generic5_lines"))
        assert rep.applicable and rep.passed
        assert rep.chambers > rep.bound
        assert not rep.equality and rep.freeness_confirmed is None

    def test_gate(self):
        rep = thm_rest2_check(decone(arrangement("boolean3"), 0))
        assert not rep.applicable

    @pytest.mark.parametrize(
        "name, fields, posets",
        [
            ("braid_deconing", dict(applicable=True, reason="hypotheses hold", case=1, d=2, chambers=12,
                                    bound=12, c2_ok=True, equality=True, freeness_confirmed=True), 0),
            ("generic5_lines", dict(applicable=True, reason="hypotheses hold", case=1, d=1, chambers=16,
                                    bound=10, c2_ok=True, equality=False, freeness_confirmed=None), 0),
            ("decone(boolean3, 0)", dict(applicable=False, reason="restriction has h = 2 <= 2"), 0),
        ],
        ids=["braid_deconing", "generic5_lines", "decone_boolean3"],
    )
    def test_one_affine_poset_per_check(self, monkeypatch, name, fields, posets):
        aff = decone(arrangement("boolean3"), 0) if name.startswith("decone") else arrangement(name)
        calls, restrictions = [], []
        real, restrict = arr3.affine_poset, arr3.ziegler_restriction
        monkeypatch.setattr(arr3, "affine_poset", lambda a: calls.append(a) or real(a))
        monkeypatch.setattr(arr3, "ziegler_restriction", lambda *a: restrictions.append(a) or restrict(*a))
        assert thm_rest2_check(aff) == arr3.Rest2Report(**fields)
        assert len(calls) == posets
        assert len(restrictions) == 1  # the equality case reuses the restriction onto the infinite plane


class TestPb3:
    def test_braid_member(self):
        rep = pb3_membership(arrangement("braid3"))
        assert rep.member and rep.roots == (2, 3)
        assert rep.witness_h0 == 0

    def test_near_pencil_not_member(self):
        rep = pb3_membership(arrangement("near_pencil5"))
        assert not rep.member and rep.unbalanced_h0 is not None

    def test_generic4_not_member(self):
        rep = pb3_membership(arrangement("generic4"))
        assert not rep.member and "split" in rep.reason

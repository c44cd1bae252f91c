"""Central 3-arrangements, affine line arrangements, and freeness tests.

The bridge between dimensions: a central 3-arrangement is the cone of an
affine 2-arrangement, its restriction onto a chosen hyperplane (with
multiplicities counting coincidences) is a 2-multiarrangement, and
freeness reduces to comparing the quadratic factor of the characteristic
polynomial with the product of the restriction's exponents.  Everything
combinatorial (intersection lattices, Moebius values, characteristic
polynomials, chamber counts) is computed exactly, on the canonical int
vectors of the forms: one pass over the plane pairs finds the rank-2 flats
and the affine points, :func:`char_poly` (the one characteristic
polynomial) sums their Moebius values as found, and only the published
lattice sorts them.  The restriction groups its rows by their canonical
int pairs.  No linear system is solved: ``exactalg.Matrix`` has no caller
in the library, and is kept for the benchmark's tracer and as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exactalg import (
    CanonicalForm,
    FormTuple,
    _canonical_ints,
    _render_terms,
    char_warning,
)
from .multiarr2 import Arrangement2, exponents, is_balanced

__all__ = [
    "LinearForm3",
    "Arrangement3",
    "AffineLine",
    "AffineArrangement2",
    "CharPoly",
    "CentralLattice3",
    "Rank2Flat",
    "FreenessVerdict",
    "FcReport",
    "RestReport",
    "Rest2Report",
    "Pb3Report",
    "cone",
    "decone",
    "intersection_lattice",
    "char_poly",
    "ziegler_restriction",
    "is_free",
    "thm_fc_check",
    "thm_rest_check",
    "thm_rest2_check",
    "chamber_count",
    "pb3_membership",
]


class LinearForm3(CanonicalForm):
    """A nonzero linear form a*x + b*y + c*z, stored in canonical scaling."""

    __slots__ = ()
    names = ("x", "y", "z")

    def __init__(self, field, a, b, c):
        super().__init__(field, (a, b, c))


class Arrangement3(FormTuple):
    """A central arrangement of pairwise non-proportional planes through 0."""

    __slots__ = ()
    form_type = LinearForm3
    duplicate_error = "planes must be pairwise non-proportional"


class AffineLine(CanonicalForm):
    """The affine line a*x + b*y = c with (a, b) != 0, canonically scaled."""

    __slots__ = ()
    a = property(lambda self: self.coeffs[0])
    b = property(lambda self: self.coeffs[1])
    c = property(lambda self: self.coeffs[2])

    def __init__(self, field, a, b, c):
        if not field(a) and not field(b):
            raise ValueError("line needs a nonzero direction part")
        super().__init__(field, (a, b, c))

    def render(self) -> str:
        lhs = _render_terms([(self.field.format(self.a), "x"), (self.field.format(self.b), "y")])
        return f"{lhs} = {self.field.format(self.c)}"


class AffineArrangement2(FormTuple):
    """A finite set of pairwise distinct affine lines (possibly empty)."""

    __slots__ = ()
    form_type = AffineLine
    allow_empty = True
    duplicate_error = "lines must be pairwise distinct"

    @property
    def k(self) -> int:
        return len(self.forms)


# ---------------------------------------------------------------------------
# characteristic polynomials


@dataclass(frozen=True)
class CharPoly:
    """A monic integer polynomial, coefficients stored leading-first."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(int(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", cs)
        if not cs or cs[0] != 1:
            raise ValueError("characteristic polynomials are monic")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, t: int) -> int:
        out = 0
        for c in self.coeffs:
            out = out * t + c
        return out

    def quotient_by_root(self, r: int):
        """Exact synthetic division by (t - r); None if r is not a root."""
        out = []
        acc = 0
        for c in self.coeffs:
            acc = acc * r + c
            out.append(acc)
        if out[-1] != 0:
            return None
        return CharPoly(tuple(out[:-1]))

    def quadratic_coeffs(self):
        """Write a cubic as (t - 1)(t^2 - c1 t + c2) and return (c1, c2)."""
        if self.degree != 3:
            raise ValueError("quadratic part is defined for cubics")
        q = self.quotient_by_root(1)
        if q is None:
            raise ValueError("(t - 1) does not divide this cubic, so no central arrangement has it")
        return (-q.coeffs[1], q.coeffs[2])

    def integer_roots_quadratic(self):
        """Sorted integer roots (a, b) of a monic quadratic, or None."""
        if self.degree != 2:
            raise ValueError("expected a quadratic")
        _, b, c = self.coeffs
        disc = b * b - 4 * c
        if disc < 0:
            return None
        s = math.isqrt(disc)
        if s * s != disc:
            return None
        return tuple(sorted(((-b - s) // 2, (-b + s) // 2)))

    def __mul__(self, other: "CharPoly") -> "CharPoly":
        out = [0] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return CharPoly(tuple(out))

    def __str__(self):
        monos = ("" if p == 0 else "t" if p == 1 else f"t^{p}" for p in range(self.degree, -1, -1))
        return _render_terms(zip(map(str, self.coeffs), monos))


# ---------------------------------------------------------------------------
# intersection data


@dataclass(frozen=True)
class Rank2Flat:
    direction: tuple  # canonical int vector spanning the line (see canonical_coefficients)
    hyperplanes: tuple  # sorted indices of planes containing it
    mu: int


@dataclass(frozen=True)
class CentralLattice3:
    arrangement: Arrangement3
    rank2: tuple  # Rank2Flat, deterministic order
    origin_mu: int | None  # None when the arrangement has rank < 3


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _meets(p: int, normals) -> list:
    """Each line where two or more of the planes with these int normals meet, over Q (p = 0) or GF(p).

    Returns (canonical int direction, ascending plane indices, mu) triples
    in no set order; a line in n planes has mu = n - 1.  Each pair i < j
    of normals gives its line as the canonical cross product.  Pairs run
    in i < j order, so a line is first met by the pair of its two smallest
    members, and only the later pairs of its smallest member add to it.
    """
    lines: dict = {}
    for i, u in enumerate(normals):
        for j in range(i + 1, len(normals)):
            key = _canonical_ints(p, _cross(u, normals[j]))
            members = lines.get(key)
            if members is None:
                lines[key] = [i, j]
            elif members[0] == i:
                members.append(j)
    return [(key, tuple(members), len(members) - 1) for key, members in lines.items()]


def _in_order(flats) -> tuple:
    """Flats (or affine points) in the order the lattices publish, by the strings of their int keys."""
    return tuple(sorted(flats, key=lambda flat: tuple(map(str, flat[0]))))


def _origin_mu(h: int, lines: int, lin: int) -> int | None:
    """mu of the origin, for h planes meeting in that many lines whose mu sum to lin; None when the origin is no flat.

    The origin's value makes the whole Moebius sum vanish.  Normals of
    rank <= 2 all meet in one line, and rank 3 gives at least two.
    """
    return h - 1 - lin if lines > 1 else None


def intersection_lattice(arr: Arrangement3) -> CentralLattice3:
    """Flats of each codimension with their Moebius values.

    Rank-2 flats are lines through the origin obtained from pairwise
    intersections, keyed by a canonical direction vector; the origin is a
    flat iff the normal vectors span the whole space.  mu(V) = 1,
    hyperplanes carry -1, a line in n planes carries n - 1, and the
    origin's value makes the whole sum vanish.
    """
    flats = _meets(arr.field.char, [f.ints for f in arr.forms])
    origin_mu = _origin_mu(arr.h, len(flats), sum(mu for _, _, mu in flats))
    return CentralLattice3(arr, tuple(Rank2Flat(*flat) for flat in _in_order(flats)), origin_mu)


def _affine_points(aff: AffineArrangement2) -> list:
    """The intersection points of the lines with their Moebius values, in no set order.

    The points are the lines where the coned planes a*x + b*y - c*z = 0
    meet, less those at infinity (z = 0), where parallel lines meet.  Each
    is ((X, Y, Z), sorted line indices, mu): the point (X/Z, Y/Z) with
    Z != 0, in canonical ints.
    """
    meets = _meets(aff.field.char, [(a, b, -c) for a, b, c in (l.ints for l in aff.forms)])
    return [pt for pt in meets if pt[0][2]]


def char_poly(arr) -> CharPoly:
    """Characteristic polynomial of a central 3- or affine 2-arrangement.

    It sums the Moebius values of the flats as :func:`_meets` finds them,
    with no lattice built and nothing sorted.
    """
    if isinstance(arr, Arrangement3):
        flats = _meets(arr.field.char, [f.ints for f in arr.forms])
        lin = sum(mu for _, _, mu in flats)
        return CharPoly((1, -arr.h, lin, _origin_mu(arr.h, len(flats), lin) or 0))
    if isinstance(arr, AffineArrangement2):
        return CharPoly((1, -arr.k, sum(mu for _, _, mu in _affine_points(arr))))
    raise TypeError(f"unsupported arrangement type {type(arr).__name__}")


# ---------------------------------------------------------------------------
# coning, deconing and restriction


def cone(aff: AffineArrangement2):
    """Homogenise an affine line arrangement; returns (arrangement, h0 index).

    Each line a*x + b*y = c becomes the plane a*x + b*y - c*z = 0 and the
    infinite hyperplane z = 0 is appended last.  The lead of a line's
    canonical ints lies in (a, b), so (a, b, -c) is canonical as it
    stands over Q, and once -c is reduced mod p over GF(p).
    """
    p = aff.field.char
    planes = [(a, b, -c % p if p else -c) for a, b, c in (l.ints for l in aff.forms)]
    return Arrangement3._of_ints(aff.field, [*planes, (0, 0, 1)]), aff.k


def _dot(u, v):
    """The dot product of two 3-vectors."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _round_ratio(n: int, d: int) -> int:
    """n / d rounded to the nearest int, ties to even (as round(Fraction(n, d))), for d > 0."""
    q, r = divmod(n, d)
    return q + 1 if 2 * r > d or (2 * r == d and q % 2) else q


def _lagrange(u, v):
    """Lagrange-reduce a basis of a rank-2 integer lattice, exactly."""
    while True:
        if _dot(v, v) < _dot(u, u):
            u, v = v, u
        q = _round_ratio(_dot(u, v), _dot(u, u))  # ties go to even, which keeps the corpus frames
        if not q:
            return u, v
        v = tuple([x - q * y for x, y in zip(v, u)])


def _shell_key(v):
    """Max-norm, then z, y and x ranked 0, 1, -1, 2, -2, ..."""
    x, y, z = v
    return (max(abs(x), abs(y), abs(z)), 2 * abs(z) - (z > 0), 2 * abs(y) - (y > 0), 2 * abs(x) - (x > 0))


def _plane_frame(alpha: LinearForm3):
    """Deterministic int frame (u1, u2, k) of the plane alpha = 0, in closed form.

    With a_k the first nonzero coefficient of alpha, the integer vectors
    u = a_k*e_i - a_i*e_k for the two other indices i span the plane.  Over
    GF(p), a_k = 1 and the pair is used as built.  Over Q it is
    Lagrange-reduced, each vector gets its last nonzero entry positive, and
    the two are ordered by :func:`_shell_key`.
    """
    a0, a1, a2 = alpha.ints
    if a0:
        k, u1, u2 = 0, (-a1, a0, 0), (-a2, 0, a0)
    elif a1:
        k, u1, u2 = 1, (a1, -a0, 0), (0, -a2, a1)
    else:
        k, u1, u2 = 2, (a2, 0, -a0), (0, a2, -a1)
    if not alpha.field.char:
        # of u and -u, the one with its last nonzero entry positive ranks first
        u1, u2 = [u if (u[2] or u[1] or u[0]) > 0 else (-u[0], -u[1], -u[2]) for u in _lagrange(u1, u2)]
        if _shell_key(u2) < _shell_key(u1):
            u1, u2 = u2, u1
    return u1, u2, k


def _in_frame(arr: Arrangement3, h0: int):
    """(a_k, rows): each plane beta other than h0 as (beta.u1, beta.u2, beta_k) in the frame (u1, u2, k) of h0."""
    if not 0 <= h0 < arr.h:
        raise ValueError(f"h0 index {h0} out of range")
    alpha = arr.forms[h0]
    u1, u2, k = _plane_frame(alpha)
    return alpha.ints[k], [(_dot(b.ints, u1), _dot(b.ints, u2), b.ints[k]) for i, b in enumerate(arr.forms) if i != h0]


def decone(arr: Arrangement3, h0: int) -> AffineArrangement2:
    """Restrict away the hyperplane at index h0, viewing it as infinity.

    The remaining planes are read on the affine chart e_k/a_k + s*u1 + t*u2
    of the frame (u1, u2, k) of h0, where a plane beta = 0 is the line
    (beta.u1)*s + (beta.u2)*t = -beta_k/a_k; each line is built as a_k
    times that, on ints.  This inverts :func:`cone` exactly when h0 is the
    appended infinite hyperplane (frame e1, e2 and k = 2).
    """
    a_k, rows = _in_frame(arr, h0)
    # a plane vanishing at u1 and u2 would be proportional to h0, so every
    # line keeps a nonzero direction part
    return AffineArrangement2(arr.field, [(a_k * s, a_k * t, -c) for s, t, c in rows])


def ziegler_restriction(arr: Arrangement3, h0: int):
    """Restrict onto the hyperplane h0, counting coinciding restrictions.

    Returns (Arrangement2 in the frame coordinates u1, u2 of h0, multiplicity
    tuple); the multiplicities sum to |arr| - 1.  The rows are grouped by
    their canonical int pairs, in order of first appearance, and each
    distinct line becomes one form, built from its pair as it stands.
    Only the forms depend on the frame, not the multiplicities or the
    exponents.
    """
    rows = _in_frame(arr, h0)[1]
    if arr.h < 2:
        raise ValueError("restriction needs at least two hyperplanes")
    p = arr.field.char
    counts: dict = {}  # canonical int pair -> multiplicity, in order of first appearance
    for s, t, _ in rows:
        key = _canonical_ints(p, (s, t))
        counts[key] = counts.get(key, 0) + 1
    return Arrangement2._of_ints(arr.field, list(counts)), tuple(counts.values())


# ---------------------------------------------------------------------------
# freeness


@dataclass
class FreenessVerdict:
    free: bool
    exponents: tuple | None  # when free, 1, d1 and d2 in ascending order; a non-essential arrangement has 0 among them
    coker_dim: int
    h0_index: int
    ziegler: tuple | None  # (Arrangement2, multiplicity)
    combinatorial: bool
    rule: str | None  # which combinatorial criterion settled it
    char_poly: CharPoly
    char_warning: str | None = None


def _coker(c2: int, restricted: Arrangement2, mult: tuple):
    """(c2 - d1*d2, exponents) for a restriction; the cokernel is never negative in char 0."""
    e = exponents(restricted, mult)
    coker = c2 - e.d1 * e.d2
    if restricted.field.char == 0 and coker < 0:
        raise RuntimeError(
            f"negative cokernel dimension {coker} for the restriction {restricted!r} "
            f"with m={mult}; this contradicts the freeness criterion and signals a bug"
        )
    return coker, e


def _product_shape(k: int, h: int):
    """(case, d, gap) of the product shape (t - d)(t - d - gap) for k lines.

    Case 1 has gap h - 2 and case 2 has gap h - 3; exactly one of them
    makes k - gap even, and then d = (k - gap) / 2.
    """
    case, gap = (1, h - 2) if (k - h) % 2 == 0 else (2, h - 3)
    return case, (k - gap) // 2, gap


def _infinite_restriction(aff: AffineArrangement2):
    """Cone aff and restrict onto the infinite plane: (restricted, mult, reason).

    reason names the first failing hypothesis of the balanced criteria, or
    is None; restricted and mult are None when there is no restriction.
    """
    if aff.field.char:
        return None, None, "characteristic-zero hypothesis fails"
    if not aff.forms:
        return None, None, "cone has a single hyperplane"
    restricted, mult = ziegler_restriction(*cone(aff))
    if restricted.h <= 2:
        return restricted, mult, f"restriction has h = {restricted.h} <= 2"
    if not is_balanced(restricted, mult):
        return restricted, mult, "restriction multiplicity is unbalanced"
    return restricted, mult, None


def is_free(arr: Arrangement3, h0: int = 0) -> FreenessVerdict:
    """Freeness of a central 3-arrangement, decided through a restriction.

    By default the first hyperplane serves as the infinite one (the
    verdict does not depend on the choice; the certificate records it).
    The verdict is flagged combinatorial when one of the combinatorial
    criteria applies: an unbalanced restriction, the product-shape
    criterion on the deconed characteristic polynomial, a 3-line
    restriction, or a 4-line restriction of an even-sized arrangement.
    """
    if not 0 <= h0 < arr.h:
        raise ValueError(f"h0 index {h0} out of range (0..{arr.h - 1})")
    cp = char_poly(arr)
    warning = char_warning(arr.field, "the freeness criterion assumes characteristic zero")
    if arr.h == 1:
        return FreenessVerdict(True, (0, 0, 1), 0, 0, None, True, "trivial", cp, warning)
    restricted, mult = ziegler_restriction(arr, h0)
    _, c2 = cp.quadratic_coeffs()
    coker, e = _coker(c2, restricted, mult)
    free = coker == 0
    _, d, gap = _product_shape(arr.h - 1, restricted.h)
    rule = None
    if not is_balanced(restricted, mult):
        rule = "nb"
    elif restricted.h > 2 and c2 == d * (d + gap):
        rule = "fc"
    elif restricted.h == 3:
        rule = "A2"
    elif restricted.h == 4 and arr.h % 2 == 0:
        rule = "four"
    return FreenessVerdict(
        free,
        tuple(sorted((1, e.d1, e.d2))) if free else None,
        coker,
        h0,
        (restricted, mult),
        rule is not None,
        rule,
        cp,
        warning,
    )


@dataclass(kw_only=True)
class FcReport:
    applies: bool
    free: bool | None = None
    reason: str
    k: int
    h: int | None = None
    c2: int | None = None
    case: int | None = None
    d: int | None = None


def thm_fc_check(aff: AffineArrangement2) -> FcReport:
    """Sufficient product-shape test for freeness of the cone.

    Applies when the restriction of the cone onto the infinite hyperplane
    is balanced with more than two lines and the affine characteristic
    polynomial factors as (t-d)(t-d-h+2) or (t-d)(t-d-h+3); then the cone
    is free (cross-checked against the cokernel dimension).
    """
    k = aff.k
    restricted, mult, reason = _infinite_restriction(aff)
    if restricted is None:
        return FcReport(applies=False, reason=reason, k=k)
    h = restricted.h
    c2 = char_poly(aff).coeffs[2]
    case, d, gap = _product_shape(k, h)
    if reason is None and c2 != d * (d + gap):
        reason = "characteristic polynomial does not factor as (t-d)(t-d-h+2) or (t-d)(t-d-h+3)"
    if reason is not None:
        return FcReport(applies=False, reason=reason, k=k, h=h, c2=c2)
    coker, _ = _coker(c2, restricted, mult)
    if coker != 0:
        raise RuntimeError(
            f"product-shape hypotheses hold but coker = {coker}; genuine counterexample or bug"
        )
    return FcReport(
        applies=True, free=True, reason="hypotheses hold; cone is free", k=k, h=h, c2=c2, case=case, d=d
    )


@dataclass(kw_only=True)
class RestReport:
    applicable: bool
    reason: str
    case: int | None = None
    d: int | None = None
    roots: tuple | None = None
    bounds_ok: bool | None = None

    @property
    def passed(self) -> bool:
        return (not self.applicable) or bool(self.bounds_ok)


def thm_rest_check(aff: AffineArrangement2) -> RestReport:
    """Split characteristic polynomials of balanced arrangements have pinched roots.

    With k = 2d + h - 2 (even offset) the integer roots a <= b must satisfy
    d <= a <= b <= d + h - 2; with k = 2d + h - 3 the bound tightens to
    d + h - 3.
    """
    restricted, _, reason = _infinite_restriction(aff)
    if reason is not None:
        return RestReport(applicable=False, reason=reason)
    roots = char_poly(aff).integer_roots_quadratic()
    if roots is None:
        return RestReport(applicable=False, reason="characteristic polynomial does not split over Z")
    a, b = roots
    case, d, gap = _product_shape(aff.k, restricted.h)
    return RestReport(
        applicable=True, reason="hypotheses hold", case=case, d=d, roots=roots,
        bounds_ok=d <= a <= b <= d + gap,
    )


def chamber_count(aff: AffineArrangement2) -> int:
    """Number of connected components of the real plane minus the lines.

    Evaluates the characteristic polynomial at -1 (Zaslavsky's theorem).
    """
    if aff.field.char:
        raise ValueError("real chambers need characteristic zero")
    return char_poly(aff)(-1)


@dataclass(kw_only=True)
class Rest2Report:
    applicable: bool
    reason: str
    case: int | None = None
    d: int | None = None
    chambers: int | None = None
    bound: int | None = None
    c2_ok: bool | None = None
    equality: bool | None = None
    freeness_confirmed: bool | None = None

    @property
    def passed(self) -> bool:
        return not self.applicable or (self.c2_ok and self.freeness_confirmed is not False)


def thm_rest2_check(aff: AffineArrangement2) -> Rest2Report:
    """Chamber lower bound for balanced arrangements; equality forces freeness.

    k lines have chi(t) = t^2 - k*t + c2, so chi(-1) = 1 + k + c2: the bound
    1 + k + d(d + gap) is c2 >= d(d + gap), and equality is thm_fc_check's product shape.
    """
    restricted, mult, reason = _infinite_restriction(aff)
    if reason is not None:
        return Rest2Report(applicable=False, reason=reason)
    k = aff.k
    case, d, gap = _product_shape(k, restricted.h)
    prod = d * (d + gap)
    chi = char_poly(aff)
    c2 = chi.coeffs[2]
    equality = c2 == prod
    # by Yoshinaga's criterion the restriction onto any H0, here the infinite one, decides freeness
    return Rest2Report(
        applicable=True, reason="hypotheses hold", case=case, d=d, chambers=chi(-1), bound=1 + k + prod,
        c2_ok=c2 >= prod, equality=equality,
        freeness_confirmed=_coker(c2, restricted, mult)[0] == 0 if equality else None,
    )


@dataclass
class Pb3Report:
    member: bool
    reason: str
    roots: tuple | None
    witness_h0: int | None
    restriction_sizes: tuple
    unbalanced_h0: int | None


def pb3_membership(arr: Arrangement3) -> Pb3Report:
    """Membership in the combinatorially-decided class.

    Requires every restriction to be balanced and some hyperplane whose
    restriction size h satisfies |d - d'| >= h - 3 for the integer roots
    (d, d') of the quadratic factor.  The witnessing index (or the first
    failure) is recorded.
    """
    sizes = []
    for h0 in range(arr.h):
        restricted, mult = ziegler_restriction(arr, h0)
        sizes.append(restricted.h)
        if not is_balanced(restricted, mult):
            return Pb3Report(
                False, f"restriction onto index {h0} is unbalanced", None, None, tuple(sizes), h0
            )
    c1, c2 = char_poly(arr).quadratic_coeffs()
    roots = CharPoly((1, -c1, c2)).integer_roots_quadratic()
    if roots is None:
        return Pb3Report(False, "characteristic polynomial does not split over Z", None, None, tuple(sizes), None)
    d, dp = roots
    witness = next((h0 for h0, h in enumerate(sizes) if abs(d - dp) >= h - 3), None)
    if witness is None:
        return Pb3Report(False, "no hyperplane satisfies the root-gap condition", roots, None, tuple(sizes), None)
    return Pb3Report(True, "member", roots, witness, tuple(sizes), None)

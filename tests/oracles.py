"""Slow paths kept as test oracles: field-scalar forms, form arithmetic and lattice lookups.

``Fp`` is a GF(p) residue with the arithmetic that ``FpElement`` had before
the library computed over GF(p) on plain ints; ``scalar`` lifts a library
scalar into it (a ``Fraction`` over Q stays as it is), and every oracle
below that does scalar arithmetic lifts its inputs first.
``FieldForm`` keeps every coefficient as a field scalar (``Fraction`` over
Q, ``Fp`` over GF(p)) and does its arithmetic entry by entry, with no int
vector, content or gcd.  ``scalar_kernel`` is ``Matrix.kernel`` with its
back-substitution on field scalars, as it was before it ran on residues;
``mul_vec`` and ``from_vector`` are ``Matrix.mul_vec`` and
``Derivation2.from_vector``, which only tests called.  ``tangency_matrix``
and ``derivation_space_dim`` are ``multiarr2._tangency_matrix`` and
``multiarr2.derivation_space_dim``, the tangency system of one degree and
the dimension of its kernel, which no command reached once the exponents
came from unit steps; they reach ``exactalg`` through the module, so the
benchmark's tracer counts their rank and constraint calls.
``zero_form`` is the zero ``BinaryForm`` of a degree, built from ints.
``canonical_coefficients`` scales a
coefficient vector to its canonical field scalars, and ``_int_row`` turns
a row of scalars into ints with the same span.  The differential tests in
``test_exactalg.py`` and ``test_arr3.py`` run them side by side with the
library.  ``combine``, ``scaled``, ``mul``, ``dx1``, ``dx2`` and ``power``
are the arithmetic that ``BinaryForm`` had on its ints and content, and
``apply_to_form``, ``nabla``, ``saito_det`` and ``saito_criterion`` are the
derivation routines the library ran on it, before the derivations moved
to ints; ``test_exactalg.py`` checks the arithmetic against ``FieldForm``,
and ``test_shift.py`` and ``test_multiarr2.py`` check the library's int
path against the routines.  ``sweep_chamber_count`` counts the chambers of
a real affine line arrangement by sampling points, with no intersection
poset.  ``scalar_decone`` and ``scalar_affine_points`` are the field-scalar
routes of ``arr3`` before it moved to ints: deconing on the chart
v0 + s*u1 + t*u2 with v0 = e_k / a_k, each plane read by its field sum
(``field_value``, the former ``LinearForm3.value``), and the intersection
points of affine lines by Cramer's rule with field division.
``exponent_map`` and ``ascend`` are the lattice verifiers' lookups
before the region table: one ``exponents`` query per point, and a greedy
ascent that queries every neighbour at every step, with no memo.
``open_ball`` lists an open L1-ball by filtering its box, where the
library checks the ball law on a component without listing the ball.
``canonical_json`` is the ``json`` module's indented encoder that
``corpus.canonical_json`` replaced, ``parse_coefficient`` the
``field(text)`` parse of every coefficient string before plain integers
became ints over Q, ``build_arrangement`` and ``serialize_document`` the
document build and writer before the forms came from canonical ints and
the text was written from the document's shape, and
``is_prime_twelve_bases`` the primality test before it chose its bases
by the size of n.
``unit_step``, ``times_alpha`` and ``normalise`` are the addition step
as it was before it built each component by one list comprehension and
reduced the combination inline; ``test_multiarr2.py`` runs them side by
side with ``multiarr2._unit_step``.  ``chain_state`` is the state that
``multiarr2._unit_state`` built before it started from the closed form on
the first two lines: the chain from m = 0, one step per unit of |m|.
``module_caches`` is the scan of every value of every loaded module that
``stats._caches`` made on each call before it remembered each module's
caches.  ``meets`` and ``ziegler_restriction``
are ``arr3._meets`` and ``arr3.ziegler_restriction`` as they were before
they ran on canonical ints: each line keyed by the canonical field scalars
of its cross product, with its members gathered in a set and the lines
sorted, and the restricted rows grouped by their ``LinearForm2``;
``int_path_failures`` runs the library beside them, and beside the
generic constructor for the cone of each deconing, and checks
``arr3.char_poly`` against the Moebius values of ``meets``, with the
origin's read from the rank of the normals.  ``census_tally`` holds
the checks of the census of small arrangements, which ``test_census.py``
runs on a slice and ``census.py`` on all of it.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from typing import Iterable, Sequence

from multiarr import arr3, exactalg
from multiarr.exactalg import _MR_BASES, QQ, BinaryForm, FpElement, LinearForm2, _echelon, _render_terms, _scaled_ints
from multiarr.lattice import _ASCENT_LIMIT
from multiarr.multiarr2 import _BASE_STATE, Arrangement2, Derivation2, _residue, exponents, is_balanced
from multiarr.stats import counts


class Fp(FpElement):
    """A residue in GF(p) with the arithmetic that FpElement had before the library computed on residues.

    Arithmetic coerces plain ints; mixing residues of different primes
    raises.  A library FpElement on the right is taken as it is; one on
    the left has no operators, so the oracles lift every library scalar
    first (see :func:`scalar`).
    """

    __slots__ = ()

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError(f"mixed prime fields GF({self.p}) and GF({other.p})")
            return other
        if isinstance(other, int):
            return Fp(other, self.p)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else Fp(self.val + o.val, self.p)

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else Fp(self.val - o.val, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else Fp(self.val * o.val, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.val == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return Fp(self.val * pow(o.val, -1, self.p), self.p)

    def __neg__(self):
        return Fp(-self.val, self.p)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        return Fp(pow(self.val, n, self.p), self.p)


def scalar(field, x):
    """field(x) with the reference arithmetic: an Fp over GF(p), the Fraction over Q."""
    v = field(x)
    return Fp(v.val, v.p) if field.char else v


def canonical_coefficients(field, coeffs: Iterable) -> tuple:
    """Canonical representative of a nonzero coefficient tuple up to scaling.

    Over Q: coprime integers with the first nonzero entry positive.
    Over GF(p): the first nonzero entry scaled to 1.
    """
    vals = [scalar(field, c) for c in coeffs]
    if not any(vals):
        raise ValueError("zero coefficient vector has no canonical form")
    if field.char == 0:
        ints = _int_row(field, vals)
        g = reduce(math.gcd, ints)
        lead = next(i for i in ints if i)
        if lead < 0:
            g = -g
        return tuple(Fraction(i // g) for i in ints)
    lead = next(v for v in vals if v)
    inv = scalar(field, 1) / lead
    return tuple(v * inv for v in vals)


def _int_row(field, row) -> tuple:
    """One matrix row as Python ints with the same span."""
    p = field.char
    if p:
        return tuple(e % p if type(e) is int else field(e).val for e in row)
    if set(map(type, row)) <= {int}:
        return tuple(row)
    vals = [e if type(e) is int else field(e) for e in row]
    den = reduce(math.lcm, (e.denominator for e in vals), 1)
    return tuple(e.numerator * (den // e.denominator) for e in vals)


def proportional_scalar(field, mine: Sequence, theirs: Sequence):
    """Scalar c with mine == c * theirs entrywise, or None; 0 when both are zero."""
    mine, theirs = [scalar(field, a) for a in mine], [scalar(field, b) for b in theirs]
    i = next((i for i, b in enumerate(theirs) if b), None)
    if i is None:
        return None if any(mine) else scalar(field, 0)
    c = mine[i] / theirs[i]
    return c if all(a == c * b for a, b in zip(mine, theirs)) else None


class FieldForm:
    """A homogeneous polynomial in x1, x2 of a declared degree.

    ``coeffs[i]`` is the coefficient of x1^i * x2^(degree-i).  The zero
    form may be declared at any degree.
    """

    __slots__ = ("field", "degree", "coeffs")

    def __init__(self, field, degree: int, coeffs: Sequence):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        cs = tuple(scalar(field, c) for c in coeffs)
        if len(cs) != degree + 1:
            raise ValueError(f"degree-{degree} form needs {degree + 1} coefficients, got {len(cs)}")
        self.field = field
        self.degree = degree
        self.coeffs = cs

    @classmethod
    def zero(cls, field, degree: int) -> "FieldForm":
        return cls(field, degree, (0,) * (degree + 1))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other):
        self._check(other)
        if self.degree != other.degree:
            raise ValueError("degree mismatch in form addition")
        return FieldForm(self.field, self.degree, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        if self.degree != other.degree:
            raise ValueError("degree mismatch in form subtraction")
        return FieldForm(self.field, self.degree, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return FieldForm(self.field, self.degree, tuple(-a for a in self.coeffs))

    def scaled(self, c) -> "FieldForm":
        c = scalar(self.field, c)
        return FieldForm(self.field, self.degree, tuple(c * a for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        deg = self.degree + other.degree
        out = [scalar(self.field, 0)] * (deg + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return FieldForm(self.field, deg, out)

    def dx1(self) -> "FieldForm":
        """Partial derivative with respect to x1."""
        if self.degree == 0:
            return FieldForm.zero(self.field, 0)
        out = [scalar(self.field, 0)] * self.degree
        for i in range(1, self.degree + 1):
            out[i - 1] = i * self.coeffs[i]
        return FieldForm(self.field, self.degree - 1, out)

    def dx2(self) -> "FieldForm":
        """Partial derivative with respect to x2."""
        if self.degree == 0:
            return FieldForm.zero(self.field, 0)
        out = [scalar(self.field, 0)] * self.degree
        for i in range(self.degree):
            out[i] = (self.degree - i) * self.coeffs[i]
        return FieldForm(self.field, self.degree - 1, out)

    def divide_exact(self, other: "FieldForm"):
        """Return self / other if the division is exact, else None."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero form")
        if self.is_zero():
            return FieldForm.zero(self.field, max(self.degree - other.degree, 0))
        if other.degree > self.degree:
            return None
        p = list(self.coeffs)
        q = other.coeffs
        dp = max(i for i, c in enumerate(p) if c)
        dq = max(i for i, c in enumerate(q) if c)
        if dp < dq:
            return None
        # x2-adic valuations must also divide: (deg-dp) >= (deg'-dq)
        if (self.degree - dp) < (other.degree - dq):
            return None
        quot = [scalar(self.field, 0)] * (dp - dq + 1)
        for i in range(dp, dq - 1, -1):
            c = p[i] / q[dq]
            quot[i - dq] = c
            if c:
                for s in range(dq + 1):
                    p[i - dq + s] = p[i - dq + s] - c * q[s]
        if any(p):
            return None
        deg = self.degree - other.degree
        quot.extend([scalar(self.field, 0)] * (deg + 1 - len(quot)))
        return FieldForm(self.field, deg, quot)

    def proportional_scalar(self, other: "FieldForm"):
        """Scalar c with self == c * other, or None if no such c exists.

        Requires equal declared degrees; returns 0 when self is zero.
        """
        self._check(other)
        if self.degree != other.degree:
            return None
        return proportional_scalar(self.field, self.coeffs, other.coeffs)

    def render(self) -> str:
        terms = []
        for i in range(self.degree, -1, -1):
            pieces = []
            if i:
                pieces.append("x1" if i == 1 else f"x1^{i}")
            j = self.degree - i
            if j:
                pieces.append("x2" if j == 1 else f"x2^{j}")
            terms.append((self.field.format(self.coeffs[i]), "*".join(pieces)))
        return _render_terms(terms)

    def _check(self, other):
        if not isinstance(other, FieldForm):
            raise TypeError(f"expected FieldForm, got {type(other).__name__}")
        if other.field != self.field:
            raise TypeError("mixed-field operands")

    def __eq__(self, other):
        return (
            isinstance(other, FieldForm)
            and self.field == other.field
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.degree, self.coeffs))

    def __repr__(self):
        return f"FieldForm({self.render()})"


# ---------------------------------------------------------------------------
# matrices on field scalars


def scalar_kernel(mat) -> list:
    """Matrix.kernel before its back-substitution ran on residues: every step on field scalars (Fp over GF(p))."""
    field, ncols = mat.field, mat.ncols
    erows, pivots = _echelon(field, mat.rows)
    zero, one = scalar(field, 0), scalar(field, 1)
    pivot_set = set(pivots)
    basis = []
    for f in (c for c in range(ncols) if c not in pivot_set):
        x = [zero] * ncols
        x[f] = one
        for r in range(len(pivots) - 1, -1, -1):
            p = pivots[r]
            row = erows[r]
            s = zero
            for c in range(p + 1, ncols):
                if row[c] and x[c]:
                    s += row[c] * x[c]
            if s:
                x[p] = -s / row[p]
        lead = next(v for v in x if v)
        if lead != one:
            x = [v / lead for v in x]
        basis.append(tuple(x))
    return basis


def mul_vec(mat, v: Sequence) -> tuple:
    """The product of a Matrix and a vector of ints or field scalars, as field scalars."""
    if len(v) != mat.ncols:
        raise ValueError("vector length mismatch")
    field, zero = mat.field, scalar(mat.field, 0)
    return tuple(sum((e * scalar(field, x) for e, x in zip(row, v) if e and x), zero) for row in mat.rows)


def from_vector(field, degree: int, vec: Sequence) -> Derivation2:
    """The derivation whose f and g coefficients are the two halves of vec (a kernel vector of tangency_matrix)."""
    if len(vec) != 2 * (degree + 1):
        raise ValueError("coefficient vector has wrong length")
    ints, den = _scaled_ints(field, vec)
    return Derivation2.from_ints(field, degree, ints[: degree + 1], ints[degree + 1 :], 1, den)


def tangency_matrix(arr, m, d: int):
    """Stacked conditions for a degree-d derivation to be tangent to (arr, m).

    Unknowns are the d+1 coefficients of f followed by those of g; each
    hyperplane with multiplicity k contributes the k divisibility rows of
    theta(alpha) = a*f + b*g, in integers (residues over GF(p)).
    """
    rows = []
    for alpha, k in zip(arr.forms, m):
        if k == 0:
            continue
        a, b = alpha.ints
        for row in exactalg.divisibility_constraints(alpha, k, d).rows:
            rows.append([a * e for e in row] + [b * e for e in row])
    return exactalg.Matrix(arr.field, rows, ncols=2 * (d + 1))


def derivation_space_dim(arr, m, d: int) -> int:
    """Dimension of the degree-d homogeneous part of the derivation module."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    mt = arr.check_multiplicity(m)
    mat = tangency_matrix(arr, mt, d)
    return mat.ncols - mat.rank()


# ---------------------------------------------------------------------------
# BinaryForm arithmetic on ints and contents, and the derivation routines on it


def zero_form(field, degree: int) -> BinaryForm:
    return BinaryForm.from_ints(field, degree, (0,) * (degree + 1))


def combine(f: BinaryForm, a: int, g: BinaryForm, b: int) -> BinaryForm:
    """a * f + b * g for ints a and b, over a common denominator of the contents."""
    if f.field != g.field:
        raise TypeError("mixed-field operands")
    if f.degree != g.degree:
        raise ValueError("degree mismatch in form combination")
    p = f.field.char
    if p:
        return BinaryForm.from_ints(f.field, f.degree, [a * x + b * y for x, y in zip(f.ints, g.ints)])
    c1, c2 = f.content, g.content
    d1, d2 = c1.denominator, c2.denominator
    den = math.lcm(d1, d2)
    u, v = a * c1.numerator * (den // d1), b * c2.numerator * (den // d2)
    return BinaryForm.from_ints(f.field, f.degree, [u * x + v * y for x, y in zip(f.ints, g.ints)], 1, den)


def add(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    return combine(f, 1, g, 1)


def sub(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    return combine(f, 1, g, -1)


def scaled(f: BinaryForm, c) -> BinaryForm:
    """c * f for an int or anything the field coerces."""
    c = f.field(c)
    if f.field.char:
        return BinaryForm.from_ints(f.field, f.degree, [x * c.val for x in f.ints])
    return BinaryForm.from_ints(f.field, f.degree, f.ints, f.content.numerator * c.numerator,
                                f.content.denominator * c.denominator)


def mul(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """The product; over Q the ints of a product of primitive forms are primitive (Gauss)."""
    if f.field != g.field:
        raise TypeError("mixed-field operands")
    out = [0] * (f.degree + g.degree + 1)
    for i, x in enumerate(f.ints):
        if x:
            for j, y in enumerate(g.ints, i):
                out[j] += x * y
    c = f.content * g.content
    return BinaryForm.from_ints(f.field, f.degree + g.degree, out, c.numerator, c.denominator)


def dx1(f: BinaryForm) -> BinaryForm:
    """Partial derivative with respect to x1."""
    if f.degree == 0:
        return zero_form(f.field, 0)
    c = f.content
    ints = [i * x for i, x in enumerate(f.ints)][1:]
    return BinaryForm.from_ints(f.field, f.degree - 1, ints, c.numerator, c.denominator)


def dx2(f: BinaryForm) -> BinaryForm:
    """Partial derivative with respect to x2."""
    if f.degree == 0:
        return zero_form(f.field, 0)
    d, c = f.degree, f.content
    ints = [(d - i) * x for i, x in enumerate(f.ints[:d])]
    return BinaryForm.from_ints(f.field, d - 1, ints, c.numerator, c.denominator)


def power(alpha, k: int) -> BinaryForm:
    """alpha^k for a LinearForm2 alpha."""
    a, b = alpha.ints
    out = BinaryForm(alpha.field, 0, (1,))
    for _ in range(k):
        out = mul(out, BinaryForm(alpha.field, 1, (b, a)))
    return out


def apply_to_form(theta: Derivation2, form: BinaryForm) -> BinaryForm:
    """theta acting as a derivation on a polynomial."""
    return add(mul(theta.f, dx1(form)), mul(theta.g, dx2(form)))


def nabla(theta: Derivation2, phi: Derivation2) -> Derivation2:
    """The connection: theta applied to each coefficient of phi; a constant phi gives zero."""
    if phi.degree == 0:
        zero = zero_form(theta.field, max(theta.degree - 1, 0))
        return Derivation2(zero, zero)
    return Derivation2(apply_to_form(theta, phi.f), apply_to_form(theta, phi.g))


def saito_det(theta1: Derivation2, theta2: Derivation2) -> BinaryForm:
    """The determinant f1*g2 - f2*g1 of the coefficient matrix."""
    return sub(mul(theta1.f, theta2.g), mul(theta2.f, theta1.g))


def saito_criterion(arr, m, theta1: Derivation2, theta2: Derivation2):
    """(tangent, scalar) as multiarr2.saito_criterion defines them, by field-scalar long division.

    Each theta(alpha) = a*f + b*g must be divisible by alpha^m(H), and the
    scalar is det / Q(arr, m) when that is a constant, else None.
    """
    field = arr.field

    def divides(alpha, k, form):
        divisor = FieldForm(field, k, power(alpha, k).coeffs)
        return form.is_zero() or FieldForm(field, form.degree, form.coeffs).divide_exact(divisor) is not None

    tangent = all(
        divides(alpha, k, combine(theta.f, alpha.ints[0], theta.g, alpha.ints[1]))
        for theta in (theta1, theta2)
        for alpha, k in zip(arr.forms, m)
    )
    q = BinaryForm(field, 0, (1,))
    for alpha, k in zip(arr.forms, m):
        q = mul(q, power(alpha, k))
    det = saito_det(theta1, theta2)
    if det.degree != q.degree:
        return tangent, None
    return tangent, proportional_scalar(field, det.coeffs, q.coeffs)


def sweep_chamber_count(lines: Iterable) -> int:
    """Chambers of the real plane minus the lines a*x + b*y = c, by sampling.

    The closure of a chamber is a polyhedron, so its x-range is an open
    interval whose finite ends are critical: the x of an intersection point
    or of a vertical line.  A vertical line x = x0 strictly between two
    consecutive critical values (or beyond the extremes) therefore meets
    every chamber whose range holds x0, in an open interval between two
    consecutive crossings.  Distinct chambers have distinct sign vectors.
    """
    lines = [tuple(map(Fraction, abc)) for abc in lines]
    critical = {c / a for a, b, c in lines if not b}
    for i, (a1, b1, c1) in enumerate(lines):
        for a2, b2, c2 in lines[i + 1 :]:
            det = a1 * b2 - a2 * b1
            if det:
                critical.add((c1 * b2 - c2 * b1) / det)
    signs = set()
    for x in _gap_points(critical):
        for y in _gap_points({(c - a * x) / b for a, b, c in lines if b}):
            signs.add(tuple(a * x + b * y > c for a, b, c in lines))
    return len(signs)


def field_value(form, vec):
    """The form at a vector of ints or field scalars, as a sum of field scalars."""
    field = form.field
    return sum((scalar(field, c) * scalar(field, x) for c, x in zip(form.coeffs, vec)), scalar(field, 0))


def scalar_decone(arr, h0: int):
    """arr3.decone by field scalars: the planes read on the chart v0 + s*u1 + t*u2, v0 = e_k / a_k."""
    field, alpha = arr.field, arr.forms[h0]
    u1, u2, k = arr3._plane_frame(alpha)
    v0 = tuple(scalar(field, 1) / alpha.coeffs[k] if j == k else scalar(field, 0) for j in range(3))
    lines = [
        (field_value(b, u1), field_value(b, u2), -field_value(b, v0)) for i, b in enumerate(arr.forms) if i != h0
    ]
    return arr3.AffineArrangement2(field, lines)


def scalar_affine_points(aff) -> dict:
    """{(x, y): sorted indices of the lines through it}, by Cramer's rule on field scalars."""
    points: dict = {}
    for i, j in combinations(range(aff.k), 2):
        (a1, b1, c1), (a2, b2, c2) = ([scalar(aff.field, c) for c in aff.forms[n].coeffs] for n in (i, j))
        det = a1 * b2 - a2 * b1
        if det:  # not parallel
            points.setdefault(((c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det), set()).update((i, j))
    return {pt: tuple(sorted(members)) for pt, members in points.items()}


def _gap_points(values) -> list:
    """One point in each open interval that the given values cut the real line into."""
    v = sorted(values)
    if not v:
        return [Fraction(0)]
    return [v[0] - 1] + [(s + t) / 2 for s, t in zip(v, v[1:])] + [v[-1] + 1]


def exponent_map(region) -> dict:
    """Exponents of every point of a lattice region, one exponents query each."""
    return {m: exponents(region.arrangement, m) for m in region.points()}


def neighbours(m) -> set:
    """The points at L1 distance one from m with no negative entry."""
    return {m[:i] + (m[i] + s,) + m[i + 1 :] for i in range(len(m)) for s in (-1, 1) if m[i] + s >= 0}


def ascent_path(arr, m) -> list:
    """The points of the greedy gap-ascent from m, ending at the peak, reading exponents at every step.

    Each step reads every neighbour; ties go to the lexicographically smallest.
    """
    path = [m]
    for _ in range(_ASCENT_LIMIT):
        cur = path[-1]
        dv = exponents(arr, cur).delta
        best = min(
            (nb for nb in neighbours(cur) if is_balanced(arr, nb) and exponents(arr, nb).delta > dv),
            default=None,
        )
        if best is None:
            return path
        path.append(best)
    raise RuntimeError(f"gap ascent from {m} did not terminate within {_ASCENT_LIMIT} steps")


def ascend(arr, m):
    """The peak that the greedy gap-ascent from m reaches (see :func:`ascent_path`)."""
    return ascent_path(arr, m)[-1]


def open_ball(center, radius) -> list:
    """The points of Z>=0^n at L1 distance below radius from center, in lexicographic order."""
    box = product(*(range(max(0, c - radius), c + radius + 1) for c in center))
    return [pt for pt in box if sum(abs(a - b) for a, b in zip(pt, center)) < radius]


def canonical_json(obj) -> str:
    """Sorted keys, two-space indent and a final newline, from the json module's encoder."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def parse_coefficient(field, text: str):
    """The field scalar of text, or text itself when it does not parse; Fraction(text) over Q."""
    try:
        return field(text)
    except (ValueError, ZeroDivisionError):
        return text


def build_arrangement(doc):
    """corpus.build_arrangement before it built the forms from canonical ints.

    Each row is parsed by :func:`parse_coefficient`, and its form is built
    from the row by the form's own constructor, which parses every string
    that did not parse and raises the first fault it meets.
    """
    field = doc.field
    doc.scalars = []

    def rows():
        for coeffs, _ in doc.hyperplanes:
            doc.scalars.append(tuple(parse_coefficient(field, c) for c in coeffs))
            yield doc.scalars[-1]

    if doc.dim == 2 and doc.central:
        return "arr2", Arrangement2(field, rows()), tuple(m for _, m in doc.hyperplanes)
    if doc.dim == 3:
        return "arr3", arr3.Arrangement3(field, rows())
    return "aff2", arr3.AffineArrangement2(field, rows())


def serialize_document(doc) -> str:
    """corpus.serialize_document before it wrote the document's shape directly: a dict through canonical_json."""
    field = doc.field
    obj = {
        "field": doc.field_desc,
        "dim": doc.dim,
        "central": doc.central,
        "hyperplanes": [
            {"coeffs": [field.format(c) for c in coeffs]}
            | ({"mult": mult} if doc.dim == 2 and doc.central else {})
            for coeffs, (_, mult) in zip(doc.scalars, doc.hyperplanes)
        ],
    }
    if doc.name is not None:
        obj["name"] = doc.name
    return canonical_json(obj)


def is_prime_twelve_bases(n: int) -> bool:
    """exactalg._is_prime before it chose its bases by the size of n: Miller-Rabin on all twelve of them."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    return all(strong_probable_prime(n, b) for b in _MR_BASES)


def strong_probable_prime(n: int, b: int) -> bool:
    """Whether odd n > 2 passes the Miller-Rabin round to base b."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(b, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def unit_step(alpha: LinearForm2, k: int, state):
    """The state after m(H) goes from k to k + 1, for H the line alpha = 0.

    With c_i the coefficient of row k of divisibility_constraints(alpha,
    k + 1, d_i) on theta_i(alpha), theta is tangent at k + 1 iff its c is
    0.  If c1 = 0 the new basis is (theta1, alpha*theta2); otherwise it is
    (alpha*theta1, c1*s^delta*theta2 - c2*l^delta*theta1) with delta =
    d2 - d1, where l is a linear form and s = l(P) != 0 at the point P of
    alpha = 0 that row k reads: l = x1 and s = -b at P = (-b, a); l = x1
    and s = 1 for alpha = x2, whose rows are unit rows (P = (1, 0)); l = x2
    and s = a for alpha = x1.  Both pairs have determinant a nonzero
    multiple of alpha * det(theta1, theta2), so Saito's criterion makes
    them a basis.

    Each c is one Horner pass over theta (see :func:`_residue`); c2 is read
    only when c1 != 0.  Over Q every state is primitive, so alpha * theta
    needs no gcd (Gauss's lemma); only the combination is divided by the
    gcd of its entries.  Over GF(p) everything is reduced mod p.
    """
    p = alpha.field.char
    a, b = alpha.ints
    d1, d2, t1, t2 = state
    c1 = _residue(alpha, k, d1, t1)
    if not c1:
        d2, t2 = d2 + 1, times_alpha(a, b, p, t2)
    else:
        c2 = _residue(alpha, k, d2, t2)
        counts["multiarr2.residues"] += 1  # the first residue is counted in bulk with the step
        delta = d2 - d1
        pad = (0,) * delta
        if b:
            s, lifted = (-b if a else 1), tuple(pad + v for v in t1)
        else:
            s, lifted = a, tuple(v + pad for v in t1)
        c1 *= pow(s, delta, p or None)
        combo = tuple(tuple([c1 * x - c2 * y for x, y in zip(v, w)]) for v, w in zip(t2, lifted))
        d1, t1, t2 = d1 + 1, times_alpha(a, b, p, t1), normalise(p, combo)
        if d1 > d2:
            d1, d2, t1, t2 = d2, d1, t2, t1
    return d1, d2, t1, t2


def times_alpha(a: int, b: int, p: int, theta):
    """alpha * theta for alpha = a*x1 + b*x2 (index i holds x1^i), reduced mod p over GF(p).

    Over Q no gcd is taken: alpha's ints are primitive, and so is every
    unit-step state, so alpha * theta is primitive by Gauss's lemma.  For
    alpha = x1 and x2 (canonical, so a = 1 or b = 1) it only shifts theta.
    """
    if not b:
        return tuple((0,) + v for v in theta)
    if not a:
        return tuple(v + (0,) for v in theta)
    if p:
        return tuple(tuple([(a * x + b * y) % p for x, y in zip((0,) + v, v + (0,))]) for v in theta)
    return tuple(tuple([a * x + b * y for x, y in zip((0,) + v, v + (0,))]) for v in theta)


def normalise(p: int, theta):
    """theta reduced mod p, or divided by the gcd of its entries over Q."""
    if p:
        return tuple(tuple([x % p for x in v]) for v in theta)
    g = math.gcd(*theta[0], *theta[1])
    return theta if g == 1 else tuple(tuple([x // g for x in v]) for v in theta)


def chain_state(arr, m):
    """The unit-step state at m by the chain from zero: D1, D2 at m = 0, then m(H) filled from the first line on."""
    state = _BASE_STATE
    for j, v in enumerate(m):
        for k in range(v):
            state = unit_step(arr.forms[j], k, state)
    return state


def module_caches() -> dict:
    """Every lru_cache defined in a loaded multiarr module, by a scan of every value of every such module."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name.startswith("multiarr."):
            for fn in vars(mod).values():
                if hasattr(fn, "cache_info") and getattr(fn, "__module__", None) == name:
                    out[f"{name.removeprefix('multiarr.')}.{fn.__name__}"] = fn
    return out


def meets(field, normals) -> list:
    """arr3._meets keyed by canonical field scalars: (int direction, sorted plane indices, mu), sorted.

    The cross products are taken on field scalars, so nothing but the sort is shared with arr3.
    """
    vecs = [[scalar(field, c) for c in n] for n in normals]
    lines: dict = {}
    for i, u in enumerate(vecs):
        for j in range(i + 1, len(vecs)):
            v = vecs[j]
            uxv = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
            lines.setdefault(_int_row(field, canonical_coefficients(field, uxv)), set()).update((i, j))
    order = sorted(lines, key=lambda k: tuple(map(str, k)))
    return [(key, tuple(sorted(lines[key])), len(lines[key]) - 1) for key in order]


def ziegler_restriction(arr, h0: int):
    """arr3.ziegler_restriction with the rows grouped by their LinearForm2, in order of first appearance."""
    rows = arr3._in_frame(arr, h0)[1]
    if arr.h < 2:
        raise ValueError("restriction needs at least two hyperplanes")
    counts: dict = {}  # in order of first appearance
    for s, t, _ in rows:
        beta = LinearForm2(arr.field, s, t)
        counts[beta] = counts.get(beta, 0) + 1
    return Arrangement2(arr.field, list(counts)), tuple(counts.values())


def int_path_failures(arr) -> list:
    """Where arr3 disagrees with meets and ziegler_restriction on arr and on its deconing at every H0.

    The flats and the affine points must come out in the same order, chi
    must be the one summed from the flats of meets (the origin's mu read
    from the rank of the normals), the restricted forms, their order and their
    multiplicities must agree, and the cone of each deconing must equal
    the one that the generic constructor canonicalises.
    """
    field = arr.field
    failures = []
    normals = [f.ints for f in arr.forms]
    flats = meets(field, normals)
    lattice = arr3.intersection_lattice(arr)
    if [(f.direction, f.hyperplanes, f.mu) for f in lattice.rank2] != flats:
        failures.append("rank-2 flats")
    lin = sum(mu for _, _, mu in flats)
    origin_mu = arr.h - 1 - lin if exactalg.Matrix(field, normals).rank() == 3 else None
    if lattice.origin_mu != origin_mu:
        failures.append("mu of the origin")
    if arr3.char_poly(arr) != arr3.CharPoly((1, -arr.h, lin, origin_mu or 0)):
        failures.append("chi of the arrangement")
    for h0 in range(arr.h):
        if arr3.ziegler_restriction(arr, h0) != ziegler_restriction(arr, h0):
            failures.append(f"restriction onto H0={h0}")
        aff = arr3.decone(arr, h0)
        coned = [(a, b, -c) for a, b, c in (l.ints for l in aff.forms)]
        if arr3.cone(aff) != (arr3.Arrangement3(field, [*coned, (0, 0, 1)]), aff.k):
            failures.append(f"cone of the deconing at H0={h0}")
        points = [pt for pt in meets(field, coned) if pt[0][2]]
        if list(arr3._in_order(arr3._affine_points(aff))) != points:
            failures.append(f"affine points at H0={h0}")
        if arr3.char_poly(aff) != arr3.CharPoly((1, -aff.k, sum(mu for _, _, mu in points))):
            failures.append(f"chi of the deconing at H0={h0}")
    return failures


CENSUS_NORMALS = [v for v in product((-1, 0, 1), repeat=3) if v > (0, 0, 0)]  # first nonzero entry positive


def census_tally(planes, h0s, counts: dict, failures: list) -> None:
    """The census checks on the arrangement of these planes over Q, with the criteria on its deconings at h0s.

    The verdict must not depend on H0, a free arrangement must satisfy
    Terao's factorisation (Invent. Math. 63, 1981) with the exponent 0 of a
    non-essential arrangement, a pb3 member must be free, and each deconing
    must pass thm_rest_check and thm_rest2_check, whose equality case must
    be where thm_fc_check applies.  Tallies go into counts, and each
    failure is appended to failures as (planes, text).
    """
    arr = arr3.Arrangement3(QQ, planes)
    counts["arrangements"] += 1
    verdicts = {(v.free, v.exponents) for v in (arr3.is_free(arr, h0) for h0 in range(arr.h))}
    if len(verdicts) != 1:
        failures.append((planes, f"verdict depends on H0: {verdicts}"))
        return
    ((free, exps),) = verdicts
    if free:
        counts["free"] += 1
        want = arr3.CharPoly((1,))
        for e in exps:
            want = want * arr3.CharPoly((1, -e))
        if arr3.char_poly(arr) != want:
            failures.append((planes, f"chi = {arr3.char_poly(arr)} does not factor by the exponents {exps}"))
    if arr3.pb3_membership(arr).member:
        counts["pb3"] += 1
        if not free:
            failures.append((planes, "pb3 member is not free"))
    for h0 in h0s:
        aff = arr3.decone(arr, h0)
        counts["deconings"] += 1
        rest = arr3.thm_rest_check(aff)
        counts["rest"] += rest.applicable
        if not rest.passed:
            failures.append((planes, f"thm_rest_check failed at H0={h0}"))
        rest2 = arr3.thm_rest2_check(aff)
        if not rest2.passed:
            failures.append((planes, f"thm_rest2_check failed at H0={h0}: {rest2}"))
        if rest2.applicable:
            counts["rest2"] += 1
            counts["equality"] += rest2.equality
            if arr3.thm_fc_check(aff).applies != rest2.equality:
                failures.append((planes, f"the chamber equality case at H0={h0} is not the product shape"))

"""Exponents and homogeneous bases of derivation modules of 2-multiarrangements.

A 2-multiarrangement is a finite set of pairwise non-proportional linear
forms in two variables together with a nonnegative integer multiplicity
per form.  Its module of tangent derivations is always free of rank two;
this module computes the degrees (d1 <= d2) of a homogeneous basis, the
gap d2 - d1, and canonical basis elements, all in exact arithmetic.

The exponents and the canonical basis both come from a basis built one
unit of multiplicity at a time (the addition step of Abe-Terao-Wakefield):
raising m(H) by one either keeps the lower element and multiplies the
other by alpha_H, or multiplies the lower one by alpha_H and cancels one
residue in the other.  A single query reads each state, through a bounded
cache, from the state one unit below; a lattice scan does not use that
cache, but walks its region one unit step per point (see
:func:`_region_walk`).

Everything is a pure function of immutable values; results are memoised,
so repeated queries are cheap and thread-safe.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .exactalg import (
    BinaryForm,
    FormTuple,
    LinearForm2,
    Matrix,
    canonical_coefficients,
    divisibility_constraints,
    _divide_linear,
    _proportional_scalar,
)

__all__ = [
    "Arrangement2",
    "Multiplicity",
    "Derivation2",
    "Exponents2",
    "derivation_space_dim",
    "exponents",
    "is_balanced",
    "lower_degree_basis",
    "basis",
    "saito_det",
    "saito_criterion",
    "untangent_forms",
    "nonbalanced_exponents",
    "defining_form",
]

Multiplicity = tuple  # tuple[int, ...], aligned with Arrangement2.forms


class Arrangement2(FormTuple):
    """An ordered list of pairwise non-proportional linear forms in 2 variables."""

    __slots__ = ()
    form_type = LinearForm2

    def check_multiplicity(self, m: Sequence[int]) -> Multiplicity:
        mt = tuple(map(operator.index, m))
        h = len(self.forms)
        if len(mt) != h:
            raise ValueError(f"multiplicity has {len(mt)} entries, arrangement has {h}")
        if min(mt) < 0:
            raise ValueError("multiplicities must be nonnegative")
        return mt


@dataclass(frozen=True)
class Exponents2:
    """Basis degrees d1 <= d2 of a 2-multiarrangement; d1 + d2 = |m|."""

    d1: int
    d2: int

    def __post_init__(self):
        if self.d1 > self.d2:
            raise ValueError("exponents must be sorted")

    @property
    def delta(self) -> int:
        return self.d2 - self.d1

    @property
    def pair(self):
        return (self.d1, self.d2)

    @property
    def total(self) -> int:
        return self.d1 + self.d2


@dataclass(frozen=True)
class Derivation2:
    """A derivation f*D1 + g*D2 with homogeneous components of equal degree."""

    f: BinaryForm
    g: BinaryForm

    def __post_init__(self):
        if self.f.field != self.g.field:
            raise TypeError("mixed-field components")
        if self.f.degree != self.g.degree:
            raise ValueError("components must have equal declared degree")

    @property
    def field(self):
        return self.f.field

    @property
    def degree(self) -> int:
        return self.f.degree

    def is_zero(self) -> bool:
        return self.f.is_zero() and self.g.is_zero()

    @classmethod
    def from_vector(cls, field, degree: int, vec: Sequence) -> "Derivation2":
        if len(vec) != 2 * (degree + 1):
            raise ValueError("coefficient vector has wrong length")
        return cls(
            BinaryForm(field, degree, vec[: degree + 1]),
            BinaryForm(field, degree, vec[degree + 1 :]),
        )

    @classmethod
    def euler(cls, field) -> "Derivation2":
        x1 = BinaryForm(field, 1, (field.zero, field.one))
        x2 = BinaryForm(field, 1, (field.one, field.zero))
        return cls(x1, x2)

    @classmethod
    def coordinate(cls, field, i: int) -> "Derivation2":
        """The constant derivation D1 (i=0) or D2 (i=1)."""
        one = BinaryForm(field, 0, (field.one,))
        zero = BinaryForm.zero(field, 0)
        return cls(one, zero) if i == 0 else cls(zero, one)

    def apply_to_linear(self, alpha: LinearForm2) -> BinaryForm:
        """theta(alpha) = a*f + b*g for alpha = a*x1 + b*x2."""
        a, b = alpha.ints
        return self.f.combine(a, self.g, b)

    def apply_to_form(self, form: BinaryForm) -> BinaryForm:
        """theta acting as a derivation on a polynomial."""
        return self.f * form.dx1() + self.g * form.dx2()

    def proportional_scalar(self, other: "Derivation2"):
        """Scalar c with self == c * other, or None."""
        if self.degree != other.degree:
            return None
        return _proportional_scalar(self.field, (self.f, self.g), (other.f, other.g))

    def render(self, names=("x1", "x2")) -> str:
        def wrap(form):
            s = form.render(names)
            return f"({s})" if (" " in s) else s

        return f"{wrap(self.f)}*d{names[0]} + {wrap(self.g)}*d{names[1]}"

    def __repr__(self):
        return f"Derivation2({self.render()})"


def _tangency_matrix(arr: Arrangement2, m: Multiplicity, d: int) -> Matrix:
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
        for row in divisibility_constraints(alpha, k, d).rows:
            rows.append([a * e for e in row] + [b * e for e in row])
    return Matrix(arr.field, rows, ncols=2 * (d + 1))


def derivation_space_dim(arr: Arrangement2, m: Sequence[int], d: int) -> int:
    """Dimension of the degree-d homogeneous part of the derivation module."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    mt = arr.check_multiplicity(m)
    mat = _tangency_matrix(arr, mt, d)
    return mat.ncols - mat.rank()


def exponents(arr: Arrangement2, m: Sequence[int]) -> Exponents2:
    """Exponents (d1, d2), d1 + d2 = |m|, as the degrees of a unit-step basis.

    A basis of D(arr, m) is built from the basis at m - e_j by one addition
    step (see :func:`_unit_step`), so no tangency system is solved.  The
    states sit in a cache bounded at _STATE_CACHE entries, so queries near
    an earlier one pay a few steps.  The lattice verifiers call this only
    for points their region table does not hold.
    """
    return _exponents(arr, arr.check_multiplicity(m))


@lru_cache(maxsize=None)
def _exponents(arr: Arrangement2, m: Multiplicity) -> Exponents2:
    """The degrees of the unit-step state at m; unlike the states, kept for good."""
    d1, d2, _, _ = _unit_state(arr, m)
    return Exponents2(d1, d2)


_STATE_CACHE = 4096  # unit-step states kept for single queries; region scans keep their own
_CHECKPOINT = 128  # states at multiples of this |m| are walked up from the previous one
_BASE_STATE = (0, 0, ((1,), (0,)), ((0,), (1,)))  # D1 and D2, a basis at m = 0


@lru_cache(maxsize=_STATE_CACHE)
def _unit_state(arr: Arrangement2, m: Multiplicity):
    """(d1, d2, theta1, theta2): a basis of D(arr, m), each theta = (f, g).

    f and g are int coefficient vectors in BinaryForm order, primitive over
    Q and residues over GF(p).  The chain to m fills m(H) from the first
    hyperplane on, so the state before m is at m - e_j for j the last
    nonzero index.  A state at a multiple of _CHECKPOINT is walked up from
    the previous multiple without caching the states between, which keeps
    the recursion below _CHECKPOINT + |m| / _CHECKPOINT frames.
    """
    total = sum(m)
    if not total:
        return _BASE_STATE
    start = total - 1 if total % _CHECKPOINT else total - _CHECKPOINT
    steps = [(j, k) for j, v in enumerate(m) for k in range(v)][start:]
    prev = list(m)
    for j, _ in steps:
        prev[j] -= 1
    state = _unit_state(arr, tuple(prev))
    for j, k in steps:
        state = _unit_step(arr.forms[j], k, state)
    return state


def _region_walk(arr: Arrangement2, points, caps: Multiplicity, total, shell: bool):
    """(table, gaps): the exponents at the points of a region, and gaps one step past it.

    points are in lexicographic order, and with each m they hold m - e_j,
    j the last nonzero index of m: all the points under caps (and of |m|
    <= total when total is not None), or the chains of _shell_points.  The
    state at m is one _unit_step from the state at m - e_j: the chain of
    _unit_state, so the states are the same.  path[i] holds the state at
    m[:i + 1] followed by zeros, so only the states of the current path
    are kept.  The table shares one Exponents2 per degree pair.

    With shell, gaps[m][i], for m balanced with a nonzero gap, is the gap at
    m + e_i when that point is outside the region (past cap i or past total),
    and None otherwise; these are the outside points a gap ascent from inside
    the region reads, all balanced (see lattice.verify_theorem_str).  The
    first residue c1 of the step from m decides it (see :func:`_unit_step`):
    c1 = 0 raises d2, so the gap grows by one; otherwise d1 rises, and as
    d1 < d2 at m, the gap falls by one.  Without shell, gaps is None.
    """
    forms, h = arr.forms, len(caps)
    path = [_BASE_STATE] * h
    table, pairs, gaps = {}, {}, {} if shell else None
    for m in points:
        j = h - 1
        while j >= 0 and not m[j]:
            j -= 1
        if j < 0:
            state = _BASE_STATE
        else:
            state = _unit_step(forms[j], m[j] - 1, path[j])
            path[j:] = [state] * (h - j)
        d1, d2 = key = state[:2]
        table[m] = pairs.get(key) or pairs.setdefault(key, Exponents2(d1, d2))
        if gaps is None or d1 == d2 or not _balanced(m):
            continue
        out = _outward(m, caps, total)
        if out:
            row = [None] * h
            for i in out:
                row[i] = d2 - d1 + (-1 if _residue(forms[i], m[i], d1, state[2]) else 1)
            gaps[m] = tuple(row)
    return table, gaps


def _outward(m: Multiplicity, caps: Multiplicity, total) -> Sequence[int]:
    """The i for which m + e_i is past cap i or past total."""
    if total is not None and sum(m) == total:
        return range(len(m))
    return [i for i, (v, cap) in enumerate(zip(m, caps)) if v == cap]


def _shell_points(table: dict, caps: Multiplicity, total) -> list:
    """The points a _region_walk must visit to add the shell to a table walked without it.

    These are the points that hold shell gaps, balanced with a nonzero gap
    and on the rim of the region, and the chains below them, in
    lexicographic order.
    """
    need = set()
    for m, e in table.items():
        if e.delta and _balanced(m) and _outward(m, caps, total):
            while m not in need and any(m):
                need.add(m)
                j = max(i for i, v in enumerate(m) if v)
                m = m[:j] + (m[j] - 1,) + m[j + 1 :]
    return sorted(need)


def _unit_step(alpha: LinearForm2, k: int, state):
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
        d2, t2 = d2 + 1, _times_alpha(a, b, p, t2)
    else:
        c2 = _residue(alpha, k, d2, t2)
        delta = d2 - d1
        pad = (0,) * delta
        if b:
            s, lifted = (-b if a else 1), tuple(pad + v for v in t1)
        else:
            s, lifted = a, tuple(v + pad for v in t1)
        c1 *= pow(s, delta, p or None)
        combo = tuple(tuple(c1 * x - c2 * y for x, y in zip(v, w)) for v, w in zip(t2, lifted))
        d1, t1, t2 = d1 + 1, _times_alpha(a, b, p, t1), _normalise(p, combo)
        if d1 > d2:
            d1, d2, t1, t2 = d2, d1, t2, t1
    return d1, d2, t1, t2


def _residue(alpha: LinearForm2, k: int, d: int, theta) -> int:
    """Row k of the degree-d divisibility rows applied to theta(alpha), in one Horner pass.

    Row k holds C(i, k) * (-b)^(i-k) * a^(d-i) at column i (see
    exactalg.divisibility_constraints), so the residue is the Horner sum
    acc = acc*a + C(i, k) * (-b)^(i-k) * (a*f[i] + b*g[i]) for i = k .. d,
    with the binomial and the power of -b carried from one i to the next.
    Over GF(p), acc and the power are reduced mod p at each i; the binomial
    stays an exact int, since it is updated by a division.  It is 0 for
    k > d, and b * g[d - k] for alpha = x2, whose row k is a unit row.
    """
    if k > d:
        return 0
    a, b = alpha.ints
    f, g = theta
    p = alpha.field.char
    if not a:
        c = b * g[d - k]
        return c % p if p else c
    acc, comb, pb = 0, 1, 1  # the sum so far, C(i, k) and (-b)^(i-k)
    if p:
        for i in range(k, d + 1):
            acc = (acc * a + comb * pb * (a * f[i] + b * g[i])) % p
            comb = comb * (i + 1) // (i + 1 - k)
            pb = -b * pb % p
        return acc
    for i in range(k, d + 1):
        acc = acc * a + comb * pb * (a * f[i] + b * g[i])
        comb = comb * (i + 1) // (i + 1 - k)
        pb *= -b
    return acc


def _times_alpha(a: int, b: int, p: int, theta):
    """alpha * theta for alpha = a*x1 + b*x2 (index i holds x1^i), reduced mod p over GF(p).

    Over Q no gcd is taken: alpha's ints are primitive, and so is every
    unit-step state, so alpha * theta is primitive by Gauss's lemma.
    """
    if p:
        return tuple(tuple((a * x + b * y) % p for x, y in zip((0,) + v, v + (0,))) for v in theta)
    return tuple(tuple(a * x + b * y for x, y in zip((0,) + v, v + (0,))) for v in theta)


def _normalise(p: int, theta):
    """theta reduced mod p, or divided by the gcd of its entries over Q."""
    if p:
        return tuple(tuple(x % p for x in v) for v in theta)
    g = math.gcd(*theta[0], *theta[1])
    return theta if g == 1 else tuple(tuple(x // g for x in v) for v in theta)


def is_balanced(arr: Arrangement2, m: Sequence[int]) -> bool:
    """True iff no hyperplane carries more than half the total multiplicity."""
    return _balanced(arr.check_multiplicity(m))


def _balanced(mt: Multiplicity) -> bool:
    """is_balanced for a multiplicity already checked against its arrangement."""
    return 2 * max(mt) <= sum(mt)


def lower_degree_basis(arr: Arrangement2, m: Sequence[int]) -> Derivation2:
    """Canonical nonzero derivation of minimal degree d1.

    It is the first vector Matrix.kernel gives for the degree-d1 tangency
    system, read off the unit-step state (see :func:`_canonical_basis`):
    unique up to scalar for d1 < d2, a deterministic convention for d1 == d2.
    """
    mt = arr.check_multiplicity(m)
    if sum(mt) == 0:
        raise ValueError("|m| = 0: every constant derivation is tangent, no canonical choice")
    return _canonical_basis(arr, mt)[0]


@lru_cache(maxsize=_STATE_CACHE)
def _canonical_basis(arr: Arrangement2, m: Multiplicity):
    """(theta1, theta2) of :func:`basis`, read off the unit-step state at m.

    Read as f then g, Matrix.kernel gives one vector per last nonzero index
    of the null space, zero at the other such indices, leading 1, ascending.
    theta1 is the lower state element, or at d1 == d2 the one ending first,
    zeroed where the other ends.  The kernel vectors before theta2 lie in
    theta1*S_delta, so theta2 is the other element zeroed where each
    x1^i*x2^(delta-i)*theta1 ends, for i from delta down to 0.
    """
    d1, d2, lo, hi = _unit_state(arr, m)
    p, delta = arr.field.char, d2 - d1
    if d1 == d2:
        lo, hi = sorted((lo, hi), key=_last_index)
        lo = _cancel(p, lo, hi)
    for i in range(delta, -1, -1):
        hi = _cancel(p, hi, tuple((0,) * i + v + (0,) * (delta - i) for v in lo))
    return _leading_one(arr.field, d1, lo), _leading_one(arr.field, d2, hi)


def _last_index(theta) -> int:
    """The last nonzero index of theta read as f then g."""
    return max(i for i, x in enumerate(theta[0] + theta[1]) if x)


def _cancel(p: int, theta, other):
    """theta plus a multiple of other, up to a scalar, zero where other ends."""
    k = _last_index(other)
    x, y = (theta[0] + theta[1])[k], (other[0] + other[1])[k]
    return _normalise(p, tuple(tuple(y * s - x * t for s, t in zip(v, w)) for v, w in zip(theta, other)))


def _leading_one(field, d: int, theta) -> Derivation2:
    """theta as a degree-d Derivation2 whose first nonzero coefficient is 1."""
    lead = next(x for x in theta[0] + theta[1] if x)
    return Derivation2(*(BinaryForm.from_ints(field, d, v, 1, lead) for v in theta))


def defining_form(arr: Arrangement2, m: Sequence[int]) -> BinaryForm:
    """The product of alpha_H^{m(H)} over the arrangement."""
    mt = arr.check_multiplicity(m)
    out = BinaryForm(arr.field, 0, (arr.field.one,))
    for alpha, k in zip(arr.forms, mt):
        if k:
            out = out * alpha.power(k)
    return out


def saito_det(theta1: Derivation2, theta2: Derivation2) -> BinaryForm:
    """The determinant f1*g2 - f2*g1 of the coefficient matrix."""
    return theta1.f * theta2.g - theta2.f * theta1.g


def untangent_forms(arr: Arrangement2, m: Sequence[int], theta: Derivation2) -> list:
    """The forms alpha of arr for which alpha^m(H) does not divide theta(alpha).

    theta lies in D(arr, m) iff the list is empty.  The test is synthetic
    division by alpha, independent of the rows the exponent solver uses.
    """
    mt = arr.check_multiplicity(m)
    if theta.field != arr.field:
        raise TypeError("mixed-field operands")
    return [alpha for alpha, k in zip(arr.forms, mt) if not _divides_image(alpha, k, theta)]


def _divides_image(alpha: LinearForm2, k: int, theta: Derivation2) -> bool:
    """binary_form_divides(alpha, k, theta.apply_to_linear(alpha)), on one int vector.

    theta(alpha) = a*f + b*g is formed as u*f.ints + v*g.ints, a multiple of
    it by the nonzero int cf.den * cg.den over Q (cf, cg the contents), and
    as residues over GF(p); no BinaryForm is built.
    """
    if k == 0:
        return True
    a, b = alpha.ints
    f, g = theta.f, theta.g
    p = alpha.field.char
    if p:
        image = [(a * x + b * y) % p for x, y in zip(f.ints, g.ints)]
    else:
        cf, cg = f.content, g.content
        u, v = a * cf.numerator * cg.denominator, b * cg.numerator * cf.denominator
        image = [u * x + v * y for x, y in zip(f.ints, g.ints)]
    if not any(image):
        return True
    if k > theta.degree:
        return False
    return _divide_linear(alpha, k, image) is not None


def saito_criterion(arr: Arrangement2, m: Sequence[int], theta1: Derivation2, theta2: Derivation2):
    """Saito's criterion for the pair (theta1, theta2) at (arr, m): (tangent, scalar).

    The pair is a basis of D(arr, m) iff both derivations are tangent and
    det(theta1, theta2) = c * Q(arr, m) with c != 0.  tangent is the first
    condition; scalar is c, 0 for a zero determinant, or None when the
    determinant is not a multiple of the defining form.  Q(arr, m) is not
    built: the determinant's ints are divided by each alpha_H^m(H) in turn
    (see :func:`exactalg._divide_linear`), and c is the determinant's
    content times the constant left.
    """
    mt = arr.check_multiplicity(m)
    tangent = not (untangent_forms(arr, mt, theta1) or untangent_forms(arr, mt, theta2))
    det = saito_det(theta1, theta2)
    if det.degree != sum(mt):
        return tangent, None
    q = det.ints
    for alpha, k in zip(arr.forms, mt):
        q = _divide_linear(alpha, k, q)
        if q is None:
            return tangent, None
    return tangent, arr.field(q[0]) * det.content


def basis(arr: Arrangement2, m: Sequence[int]):
    """A homogeneous basis (theta1, theta2) with degrees (d1, d2).

    theta1 is lower_degree_basis; theta2 is the first degree-d2 kernel vector
    whose determinant with theta1 is nonzero (see :func:`_canonical_basis`).
    The pair is certified by :func:`saito_criterion`: both are tangent and
    their determinant is a nonzero scalar multiple of the defining form.
    """
    mt = arr.check_multiplicity(m)
    if sum(mt) == 0:
        raise ValueError("|m| = 0 has no canonical basis choice")
    theta1, theta2 = _canonical_basis(arr, mt)
    tangent, scalar = saito_criterion(arr, mt, theta1, theta2)
    if not scalar:
        raise RuntimeError(
            "independent pair fails the determinant criterion (solver bug): "
            f"det={saito_det(theta1, theta2).render()}, "
            f"expected scalar multiple of {defining_form(arr, mt).render()}"
        )
    if not tangent:
        raise RuntimeError(
            f"basis pair is not tangent at m={mt} (solver bug): "
            f"theta1={theta1.render()}, theta2={theta2.render()}"
        )
    return theta1, theta2


def nonbalanced_exponents(arr: Arrangement2, m: Sequence[int]):
    """Closed-form exponents and lower basis for a non-balanced multiplicity.

    With K the unique hyperplane carrying more than half of |m|, the
    exponents are {m(K), |m| - m(K)} and the product of the other forms
    times the constant derivation annihilating alpha_K realises the
    lower degree.
    """
    mt = arr.check_multiplicity(m)
    total = sum(mt)
    k_idx = next((i for i, v in enumerate(mt) if 2 * v > total), None)
    if k_idx is None:
        raise ValueError("multiplicity is balanced; use exponents() instead")
    alpha_k = arr.forms[k_idx]
    u, v = canonical_coefficients(arr.field, (-alpha_k.ints[1], alpha_k.ints[0]))
    prod = defining_form(arr, mt[:k_idx] + (0,) + mt[k_idx + 1 :])
    theta = Derivation2(prod.scaled(u), prod.scaled(v))
    if untangent_forms(arr, mt, theta):
        raise RuntimeError("constructed fast-path derivation is not tangent (solver bug)")
    lo, hi = sorted((mt[k_idx], total - mt[k_idx]))
    return Exponents2(lo, hi), theta

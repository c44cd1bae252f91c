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
residue in the other.  One walk (see :func:`_walk`) builds the states
that callers read a basis off, from the closed-form basis alpha1^m1 * E2,
alpha2^m2 * E1 of the first two lines (E_i the constant derivation that
kills alpha_i), one unit step per unit of multiplicity on the other
lines: a single query walks its one point and caches only the state it
ends at, and the shift certificate walks the 0/1 box.  A lattice scan
walks its region from m = 0 in a walk of its own (see
:func:`_region_walk`): most of its leaves take only a step's first
residue and build no state, which a walk that yields every state cannot
skip.  The canonical elements are read off whichever basis a state
holds; the lower one alone when only it is asked for.  No tangency
system is solved: ``exactalg.Matrix`` has no caller in the library, and
is kept for the benchmark's tracer and as a test oracle.

Everything is a pure function of immutable values; the one memo is the
bounded cache of the state a single query ends at (see :func:`_unit_state`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .exactalg import (
    BinaryForm,
    FormTuple,
    LinearForm2,
    canonical_coefficients,
    _divide_linear,
    _format_ints,
    _normal,
    _proportional_scalar,
    _render_form,
)
from .stats import counts

__all__ = [
    "Arrangement2",
    "Multiplicity",
    "Derivation2",
    "Exponents2",
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


class Derivation2:
    """A derivation f*D1 + g*D2 with homogeneous components of equal degree.

    It is held as ``content * ints``, with ``ints = (f, g)`` two int
    vectors in BinaryForm order: over Q jointly primitive with the first
    nonzero entry positive, and ``content`` an exact Fraction (0 for the
    zero derivation); over GF(p) residues, and ``content`` 1.  Each
    derivation has one such representation, so equality and hash read it.
    The connection, Saito's criterion and the output (see
    :meth:`coefficient_strings`) run on the ints, with no scalar per
    coefficient; ``f`` and ``g`` are BinaryForms built from the ints on
    each read, and ``__init__`` keeps no reference to the forms it is given.
    """

    __slots__ = ("field", "degree", "ints", "content")
    f = property(lambda self: self._component(0))
    g = property(lambda self: self._component(1))

    def __init__(self, f: BinaryForm, g: BinaryForm):
        if f.field != g.field:
            raise TypeError("mixed-field components")
        if f.degree != g.degree:
            raise ValueError("components must have equal declared degree")
        (u, du), (v, dv) = (f.content.as_integer_ratio(), g.content.as_integer_ratio())
        self._set(f.field, f.degree, [u * dv * x for x in f.ints] + [v * du * y for y in g.ints], 1, du * dv)

    def _set(self, field, degree: int, ints, num: int, den: int) -> None:
        ints, self.content = _normal(field, ints, num, den)
        self.field, self.degree = field, degree
        self.ints = (ints[: degree + 1], ints[degree + 1 :])

    @classmethod
    def from_ints(cls, field, degree: int, f: Sequence[int], g: Sequence[int], num: int = 1, den: int = 1):
        """The derivation (num / den) * (f, g), for int vectors f, g in BinaryForm order and den != 0."""
        out = object.__new__(cls)
        out._set(field, degree, (*f, *g), num, den)
        return out

    def _component(self, i: int) -> BinaryForm:
        return BinaryForm.from_ints(self.field, self.degree, self.ints[i], *self.content.as_integer_ratio())

    def is_zero(self) -> bool:
        return not (any(self.ints[0]) or any(self.ints[1]))

    @classmethod
    def euler(cls, field) -> "Derivation2":
        return cls.from_ints(field, 1, (0, 1), (1, 0))

    @classmethod
    def coordinate(cls, field, i: int) -> "Derivation2":
        """The constant derivation D1 (i=0) or D2 (i=1)."""
        return cls.from_ints(field, 0, (1 - i,), (i,))

    def apply_to_linear(self, alpha: LinearForm2) -> BinaryForm:
        """theta(alpha) = a*f + b*g for alpha = a*x1 + b*x2."""
        a, b = alpha.ints
        image = [a * x + b * y for x, y in zip(*self.ints)]
        return BinaryForm.from_ints(self.field, self.degree, image, *self.content.as_integer_ratio())

    def proportional_scalar(self, other: "Derivation2"):
        """Scalar c with self == c * other, or None."""
        if self.degree != other.degree:
            return None
        (f, g), (u, v) = self.ints, other.ints
        return _proportional_scalar(self.field, f + g, self.content, u + v, other.content)

    def coefficient_strings(self):
        """(f, g) as lists of field.format strings, read off the ints."""
        return tuple(_format_ints(v, self.content) for v in self.ints)

    def render(self) -> str:
        return _render_derivation(*self.coefficient_strings())

    def _key(self):
        return self.field, self.degree, self.ints, self.content

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is Derivation2 else NotImplemented

    def __hash__(self):
        return hash((self.field.char, self.degree, self.ints, self.content))

    def __repr__(self):
        return f"Derivation2({self.render()})"


def _render_derivation(f, g) -> str:
    """The text f*dx1 + g*dx2 of a derivation, from the coefficient strings of its f and g."""

    def wrap(strings):
        s = _render_form(strings)
        return f"({s})" if (" " in s) else s

    return f"{wrap(f)}*dx1 + {wrap(g)}*dx2"


def exponents(arr: Arrangement2, m: Sequence[int]) -> Exponents2:
    """Exponents (d1, d2), d1 + d2 = |m|, as the degrees of a unit-step basis.

    A basis of D(arr, m) is built from the basis at m - e_j by one addition
    step (see :func:`_unit_step`), from the closed form on the first two
    lines on (see :func:`_walk`), so no tangency system is solved and
    m takes Sum_{i>=2} m(H_i) steps (see :func:`_unit_state`).  The lattice
    verifiers call this only for points their region table does not hold.
    """
    d1, d2, _, _ = _unit_state(arr, arr.check_multiplicity(m))
    return Exponents2(d1, d2)


_BASE_STATE = (0, 0, ((1,), (0,)), ((0,), (1,)))  # D1 and D2, a basis at m = 0


@lru_cache(maxsize=4096)  # states only, the one memo of single queries; region scans keep their own
def _unit_state(arr: Arrangement2, m: Multiplicity):
    """(d1, d2, theta1, theta2): a basis of D(arr, m), each theta = (f, g).

    f and g are int coefficient vectors in BinaryForm order, primitive over
    Q and residues over GF(p).  It is the walk of the one point m, so a
    miss takes Sum_{i>=2} m(H_i) steps whatever was asked before.  Only
    the state at m is cached: exponents, lower_degree_basis and basis
    read their answers off it on each call, so asking all three at m
    walks once.
    """
    (state,) = _walk(arr, (m,))
    return state


def _walk(arr: Arrangement2, points):
    """The unit-step state at each point of points, which are cheapest in lexicographic order.

    For h >= 2 a state starts at the closed form of :func:`_two_line_state`
    on the first two lines and fills m(H) from the third line on (from the
    first for h = 1), one unit step each.  path[i] holds the state at
    m[:i + 1] followed by zeros.  A point with the first two entries of the
    point before, and above it at the first index i where the two differ,
    keeps the path below i and steps on from path[i], the state at
    m[:i] + (prev[i],), as prev[i] < m[i]; any other point, a lower one
    included, starts again from the closed form.  Each state is that of
    the point alone, and on sorted points each is built once, so the box
    {0,1}^h takes 2^h - 4 steps for h >= 2.
    """
    forms, h, prev = arr.forms, arr.h, None
    start = 2 if h > 1 else 0
    for m in points:
        if prev is None or m[:start] != prev[:start] or m[start:] < prev[start:]:
            prev = m[:start] + (0,) * (h - start)
            path = [_two_line_state(arr, m) if any(m[:start]) else _BASE_STATE] * h
        i = min(start, h - 1)  # path[h - 1] is the state at prev
        while i < h - 1 and m[i] == prev[i]:
            i += 1
        state, k = path[i], prev[i]
        steps = sum(m[i:]) - k
        for j in range(i, h):
            for n in range(k, m[j]):
                state = _unit_step(forms[j], n, state)
            path[j], k = state, 0
        counts["multiarr2.unit_steps"] += steps
        counts["multiarr2.residues"] += steps
        prev = m
        yield state


def _two_line_state(arr: Arrangement2, m: Multiplicity):
    """The state at m = (m1, m2, 0, ...): alpha1^m1 * E2 and alpha2^m2 * E1, lower degree first.

    E_i = (b_i, -a_i) is the constant derivation that kills alpha_i =
    a_i*x1 + b_i*x2, so alpha1^m1 * E2 is tangent to both lines, and so is
    alpha2^m2 * E1.  Their determinant is alpha1^m1 * alpha2^m2 * (a2*b1 -
    a1*b2), a nonzero multiple of the defining form in every
    characteristic, so Saito's criterion makes them a basis.  Over Q both
    are primitive (Gauss's lemma), as every state is.
    """
    p = arr.field.char
    (a1, b1), (a2, b2) = arr.forms[0].ints, arr.forms[1].ints
    m1, m2 = m[0], m[1]
    one = _derivation_times_power(a1, b1, p, m1, b2, -a2)
    two = _derivation_times_power(a2, b2, p, m2, b1, -a1)
    return (m1, m2, one, two) if m1 <= m2 else (m2, m1, two, one)


def _derivation_times_power(a: int, b: int, p: int, k: int, u: int, v: int):
    """(u, v) * alpha^k for alpha = a*x1 + b*x2, reduced mod p over GF(p).

    Index i of alpha^k holds C(k, i) * a^i * b^(k-i), from the powers of a
    and b and the binomial carried from one i to the next.
    """
    pa, pb = [1], [1]
    for _ in range(k):
        pa.append(a * pa[-1] % p if p else a * pa[-1])
        pb.append(b * pb[-1] % p if p else b * pb[-1])
    power, comb = [], 1
    for i in range(k + 1):
        power.append(comb * pa[i] * pb[k - i])
        comb = comb * (k - i) // (i + 1)
    if p:
        return tuple([u * x % p for x in power]), tuple([v * x % p for x in power])
    return tuple([u * x for x in power]), tuple([v * x for x in power])


def _region_walk(arr: Arrangement2, points, caps: Multiplicity, total):
    """(table, shell): the exponents at the points of a region, and at the points one step past it.

    points are the points under caps (and of |m| <= total when total is not
    None) in lexicographic order, so each m comes after m - e_j, j the last
    nonzero index of m.  The state at m is one _unit_step from the state at
    m - e_j, as in :func:`_walk`; but this walk starts at m = 0, not at the
    closed form on the first two lines, so its states and those of _walk
    are in general different bases of one module.  It is kept apart from
    _walk for its leaves (below), most of which build no state.  path[i]
    holds the state at m[:i + 1] followed by zeros, so only the states of
    the current path are kept.  The table and the shell share one Exponents2
    per degree pair.

    A leaf is a point with no m + e_i in the region for i >= j: its last
    coordinate of nonzero cap is at that cap, or |m| = total.  No later
    point steps from a leaf, so it leaves path alone, and it takes its
    degrees from the first residue c1 of the step (see :func:`_unit_step`):
    d1 rises if c1 != 0 and d1 < d2, else d2 rises (at d1 = d2 both
    branches of the step give d1, d1 + 1).  It builds its state, the rest
    of the step from that c1, only when its shell entries read it.

    The shell holds the exponents at m + e_i, outside the region (past cap i
    or past total), for each m of the region balanced with a nonzero gap:
    the outside points a gap ascent from inside the region reads, all
    balanced (see lattice.verify_theorem_str).  The first residue of the
    step from m decides them the same way, with d1 + 1 <= d2 as d1 < d2 at
    m.  A point that two points of the rim reach (only past total) is read
    once.
    """
    forms, h = arr.forms, len(caps)
    last = max([i for i, c in enumerate(caps) if c], default=0)  # a box leaf has m[last] == caps[last]
    path = [_BASE_STATE] * h
    table, shell, pairs = {}, {}, {}
    for m in points:
        j = h - 1
        while j >= 0 and not m[j]:
            j -= 1
        if j < 0:
            state = _BASE_STATE
        elif m[last] == caps[last] or (total is not None and sum(m) == total):  # a leaf
            d1, d2, t1, _ = state = path[j]
            c1 = _residue(forms[j], m[j] - 1, d1, t1)
            if c1 and d1 < d2:
                d1 += 1
            else:
                d2 += 1
            if d1 == d2 or not _balanced(m):  # its shell entries read no state
                table[m] = pairs.get((d1, d2)) or pairs.setdefault((d1, d2), Exponents2(d1, d2))
                continue
            state = _unit_step(forms[j], m[j] - 1, state, c1)
        else:
            state = _unit_step(forms[j], m[j] - 1, path[j])
            path[j:] = [state] * (h - j)
        d1, d2 = key = state[:2]
        table[m] = pairs.get(key) or pairs.setdefault(key, Exponents2(d1, d2))
        if d1 == d2 or not _balanced(m):
            continue
        for i in _outward(m, caps, total):
            out = m[:i] + (m[i] + 1,) + m[i + 1 :]
            if out not in shell:
                pair = (d1 + 1, d2) if _residue(forms[i], m[i], d1, state[2]) else (d1, d2 + 1)
                shell[out] = pairs.get(pair) or pairs.setdefault(pair, Exponents2(*pair))
    steps = len(table) - ((0,) * h in table)
    counts["multiarr2.unit_steps"] += steps
    counts["multiarr2.residues"] += steps + len(shell)
    return table, shell


def _outward(m: Multiplicity, caps: Multiplicity, total) -> Sequence[int]:
    """The i for which m + e_i is past cap i or past total."""
    if total is not None and sum(m) == total:
        return range(len(m))
    return [i for i, (v, cap) in enumerate(zip(m, caps)) if v == cap]


def _unit_step(alpha: LinearForm2, k: int, state, c1=None):
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
    only when c1 != 0, and c1 only when the caller has not read it (a leaf
    of :func:`_region_walk`).  Over Q every state is primitive, so alpha *
    theta needs no gcd (Gauss's lemma); only the combination is divided by
    the gcd of its entries.  Over GF(p) everything is reduced mod p.  Each
    component is built by one list comprehension, with no helper call but
    the residues and alpha * theta.
    """
    p = alpha.field.char
    a, b = alpha.ints
    d1, d2, t1, t2 = state
    if c1 is None:
        c1 = _residue(alpha, k, d1, t1)
    if not c1:
        return d1, d2 + 1, t1, _times_alpha(a, b, p, t2)
    c2 = _residue(alpha, k, d2, t2)
    counts["multiarr2.residues"] += 1  # the first residue is counted in bulk with the step
    delta = d2 - d1
    (f1, g1), (f2, g2) = t1, t2
    if delta:
        pad = (0,) * delta
        if b:
            c1 *= pow(-b if a else 1, delta, p or None)
            f1, g1 = pad + f1, pad + g1
        else:
            c1 *= pow(a, delta, p or None)
            f1, g1 = f1 + pad, g1 + pad
    if p:
        f = tuple([(c1 * x - c2 * y) % p for x, y in zip(f2, f1)])
        g = tuple([(c1 * x - c2 * y) % p for x, y in zip(g2, g1)])
    else:
        f = [c1 * x - c2 * y for x, y in zip(f2, f1)]
        g = [c1 * x - c2 * y for x, y in zip(g2, g1)]
        n = math.gcd(*f, *g)
        if n == 1:
            f, g = tuple(f), tuple(g)
        else:
            f, g = tuple([x // n for x in f]), tuple([x // n for x in g])
    if d1 < d2:
        return d1 + 1, d2, _times_alpha(a, b, p, t1), (f, g)
    return d2, d1 + 1, (f, g), _times_alpha(a, b, p, t1)


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
    unit-step state, so alpha * theta is primitive by Gauss's lemma.  For
    alpha = x1 and x2 (canonical, so a = 1 or b = 1) it only shifts theta.
    Each of the two components is built by one list comprehension.
    """
    f, g = theta
    if not b:
        return (0,) + f, (0,) + g
    if not a:
        return f + (0,), g + (0,)
    if p:
        return (
            tuple([(a * x + b * y) % p for x, y in zip((0,) + f, f + (0,))]),
            tuple([(a * x + b * y) % p for x, y in zip((0,) + g, g + (0,))]),
        )
    return (
        tuple([a * x + b * y for x, y in zip((0,) + f, f + (0,))]),
        tuple([a * x + b * y for x, y in zip((0,) + g, g + (0,))]),
    )


def _normalise(p: int, theta):
    """theta reduced mod p, or divided by the gcd of its entries over Q."""
    if p:
        return tuple(tuple([x % p for x in v]) for v in theta)
    g = math.gcd(*theta[0], *theta[1])
    return theta if g == 1 else tuple(tuple([x // g for x in v]) for v in theta)


def is_balanced(arr: Arrangement2, m: Sequence[int]) -> bool:
    """True iff no hyperplane carries more than half the total multiplicity."""
    return _balanced(arr.check_multiplicity(m))


def _balanced(mt: Multiplicity) -> bool:
    """is_balanced for a multiplicity already checked against its arrangement."""
    return 2 * max(mt) <= sum(mt)


def _heavy_line(mt: Multiplicity) -> int | None:
    """The index of the line that carries more than half of |mt|, or None when mt is balanced."""
    total = sum(mt)
    return next((i for i, v in enumerate(mt) if 2 * v > total), None)


def lower_degree_basis(arr: Arrangement2, m: Sequence[int]) -> Derivation2:
    """Canonical nonzero derivation of minimal degree d1.

    It is the first vector Matrix.kernel gives for the degree-d1 tangency
    system, read off the cached unit-step state with no work on theta2 (see
    :func:`_canonical_basis`): unique up to scalar for d1 < d2, a
    deterministic convention for d1 == d2.
    """
    mt = arr.check_multiplicity(m)
    if sum(mt) == 0:
        raise ValueError("|m| = 0: every constant derivation is tangent, no canonical choice")
    d1, _, lo, _ = _lower_state(arr.field.char, _unit_state(arr, mt))
    return _leading_one(arr.field, d1, lo)


def _lower_state(p: int, state):
    """state with theta1 put as the kernel's first degree-d1 vector, up to a scalar.

    theta1 is the lower state element, or at d1 == d2 the one ending first,
    zeroed where the other ends; theta2 is left as the state holds it.
    """
    d1, d2, lo, hi = state
    if d1 == d2:
        lo, hi = sorted((lo, hi), key=_last_entry)
        lo = _cancel(p, lo, hi, *_last_entry(hi))
    return d1, d2, lo, hi


def _canonical_basis(arr: Arrangement2, state):
    """(theta1, theta2) of :func:`basis`, read off a unit-step state of arr.

    Read as f then g, Matrix.kernel gives one vector per last nonzero index
    of the null space, zero at the other such indices, leading 1, ascending.
    theta1 is that of :func:`_lower_state`, as :func:`lower_degree_basis`
    reads it.  The kernel vectors before theta2 lie in theta1*S_delta, so
    theta2 is the other element zeroed where each x1^i*x2^(delta-i)*theta1
    ends, for i from delta down to 0.  Any basis of D(arr, m) gives the same
    pair, so the state may come from any walk to m.
    """
    p = arr.field.char
    d1, d2, lo, hi = _lower_state(p, state)
    delta = d2 - d1
    part, j = _last_entry(lo)
    for i in range(delta, -1, -1):
        if hi[part][j + i]:  # else hi is zero there already
            hi = _cancel(p, hi, tuple((0,) * i + v + (0,) * (delta - i) for v in lo), part, j + i)
    return _leading_one(arr.field, d1, lo), _leading_one(arr.field, d2, hi)


def _last_entry(theta):
    """(part, i): theta[part][i] is the last nonzero entry of theta read as f then g."""
    part = 1 if any(theta[1]) else 0
    return part, max(i for i, x in enumerate(theta[part]) if x)


def _cancel(p: int, theta, other, part: int, i: int):
    """theta plus a multiple of other, up to a scalar, zero at theta[part][i], where other ends."""
    x, y = theta[part][i], other[part][i]
    return _normalise(p, tuple(tuple([y * s - x * t for s, t in zip(v, w)]) for v, w in zip(theta, other)))


def _leading_one(field, d: int, theta) -> Derivation2:
    """theta as a degree-d Derivation2 whose first nonzero coefficient is 1."""
    lead = next(x for x in theta[0] + theta[1] if x)
    return Derivation2.from_ints(field, d, *theta, 1, lead)


def defining_form(arr: Arrangement2, m: Sequence[int]) -> BinaryForm:
    """The product of alpha_H^{m(H)} over the arrangement."""
    mt = arr.check_multiplicity(m)
    q = (1,)
    for alpha, k in zip(arr.forms, mt):
        for _ in range(k):
            q, _ = _times_alpha(*alpha.ints, arr.field.char, (q, q))
    return BinaryForm.from_ints(arr.field, sum(mt), q)


def _convolve(terms, size: int) -> list:
    """The size ints of the sum of s * u * v over terms (s, u, v), for int vectors u, v in BinaryForm order."""
    out = [0] * size
    for s, u, v in terms:
        for i, x in enumerate(u):
            if x:
                x *= s
                for j, y in enumerate(v, i):
                    out[j] += x * y
    return out


def _content_product(theta1: Derivation2, theta2: Derivation2):
    """(num, den) of the product of the two contents, with no Fraction built."""
    (n1, d1), (n2, d2) = theta1.content.as_integer_ratio(), theta2.content.as_integer_ratio()
    return n1 * n2, d1 * d2


def saito_det(theta1: Derivation2, theta2: Derivation2) -> BinaryForm:
    """The determinant f1*g2 - f2*g1 of the coefficient matrix, as one int convolution."""
    if theta1.field != theta2.field:
        raise TypeError("mixed-field operands")
    (f1, g1), (f2, g2) = theta1.ints, theta2.ints
    d = theta1.degree + theta2.degree
    det = _convolve(((1, f1, g2), (-1, f2, g1)), d + 1)
    return BinaryForm.from_ints(theta1.field, d, det, *_content_product(theta1, theta2))


def untangent_forms(arr: Arrangement2, m: Sequence[int], theta: Derivation2) -> list:
    """The forms alpha of arr for which alpha^m(H) does not divide theta(alpha).

    theta lies in D(arr, m) iff the list is empty.  The test is synthetic
    division by alpha, independent of the rows the exponent solver uses.
    """
    if theta.field != arr.field:
        raise TypeError("mixed-field operands")
    return _untangent(arr, arr.check_multiplicity(m), theta.ints)


def _untangent(arr: Arrangement2, mt: Multiplicity, theta) -> list:
    """untangent_forms for a multiplicity checked against arr and theta = (f, g) on ints."""
    return [alpha for alpha, k in zip(arr.forms, mt) if k and not _divides_image(alpha, k, theta)]


def _divides_image(alpha: LinearForm2, k: int, theta) -> bool:
    """binary_form_divides(alpha, k, theta(alpha)) for k > 0, on the ints (f, g) of theta.

    theta(alpha) = a*f + b*g, up to theta's content, which is nonzero and
    does not change what divides it; no BinaryForm is built.  f and g are
    residues over GF(p), and over Q any int multiple of a derivation's
    ints.  For alpha = x1 or x2 (canonical: (a, b) = (1, 0) or (0, 1)) the
    image is f or g itself.
    """
    a, b = alpha.ints
    f, g = theta
    p = alpha.field.char
    if not b:
        image = f
    elif not a:
        image = g
    elif p:
        image = [(a * x + b * y) % p for x, y in zip(f, g)]
    else:
        image = [a * x + b * y for x, y in zip(f, g)]
    if not any(image):
        return True
    if k >= len(f):
        return False
    return _divide_linear(alpha, k, image) is not None


def saito_criterion(arr: Arrangement2, m: Sequence[int], theta1: Derivation2, theta2: Derivation2):
    """Saito's criterion for the pair (theta1, theta2) at (arr, m): (tangent, scalar).

    The pair is a basis of D(arr, m) iff both derivations are tangent and
    det(theta1, theta2) = c * Q(arr, m) with c != 0.  tangent is the first
    condition; scalar is c, 0 for a zero determinant, or None when the
    determinant is not a multiple of the defining form.  Everything runs
    on the ints of the pair (see :func:`_saito_criterion`).
    """
    if not theta1.field == theta2.field == arr.field:
        raise TypeError("mixed-field operands")
    return _saito_criterion(arr, arr.check_multiplicity(m), theta1.ints, theta2.ints, *_content_product(theta1, theta2))


def _saito_criterion(arr: Arrangement2, mt: Multiplicity, theta1, theta2, num: int, den: int):
    """saito_criterion on ints, for a checked multiplicity mt.

    theta1 and theta2 are (f, g) pairs of int vectors, and (num / den) *
    det(theta1, theta2) is the determinant of the derivations they stand
    for.  Over GF(p) the ints are residues; over Q they may be any nonzero
    int multiple of a derivation's ints (the shift certificate passes its
    images unnormalised), which changes no divisibility.  Tangency divides
    each theta(alpha_H) by alpha_H^m(H) (see :func:`_divides_image`), and
    Q(arr, m) is not built: the determinant f1*g2 - f2*g1, one int
    convolution, is divided by each alpha_H^m(H) in turn (see
    :func:`exactalg._divide_linear`), and c is the constant left times
    num / den.  The Sum m(H) divisions also
    cross-check the tangency test: c could be read as det(P)/Q(P) at one
    point P once both derivations are tangent, but a faulty tangency test
    would then go unseen.
    """
    counts["multiarr2.saito_checks"] += 1
    tangent = not (_untangent(arr, mt, theta1) or _untangent(arr, mt, theta2))
    (f1, g1), (f2, g2) = theta1, theta2
    size = len(f1) + len(f2) - 1
    if size != sum(mt) + 1:
        return tangent, None
    q = _convolve(((1, f1, g2), (-1, f2, g1)), size)
    p = arr.field.char
    if p:
        q = [x % p for x in q]
    for alpha, k in zip(arr.forms, mt):
        if k:
            q = _divide_linear(alpha, k, q)
            if q is None:
                return tangent, None
    return tangent, arr.field(q[0] * num * pow(den, -1, p) if p else Fraction(q[0] * num, den))


def basis(arr: Arrangement2, m: Sequence[int]):
    """A homogeneous basis (theta1, theta2) with degrees (d1, d2).

    theta1 is lower_degree_basis; theta2 is the first degree-d2 kernel vector
    whose determinant with theta1 is nonzero (see :func:`_canonical_basis`).
    The pair is certified by Saito's criterion: both are tangent and their
    determinant is a nonzero scalar multiple of the defining form.
    """
    mt = arr.check_multiplicity(m)
    if sum(mt) == 0:
        raise ValueError("|m| = 0 has no canonical basis choice")
    return _certified_basis(arr, mt, _unit_state(arr, mt))


def _certified_basis(arr: Arrangement2, mt: Multiplicity, state):
    """The pair of :func:`basis` at mt != 0, read off a unit-step state at mt and certified."""
    theta1, theta2 = _canonical_basis(arr, state)
    tangent, scalar = _saito_criterion(arr, mt, theta1.ints, theta2.ints, *_content_product(theta1, theta2))
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
    k_idx = _heavy_line(mt)
    if k_idx is None:
        raise ValueError("multiplicity is balanced; use exponents() instead")
    alpha_k = arr.forms[k_idx]
    u, v = canonical_coefficients(arr.field, (-alpha_k.ints[1], alpha_k.ints[0]))
    prod = defining_form(arr, mt[:k_idx] + (0,) + mt[k_idx + 1 :])
    q, ratio = prod.ints, prod.content.as_integer_ratio()
    theta = Derivation2.from_ints(arr.field, prod.degree, [u * x for x in q], [v * x for x in q], *ratio)
    if _untangent(arr, mt, theta.ints):
        raise RuntimeError("constructed fast-path derivation is not tangent (solver bug)")
    lo, hi = sorted((mt[k_idx], sum(mt) - mt[k_idx]))
    return Exponents2(lo, hi), theta

"""The affine connection on derivations and the shift map it induces.

``nabla(theta, phi)`` applies theta coefficientwise to phi.  When a
balanced multiplicity m0 attains the maximal gap h - 2, mapping theta to
``nabla(theta, theta0)`` (theta0 the lower-degree basis) carries a basis
of the derivation module at any 0/1-multiplicity m to a basis at
m0 + m - 1; :func:`shift_isomorphism_check` certifies this via Saito's
criterion for every shift, in one pass over the shifts: the bases come
from one walk of the 0/1 box, the partials of theta0 are taken once, and
the images are checked on their ints.  A failure under satisfied
hypotheses is the most interesting possible output, so failing checks
carry a full reproducer.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field
from typing import Sequence

from .exactalg import char_warning
from .multiarr2 import (
    Arrangement2,
    Derivation2,
    Multiplicity,
    _box_bases,
    _content_product,
    _convolve,
    _saito_criterion,
    exponents,
    is_balanced,
    lower_degree_basis,
    saito_det,
    untangent_forms,
)
from .stats import counts

__all__ = [
    "nabla",
    "coordinate_duals",
    "nabla_descent_check",
    "DescentReport",
    "ShiftCheck",
    "ShiftCertificate",
    "shift_isomorphism_check",
    "is_am_euler",
    "PropNextReport",
    "proposition_next_check",
]


def nabla(theta: Derivation2, phi: Derivation2) -> Derivation2:
    """The connection: theta applied to each coefficient of phi.

    The result is homogeneous of degree deg(theta) + deg(phi) - 1; a
    constant phi gives zero, declared at degree max(deg(theta) - 1, 0).
    It is theta applied to the partials of phi (see :func:`_partials` and
    :func:`_connection`), and the content of the image is the product of
    the contents of theta and phi.
    """
    counts["shift.nabla"] += 1
    if theta.field != phi.field:
        raise TypeError("mixed-field derivations")
    e = phi.degree
    if e == 0:
        d = max(theta.degree - 1, 0)
        return Derivation2.from_ints(theta.field, d, (0,) * (d + 1), (0,) * (d + 1))
    parts = _connection(theta, _partials(phi))
    return Derivation2.from_ints(theta.field, theta.degree + e - 1, *parts, *_content_product(theta, phi))


def _partials(phi: Derivation2):
    """(du/dx1, du/dx2) on ints for each component u of phi, of degree e >= 1, in BinaryForm order."""
    e = phi.degree
    return [([i * x for i, x in enumerate(u)][1:], [(e - i) * x for i, x in enumerate(u[:e])]) for u in phi.ints]


def _connection(theta: Derivation2, partials):
    """The ints of nabla(theta, phi) up to its content, from the partials of phi.

    theta(u) = f * du/dx1 + g * du/dx2 is one int convolution per component
    u of phi; over GF(p) it is reduced mod p, over Q it is not divided by
    the gcd of its entries.
    """
    (f, g), size = theta.ints, theta.degree + len(partials[0][0])
    parts = [_convolve(((1, f, du1), (1, g, du2)), size) for du1, du2 in partials]
    p = theta.field.char
    return [[x % p for x in v] for v in parts] if p else parts


def coordinate_duals(arr: Arrangement2):
    """Constant derivations D1, D2 dual to the first two forms of arr.

    D_i(alpha_j) = delta_ij; this realises the convention of treating the
    first two hyperplanes as coordinate axes without changing variables.
    """
    if arr.h < 2:
        raise ValueError("need at least two hyperplanes for coordinates")
    (a1, b1), (a2, b2) = arr.forms[0].ints, arr.forms[1].ints
    det = a1 * b2 - a2 * b1  # nonzero: arrangement forms are pairwise non-proportional
    return (
        Derivation2.from_ints(arr.field, 0, (b2,), (-a2,), 1, det),
        Derivation2.from_ints(arr.field, 0, (-b1,), (a1,), 1, det),
    )


def _descent_multiplicity(m: Multiplicity, keep_index: int) -> Multiplicity:
    """Drop every multiplicity by one (floored at 0) except at keep_index."""
    return tuple(v if i == keep_index else max(v - 1, 0) for i, v in enumerate(m))


@dataclass
class DescentReport:
    arrangement: Arrangement2
    m: Multiplicity
    theta: Derivation2
    items: list  # (direction i, reduced multiplicity, image_is_zero, ok, failing forms)

    @property
    def passed(self) -> bool:
        return all(ok for _, _, _, ok, _ in self.items)


def nabla_descent_check(arr: Arrangement2, m: Sequence[int]) -> DescentReport:
    """Differentiating the lower basis along a coordinate dual stays tangent.

    For each of the two coordinate directions, the image of theta under
    the connection must lie in the module of the multiplicity reduced by
    one everywhere except at the other coordinate hyperplane.  Membership
    is tested by direct polynomial division.
    """
    mt = arr.check_multiplicity(m)
    duals = coordinate_duals(arr)
    theta = lower_degree_basis(arr, mt)
    items = []
    for i, d_i in enumerate(duals):
        eta = nabla(d_i, theta)
        reduced = _descent_multiplicity(mt, keep_index=1 - i)
        bad = untangent_forms(arr, reduced, eta)
        items.append((i, reduced, eta.is_zero(), not bad, bad))
    return DescentReport(arr, mt, theta, items)


def _failed_hypotheses(arr: Arrangement2, mt: Multiplicity) -> list:
    """The shift theorem's hypotheses that fail at mt, in check order."""
    h = arr.h
    failed = []
    if h <= 2:
        failed.append(f"shift certification needs h > 2 (got h={h})")
    positive = all(v >= 1 for v in mt)
    if not positive:
        failed.append("m0 must be strictly positive")
    if not is_balanced(arr, mt):
        failed.append(f"m0={mt} is not balanced")
    gap = exponents(arr, mt).delta
    if gap != h - 2:
        failed.append(f"gap of m0 is {gap}, the shift map needs the maximal gap {h - 2}")
    m0m1 = tuple(v - 1 for v in mt)
    if h == 3 and positive and not is_balanced(arr, m0m1):
        failed.append(
            f"h = 3 requires m0 - 1 = {m0m1} to be balanced (second hypothesis needs h >= 4)"
        )
    return failed


@dataclass(frozen=True)
class ShiftCheck:
    m: Multiplicity
    target: Multiplicity  # m0 + m - 1
    membership_ok: bool
    saito_scalar: object  # nonzero scalar iff the determinant criterion holds
    passed: bool
    reproducer: dict | None = None


@dataclass
class ShiftCertificate:
    arrangement: Arrangement2
    m0: Multiplicity
    theta0: Derivation2
    hypothesis: str
    mode: str  # "exhaustive" or "sampled"
    degree_identity_ok: bool
    char_warning: str | None
    checked_shifts: list = dc_field(default_factory=list)

    @property
    def hypothesis_met(self) -> bool:
        return self.char_warning is None

    @property
    def passed(self) -> bool:
        return self.degree_identity_ok and all(c.passed for c in self.checked_shifts)

    def failures(self):
        return [c for c in self.checked_shifts if not c.passed]


_EXHAUSTIVE_H = 12  # up to this h every 0/1-shift is checked
_SAMPLED_SHIFTS = 256  # above it, this many distinct seeded shifts


def shift_isomorphism_check(arr: Arrangement2, m0: Sequence[int]) -> ShiftCertificate:
    """Certify the shift map at m0 over all (or a sample of) 0/1-shifts.

    Preconditions (violations raise ValueError): m0 strictly positive and
    balanced with gap exactly h - 2, and either h = 3 with m0 - 1 balanced
    or h >= 4.  For each shift m the images of a basis at m must satisfy
    Saito's criterion at m0 + m - 1: both tangent, and their determinant a
    nonzero multiple of the defining form; each check records that scalar.
    Over GF(p) the certificate carries a char_warning and its
    hypothesis_met is False.

    The bases at the shifts, in lexicographic order, come from one walk of
    the 0/1 box (see :func:`multiarr2._box_bases`).  Each image is formed
    from theta0's partials, taken once, and checked on its ints and content
    by :func:`multiarr2._saito_criterion`; a Derivation2 is built for an
    image only for the reproducer of a failing check.
    """
    mt = arr.check_multiplicity(m0)
    h = arr.h
    failed = _failed_hypotheses(arr, mt)
    if failed:
        raise ValueError(failed[0])
    hypothesis = "h=3 and m0-1 balanced" if h == 3 else "h>=4"

    theta0 = lower_degree_basis(arr, mt)

    if h <= _EXHAUSTIVE_H:
        shifts = list(itertools.product((0, 1), repeat=h))
        mode = "exhaustive"
    else:
        rng = random.Random(2024)
        seen = set()
        while len(seen) < _SAMPLED_SHIFTS:
            seen.add(tuple(rng.randint(0, 1) for _ in range(h)))
        shifts = sorted(seen)
        mode = f"sampled({_SAMPLED_SHIFTS})"

    # |m0 + m - 1| = 2 d1 + |m| - 2 for every shift m iff |m0| = 2 d1 + h - 2
    degree_identity_ok = sum(mt) == 2 * theta0.degree + h - 2
    checks = []
    field = arr.field
    partials = _partials(theta0)  # theta0 has degree d1 >= 1, as |m0| >= h
    for m, pair in zip(shifts, _box_bases(arr, shifts)):
        target = tuple(a + b - 1 for a, b in zip(mt, m))
        images = [_connection(t, partials) for t in pair]
        counts["shift.nabla"] += 2
        contents = [_content_product(t, theta0) for t in pair]
        (n1, d1), (n2, d2) = contents
        membership_ok, scalar = _saito_criterion(arr, target, *images, n1 * n2, d1 * d2)
        ok = membership_ok and bool(scalar)
        repro = None
        if not ok:
            etas = [Derivation2.from_ints(field, len(v[0]) - 1, *v, *c) for v, c in zip(images, contents)]
            repro = {
                "arrangement": [[field.format(c) for c in f.coeffs] for f in arr.forms],
                "field": field.name,
                "m0": mt,
                "m": m,
                "theta0": theta0.render(),
                "basis_at_m": [t.render() for t in pair],
                "images": [eta.render() for eta in etas],
                "det": saito_det(*etas).render(),
                "membership_ok": membership_ok,
            }
        checks.append(ShiftCheck(m, target, membership_ok, scalar, ok, repro))
    warning = char_warning(field, "the shift theorem assumes characteristic zero")
    return ShiftCertificate(arr, mt, theta0, hypothesis, mode, degree_identity_ok, warning, checks)


def is_am_euler(arr: Arrangement2, m: Sequence[int], theta: Derivation2):
    """Is theta a lower-degree basis at m that induces the shift map?

    Returns (flag, diagnostics).  True requires: m strictly positive and
    balanced with gap h - 2, the structural hypothesis (h = 3 with m - 1
    balanced, or h >= 4), and theta a nonzero degree-d1 member of the
    module.  When everything holds the shift certificate is also run and
    must pass.  Over GF(p) its failure is a diagnostic naming the
    characteristic; over Q it would be a genuine counterexample and raises.
    """
    mt = arr.check_multiplicity(m)
    diags = _failed_hypotheses(arr, mt)
    d1 = exponents(arr, mt).d1
    if theta.is_zero():
        diags.append("theta is zero")
    elif theta.degree != d1:
        diags.append(f"theta has degree {theta.degree}, lower exponent is {d1}")
    else:
        bad = untangent_forms(arr, mt, theta)
        if bad:
            diags.append(f"theta is not tangent at {[a.render() for a in bad]}")
    if diags:
        return False, diags
    cert = shift_isomorphism_check(arr, mt)
    if cert.passed:
        return True, []
    if not cert.hypothesis_met:
        return False, [f"shift certificate failed: {cert.char_warning}"]
    raise RuntimeError(
        "shift certificate failed although every hypothesis holds; "
        f"reproducers: {[c.reproducer for c in cert.failures()]}"
    )


@dataclass
class PropNextReport:
    m1: Multiplicity
    m2: Multiplicity
    hypotheses_met: bool
    reason: str
    independent: bool | None

    @property
    def passed(self) -> bool:
        return (not self.hypotheses_met) or bool(self.independent)


def proposition_next_check(arr: Arrangement2, m1: Sequence[int], m2: Sequence[int]) -> PropNextReport:
    """Independence of the two lower bases for a crossing pair.

    Hypotheses: m1 and m2 differ by +1/-1 in exactly two coordinates,
    both have gap one, and the coordinatewise max and min both have gap
    zero.  Then the two lower-degree bases must have a nonzero
    determinant.
    """
    t1 = arr.check_multiplicity(m1)
    t2 = arr.check_multiplicity(m2)
    diffs = [a - b for a, b in zip(t1, t2)]
    if sorted(d for d in diffs if d) != [-1, 1]:
        return PropNextReport(t1, t2, False, "not a +1/-1 crossing pair", None)
    if exponents(arr, t1).delta != 1 or exponents(arr, t2).delta != 1:
        return PropNextReport(t1, t2, False, "gaps are not both one", None)
    hi = tuple(max(a, b) for a, b in zip(t1, t2))
    lo = tuple(min(a, b) for a, b in zip(t1, t2))
    if exponents(arr, hi).delta != 0 or exponents(arr, lo).delta != 0:
        return PropNextReport(t1, t2, False, "max/min multiplicities do not both have gap zero", None)
    th1 = lower_degree_basis(arr, t1)
    th2 = lower_degree_basis(arr, t2)
    independent = not saito_det(th1, th2).is_zero()
    return PropNextReport(t1, t2, True, "hypotheses hold", independent)

"""Field-scalar forms: the test oracles of the int-backed forms in ``exactalg``.

``FieldForm`` keeps every coefficient as a field scalar (``Fraction`` over
Q, ``FpElement`` over GF(p)) and does its arithmetic entry by entry, with
no int vector, content or gcd.  ``canonical_coefficients`` scales a
coefficient vector to its canonical field scalars, and ``_int_row`` turns
a row of scalars into ints with the same span.  The differential tests in
``test_exactalg.py`` and ``test_arr3.py`` run them side by side with the
library.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence

from multiarr.exactalg import _render_terms


def canonical_coefficients(field, coeffs: Iterable) -> tuple:
    """Canonical representative of a nonzero coefficient tuple up to scaling.

    Over Q: coprime integers with the first nonzero entry positive.
    Over GF(p): the first nonzero entry scaled to 1.
    """
    vals = [field(c) for c in coeffs]
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
    inv = field.one / lead
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
    i = next((i for i, b in enumerate(theirs) if b), None)
    if i is None:
        return None if any(mine) else field.zero
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
        cs = tuple(field(c) for c in coeffs)
        if len(cs) != degree + 1:
            raise ValueError(f"degree-{degree} form needs {degree + 1} coefficients, got {len(cs)}")
        self.field = field
        self.degree = degree
        self.coeffs = cs

    @classmethod
    def zero(cls, field, degree: int) -> "FieldForm":
        return cls(field, degree, (field.zero,) * (degree + 1))

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
        c = self.field(c)
        return FieldForm(self.field, self.degree, tuple(c * a for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        deg = self.degree + other.degree
        out = [self.field.zero] * (deg + 1)
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
        out = [self.field.zero] * self.degree
        for i in range(1, self.degree + 1):
            out[i - 1] = i * self.coeffs[i]
        return FieldForm(self.field, self.degree - 1, out)

    def dx2(self) -> "FieldForm":
        """Partial derivative with respect to x2."""
        if self.degree == 0:
            return FieldForm.zero(self.field, 0)
        out = [self.field.zero] * self.degree
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
        quot = [self.field.zero] * (dp - dq + 1)
        for i in range(dp, dq - 1, -1):
            c = p[i] / q[dq]
            quot[i - dq] = c
            if c:
                for s in range(dq + 1):
                    p[i - dq + s] = p[i - dq + s] - c * q[s]
        if any(p):
            return None
        deg = self.degree - other.degree
        quot.extend([self.field.zero] * (deg + 1 - len(quot)))
        return FieldForm(self.field, deg, quot)

    def proportional_scalar(self, other: "FieldForm"):
        """Scalar c with self == c * other, or None if no such c exists.

        Requires equal declared degrees; returns 0 when self is zero.
        """
        self._check(other)
        if self.degree != other.degree:
            return None
        return proportional_scalar(self.field, self.coeffs, other.coeffs)

    def render(self, names=("x1", "x2")) -> str:
        terms = []
        for i in range(self.degree, -1, -1):
            pieces = []
            if i:
                pieces.append(names[0] if i == 1 else f"{names[0]}^{i}")
            j = self.degree - i
            if j:
                pieces.append(names[1] if j == 1 else f"{names[1]}^{j}")
            terms.append((self.coeffs[i], "*".join(pieces)))
        return _render_terms(self.field, terms)

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

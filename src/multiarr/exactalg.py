"""Exact scalars, dense binary forms and fraction-free linear algebra.

The ground field is either Q (arbitrary-precision rationals, represented
by :class:`fractions.Fraction`) or a prime field GF(p).  Over GF(p) the
library computes on plain ints, residues mod p, and a scalar it returns
is an :class:`FpElement`, a value with no arithmetic.  Every operation
in this module is exact and deterministic; nothing here ever touches a
float.  All values are immutable after construction, so everything is
safe to share between threads or worker processes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Sequence, Union

from .stats import counts

__all__ = [
    "QQ",
    "GF",
    "RationalField",
    "PrimeField",
    "FpElement",
    "Scalar",
    "CanonicalForm",
    "FormTuple",
    "LinearForm2",
    "BinaryForm",
    "Matrix",
    "divisibility_constraints",
    "binary_form_divides",
    "char_warning",
]

# Miller-Rabin with these bases is exact for every n < 3.18e23
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, on the shortest prefix of _MR_BASES proven for n.

    The first k bases decide every n below psi_k, the least strong
    pseudoprime to all of them (OEIS A014233; G. Jaeschke, Math. Comp. 61,
    1993); psi_8 = psi_7 and psi_10 = psi_11 = psi_9.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    bands = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
             (3474749660383, 6), (341550071728321, 7), (3825123056546413051, 9))
    k = next((k for psi, k in bands if n < psi), len(_MR_BASES))
    for b in _MR_BASES[:k]:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FpElement:
    """A residue in GF(p), as a value.

    It has no arithmetic: the library computes over GF(p) on plain ints
    (residues mod p) and builds an FpElement only for a scalar that it
    returns.  Equality is only defined against other residues of the same
    prime (use truthiness for zero tests).
    """

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.val == other.val
        return NotImplemented

    def __hash__(self):
        return hash((self.val, self.p))

    def __bool__(self):
        return self.val != 0

    def __str__(self):
        return str(self.val)

    def __repr__(self):
        return f"FpElement({self.val}, {self.p})"


class RationalField:
    """The field Q; a stateless singleton (see :data:`QQ`)."""

    char = 0
    zero = Fraction(0)
    name = "Q"

    def __call__(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def format(self, x) -> str:
        return str(x)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The prime field GF(p); construct via :func:`GF`."""

    __slots__ = ("p", "zero")

    def __init__(self, p: int):
        if p >= 2**64:
            raise ValueError(f"prime fields need p < 2^64 (got {p})")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = FpElement(0, p)

    @property
    def char(self) -> int:
        return self.p

    @property
    def name(self) -> str:
        return f"GF({self.p})"

    def __call__(self, x) -> FpElement:
        if isinstance(x, FpElement):
            if x.p != self.p:
                raise ValueError(f"mixed prime fields GF({x.p}) and GF({self.p})")
            return x
        if isinstance(x, int):
            return FpElement(x, self.p)
        if isinstance(x, str):
            return FpElement(int(x, 10), self.p)
        raise TypeError(f"cannot coerce {x!r} into GF({self.p})")

    def format(self, x) -> str:
        return str(x.val)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def char_warning(field, consequence: str) -> str | None:
    """The warning attached to results over a field of positive characteristic."""
    if field.char:
        return f"field has characteristic {field.char}; {consequence}"
    return None


@lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    return PrimeField(p)


Scalar = Union[Fraction, FpElement]
Field = Union[RationalField, PrimeField]


def canonical_coefficients(field: Field, coeffs: Iterable) -> tuple:
    """Canonical int representative of a nonzero coefficient tuple up to scaling.

    Over Q: coprime integers with the first nonzero entry positive.
    Over GF(p): residues with the first nonzero entry 1.  The rule itself
    is :func:`_canonical_ints`, which callers holding ints use directly.
    """
    return _canonical_ints(field.char, _scaled_ints(field, coeffs)[0])


def _canonical_ints(p: int, ints) -> tuple:
    """The canonical int vector of a nonzero int vector up to scaling, over Q for p = 0 and GF(p) otherwise.

    Over Q the vector comes back primitive with its first nonzero entry
    positive.  Over GF(p) it is reduced mod p first, so that a lead which
    is a multiple of p is passed over, and then scaled so that its first
    nonzero residue is 1.
    """
    if p:
        ints = [x % p for x in ints]
        for lead in ints:
            if lead:
                inv = pow(lead, -1, p)
                return tuple([x * inv % p for x in ints])
    else:
        ints, g = _primitive(ints)
        if g:
            return ints
    raise ValueError("zero coefficient vector has no canonical form")


def _scaled_ints(field: Field, row) -> tuple:
    """(ints, den) with ints = den * row as Python ints, for a row of ints, scalars or strings.

    Over Q, den is the lcm of the denominators; over GF(p), the ints are
    residues and den is 1.
    """
    p = field.char
    if p:
        return tuple([e % p if type(e) is int else field(e).val for e in row]), 1
    if set(map(type, row)) <= {int}:
        return tuple(row), 1
    vals = [e if type(e) is int else field(e) for e in row]
    den = reduce(math.lcm, [e.denominator for e in vals], 1)
    return tuple([e.numerator * (den // e.denominator) for e in vals]), den


# ---------------------------------------------------------------------------
# linear and binary forms


class CanonicalForm:
    """A nonzero coefficient vector over a field, stored in canonical scaling.

    ``ints`` is the vector from :func:`canonical_coefficients`, or one
    that is already canonical, given to :meth:`_of_ints`; ``coeffs``
    is a read-only view of the same values as field scalars.  The hash is
    taken once, from the characteristic and ``ints``, so it is the same in
    every process.  Two forms are equal when they have the same class,
    field and coefficients.
    """

    __slots__ = ("field", "ints", "_hash")
    names: tuple = ()  # variable names for render
    coeffs = property(lambda self: tuple(map(self.field, self.ints)))

    def __init__(self, field: Field, coeffs: Iterable):
        self.field = field
        self.ints = canonical_coefficients(field, coeffs)
        self._hash = hash((field.char, self.ints))

    @classmethod
    def _of_ints(cls, field: Field, ints: tuple):
        """The form whose canonical int vector is ints, taken as it is: the caller vouches that it is canonical."""
        form = object.__new__(cls)
        form.field = field
        form.ints = ints
        form._hash = hash((field.char, ints))
        return form

    def render(self, names=None) -> str:
        return _render_terms(zip(_format_ints(self.ints), names or self.names))

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self._hash == other._hash
            and self.field == other.field
            and self.ints == other.ints
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{type(self).__name__}({self.render()})"


class FormTuple:
    """An ordered tuple of distinct canonical forms over one field.

    Entries may be forms of ``form_type`` or plain coefficient tuples; the
    hash is taken once, like that of the forms.  :meth:`_of_ints` builds
    the tuple from canonical int rows, with the same checks.
    """

    __slots__ = ("field", "forms", "_hash")
    form_type: type  # set by each subclass
    allow_empty = False
    duplicate_error = "forms must be pairwise non-proportional"

    def __init__(self, field: Field, forms: Iterable):
        fs = []
        for f in forms:
            if isinstance(f, self.form_type):
                if f.field != field:
                    raise TypeError("form field disagrees with arrangement field")
                fs.append(f)
            else:
                fs.append(self.form_type(field, *f))
        self._fill(field, fs)

    @classmethod
    def _of_ints(cls, field: Field, rows):
        """The tuple of the forms whose canonical int vectors are rows (see CanonicalForm._of_ints)."""
        out = object.__new__(cls)
        out._fill(field, [cls.form_type._of_ints(field, r) for r in rows])
        return out

    def _fill(self, field: Field, fs: list) -> None:
        if not fs and not self.allow_empty:
            raise ValueError("arrangement needs at least one hyperplane")
        if len(set(fs)) != len(fs):
            raise ValueError(self.duplicate_error)
        self.field = field
        self.forms = tuple(fs)
        self._hash = hash((field.char, self.forms))

    @property
    def h(self) -> int:
        return len(self.forms)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self._hash == other._hash
            and self.field == other.field
            and self.forms == other.forms
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        inner = ", ".join(f.render() for f in self.forms)
        return f"{type(self).__name__}[{self.field.name}; {inner}]"


class LinearForm2(CanonicalForm):
    """A nonzero linear form a*x1 + b*x2, stored in canonical scaling."""

    __slots__ = ()
    names = ("x1", "x2")
    a = property(lambda self: self.coeffs[0])
    b = property(lambda self: self.coeffs[1])

    def __init__(self, field: Field, a, b):
        super().__init__(field, (a, b))


def _render_terms(terms) -> str:
    # terms: [(coefficient string, monomial string)]; monomial "" means the constant term
    parts = []
    for cs, mono in terms:
        if cs == "0":
            continue
        if mono == "":
            text = cs
        elif cs == "1":
            text = mono
        elif cs == "-1":
            text = "-" + mono
        else:
            text = f"{cs}*{mono}"
        parts.append(text)
    if not parts:
        return "0"
    out = parts[0]
    for t in parts[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


def _format_ints(ints, content=1) -> list:
    """field.format of each scalar content * x, x in ints, read off the ints with no scalar built.

    content is an int or a Fraction over Q, and 1 over GF(p), whose ints are residues.
    """
    n, d = content.numerator, content.denominator
    if d == 1:
        return [str(n * x) for x in ints]
    out = []
    for x in ints:
        v = n * x
        g = math.gcd(v, d)
        out.append(str(v // g) if g == d else f"{v // g}/{d // g}")
    return out


def _render_form(strings, names) -> str:
    """The binary form whose coefficient strings are strings, strings[i] belonging to x1^i * x2^(d-i)."""
    d = len(strings) - 1
    terms = []
    for i in range(d, -1, -1):
        pieces = []
        if i:
            pieces.append(names[0] if i == 1 else f"{names[0]}^{i}")
        if d - i:
            pieces.append(names[1] if d - i == 1 else f"{names[1]}^{d - i}")
        terms.append((strings[i], "*".join(pieces)))
    return _render_terms(terms)


def _proportional_scalar(field, ints, content, other_ints, other_content):
    """Scalar c with content * ints == c * other_content * other_ints, or None; 0 when both are zero.

    Both sides are in normal form (see :func:`_normal`).  Over Q that form
    is unique up to the content, so nonzero sides are proportional iff
    their ints agree.  Over GF(p) the rule runs on the residues.
    """
    p = field.char
    if p:
        i = next((i for i, y in enumerate(other_ints) if y), None)
        if i is None:
            return None if any(ints) else field.zero
        c = ints[i] * pow(other_ints[i], -1, p) % p
        return FpElement(c, p) if all((x - c * y) % p == 0 for x, y in zip(ints, other_ints)) else None
    if not other_content:
        return None if content else field.zero
    if content and ints != other_ints:
        return None
    return content / other_content


def _normal(field: Field, ints, num: int, den: int):
    """(ints, content) of the form (num / den) * ints, for Python ints and den != 0.

    Over Q the ints come back primitive with the first nonzero entry
    positive, and the content absorbs their gcd; over GF(p) they come back
    as residues of num * den^-1 * ints, and the content is 1.
    """
    p = field.char
    if p:
        num *= pow(den, -1, p)
        return tuple(x * num % p for x in ints), 1
    ints, g = _primitive(ints)
    if g and num:
        return ints, Fraction(num * g, den)
    return (0,) * len(ints), _ZERO


def _primitive(ints) -> tuple:
    """(ints / g, g) for g the gcd of ints signed so the first nonzero quotient is positive, or 0."""
    g = math.gcd(*ints)
    for x in ints:
        if x:
            if x < 0:
                g = -g
            break
    return (tuple(ints) if g in (0, 1) else tuple([x // g for x in ints])), g


_ZERO = Fraction(0)


class BinaryForm:
    """A homogeneous polynomial in x1, x2 of a declared degree.

    The form is ``content * ints``, with ``ints[i]`` the integer belonging
    to x1^i * x2^(degree-i).  Over Q, ``ints`` is primitive with its first
    nonzero entry positive and ``content`` is an exact Fraction (0 for the
    zero form); over GF(p), ``ints`` are residues and ``content`` is 1.
    Each form has one such representation, so equality and hash read it
    directly.  ``coeffs`` is the read-only tuple of field scalars, built on
    first use.  The zero form may be declared at any degree.

    A form is a value at the library's boundary: what the library computes
    on forms and derivations it computes on the ints (see
    multiarr2.Derivation2), so a form has no arithmetic of its own.
    """

    __slots__ = ("field", "degree", "ints", "content", "_coeffs")

    def __init__(self, field: Field, degree: int, coeffs: Sequence):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        ints, den = _scaled_ints(field, coeffs)
        if len(ints) != degree + 1:
            raise ValueError(f"degree-{degree} form needs {degree + 1} coefficients, got {len(ints)}")
        self.field = field
        self.degree = degree
        self.ints, self.content = _normal(field, ints, 1, den)
        self._coeffs = None

    @classmethod
    def _new(cls, field: Field, degree: int, ints: tuple, content) -> "BinaryForm":
        """The form content * ints, which must already be in normal form."""
        out = object.__new__(cls)
        out.field = field
        out.degree = degree
        out.ints = ints
        out.content = content
        out._coeffs = None
        return out

    @classmethod
    def from_ints(cls, field: Field, degree: int, ints: Sequence[int], num: int = 1, den: int = 1) -> "BinaryForm":
        """The form (num / den) * ints, for Python ints and den != 0 in the field."""
        return cls._new(field, degree, *_normal(field, ints, num, den))

    @classmethod
    def zero(cls, field: Field, degree: int) -> "BinaryForm":
        return cls._new(field, degree, (0,) * (degree + 1), 1 if field.char else _ZERO)

    @property
    def coeffs(self) -> tuple:
        """The coefficients as field scalars; coeffs[i] belongs to x1^i * x2^(degree-i)."""
        cs = self._coeffs
        if cs is None:
            p = self.field.char
            if p:
                cs = tuple(FpElement(x, p) for x in self.ints)
            else:
                c = self.content
                cs = tuple(c * x for x in self.ints)
            self._coeffs = cs
        return cs

    def is_zero(self) -> bool:
        return not any(self.ints)

    def proportional_scalar(self, other: "BinaryForm"):
        """Scalar c with self == c * other, or None if no such c exists.

        Requires equal declared degrees; returns 0 when self is zero.
        """
        self._check(other)
        if self.degree != other.degree:
            return None
        return _proportional_scalar(self.field, self.ints, self.content, other.ints, other.content)

    def render(self, names=("x1", "x2")) -> str:
        return _render_form(_format_ints(self.ints, self.content), names)

    def _check(self, other):
        if not isinstance(other, BinaryForm):
            raise TypeError(f"expected BinaryForm, got {type(other).__name__}")
        if other.field is not self.field and other.field != self.field:
            raise TypeError("mixed-field operands")

    def __eq__(self, other):
        return (
            isinstance(other, BinaryForm)
            and self.field == other.field
            and self.degree == other.degree
            and self.ints == other.ints
            and self.content == other.content
        )

    def __hash__(self):
        return hash((self.field.char, self.degree, self.ints, self.content))

    def __repr__(self):
        return f"BinaryForm({self.render()})"


# ---------------------------------------------------------------------------
# matrices and kernels


class Matrix:
    """A rectangular matrix over a single field, stored as rows of Python ints.

    Over GF(p) each entry is kept as its residue; over Q each row is scaled
    by the lcm of its denominators.  Neither changes the row space, so rank
    and kernel are those of the matrix as given; kernel vectors are field
    scalars.
    """

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, rows: Sequence[Sequence], ncols: int | None = None):
        rs = tuple(_scaled_ints(field, row)[0] for row in rows)
        if rs:
            ncols_seen = {len(r) for r in rs}
            if len(ncols_seen) != 1:
                raise ValueError("ragged rows")
            width = ncols_seen.pop()
            if ncols is not None and ncols != width:
                raise ValueError("ncols disagrees with row width")
            ncols = width
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit ncols")
        self.field = field
        self.nrows = len(rs)
        self.ncols = ncols
        self.rows = rs

    def rank(self) -> int:
        _, pivots = _echelon(self.field, self.rows)
        return len(pivots)

    def kernel(self):
        """Canonical null-space basis: ordered by free column, first nonzero entry 1."""
        erows, pivots = _echelon(self.field, self.rows)
        return _kernel_from_echelon(self.field, erows, pivots, self.ncols)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field.name})"


def _echelon(field, rows):
    """Row echelon form of integer rows with deterministic pivoting.

    Over Q elimination is fraction-free (Bareiss), so entries never leave
    Z; over GF(p) it is plain elimination on residues.  Pivot choice: first
    nonzero in column order.  Returns (echelon_rows, pivot_columns).
    """
    work = [list(row) for row in rows]
    pivots = _gauss_mod(work, field.char) if field.char else _bareiss_int(work)
    return work, pivots


def _bareiss_int(rows):
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots = []
    r = 0
    prev = 1
    for c in range(nc):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        prow = rows[r]
        for i in range(r + 1, nr):
            irow = rows[i]
            t = irow[c]
            # the update must hit every lower row (even t == 0) so the
            # exact //prev division of the Bareiss identity stays valid
            for j in range(c + 1, nc):
                irow[j] = (piv * irow[j] - t * prow[j]) // prev
            irow[c] = 0
        pivots.append(c)
        prev = piv
        r += 1
    return pivots


def _gauss_mod(rows, p):
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], -1, p)
        prow = rows[r]
        for i in range(r + 1, nr):
            irow = rows[i]
            if irow[c]:
                f = irow[c] * inv % p
                for j in range(c + 1, nc):
                    irow[j] = (irow[j] - f * prow[j]) % p
                irow[c] = 0
        pivots.append(c)
        r += 1
    return pivots


def _kernel_from_echelon(field, erows, pivots, ncols):
    """The kernel basis of Matrix.kernel, by back-substitution on an echelon form.

    Over GF(p) it runs on residues, over Q on Fractions; field scalars are
    built only for the vectors it returns.
    """
    p = field.char
    pivot_set = set(pivots)
    basis = []
    for f in (c for c in range(ncols) if c not in pivot_set):
        x = [0] * ncols
        x[f] = 1
        for r in range(len(pivots) - 1, -1, -1):
            c, row = pivots[r], erows[r]
            s = sum(row[j] * x[j] for j in range(c + 1, ncols) if row[j] and x[j])
            if s:
                x[c] = -s * pow(row[c], -1, p) % p if p else Fraction(-s) / row[c]
        lead = next(v for v in x if v)
        if lead != 1 and p:  # a pivot entry, before column f
            inv = pow(lead, -1, p)
            x = [v * inv % p for v in x]
        elif lead != 1:
            x = [v / lead for v in x]
        basis.append(tuple(map(field, x)))
    return basis


def divisibility_constraints(alpha: LinearForm2, k: int, d: int) -> Matrix:
    """Linear conditions on a degree-d form equivalent to alpha^k dividing it.

    For alpha = a*x1 + b*x2 with a != 0, x = s*(-b, a) + t*(1, 0) is an
    invertible substitution that turns alpha into a*t, so alpha^k divides F
    iff the coefficients of t^0 .. t^(k-1) in F(x) vanish.  Row j holds the
    coefficient of t^j: C(i, j) * (-b)^(i-j) * a^(d-i) in column i.  For
    alpha = x2, row j is the unit row of x1^(d-j) * x2^j.  The rows are
    integers over Q and residues over GF(p), valid in any characteristic;
    rows past j = d are zero.  A degree-d coefficient vector lies in the
    kernel iff alpha^k divides the form.
    """
    if k < 0 or d < 0:
        raise ValueError("k and d must be nonnegative")
    return Matrix(alpha.field, [_constraint_row(alpha, j, d) for j in range(k)], ncols=d + 1)


def _constraint_row(alpha: LinearForm2, j: int, d: int) -> list:
    """Row j of :func:`divisibility_constraints` for any k > j, as ints (residues over GF(p))."""
    a, b = alpha.ints
    row = [0] * (d + 1)
    if not a:
        if j <= d:
            row[d - j] = 1
        return row
    mod = alpha.field.char or None
    comb, pb = 1, 1  # C(i, j) and (-b)^(i-j)
    for i in range(j, d + 1):
        e = comb * pb * pow(a, d - i, mod)
        row[i] = e % mod if mod else e
        comb = comb * (i + 1) // (i + 1 - j)
        pb = -b * pb % mod if mod else -b * pb
    return row


def _divide_linear(alpha: LinearForm2, k: int, ints: Sequence[int]):
    """The ints of form / alpha^k, as a list, or None when alpha^k does not divide the form.

    ints is a form in BinaryForm order (index i holds x1^i), as residues
    over GF(p), whose degree is at least k.  For alpha = x1 the quotient is
    the ints shifted down by k, and for alpha = x2 the ints cut short by k.
    For another alpha = a*x1 + b*x2, each of the k synthetic divisions runs
    from the x2 end, q[i] = (f[i] - a*q[i-1]) / b, and leaves the remainder
    f[d] - a*q[d-1].  Over GF(p) it multiplies by b^-1.  Over Q a quotient
    by b = +-1 is exact; for a = +-1 the division runs from the x1 end
    instead, on the reversed ints, which hold the form in (x2, x1), with
    alpha then b*x2 + a*x1.  Only when neither a nor b is a unit, the
    divmod by b is exact whenever alpha divides, by Gauss's lemma, since
    alpha.ints are primitive.
    """
    counts["exactalg.divide_linear"] += 1
    a, b = alpha.ints
    if not b:
        return None if any(ints[:k]) else list(ints[k:])
    if not a:
        n = len(ints) - k
        return None if any(ints[n:]) else list(ints[:n])
    p = alpha.field.char
    q = list(ints)
    flip = not p and a in (1, -1) and b not in (1, -1)
    if flip:
        q.reverse()
        a, b = b, a
    inv = pow(b, -1, p) if p else None
    for _ in range(k):
        c = 0
        if p:
            for i in range(len(q) - 1):
                c = q[i] = (q[i] - a * c) * inv % p
        elif b == 1:
            for i in range(len(q) - 1):
                c = q[i] = q[i] - a * c
        elif b == -1:
            for i in range(len(q) - 1):
                c = q[i] = a * c - q[i]
        else:
            for i in range(len(q) - 1):
                c, r = divmod(q[i] - a * c, b)
                if r:
                    return None
                q[i] = c
        last = q.pop() - a * c
        if last % p if p else last:
            return None
    if flip:
        q.reverse()
    return q


def binary_form_divides(alpha: LinearForm2, k: int, form: BinaryForm) -> bool:
    """True iff alpha^k divides the form, by k synthetic divisions (the zero form divides everything)."""
    if alpha.field != form.field:
        raise TypeError("mixed-field operands")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0 or form.is_zero():
        return True
    if k > form.degree:
        return False
    return _divide_linear(alpha, k, form.ints) is not None

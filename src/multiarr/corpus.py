"""The arrangement document format and the bundled desk corpus.

Documents are JSON: a field descriptor ("Q" or {"p": prime}), a
dimension, a centrality flag and a list of hyperplanes with exact
coefficient strings (plus optional multiplicities for planar central
input).  :func:`parse_document` refuses a malformed one with a
:class:`DocumentError` and builds the arrangement it describes.

The corpus ships as one document per arrangement under ``corpus/data``;
:func:`arrangement` builds a fresh arrangement from the document of that
name.  The documents are:

- ``a2``: three lines x1, x2, x1 + x2 (the rank-2 braid pattern);
- ``b2_lines``: four lines x1, x2, x1 - x2, x1 + x2;
- ``four_lines``: a non-symmetric 4-line arrangement;
- ``five_lines``: a 5-line arrangement;
- ``remark_f2``: x1, x2, x1 + x2 over GF(2); with m = 4 the gap bound breaks;
- ``braid3``: the six planes x, y, z, x - y, x - z, y - z;
- ``boolean3``: the coordinate planes x, y, z;
- ``generic4``: coordinate planes plus x + y + z, in generic position;
- ``near_pencil5``: four planes through a common line plus one transversal plane;
- ``braid_deconing``: x = 0, y = 0, x = y, x = 1, y = 1, the braid planes seen from z;
- ``b2_deform_a``: x, y, x - y, x + y and the translate x = 1;
- ``b2_deform_b``: x, y, x - y, x + y and the translates x - y = 1, x + y = 1;
- ``generic5_lines``: five affine lines in general position (ten simple crossings).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from json.encoder import encode_basestring_ascii as _quote

from . import arr3, multiarr2
from .exactalg import GF, QQ, _canonical_ints, _scaled_ints

__all__ = [
    "DocumentError",
    "ArrangementDocument",
    "parse_document",
    "serialize_document",
    "canonical_json",
    "build_arrangement",
    "arrangement",
    "document_names",
    "document_path",
]


class DocumentError(Exception):
    """Malformed arrangement document."""


@dataclass
class ArrangementDocument:
    name: str | None
    field_desc: object  # "Q" or {"p": int}
    dim: int
    central: bool
    hyperplanes: list  # (coeff string tuple, multiplicity)
    built: tuple = None  # build_arrangement(self), set by parse_document
    scalars: list = None  # each hyperplane's coefficients as field scalars, set by build_arrangement

    @property
    def field(self):
        if self.field_desc == "Q":
            return QQ
        return GF(self.field_desc["p"])


_DOC_KEYS = frozenset(("name", "field", "dim", "central", "hyperplanes"))
_ENTRY_KEYS = frozenset(("coeffs", "mult"))


def parse_document(text: str) -> ArrangementDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise DocumentError("invalid JSON: nesting too deep") from exc
    if not isinstance(raw, dict):
        raise DocumentError("document must be a JSON object")
    if not raw.keys() <= _DOC_KEYS:
        raise DocumentError(f"unknown keys {sorted(raw.keys() - _DOC_KEYS)}")
    name = raw.get("name")
    if name is not None and not isinstance(name, str):
        raise DocumentError("name: expected a string")
    field_desc = raw.get("field")
    if field_desc != "Q":
        if not (isinstance(field_desc, dict) and set(field_desc) == {"p"} and type(field_desc["p"]) is int):
            raise DocumentError('field: expected "Q" or {"p": prime}')
        try:
            GF(field_desc["p"])
        except ValueError as exc:
            raise DocumentError(f"field: {exc}") from exc
    dim = raw.get("dim")
    if type(dim) is not int or dim not in (2, 3):
        raise DocumentError("dim: expected 2 or 3")
    central = raw.get("central", True)
    if not isinstance(central, bool):
        raise DocumentError("central: expected a boolean")
    if dim == 3 and not central:
        raise DocumentError("dim 3 supports only central arrangements")
    width = dim if central else dim + 1
    hyps = raw.get("hyperplanes")
    if not isinstance(hyps, list) or not hyps:
        raise DocumentError("hyperplanes: expected a nonempty list")
    out = []
    mult_allowed = dim == 2 and central
    for i, entry in enumerate(hyps):
        where = f"hyperplanes[{i}]"
        if not isinstance(entry, dict):
            raise DocumentError(f"{where}: expected an object")
        if not entry.keys() <= _ENTRY_KEYS:
            raise DocumentError(f"{where}: unknown keys {sorted(entry.keys() - _ENTRY_KEYS)}")
        coeffs = entry.get("coeffs")
        if not isinstance(coeffs, list) or len(coeffs) != width:
            raise DocumentError(f"{where}.coeffs: expected {width} entries")
        if not all(isinstance(c, str) for c in coeffs):
            raise DocumentError(f"{where}.coeffs: coefficients are exact-number strings")
        joined = "".join(coeffs)  # one string to search: no generator over the coefficients
        if field_desc == "Q" and ("e" in joined or "E" in joined):
            raise DocumentError(f"{where}.coeffs: exponent notation is not accepted")
        mult = entry.get("mult", 1)
        if "mult" in entry and not mult_allowed:
            raise DocumentError(f"{where}.mult: multiplicities only apply to planar central input")
        if type(mult) is not int or mult < 0:
            raise DocumentError(f"{where}.mult: expected a nonnegative integer")
        out.append((tuple(coeffs), mult))
    doc = ArrangementDocument(name, field_desc, dim, central, out)
    try:
        doc.built = build_arrangement(doc)
    except (ValueError, TypeError) as exc:
        raise DocumentError(str(exc)) from exc
    except ZeroDivisionError as exc:
        raise DocumentError(f"coefficient with a zero denominator: {exc}") from exc
    return doc


def serialize_document(doc: ArrangementDocument) -> str:
    """The canonical JSON of a parsed document, written straight from its fixed shape.

    The text is :func:`canonical_json` of the document as an object (sorted
    keys, two-space indent, a final newline), byte for byte.  The
    coefficient strings that field.format prints are ASCII digits, "-" and
    "/", so only the name needs the quoter.
    """
    fmt = doc.field.format
    mult_line = doc.dim == 2 and doc.central
    out = [
        f'{{\n  "central": {"true" if doc.central else "false"},\n  "dim": {doc.dim},\n  "field": ',
        '"Q"' if doc.field_desc == "Q" else f'{{\n    "p": {doc.field_desc["p"]}\n  }}',
        ',\n  "hyperplanes": [',
    ]
    for coeffs, (_, mult) in zip(doc.scalars, doc.hyperplanes):
        out.append('\n    {\n      "coeffs": [\n        "')
        out.append('",\n        "'.join([fmt(c) for c in coeffs]))
        out.append(f'"\n      ],\n      "mult": {mult}\n    }},' if mult_line else '"\n      ]\n    },')
    out[-1] = out[-1][:-1]  # no comma after the last hyperplane
    out.append("\n  ]\n}\n" if doc.name is None else f'\n  ],\n  "name": {_quote(doc.name)}\n}}\n')
    return "".join(out)


def canonical_json(obj) -> str:
    """obj as ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, from one C call per string.

    With an indent, ``json.dumps`` runs its pure-Python encoder; this
    writer quotes each string with the C ``encode_basestring_ascii`` and
    prints ints with ``int.__repr__``.  It takes dicts with str keys,
    lists, tuples, str, int, bool and None; anything else, a float or a
    Fraction included, raises TypeError, so no float reaches the output.
    """
    out = []
    _write(obj, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _write(obj, pad: str, put) -> None:
    """Append the JSON text of obj to put, with pad (a newline and indent) before each nested line."""
    kind = type(obj)
    if kind is str:
        put(_quote(obj))
    elif kind is int:
        put(int.__repr__(obj))
    elif kind is dict:
        if not obj:
            put("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(obj):
            put(sep)
            put(_quote(key))  # raises TypeError on a key that is not a str
            put(": ")
            _write(obj[key], inner, put)
            sep = "," + inner
        put(pad + "}")
    elif kind is list or kind is tuple:
        if not obj:
            put("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for item in obj:
            put(sep)
            _write(item, inner, put)
            sep = "," + inner
        put(pad + "]")
    elif obj is True:
        put("true")
    elif obj is False:
        put("false")
    elif obj is None:
        put("null")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def build_arrangement(doc: ArrangementDocument):
    """Instantiate the arrangement described by a document.

    Returns ("arr2", Arrangement2, multiplicity), ("arr3", Arrangement3)
    or ("aff2", AffineArrangement2).  Each coefficient string is parsed
    once, into doc.scalars, which serialize_document formats; over Q a
    scalar is an int when the string is a plain integer, and a Fraction
    otherwise (see :func:`_parse`).  Each row is scaled to its canonical
    int vector, from which its form is built with no second parse.  The
    faults come in the order the forms' own constructors meet them: row
    by row, each coefficient as it is parsed, the direction part of an
    affine line before its constant term, then a zero row, then a
    repeated form.
    """
    field = doc.field
    p = field.char
    doc.scalars = []
    rows = []
    for coeffs, _ in doc.hyperplanes:
        row = [_parse(field, c) for c in coeffs[:2]]
        if not doc.central and not (row[0] or row[1]):  # the constant term is not parsed then, as AffineLine does
            raise ValueError("line needs a nonzero direction part")
        row += [_parse(field, c) for c in coeffs[2:]]
        doc.scalars.append(tuple(row))
        rows.append(_canonical_ints(p, _scaled_ints(field, row)[0]))
    if doc.dim == 2 and doc.central:
        return "arr2", multiarr2.Arrangement2._of_ints(field, rows), tuple(m for _, m in doc.hyperplanes)
    if doc.dim == 3:
        return "arr3", arr3.Arrangement3._of_ints(field, rows)
    return "aff2", arr3.AffineArrangement2._of_ints(field, rows)


def _parse(field, text: str):
    """The field scalar of text.

    Over Q, a string of ASCII digits with at most a leading "-" becomes a
    Python int, the value Fraction(text) has, and field.format prints the
    same text; any other string, or one past the int-to-string limit, goes
    to field(text), whose error is the document's.
    """
    if not field.char:
        digits = text[1:] if text[:1] == "-" else text
        if digits.isdigit() and digits.isascii():
            try:
                return int(text)
            except ValueError:
                pass
    return field(text)


def arrangement(name: str):
    """A fresh arrangement built from the bundled document ``name``."""
    return parse_document(document_path(name).read_text(encoding="utf-8")).built[1]


def _data():
    return resources.files(__package__) / "corpus" / "data"


def document_names() -> tuple:
    """Names of the bundled documents: their ``.json`` files, sorted."""
    return tuple(sorted(p.name.removesuffix(".json") for p in _data().iterdir() if p.name.endswith(".json")))


def document_path(name: str):
    """Filesystem path of a bundled arrangement document."""
    names = document_names()
    if name not in names:
        raise KeyError(f"unknown corpus document {name!r}; know {', '.join(names)}")
    return _data() / f"{name}.json"

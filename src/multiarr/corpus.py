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

from . import arr3, multiarr2
from .exactalg import GF, QQ

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

    @property
    def field(self):
        if self.field_desc == "Q":
            return QQ
        return GF(self.field_desc["p"])


def parse_document(text: str) -> ArrangementDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise DocumentError("invalid JSON: nesting too deep") from exc
    if not isinstance(raw, dict):
        raise DocumentError("document must be a JSON object")
    unknown = set(raw) - {"name", "field", "dim", "central", "hyperplanes"}
    if unknown:
        raise DocumentError(f"unknown keys {sorted(unknown)}")
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
        unknown = set(entry) - {"coeffs", "mult"}
        if unknown:
            raise DocumentError(f"{where}: unknown keys {sorted(unknown)}")
        coeffs = entry.get("coeffs")
        if not isinstance(coeffs, list) or len(coeffs) != width:
            raise DocumentError(f"{where}.coeffs: expected {width} entries")
        if not all(isinstance(c, str) for c in coeffs):
            raise DocumentError(f"{where}.coeffs: coefficients are exact-number strings")
        if field_desc == "Q" and any(ch in c for c in coeffs for ch in "eE"):
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
    field = doc.field
    obj = {
        "field": doc.field_desc,
        "dim": doc.dim,
        "central": doc.central,
        "hyperplanes": [
            {"coeffs": [field.format(field(c)) for c in coeffs]}
            | ({"mult": mult} if doc.dim == 2 and doc.central else {})
            for coeffs, mult in doc.hyperplanes
        ],
    }
    if doc.name is not None:
        obj["name"] = doc.name
    return canonical_json(obj)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def build_arrangement(doc: ArrangementDocument):
    """Instantiate the arrangement described by a document.

    Returns ("arr2", Arrangement2, multiplicity), ("arr3", Arrangement3)
    or ("aff2", AffineArrangement2).
    """
    field = doc.field
    if doc.dim == 2 and doc.central:
        arr = multiarr2.Arrangement2(field, [c for c, _ in doc.hyperplanes])
        return "arr2", arr, tuple(m for _, m in doc.hyperplanes)
    if doc.dim == 3:
        return "arr3", arr3.Arrangement3(field, [c for c, _ in doc.hyperplanes])
    return "aff2", arr3.AffineArrangement2(field, [c for c, _ in doc.hyperplanes])


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

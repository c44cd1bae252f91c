"""Document parsing, command output, exit codes and JSON determinism."""

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import multiarr
import oracles
from multiarr import arr3, cli, corpus, lattice, multiarr2, shift
from multiarr.corpus import ArrangementDocument
from multiarr.multiarr2 import Exponents2
from multiarr.cli import (
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    MULT_BUDGET,
    DocumentError,
    load_document,
    main,
    parse_document,
    serialize_document,
)


def corpus_file(name):
    return str(corpus.document_path(name))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_a2(tmp_path, coeffs, mult=1, field="Q"):
    """a2 with the given coefficient strings and one multiplicity on every line."""
    doc = {
        "central": True,
        "dim": 2,
        "field": field,
        "hyperplanes": [{"coeffs": list(c), "mult": mult} for c in coeffs],
        "name": "a2",
    }
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


A2 = [("1", "0"), ("0", "1"), ("1", "1")]


def run_stdin(monkeypatch, text, *argv):
    """main on a document read from stdin; returns (code, stdout, stderr)."""
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def input_digest(capsys, path):
    code, out, _ = run(capsys, "exp", path, "--json")
    assert code == EXIT_OK
    return json.loads(out)["input"]["digest"]


# coefficient strings: ints, among them "-0", "007" and non-ASCII digits, and over Q fractions; then strings
# that one field route or neither parses
INT_COEFF = st.integers(-(10**30), 10**30).map(str) | st.sampled_from(["0", "-0", "007", "-12", "\u0663"])
FRACTION_COEFF = st.sampled_from(["3/4", "-4/6", "\u0661\u0662/5", "10/4"])
ODD_COEFF = st.sampled_from(["1/0", "12/-3", "0.5", "3.50", "x", "", " 3", "+3", "1_0", "-", "1e3", "9" * 4301])


@st.composite
def shaped_documents(draw):
    """JSON texts of documents of every shape over Q and GF(p), some with a malformed string, a zero row,
    a repeated plane or a stray mult."""
    field = draw(st.sampled_from(["Q", "Q", {"p": 2}, {"p": 7}, {"p": 2**31 - 1}]))
    dim, central = draw(st.sampled_from([(2, True), (3, True), (2, False)]))
    width = dim + (not central)
    coeff = st.one_of(INT_COEFF, INT_COEFF, FRACTION_COEFF if field == "Q" else INT_COEFF)
    rows = draw(st.lists(st.lists(coeff, min_size=width, max_size=width), min_size=1, max_size=5))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        draw(st.sampled_from(rows))[draw(st.integers(0, width - 1))] = draw(ODD_COEFF)
    if draw(st.integers(0, 4)) == 0:  # a zero row, or a line with no direction part and any constant
        zero = ["0", "-0", "0"][:dim] + ([draw(ODD_COEFF | INT_COEFF)] if width > dim else [])
        rows.insert(draw(st.integers(0, len(rows))), zero)
    if draw(st.integers(0, 3)) == 0:  # one plane twice: an int row and a multiple of it
        ints = draw(st.lists(st.integers(-9, 9), min_size=width, max_size=width))
        k = draw(st.sampled_from([1, -2, 3, 7]))
        rows.insert(draw(st.integers(0, len(rows))), [str(x) for x in ints])
        rows.append([str(k * x) for x in ints])
    hyps = [{"coeffs": r} for r in rows]
    if dim == 2 and central:
        for h in hyps:
            if draw(st.booleans()):
                h["mult"] = draw(st.integers(0, 3))
    elif draw(st.integers(0, 7)) == 0:  # refused: only planar central documents take a mult
        draw(st.sampled_from(hyps))["mult"] = 1
    doc = {"field": field, "dim": dim, "central": central, "hyperplanes": hyps}
    name = draw(st.none() | st.text(max_size=6))
    if name is not None:
        doc["name"] = name
    return json.dumps(doc, ensure_ascii=draw(st.booleans()))


class TestDocuments:
    def test_round_trip_is_canonical(self):
        for name in corpus.document_names():
            text = corpus.document_path(name).read_text(encoding="utf-8")
            doc = parse_document(text)
            assert serialize_document(doc) == text
            again = parse_document(serialize_document(doc))
            assert serialize_document(again) == text

    def test_parse_errors(self):
        with pytest.raises(DocumentError, match="line 1"):
            parse_document("{nope")
        with pytest.raises(DocumentError, match="field"):
            parse_document('{"field": "R", "dim": 2, "hyperplanes": [{"coeffs": ["1", "0"]}]}')
        with pytest.raises(DocumentError, match="dim"):
            parse_document('{"field": "Q", "dim": 4, "hyperplanes": []}')
        with pytest.raises(DocumentError, match="coeffs"):
            parse_document('{"field": "Q", "dim": 2, "hyperplanes": [{"coeffs": ["1"]}]}')
        with pytest.raises(DocumentError, match="mult"):
            parse_document(
                '{"field": "Q", "dim": 3, "hyperplanes": [{"coeffs": ["1","0","0"], "mult": 2}]}'
            )
        with pytest.raises(DocumentError, match="proportional"):
            parse_document(
                '{"field": "Q", "dim": 2, "hyperplanes": '
                '[{"coeffs": ["1","0"]}, {"coeffs": ["2","0"]}]}'
            )

    @pytest.mark.parametrize(
        "text, match",
        [
            ('{"field": "Q", "dim": 2, "hyperplanes": [{"coeffs": ["1/0", "1"]}]}', "zero denominator"),
            ('{"field": "Q", "dim": 2, "hyperplanes": [{"coeffs": ["1", "0"], "mult": true}]}', "mult"),
            ('{"field": "Q", "dim": 2.0, "hyperplanes": [{"coeffs": ["1", "0"]}]}', "dim"),
            ('{"field": "Q", "dim": 2, "hyperplanes": [{"coeffs": ["1e999999999", "1"]}]}', "exponent"),
            ('{"field": "Q", "dim": 2, "hyperplanes": [{"coeffs": ["1E3", "1"]}]}', "exponent"),
            ('{"field": {"p": 18446744073709551629}, "dim": 2, "hyperplanes": [{"coeffs": ["1", "0"]}]}',
             "2\\^64"),
            ("[" * 100_000, "nesting"),
            ('{"field": "Q", "dim": 2, "central": "yes", "hyperplanes": [{"coeffs": ["1", "0"]}]}',
             r"^central: expected a boolean$"),
            ('{"field": "Q", "dim": 3, "central": false, "hyperplanes": [{"coeffs": ["1", "0", "0"]}]}',
             r"^dim 3 supports only central arrangements$"),
            ('{"field": "Q", "dim": 2, "hyperplanes": [{"coeffs": ["1", "0"], "weight": 1}]}',
             r"^hyperplanes\[0\]: unknown keys \['weight'\]$"),
            ('{"field": "Q", "dim": 2, "hyperplanes": [{"coeffs": [1, "0"]}]}',
             r"^hyperplanes\[0\]\.coeffs: coefficients are exact-number strings$"),
            ('{"field": "Q", "dim": 2, "hyperplanes": [{"coeffs": ["1", "2e3"]}]}',
             r"^hyperplanes\[0\]\.coeffs: exponent notation is not accepted$"),
            ('{"field": "Q", "dim": 2, "hyperplanes": [{"weight": 1, "coeffs": ["1", "0"], "name": "x"}]}',
             r"^hyperplanes\[0\]: unknown keys \['name', 'weight'\]$"),
            ('{"field": "Q", "dim": 2, "hyperplanes": [{"coeffs": ["1", "0"], "mult": -1, "weight": 1}]}',
             r"^hyperplanes\[0\]: unknown keys \['weight'\]$"),
        ],
        ids=["zero-denominator", "bool-mult", "float-dim", "huge-exponent", "exponent-E", "p-above-2^64",
             "deep-nesting", "string-central", "non-central-dim-3", "unknown-hyperplane-key", "int-coefficient",
             "exponent-second-coefficient", "two-unknown-hyperplane-keys", "unknown-key-before-bad-mult"],
    )
    def test_parser_holes_exit_three(self, capsys, tmp_path, text, match):
        with pytest.raises(DocumentError, match=match):
            parse_document(text)
        bad = tmp_path / "doc.json"
        bad.write_text(text)
        code, out, err = run(capsys, "exp", str(bad))
        assert code == EXIT_IO and out == ""
        assert "document error" in err

    @pytest.mark.parametrize(
        "extra, unknown",
        [({"H0": 2, "multiplicity": [1, 2, 3]}, "['H0', 'multiplicity']"), ({"centrl": False}, "['centrl']")],
        ids=["H0-multiplicity", "misspelled-central"],
    )
    def test_unknown_top_level_keys_exit_three(self, capsys, tmp_path, extra, unknown):
        planes = (["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"])
        doc = {"dim": 3, "field": "Q", "hyperplanes": [{"coeffs": c} for c in planes]} | extra
        bad = tmp_path / "doc.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "free", str(bad))
        assert code == EXIT_IO and out == ""
        assert err == f"document error: unknown keys {unknown}\n"

    @staticmethod
    def document(field, dim, rows, central=True):
        return json.dumps({"field": field, "dim": dim, "central": central, "hyperplanes": [{"coeffs": r} for r in rows]})

    @pytest.mark.parametrize(
        "field, dim, central, rows, first",
        [
            ("Q", 2, True, [["x", "1"], ["1"]], "hyperplanes[1].coeffs: expected 2 entries"),
            ("Q", 2, True, [["x", "1"], ["0", "0"]], "Invalid literal for Fraction: 'x'"),
            ("Q", 2, True, [["0", "0"], ["1/0", "1"]], "zero coefficient vector has no canonical form"),
            ("Q", 2, True, [["1", "0"], ["2", "0"], ["1", "x"]], "Invalid literal for Fraction: 'x'"),
            ("Q", 2, False, [["0", "0", "1/0"]], "line needs a nonzero direction part"),
            ("Q", 2, False, [["1", "0", "x"], ["0", "0", "1"]], "Invalid literal for Fraction: 'x'"),
            ({"p": 7}, 2, True, [["x", "1"], ["0", "0"]], "invalid literal for int() with base 10: 'x'"),
            ({"p": 7}, 2, True, [["7", "14"], ["1", "1/2"]], "zero coefficient vector has no canonical form"),
            ("Q", 3, True, [["0", "0", "0"], ["1", "y", "0"]], "zero coefficient vector has no canonical form"),
        ],
    )
    def test_two_faults_report_the_first(self, field, dim, central, rows, first):
        """Each coefficient is parsed once, where its form is built, so the first fault is reported."""
        with pytest.raises(DocumentError) as info:
            parse_document(self.document(field, dim, rows, central))
        assert str(info.value) == first

    @given(
        field=st.sampled_from(["Q", {"p": 7}]),
        shape=st.sampled_from([(2, True), (3, True), (2, False)]),
        data=st.data(),
    )
    def test_parsed_once_as_the_forms_would_parse(self, field, shape, data):
        """The build and the serialised coefficients against forms that parse the strings themselves."""
        dim, central = shape
        width = dim + (not central)
        coeff = st.sampled_from(["0", "1", "-1", "2/3", "-4/6", "7", "1/0", "0.5", "x", ""])
        rows = data.draw(st.lists(st.lists(coeff, min_size=width, max_size=width), min_size=1, max_size=4))
        text = self.document(field, dim, rows, central)
        doc = ArrangementDocument(None, field, dim, central, [(tuple(r), 1) for r in rows])
        make = {(2, True): multiarr2.Arrangement2, (3, True): arr3.Arrangement3, (2, False): arr3.AffineArrangement2}[shape]
        try:
            want = make(doc.field, rows)
        except ZeroDivisionError as exc:
            with pytest.raises(DocumentError) as info:
                parse_document(text)
            assert str(info.value) == f"coefficient with a zero denominator: {exc}"
            return
        except ValueError as exc:
            with pytest.raises(DocumentError) as info:
                parse_document(text)
            assert str(info.value) == str(exc)
            return
        got = parse_document(text)
        assert got.built[1] == want
        coeffs = [h["coeffs"] for h in json.loads(serialize_document(got))["hyperplanes"]]
        assert coeffs == [[doc.field.format(doc.field(c)) for c in r] for r in rows]

    PLAIN_OR_NOT = ["-0", "007", "+3", " 3", "1_0", "\u0663", "1/2", "3.50", "-", "", "9" * 4301, "-12"]

    @pytest.mark.parametrize("field", ["Q", {"p": 7}], ids=["Q", "GF7"])
    @pytest.mark.parametrize("text", PLAIN_OR_NOT, ids=repr)
    def test_integer_parse_matches_the_field_route(self, field, text):
        """A plain integer read as an int gives the forms, bytes, digest and error of Fraction(text)."""
        for dim, central, rows in [
            (2, True, [[text, "1"], ["0", "1"], ["1", "1"]]),
            (3, True, [["1", text, "0"], ["0", "0", "1"], ["1", "1", "1"]]),
            (2, False, [["1", "0", text], ["0", "1", "0"]]),
        ]:
            doc = self.document(field, dim, rows, central)
            assert self.load_or_error(doc) == self.load_or_error(doc, oracle=True)

    @staticmethod
    def load_or_error(text, oracle=False):
        """(built, each form's class, ints and hash, text, digest) of load_document on text, or its DocumentError text.

        With oracle=True the document is built and written by the routes in
        oracles.py: a field parse of every string, each form built by its own
        constructor, and the text written through canonical_json.
        """
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("sys.stdin", io.StringIO(text))
            if oracle:
                mp.setattr(corpus, "build_arrangement", oracles.build_arrangement)
                mp.setattr(cli, "serialize_document", oracles.serialize_document)
            try:
                doc, digest = load_document("-")
            except DocumentError as exc:
                return str(exc)
        forms = [(type(f), f.ints, hash(f)) for f in doc.built[1].forms]
        return doc.built, forms, cli.serialize_document(doc), digest

    @settings(max_examples=300, deadline=None)
    @given(shaped_documents())
    def test_build_and_writer_match_the_generic_routes(self, text):
        """The canonical-int build and the direct writer against the oracles: forms, bytes, digest and error."""
        assert self.load_or_error(text) == self.load_or_error(text, oracle=True)

    def test_plain_integers_become_ints_over_q_only(self):
        rows = [["-0", "007"], ["1/2", "-12"], ["3.50", "1"]]
        q = parse_document(self.document("Q", 2, rows))
        assert [tuple(map(type, r)) for r in q.scalars] == [(int, int), (Fraction, int), (Fraction, int)]
        gf = parse_document(self.document({"p": 7}, 2, [["-0", "008"], ["12", "1"]]))
        assert all(type(c) is not int for r in gf.scalars for c in r)

    def test_undecodable_file_exits_three(self, capsys, tmp_path):
        bad = tmp_path / "doc.json"
        bad.write_bytes(b"\xff\xfe{")
        code, _, err = run(capsys, "exp", str(bad))
        assert code == EXIT_IO
        assert "document error" in err

    def test_field_descriptor_prime(self):
        doc, _ = load_document(corpus_file("remark_f2"))
        assert doc.field_desc == {"p": 2}
        assert doc.field.char == 2

    def test_equivalent_coefficients_share_a_digest(self, capsys, tmp_path):
        want = input_digest(capsys, corpus_file("a2"))
        odd = write_a2(tmp_path, [("2/2", " 0"), ("0", "1.0"), ("1", "1")])
        assert input_digest(capsys, odd) == want
        mod7 = input_digest(capsys, write_a2(tmp_path, [("1", "0"), ("0", "1"), ("1", "1")], field={"p": 7}))
        assert input_digest(capsys, write_a2(tmp_path, [("8", "7"), ("-7", "15"), ("1", "-6")], field={"p": 7})) == mod7

    def test_file_handle_closed(self):
        env = dict(os.environ, PYTHONPATH=str(Path(multiarr.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "multiarr.cli", "exp",
             corpus_file("a2")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == EXIT_OK
        assert proc.stderr == ""


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
COEFF = st.sampled_from(["0", "1", "-1", "2/3", "1/0", "0.5", "1e3", "x", ""]) | st.text(max_size=6)
HYPERPLANE = st.fixed_dictionaries(
    {"coeffs": st.lists(COEFF | JSON, max_size=4) | JSON},
    optional={"mult": st.integers(-2, 3) | JSON, "extra": JSON},
)
DOCUMENT = st.fixed_dictionaries(
    {
        "field": st.just("Q") | st.fixed_dictionaries({"p": st.integers(-3, 2**70) | JSON}) | JSON,
        "dim": st.sampled_from([2, 3]) | JSON,
        "hyperplanes": st.lists(HYPERPLANE, max_size=4) | JSON,
    },
    optional={"name": st.text(max_size=4) | JSON, "central": st.booleans() | JSON, "extra": JSON},
)


class TestParserFuzz:
    """parse_document refuses any malformed input with a DocumentError only."""

    @staticmethod
    def parse(text):
        try:
            parse_document(text)
        except DocumentError:
            pass

    @settings(deadline=2000, max_examples=150)
    @given(JSON)
    def test_arbitrary_json(self, value):
        self.parse(json.dumps(value))

    @settings(deadline=2000, max_examples=150)
    @given(DOCUMENT)
    def test_document_shaped(self, value):
        self.parse(json.dumps(value))

    @settings(deadline=2000, max_examples=100)
    @given(st.text(max_size=40))
    def test_arbitrary_text(self, text):
        self.parse(text)


class TestExpCommand:
    def test_a2_line(self, capsys):
        code, out, _ = run(capsys, "exp", corpus_file("a2"))
        assert code == EXIT_OK
        assert "exp=(1,2) Δ=1 balanced=true" in out

    def test_remark_warns(self, capsys):
        code, out, _ = run(capsys, "exp", corpus_file("remark_f2"))
        assert code == EXIT_OK
        assert "exp=(4,8) Δ=4" in out
        assert "characteristic 2" in out

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "exp", corpus_file("a2"), "--json")
        assert code == EXIT_OK
        body = json.loads(out)
        assert body["results"]["exponents"] == [1, 2]
        assert body["results"]["lower_basis"]["f"] == ["0", "1"]
        assert "elapsed" not in out

    def test_rejects_wrong_dimension(self, capsys):
        code, _, err = run(capsys, "exp", corpus_file("braid3"))
        assert code == EXIT_IO
        assert "planar central" in err

    def test_corrupt_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run(capsys, "exp", str(bad))
        assert code == EXIT_IO
        assert "document error" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "exp", "/no/such/file.json")
        assert code == EXIT_IO

    def test_mult_budget(self, capsys, tmp_path):
        code, out, err = run(capsys, "exp", write_a2(tmp_path, [("1", "0"), ("0", "1"), ("1", "1")], mult=200))
        assert code == EXIT_USAGE and out == ""
        assert f"|m| = 600 exceeds the multiplicity budget of {MULT_BUDGET}" in err

    def test_results_past_the_int_digit_limit_print(self, capsys, tmp_path):
        """Only parsing keeps Python's int-to-str digit limit, and main puts it back."""
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # CPython's default
        try:
            big = write_a2(tmp_path, [("1", "0"), ("0", "1"), ("1", "1" + "0" * 300)], mult=20)
            code, out, err = run(capsys, "exp", big, "--json")
            assert (code, err) == (EXIT_OK, "")
            results = json.loads(out)["results"]
            assert results["exponents"] == [30, 30]
            basis = results["lower_basis"]
            assert max(len(part) for c in basis["f"] + basis["g"] for part in c.split("/")) > 4300
            assert sys.get_int_max_str_digits() == 4300
            code, out, err = run(capsys, "exp", write_a2(tmp_path, [*A2[:2], ("1", "1" + "0" * 4300)]))
            assert (code, out) == (EXIT_IO, "")
            assert "document error: Exceeds the limit (4300 digits)" in err
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(saved)

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        text = corpus.document_path("a2").read_text(encoding="utf-8")
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run(capsys, "exp", "-")
        assert code == EXIT_OK
        assert "exp=(1,2)" in out

    # sha256 of `exp --json` on planar documents with a fractional line over Q
    # and a line with negative coefficients over GF(7), beyond the corpus
    EXP_PINS = [
        ("Q", ["1/2", "-3/4"], "92a4f2da9378c51fb20f01c57ba6e9ae5acf0778e37614f091393ecebd2ddad7"),
        ({"p": 7}, ["-3", "5"], "2c752fba91a173613664f2e3c4c30c8c56b22d8f36cbc261804911001e9394d6"),
    ]

    @pytest.mark.parametrize("field, line, digest", EXP_PINS, ids=["Q", "GF(7)"])
    def test_output_pinned_beyond_corpus(self, monkeypatch, field, line, digest):
        lines = (["1", "0"], ["0", "1"], line)
        doc = {"dim": 2, "field": field, "hyperplanes": [{"coeffs": c, "mult": 2} for c in lines]}
        code, out, err = run_stdin(monkeypatch, json.dumps(doc), "exp", "-", "--json")
        assert code == EXIT_OK, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestJsonDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("exp", "a2"),
            ("free", "braid3"),
            ("lattice", "a2", "--caps", "2,2,2", "--verify", "one"),
            ("shift", "a2", "--m0", "2,2,1"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        cmd = [argv[0], corpus_file(argv[1]), *argv[2:], "--json"]
        code1, out1, _ = run(capsys, *cmd)
        code2, out2, _ = run(capsys, *cmd)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        body = json.loads(out1)
        assert json.dumps(body, sort_keys=True) == json.dumps(body)  # keys sorted


TEXT = st.text(st.characters(blacklist_categories=()) | st.sampled_from('"\\\x00\x1f\x7f\u2028\U0001f600'), max_size=8)
WRITABLE = st.recursive(
    st.none() | st.booleans() | st.sampled_from([0, 1, True, False]) | st.integers() | TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=16,
)


class TestCanonicalWriter:
    """corpus.canonical_json against its oracle, json.dumps(obj, sort_keys=True, indent=2) + newline."""

    @given(obj=WRITABLE)
    @example(obj={"a": [True, 1, False, 0], "b": {"": [], "c": {}}, "d": ()})
    @example(obj=[[], {}, (), [[]], {"x": {}}, None])
    @example(obj={"\u00e9": "\"\\", "\x00": "\ud800", "\U0001f600": "\u2028\n\t"})
    def test_matches_the_json_module(self, obj):
        assert corpus.canonical_json(obj) == oracles.canonical_json(obj)

    @given(digits=st.integers(4301, 6000), sign=st.sampled_from([1, -1]))
    def test_ints_past_the_digit_limit(self, digits, sign):
        obj = {"big": [sign * (10**digits - 7), 0], "small": -1}
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert corpus.canonical_json(obj) == oracles.canonical_json(obj)
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize(
        "obj",
        [1.5, {"x": [0.0]}, Fraction(1, 2), [Fraction(3)], {1: "a"}, {"a": {2: 0}}],
        ids=["float", "nested-float", "fraction", "nested-fraction", "int-key", "nested-int-key"],
    )
    def test_refuses_what_is_not_exact_json(self, obj):
        with pytest.raises(TypeError):
            corpus.canonical_json(obj)


class TestLatticeCommand:
    def test_verify_one_passes(self, capsys):
        code, out, _ = run(
            capsys, "lattice", corpus_file("a2"), "--caps", "3,3,3", "--verify", "one"
        )
        assert code == EXIT_OK
        assert "verdict: PASS" in out

    def test_char2_expected_violation_exits_zero(self, capsys):
        code, out, _ = run(
            capsys,
            "lattice", corpus_file("remark_f2"), "--caps", "4,4,4",
            "--verify", "limit",
        )
        assert code == EXIT_OK
        assert "EXPECTED-VIOLATION" in out

    def test_region_budget(self, capsys):
        code, _, err = run(
            capsys,
            "lattice", corpus_file("five_lines"), "--caps", "20,20,20,20,20",
            "--verify", "one",
        )
        assert code == EXIT_USAGE
        assert "too large" in err

    def test_region_budget_counts_the_points_under_total(self, capsys):
        """With --total the budget reads the exact count, not the box of the caps."""
        argv = ("lattice", corpus_file("b2_lines"), "--caps", "30,30,30,30", "--verify", "limit")
        code, out, _ = run(capsys, *argv, "--total", "10")  # 1,001 points in a box of 923,521
        assert code == EXIT_OK and "verdict: PASS" in out
        code, out, err = run(capsys, *argv, "--total", "100")
        assert (code, out) == (EXIT_USAGE, "")
        assert "region too large: 914666 points exceeds the budget of 200000" in err

    @pytest.mark.parametrize("budget, code", [(20, EXIT_OK), (19, EXIT_USAGE)])
    def test_region_budget_edge(self, capsys, monkeypatch, budget, code):
        monkeypatch.setattr(cli, "POINT_BUDGET", budget)
        argv = ("lattice", corpus_file("a2"), "--caps", "4,4,4", "--total", "3", "--verify", "one")
        got, _, err = run(capsys, *argv)  # 20 points
        assert got == code
        assert ("region too large: 20 points exceeds the budget of 19" in err) == (code == EXIT_USAGE)

    def test_mult_budget(self, capsys):
        argv = ("lattice", corpus_file("a2"), "--caps", "100,100,0", "--verify", "one")
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert f"the largest |m| of the region = 200 exceeds the multiplicity budget of {MULT_BUDGET}" in err
        code, out, _ = run(capsys, *argv, "--total", "2")
        assert code == EXIT_OK and "verdict: PASS" in out

    def test_caps_length_checked(self, capsys):
        # malformed integer lists on the command line are usage errors, not document errors
        for argv in (
            ("lattice", corpus_file("a2"), "--caps", "1,1", "--verify", "one"),
            ("lattice", corpus_file("a2"), "--caps", "a,b,c", "--verify", "one"),
            ("shift", corpus_file("a2"), "--m0", "1,1"),
        ):
            code, _, err = run(capsys, *argv)
            assert code == EXIT_USAGE
            assert err.startswith("error: ") and argv[2] in err


class TestPlantedGap:
    """One wrong gap planted in the region table reaches the report, its FAIL lines, the verdict and exit 2."""

    @staticmethod
    def plant(monkeypatch, point, gap):
        """Give point the gap gap, in the region table and in exponents both."""
        real_map, real_exponents = lattice.exponent_map, lattice.exponents

        def faulty(e):
            return Exponents2(e.d1, e.d1 + gap)

        def table(region):
            emap = real_map(region)
            emap[point] = faulty(emap[point])
            return emap

        def exponents(arr, m):
            e = real_exponents(arr, m)
            return faulty(e) if m == point else e

        monkeypatch.setattr(lattice, "exponent_map", table)
        monkeypatch.setattr(lattice, "exponents", exponents)

    def test_verify_one(self, capsys, monkeypatch):
        self.plant(monkeypatch, (1, 1, 1), 3)  # the gap of a2 at (1, 1, 1) is 1
        report = lattice.verify_lemma_one(lattice.LatticeRegion(corpus.arrangement("a2"), (3, 3, 3)))
        assert len(report.failures) == 6  # each unit step into and out of the point
        assert report.failures[0] == ((0, 1, 1), (1, 1, 1), 0, 3)
        code, out, _ = run(capsys, "lattice", corpus_file("a2"), "--caps", "3,3,3", "--verify", "one")
        assert code == EXIT_VIOLATION
        assert "\n  FAIL (0, 1, 1) -> (1, 1, 1): gaps 0, 3\n" in out
        assert "\nverdict: VIOLATION\n" in out

    def test_verify_str(self, capsys, monkeypatch):
        self.plant(monkeypatch, (1, 1, 1, 2, 2), 3)  # its gap is 1, at distance 2 from the peak (1, 1, 1, 1, 1) of gap 3
        first = "gap law fails at (1, 1, 1, 2, 2): gap 3 != 1 (peak (1, 1, 1, 1, 1))"
        report = lattice.verify_theorem_str(lattice.LatticeRegion(corpus.arrangement("five_lines"), (4,) * 5))
        assert report.failures[0] == first
        code, out, _ = run(capsys, "lattice", corpus_file("five_lines"), "--caps", "4,4,4,4,4", "--verify", "str")
        assert code == EXIT_VIOLATION
        assert f"\n  FAIL {first}\n" in out
        assert "\nverdict: VIOLATION\n" in out


class TestShiftCommand:
    def test_certificate_table(self, capsys):
        code, out, _ = run(capsys, "shift", corpus_file("b2_lines"), "--m0", "1,1,1,1")
        assert code == EXIT_OK
        assert "certificate: PASS (16/16)" in out

    def test_document_multiplicities_default(self, capsys):
        code, out, _ = run(capsys, "shift", corpus_file("a2"))
        assert code == EXIT_OK
        assert "m0=(1, 1, 1)" in out

    def test_mult_budget(self, capsys):
        code, _, err = run(capsys, "shift", corpus_file("a2"), "--m0", "81,81,1")
        assert code == EXIT_USAGE
        assert f"|m0| = 163 exceeds the multiplicity budget of {MULT_BUDGET}" in err

    def test_hypothesis_failure_exit(self, capsys):
        code, _, err = run(capsys, "shift", corpus_file("a2"), "--m0", "2,2,2")
        assert code == EXIT_USAGE
        assert "gap" in err

    def test_positive_characteristic_is_an_expected_violation(self, capsys, tmp_path):
        path = write_a2(tmp_path, A2, field={"p": 2})
        code, out, _ = run(capsys, "shift", path, "--m0", "2,2,1")
        assert code == EXIT_OK
        assert "warning: field has characteristic 2; the shift theorem assumes characteristic zero" in out
        assert "certificate: EXPECTED-VIOLATION (0/8)" in out
        code, out, err = run(capsys, "shift", path, "--m0", "2,2,1", "--json")
        assert code == EXIT_OK and err == ""
        results = json.loads(out)["results"]
        assert not results["passed"] and "char_warning" not in results
        assert len(results["reproducers"]) == 8
        for repro in results["reproducers"]:
            assert repro["arrangement"] == [list(c) for c in A2]
            assert repro["field"] == "GF(2)"

    def test_failing_certificate_over_q_exits_two(self, capsys, monkeypatch):
        # a determinant check forced to fail: the path of a genuine counterexample
        real = shift._saito_criterion
        monkeypatch.setattr(shift, "_saito_criterion", lambda *args: (real(*args)[0], None))
        code, out, _ = run(capsys, "shift", corpus_file("a2"), "--json")
        assert code == EXIT_VIOLATION
        results = json.loads(out)["results"]
        assert not results["passed"] and len(results["reproducers"]) == 8
        repro = results["reproducers"][0]
        assert repro["arrangement"] == [list(c) for c in A2]
        assert repro["m0"] == [1, 1, 1] and repro["field"] == "Q"
        code, out, _ = run(capsys, "shift", corpus_file("a2"))
        assert code == EXIT_VIOLATION
        assert "certificate: VIOLATION (0/8)" in out and "warning" not in out


    # sha256 of `shift --json` at m0 beyond the corpus multiplicities, where the
    # contents and gcds of the derivations' int vectors do the most work
    SHIFT_PINS = [
        ("b2_lines", "Q", "9,9,9,9", "1003d61cb692bc24bdc725f62d8dc56a7fd221298d53c0ad8015160783fe1781"),
        ("a2", "Q", "9,9,9", "8ebcc36e53b285ca1a32209faaca74a96583de9e611e25ec474af8b4eccde86f"),
        ("a2", {"p": 2147483647}, "3,3,3", "a8490ea5be2ea0dcf1984fb48ed45dbb7fa5f1eb995423ffd1252e6bf83b93b5"),
        ("b2_lines", "Q", "5,5,5,5", "ea79ee151e5ec80a7ed0c1fb21176228fb14cb273f8846373b2e321ae4a2f9d8"),
        ("a2", "Q", "3,3,3", "3d707f8f2539c70a793964ade2fccfb28eaa938a60a19d6b161f59b71603f1c8"),
    ]

    @pytest.mark.parametrize("name, field, m0, digest", SHIFT_PINS)
    def test_output_pinned_beyond_corpus_m0(self, capsys, tmp_path, name, field, m0, digest):
        path = corpus_file(name) if field == "Q" else write_a2(tmp_path, A2, field=field)
        code, out, _ = run(capsys, "shift", path, "--m0", m0, "--json")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_output_pinned_on_twelve_lines(self, capsys, tmp_path):
        """The 4,096 shifts of x, y and x + k*y (k = 1..10) at m0 = 1^12."""
        lines = [["1", "0"], ["0", "1"]] + [["1", str(k)] for k in range(1, 11)]
        doc = {"central": True, "dim": 2, "field": "Q", "name": "twelve_lines",
               "hyperplanes": [{"coeffs": c, "mult": 1} for c in lines]}
        path = tmp_path / "twelve_lines.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "shift", str(path), "--json")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "493ad5ab070c1bc035cb27899dec2fbaa042263c88c8f4ddd83533eb60b4f210"
        )


class TestFreeCommand:
    def test_braid(self, capsys):
        code, out, _ = run(capsys, "free", corpus_file("braid3"))
        assert code == EXIT_OK
        assert "FREE exp=(1,2,3) coker=0 combinatorial=true(fc)" in out

    def test_generic4(self, capsys):
        code, out, _ = run(capsys, "free", corpus_file("generic4"))
        assert code == EXIT_OK
        assert "NOT FREE" in out and "coker=1" in out

    def test_boolean(self, capsys):
        code, out, _ = run(capsys, "free", corpus_file("boolean3"))
        assert code == EXIT_OK
        assert "FREE exp=(1,1,1)" in out

    def test_affine_autocone(self, capsys):
        code, out, _ = run(capsys, "free", corpus_file("braid_deconing"))
        assert code == EXIT_OK
        assert "FREE exp=(1,2,3)" in out
        assert "H0=5" in out

    def test_rejects_planar_central(self, capsys):
        code, out, err = run(capsys, "free", corpus_file("a2"))
        assert code == EXIT_IO and out == ""
        assert err == "document error: freeness needs a central dim-3 or affine dim-2 document\n"

    def test_h0_override_and_range(self, capsys):
        code, out, _ = run(capsys, "free", corpus_file("braid3"), "--H0", "3")
        assert code == EXIT_OK and "FREE" in out
        code, _, err = run(capsys, "free", corpus_file("braid3"), "--H0", "7")
        assert code == EXIT_USAGE
        assert "out of range" in err

    @pytest.mark.parametrize(
        "head, planes, exponents",
        [
            ({"dim": 3, "field": "Q"}, (["1", "0", "0"], ["0", "1", "0"]), "0,1,1"),
            ({"dim": 2, "central": False, "field": "Q"}, (["1", "0", "0"], ["1", "0", "1"]), "0,1,2"),
        ],
        ids=["planes-x-y", "lines-x=0-x=1"],
    )
    def test_non_essential_arrangements_carry_exponent_zero(self, monkeypatch, head, planes, exponents):
        # normals of rank below 3 leave a zero exponent in place of the usual 1, at every H0
        doc = json.dumps(head | {"hyperplanes": [{"coeffs": c} for c in planes]})
        for h0 in range(len(planes) + (head["dim"] == 2)):
            code, out, err = run_stdin(monkeypatch, doc, "free", "-", "--H0", str(h0))
            assert code == EXIT_OK, err
            assert out.startswith(f"FREE exp=({exponents}) coker=0 combinatorial=true(nb) H0={h0}\n")
            code, out, err = run_stdin(monkeypatch, doc, "free", "-", "--json", "--H0", str(h0))
            results = json.loads(out)["results"]
            assert code == EXIT_OK and results["free"], err
            assert (results["exponents"], results["coker_dim"], results["rule"]) == (
                [int(e) for e in exponents.split(",")], 0, "nb"
            )

    # sha256 of `free --json` at every H0, beyond the corpus: planes with large
    # coefficients over Q and over GF(2^31 - 1), and affine lines with
    # fractional coefficients (H0 = 4 is the infinite plane of the cone)
    LARGE = (["1000", "1001", "1003"], ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "1", "1"])
    FRACTIONAL = (["1", "0", "1/2"], ["2/3", "1", "1"], ["1", "-1", "-3/4"], ["0", "1", "0"])
    FREE_PINS = [
        ({"dim": 3, "field": "Q"}, LARGE, [
            "d26b29737252cb476cb9b419630f89eef0b3302cff9b70311a98d4a9b8876629",
            "c7b6446ba07133717349e6596eda2ff3860ba34e80cc82f3821f7fa8a3c8f975",
            "857d8adfb2d05d90ca9a266e5f7cb260834e68f012583efdcffb8f7512ab0fa6",
            "33805419080ae16d41316402645a7fdd6f62731c21c818f243d2a9f436196919",
            "c99a62529aff6b84a57580b4e167349333f07e47a1060b12c69f972ad900bff2",
        ]),
        ({"dim": 3, "field": {"p": 2**31 - 1}}, LARGE, [
            "3db0d908b912a97d7ccb0f64a98bd4bf0eff4f532333bc6fece08a477cae92a8",
            "341a0161ed12363340057b38cf05bb1f04e3da0ec61903a4a91af44d92c1cf86",
            "aa64b95fcdfd1c92db73975e5a708921358402e4ea3788a8f828991f7e2fcddf",
            "47d97b3e9349470858bb6c68daaffe07a121ca82641ec39ed92cfb3610c9b00c",
            "e0aa38a9ce63ad0a6b9e82ad80787dedca9fc05cffe4afbec7bd044702f43a58",
        ]),
        ({"dim": 2, "central": False, "field": "Q"}, FRACTIONAL, [
            "6013bcab146c8016030a6faf1ad14d81c1921864bf184eccf95fc5a5807817c2",
            "b74605e8f300e51232eaa2538e2eb67b62707f1119a4ccfdec981a835a82bc03",
            "2e43e67bfad8fb34ddc90d66433a111da8c798b9476d3f7a3aec3fde9076cdc6",
            "2de3738fd3358899cd1fb4d0abf8a289b019d70e97d092659423b088985b3919",
            "c727980c791ad7cdcf3253572e694065a62ccffae904794edf2a9e3026bf575d",
        ]),
    ]

    @pytest.mark.parametrize(
        "head, planes, digests", FREE_PINS, ids=["large-Q", "large-GF(2^31-1)", "fractional-affine"]
    )
    def test_output_pinned_beyond_corpus(self, monkeypatch, head, planes, digests):
        doc = head | {"hyperplanes": [{"coeffs": c} for c in planes]}
        for h0, digest in enumerate(digests):
            code, out, err = run_stdin(monkeypatch, json.dumps(doc), "free", "-", "--json", "--H0", str(h0))
            assert code == EXIT_OK, err
            assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSinglePath:
    @pytest.mark.parametrize(
        "argv",
        [
            ("exp", "a2"),
            ("lattice", "a2", "--caps", "1,1,1", "--verify", "str"),
            ("shift", "b2_lines"),
            ("free", "braid3"),
            ("free", "braid_deconing"),
        ],
    )
    def test_each_document_is_built_once(self, capsys, monkeypatch, argv):
        built = []
        real = corpus.build_arrangement
        monkeypatch.setattr(corpus, "build_arrangement", lambda doc: built.append(doc) or real(doc))
        code, _, _ = run(capsys, argv[0], corpus_file(argv[1]), *argv[2:])
        assert code == EXIT_OK
        assert len(built) == 1


LINES = {  # pairwise non-proportional lines of each field, as coefficient pairs
    p: [(0, 1)] + [(1, a) for a in (range(-3, 4) if p == 0 else range(p))] for p in (0, 2, 3, 5)
}


@st.composite
def planar_documents(draw):
    p = draw(st.sampled_from(sorted(LINES)))
    lines = draw(st.lists(st.sampled_from(LINES[p]), min_size=1, max_size=4, unique=True))
    mult = draw(st.lists(st.integers(0, 4), min_size=len(lines), max_size=len(lines)))
    while sum(mult) > 8:
        mult[mult.index(max(mult))] -= 1
    sign = draw(st.sampled_from([1, -1]))
    doc = {
        "central": True,
        "dim": 2,
        "field": "Q" if p == 0 else {"p": p},
        "hyperplanes": [
            {"coeffs": [str(sign * a), str(sign * b)], "mult": k} for (a, b), k in zip(lines, mult)
        ],
    }
    return p, mult, json.dumps(doc)


class TestCommandProperties:
    """exp, shift and lattice on small random documents exit 0, 1 or 2 cleanly."""

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(planar_documents())
    def test_exit_codes_and_json(self, monkeypatch, case):
        p, mult, text = case
        caps = ",".join(map(str, mult))
        for argv in (["exp", "-"], ["shift", "-"], ["lattice", "-", "--caps", caps, "--verify", "one"]):
            code, out, err = run_stdin(monkeypatch, text, *argv, "--json")
            assert "Traceback" not in err
            assert code in (EXIT_OK, EXIT_USAGE, EXIT_VIOLATION), argv
            if code == EXIT_VIOLATION:
                assert p == 0, argv
            if code == EXIT_USAGE:
                assert out == "" and err.startswith("error: ")
            else:
                assert json.loads(out)["command"].startswith(argv[0])


FREE_FIELDS = ("Q", {"p": 2}, {"p": 3}, {"p": 2**31 - 1})


@st.composite
def free_documents(draw):
    """Central dim-3 documents (h <= 8) and affine planar ones, |coeff| <= 10**6."""
    central = draw(st.booleans())
    bound = draw(st.sampled_from([1, 2, 9, 10**6]))  # small bounds make free arrangements common
    coeffs = st.tuples(*[st.integers(-bound, bound)] * 3)
    if central:
        coeffs = coeffs.filter(any)
    else:
        coeffs = coeffs.filter(lambda c: c[0] or c[1])
    h = draw(st.integers(2, 8 if central else 7))
    planes = draw(st.lists(coeffs, min_size=h, max_size=h, unique=True))
    field = draw(st.sampled_from(FREE_FIELDS))
    doc = {
        "central": central,
        "dim": 3 if central else 2,
        "field": field,
        "hyperplanes": [{"coeffs": [str(c) for c in plane]} for plane in planes],
    }
    return field, json.dumps(doc)


def expand(roots):
    """Coefficients of prod (t - r), highest power first."""
    out = [1]
    for r in roots:
        out = [a - r * b for a, b in zip(out + [0], [0] + out)]
    return out


class TestFreeProperties:
    """free on random documents: exit 0 or a parse error, and over Q an H0-independent verdict."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(free_documents())
    def test_exit_codes_verdicts_and_char_poly(self, monkeypatch, case):
        field, text = case
        code, out, err = run_stdin(monkeypatch, text, "free", "-", "--json")
        assert "Traceback" not in err
        assert code in (EXIT_OK, EXIT_IO)
        if code != EXIT_OK:
            assert out == ""
            return
        results = json.loads(out)["results"]
        if field != "Q":
            return
        if results["free"]:
            assert results["char_poly"] == expand(results["exponents"])
        verdicts = set()
        for h0 in range(len(json.loads(text)["hyperplanes"]) + results["coned"]):
            code, out, err = run_stdin(monkeypatch, text, "free", "-", "--json", "--H0", str(h0))
            assert code == EXIT_OK, err
            other = json.loads(out)["results"]
            verdicts.add((other["free"], str(other["exponents"])))
        assert verdicts == {(results["free"], str(results["exponents"]))}


class TestInternalError:
    def assert_reported_once(self, capsys, monkeypatch, message):
        path = corpus_file("a2")
        _, digest = load_document(path)
        monkeypatch.setattr(sys, "argv", ["multiarr", "shift", path])
        for argv in (None, ["shift", path]):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == EXIT_INTERNAL and captured.out == ""
            assert "Traceback" not in captured.err
            lines = captured.err.splitlines()
            assert len(lines) == 4
            assert lines[0].startswith(f"internal error: RuntimeError: {message}")
            assert re.fullmatch(r"  at .*multiarr2\.py:\d+ in _certified_basis", lines[1])
            assert lines[2] == f"input sha256: {digest}"
            assert lines[3] == f"reproduce: multiarr {shlex.join(['shift', path])}"

    def test_broken_invariant_is_reported_once(self, capsys, monkeypatch):
        monkeypatch.setattr(multiarr2, "_convolve", lambda terms, size: [0] * size)  # every determinant is zero
        self.assert_reported_once(
            capsys, monkeypatch, "independent pair fails the determinant criterion"
        )

    def test_non_tangent_basis_is_reported_once(self, capsys, monkeypatch):
        # d1 and Q(A, m)*d2 have the defining form as determinant, but d1 is not tangent to x1 + x2
        m = (0, 0, 1)  # the first shift of a2 with a basis to certify
        monkeypatch.setattr(multiarr2, "_canonical_basis", lambda arr, state: (
            multiarr2.Derivation2.coordinate(arr.field, 0),
            multiarr2.Derivation2(oracles.zero_form(arr.field, sum(m)), multiarr2.defining_form(arr, m)),
        ))
        self.assert_reported_once(capsys, monkeypatch, "basis pair is not tangent at m=(0, 0, 1)")


class TestClosedStdout:
    """A reader that closes stdout early gets exit 3 and an empty stderr."""

    class Closed:  # a stdout whose reader is gone, with no file descriptor
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    @pytest.mark.parametrize("flags", [(), ("--json",)])
    def test_in_process(self, capsys, monkeypatch, flags):
        monkeypatch.setattr(sys, "stdout", self.Closed())
        assert main(["free", corpus_file("braid3"), *flags]) == EXIT_IO
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_pipe(self, unbuffered):
        env = dict(os.environ, PYTHONPATH=str(Path(multiarr.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "multiarr.cli", "free", corpus_file("braid3")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == EXIT_IO
        assert err == b""


class TestCorpusDocuments:
    PINS = {  # bundled document: multiplicity of a planar central one
        "a2": (1, 1, 1),
        "b2_deform_a": None,
        "b2_deform_b": None,
        "b2_lines": (1, 1, 1, 1),
        "boolean3": None,
        "braid3": None,
        "braid_deconing": None,
        "five_lines": (1, 1, 1, 1, 1),
        "four_lines": (1, 1, 1, 1),
        "generic4": None,
        "generic5_lines": None,
        "near_pencil5": None,
        "remark_f2": (4, 4, 4),
    }

    def test_every_document_has_a_builder(self):
        data = Path(corpus.__file__).with_name("corpus") / "data"
        files = sorted(p.stem for p in data.glob("*.json"))
        assert list(corpus.document_names()) == files == sorted(self.PINS)

    def test_package_data_ships_every_document(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        globs = tomllib.loads(pyproject.read_text(encoding="utf-8"))["tool"]["setuptools"]["package-data"]
        package = Path(multiarr.__file__).parent
        shipped = {p for g in globs["multiarr"] for p in package.glob(g)}
        data = {p for p in (package / "corpus" / "data").rglob("*") if p.is_file()}
        assert data and data <= shipped

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown corpus document 'nope'"):
            corpus.document_path("nope")

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_builder_equals_document(self, name):
        doc = parse_document(corpus.document_path(name).read_text(encoding="utf-8"))
        assert doc.name == name
        arr = corpus.arrangement(name)
        assert arr == doc.built[1] and arr is not corpus.arrangement(name)
        assert (doc.built[2] if doc.built[0] == "arr2" else None) == self.PINS[name]


class TestFrameLimit:
    """free on planes with small and with large coefficients."""

    def write_plane(self, tmp_path):
        doc = {
            "dim": 3,
            "field": "Q",
            "hyperplanes": [{"coeffs": c} for c in (["1", "2", "4"], ["1", "0", "0"], ["0", "1", "0"])],
        }
        path = tmp_path / "plane.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_frame_within_the_limit(self, capsys, tmp_path):
        code, out, _ = run(capsys, "free", self.write_plane(tmp_path))
        assert code == EXIT_OK and "FREE" in out

    @pytest.mark.parametrize(
        "field, plane", [("Q", ["1000", "1001", "1003"]), ({"p": 2**31 - 1}, ["1", "12345", "999999"])]
    )
    def test_large_coefficients_at_every_h0(self, monkeypatch, field, plane):
        # each plane has a closed-form frame, however large its coefficients
        others = (["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "1", "1"])
        doc = {"dim": 3, "field": field, "hyperplanes": [{"coeffs": c} for c in (plane, *others)]}
        for h0 in range(5):
            code, out, err = run_stdin(monkeypatch, json.dumps(doc), "free", "-", "--H0", str(h0))
            assert code == EXIT_OK, err
            assert out.startswith(f"NOT FREE coker=3 combinatorial=false H0={h0}\n")


class TestVerifyAll:
    def test_corrupt_corpus_exits_three(self, capsys, tmp_path, monkeypatch):
        bad = tmp_path / "a2.json"
        bad.write_text("{broken")
        monkeypatch.setattr(corpus, "document_names", lambda: ("a2",))
        monkeypatch.setattr(corpus, "document_path", lambda name: bad)
        code, _, err = run(capsys, "verify-all")
        assert code == EXIT_IO
        assert "document error" in err

    def test_failing_criterion_exits_two(self, capsys, monkeypatch):
        from multiarr import acceptance
        from multiarr import cli as climod

        failing = acceptance.CriterionResult(1, "stub", False, 0.0, None, "forced failure")
        monkeypatch.setattr(climod.acceptance, "run_suite", lambda: [failing])
        code, out, _ = run(capsys, "verify-all")
        assert code == EXIT_VIOLATION
        assert "FAIL" in out and "suite: FAIL" in out


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["lattice", corpus_file("a2"), "--caps", "1,1,1", "--verify", "bogus"],
            ["exp"],
            ["lattice", corpus_file("a2"), "--caps", "1,1,1", "--verify", "one", "--total", "x"],
            ["bogus"],
            ["lattice", corpus_file("a2"), "--caps", "1,1,1", "--verify", "one", "--jobs", "2"],
            ["verify-all", "--suite", "desk"],
        ],
        ids=["bad-choice", "missing-file", "bad-total", "unknown-command",
             "removed-option-jobs", "removed-option-suite"],
    )
    def test_usage_errors_exit_one(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: multiarr") and "error:" in err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["exp", "--help"]])
    def test_help_and_version_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_OK
        assert capsys.readouterr().out


WELL_FORMED = {  # the option groups each subcommand accepts, abbreviated and unusual values too; "bogus" is unknown
    "exp": [("--json",), ("--js",)],
    "lattice": [("--json",), ("--caps", "1,1,1"), ("--verify", "one"), ("--verify", "str"), ("--total", "3"),
                ("--total", "1_0")],
    "shift": [("--json",), ("--m0", "1,2,3"), ("--m0", "")],
    "free": [("--json",), ("--H0", "2"), ("--H", "2"), ("--H0=2",), ("--H0", "-1"), ("--H0", " 3")],
    "verify-all": [("--json",)],
    "bogus": [("--json",)],
}
OPTION = st.sampled_from([  # every group above, bad values, removed options, "--" and a missing value
    *dict.fromkeys(g for groups in WELL_FORMED.values() for g in groups),
    ("--H0", "x"), ("--caps",), ("--verify", "bogus"), ("--total", "x"), ("--jobs", "2"), ("--suite", "desk"),
    ("--",), ("--m0", "--json"), ("--H0", "-"),
])
FILE = st.sampled_from([(), ("doc.json",), ("-",), ("",), ("doc.json", "-")])  # none, one or two positionals
EXITS = st.sampled_from([(), ("-h",), ("--version",)])


@st.composite
def command_lines(draw):
    """An argv of the grammar; half use only the groups their command accepts, so they may parse.

    Groups are drawn with replacement, so an option may be given twice.
    """
    well_formed = draw(st.booleans())
    head = [] if well_formed else list(draw(EXITS | st.just(("--json",))))
    command = draw(st.sampled_from([None, *WELL_FORMED]))
    if command is None:
        return head
    groups = draw(st.lists(st.sampled_from(WELL_FORMED[command]) if well_formed else OPTION, max_size=4))
    groups.append(draw(FILE))
    if not well_formed:
        groups.append(draw(EXITS))
    return head + [command] + [arg for group in draw(st.permutations(groups)) for arg in group]


def parse_outcome(parse, argv):
    """The namespace of parse(argv), or its exit code, with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = ("args", vars(parse(argv)))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


class TestSharedParser:
    """main parses with the one parser of the process; a fresh build is the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(command_lines(), min_size=1, max_size=6))
    def test_same_outcome_as_a_fresh_parser(self, argvs):
        # one shared parser sees the whole sequence, so state left by a call would show
        for argv in argvs:
            assert parse_outcome(cli._PARSER.parse_args, argv) == parse_outcome(cli._build_parser().parse_args, argv)

    @settings(max_examples=300, deadline=None)
    @given(command_lines())
    def test_main_parses_as_the_top_parser(self, argv):
        """A plain line read off its command's actions, or a line left to the top parser, parses as the top parser would."""
        assert parse_outcome(cli._parse_args, argv) == parse_outcome(cli._build_parser().parse_args, argv)

    def test_main_calls_the_command_the_module_holds(self, capsys, monkeypatch):
        calls = []

        def patched(args, doc):
            calls.append((args.command, args.file, doc.name))
            return "exp", {"patched": True}, ["patched"], EXIT_OK

        monkeypatch.setattr(cli, "cmd_exp", patched)
        code, out, err = run(capsys, "exp", corpus_file("a2"), "--json")
        assert (code, err) == (EXIT_OK, "")
        assert calls == [("exp", corpus_file("a2"), "a2")]
        assert json.loads(out)["results"] == {"patched": True}

    PLAIN_LINES = [  # the lines the benchmark sends, then those of the README
        ["exp", "-", "--json"],
        ["shift", "-", "--m0", "3,3,3", "--json"],
        ["free", "-", "--json"],
        ["free", "-", "--H0", "2", "--json"],
        ["lattice", "FILE", "--caps", "3,3,3", "--verify", "str"],
        ["lattice", "DOC.json", "--caps", "4,4,4", "--verify", "limit"],
        ["shift", "DOC.json", "--m0", "2,2,1"],
        ["free", "DOC.json"],
        ["verify-all", "--json"],
        ["verify-all"],
    ]

    @pytest.mark.parametrize("stats", [[], ["--stats"]], ids=["no-stats", "stats"])
    @pytest.mark.parametrize("line", PLAIN_LINES, ids=" ".join)
    def test_plain_lines_skip_argparse(self, monkeypatch, line, stats):
        """Each line is read off its command's actions into the top parser's namespace; argparse is never called."""
        argv = line + stats
        want = vars(cli._build_parser().parse_args(argv))

        def refuse(*args, **kwargs):
            raise AssertionError("argparse parsed a plain line")

        monkeypatch.setattr(cli._PARSER, "parse_args", refuse)
        assert vars(cli._parse_args(argv)) == want

    def test_main_builds_no_parser(self, capsys, monkeypatch):
        braid3, a2 = corpus_file("braid3"), corpus_file("a2")
        cases = (["free", braid3, "--json"], ["exp", a2], ["free", braid3, "--H0", "2"])

        def stdout(argv):
            code, out, err = run(capsys, *argv)
            assert code == EXIT_OK and err == ""
            return re.sub(r"elapsed: .*\n", "", out)  # the text output ends with a wall time

        before = [stdout(argv) for argv in cases]

        def refuse():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli, "_build_parser", refuse)
        assert [stdout(argv) for argv in cases] == before
        with pytest.raises(SystemExit) as exc:
            main(["free", braid3, "--H0", "x"])
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage: multiarr free")


class TestModuleEntry:
    """``python -m multiarr`` runs the command line of ``multiarr.cli``."""

    @staticmethod
    def python(*args):
        env = dict(os.environ, PYTHONPATH=str(Path(multiarr.__file__).parents[1]))
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=60)

    def test_version(self):
        proc = self.python("-m", "multiarr", "--version")
        assert proc.returncode == EXIT_OK
        assert proc.stdout == f"multiarr {multiarr.__version__}\n".encode() == b"multiarr 0.1.0\n"

    def test_same_output_as_the_cli_module(self):
        argv = ["free", corpus_file("braid3"), "--json"]
        package = self.python("-m", "multiarr", *argv)
        module = self.python("-m", "multiarr.cli", *argv)
        assert package.returncode == module.returncode == EXIT_OK
        assert package.stdout == module.stdout != b""
        assert package.stderr == module.stderr == b""

"""The CLI's JSON writer prints what ``json.dumps(payload, sort_keys=True,
indent=2)`` prints, and refuses every type a payload must not hold; its csv
rows print as ``csv.writer`` prints them.  The writers of tables and Hecke
elements print what the payload they replace printed in every format, and
``-o`` holds the bytes of stdout."""

import contextlib
import csv
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from periodic_kl import cli
from periodic_kl.cli import _dumps, _element_pieces, _pieces, _table_pieces, main
from periodic_kl.laurent import ZERO, LaurentPoly


def _reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


# Fixed example sequence and no example database, as in test_laurent.py.
_settings = settings(derandomize=True, database=None)
_texts = st.text() | st.sampled_from(["", "é", " ", "\x00\x1f\x7f", '"\\/', "\ud800", "\udfff", "😀"])
_scalars = st.none() | st.booleans() | st.integers() | st.integers(-(2 ** 80), 2 ** 80) | _texts
payloads = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_texts, inner, max_size=4),
    max_leaves=25,
)


@_settings
@given(payloads)
def test_matches_json_dumps(payload):
    assert _dumps(payload) == _reference(payload)


@pytest.mark.parametrize("payload", [
    {}, [], {"a": {}}, {"a": []}, [{}], [[]], [[[]], {"b": [{}]}], {"a": {"b": {"c": []}}},
    "naïve Σ 😀", " ", "\x00\x01\n\t\x1f\x7f", 'quote " backslash \\ slash /', "\ud800", "x\udfffy",
    {"\ud83d": "\ude00", "é": 1, "e": 2, "E": 3, "": 4},
    -1, 0, -(2 ** 70), 2 ** 64, 2 ** 64 + 1, 10 ** 40,
    True, False, None, [True, False, None, 1, 0], {"t": True, "f": False, "n": None},
])
def test_explicit_cases(payload):
    assert _dumps(payload) == _reference(payload)


@pytest.mark.parametrize("payload", [
    1.5, {"x": 0.0}, [(1, 2)], (), {"s": {1}}, set(), {1: "a"}, {True: "a"}, {"a": 1, 2: "b"}, [object()],
])
def test_other_types_are_refused(payload):
    with pytest.raises(TypeError):
        _dumps(payload)


def test_a_generator_is_a_list_of_its_items_texts():
    # each text is written at the list's inner indentation, as _dumps writes the item there
    items = [{"k": [1, None]}, [], "x", 2]
    payload = {"a": (_dumps(v, "\n    ") for v in items), "b": (t for t in ())}
    assert _dumps(payload) == _reference({"a": items, "b": []})


@_settings
@given(st.lists(st.lists(_texts, min_size=2, max_size=4), max_size=5))
def test_csv_rows_of_two_or_more_fields_print_as_csv_writer_prints_them(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([["a", "b"], *rows])
    assert "".join(_pieces("csv", {}, rows=[["a", "b"], *rows])) == buf.getvalue()


A1 = ["--type", "A", "--rank", "1", "--l", "3"]
EVERY_SUBCOMMAND = [
    ["blocks", *A1],
    ["selfcheck", *A1, "--height", "1", "--format", "json"],
    ["mult", "simple-in-verma", *A1, "--x", "t(0)*w[]", "--y", "t(1)*w[1]"],
    ["mult", "verma-in-projective", *A1, "--x", "t(0)*w[]", "--y", "t(0)*w[]", "--nu", "2"],
    ["mult", "baby", *A1, "--x", "t(0)*w[]", "--y", "t(1)*w[1]"],
    ["hecke", "mul", *A1, "--x", "t(0)*w[1]", "--y", "t(1)*w[1]"],
    ["hecke", "bar", *A1, "--x", "t(1)*w[1]"],
    ["hecke", "kl", *A1, "--x", "t(1)*w[1]"],
    ["orders", "hasse", *A1, "--height", "1"],
    ["table", "qprime", *A1, "--height", "1"],
]


@pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=" ".join)
def test_every_subcommand_prints_the_json_dumps_bytes(argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == _reference(json.loads(out)) + "\n"


def test_an_output_file_holds_the_json_dumps_bytes(tmp_path):
    path = tmp_path / "t.json"
    assert main(["table", "p", *A1, "--height", "1", "-o", str(path)]) == 0
    out = path.read_text()
    assert out == _reference(json.loads(out)) + "\n"


# -- the table and Hecke element writers, against the payloads they replace ------------------

HEAD = {
    "kind": "generic_q", "type": "A", "rank": 2, "l": 5, "window": {"height": 1, "coset": "1,2"},
    "truncation": None, "omitted_entries_are": "zero", "format_version": 1,
}


def _old_table(fmt: str, head: dict, names: dict, ordered: list) -> str:
    """A table as the command line printed it from one payload per format."""
    if fmt == "json":
        entries = [{"y": names[y], "x": names[x], "polynomial": p.to_json()} for (y, x), p in ordered]
        return _reference({**head, "entries": entries}) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [["y", "x", "polynomial"]] + [[names[y], names[x], str(p)] for (y, x), p in ordered])
        return buf.getvalue()
    return _old_text("\n".join(f"p[{names[y]}, {names[x]}] = {p}" for (y, x), p in ordered))


def _old_element(fmt: str, head: dict, terms: list) -> str:
    if fmt == "json":
        return _reference({**head, "terms": [{"element": n, "polynomial": p.to_json()} for n, p in terms]}) + "\n"
    return _old_text("\n".join(f"{n}: {p}" for n, p in terms))


def _old_text(text: str) -> str:
    return text if text.endswith("\n") else text + "\n"


# Exponents on both sides of 0 and past 9, where string order is not integer order.
_polys = st.dictionaries(st.integers(-12, 14), st.integers(-(2 ** 70), 2 ** 70), max_size=5).map(LaurentPoly)


@st.composite
def tables(draw):
    """(names, ordered): a few elements with arbitrary names, and entries
    drawing their values from a small pool, so values repeat, some as equal
    but distinct objects."""
    names = dict(enumerate(draw(st.lists(_texts, min_size=1, max_size=5))))
    pool = draw(st.lists(_polys, min_size=1, max_size=4))
    ordered = []
    for y, x, i, copy in draw(st.lists(st.tuples(st.sampled_from(sorted(names)), st.sampled_from(sorted(names)),
                                                 st.integers(0, len(pool) - 1), st.booleans()), max_size=12)):
        p = pool[i]
        ordered.append(((y, x), LaurentPoly(p.coeffs) if copy else p))
    return names, ordered


@_settings
@given(tables(), st.sampled_from(["json", "csv", "text"]))
def test_the_table_writer_prints_the_old_payload(table, fmt):
    names, ordered = table
    head = {**HEAD, "elements": list(names.values())}
    assert "".join(_table_pieces(fmt, head, names, ordered)) == _old_table(fmt, head, names, ordered)


@_settings
@given(st.lists(st.tuples(_texts, _polys), max_size=10), st.sampled_from(["json", "text"]))
def test_the_element_writer_prints_the_old_payload(terms, fmt):
    head = {"op": "kl", "x": "t(1)*w[1]", "y": None}
    assert "".join(_element_pieces(fmt, head, terms)) == _old_element(fmt, head, terms)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("ordered", [
    [], [((0, 1), ZERO)], [((0, 0), ZERO), ((1, 0), LaurentPoly({10: 1, 2: -1, -1: 3}))],
], ids=["empty", "zero", "zero-and-two-digit-exponent"])
def test_table_writer_edge_cases(ordered, fmt):
    names = {0: "t(0,0)*w[]", 1: "t(1,-1)*w[1 2]"}
    head = {**HEAD, "elements": list(names.values())}
    assert "".join(_table_pieces(fmt, head, names, ordered)) == _old_table(fmt, head, names, ordered)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("terms", [[], [("t(0)*w[]", ZERO)]], ids=["empty", "zero"])
def test_element_writer_edge_cases(terms, fmt):
    head = {"op": "bar", "x": "t(0)*w[]", "y": None}
    assert "".join(_element_pieces(fmt, head, terms)) == _old_element(fmt, head, terms)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_a_document_of_many_chunks_is_written_whole(fmt, tmp_path):
    names = {i: f"t({i},{-i})*w[1]" for i in range(60)}
    values = [LaurentPoly({e: e - 3}) for e in range(7)]
    ordered = [((y, x), values[(x * y) % 7]) for x in range(60) for y in range(60)]
    assert len(ordered) > cli._CHUNK
    head = {**HEAD, "elements": list(names.values())}
    expected = _old_table(fmt, head, names, ordered)
    for output in (None, str(tmp_path / "t.out")):
        args = cli.build_parser().parse_args(["table", "q", *A1, "--height", "0", "--format", fmt]
                                             + (["-o", output] if output else []))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._write_out(args, _table_pieces(fmt, head, names, ordered))
        assert (out.getvalue() if output is None else (tmp_path / "t.out").read_text()) == expected


# -- -o holds the stdout bytes -------------------------------------------------------------

TABLE_ARGVS = [
    ["table", kind, *A1, "--height", "1", *(["--nu", "2"] if kind == "verma-in-projective" else [])]
    for kind in ("p", "q", "qprime", "simple-in-verma", "verma-in-projective", "baby")
]
KL_ARGV = ["hecke", "kl", "--type", "A", "--rank", "2", "--l", "5", "--x", "t(-11,6)*w[2]"]


@pytest.mark.parametrize("argv", [argv + ["--format", fmt] for argv in TABLE_ARGVS for fmt in ("json", "csv", "text")]
                         + [KL_ARGV + ["--format", fmt] for fmt in ("json", "text")], ids=" ".join)
def test_an_output_file_holds_the_stdout_bytes(argv, tmp_path, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    path = tmp_path / "out"
    assert main(argv + ["-o", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize("argv", [TABLE_ARGVS[1], KL_ARGV], ids=" ".join)
def test_an_unwritable_output_path_exits_2_and_prints_nothing(argv, tmp_path, capsys):
    path = tmp_path / "missing" / "out.json"
    assert main(argv + ["-o", str(path)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1 and lines[0].startswith("error: "), lines
    assert not path.exists()

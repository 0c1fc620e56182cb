"""The CLI's JSON emitter prints what ``json.dumps(payload, sort_keys=True,
indent=2)`` prints, and refuses every type a payload must not hold."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from periodic_kl.cli import _dumps, main


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

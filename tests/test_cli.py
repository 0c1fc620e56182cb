import csv
import json
import os
import subprocess
import sys
import time

import pytest

from periodic_kl.cli import main
from periodic_kl.laurent import LaurentPoly


def run_cli(args, tmp_path=None, name="out"):
    """Run main() capturing the output file; returns (exit_code, bytes)."""
    path = None
    if tmp_path is not None:
        path = tmp_path / name
        args = list(args) + ["-o", str(path)]
    code = main(list(args))
    data = path.read_bytes() if path is not None else b""
    return code, data


BASE_A1 = ["--type", "A", "--rank", "1", "--l", "3"]


def test_blocks_json(tmp_path):
    code, data = run_cli(["blocks", *BASE_A1], tmp_path)
    assert code == 0
    payload = json.loads(data)
    assert len(payload["blocks"]) == 4
    regular = [b for b in payload["blocks"] if b["regular"]]
    assert len(regular) == 2
    walls = sorted(tuple(b["walls"]) for b in payload["blocks"] if not b["regular"])
    assert walls == [("s0",), ("s1",)]


def test_blocks_formats(tmp_path):
    code, text = run_cli(["blocks", *BASE_A1, "--format", "text"], tmp_path, "t.txt")
    assert code == 0 and len(text.splitlines()) == 4
    code, csv_data = run_cli(["blocks", *BASE_A1, "--format", "csv"], tmp_path, "t.csv")
    assert code == 0
    assert csv_data.splitlines()[0] == b"representative,walls,regular,stabilizer_generators"


def test_determinism_byte_identical(tmp_path):
    args = ["table", "p", *BASE_A1, "--height", "2"]
    _, first = run_cli(args, tmp_path, "a.json")
    _, second = run_cli(args, tmp_path, "b.json")
    assert first == second
    args2 = ["blocks", *BASE_A1]
    _, b1 = run_cli(args2, tmp_path, "c.json")
    _, b2 = run_cli(args2, tmp_path, "d.json")
    assert b1 == b2


def test_table_json_round_trip(tmp_path, a1):
    code, data = run_cli(["table", "p", *BASE_A1, "--height", "2"], tmp_path)
    assert code == 0
    payload = json.loads(data)
    W, M = a1.group, a1.module
    assert payload["omitted_entries_are"] == "zero"
    seen = set()
    for entry in payload["entries"]:
        y = W.parse_element(entry["y"])
        x = W.parse_element(entry["x"])
        poly = LaurentPoly.from_json(entry["polynomial"])
        assert M.p_polynomial(y, x) == poly
        seen.add((entry["y"], entry["x"]))
    # everything not listed is zero
    for xs in payload["elements"]:
        for ys in payload["elements"]:
            if (ys, xs) not in seen:
                assert M.p_polynomial(W.parse_element(ys), W.parse_element(xs)).is_zero()


def test_mult_diagonal(tmp_path):
    code, data = run_cli(
        ["mult", "simple-in-verma", *BASE_A1, "--x", "t(0)*w[]", "--y", "t(0)*w[]", "--format", "text"],
        tmp_path,
        "m.txt",
    )
    assert code == 0
    assert data.strip() == b"1"


def test_mult_truncation(tmp_path):
    code, data = run_cli(
        ["mult", "verma-in-projective", *BASE_A1, "--x", "t(0)*w[]", "--y", "t(0)*w[]", "--nu", "2"],
        tmp_path,
    )
    assert code == 0
    assert json.loads(data)["value"] == {"0": 1}
    code, data = run_cli(
        ["mult", "verma-in-projective", *BASE_A1, "--x", "t(0)*w[]", "--y", "t(0)*w[]", "--nu", "-4"],
        tmp_path,
    )
    assert code == 0
    assert json.loads(data)["value"] == {}


def test_hecke_subcommands(tmp_path):
    code, data = run_cli(["hecke", "kl", *BASE_A1, "--x", "t(0)*w[1]"], tmp_path)
    assert code == 0
    payload = json.loads(data)
    assert payload["terms"] == [
        {"element": "t(0)*w[]", "polynomial": {"1": 1}},
        {"element": "t(0)*w[1]", "polynomial": {"0": 1}},
    ]
    code, data = run_cli(["hecke", "mul", *BASE_A1, "--x", "t(0)*w[1]", "--y", "t(0)*w[1]"], tmp_path)
    assert code == 0
    payload = json.loads(data)
    assert {"element": "t(0)*w[]", "polynomial": {"0": 1}} in payload["terms"]
    code, data = run_cli(["hecke", "bar", *BASE_A1, "--x", "t(0)*w[1]"], tmp_path)
    assert code == 0


def test_orders_hasse(tmp_path):
    code, data = run_cli(["orders", "hasse", *BASE_A1, "--height", "1", "--coset", "0"], tmp_path)
    assert code == 0
    payload = json.loads(data)
    assert payload["edges"] == [["t(0)*w[1]", "t(0)*w[]"]]


def test_selfcheck_passes(tmp_path):
    code, data = run_cli(["selfcheck", *BASE_A1, "--height", "2", "--format", "text"], tmp_path, "s.txt")
    assert code == 0
    assert all(line.startswith(b"ok") for line in data.splitlines())


def test_usage_errors():
    assert main(["blocks", "--type", "Z", "--rank", "1", "--l", "3"]) == 2
    assert main(["blocks", "--type", "A", "--rank", "1", "--l", "4"]) == 2
    assert main(["mult", "verma-in-projective", *BASE_A1, "--x", "t(0)*w[]", "--y", "t(0)*w[]"]) == 2
    assert main(["mult", "simple-in-verma", *BASE_A1, "--x", "nonsense", "--y", "t(0)*w[]"]) == 2
    assert main(["table", "p", *BASE_A1, "--height", "-1"]) == 2


CACHE_DIR = "<cache dir>"  # replaced by a path under the test's tmp_path


@pytest.mark.parametrize("flag,argv", [
    ("--nu", ["table", "p", *BASE_A1, "--height", "0", "--nu", "5"]),
    ("--nu", ["mult", "simple-in-verma", *BASE_A1, "--x", "t(0)*w[]", "--y", "t(0)*w[]", "--nu", "7"]),
    ("--y", ["hecke", "kl", *BASE_A1, "--x", "t(0)*w[1]", "--y", "t(0)*w[1]"]),
    ("--y", ["hecke", "bar", *BASE_A1, "--x", "t(0)*w[1]", "--y", "t(0)*w[1]"]),
    ("--format csv", ["selfcheck", *BASE_A1, "--height", "2", "--format", "csv", "--cache-dir", CACHE_DIR]),
    ("--format csv", ["mult", "baby", *BASE_A1, "--x", "t(0)*w[]", "--y", "t(0)*w[1]",
                      "--format", "csv", "--cache-dir", CACHE_DIR]),
    ("--format csv", ["hecke", "mul", *BASE_A1, "--x", "t(0)*w[1]", "--y", "t(0)*w[1]", "--format", "csv"]),
    ("--cache-dir", ["blocks", *BASE_A1, "--cache-dir", CACHE_DIR]),
    ("--cache-dir", ["hecke", "kl", *BASE_A1, "--x", "t(0)*w[1]", "--cache-dir", CACHE_DIR]),
    ("--cache-dir", ["orders", "hasse", *BASE_A1, "--height", "1", "--cache-dir", CACHE_DIR]),
], ids=["table-nu", "mult-nu", "hecke-kl-y", "hecke-bar-y", "selfcheck-csv", "mult-csv", "hecke-csv",
        "blocks-cache-dir", "hecke-cache-dir", "orders-cache-dir"])
def test_a_flag_the_kind_would_ignore_is_refused(flag, argv, tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main([str(cache) if a == CACHE_DIR else a for a in argv]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1 and lines[0].startswith("error: "), lines
    assert flag in lines[0]
    assert not cache.exists()


B2_Q_H1 = ["table", "q", "--type", "B", "--rank", "2", "--l", "5", "--height", "1"]


def test_table_formats_its_polynomials_from_memory(monkeypatch, tmp_path):
    def refuse(data):
        raise AssertionError("table output re-parsed a polynomial")

    monkeypatch.setattr(LaurentPoly, "from_json", staticmethod(refuse))
    code, data = run_cli(B2_Q_H1, tmp_path)
    assert code == 0 and json.loads(data)["entries"]


def test_table_formats_agree(tmp_path):
    _, data = run_cli(B2_Q_H1, tmp_path, "t.json")
    entries = [(e["y"], e["x"], str(LaurentPoly.from_json(e["polynomial"])))
               for e in json.loads(data)["entries"]]
    _, text = run_cli([*B2_Q_H1, "--format", "text"], tmp_path, "t.txt")
    assert text.decode().splitlines() == [f"p[{y}, {x}] = {p}" for y, x, p in entries]
    _, rows = run_cli([*B2_Q_H1, "--format", "csv"], tmp_path, "t.csv")
    assert [tuple(row) for row in csv.reader(rows.decode().splitlines()[1:])] == entries


def test_force_for_warnings(tmp_path):
    # l = 15 is admissible but not a prime power: requires --force
    args = ["blocks", "--type", "A", "--rank", "1", "--l", "15"]
    assert main(args + ["-o", str(tmp_path / "x.json")]) == 2
    assert main(args + ["--force", "-o", str(tmp_path / "y.json")]) == 0


def test_resource_exit_code(monkeypatch, tmp_path):
    from periodic_kl import periodic
    from periodic_kl.hecke import ResourceError

    def boom(self, window):
        raise ResourceError("synthetic")

    monkeypatch.setattr(periodic.PeriodicModule, "inversion_report", boom)
    code = main(["selfcheck", *BASE_A1, "--height", "1", "-o", str(tmp_path / "z.json")])
    assert code == 3


def test_kl_length_bound_exit_code(capsys):
    # t(70) has length 70, above the default bound 64: refused before any work
    code = main(["hecke", "kl", *BASE_A1, "--x", "t(70)*w[]"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("resource bound exceeded:"), lines
    assert "length 70" in lines[0] and "bound 64" in lines[0]


def test_window_bound_exit_code(capsys):
    # 2 * (2 * 10^8 + 1) elements: refused from its size, before enumerating any
    start = time.perf_counter()
    code = main(["orders", "hasse", *BASE_A1, "--height", "100000000"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("resource bound exceeded:"), lines
    assert "400000002" in lines[0] and "10000" in lines[0]
    assert elapsed < 1.0


def test_internal_failure_exit_code(monkeypatch, tmp_path):
    from periodic_kl import periodic

    def bad(self, window):
        return [(None, None, None)]

    monkeypatch.setattr(periodic.PeriodicModule, "inversion_report", bad)
    code = main(["selfcheck", *BASE_A1, "--height", "1", "-o", str(tmp_path / "z.json")])
    assert code == 4


def test_cache_round_trip(tmp_path):
    cache = tmp_path / "cache"
    args = ["table", "p", *BASE_A1, "--height", "2", "--cache-dir", str(cache)]
    _, first = run_cli(args, tmp_path, "a.json")
    files = list(cache.iterdir())
    assert len(files) == 1 and files[0].name.startswith("classes-A1-l3-v")
    _, second = run_cli(args, tmp_path, "b.json")
    assert first == second


A1_CACHE_NAME = "classes-A1-l3-v1.json"
A1_H0 = ["table", "p", *BASE_A1, "--height", "0", "--format", "text"]


def test_the_cache_is_never_turned_on_by_the_environment(monkeypatch, tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("PERIODIC_KL_CACHE", str(cache))
    assert run_cli(A1_H0, tmp_path)[0] == 0
    assert list(cache.iterdir()) == []


def _write_cache(cache, classes):
    cache.mkdir()
    (cache / A1_CACHE_NAME).write_text(json.dumps({"format_version": 1, "classes": classes}))


def _one_stderr_line(capsys, prefix):
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), lines
    return lines[0]


@pytest.mark.parametrize("classes", [
    {"1": [["t(0)*w[1]", {"0": 7}]]},  # leading coefficient not 1
    {"0": [["t(0)*w[]", {"0": 1}], ["t(0)*w[1]", {"-1": 1}]]},  # off-lead coefficient not in vZ[v]
    {"1": [["t(0)*w[1]", {"0": 1}]], "2": [["t(0)*w[1]", {"0": 1}]]},  # index outside W
])
def test_cache_load_discards_uncertified_classes(tmp_path, capsys, classes):
    _, expected = run_cli(A1_H0, tmp_path, "fresh.txt")
    capsys.readouterr()
    cache = tmp_path / "cache"
    _write_cache(cache, classes)
    code, data = run_cli([*A1_H0, "--cache-dir", str(cache)], tmp_path, "cached.txt")
    assert code == 0 and data == expected
    assert "solving them again" in _one_stderr_line(capsys, "warning: discarded uncertified cached classes")
    # the re-solved classes were written back, so the next load is silent
    assert run_cli([*A1_H0, "--cache-dir", str(cache)], tmp_path, "again.txt") == (0, expected)
    assert capsys.readouterr().err == ""


def _age(path):
    """Backdate a file, so that any rewrite shows in its st_mtime_ns."""
    os.utime(path, ns=(10**18, 10**18))
    return path.read_bytes(), path.stat().st_mtime_ns


def test_warm_run_leaves_the_cache_file_untouched(tmp_path):
    cache = tmp_path / "cache"
    _, expected = run_cli([*A1_H0, "--cache-dir", str(cache)], tmp_path, "cold.txt")
    before = _age(cache / A1_CACHE_NAME)
    assert run_cli([*A1_H0, "--cache-dir", str(cache)], tmp_path, "warm.txt") == (0, expected)
    assert (cache / A1_CACHE_NAME).read_bytes() == before[0]
    assert (cache / A1_CACHE_NAME).stat().st_mtime_ns == before[1]


def test_run_that_discards_a_class_rewrites_the_cache_file(tmp_path, capsys):
    cache = tmp_path / "cache"
    run_cli([*A1_H0, "--cache-dir", str(cache)], tmp_path, "cold.txt")
    path = cache / A1_CACHE_NAME
    data = json.loads(path.read_text())
    lead = {"t(0)*w[1]": {"0": 7}}  # class 1 with a wrong leading coefficient
    data["classes"]["1"] = [[x, lead.get(x, p)] for x, p in data["classes"]["1"]]
    path.write_text(json.dumps(data))
    tampered = _age(path)
    assert run_cli([*A1_H0, "--cache-dir", str(cache)], tmp_path, "warm.txt")[0] == 0
    _one_stderr_line(capsys, "warning: discarded uncertified cached classes 1 ")
    assert path.read_bytes() != tampered[0]
    assert path.stat().st_mtime_ns != tampered[1]
    assert dict(json.loads(path.read_text())["classes"]["1"])["t(0)*w[1]"] == {"0": 1}


def test_truncated_cache_file_is_a_usage_error(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / A1_CACHE_NAME).write_text('{"format_version": 1, "classes": {"1": [["t(0)*w[1]"')
    assert main([*A1_H0, "--cache-dir", str(cache)]) == 2
    _one_stderr_line(capsys, "error: malformed cache file")


def test_malformed_cache_structure_is_a_usage_error(tmp_path, capsys):
    _write_cache(tmp_path / "cache", {"1": [["t(0)*w[1]"]]})
    assert main([*A1_H0, "--cache-dir", str(tmp_path / "cache")]) == 2
    _one_stderr_line(capsys, "error: malformed cache file")


def test_unwritable_output_path_is_a_usage_error(tmp_path, capsys):
    assert main([*A1_H0, "-o", str(tmp_path / "missing" / "x.json")]) == 2
    _one_stderr_line(capsys, "error: ")


def test_cache_dir_under_a_regular_file_is_a_usage_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main([*A1_H0, "--cache-dir", str(blocker / "sub")]) == 2
    _one_stderr_line(capsys, "error: ")


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "periodic_kl.cli", "blocks", *BASE_A1],
        capture_output=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["l"] == 3

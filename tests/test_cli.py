import csv
import json
import os
import subprocess
import sys
import time

import pytest

from periodic_kl import laurent, periodic
from periodic_kl.cli import main
from periodic_kl.laurent import V, LaurentPoly
from periodic_kl.orders import standard_window
from periodic_kl.periodic import MAX_PARTITION_STATES, PeriodicModule
from periodic_kl.rootdata import Weight
from oracles import inversion_report_per_pair, koszul_report_per_pair


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


def _selfcheck_lines(capsys):
    code = main(["selfcheck", "--type", "A", "--rank", "2", "--l", "5", "--height", "1", "--format", "text"])
    out, err = capsys.readouterr()
    assert code == 4
    assert err.startswith("internal consistency failure: selfcheck failed")
    return out.splitlines()


def test_planted_inversion_row_fails_selfcheck(monkeypatch, capsys):
    # flip the sign of the lead's row in each class's inversion rows, so the
    # diagonal sums read -1: only the inversion line may fail
    build = PeriodicModule._build_inversion_rows

    def planted(self, zw):
        groups = build(self, zw)
        groups[zw] = [(reach, at, -p if at == 0 else p, lp) for reach, at, p, lp in groups[zw]]
        return groups

    monkeypatch.setattr(PeriodicModule, "_build_inversion_rows", planted)
    assert _selfcheck_lines(capsys) == [
        "ok  order generated == translation characterization",
        "FAIL  signed inversion identity q * p = delta",
        "ok  Koszul operator inverts the geometric series",
    ]


def test_planted_koszul_term_fails_selfcheck(monkeypatch, capsys):
    # double the empty subset's term 1 of the Koszul operator, so each sum
    # gains a copy of q: only the Koszul line may fail
    expand = PeriodicModule.__dict__["_koszul_packed"].func

    def planted(self):
        (reach, at, f, lf), *rest = expand(self)
        return [(reach, at, 2 * f, 2 * lf), *rest]

    monkeypatch.setattr(PeriodicModule, "_koszul_packed", property(planted))
    assert _selfcheck_lines(capsys) == [
        "ok  order generated == translation characterization",
        "ok  signed inversion identity q * p = delta",
        "FAIL  Koszul operator inverts the geometric series",
    ]


def _by_keys(bad):
    return sorted(bad, key=lambda entry: (entry[0].key, entry[1].key))


def _plant_off_diagonal_row(monkeypatch, W):
    # negate the row of largest reach in the w0 group of the identity
    # class's inversion rows: the triangularity of SD keeps every diagonal
    # sum, so only pairs y != z may deviate
    build = PeriodicModule._build_inversion_rows

    def planted(self, zw):
        groups = build(self, zw)
        if zw == 0:
            group = groups[W.w0.index]
            reach, at, p, lp = group[-1]
            group[-1] = (reach, at, -p, lp)
        return groups

    monkeypatch.setattr(PeriodicModule, "_build_inversion_rows", planted)


def test_planted_off_diagonal_inversion_row_fails_only_its_line(monkeypatch, capsys, a2):
    _plant_off_diagonal_row(monkeypatch, a2.group)
    window = standard_window(a2.group, 1)
    bad = PeriodicModule(a2.group).inversion_report(window)
    assert bad and all(y != z for y, z, _ in bad)
    assert _by_keys(bad) == _by_keys(inversion_report_per_pair(PeriodicModule(a2.group), window))
    assert _selfcheck_lines(capsys) == [
        "ok  order generated == translation characterization",
        "FAIL  signed inversion identity q * p = delta",
        "ok  Koszul operator inverts the geometric series",
    ]


def _plant_stale_class_term(monkeypatch, W):
    # after the inversion report, add v to the smallest non-lead term (t, u)
    # of class w0, whose generic table was built from the solved value: the
    # Koszul sums still invert that table, so exactly the pairs
    # (t(x.trans + t) u, x) over the window's x of class w0 deviate, by -v
    real = PeriodicModule.inversion_report
    c = W.w0.index
    planted_at = []

    def planted(self, window):
        bad = real(self, window)
        terms = self._class(c)
        t, u = min(key for key in terms if key != ((0,) * self.rd.rank, c))
        self._generic_table(u, c)
        terms[t, u] = periodic._term(terms[t, u][2] + V)
        planted_at.append((t, u))
        return bad

    monkeypatch.setattr(PeriodicModule, "inversion_report", planted)
    return planted_at


def test_planted_class_term_fails_only_the_koszul_line(monkeypatch, capsys, a2):
    W = a2.group
    planted_at = _plant_stale_class_term(monkeypatch, W)
    window = standard_window(W, 1)
    M = PeriodicModule(W)
    assert M.inversion_report(window) == []
    (t, u), = planted_at
    expected = [(W.element(Weight(tuple(map(sum, zip(x.trans, t)))), u), x, -V)
                for x in window if x.w.index == W.w0.index]
    assert len(expected) == 9
    assert _by_keys(M.koszul_report(window)) == _by_keys(expected) == _by_keys(koszul_report_per_pair(M, window))
    assert _selfcheck_lines(capsys) == [
        "ok  order generated == translation characterization",
        "ok  signed inversion identity q * p = delta",
        "FAIL  Koszul operator inverts the geometric series",
    ]


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


def test_l_that_is_not_a_prime_power_runs_quietly(tmp_path, capsys):
    # l = 15 is admissible; admissibility is the only check on l
    assert main(["blocks", "--type", "A", "--rank", "1", "--l", "15", "-o", str(tmp_path / "x.json")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ["blocks", *BASE_A1],
    ["selfcheck", *BASE_A1, "--height", "0"],
    ["mult", "baby", *BASE_A1, "--x", "t(0)*w[]", "--y", "t(0)*w[]"],
    ["hecke", "kl", *BASE_A1, "--x", "t(0)*w[1]"],
    ["orders", "hasse", *BASE_A1, "--height", "0"],
    ["table", "p", *BASE_A1, "--height", "0"],
])
def test_force_is_not_an_option(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--force"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --force" in captured.err


def test_resource_exit_code(monkeypatch, tmp_path):
    from periodic_kl import periodic
    from periodic_kl.hecke import ResourceError

    def boom(self, window):
        raise ResourceError("synthetic")

    monkeypatch.setattr(periodic.PeriodicModule, "inversion_report", boom)
    code = main(["selfcheck", *BASE_A1, "--height", "1", "-o", str(tmp_path / "z.json")])
    assert code == 3


def test_kl_length_bound_exit_code(capsys):
    # an element of length 70, above the default bound 64, is refused before
    # any work by kl, mul (either factor) and bar
    for argv in (["kl", *BASE_A1, "--x", "t(70)*w[]"],
                 ["mul", *BASE_A1, "--x", "t(70)*w[]", "--y", "t(0)*w[]"],
                 ["mul", *BASE_A1, "--x", "t(0)*w[]", "--y", "t(70)*w[]"],
                 ["bar", *BASE_A1, "--x", "t(70)*w[]"]):
        code = main(["hecke", *argv])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "", argv
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("resource bound exceeded:"), lines
        assert "length 70" in lines[0] and "bound 64" in lines[0]
    # bar at this G2 element of length 96 took 20 s before it had a bound
    start = time.perf_counter()
    code = main(["hecke", "bar", "--type", "G", "--rank", "2", "--l", "7", "--x", "t(6,6)*w[]"])
    elapsed = time.perf_counter() - start
    lines = capsys.readouterr().err.splitlines()
    assert code == 3 and len(lines) == 1 and "length 96" in lines[0] and "bound 64" in lines[0]
    assert elapsed < 1.0


@pytest.mark.parametrize("x,y", [
    # a far-apart pair: its partition series ran for minutes with no bound
    ("t(3000,3000)*w[]", "t(0,0)*w[]"),
    ("t(40,40,40)*w[]", "t(0,0,0)*w[]"),
])
def test_partition_state_bound_exit_code(capsys, x, y):
    rank = str(x.count(",") + 1)
    start = time.perf_counter()
    code = main(["mult", "simple-in-verma", "--type", "A", "--rank", rank, "--l", "5", "--x", x, "--y", y])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("resource bound exceeded: partition series at ("), lines
    assert f"MAX_PARTITION_STATES={MAX_PARTITION_STATES}" in lines[0]
    assert elapsed < 2.0


def test_a_point_query_beyond_the_packed_field_exit_code(capsys):
    # E(rel) = -3 * 2^31 (1, 1): every coordinate lies at or below the rows'
    # maxima and beyond 2^30, where a packed vector would wrap
    start = time.perf_counter()
    code = main(["mult", "simple-in-verma", "--type", "A", "--rank", "2", "--l", "5",
                 "--x", "t(2147483648,2147483648)*w[]", "--y", "t(0,0)*w[]"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("resource bound exceeded: generic q (y.trans - x.trans"), lines
    assert lines[0].endswith(f"reaches the packed vector bound 2^30 (periodic._FIELD = {periodic._FIELD} bits)")
    assert elapsed < 2.0


@pytest.mark.parametrize("argv,bound", [
    # the alcove walk visits (l + 1)^rank points
    ("blocks --type A --rank 2 --l 30011", "visits 900720144 points, above the bound of 100000"),
    # range(-1, l) would be materialized whole: a MemoryError before the bound
    ("blocks --type A --rank 1 --l 100000000000031", "visits 100000000000032 points, above the bound of 100000"),
])
def test_large_l_is_refused_before_any_work(capsys, argv, bound):
    start = time.perf_counter()
    code = main(argv.split())
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("resource bound exceeded:") and lines[0].endswith(bound), lines
    assert elapsed < 1.0


@pytest.mark.parametrize("cartan_type,rank,l,height,x", [
    ("A", 1, 3, 1, "t(3)*w[1]"),
    ("A", 2, 5, 1, "t(-11,6)*w[2]"),
    ("B", 2, 5, 1, "t(4,-10)*w[1 2]"),
    ("G", 2, 7, 0, "t(2,2)*w[1 2 1 2 1 2]"),
])
def test_output_does_not_depend_on_the_admissible_l(capsys, cartan_type, rank, l, height, x):
    # Once l is admissible no work here grows with it but the alcove walk of
    # blocks: at a huge admissible l these subcommands print the default-l
    # bytes, apart from the echoed "l" field.  The huge l runs both before
    # and after the default one in this process, so the type's shared tables
    # carry nothing from one l to the other.
    huge = 10**30 + 1
    window = ["--height", str(height)]
    for command in (["table", "q", *window], ["selfcheck", *window], ["orders", "hasse", *window],
                    ["hecke", "kl", "--x", x]):
        outputs = []
        for order in (huge, l, huge):
            assert main([*command, "--type", cartan_type, "--rank", str(rank), "--l", str(order)]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append(captured.out)
        before, default, after = outputs
        assert before == after, command
        assert after.replace(f'"l": {huge},', f'"l": {l},') == default, command


@pytest.mark.parametrize("argv,flag", [
    # the A3 h9 window is above its bound, which exits 3 once it is built
    ("table verma-in-projective --type A --rank 3 --l 5 --height 9", "--nu"),
    # an even l is refused with another message once the root datum is built
    ("mult verma-in-projective --type A --rank 1 --l 4 --x t(0)*w[] --y t(0)*w[]", "--nu"),
    ("hecke mul --type A --rank 1 --l 4 --x t(0)*w[1]", "--y"),
])
def test_a_missing_option_is_refused_before_any_work(capsys, argv, flag):
    code = main(argv.split())
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert code == 2 and captured.out == "", lines
    assert len(lines) == 1 and lines[0].startswith("error: ") and flag in lines[0], lines


@pytest.mark.parametrize("command", [["table", "p"], ["orders", "hasse"], ["selfcheck"]])
def test_coset_tag_naming_no_coset_is_refused(capsys, command):
    # the A2 coset tags are 0,0 1,2 2,1; 1,1 names none and must not run on an
    # empty window
    code = main([*command, "--type", "A", "--rank", "2", "--l", "5", "--height", "1", "--coset", "1,1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert "'1,1'" in lines[0] and lines[0].endswith("valid tags: 0,0 1,2 2,1")


@pytest.mark.parametrize("text", ["t(0,0)*w[1,2]", "t(a,0)*w[]", "t(0,0.5)"])
def test_bad_element_syntax_names_the_input(capsys, text):
    code = main(["hecke", "kl", "--type", "A", "--rank", "2", "--l", "5", "--x", text])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert lines == [f"error: bad element syntax: {text!r}"], lines


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


def test_failed_mu_certificate_is_an_internal_failure(monkeypatch, capsys):
    # sufficient_mu's mu always passes (its docstring proves it); a failed
    # certificate is a bug, reported as such
    from periodic_kl.orders import SemiInfiniteOrder

    monkeypatch.setattr(SemiInfiniteOrder, "dominant_alcove_certificate", lambda self, z: ["synthetic"])
    code = main(["selfcheck", *BASE_A1, "--height", "1"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert "synthetic" in captured.err


def test_cache_round_trip(tmp_path):
    cache = tmp_path / "cache"
    args = ["table", "p", *BASE_A1, "--height", "2", "--cache-dir", str(cache)]
    _, first = run_cli(args, tmp_path, "a.json")
    files = list(cache.iterdir())
    assert len(files) == 1 and files[0].name.startswith("classes-A1-l3-v")
    text = files[0].read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
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
    {"1": [["t(0)*w[1]", {"0": 1}], ["t(1)*w[]", {"1": 1}]]},  # a term outside the lead's coset
    {"1": [["t(0)*w[1]", {"0": 1}], ["t(0)*w[]", {"1": 1}]]},  # a term above the lead
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


def test_planted_bound_at_half_the_digit_exits_3(tmp_path, capsys):
    # a cached class 0 with the off-lead coefficient 2^(B-1) v, B the packed
    # digit width, passes the loader's checks (lead 1, the rest in vZ[v]);
    # the solve of class 1 adds its l1 norm to the bound of each position the
    # product puts it at, and refuses there before reading a digit that may
    # have wrapped
    width = laurent._WIDTH
    cache = tmp_path / "cache"
    _write_cache(cache, {"0": [["t(0)*w[]", {"0": 1}], ["t(0)*w[1]", {"1": 2 ** (width - 1)}]]})
    assert main([*A1_H0, "--cache-dir", str(cache)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        "resource bound exceeded: self-dual class t(0)*w[1] (trans, w) at "), lines
    assert lines[0].endswith(f": the coefficient bound ({width} bits) reaches the packed digit width of {width} bits")


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


def test_warm_run_builds_no_class_element(monkeypatch, tmp_path):
    # the save compares the stored class indices with the file's before it
    # builds anything, so a run that writes nothing builds no element
    cache = tmp_path / "cache"
    _, expected = run_cli([*A1_H0, "--cache-dir", str(cache)], tmp_path, "cold.txt")

    def refuse(self):
        raise AssertionError("class elements built on a warm run")

    monkeypatch.setattr(PeriodicModule, "class_elements", refuse)
    assert run_cli([*A1_H0, "--cache-dir", str(cache)], tmp_path, "warm.txt") == (0, expected)


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


def test_cli_import_leaves_heavy_stdlib_modules_unloaded():
    # every CLI call pays for the package import: dataclasses (with inspect),
    # fractions (with decimal) and csv stay off its path
    import periodic_kl

    src = os.path.dirname(os.path.dirname(os.path.abspath(periodic_kl.__file__)))
    probe = ("import sys; before = set(sys.modules); import periodic_kl.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    loaded = set(result.stdout.split())
    assert "periodic_kl.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "fractions", "decimal", "csv"}), sorted(loaded)

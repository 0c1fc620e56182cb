"""Byte-level regression against the golden table files under version control."""

from pathlib import Path

import pytest

from periodic_kl.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    (["table", "p", "--type", "A", "--rank", "1", "--l", "3", "--height", "2"], "a1_l3_p_h2.json"),
    (["table", "q", "--type", "A", "--rank", "1", "--l", "3", "--height", "2"], "a1_l3_q_h2.json"),
    (["blocks", "--type", "A", "--rank", "1", "--l", "3"], "a1_l3_blocks.json"),
    (
        ["table", "p", "--type", "A", "--rank", "2", "--l", "5", "--height", "1", "--coset", "0,0"],
        "a2_l5_p_h1.json",
    ),
    (
        ["table", "qprime", "--type", "A", "--rank", "2", "--l", "5", "--height", "1", "--coset", "0,0"],
        "a2_l5_qprime_h1.json",
    ),
    (["table", "q", "--type", "G", "--rank", "2", "--l", "7", "--height", "0"], "g2_l7_q_h0.json"),
    (
        ["table", "simple-in-verma", "--type", "G", "--rank", "2", "--l", "7", "--height", "0"],
        "g2_l7_simple_in_verma_h0.json",
    ),
    (
        ["table", "verma-in-projective", "--type", "G", "--rank", "2", "--l", "7", "--height", "0", "--nu", "0,0"],
        "g2_l7_verma_in_projective_h0_nu0.json",
    ),
    (["table", "baby", "--type", "G", "--rank", "2", "--l", "7", "--height", "0"], "g2_l7_baby_h0.json"),
]


@pytest.mark.parametrize("args,name", CASES, ids=[name for _, name in CASES])
def test_golden(args, name, tmp_path):
    out = tmp_path / name
    assert main(args + ["-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()

"""Output bytes of every benchmark invocation, pinned by its recorded digest.

The golden files under ``golden/`` cover A1 and A2 only.  ``bench/digests.json``
holds the stdout sha256 of every benchmark invocation (Hasse diagrams,
selfcheck runs, polynomial and multiplicity tables, ``mult`` queries and
``hecke kl`` elements, over A1 to A3, B2, C2 and G2); this module replays
each of them through the command line and compares its digest.  The file
is only read here.
"""

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import pytest

from periodic_kl.cli import main

DIGESTS = json.loads((Path(__file__).resolve().parents[1] / "bench" / "digests.json").read_text())
PINNED = sorted(DIGESTS)


def _tokens(argv: str) -> list[str]:
    """The argv words; an element such as ``t(2,3,-7)*w[1 2 1]`` is one word."""
    return re.findall(r"\S*\[[^\]]*\]|\S+", argv)


@pytest.mark.parametrize("argv", PINNED)
def test_stdout_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(_tokens(argv))
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DIGESTS[argv]


# sha256 of the ``--format text`` stdout of every ``hecke kl`` argv above, as
# printed before the text was formatted from the element's terms.
KL_TEXT_DIGESTS = {
    "hecke kl --type A --rank 2 --l 5 --x t(-11,6)*w[2]":
        "443a25ba30e3c7c0c9d69fea75e1ffed6990a6d08a2aa25e96603c626feed58a",
    "hecke kl --type A --rank 3 --l 5 --x t(2,3,-7)*w[1 2 1]":
        "d83b7a2dc725c1a2c31273e296af5cf9d1dd865131e26b9aeaf26ab5acf40fb4",
    "hecke kl --type B --rank 2 --l 5 --x t(4,-10)*w[1 2]":
        "28b57bb8458fa8897336688ff09937712b906077981d50b2d6913d88089e8497",
    "hecke kl --type G --rank 2 --l 7 --x t(2,2)*w[1 2 1 2 1 2]":
        "6dece337b69640e3643f1534dcb068d30d60523963767ff4adc23149526c2494",
}


def test_every_kl_argv_has_a_text_digest():
    assert sorted(KL_TEXT_DIGESTS) == [argv for argv in PINNED if argv.startswith("hecke kl")]


@pytest.mark.parametrize("argv", sorted(KL_TEXT_DIGESTS))
def test_kl_text_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(_tokens(argv) + ["--format", "text"])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == KL_TEXT_DIGESTS[argv]

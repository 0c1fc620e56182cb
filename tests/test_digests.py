"""Output bytes of B2, G2 and A3 runs, pinned by the benchmark's recorded digests.

The golden files under ``golden/`` cover A1 and A2 only.  ``bench/digests.json``
holds the stdout sha256 of every benchmark invocation; this module replays
the Hasse diagrams, the selfcheck runs, the p tables beyond A1 and the
``hecke kl`` elements through the command line and compares their digests.
The file is only read here.
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
PINNED = sorted(
    argv for argv in DIGESTS
    if argv.startswith(("orders hasse ", "selfcheck ", "hecke kl "))
    or (argv.startswith("table p ") and "--rank 1 " not in argv)
)


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

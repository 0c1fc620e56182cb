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

"""Correctness checks on the stdout of one benchmark invocation.

Every invocation must exit 0.  Where a digest is recorded for its argv (see
``digests.json``) the sha256 of its stdout must match it; a warm-cache
invocation must reproduce the bytes of the same cold invocation; and any
seed gets the structural checks below.
"""

from __future__ import annotations

import hashlib
import json


def _in_v_times_zv(poly: dict) -> bool:
    return all(int(e) >= 1 for e in poly)


def check_p_table(text: str) -> list[str]:
    """Diagonal entries are 1 and off-diagonal entries lie in vZ[v]."""
    table = json.loads(text)
    errors = []
    diagonal = set()
    for entry in table["entries"]:
        y, x, poly = entry["y"], entry["x"], entry["polynomial"]
        if y == x:
            diagonal.add(x)
            if poly != {"0": 1}:
                errors.append(f"p[{y}, {x}] = {poly} on the diagonal")
        elif not _in_v_times_zv(poly):
            errors.append(f"p[{y}, {x}] = {poly} is not in vZ[v]")
    missing = set(table["elements"]) - diagonal
    if missing:
        errors.append(f"{len(missing)} diagonal entries missing, e.g. {sorted(missing)[0]}")
    return errors


def check_kl(text: str) -> list[str]:
    """The lead coefficient is 1 and every other term lies in vZ[v]."""
    payload = json.loads(text)
    errors = []
    lead = [t for t in payload["terms"] if t["element"] == payload["x"]]
    if len(lead) != 1 or lead[0]["polynomial"] != {"0": 1}:
        errors.append(f"KL lead at {payload['x']} is {lead}")
    for t in payload["terms"]:
        if t["element"] != payload["x"] and not _in_v_times_zv(t["polynomial"]):
            errors.append(f"KL term {t['element']}: {t['polynomial']} is not in vZ[v]")
    return errors


def check_selfcheck(text: str) -> list[str]:
    """Every selfcheck line reports ok."""
    lines = text.splitlines()
    if not lines:
        return ["selfcheck printed nothing"]
    return [f"selfcheck line {line!r}" for line in lines if not line.startswith("ok  ")]


STRUCTURAL = {"p_table": check_p_table, "kl": check_kl, "selfcheck": check_selfcheck}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_invocation(key: str, check: str | None, rc, data: bytes,
                     digests: dict[str, str], require_digest: bool,
                     reference_sha: str | None = None) -> list[str]:
    """All failures of one invocation; an empty list means it passed."""
    if rc != 0:
        return [f"exit code {rc}"]
    errors = []
    digest = sha256(data)
    expected = digests.get(key)
    if expected is not None and digest != expected:
        errors.append("stdout sha256 differs from the recorded digest")
    elif expected is None and require_digest:
        errors.append("no digest recorded for this argv at the default seed")
    if reference_sha is not None and digest != reference_sha:
        errors.append("warm-cache stdout differs from the cold run")
    if check is not None:
        try:
            errors += STRUCTURAL[check](data.decode())
        except (ValueError, KeyError, TypeError) as exc:
            errors.append(f"unparsable output for check {check}: {exc!r}")
    return errors

"""Workload definitions for the periodic-kl benchmark.

A workload is a list of CLI invocations (argv lists for
``periodic_kl.cli.main``) that one pass runs back to back in one fresh
process.  The seed picks the ``mult`` point queries, the ``hecke kl``
elements and the coset of every coset-restricted window; everything else is
fixed.  The program sees only the generated argv.

Seeded choices are drawn so that the *amount* of work does not depend on the
seed: every ``mult`` query is a fixed base query moved by a seeded common
left translation, under which multiplicities are invariant; every ``hecke
kl`` element is a left multiple ``omega * x`` of a fixed base element by a
length-zero element, whose Bruhat interval and KL recursion are isomorphic
to those of ``x``; and every seeded coset splits its window into equal
parts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

DEFAULT_SEED = 0

WORKLOADS = ("tables_cold", "tables_warm", "selfcheck", "orders_hecke")

# (type, rank, l) of every datum a workload may touch.
A1 = ("A", 1, 3)
A2 = ("A", 2, 5)
B2 = ("B", 2, 5)
C2 = ("C", 2, 5)
G2 = ("G", 2, 7)
A3 = ("A", 3, 5)

# Coset tags of A2 (weight lattice modulo root lattice) in the CLI's --coset
# form; each takes a third of a height-1 window.
A2_COSETS = ("0,0", "1,2", "2,1")

# Reduced words of every finite Weyl group element, one per element.
_RANK2_B = ("", "1", "2", "1 2", "2 1", "1 2 1", "2 1 2", "1 2 1 2")
FINITE_WORDS = {
    A1: ("", "1"),
    A2: ("", "1", "2", "1 2", "2 1", "1 2 1"),
    B2: _RANK2_B,
    C2: _RANK2_B,
    G2: _RANK2_B + ("2 1 2 1", "1 2 1 2 1", "2 1 2 1 2", "1 2 1 2 1 2"),
}

# The orbit {omega * x} of one base element x of length 20-26 per datum,
# under left multiplication by the length-zero subgroup; the seed picks one.
KL_ORBITS = {
    A2: ("t(6,6)*w[1 2 1]", "t(6,-11)*w[1]", "t(-11,6)*w[2]"),
    B2: ("t(4,3)*w[1 2 1]", "t(4,-10)*w[1 2]"),
    G2: ("t(2,2)*w[1 2 1 2 1 2]",),
    A3: ("t(3,2,3)*w[1 2 1 3 2 1]", "t(2,3,-7)*w[1 2 1]", "t(3,-7,3)*w[1 3]", "t(-7,3,2)*w[2 3 2]"),
}

TABLE_KINDS = ("p", "q", "qprime", "simple-in-verma", "verma-in-projective", "baby")


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its argv, whether it is a point query, and its check."""

    argv: tuple[str, ...]
    query: bool = False
    # Structural check applied to stdout: "p_table", "kl", "selfcheck" or None.
    check: Optional[str] = None
    # Whether the invocation takes a --cache-dir (tables_* workloads).
    cached: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    invocations: tuple[Invocation, ...]
    data: tuple[tuple[str, int, int], ...]  # every datum the invocations touch


def _datum_args(d) -> list[str]:
    t, r, l = d
    return ["--type", t, "--rank", str(r), "--l", str(l)]


def _elt(trans, word: str) -> str:
    return "t(" + ",".join(str(c) for c in trans) + ")*w[" + word + "]"


def _table(d, kind: str, height: int, coset: str = "all") -> Invocation:
    argv = ["table", kind, *_datum_args(d), "--height", str(height), "--coset", coset]
    if kind == "verma-in-projective":
        argv += ["--nu", ",".join(["2"] * d[1])]
    return Invocation(tuple(argv), check="p_table" if kind == "p" else None, cached=True)


def _mult_queries(rng: random.Random, d) -> list[Invocation]:
    """One query per finite class of ``d``, each moved by a seeded translation.

    Each query is a fixed base pair (x, y), with its operation and the class
    it solves fixed per finite element; the seed picks a translation mu per
    query and asks for (t(mu) x, t(mu) y).  Every multiplicity is invariant
    under simultaneous left translation (its polynomial depends on x and y
    only through their relative position), so the seed changes the inputs
    but not the work.  The query order is fixed as well, because a query's
    latency depends on its place in the pass.  The class is fixed by the
    finite part of y for simple-in-verma and baby and of x for
    verma-in-projective; the truncation weight nu = trans(y) + 2 rho always
    passes the dominance test, so every query reaches its class solve.
    """
    rank = d[1]
    words = FINITE_WORDS[d]
    base = random.Random(f"queries:{d}")  # fixed base pairs
    ops = ("simple-in-verma", "verma-in-projective", "baby")
    out = []
    for k, word in enumerate(words):
        op = ops[k % 3]
        other = base.choice(words)
        dx = [base.randint(-1, 1) for _ in range(rank)]
        dy = [base.randint(-1, 1) for _ in range(rank)]
        mu = [rng.randint(-3, 3) for _ in range(rank)]
        tx = [m + c for m, c in zip(mu, dx)]
        ty = [m + c for m, c in zip(mu, dy)]
        if op == "verma-in-projective":
            x, y = _elt(tx, word), _elt(ty, other)
        else:
            x, y = _elt(tx, other), _elt(ty, word)
        argv = ["mult", op, *_datum_args(d), "--x", x, "--y", y]
        if op == "verma-in-projective":
            argv.append("--nu=" + ",".join(str(c + 2) for c in ty))  # "=": nu may be negative
        out.append(Invocation(tuple(argv), query=True, cached=True))
    return out


def _tables(rng: random.Random, tiny: bool) -> tuple[list[Invocation], tuple]:
    invs = [_table(A1, kind, 2) for kind in TABLE_KINDS]
    if tiny:
        return invs + _mult_queries(rng, A1), (A1,)
    invs += [_table(A2, kind, 1, rng.choice(A2_COSETS)) for kind in TABLE_KINDS]
    invs += [_table(B2, kind, 1) for kind in ("p", "q", "baby")]
    invs += [_table(C2, kind, 1) for kind in ("qprime", "simple-in-verma", "verma-in-projective")]
    invs.append(_table(A3, "p", 0))
    for d in (A2, B2, C2):
        invs += _mult_queries(rng, d)
    return invs, (A1, A2, B2, C2, A3)


def _selfcheck(tiny: bool) -> tuple[list[Invocation], tuple]:
    sizes = [(A1, 6)] if tiny else [(A1, 6), (A2, 1), (B2, 0), (C2, 0), (G2, 0)]
    invs = [
        Invocation(("selfcheck", *_datum_args(d), "--height", str(h), "--format", "text"),
                   query=True, check="selfcheck")
        for d, h in sizes
    ]
    return invs, tuple(d for d, _ in sizes)


def _orders_hecke(rng: random.Random, tiny: bool) -> tuple[list[Invocation], tuple]:
    if tiny:
        invs = [Invocation(("orders", "hasse", *_datum_args(A1), "--height", "2"))]
        kl = [("t(2)*w[1]", A1), ("t(3)*w[]", A1)]
        data = (A1,)
    else:
        invs = [
            Invocation(("orders", "hasse", *_datum_args(A2), "--height", "2")),
            Invocation(("orders", "hasse", *_datum_args(B2), "--height", "1")),
            Invocation(("orders", "hasse", *_datum_args(G2), "--height", "0")),
        ]
        kl = [(rng.choice(KL_ORBITS[d]), d) for d in (A2, B2, G2, A3)]
        data = (A2, B2, G2, A3)
    invs += [
        Invocation(("hecke", "kl", *_datum_args(d), "--x", x), query=True, check="kl")
        for x, d in kl
    ]
    return invs, data


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The invocations of workload ``name`` for ``seed``.

    ``tiny`` restricts every workload to A1 (used by the smoke test).
    """
    if name in ("tables_cold", "tables_warm"):
        # Both table workloads draw from one stream so that warm replays cold.
        invs, data = _tables(random.Random(f"tables:{seed}"), tiny)
    elif name == "selfcheck":
        invs, data = _selfcheck(tiny)
    elif name == "orders_hecke":
        invs, data = _orders_hecke(random.Random(f"{name}:{seed}"), tiny)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return Workload(name, seed, tuple(invs), data)

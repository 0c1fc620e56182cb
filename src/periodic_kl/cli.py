"""Command-line front end.

Subcommands
-----------
- ``blocks``      alcove lattice points with dot-action stabilizers
- ``selfcheck``   inversion identity, Koszul round trip, order cross-check
- ``mult``        graded multiplicity queries (simple-in-verma,
                  verma-in-projective with truncation, baby)
- ``hecke``       algebra operations (mul, bar, kl) on basis elements
- ``orders``      Hasse diagram of a semi-infinite window as a JSON edge list
- ``table``       periodic/generic polynomial tables over a window

Elements use the textual form ``t(a1,...,ar)*w[i1 i2 ...]`` everywhere.
Output is deterministic byte for byte for a fixed configuration: elements
are listed in a canonical order and JSON is emitted with sorted keys.
There is one writer per format (``_write`` for JSON, ``_csv_field`` for a
csv field, ``_lines`` for lines), and every document streams through it in
chunks, never as one string, to stdout or to the ``-o`` file, which is
opened only after every value is computed.  Tables and Hecke elements
repeat a few polynomials many times; each distinct value is rendered once
per format.

Exit codes: 0 success, 2 usage or configuration error (including an
unreadable or malformed cache file and an unwritable output or cache
path), 3 resource bound exceeded, 4 internal consistency failure (must
never happen).

An option given where it does not apply exits 2 before any work:
``--format csv`` outside ``blocks``/``orders``/``table``, ``--cache-dir``
outside ``selfcheck``/``mult``/``table``, and ``--nu`` or ``--y`` on a kind
that does not take it.  So does a missing ``--nu`` on ``verma-in-projective``
or ``--y`` on ``hecke mul``.

The self-dual class vectors (the expensive part) are cached on disk only
with ``--cache-dir``.  Cache files carry a format version and the full
(type, rank, l) key, and are written through a temporary file so a reader
never sees a partial one.  A loaded class SD_{t(0)w} is checked as a
solved one is, bar the product relation: its index w lies in the finite
Weyl group, its lead t(0)w has coefficient 1, its other coefficients lie
in vZ[v], and each of its terms lies below the lead in the semi-infinite
order (``SemiInfiniteOrder.below``, which implies the lead's coset).  A
class that fails one check is discarded with a warning on stderr and
solved again.  The file
is rewritten only when it does not already hold exactly the classes of the
run: a run served wholly from the cache leaves it untouched.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import os
import sys
from types import GeneratorType
from typing import Iterable, Iterator, Optional, Sequence

from .hecke import HeckeAlgebra, check_length
from .laurent import ONE, LaurentPoly, ResourceError
from .multiplicity import MultiplicityTables, enumerate_blocks
from .orders import SemiInfiniteOrder, SemiInfinitePoset, standard_window
from .periodic import CertificationError, PeriodicModule
from .rootdata import RootDatum, Weight, root_datum, validate_l
from .weyl import AffineWeyl

FORMAT_VERSION = 1


class UsageError(Exception):
    pass


# -- configuration ------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--type", required=True, help="Cartan type letter (A, B, C, G)")
    parser.add_argument("--rank", required=True, type=int)
    parser.add_argument("--l", required=True, type=int, help="root-of-unity order")
    parser.add_argument("--format", choices=["json", "csv", "text"], default="json")
    parser.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    parser.add_argument("--cache-dir", default=None,
                        help="class cache directory (selfcheck, mult and table only)")


def _build_context(args) -> tuple[RootDatum, AffineWeyl]:
    try:
        rd = root_datum(args.type.upper(), args.rank, args.l)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    violations = validate_l(rd)
    if violations:
        raise UsageError("invalid l: " + "; ".join(violations))
    return rd, AffineWeyl(rd)


def _module(args, group: AffineWeyl) -> tuple[PeriodicModule, Optional[set[int]]]:
    """The module, with its classes preloaded from the cache file if there is one.

    Also returns the class indices the file holds as they would be saved,
    or None when the file is absent, stale or had a class discarded.
    """
    mod = PeriodicModule(group)
    on_disk = _load_class_cache(mod, args.cache_dir, args) if args.cache_dir else None
    return mod, on_disk


def _cache_path(args, cache: str) -> str:
    name = f"classes-{args.type.upper()}{args.rank}-l{args.l}-v{FORMAT_VERSION}.json"
    return os.path.join(cache, name)


def _load_class_cache(mod: PeriodicModule, cache: str, args) -> Optional[set[int]]:
    path = _cache_path(args, cache)
    if not os.path.exists(path):
        return None
    g = mod.group
    try:
        with open(path) as fh:
            data = json.load(fh)
        if data.get("format_version") != FORMAT_VERSION:
            return None
        loaded = {
            int(idx_str): mod.element({
                g.parse_element(el): LaurentPoly.from_json(coeffs) for el, coeffs in terms
            })
            for idx_str, terms in data["classes"].items()
        }
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed cache file {path}: {exc}") from None
    zero = Weight((0,) * g.rd.rank)
    below = mod.order.below
    rejected = []
    for idx, el in sorted(loaded.items()):
        if 0 <= idx < len(g.finite_elements):
            lead = g.element(zero, idx)
            if el.coefficient(lead) == ONE and all(
                p.in_v_times_Zv() for x, p in el.terms.items() if x != lead
            ) and all(below(x.trans, x.w.index, idx) for x in el.terms):
                mod.preload_class(idx, el)
                continue
        rejected.append(str(idx))
    if rejected:
        print(f"warning: discarded uncertified cached classes {', '.join(rejected)} "
              f"from {path}; solving them again", file=sys.stderr)
        return None
    return set(loaded)


def _save_class_cache(mod: PeriodicModule, args, on_disk: Optional[set[int]]) -> None:
    """Write the class cache, unless the file already holds exactly these classes."""
    cache = args.cache_dir
    if not cache or on_disk == mod.class_indices():
        return
    classes = mod.class_elements()
    os.makedirs(cache, exist_ok=True)
    g = mod.group
    data = {
        "format_version": FORMAT_VERSION,
        "type": args.type.upper(),
        "rank": args.rank,
        "l": args.l,
        "classes": {
            str(idx): [
                [g.format_element(x), p.to_json()]
                for x, p in sorted(el.terms.items(), key=lambda kv: kv[0].key)
            ]
            for idx, el in sorted(classes.items())
        },
    }
    path = _cache_path(args, cache)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(json.dumps(data, sort_keys=True) + "\n")  # json.dump never takes the C encoder
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _window(args, group: AffineWeyl):
    coset = None
    if args.coset != "all":
        try:
            coset = tuple(int(c) for c in args.coset.split(","))
        except ValueError:
            raise UsageError(f"bad coset tag {args.coset!r}") from None
        if len(coset) != group.rd.rank:
            raise UsageError(f"coset tag needs {group.rd.rank} components")
        if coset not in group.omega_elements:
            valid = " ".join(",".join(map(str, tag)) for tag in sorted(group.omega_elements))
            raise UsageError(f"coset tag {args.coset!r} names no coset; valid tags: {valid}")
    if args.height < 0:
        raise UsageError("window height must be >= 0")
    return standard_window(group, args.height, coset)


# -- output: one writer per format -------------------------------------------------------
#
# Every document is a stream of pieces for ``_write_out``: JSON from
# ``_write``, csv fields from ``_csv_field`` and lines (of csv or text)
# joined by ``_lines``.  ``_pieces`` chooses among them for a small
# document.  The writers of tables and Hecke elements hand ``_write`` a
# generator of their entries' texts, or ``_lines`` their lines.  Their
# entries repeat few distinct polynomials many times, so each renders every
# distinct value once per format, in a ``functools.cache`` of the renderer
# (keyed by the value, freed with the document), and encodes every element
# name once.

# The encoder of each scalar payload type, as json.dumps writes it: strings
# through its C escaper, ints through int.__repr__ (never a bool's).
_encode_str = json.encoder.encode_basestring_ascii
_SCALARS = {
    str: _encode_str,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _dumps(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte, for a
    payload of dict (str keys), list, str, int, bool and None only; any other
    type raises ``TypeError``.  An indent sends json.dumps to its pure-Python
    encoder, whose closures are cyclic; this one is faster and leaves no
    cyclic garbage.  ``indent`` is a newline followed by the indentation of
    the line ``obj`` starts on: deeper for a value inside a larger document."""
    return "".join(_write(obj, indent))


def _write(o, indent: str) -> Iterator[str]:
    """The pieces of ``o`` written at the current position; ``indent`` is a
    newline followed by the indentation of the line ``o`` starts on.  A list
    may also be a generator of the texts of its items, each written at the
    list's inner indentation; they are streamed in place."""
    t = type(o)
    if t is dict:
        if not o:
            yield "{}"
            return
        inner = indent + "  "
        sep, comma = "{" + inner, "," + inner
        for key, item in sorted(o.items()):  # the escaper refuses a non-str key
            encode = _SCALARS.get(type(item))
            if encode is None:
                yield sep + _encode_str(key) + ": "
                yield from _write(item, inner)
            else:
                yield sep + _encode_str(key) + ": " + encode(item)
            sep = comma
        yield indent + "}"
    elif t is list or t is GeneratorType:
        inner = indent + "  "
        sep, comma = "[" + inner, "," + inner
        for item in o:
            encode = str if t is GeneratorType else _SCALARS.get(type(item))
            if encode is None:
                yield sep
                yield from _write(item, inner)
            else:
                yield sep + encode(item)
            sep = comma
        yield indent + "]" if sep is comma else "[]"
    elif t in _SCALARS:
        yield _SCALARS[t](o)
    else:
        raise TypeError(f"JSON payload holds a {t.__name__}: {o!r}")


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as one field of a row of two or
    more fields (the lone field of a one-field row is quoted when empty)."""
    import csv  # off the import path of the json and text formats

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text, ""))
    return buf.getvalue()[:-2]  # less the empty last field's comma and the line end


def _lines(lines: Iterable[str]) -> Iterator[str]:
    """``"\\n".join(lines) + "\\n"``."""
    sep = ""
    for line in lines:
        yield sep + line
        sep = "\n"
    yield "\n"


def _pieces(fmt: str, payload: dict, lines: Iterable[str] = (), rows: Iterable[Sequence[str]] = ()) -> Iterator[str]:
    """A document in ``fmt``, ending in a newline: ``payload`` as JSON, the
    csv ``rows`` (each distinct field encoded once) or the text ``lines``."""
    if fmt == "json":
        return itertools.chain(_write(payload, "\n"), ("\n",))
    if fmt == "csv":
        field = functools.cache(_csv_field)
        lines = (",".join(map(field, row)) for row in rows)
    return _lines(lines)


# Pieces of output joined into one write.
_CHUNK = 2048


def _write_out(args, pieces: Iterable[str]) -> None:
    """Write ``pieces`` to the ``-o`` file, or to stdout, joined ``_CHUNK`` at
    a time, so a large document is never one string.  The file is opened
    here, after every value is computed."""
    with open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout) as fh:
        pieces = iter(pieces)
        while chunk := list(itertools.islice(pieces, _CHUNK)):
            fh.write("".join(chunk))


def _poly_json(p: LaurentPoly) -> str:
    """A polynomial at the depth of a table entry's or a Hecke term's."""
    return _dumps(p.to_json(), "\n      ")


def _table_pieces(fmt: str, head: dict, names: dict, ordered: list) -> Iterator[str]:
    """A polynomial or multiplicity table: ``head`` holds the JSON document's
    other keys, ``names`` the text of each element and ``ordered`` the
    entries ``((y, x), polynomial)`` in print order."""
    if fmt == "json":
        poly, name = functools.cache(_poly_json), {z: _encode_str(s) for z, s in names.items()}
        return _pieces("json", {**head, "entries": (
            f'{{\n      "polynomial": {poly(p)},\n      "x": {name[x]},\n      "y": {name[y]}\n    }}'
            for (y, x), p in ordered
        )})
    if fmt == "csv":
        poly, name = functools.cache(lambda p: _csv_field(str(p))), {z: _csv_field(s) for z, s in names.items()}
        rows = (f"{name[y]},{name[x]},{poly(p)}" for (y, x), p in ordered)
        return _lines(itertools.chain(["y,x,polynomial"], rows))
    poly = functools.cache(str)
    return _lines(f"p[{names[y]}, {names[x]}] = {poly(p)}" for (y, x), p in ordered)


def _element_pieces(fmt: str, head: dict, terms: list) -> Iterator[str]:
    """A Hecke element: ``head`` holds the JSON document's other keys and
    ``terms`` the pairs (element text, polynomial) in print order."""
    if fmt == "json":
        poly = functools.cache(_poly_json)
        return _pieces("json", {**head, "terms": (
            f'{{\n      "element": {_encode_str(name)},\n      "polynomial": {poly(p)}\n    }}'
            for name, p in terms
        )})
    poly = functools.cache(str)
    return _lines(f"{name}: {poly(p)}" for name, p in terms)


def _parse_weight(group: AffineWeyl, text: str) -> Weight:
    try:
        coords = tuple(int(c) for c in text.split(","))
    except ValueError:
        raise UsageError(f"bad weight {text!r}") from None
    if len(coords) != group.rd.rank:
        raise UsageError(f"weight needs {group.rd.rank} coordinates")
    return Weight(coords)


def _refuse_ignored(args) -> None:
    """Refuse ``--format csv`` where there is no csv form, and ``--cache-dir``
    where no class is computed."""
    for option, given, applies in (("--format csv", args.format == "csv", ("blocks", "orders", "table")),
                                   ("--cache-dir", args.cache_dir is not None, ("selfcheck", "mult", "table"))):
        if given and args.command not in applies:
            raise UsageError(f"{option} applies only to {', '.join(applies)}, not {args.command}")


def _only_for(args, option: str, which: str, missing: str) -> None:
    """Refuse ``--option`` on a subcommand kind that would ignore it, and its
    absence on the kind ``which``, which needs it, with the message
    ``missing``; both before any work."""
    given = getattr(args, option) is not None
    if given and args.which != which:
        raise UsageError(f"--{option} applies only to {args.command} {which}, not {args.which}")
    if not given and args.which == which:
        raise UsageError(missing)


def _parse_elt(group: AffineWeyl, text: str):
    try:
        return group.parse_element(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# -- subcommands -------------------------------------------------------------------------


def _cmd_blocks(args) -> int:
    rd, group = _build_context(args)
    labels = enumerate_blocks(group)
    payload = {
        "type": args.type.upper(),
        "rank": args.rank,
        "l": args.l,
        "blocks": [
            {
                "representative": list(b.representative),
                "walls": list(b.walls),
                "regular": b.regular,
                "stabilizer_generators": [group.format_element(x) for x in b.stabilizer_generators],
            }
            for b in labels
        ],
    }
    rows = [["representative", "walls", "regular", "stabilizer_generators"]]
    lines = []
    for b in labels:
        rep = ",".join(map(str, b.representative))
        walls = " ".join(b.walls)
        gens = " ".join(group.format_element(x) for x in b.stabilizer_generators)
        rows.append([rep, walls, str(b.regular).lower(), gens])
        lines.append(f"({rep})  regular={str(b.regular).lower():5}  walls=[{walls}]  stabilizer=[{gens}]")
    _write_out(args, _pieces(args.format, payload, lines, rows))
    return 0


def _cmd_selfcheck(args) -> int:
    rd, group = _build_context(args)
    window = _window(args, group)
    mod, on_disk = _module(args, group)
    order = mod.order
    checks: list[tuple[str, bool]] = []

    mu = order.sufficient_mu(window)
    poset = SemiInfinitePoset.build(order, window)
    # every same-coset pair, one Bruhat walk per column
    cosets: dict[tuple, list[int]] = {}
    for i, z in enumerate(poset.window):
        cosets.setdefault(z.omega_component, []).append(i)
    order_ok = True
    for members in cosets.values():
        xs = [poset.window[i] for i in members]
        for j in members:
            column = order.column_via_translation(xs, poset.window[j], mu)
            order_ok &= all(bool(poset.rows[i] >> j & 1) == c for i, c in zip(members, column))
    checks.append(("order generated == translation characterization", order_ok))

    checks.append(("signed inversion identity q * p = delta", not mod.inversion_report(window)))
    checks.append(("Koszul operator inverts the geometric series", not mod.koszul_report(window)))

    _save_class_cache(mod, args, on_disk)
    lines = [f"{'ok' if ok else 'FAIL'}  {name}" for name, ok in checks]
    payload = {"checks": [{"name": n, "ok": ok} for n, ok in checks]}
    _write_out(args, _pieces(args.format, payload, lines))
    if not all(ok for _, ok in checks):
        raise CertificationError("selfcheck failed: " + "\n".join(lines))
    return 0


def _cmd_mult(args) -> int:
    _only_for(args, "nu", "verma-in-projective", "verma-in-projective needs --nu")
    rd, group = _build_context(args)
    mod, on_disk = _module(args, group)
    tables = MultiplicityTables(mod)
    x = _parse_elt(group, args.x)
    y = _parse_elt(group, args.y)
    if args.which == "simple-in-verma":
        value = tables.simple_in_verma(x, y)
    elif args.which == "verma-in-projective":
        value = tables.verma_in_projective(x, y, _parse_weight(group, args.nu))
    else:
        value = tables.baby_verma_in_projective(x, y)
    _save_class_cache(mod, args, on_disk)
    payload = {
        "op": args.which,
        "x": group.format_element(x),
        "y": group.format_element(y),
        "nu": args.nu,
        "value": value.to_json(),
        "value_str": str(value),
    }
    _write_out(args, _pieces(args.format, payload, [str(value)]))
    return 0


def _cmd_hecke(args) -> int:
    _only_for(args, "y", "mul", "hecke mul needs --y")
    rd, group = _build_context(args)
    alg = HeckeAlgebra(group)
    x = _parse_elt(group, args.x)
    if args.which == "mul":
        y = _parse_elt(group, args.y)
        check_length(x, "hecke mul")
        check_length(y, "hecke mul")
        result = alg.multiply(alg.basis(x), alg.basis(y))
    elif args.which == "bar":
        check_length(x, "hecke bar")
        result = alg.bar_basis(x)
    else:
        result = alg.kl_basis(x)
    head = {"op": args.which, "x": group.format_element(x), "y": args.y}
    terms = [(repr(z), result.terms[z]) for z in result.sorted_support()]
    _write_out(args, _element_pieces(args.format, head, terms))
    return 0


def _cmd_orders(args) -> int:
    rd, group = _build_context(args)
    order = SemiInfiniteOrder(group)
    window = _window(args, group)
    poset = SemiInfinitePoset.build(order, window)
    names = {z: group.format_element(z) for z in poset.window}
    edges = sorted([names[a], names[b]] for a, b in poset.hasse_edges())
    payload = {"window": list(names.values()), "edges": edges}
    lines = [f"{a} < {b}" for a, b in edges]
    _write_out(args, _pieces(args.format, payload, lines, [["lower", "upper"], *edges]))
    return 0


_TABLE_KINDS = {
    "p": "periodic_p",
    "q": "generic_q",
    "qprime": "generic_qprime",
    "simple-in-verma": "simple_in_verma",
    "verma-in-projective": "verma_in_projective_truncated",
    "baby": "babyverma_in_projective",
}


def _cmd_table(args) -> int:
    _only_for(args, "nu", "verma-in-projective", "verma-in-projective tables need --nu")
    rd, group = _build_context(args)
    window = _window(args, group)
    mod, on_disk = _module(args, group)
    kind = _TABLE_KINDS[args.which]
    nu = None
    if args.which == "verma-in-projective":
        nu = _parse_weight(group, args.nu)
    if args.which in ("p", "q", "qprime"):
        entries_map = mod.polynomial_table(kind, window)  # keyed (y, x)
    else:
        entries_map = {(y, x): p for (x, y), p in MultiplicityTables(mod).table(kind, window, nu=nu).items()}
    _save_class_cache(mod, args, on_disk)
    # Every entry pairs two window elements: name and rank each once.  The
    # window is in key order (``standard_window``).
    names = {z: group.format_element(z) for z in window}
    rank = {z: i for i, z in enumerate(window)}
    n = len(rank)
    ordered = sorted(entries_map.items(), key=lambda kv: rank[kv[0][1]] * n + rank[kv[0][0]])
    head = {
        "kind": kind,
        "type": args.type.upper(),
        "rank": args.rank,
        "l": args.l,
        "window": {"height": args.height, "coset": args.coset},
        "truncation": args.nu,
        "elements": list(names.values()),
        "omitted_entries_are": "zero",
        "format_version": FORMAT_VERSION,
    }
    _write_out(args, _table_pieces(args.format, head, names, ordered))
    return 0


# -- entry point ------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs more than a small
    query and leaves cyclic garbage.  Each ``_cmd_*`` is bound at first use,
    so reassigning one later has no effect."""
    parser = argparse.ArgumentParser(
        prog="periodic-kl",
        description="Exact periodic/generic Kazhdan-Lusztig polynomials and multiplicity tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_blocks = sub.add_parser("blocks", help="alcove block labels and stabilizers")
    _add_common(p_blocks)
    p_blocks.set_defaults(func=_cmd_blocks)

    p_check = sub.add_parser("selfcheck", help="run the certified identity checks")
    _add_common(p_check)
    p_check.add_argument("--height", type=int, required=True)
    p_check.add_argument("--coset", default="all")
    p_check.set_defaults(func=_cmd_selfcheck)

    p_mult = sub.add_parser("mult", help="graded multiplicity queries")
    p_mult.add_argument("which", choices=["simple-in-verma", "verma-in-projective", "baby"])
    _add_common(p_mult)
    p_mult.add_argument("--x", required=True, help="element t(a1,...)*w[i1 ...]")
    p_mult.add_argument("--y", required=True)
    p_mult.add_argument("--nu", default=None, help="truncation weight coordinates a1,...,ar")
    p_mult.set_defaults(func=_cmd_mult)

    p_hecke = sub.add_parser("hecke", help="Hecke algebra operations")
    p_hecke.add_argument("which", choices=["mul", "bar", "kl"])
    _add_common(p_hecke)
    p_hecke.add_argument("--x", required=True)
    p_hecke.add_argument("--y", default=None)
    p_hecke.set_defaults(func=_cmd_hecke)

    p_orders = sub.add_parser("orders", help="semi-infinite order utilities")
    p_orders.add_argument("which", choices=["hasse"])
    _add_common(p_orders)
    p_orders.add_argument("--height", type=int, required=True)
    p_orders.add_argument("--coset", default="all")
    p_orders.set_defaults(func=_cmd_orders)

    p_table = sub.add_parser("table", help="polynomial and multiplicity tables over a window")
    p_table.add_argument("which", choices=sorted(_TABLE_KINDS))
    _add_common(p_table)
    p_table.add_argument("--height", type=int, required=True)
    p_table.add_argument("--coset", default="all")
    p_table.add_argument("--nu", default=None, help="truncation weight for verma-in-projective")
    p_table.set_defaults(func=_cmd_table)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _refuse_ignored(args)
        return args.func(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return 3
    except (CertificationError, AssertionError) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

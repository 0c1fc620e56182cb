"""In-memory tracing of periodic-kl layers, installed from outside the package.

Public names are looked up at run time.  A name that does not exist (for
instance because a refactor deleted it) is reported as absent instead of
crashing the run.  Coarse functions get span wrappers that record
(name, start, end, parent) and accumulate self time; hot element operations
get count-only wrappers so that a traced pass stays within memory.
"""

from __future__ import annotations

import importlib
import pkgutil
import time
from dataclasses import dataclass, field

PACKAGE = "periodic_kl"

# Wrapped targets: metric prefix -> (mode, module, attribute paths).
# mode "span" times the call, "keyed" also counts distinct argument tuples,
# "count" only counts calls and raised exceptions.
TARGETS = {
    "periodic.selfdual": ("span", "periodic", ("PeriodicModule.selfdual",)),
    "periodic.solve_class": ("span", "periodic", ("PeriodicModule._solve_class",)),
    "periodic.generic_polynomial": ("keyed", "periodic", ("PeriodicModule.generic_polynomial",)),
    "periodic.inversion_sum": ("span", "periodic", ("PeriodicModule.inversion_sum",)),
    "periodic.koszul_of_series": ("span", "periodic", ("PeriodicModule.koszul_of_series",)),
    "periodic.polynomial_table": ("span", "periodic", ("PeriodicModule.polynomial_table",)),
    "periodic.act_gen": ("count", "periodic", ("PeriodicModule.act_gen",)),
    "periodic.shift": ("count", "periodic", ("PeriodicModule.shift",)),
    "orders.leq": ("keyed", "orders", ("SemiInfiniteOrder.leq",)),
    "orders.poset_build": ("span", "orders", ("SemiInfinitePoset.build",)),
    "orders.hasse_edges": ("span", "orders", ("SemiInfinitePoset.hasse_edges",)),
    "orders.leq_via_translation": ("span", "orders", ("SemiInfiniteOrder.leq_via_translation",)),
    "orders.height": ("count", "orders", ("SemiInfiniteOrder.height",)),
    "orders.descends": ("count", "orders", ("SemiInfiniteOrder.descends",)),
    "weyl.bruhat_leq": ("span", "weyl", ("AffineWeyl.bruhat_leq",)),
    "weyl.element_ops": ("count", "weyl", (
        "AffineWeyl.multiply", "AffineWeyl.inverse", "AffineWeyl.right_multiply_gen",
        "AffineWeyl.translate_left", "AffineWeyl.element", "FiniteWeylElement.apply",
    )),
    "weyl.dot_zero": ("count", "weyl", ("AffineWeyl.dot_zero",)),
    "weyl.length": ("count", "weyl", ("AffineWeyl.length",)),
    "weyl.format_element": ("count", "weyl", ("AffineWeyl.format_element",)),
    "weyl.parse_element": ("count", "weyl", ("AffineWeyl.parse_element",)),
    "hecke.kl_basis": ("span", "hecke", ("HeckeAlgebra.kl_basis",)),
    "hecke.right_mul_gen": ("count", "hecke", ("HeckeAlgebra.right_mul_gen",)),
    "laurent.mul": ("count", "laurent", ("LaurentPoly.__mul__",)),
    "laurent.add": ("count", "laurent", ("LaurentPoly.__add__",)),
    "laurent.from_json": ("count", "laurent", ("LaurentPoly.from_json",)),
    "rootdata.weight_ops": ("count", "rootdata", (
        "Weight.__add__", "Weight.__sub__", "Weight.__neg__", "Weight.__rmul__",
    )),
    "rootdata.dominance_leq": ("count", "rootdata", ("dominance_leq",)),
    "rootdata.root_coordinates": ("count", "rootdata", ("RootDatum.root_coordinates",)),
    "multiplicity.table": ("span", "multiplicity", ("MultiplicityTables.table",)),
    "cli.main": ("span", "cli", ("main",)),
}

LAYERS = ("rootdata", "weyl", "orders", "laurent", "hecke", "periodic", "multiplicity", "cli")

# Per-layer metrics a traced run reports, with their units.  The statistic
# after the target prefix is one of calls, distinct, repeat_frac, self_s.
TRACED_METRICS = {
    "periodic.selfdual.calls": "count",
    "periodic.selfdual.self_s": "s",
    "periodic.solve_class.calls": "count",
    "periodic.solve_class.self_s": "s",
    "periodic.act_gen.calls": "count",
    "periodic.shift.calls": "count",
    "periodic.generic_polynomial.calls": "count",
    "periodic.generic_polynomial.distinct": "count",
    "periodic.generic_polynomial.repeat_frac": "frac",
    "periodic.generic_polynomial.self_s": "s",
    "periodic.inversion_sum.calls": "count",
    "periodic.inversion_sum.self_s": "s",
    "periodic.koszul_of_series.calls": "count",
    "periodic.koszul_of_series.self_s": "s",
    "periodic.polynomial_table.self_s": "s",
    "orders.leq.calls": "count",
    "orders.leq.distinct": "count",
    "orders.leq.repeat_frac": "frac",
    "orders.leq.self_s": "s",
    "orders.poset_build.self_s": "s",
    "orders.hasse_edges.self_s": "s",
    "orders.height.calls": "count",
    "orders.descends.calls": "count",
    "orders.leq_via_translation.calls": "count",
    "orders.leq_via_translation.self_s": "s",
    "weyl.bruhat_leq.calls": "count",
    "weyl.bruhat_leq.self_s": "s",
    "weyl.element_ops.calls": "count",
    "weyl.dot_zero.calls": "count",
    "weyl.length.calls": "count",
    "weyl.format_element.calls": "count",
    "weyl.parse_element.calls": "count",
    "hecke.kl_basis.calls": "count",
    "hecke.kl_basis.self_s": "s",
    "hecke.right_mul_gen.calls": "count",
    "laurent.mul.calls": "count",
    "laurent.add.calls": "count",
    "laurent.from_json.calls": "count",
    "rootdata.weight_ops.calls": "count",
    "rootdata.dominance_leq.calls": "count",
    "rootdata.root_coordinates.calls": "count",
    "multiplicity.table.calls": "count",
    "multiplicity.table.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
}
TRACED_METRICS.update({f"{layer}.errors": "count" for layer in LAYERS})

# Spans beyond this many are counted but not kept, to bound memory.
MAX_SPANS = 50_000


@dataclass
class Stat:
    calls: int = 0
    errors: int = 0
    self_s: float = 0.0
    keys: set = field(default_factory=set)


class Tracer:
    """Wraps package functions in place and aggregates what they report."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.absent: list[str] = []
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.invocation = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module(PACKAGE)
        modules = [pkg] + [
            importlib.import_module(f"{PACKAGE}.{m.name}") for m in pkgutil.iter_modules(pkg.__path__)
        ]
        for name, (mode, module, paths) in TARGETS.items():
            stat = self.stats[name] = Stat()
            found = False
            for path in paths:
                found |= self._wrap(modules, f"{PACKAGE}.{module}", path, name, mode, stat)
            if not found:
                self.absent.append(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, modules, module_name: str, path: str, name: str, mode: str, stat: Stat) -> bool:
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            raw = owner.__dict__[attr]
        except (ImportError, AttributeError, KeyError):
            return False
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        if not callable(fn):
            return False
        wrapper = self._count_wrapper(fn, stat) if mode == "count" else \
            self._span_wrapper(fn, name, stat, keyed=mode == "keyed", method=not is_static and bool(parents))
        self._set(owner, attr, raw, staticmethod(wrapper) if is_static else wrapper)
        if not parents:
            # A module-level function may also be bound by name in sibling modules.
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn and mod is not owner:
                        self._set(mod, key, fn, wrapper)
        return True

    def _set(self, owner, attr: str, original, replacement) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    # -- wrappers -------------------------------------------------------------

    @staticmethod
    def _count_wrapper(fn, stat: Stat):
        def counted(*args, **kwargs):
            stat.calls += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise

        counted.__wrapped__ = fn
        return counted

    def _span_wrapper(self, fn, name: str, stat: Stat, keyed: bool, method: bool):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        skip = 1 if method else 0

        def spanned(*args, **kwargs):
            stat.calls += 1
            if keyed:
                key = tuple(hash(a) for a in args[skip:])
                stat.keys.add((self.invocation, key, tuple(sorted(kwargs.items()))))
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat.self_s += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(spans) < MAX_SPANS:
                    spans.append((span_id, name, start, end, parent))
                else:
                    self.spans_dropped += 1

        spanned.__wrapped__ = fn
        return spanned

    # -- report ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every name in TRACED_METRICS; absent targets read 0 (see ``absent``)."""
        out: dict[str, float] = {}
        for metric in TRACED_METRICS:
            prefix, stat_name = metric.rsplit(".", 1)
            if stat_name == "errors":
                out[metric] = sum(s.errors for n, s in self.stats.items() if n.split(".")[0] == prefix)
                continue
            stat = self.stats.get(prefix, Stat())
            if stat_name == "calls":
                out[metric] = stat.calls
            elif stat_name == "self_s":
                out[metric] = stat.self_s
            elif stat_name == "distinct":
                out[metric] = len(stat.keys)
            elif stat_name == "repeat_frac":
                out[metric] = 1.0 - len(stat.keys) / stat.calls if stat.calls else 0.0
        return out

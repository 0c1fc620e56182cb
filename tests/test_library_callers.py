"""Every function of the library has a caller in the library, and every
default-valued parameter is passed by one.

A function defined under ``src/periodic_kl`` passes if one of these holds:

- its name occurs in ``src/`` outside its own ``def`` (as a name or an
  attribute; imports, strings and ``__all__`` entries do not count);
- it is a dunder;
- the bench tracer wraps it: ``bench/tracing.py`` ``TARGETS`` names it;
- it is on ``ENTRY_POINTS`` below, each with its reason.

A parameter with a default passes if some call in ``src/`` to a function of
that name (a class name for ``__init__``) passes it, by keyword or by
position, or if it is on ``KNOBS`` below with its reason.  A default that
nothing passes is a knob the library never turns.

Both checks go by name only, which is their blind spot: a function whose
name is shared with another that has a caller passes without a caller of
its own.  ``LaurentPoly.shift`` and ``LaurentPoly.coefficient`` had no
caller in ``src/`` and still passed, because ``PeriodicModule.shift`` and
``Combination.coefficient`` have callers; a call through ``getattr`` is not
seen either.  Code that the tests alone need belongs in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "periodic_kl"

# Documented entry points with no caller in the library, by qualified name.
ENTRY_POINTS = {
    "weyl.AffineWeyl.translation": "the package docstring's example builds a translation with it",
    "weyl.AffineWeyl.identity": "the group's unit, a constructor next to element and translation; "
                                "the length-zero keys are interned without it",
}

# Default-valued parameters that no call in the library passes, by qualified
# function name and parameter name.
KNOBS = {
    ("cli.main", "argv"): "the tests and the bench run the CLI in process with an argument list",
}


def _defs_and_references():
    """(module, qualified name, name, path, first line, last line) of every
    function, and (path, line, name) of every name or attribute read."""
    defs, refs = [], []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text())

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = prefix + child.name
                    defs.append((module, qual, child.name, path, child.lineno, child.end_lineno))
                    visit(child, qual + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((path, node.lineno, node.attr))
    return defs, refs


def _traced():
    """{(module, attribute path)} of the bench tracer's ``TARGETS``."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            targets = ast.literal_eval(node.value)
            return {(module, path) for _, module, paths in targets.values() for path in paths}
    raise AssertionError("bench/tracing.py defines no TARGETS")


def _uncalled():
    defs, refs = _defs_and_references()
    out = []
    for module, qual, name, path, first, last in defs:
        if name.startswith("__") and name.endswith("__"):
            continue
        if any(n == name and not (p == path and first <= line <= last) for p, line, n in refs):
            continue
        out.append(f"{module}.{qual}")
    return out


def test_every_library_function_has_a_caller():
    traced = {f"{module}.{path}" for module, path in _traced()}
    missing = [name for name in _uncalled() if name not in traced and name not in ENTRY_POINTS]
    assert not missing, f"no caller in src/, not traced, not an entry point: {missing}"


def test_every_entry_point_is_needed():
    # an allowlisted name that gained a caller, or was deleted, leaves the list
    assert sorted(set(ENTRY_POINTS) - set(_uncalled())) == []


def _defaults():
    """(qualified name, call name, parameter, positional index or None for a
    keyword-only one) of every parameter with a default; a call of a class
    calls its ``__init__``, and ``self`` takes no position."""
    out = []
    for path in sorted(SRC.glob("*.py")):

        def visit(node, prefix, cls):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    a = child.args
                    positional = a.posonlyargs + a.args
                    if cls and "staticmethod" not in [getattr(d, "id", None) for d in child.decorator_list]:
                        positional = positional[1:]
                    qual = f"{path.stem}.{prefix}{child.name}"
                    called = cls if child.name == "__init__" else child.name
                    first = len(positional) - len(a.defaults)
                    out.extend((qual, called, arg.arg, i) for i, arg in enumerate(positional) if i >= first)
                    out.extend((qual, called, arg.arg, None)
                               for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None)
                    visit(child, prefix + child.name + ".", None)
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".", child.name)
                else:
                    visit(child, prefix, cls)

        visit(ast.parse(path.read_text()), "", None)
    return out


def _passes(call, param, index):
    """Whether ``call`` passes ``param`` by keyword or at position ``index``;
    a ``*`` or ``**`` argument passes every parameter it could."""
    keywords = [kw.arg for kw in call.keywords]
    if param in keywords or None in keywords:
        return True
    return index is not None and (len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args))


def _unpassed():
    calls = [node for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)]
    names = [getattr(call.func, "id", None) or getattr(call.func, "attr", None) for call in calls]
    return [(qual, param) for qual, called, param, index in _defaults()
            if not any(name == called and _passes(call, param, index) for name, call in zip(names, calls))]


def test_every_default_is_passed_by_the_library():
    missing = [knob for knob in _unpassed() if knob not in KNOBS]
    assert not missing, f"default-valued parameters no call in src/ passes: {missing}"


def test_every_knob_is_needed():
    # an allowlisted parameter that a call gained, or that was deleted, leaves the list
    assert sorted(set(KNOBS) - set(_unpassed())) == []

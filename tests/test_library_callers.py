"""Every function of the library has a caller in the library.

A function defined under ``src/periodic_kl`` passes if one of these holds:

- its name occurs in ``src/`` outside its own ``def`` (as a name or an
  attribute; imports, strings and ``__all__`` entries do not count);
- it is a dunder;
- the bench tracer wraps it: ``bench/tracing.py`` ``TARGETS`` names it;
- it is on ``ENTRY_POINTS`` below, each with its reason.

The check is by name only.  A function whose name is shared with another
that has a caller (``LaurentPoly.shift`` and ``PeriodicModule.shift``, say)
passes without a caller of its own, and a call through ``getattr`` is not
seen.  Code that the tests alone need belongs in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "periodic_kl"

# Documented entry points with no caller in the library, by qualified name.
ENTRY_POINTS = {
    "weyl.AffineWeyl.translation": "the package docstring's example builds a translation with it",
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

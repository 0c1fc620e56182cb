"""The bench tracer wraps methods by looking them up in their owner's
``__dict__``; an inherited or deleted method would silently show up as
``absent`` in a traced run.  Guard every target here."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_bench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(tracing)
    finally:
        del sys.modules[spec.name]
    return [
        (f"{tracing.PACKAGE}.{module}", path)
        for _, module, paths in tracing.TARGETS.values()
        for path in paths
    ]


@pytest.mark.parametrize("module,path", _targets())
def test_trace_target_resolves_on_its_owner(module, path):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    assert attr in owner.__dict__, f"{module}.{path} is not defined on its owner"

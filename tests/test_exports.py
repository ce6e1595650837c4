"""Every exported name resolves, and so does every name the benchmark traces.

perfbench/tracing.py patches ringwalk functions and methods by name; a
rename or deletion in the package would otherwise only show as a failed
benchmark run.  tracing.py imports only the standard library, so it is
loaded here by path.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("cli", "errors", "graphs", "intpoly", "rings", "scalars",
           "verify", "walks")


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_and_methods_resolve():
    tracing = _tracing()
    for module, attribute, *_ in tracing.FUNCTIONS:
        owner = importlib.import_module(f"ringwalk.{module}")
        assert callable(getattr(owner, attribute, None)), (module, attribute)
    for module, cls, method, _ in tracing.METHODS:
        owner = getattr(importlib.import_module(f"ringwalk.{module}"), cls)
        assert method in vars(owner), (module, cls, method)


@pytest.mark.parametrize("name", ("ringwalk",) + tuple(
    f"ringwalk.{m}" for m in MODULES))
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), name
    assert [n for n in exported if not hasattr(module, n)] == [], name

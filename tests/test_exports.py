"""Every exported name resolves, and so does every name the benchmark traces;
importing the package pulls in no introspection modules.

perfbench/tracing.py patches ringwalk functions and methods by name; a
rename or deletion in the package would otherwise only show as a failed
benchmark run.  tracing.py imports only the standard library, so it is
loaded here by path.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
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


def test_import_loads_no_introspection_modules():
    """`import ringwalk` in a fresh interpreter adds none of `dataclasses`
    and the modules it pulls in; every process of the CLI and the
    benchmark would pay for them before its first walk."""
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import ringwalk\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert "ringwalk.walks" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}

"""The verdict routes stay independent, checked statically by `ast`.

Brute force powers U and never reads the spectrum, the spectral classifier
factors char(A) and never powers U, and `verify`'s closed-form predictions
use neither.  `walks.period` is where the first two meet, so it is no root.

A root reaches a name when its source refers to it, directly or through a
module-level def or class of its own module, which is followed.  Names of
other modules are leaves; `test_only_the_verdict_modules_import_walks`
shows that none of those behind `verify`'s formulas imports `walks`.
Annotations are never evaluated (`from __future__ import annotations`), so
they do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ringwalk"

BRUTE_FORCE = ("walks.bruteforce_period", "walks._search_period",
               "walks._quotient", "walks._chebyshev_cells",
               "walks._power_is_identity")
SPECTRUM = {"walks.classify_spectrum", "walks._spectrum_factors"}
POWERING = {"walks._ArcSpace", "walks._chebyshev_cells",
            "walks.bruteforce_period"}


def _evaluated(node):
    """Every node below `node` except those of annotations."""
    for field, value in ast.iter_fields(node):
        if field in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield child
                yield from _evaluated(child)


def _imports(node) -> dict:
    """Local name -> qualified name for the package-relative imports at
    `node`: `from . import m` gives m -> "m", `from .m import f` gives
    f -> "m.f"."""
    out = {}
    if isinstance(node, ast.ImportFrom) and node.level:
        for alias in node.names:
            local = alias.asname or alias.name
            out[local] = f"{node.module}.{alias.name}" if node.module \
                else alias.name
    return out


def _references(source: str, module: str) -> dict:
    """Map "module.name" of each module-level def and class to the
    qualified names that it refers to."""
    tree = ast.parse(source)
    local = {node.name for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    imported = {}
    for node in tree.body:
        imported.update(_imports(node))
    graph = {}
    for top in tree.body:
        if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            continue
        refs = set()
        for node in _evaluated(top):
            # an import inside the body reaches what it imports
            refs.update(_imports(node).values())
            if isinstance(node, ast.Attribute) and isinstance(
                    node.value, ast.Name) and node.value.id in imported:
                refs.add(f"{imported[node.value.id]}.{node.attr}")
            elif isinstance(node, ast.Name):
                if node.id in local:
                    refs.add(f"{module}.{node.id}")
                elif node.id in imported:
                    refs.add(imported[node.id])
        graph[f"{module}.{top.name}"] = refs
    return graph


def _reached(graph: dict, root: str) -> set:
    assert root in graph, root
    seen, todo = set(), [root]
    while todo:
        for name in graph.get(todo.pop(), ()):
            if name not in seen:
                seen.add(name)
                todo.append(name)
    return seen


def _in_module(name: str, module: str) -> bool:
    return name.split(".")[0] == module


def route_leaks(walks_source: str, verify_source: str) -> list:
    """Sorted (root, name) pairs where a route reaches a name of another."""
    walks_graph = _references(walks_source, "walks")
    verify_graph = _references(verify_source, "verify")
    formulas = [name for name in verify_graph
                if name.startswith("verify.predicted_")]
    assert formulas
    rules = [(walks_graph, BRUTE_FORCE,
              lambda n: n in SPECTRUM or _in_module(n, "intpoly")),
             (walks_graph, ("walks.classify_spectrum",),
              lambda n: n in POWERING),
             (verify_graph, formulas + ["verify._tensor_spectrum",
                                        "verify.PredictedSpectrum"],
              lambda n: _in_module(n, "walks"))]
    return sorted((root, name) for graph, roots, forbidden in rules
                  for root in roots for name in _reached(graph, root)
                  if forbidden(name))


def _sources():
    return ((SRC / "walks.py").read_text(), (SRC / "verify.py").read_text())


def test_routes_reach_nothing_of_each_other():
    walks_source, verify_source = _sources()
    assert route_leaks(walks_source, verify_source) == []
    graph = _references(walks_source, "walks")
    # the guard sees the edges that do exist
    assert {"walks._chebyshev_cells", "walks._power_is_identity"} <= _reached(
        graph, "walks.bruteforce_period")
    assert "intpoly.cayley_factors" in _reached(graph, "walks.classify_spectrum")
    # annotations are no edges: WalkAnalysis names _ArcSpace only in one
    assert "walks._ArcSpace" not in _reached(graph, "walks.WalkAnalysis")


def test_only_the_verdict_modules_import_walks():
    """No module behind `verify`'s formulas imports `walks`, even through
    another module."""
    imports = {path.stem: {name.split(".")[0]
                           for node in ast.walk(ast.parse(path.read_text()))
                           for name in _imports(node).values()}
               for path in SRC.glob("*.py")}
    reaching = {"walks"}
    while more := {m for m, used in imports.items() if used & reaching} - reaching:
        reaching |= more
    assert reaching == {"walks", "verify", "cli", "__init__", "__main__"}


FORGERIES = [
    # brute force reads the spectrum
    ("walks", "    q = _quotient(g)\n",
     "    q = _quotient(g)\n    _spectrum_factors(g)\n",
     ("walks._search_period", "walks._spectrum_factors")),
    # the kernel borrows from intpoly
    ("walks", "    k2 = q.scale ** 2\n",
     "    k2 = intpoly.evaluate((0, 0, 1), q.scale)\n",
     ("walks._chebyshev_cells", "intpoly.evaluate")),
    # the classifier powers U
    ("walks", "    factors = _spectrum_factors(g)\n",
     "    bruteforce_period(g, 12)\n    factors = _spectrum_factors(g)\n",
     ("walks.classify_spectrum", "walks.bruteforce_period")),
    # a formula's helper asks the engine, through an import in its body
    ("verify", "    acc = {}\n",
     "    from .walks import classify_spectrum\n    acc = {}\n",
     ("verify.predicted_unitary_spectrum", "walks.classify_spectrum")),
]


def test_route_guard_fires_on_forged_sources():
    for module, line, forged, leak in FORGERIES:
        sources = dict(zip(("walks", "verify"), _sources()))
        assert sources[module].count(line) == 1, line
        sources[module] = sources[module].replace(line, forged)
        assert leak in route_leaks(sources["walks"], sources["verify"]), leak

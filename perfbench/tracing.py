"""Spans around the public functions of ringwalk's layers.

`Recorder.install` replaces each traced function, wherever a ringwalk
module binds it, by a wrapper that records a span: name, start, end, the
index of the enclosing span, and optional work counters taken from the
arguments.  Spans stay in memory until the run ends.  `uninstall` puts
every original back and fails if any wrapper is still reachable.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

_MARK = "__perfbench_span__"


def _charpoly_counters(mat, *_, **__):
    n = len(mat)
    radius = max((sum(abs(int(x)) for x in row) for row in mat), default=0)
    # The CRT bound intpoly.charpoly folds primes up to: 2 (1 + row sum)^n.
    return {"n": n, "crt_bits": (2 * (1 + radius) ** n).bit_length()}


def _arc_counters(g, *_, **__):
    return {"arcs": 2 * len(g.edges)}


# (module, attribute, span name, counters); one name may cover several
# functions that do the same job.
FUNCTIONS = (
    ("rings", "enumerate_rings", "rings.build", None),
    ("rings", "make_ring", "rings.build", None),
    ("graphs", "cayley_graph", "graphs.cayley_graph", None),
    ("intpoly", "charpoly", "intpoly.charpoly", _charpoly_counters),
    ("walks", "classify_spectrum", "walks.classify_spectrum", None),
    ("walks", "period", "walks.period", None),
    ("walks", "bruteforce_period", "walks.bruteforce_period", _arc_counters),
    ("walks", "find_pst", "walks.find_pst", None),
    ("verify", "predicted_unitary_spectrum", "verify.predicted_spectrum", None),
    ("verify", "predicted_quadratic_spectrum", "verify.predicted_spectrum", None),
    ("verify", "verify_ring", "verify.verify_ring", None),
    ("cli", "main", "cli.main", None),
)
METHODS = (
    ("verify", "PredictedSpectrum", "charpoly", "verify.PredictedSpectrum.charpoly"),
)


def _ringwalk_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ringwalk" or name.startswith("ringwalk."))]


class Recorder:
    """Holds the spans of one traced run and the patches that record them."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, counters]
        self._open = []
        self._patches = []  # (owner, attribute, original)

    def wrap(self, name, fn, counters=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = counters(*args, **kwargs) if counters else None
            span = [name, perf_counter(), None, open_[-1] if open_ else -1, extra]
            open_.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_.pop()

        setattr(traced, _MARK, True)
        return traced

    def install(self):
        for mod, _, _, _ in FUNCTIONS:
            importlib.import_module(f"ringwalk.{mod}")
        modules = _ringwalk_modules()
        for mod, attr, name, counters in FUNCTIONS:
            original = getattr(sys.modules[f"ringwalk.{mod}"], attr)
            wrapper = self.wrap(name, original, counters)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)
        for mod, cls, attr, name in METHODS:
            owner = getattr(sys.modules[f"ringwalk.{mod}"], cls)
            self._patch(owner, attr, self.wrap(name, vars(owner)[attr]))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        owners = _ringwalk_modules() + [
            getattr(sys.modules[f"ringwalk.{mod}"], cls) for mod, cls, _, _ in METHODS]
        left = [f"{getattr(o, '__name__', o)}.{k}" for o in owners
                for k, v in list(vars(o).items()) if getattr(v, _MARK, False)]
        if left:
            raise RuntimeError(f"trace wrappers still installed: {left}")

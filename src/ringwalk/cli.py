"""Command line for building ring graphs and analyzing their Grover walks.

Four subcommands: `ring` prints the local structure and unit/square data of
a ring spec, `graph` exports a walk graph as DOT or JSON, `walk` runs the
exact spectral/periodicity/transfer analysis, and `verify` sweeps the
catalog comparing closed-form predictions against the walk engine.

Every JSON surface is rendered with sorted keys and pre-sorted lists, so
identical invocations are byte-identical.  Text output is a rendering of
the same report dictionaries, never separately computed.  Exit codes:
0 success, 1 usage error, 2 verification failure or internal
inconsistency, 3 size cap exceeded.
Every subcommand refuses rings above one order cap before doing any work;
the GROVER_RING_CAP environment variable overrides its default of 36.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import intpoly, verify as verify_mod, walks
from .errors import InconsistencyError, SizeCapExceeded
from .graphs import graph_json, quadratic_unitary_cayley_graph, to_dot, \
    unitary_cayley_graph
from .rings import DEFAULT_ORDER_CAP, is_s_ring, make_ring, \
    quadratic_connection, square_units, units
from .scalars import exact_str

_FAMILIES = ("unitary", "quadratic-unitary")


def _cap() -> int:
    raw = os.environ.get("GROVER_RING_CAP")
    if raw is None:
        return DEFAULT_ORDER_CAP
    try:
        value = int(raw)
    except ValueError:
        raise SizeCapExceeded(f"GROVER_RING_CAP={raw!r} is not an integer")
    if value <= 0:
        raise SizeCapExceeded(f"GROVER_RING_CAP={raw!r} must be positive")
    return value


def _family_graph(ring, family):
    if family == "unitary":
        return unitary_cayley_graph(ring)
    return quadratic_unitary_cayley_graph(ring)


# -- ring ------------------------------------------------------------------

def _element_block(ring, elements):
    """`elements` come sorted by RingElement.sort_key, the order of `<`."""
    listed = ring.order <= DEFAULT_ORDER_CAP
    return {
        "count": len(elements),
        "elements": [str(x) for x in elements] if listed else None,
    }


def _ring_report(spec: str) -> dict:
    ring = make_ring(spec, cap=_cap())
    return {
        "spec": spec,
        "ring": ring.token,
        "order": ring.order,
        "factors": [
            {"token": f.token, "order": f.order, "residue_size": f.residue_size,
             "ideal_size": f.ideal_size}
            for f in ring.factors
        ],
        "units": _element_block(ring, units(ring).elements),
        "square_units": _element_block(ring, square_units(ring)),
        "symmetric_square_closure": _element_block(ring, quadratic_connection(ring).elements),
        "sum_of_units_ring": is_s_ring(ring),
    }


def _ring_text(rep: dict) -> str:
    lines = [f"ring: {rep['ring']}  (order {rep['order']})"]
    factors = ", ".join(
        f"{f['token']} (residue {f['residue_size']}, ideal {f['ideal_size']})"
        for f in rep["factors"])
    lines.append(f"local factors: {factors}")
    for key, label in (("units", "units"), ("square_units", "square units"),
                       ("symmetric_square_closure", "symmetric square closure")):
        block = rep[key]
        shown = "" if block["elements"] is None else \
            "  {" + ", ".join(block["elements"]) + "}"
        lines.append(f"{label}: {block['count']}{shown}")
    lines.append(f"sum-of-units ring: {str(rep['sum_of_units_ring']).lower()}")
    return "\n".join(lines) + "\n"


# -- graph -----------------------------------------------------------------

def _graph_report(ring, g, family: str) -> dict:
    return {
        "ring": ring.token,
        "family": family,
        "regularity": g.regularity,
        "connected": g.is_connected(),
        "components": len(g.connected_components()),
        "graph": graph_json(g),
    }


# -- walk ------------------------------------------------------------------

def _spectrum_block(report) -> dict:
    lines = []
    for line in report.lines:
        lines.append({
            "mu": exact_str(line.mu) if line.mu is not None else None,
            "multiplicity": line.multiplicity,
            "degree": line.degree,
            "allowed": line.allowed,
            "angle_order": line.angle_order,
            "lambda_poly": intpoly.poly_str(line.lam_poly)
            if line.lam_poly is not None else None,
        })
    return {
        "regularity": report.k,
        "lines": lines,
        "unclassified": intpoly.poly_str(report.unfactored)
        if report.unfactored is not None else None,
        "periodic": report.periodic,
        "period_bound": report.period_bound,
    }


def _component_report(g, labels) -> dict:
    spectral = walks.classify_spectrum(g)
    period = walks.period(g)
    pst = walks.find_pst(g)
    return {
        "vertices": [str(labels[v]) for v in range(g.n)],
        "size": g.n,
        "spectrum": _spectrum_block(spectral),
        "periodic": spectral.periodic,
        "period": period,
        "pst": {
            "pairs": [
                {"source": str(labels[p.source]), "target": str(labels[p.target]),
                 "time": p.time, "phase": p.phase}
                for p in pst.pairs
            ],
            "bound": pst.bound,
            "pruned_by_transitivity": pst.pruned_by_transitivity,
        },
    }


def _walk_report(spec: str, family: str) -> dict:
    ring = make_ring(spec, cap=_cap())
    g = _family_graph(ring, family)
    components = g.connected_components()
    reports = []
    for comp in components:
        sub = g if len(components) == 1 else g.induced_subgraph(comp)
        labels = [g.labels[v] for v in comp]
        reports.append(_component_report(sub, labels))
    return {
        "ring": ring.token,
        "family": family,
        "order": ring.order,
        "regularity": g.regularity,
        "connected": len(components) == 1,
        "components": reports,
    }


def _walk_text(rep: dict) -> str:
    lines = [f"walk: {rep['family']} graph of {rep['ring']} "
             f"({rep['order']} vertices, {rep['regularity']}-regular, "
             f"{'connected' if rep['connected'] else str(len(rep['components'])) + ' components'})"]
    for i, comp in enumerate(rep["components"]):
        head = f"component {i}" if len(rep["components"]) > 1 else "analysis"
        period = comp["period"] if comp["period"] is not None else "-"
        lines.append(f"{head}: periodic={str(comp['periodic']).lower()} "
                     f"period={period}")
        for line in comp["spectrum"]["lines"]:
            mu = line["mu"] if line["mu"] is not None else \
                f"[{line['lambda_poly']}]"
            lines.append(f"  mu={mu} x{line['multiplicity']} "
                         f"allowed={str(line['allowed']).lower()}")
        if comp["spectrum"]["unclassified"]:
            lines.append(f"  unclassified: {comp['spectrum']['unclassified']}")
        pairs = comp["pst"]["pairs"]
        if pairs:
            for p in pairs:
                lines.append(f"  transfer {p['source']} -> {p['target']} "
                             f"at time {p['time']} (phase {p['phase']:+d})")
        else:
            lines.append("  no perfect state transfer")
    return "\n".join(lines) + "\n"


# -- verify ----------------------------------------------------------------

def _record_json(rec) -> dict:
    return {
        "ring": rec.token,
        "family": rec.family,
        "order": rec.order,
        "predicted": {
            "spectrum_formula": rec.formula,
            "periodic": rec.predicted_periodic,
            "pst": rec.predicted_pst,
        },
        "computed": {
            "regularity": rec.regularity,
            "connected": rec.connected,
            "sum_of_units_ring": rec.sum_of_units_ring,
            "spectrum_matches": rec.spectrum_verified,
            "classifier_periodic": rec.classifier_periodic,
            "brute_force_periodic": rec.brute_periodic,
            "period": rec.period,
            "pst_positive": rec.pst_positive,
            "pst_pairs": [
                {"source": p.source, "target": p.target, "time": p.time,
                 "phase": p.phase}
                for p in rec.pst_pairs
            ],
        },
        "status": rec.status,
        "details": list(rec.failures),
    }


def _verify_report(max_order: int, family: str, tau_max: int) -> dict:
    internal = "unitary" if family == "unitary" else "quadratic"
    records = verify_mod.sweep(max_order, internal, tau_max=tau_max, cap=_cap())
    payload = [_record_json(r) for r in records]
    failed = sorted(r["ring"] for r in payload if r["status"] == "fail")
    return {
        "family": family,
        "max_order": max_order,
        "tau_max": tau_max,
        "records": payload,
        "failed": failed,
        "status": "fail" if failed else "pass",
    }


def _verify_text(rep: dict) -> str:
    lines = [f"verify: {rep['family']} family, orders <= {rep['max_order']}"]
    for rec in rep["records"]:
        comp = rec["computed"]
        period = comp["period"] if comp["period"] is not None else "-"
        lines.append(
            f"  {rec['status']:<14} {rec['ring']:<22} order {rec['order']:>3}  "
            f"periodic={str(comp['classifier_periodic']).lower():<5} "
            f"period={period:<3} pst={str(comp['pst_positive']).lower()}")
        for detail in rec["details"]:
            lines.append(f"      ! {detail}")
    lines.append(f"result: {rep['status']} "
                 f"({len(rep['records'])} rings, {len(rep['failed'])} failed)")
    return "\n".join(lines) + "\n"


# -- plumbing --------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ringwalk",
                     description="exact Grover walks on ring graphs")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    ring = sub.add_parser("ring", help="ring structure report")
    ring.add_argument("spec")
    ring.add_argument("--format", choices=("text", "json"), default="text")
    ring.add_argument("--out")

    graph = sub.add_parser("graph", help="export a walk graph")
    graph.add_argument("spec")
    graph.add_argument("--family", choices=_FAMILIES, default="unitary")
    graph.add_argument("--format", choices=("dot", "json"), default="dot")
    graph.add_argument("--out")

    walk = sub.add_parser("walk", help="exact walk analysis")
    walk.add_argument("spec")
    walk.add_argument("--family", choices=_FAMILIES, default="unitary")
    walk.add_argument("--format", choices=("json", "text"), default="json")
    walk.add_argument("--out")

    ver = sub.add_parser("verify", help="sweep predictions vs the walk engine")
    ver.add_argument("--family", choices=_FAMILIES, default="unitary")
    ver.add_argument("--max-order", type=int, default=16)
    ver.add_argument("--tau-max", type=int, default=verify_mod.ORACLE_HORIZON,
                     help="brute-force horizon for aperiodic verdicts")
    ver.add_argument("--format", choices=("json", "text"), default="json")
    ver.add_argument("--out")
    return parser


def _positive(parser, name, value):
    if value <= 0:
        parser.error(f"{name} must be positive")


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _to_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# Built once, at import: parse_args does not change the parser, and
# building one takes about 1 ms (4 ms the first time in a process).
_PARSER = _build_parser()


def main(argv=None) -> int:
    parser = _PARSER
    args = parser.parse_args(argv)
    failed = False
    try:
        if args.command == "ring":
            rep = _ring_report(args.spec)
            text = _to_json(rep) if args.format == "json" else _ring_text(rep)
        elif args.command == "graph":
            ring = make_ring(args.spec, cap=_cap())
            g = _family_graph(ring, args.family)
            rep = _graph_report(ring, g, args.family)
            if not rep["connected"]:
                print(f"warning: graph is disconnected "
                      f"({rep['components']} components)", file=sys.stderr)
            text = _to_json(rep) if args.format == "json" else \
                to_dot(g, name=f"{args.family}_{ring.token}")
        elif args.command == "walk":
            rep = _walk_report(args.spec, args.family)
            text = _to_json(rep) if args.format == "json" else _walk_text(rep)
        elif args.command == "verify":
            _positive(parser, "--max-order", args.max_order)
            _positive(parser, "--tau-max", args.tau_max)
            rep = _verify_report(args.max_order, args.family, args.tau_max)
            text = _to_json(rep) if args.format == "json" else _verify_text(rep)
            failed = rep["status"] == "fail"
    except SizeCapExceeded as exc:
        print(f"ringwalk: size cap exceeded: {exc}", file=sys.stderr)
        return 3
    except InconsistencyError as exc:
        print(f"ringwalk: internal inconsistency: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"ringwalk: error: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(text, args.out)
    except OSError as exc:  # an --out path that cannot be written
        print(f"ringwalk: error: {exc}", file=sys.stderr)
        return 1
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

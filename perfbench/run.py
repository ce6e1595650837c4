"""The ringwalk benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--previous FILE]

Run from the root of a checkout.  Every pass runs in a fresh
single-threaded interpreter (perfbench/worker.py) and every verdict is
checked against the outputs frozen in perfbench/expected/.

With --trace 0 the run measures end-to-end metrics with tracing off: it
times set-up in several fresh interpreters, then starts whole passes over
the workload until S seconds have gone by, and reports medians.
With --trace 1 it runs one untraced pass and two traced passes, reports
per-layer self times and counters, and fails if the two traced passes do
not make exactly the same calls.

Times are reported in seconds at the reference speed.  On a shared host
the speed of the same code drifts by up to 1.7x over minutes, more than a
run of a minute can average out.  So the worker times a fixed probe every
0.1 s (worker.SpeedSampler), and each time is scaled by REF_PROBE_S over
the probe's times around it.  The raw wall-clock times are printed too.

The run prints its conditions, every metric with its unit and, given
--previous (the saved standard output of an earlier run), the change in
each metric.  The last line is one JSON object: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 170
# The probe's time at the reference speed; on the 2-vCPU host the
# benchmark was defined on it took 0.17-0.3 ms.
REF_PROBE_S = 0.0002
WINDOW_S = 0.25



def spawn(name: str, seed: int, mode: str) -> dict:
    """Run one worker; returns its report with raw `setup_s` added."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               GROVER_RING_CAP=workloads.WALK_CAP, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    began = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), name, str(seed), mode],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"perfbench: worker ({mode}) exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    if Path(report["module"]).resolve().parent != ROOT / "src" / "ringwalk":
        sys.exit(f"perfbench: imported ringwalk from {report['module']}, "
                 f"not from {ROOT / 'src'}")
    report["setup_s"] = report["ready"] - began
    return report


def setup_scale(report) -> float:
    """The reference speed over the host's speed right after set-up."""
    return statistics.fmean(REF_PROBE_S / d for d in report["setup_probes"])


def pass_speed(report):
    """scale(a, b): the reference speed over the host's speed from a to b.

    It averages the samples taken within WINDOW_S of the interval, or the
    nearest ones when the interval is too short to hold any.
    """
    times = [t for t, _ in report["samples"]]
    ratios = [REF_PROBE_S / d for _, d in report["samples"]]

    def scale(a, b):
        lo = bisect.bisect_left(times, a - WINDOW_S)
        hi = bisect.bisect_right(times, b + WINDOW_S)
        if lo == hi:
            lo, hi = max(lo - 1, 0), lo + 1
        return statistics.fmean(ratios[lo:hi]) if ratios else setup_scale(report)
    return scale


def latencies(report, scaled=True) -> list:
    """[(case id, seconds)] of a pass, scaled to the reference speed."""
    scale = pass_speed(report) if scaled else (lambda a, b: 1.0)
    return [(cid, (t1 - t0) * scale(t0, t1))
            for cid, t0, t1, _ in report["verdicts"]]


def wall(report, scaled=True) -> float:
    """The time of all verdicts of a pass."""
    return sum(t for _, t in latencies(report, scaled))


def nearest_rank(values, q: float):
    """The q-quantile by nearest rank, and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def commit() -> str:
    """The checkout's git commit, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- end to end ------------------------------------------------------------

def end_to_end(name: str, seed: int, seconds: int):
    spawn(name, seed, "setup")  # fill the bytecode and file caches untimed
    setups = [spawn(name, seed, "setup") for _ in range(SETUP_SAMPLES)]
    passes = []
    deadline = time.monotonic() + seconds
    while not passes or time.monotonic() < deadline:
        passes.append(spawn(name, seed, "pass"))
    setups += passes
    # One latency per case, its median over the passes, so that a slow
    # moment of the machine counts once and not as the tail of the workload.
    by_case = {}
    for p in passes:
        for cid, latency in latencies(p):
            by_case.setdefault(cid, []).append(latency)
    per_case = [statistics.median(v) for v in by_case.values()]
    p95, beyond = nearest_rank(per_case, 0.95)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] * setup_scale(r) for r in setups),
        "wall_s": statistics.median(wall(p) for p in passes),
        "verdict_s.p50": statistics.median(per_case),
        "verdict_s.p95": p95,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    probes = [d for p in passes for _, d in p["samples"]]
    note = (f"{len(setups)} set-ups, {len(passes)} passes, {len(per_case)} "
            f"verdict latencies ({beyond} beyond p95); raw medians: setup "
            f"{statistics.median(r['setup_s'] for r in setups)} s, wall "
            f"{statistics.median(wall(p, scaled=False) for p in passes)} s; "
            f"probe median {statistics.median(probes)} s")
    return passes, metrics, note


# -- per layer -------------------------------------------------------------

_NO_CALLS = {"self_s": 0.0, "calls": 0, "arcs": 0, "n_max": 0, "crt_bits": 0}


def layer_stats(report) -> dict:
    """Per span name: self time at the reference speed, calls and counters."""
    spans = report["spans"]
    first = report["verdicts"][0][1]
    speed = pass_speed(report)

    def scale(start, end):  # spans before the first verdict belong to set-up
        return speed(start, end) if start >= first else setup_scale(report)

    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {}
    for i, (name, start, end, _, extra) in enumerate(spans):
        s = stats.setdefault(name, dict(_NO_CALLS))
        s["self_s"] += (end - start - child[i]) * scale(start, end)
        s["calls"] += 1
        if extra:
            s["arcs"] += extra.get("arcs", 0)
            s["n_max"] = max(s["n_max"], extra.get("n", 0))
            s["crt_bits"] = max(s["crt_bits"], extra.get("crt_bits", 0))
    return stats


def covered(report) -> float:
    """Share of the verdicts' wall time spent inside outermost spans."""
    first = report["verdicts"][0][1]
    inside = sum(end - start for _, start, end, parent, _ in report["spans"]
                 if parent < 0 and start >= first)
    return inside / wall(report, scaled=False)


LAYERS = (
    ("walks.bruteforce_period", ("self_s", "calls", "calls_per_verdict", "arcs")),
    ("intpoly.charpoly", ("self_s", "calls", "calls_per_verdict", "n_max", "crt_bits")),
    ("walks.classify_spectrum", ("self_s", "calls", "calls_per_verdict")),
    ("walks.period", ("calls",)),
    ("walks.find_pst", ("self_s", "calls")),
    ("verify.PredictedSpectrum.charpoly", ("self_s", "calls")),
    ("verify.predicted_spectrum", ("self_s",)),
    ("verify.verify_ring", ("self_s",)),
    ("graphs.cayley_graph", ("self_s", "calls")),
    ("rings.build", ("self_s",)),
    ("cli.main", ("self_s",)),
)


def per_layer(name: str, seed: int):
    spawn(name, seed, "setup")
    plain = spawn(name, seed, "pass")
    traced = [spawn(name, seed, "traced") for _ in range(2)]
    stats = [layer_stats(t) for t in traced]
    counts = [{span: (s["calls"], s["arcs"], s["n_max"], s["crt_bits"])
               for span, s in st.items()} for st in stats]
    if counts[0] != counts[1]:
        sys.exit(f"perfbench: two traced passes made different calls:\n"
                 f"{counts[0]}\n{counts[1]}")
    verdicts = len(plain["verdicts"])
    metrics = {}
    for span, fields in LAYERS:
        runs = [st.get(span, _NO_CALLS) for st in stats]
        for field in fields:
            if field == "self_s":
                value = statistics.mean(r["self_s"] for r in runs)
            elif field == "calls_per_verdict":
                value = runs[0]["calls"] / verdicts
            else:
                value = runs[0][field]
            metrics[f"{span}.{field}"] = value
    metrics["trace.overhead_s"] = (
        statistics.mean(wall(t) for t in traced) - wall(plain))
    metrics["trace.covered_ratio"] = statistics.mean(covered(t) for t in traced)
    note = (f"untraced wall {wall(plain)} s, traced walls "
            + ", ".join(f"{wall(t)} s" for t in traced)
            + f"; {len(traced[0]['spans'])} spans per traced pass")
    return [plain, *traced], metrics, note


# -- report ----------------------------------------------------------------

def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def previous_metrics(path: str) -> dict:
    lines = Path(path).read_text().strip().splitlines()
    return json.loads(lines[-1])["metrics"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ringwalk benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--previous", help="saved standard output of an earlier run")
    args = parser.parse_args(argv)
    if not __debug__:
        sys.exit("perfbench: refusing to run under python -O: ringwalk's "
                 "cross-checks are asserts and would be stripped")
    if not (ROOT / "src" / "ringwalk" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ringwalk sources under {ROOT / 'src'}")

    conditions = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "nproc": len(os.sched_getaffinity(0)),
                  "python": platform.python_version(), "commit": commit()}
    print("conditions " + json.dumps(conditions, sort_keys=True))
    if args.trace:
        passes, metrics, note = per_layer(args.workload, args.seed)
    else:
        passes, metrics, note = end_to_end(args.workload, args.seed, args.seconds)

    units = declared_units(args.trace)
    if set(units) != set(metrics):
        sys.exit(f"perfbench: measured {sorted(metrics)}, but BENCHMARK.json "
                 f"declares {sorted(units)}")
    verdicts = [v for p in passes for v in p["verdicts"]]
    failures = [(cid, why) for cid, _, _, why in verdicts if why]
    for cid, why in sorted(set(failures))[:20]:
        print(f"FAILED {cid}: {why}")
    print(note)
    print(f"failed_ratio = {len(failures)}/{len(verdicts)} = "
          f"{len(failures) / len(verdicts)}")
    for metric, value in metrics.items():
        print(f"{metric} = {value} {units[metric]}")
    if args.previous:
        before = previous_metrics(args.previous)
        for metric, value in metrics.items():
            old = before.get(metric, {}).get("value")
            if old is None:
                print(f"diff {metric}: not in {args.previous}")
            else:
                rel = f" ({(value - old) / old:+.1%})" if old else ""
                print(f"diff {metric}: {old} -> {value} {units[metric]}{rel}")
    print(json.dumps({
        "correct": not failures, "attempted": len(verdicts),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

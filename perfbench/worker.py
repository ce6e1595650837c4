"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED MODE

MODE `setup` imports ringwalk, builds the workload's rings and stops;
`pass` then decides every case in seeded order; `traced` does the same
with spans recorded around each layer.  The last line of standard output
is a JSON report; `ready` is the CLOCK_MONOTONIC time at which set-up
ended, so the parent can time set-up from the moment it spawned us.

The speed of a shared host drifts by up to 1.7x over minutes, so the
worker also samples it: it times a fixed probe ten times right after
set-up, and every SAMPLE_INTERVAL_S of wall time while the cases run.
"""

import json
import resource
import signal
import sys
import time

SAMPLE_INTERVAL_S = 0.1
_MODULUS = 2 ** 317 - 1


def probe() -> float:
    """Seconds taken by a fixed big-integer computation (about 0.2 ms).

    It does not touch ringwalk, so no change to the program can move it.
    """
    start = time.perf_counter()
    x = [3 ** 200 + i for i in range(64)]
    for _ in range(4):
        x = [(a * b + 1) % _MODULUS for a, b in zip(x, x[1:] + x[:1])]
    return time.perf_counter() - start


class SpeedSampler:
    """Runs the probe from a SIGALRM timer; keeps (start, seconds) pairs."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append((time.perf_counter(), probe()))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> int:
    if not __debug__:
        sys.exit("perfbench: refusing to run under python -O: ringwalk's "
                 "cross-checks are asserts and would be stripped")
    name, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    import ringwalk  # noqa: F401
    import workloads
    recorder = None
    if mode == "traced":
        from tracing import Recorder
        recorder = Recorder()
        recorder.install()
    cases = workloads.build(name)
    report = {"ready": time.monotonic(), "module": ringwalk.__file__,
              "setup_probes": [probe() for _ in range(10)]}
    if mode != "setup":
        outputs = []
        with SpeedSampler() as sampler:
            for case in workloads.shuffled(cases, seed):
                t0 = time.perf_counter()
                try:
                    out, error = workloads.decide(name, case), None
                except Exception as exc:  # a verdict that raises counts as failed
                    out, error = None, f"raised {type(exc).__name__}: {exc}"
                outputs.append((case[0], t0, time.perf_counter(), out, error))
        expected = workloads.load_expected(name)
        report.update(
            verdicts=[[cid, t0, t1,
                       error or workloads.mismatch(name, out, expected[cid])]
                      for cid, t0, t1, out, error in outputs],
            samples=sampler.samples,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if recorder is not None:
        recorder.uninstall()
        report["spans"] = recorder.spans
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

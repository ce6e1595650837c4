"""The benchmark's workloads: which verdicts each one asks for, and their
frozen expected outputs.

A workload is a list of cases.  The seed only shuffles their order, since
no verdict depends on the order in which the cases are decided.  Each case
yields one verdict and a canonical output, which is compared with the
output frozen under `expected/`.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected"

# The CLI refuses walks above 36 vertices unless the cap is raised.
WALK_CAP = "128"

# (case id, ring spec, CLI family); the id names the frozen output file.
WALK_CASES = {
    "walk-periodic": (
        ("z64-unitary", "Z64", "unitary"),
        ("z64-quadratic", "Z64", "quadratic-unitary"),
    ),
    "walk-aperiodic": (
        ("z101-quadratic", "Z101", "quadratic-unitary"),
        ("gf81-quadratic", "GF(81)", "quadratic-unitary"),
        ("z7xz11-quadratic", "Z7 x Z11", "quadratic-unitary"),
        ("z5xz25-unitary", "Z5 x Z25", "unitary"),
        ("gf128-unitary", "GF(128)", "unitary"),
    ),
}
VERIFY_ORDER = 36
NAMES = ("verify-36", *WALK_CASES)


def build(name: str):
    """Build the workload's rings; returns [(case id, ring, family)].

    This is the part of set-up that belongs to the program under test.
    """
    from ringwalk import rings
    if name == "verify-36":
        catalog = rings.enumerate_rings(VERIFY_ORDER)
        return [(f"{family}:{ring.token}", ring, family)
                for family in ("unitary", "quadratic") for ring in catalog]
    return [(cid, rings.make_ring(spec), family)
            for cid, spec, family in WALK_CASES[name]]


def shuffled(cases, seed: int):
    out = list(cases)
    random.Random(seed).shuffle(out)
    return out


def verify_summary(rec) -> list:
    """The parts of a verification record that the benchmark freezes."""
    return [rec.status, rec.classifier_periodic, rec.brute_periodic,
            rec.period, [[p.source, p.target, p.time, p.phase]
                         for p in rec.pst_pairs]]


def decide(name: str, case):
    """Run one case; returns its canonical output (a JSON value or text)."""
    from ringwalk import cli, verify
    cid, ring, family = case
    if name == "verify-36":
        return verify_summary(verify.verify_ring(ring, family))
    spec = next(spec for c, spec, _ in WALK_CASES[name] if c == cid)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["walk", spec, "--family", family, "--format", "json"])
    if code != 0:
        raise RuntimeError(f"ringwalk walk {spec!r} exited {code}")
    return buf.getvalue()


def walk_path(cid: str) -> Path:
    return EXPECTED / "walk" / f"{cid}.json"


def load_expected(name: str) -> dict:
    """Case id -> frozen output."""
    if name == "verify-36":
        return json.loads((EXPECTED / "verify-36.json").read_text())
    return {cid: walk_path(cid).read_bytes().decode()
            for cid, _, _ in WALK_CASES[name]}


def mismatch(name: str, output, expected) -> str | None:
    """Why a verdict counts as failed, or None when it is correct."""
    if output != expected:
        return "differs from the frozen expected output"
    if name == "verify-36" and output[0] == "fail":
        return "verify reported a failure"
    return None

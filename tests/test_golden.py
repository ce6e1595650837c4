"""Golden CLI corpus: exact bytes of `ringwalk` output for every subcommand.

Each file under tests/golden/ is the standard output of one command.  The
test reruns the command and compares bytes, so any change to a verdict, a
spectrum line, an ordering or the JSON layout shows up here.

    python3 tests/test_golden.py --regenerate

rewrites the corpus; do that only once a changed output has been shown to
be right.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from ringwalk import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

WALK_RINGS = (
    "Z2", "Z4", "Z2 x Z2", "Z5", "Z6", "G(2)", "GF(4)", "Z8", "Z9", "GF(9)",
    "Z10", "Z12", "Z13", "Z2 x Z2 x Z2", "Z3 x Z3", "GF(4) x Z3", "Z27",
    "Z5 x Z7", "Z36",
)
FAMILIES = ("unitary", "quadratic-unitary")
RING_SPECS = (
    "Z12", "Z27", "G(3)", "Zp[2,3]", "Zp[3,3]", "GF(8)", "GF(9)",
    "GF(4) x Z3", "Z2 x Z2", "Z3 x G(2)",
)


def _slug(spec: str) -> str:
    return "".join(c for c in spec.replace(" x ", "x") if c.isalnum())


def _cases():
    """(file name, argv) for every command in the corpus."""
    out = []
    for spec in WALK_RINGS:
        for family in FAMILIES:
            out.append((f"walk/{_slug(spec)}-{family}.json",
                        ["walk", spec, "--family", family, "--format", "json"]))
    for spec in ("Z2 x Z2", "Z12"):
        out.append((f"walk/{_slug(spec)}-unitary.txt",
                    ["walk", spec, "--format", "text"]))
    for spec in RING_SPECS:
        out.append((f"ring/{_slug(spec)}.json",
                    ["ring", spec, "--format", "json"]))
        out.append((f"ring/{_slug(spec)}.txt",
                    ["ring", spec, "--format", "text"]))
    out.append(("graph/Zp23-unitary.dot",
                ["graph", "Zp[2,3]", "--format", "dot"]))
    for spec in ("Z12", "GF(4) x Z3"):
        for family in FAMILIES:
            out.append((f"graph/{_slug(spec)}-{family}.json",
                        ["graph", spec, "--family", family, "--format", "json"]))
    out.append(("graph/Z2xZ2-unitary.json",
                ["graph", "Z2 x Z2", "--format", "json"]))
    for family in FAMILIES:
        out.append((f"verify-{family}-16.json",
                    ["verify", "--family", family, "--max-order", "16",
                     "--format", "json"]))
    return out


def _render(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0, (argv, code)
    return buf.getvalue()


@pytest.mark.parametrize("name,argv", _cases(), ids=[n for n, _ in _cases()])
def test_cli_output_matches_golden(name, argv):
    expected = (GOLDEN / name).read_bytes().decode()
    assert _render(argv) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python3 tests/test_golden.py --regenerate")
    for name, argv in _cases():
        path = GOLDEN / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(_render(argv).encode())
        print(path)

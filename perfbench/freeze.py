"""Write perfbench/expected/ from the program in this checkout.

    python3 perfbench/freeze.py

The checked-in files were written at the commit that defined the
benchmark; a later commit that changes a verdict or a byte of walk output
fails the benchmark until someone decides the new output is right and
freezes it again.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402

os.environ["GROVER_RING_CAP"] = workloads.WALK_CAP


def main() -> int:
    (workloads.EXPECTED / "walk").mkdir(parents=True, exist_ok=True)
    for name in workloads.NAMES:
        outputs = {case[0]: workloads.decide(name, case)
                   for case in workloads.build(name)}
        if name == "verify-36":
            rows = (f"{json.dumps(cid)}: {json.dumps(out)}"
                    for cid, out in sorted(outputs.items()))
            (workloads.EXPECTED / "verify-36.json").write_text(
                "{\n" + ",\n".join(rows) + "\n}\n")
        else:
            for cid, text in outputs.items():
                workloads.walk_path(cid).write_bytes(text.encode())
        print(f"{name}: {len(outputs)} outputs frozen")
    return 0


if __name__ == "__main__":
    sys.exit(main())

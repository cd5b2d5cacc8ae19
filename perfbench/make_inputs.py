"""Write one workload's input files and print how long that set-up took.

    python3 perfbench/make_inputs.py --workload W --seed S --dir DIR

run.py starts this several times, one after another, and reports the median
as `setup_s`. Each start is a fresh interpreter, so every repetition pays the
package import that a user's `eqclus` process pays, as well as instance
generation and writing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, str(HERE.parent / "src"))
    import eqclus.cli  # noqa: F401  (the import is part of the set-up being timed)

    import families

    for i, inst in enumerate(families.make(args.workload, args.seed)):
        with open(os.path.join(args.dir, f"{i}.ecl"), "w", encoding="utf-8") as fh:
            fh.write(families.instance_text(inst))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, run from the repository root.

Runs the program from this checkout's ``src/``.  The last line of standard
output is the JSON result; the exit code is 0 only when every op's output
and verdict matched the expected-verdict ledger.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _main() -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.harness import main

    return main()


if __name__ == "__main__":
    sys.exit(_main())

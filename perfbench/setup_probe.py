"""Time one cold set-up of a workload: import linbins, then build its inputs.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the elapsed seconds.  run.py starts it in fresh processes, one at a
time, so that import cost is paid in every sample.
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    spec = json.loads((here / "workloads.json").read_text())
    name, seed = sys.argv[1], int(sys.argv[2])
    start = time.perf_counter()
    import workloads

    workloads.make(name, spec, seed, here / "out").setup()
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()

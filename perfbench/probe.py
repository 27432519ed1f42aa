"""Set-up probe: time importing ``repro`` and resolving one workload.

Run by ``run.py`` in a fresh interpreter per sample; prints the seconds
from the first import to a resolved workload object.
"""

import sys
from pathlib import Path
from time import perf_counter

if __name__ == "__main__":
    started = perf_counter()
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    import repro  # noqa: F401
    import workloads

    workloads.resolve(sys.argv[1], 0, here.parent / ".perfbench-runs")
    print(perf_counter() - started)

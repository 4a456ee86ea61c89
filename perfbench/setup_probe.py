"""Time one cold set-up of a workload in a fresh interpreter.

Set-up is importing densiflock, parsing the workload's configs and building
their initial states.  Prints the seconds it took.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = time.perf_counter()
import workloads  # noqa: E402  (the import of densiflock is part of set-up)

workloads.setup(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - start)

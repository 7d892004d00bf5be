"""Set-up probe: start, import numpy and levylab, build a workload's inputs.

    python3 perfbench/probe.py WORKLOAD SEED

Prints ``ready`` once the first operation could be issued; run.py times
this process from its start to that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402,F401
import levylab.cli  # noqa: E402,F401
import levylab.studies  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)

"""Set-up probe: a fresh interpreter that gets one workload ready to step.

    python3 bench/probe.py <workload> <seed>

Imports frameflow from the checkout, builds the workload's configuration
and chart, then prints one JSON line with the import time and exits.  The
parent times it from spawn to that line.
"""

import json
import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402

ff = workloads.require_checkout()
import_s = time.perf_counter() - t0
workloads.WORKLOADS[sys.argv[1]].setup(ff, int(sys.argv[2]))
print(json.dumps({"import_s": import_s}), flush=True)

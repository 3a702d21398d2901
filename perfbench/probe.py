"""Set-up probe: a fresh interpreter that only sets a workload up.

``python3 perfbench/probe.py <workload>`` imports the workload's modules
(and so the program) and runs its ``setup_probe()``, then exits.  The
benchmark times whole runs of this script to measure ``setup_s``.
"""

import importlib
import sys

from run import WORKLOADS

if __name__ == "__main__":
    importlib.import_module(WORKLOADS[sys.argv[1]]).setup_probe()

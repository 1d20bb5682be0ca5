"""Set-up probe: import the library, make a workload's first inputs, say "ready".

    python3 perfbench/probe.py <workload> <seed>

run.py starts this in a fresh interpreter and times it up to the "ready"
line; that time is the benchmark's setup_s.
"""

import sys

import workloads  # imports haltonclt from src/ of the current directory

workloads.round_ops(sys.argv[1], int(sys.argv[2]), 0)
print("ready", flush=True)

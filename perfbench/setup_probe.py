"""Time one workload's set-up in a fresh interpreter and print the seconds.

Set-up is what a user waits for before the first sampler call: the
imports, the dataset, the model and the sampler configuration.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
print(repr(time.perf_counter() - _T0))

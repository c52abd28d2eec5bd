"""Print the set-up seconds of one fresh process: import nlametro, run one warm-up item.

Usage: python3 perfbench/setup_probe.py <workload>
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

import checkout  # noqa: E402

checkout.use_source()

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](0).warm_up()
print(repr(time.perf_counter() - START))

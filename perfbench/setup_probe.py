"""One set-up sample: import qcontain, generate the workload's instances, parse them.

``run.py`` starts this in a fresh interpreter several times. The last thing
it does is print ``time.perf_counter()``; that clock is system-wide, so the
parent takes the difference from its own reading before the start.
"""
from __future__ import annotations

import sys
import time

from qcontain.graph import parse_instance

from workloads import TINY, WORKLOADS, instances_for

if __name__ == "__main__":
    name, seed, tiny = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    for inst in instances_for((TINY if tiny else WORKLOADS)[name], seed):
        parse_instance(inst.to_text())
    print(repr(time.perf_counter()))

"""Time one set-up of a workload in this fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD

Prints the seconds, at reference speed (see ``pace.py``), from just before
``import lpcoset`` until the workload's state is built, so work moved into
import time or into set-up both show.
"""

import sys
import time

from pace import Pacer
from run import import_library

SAMPLES_AROUND = 10  # kernel samples just before and after the timed window

with Pacer() as pacer:
    for _ in range(SAMPLES_AROUND):
        pacer.sample()
    spent = pacer.spent
    t0 = time.perf_counter()
    import_library()
    from workloads import WORKLOADS

    WORKLOADS[sys.argv[1]].setup()
    t1 = time.perf_counter()
    wall = t1 - t0 - (pacer.spent - spent)
    for _ in range(SAMPLES_AROUND):
        pacer.sample()
print(wall * pacer.speed(t0, t1))

#!/usr/bin/env python3
"""Fairness-layer wall-clock: strictly serial vs concurrent task slots.

Runs the speedup benchmark scenario once per slot count and prints the
median serial/concurrent wall-clock (harness.SPEEDUP_RUNS replays per side)
with the output-digest equality check. Needs
multiple physical cores for the concurrent mode to win.

Usage: python scripts/speedup_bench.py [slots ...]
"""

import os
import sys

from batchfair.harness import measure_speedup
from batchfair.scenarios import build_scenario


def main() -> int:
    slot_counts = [int(a) for a in sys.argv[1:]] or [4]
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"host cores: {cores}")
    for slots in slot_counts:
        result = measure_speedup(build_scenario("speedup_bench"), slots=slots)
        print(
            f"slots={slots}: serial={result.serial_wall_s:.2f}s "
            f"concurrent={result.concurrent_wall_s:.2f}s "
            f"speedup={result.speedup:.2f}x "
            f"identical-digest={result.digests_equal} "
            f"eligible-subdags={result.eligible_subdags}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The start-up that ``setup_s`` times, in a fresh interpreter: import
``batchfair.cli``, build the workload's scenario, start and warm the
2-worker pool, then print ``ready``.

    python3 perfbench/setup_child.py WORKLOAD SEED
"""

import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import batchfair.cli  # noqa: E402,F401

from workloads import WORKLOADS, build  # noqa: E402

SLOTS = 2

if __name__ == "__main__":
    build(WORKLOADS[sys.argv[1]], int(sys.argv[2]))
    with ProcessPoolExecutor(max_workers=SLOTS) as pool:
        list(pool.map(int, range(SLOTS)))
        print("ready", flush=True)

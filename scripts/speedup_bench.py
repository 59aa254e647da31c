#!/usr/bin/env python3
"""Fairness-layer wall-clock: strictly serial vs concurrent task slots, and
criterion 9's margin.

Runs the speedup benchmark scenario once per slot count and prints the
median serial/concurrent wall-clock (harness.SPEEDUP_RUNS replays per side)
with the output-digest equality check. Needs
multiple physical cores for the concurrent mode to win.

Then prints criterion 9's margin: the mean per-subdag phase-1 (weights) and
phase-3 time over serial runs of profile_bench seeds 0-4, and their ratio.
Criterion 9 passes while the ratio is above 1.

Usage: python scripts/speedup_bench.py [slots ...]
"""

import os
import sys
from statistics import fmean

from batchfair.harness import execute_scenario, measure_speedup
from batchfair.scenarios import build_scenario


def weights_phase3_ns() -> tuple[float, float]:
    """Criterion 9's two means, in ns per subdag."""
    weights, phase3 = [], []
    for seed in range(5):
        rep, _ = execute_scenario(build_scenario("profile_bench", seed=seed), serial=True)
        weights.append(rep.phase_means_ns["weights_ns"])
        phase3.append(rep.phase_means_ns["scc_ns"])
    return fmean(weights), fmean(phase3)


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
    weights, phase3 = weights_phase3_ns()
    print(
        f"criterion 9 (profile_bench seeds 0-4): weights={weights:.0f}ns "
        f"phase3={phase3:.0f}ns margin=x{weights / phase3:.2f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Fairness-layer wall-clock: strictly serial vs concurrent task slots, and
criterion 9's margin.

Runs the speedup benchmark scenario once per slot count and prints the
median serial/concurrent wall-clock (harness.SPEEDUP_RUNS replays per side)
with the output-digest equality check, and beside it the ceiling that
Amdahl's law puts on that ratio: only phase 1 crosses the pool, so with
phase 1's share s of a serial replay (the replay's summed ``weights_ns``
over its wall time, median of PHASE1_SHARE_RUNS replays) no slot count can
beat 1/(1 - s).

Then prints criterion 9's margin: the mean per-subdag phase-1 (weights) and
phase-3 time over serial runs of profile_bench seeds 0-4, and their ratio.
Criterion 9 passes while the ratio is above 1.

Usage: python scripts/speedup_bench.py [slots ...]
"""

import os
import sys
import time
from statistics import fmean, median

from batchfair.dagsim import Simulator
from batchfair.harness import execute_scenario, measure_speedup
from batchfair.pipeline import FairnessPipeline
from batchfair.scenarios import build_scenario

PHASE1_SHARE_RUNS = 11


def phase1_share(scenario) -> float:
    """Phase 1's share of a serial replay's wall time (median over replays)."""
    res = Simulator(scenario.config, scenario.faults, scenario.clients, scenario.spikes).run()
    cfg = scenario.config
    shares = []
    for _ in range(PHASE1_SHARE_RUNS):
        t0 = time.perf_counter_ns()
        out = FairnessPipeline(cfg.n, cfg.f, cfg.gamma).replay(res.records)
        wall = time.perf_counter_ns() - t0
        shares.append(sum(p["weights_ns"] for p in out.profiles) / wall)
    return median(shares)


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
    share = phase1_share(build_scenario("speedup_bench"))
    for slots in slot_counts:
        result = measure_speedup(build_scenario("speedup_bench"), slots=slots)
        print(
            f"slots={slots}: serial={result.serial_wall_s:.2f}s "
            f"concurrent={result.concurrent_wall_s:.2f}s "
            f"speedup={result.speedup:.2f}x "
            f"identical-digest={result.digests_equal} "
            f"eligible-subdags={result.eligible_subdags} "
            f"phase1-share={share:.1%} ceiling={1 / (1 - share):.2f}x"
        )
    weights, phase3 = weights_phase3_ns()
    print(
        f"criterion 9 (profile_bench seeds 0-4): weights={weights:.0f}ns "
        f"phase3={phase3:.0f}ns margin=x{weights / phase3:.2f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

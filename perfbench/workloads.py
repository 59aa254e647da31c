"""The benchmark's workloads.

Each workload is a shipped scenario with its config seed pinned: that seed
drives network delays and the leader coin, which decide how transactions
group into subdags and so how much graph work a run does. The benchmark seed
drives only the client schedule (per-replica arrival shuffle and skew), so
the same seed always gives the same inputs and another seed gives another
arrival order with the same amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str  # shipped scenario the workload is built from
    config_seed: int  # pinned network and leader-coin seed
    txs: int
    variant: dict = field(default_factory=dict)  # scenario arguments besides seed and txs
    adversarial: bool = False  # the run produces a Dist table
    why: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bulk_n13", "speedup_bench", 0, 2400,
            why="13 large subdags, no faults and no votes: graph kernels, "
            "concurrent replay and the pairwise oracle checks do the work",
        ),
        Workload(
            "crash_votes", "crash_n13", 0, 2000,
            why="3 of 13 replicas crash; 16 of 25 subdags park and resolve "
            "through votes: worker voting and finalize tallies are busy",
        ),
        Workload(
            "reversing_n21", "reversing_fig8", 0, 700, {"f_actual": 5},
            adversarial=True,
            why="21 replicas, 5 reversing: small graphs and many messages per "
            "transaction; the bypass case for kernel work, and the Dist table",
        ),
    )
}


def build(workload: Workload, seed: int, txs: int | None = None):
    """The workload's scenario for one benchmark seed, and its variant."""
    from batchfair.scenarios import Scenario, build_scenario

    kwargs = {**workload.variant, "txs": txs or workload.txs}
    pinned = build_scenario(workload.scenario, seed=workload.config_seed, **kwargs)
    clients = build_scenario(workload.scenario, seed=seed, **kwargs).clients
    scenario = Scenario(
        pinned.name, pinned.config, faults=pinned.faults, clients=clients,
        spikes=pinned.spikes,
    )
    return scenario, dict(workload.variant) or None

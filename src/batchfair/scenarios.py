"""Library-shipped scenarios: exact parameterizations for the documented
attack reproductions, adversarial sweeps, and benchmark loads."""

from __future__ import annotations

from dataclasses import dataclass, field

from .adversaries import (
    REVERSE_ORDER,
    SILENT_CRASH,
    ClientDirective,
    ClientSchedule,
    DelaySpike,
    FaultDirective,
    FaultSchedule,
    random_crash_schedule,
    uniform_load,
)
from .params import SimConfig


@dataclass
class Scenario:
    name: str
    config: SimConfig
    faults: FaultSchedule = field(default_factory=FaultSchedule)
    clients: ClientSchedule = field(default_factory=ClientSchedule)
    spikes: list[DelaySpike] = field(default_factory=list)
    # scripted payloads for the baseline weight-layer models
    model: dict | None = None
    # parameter variants (e.g. actual adversary counts) the harness iterates
    variants: list[dict] = field(default_factory=list)


def _condorcet_minimal(seed: int) -> Scenario:
    # three replicas receive a, b, c in the three cyclic orders
    orders = {0: ["a", "b", "c"], 1: ["b", "c", "a"], 2: ["c", "a", "b"]}
    directives = []
    seq = 0
    for rep in sorted(orders):
        for body in orders[rep]:
            directives.append(ClientDirective(body, rep, 1, seq))
            seq += 1
    return Scenario(
        "condorcet_minimal",
        SimConfig(n=3, f=0, gamma="2/3", seed=seed, max_rounds=8, delivery_model="lockstep"),
        clients=ClientSchedule(directives),
    )


def _crash_n13(seed: int, txs: int = 2000) -> Scenario:
    inject_until = 36
    cfg = SimConfig(n=13, f=3, gamma=1, seed=seed, max_rounds=56, delay_max=4)
    faults = FaultSchedule(
        [
            FaultDirective(3, SILENT_CRASH, 6),
            FaultDirective(8, SILENT_CRASH, 12),
            FaultDirective(12, SILENT_CRASH, 20),
        ]
    )
    clients = uniform_load(13, txs, 1, inject_until, seed=seed, skew_p=0.15)
    return Scenario("crash_n13", cfg, faults=faults, clients=clients)


def _reversing_fig8(seed: int, f_actual: int = 5, txs: int = 700) -> Scenario:
    cfg = SimConfig(n=21, f=5, gamma=1, seed=seed, max_rounds=30, delay_max=4)
    reversers = [1 + 4 * i for i in range(f_actual)]
    faults = FaultSchedule([FaultDirective(i, REVERSE_ORDER, 0) for i in reversers])
    clients = uniform_load(21, txs, 1, 20, seed=seed, skew_p=0.1)
    return Scenario(
        "reversing_fig8",
        cfg,
        faults=faults,
        clients=clients,
        variants=[{"f_actual": k} for k in (0, 2, 5)],
    )


def _fairdag_b1(seed: int) -> Scenario:
    """The two-subdag starvation plan: a and b go to one replica first, then
    to two others in opposite orders; model tables use the exact N=4, f=1
    setting (replica 4 crashed), the protocol run an adapted n=5 threshold."""
    model = {
        "n": 4,
        "f": 1,
        "horizon": 1000,
        "subdags": [
            {1: [("x", 1)], 2: [("x", 1)], 3: [("a", 1), ("b", 2)]},
            {1: [("a", 1), ("b", 2)], 2: [("b", 1), ("a", 2)], 3: [("y", 1)]},
        ],
    }
    # adapted protocol run: n=5 (threshold 4f+1), replica 4 crashed, same
    # asymmetric delivery plan plus filler traffic
    directives = [
        ClientDirective("a", 2, 1, 0),
        ClientDirective("b", 2, 1, 1),
        ClientDirective("x", 0, 1, 2),
        ClientDirective("x", 1, 1, 3),
        ClientDirective("a", 0, 3, 4),
        ClientDirective("b", 0, 3, 5),
        ClientDirective("b", 1, 3, 6),
        ClientDirective("a", 1, 3, 7),
        ClientDirective("y", 2, 3, 8),
    ]
    cfg = SimConfig(n=5, f=1, gamma=1, seed=seed, max_rounds=16)
    return Scenario(
        "fairdag_b1",
        cfg,
        faults=FaultSchedule([FaultDirective(4, SILENT_CRASH, 0)]),
        clients=ClientSchedule(directives),
        model=model,
    )


def _dod_b2(seed: int) -> Scenario:
    """Round-split pair: a and b reach the four live replicas across two
    neighbouring rounds so their in-round co-reports tie at 1/1."""
    model = {
        "n": 5,
        "f": 1,
        "gamma": "1",
        "rounds": {
            1: {2: ["a"], 3: ["b"]},
            2: {1: ["a", "b"], 2: ["b"], 3: ["a"], 4: ["b", "a"]},
            3: {1: ["z1"], 2: ["z1"], 3: ["z1"], 4: ["z1"]},
            4: {1: ["z2"], 2: ["z2"], 3: ["z2"], 4: ["z2"]},
        },
    }
    directives = [
        ClientDirective("a", 1, 1, 0),
        ClientDirective("b", 2, 1, 1),
        ClientDirective("a", 0, 2, 2),
        ClientDirective("b", 0, 2, 3),
        ClientDirective("b", 1, 2, 4),
        ClientDirective("a", 2, 2, 5),
        ClientDirective("b", 3, 2, 6),
        ClientDirective("a", 3, 2, 7),
    ]
    cfg = SimConfig(n=5, f=1, gamma=1, seed=seed, max_rounds=14)
    return Scenario(
        "dod_b2",
        cfg,
        faults=FaultSchedule([FaultDirective(4, SILENT_CRASH, 0)]),
        clients=ClientSchedule(directives),
        model=model,
    )


def _speedup_bench(seed: int, txs: int = 2400, rounds: int = 26) -> Scenario:
    cfg = SimConfig(n=13, f=3, gamma=1, seed=seed, max_rounds=rounds, delay_max=3)
    clients = uniform_load(13, txs, 1, rounds - 6, seed=seed, skew_p=0.0)
    return Scenario("speedup_bench", cfg, clients=clients)


def _profile_bench(seed: int, txs: int = 900, rounds: int = 18) -> Scenario:
    cfg = SimConfig(n=13, f=3, gamma=1, seed=seed, max_rounds=rounds, delay_max=3)
    clients = uniform_load(13, txs, 1, rounds - 6, seed=seed, skew_p=0.05)
    return Scenario("profile_bench", cfg, clients=clients)


def _ablation(seed: int, self_reference: bool) -> Scenario:
    """Self-referencing-rule ablation.

    With the rule off and wide delivery jitter, a replica's round-r vertex can
    miss every prompt round-(r+1) reference yet still be picked up by a late
    proposer, committing after the same author's round-(r+1) vertex and
    breaking the LOI-ascending committed stream. Seed 7 exhibits the
    inversion deterministically; with the rule on the same schedule is clean.
    """
    name = "ablation_selfref_on" if self_reference else "ablation_no_selfref"
    cfg = SimConfig(
        n=6, f=1, gamma=1, seed=seed, max_rounds=22,
        self_reference=self_reference, delay_min=1, delay_max=12,
    )
    clients = uniform_load(6, 66, 1, 16, seed=seed, skew_p=0.0)
    return Scenario(name, cfg, clients=clients)


def _wire_binary(seed: int) -> Scenario:
    cfg = SimConfig(n=5, f=1, gamma=1, seed=seed, max_rounds=12, batch_wire="binary")
    clients = uniform_load(5, 40, 1, 8, seed=seed, skew_p=0.2)
    return Scenario("wire_binary", cfg, clients=clients)


_BUILDERS = {
    "condorcet_minimal": _condorcet_minimal,
    "crash_n13": _crash_n13,
    "reversing_fig8": _reversing_fig8,
    "fairdag_b1": _fairdag_b1,
    "dod_b2": _dod_b2,
    "speedup_bench": _speedup_bench,
    "profile_bench": _profile_bench,
    "wire_binary": _wire_binary,
    "ablation_no_selfref": lambda seed: _ablation(seed or 7, False),
    "ablation_selfref_on": lambda seed: _ablation(seed or 7, True),
}


def scenario_names() -> list[str]:
    return sorted(_BUILDERS)


def build_scenario(name: str, seed: int = 0, **kwargs) -> Scenario:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; shipped scenarios: {', '.join(scenario_names())}"
        ) from None
    return builder(seed, **kwargs) if kwargs else builder(seed)


def sweep_scenario(n: int, f: int, gamma, seed: int, txs: int = 90,
                   rounds: int = 26, skew_p: float | None = None) -> Scenario:
    """One cell of the randomized crash sweep.

    Cross-round injection skew (which splits a transaction's support across
    neighbouring subdags and exercises the vote path) is applied only at
    gamma = 1. At gamma < 1 a skewed pair can legitimately graph across two
    subdags; the fairness theorem covers that case by Condorcet-cycle batch
    semantics, which the strict emitted-batch checker does not model.
    """
    cfg = SimConfig(n=n, f=f, gamma=gamma, seed=seed, max_rounds=rounds, delay_max=4)
    if skew_p is None:
        skew_p = 0.2 if cfg.gamma == 1 else 0.0
    faults = random_crash_schedule(n, f, rounds, seed)
    clients = uniform_load(n, txs, 1, rounds - 8, seed=seed, skew_p=skew_p)
    return Scenario(f"sweep_n{n}_f{f}", cfg, faults=faults, clients=clients)

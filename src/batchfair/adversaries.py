"""Fault strategies, client schedules, and delivery-delay spikes.

Strategies: silent_crash stops a replica at its activation round;
reverse_local_order makes a replica report each sealed contribution in the
exact reverse of its receive order while following every other protocol step
honestly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .params import ConfigError

SILENT_CRASH = "silent_crash"
REVERSE_ORDER = "reverse_local_order"
STRATEGIES = (SILENT_CRASH, REVERSE_ORDER)
SPIKE_SCOPES = ("vertex", "inbound")


@dataclass(frozen=True)
class FaultDirective:
    replica: int
    strategy: str
    round: int  # activation round

    def __post_init__(self) -> None:
        # the replica's upper bound is n, which Simulator checks
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown fault strategy {self.strategy!r}")
        for name in ("replica", "round"):
            value = getattr(self, name)
            if type(value) is not int or value < 0:
                raise ConfigError(f"fault directive {name} must be an integer >= 0, got {value!r}")


@dataclass
class FaultSchedule:
    directives: list[FaultDirective] = field(default_factory=list)

    def __post_init__(self) -> None:
        replicas = [d.replica for d in self.directives]
        if len(replicas) != len(set(replicas)):
            raise ConfigError("at most one fault directive per replica")

    @property
    def f_actual(self) -> int:
        return len(self.directives)

    def crash_rounds(self) -> dict[int, int]:
        return {d.replica: d.round for d in self.directives if d.strategy == SILENT_CRASH}

    def reversers(self) -> set[int]:
        return {d.replica for d in self.directives if d.strategy == REVERSE_ORDER}

    def check_budget(self, f: int) -> None:
        if self.f_actual > f:
            raise ConfigError(f"{self.f_actual} faulty replicas exceed budget f={f}")


@dataclass(frozen=True)
class ClientDirective:
    """Deliver one transaction body to one replica just before it seals
    its batch for ``round``; ``seq`` orders deliveries within that batch."""

    body: str
    replica: int
    round: int
    seq: int


@dataclass
class ClientSchedule:
    directives: list[ClientDirective] = field(default_factory=list)

    def __post_init__(self) -> None:
        # injection rounds must be non-decreasing per (client stream = body order)
        per_replica: dict[int, int] = {}
        for d in sorted(self.directives, key=lambda d: (d.replica, d.seq)):
            prev = per_replica.get(d.replica, 0)
            if d.round < prev:
                raise ConfigError("injection rounds must be non-decreasing per replica")
            per_replica[d.replica] = d.round

    def by_replica_round(self) -> dict[tuple[int, int], list[str]]:
        out: dict[tuple[int, int], list[str]] = {}
        for d in sorted(self.directives, key=lambda d: (d.replica, d.round, d.seq)):
            out.setdefault((d.replica, d.round), []).append(d.body)
        return out


@dataclass(frozen=True)
class DelaySpike:
    """One-shot extra delivery delay, for adversarial-scheduler scenarios.

    scope "vertex": outgoing vertex broadcasts of ``replica`` at ``round``.
    scope "inbound": all messages delivered to ``replica`` carrying ``round``.
    """

    replica: int
    round: int
    extra: int
    scope: str = "vertex"

    def __post_init__(self) -> None:
        # the replica's upper bound is n, which Simulator checks
        if self.scope not in SPIKE_SCOPES:
            raise ConfigError(f"delay spike scope: unknown scope {self.scope!r}")
        for name in ("replica", "round", "extra"):
            value = getattr(self, name)
            if type(value) is not int or value < 0:
                raise ConfigError(f"delay spike {name} must be an integer >= 0, got {value!r}")


def uniform_load(
    n: int,
    txs: int,
    start_round: int,
    end_round: int,
    seed: int,
    skew_p: float = 0.0,
) -> ClientSchedule:
    """Every transaction goes to every replica; per-replica arrival order is
    shuffled and, with probability skew_p, a replica sees a tx one round late
    (splitting its support across neighbouring subdags)."""
    rng = random.Random(f"{seed}:clients")
    rounds = list(range(start_round, end_round + 1))
    directives: list[ClientDirective] = []
    seq = 0
    per_round: dict[tuple[int, int], list[str]] = {}
    for t in range(txs):
        body = f"tx-{t:06d}"
        base = rounds[t * len(rounds) // txs]
        for rep in range(n):
            rnd = base + (1 if skew_p > 0 and rng.random() < skew_p else 0)
            per_round.setdefault((rep, rnd), []).append(body)
    for (rep, rnd) in sorted(per_round):
        bodies = per_round[(rep, rnd)]
        rng.shuffle(bodies)  # receive-order diversity across replicas
        for body in bodies:
            directives.append(ClientDirective(body, rep, rnd, seq))
            seq += 1
    return ClientSchedule(directives)


def random_crash_schedule(n: int, f: int, max_rounds: int, seed: int) -> FaultSchedule:
    """Crash a random number (0..f) of random replicas at random rounds."""
    rng = random.Random(f"{seed}:faults")
    count = rng.randint(0, f)
    replicas = rng.sample(range(n), count)
    return FaultSchedule(
        [FaultDirective(rep, SILENT_CRASH, rng.randint(2, max(3, max_rounds // 2)))
         for rep in sorted(replicas)]
    )

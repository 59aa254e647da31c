"""Output checks for one benchmark round, written apart from
``batchfair.oracle``: each is recomputed here from the run's trace events and
emitted orders, or is a property the method must have.

``check_round`` returns a list of problems, each prefixed with the name of
the check that found it; an empty list means the round is correct.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import ceil

import numpy as np


@dataclass
class RoundOutput:
    n: int
    gamma: Fraction
    injected: list[str]
    events: list[dict]  # the run trace's events
    faulty: set[int]  # replicas with a fault directive
    subdags: int
    inloop: list  # emitted FinalOrders of the simulation's own pipeline
    serial: list  # ... of a serial replay of the committed records
    concurrent: list  # ... of the concurrent replay
    verdicts: dict  # the program's own oracle verdicts
    dist_pair_counts: list[int] | None  # None when the workload has no Dist table


def streams(events: list[dict], n: int, kind: str) -> list[list[str]]:
    """Per replica, transactions in the order it received them
    (``tx_received``) or reported them in its vertices (``vertex_created``)."""
    out: list[list[str]] = [[] for _ in range(n)]
    for e in events:
        if e["ev"] != kind:
            continue
        if kind == "tx_received":
            out[e["replica"]].append(e["tx"])
        else:
            out[e["replica"]].extend(entry[1] for entry in e["entries"])
    return out


def batch_index(orders: list) -> dict[str, int]:
    """Global batch number of every transaction in a batch range."""
    index: dict[str, int] = {}
    k = 0
    for order in orders:
        for start, end in order.batches:
            for d in order.digests[start:end]:
                index[d] = k
            k += 1
    return index


def before_counts(orders: list[list[str]], txs: list[str]) -> np.ndarray:
    """counts[a, b] = how many of ``orders`` hold both txs[a] and txs[b],
    with txs[a] first."""
    t = len(txs)
    where = {d: i for i, d in enumerate(txs)}
    counts = np.zeros((t, t), dtype=np.int16)
    for order in orders:
        pos = np.full(t, -1, dtype=np.int64)
        for k, d in enumerate(order):
            i = where.get(d)
            if i is not None:
                pos[i] = k
        held = pos >= 0
        counts += (pos[:, None] < pos[None, :]) & held[:, None] & held[None, :]
    return counts


def _late(counts: np.ndarray, need: int, txs: list[str], batch: dict[str, int]):
    """Pairs that ``need`` orders put first but that were emitted in a later batch."""
    b = np.array([batch[d] for d in txs], dtype=np.int64)
    bad = np.argwhere((counts >= need) & (b[:, None] > b[None, :]))
    return [f"{txs[u][:12]}<{txs[v][:12]}" for u, v in bad[:3]], len(bad)


def check_exactly_once(out: RoundOutput) -> list[str]:
    seen = Counter(d for order in out.inloop for d in order.digests)
    problems = [f"{d[:12]} emitted {c} times" for d, c in seen.items() if c > 1][:3]
    missing = [d for d in out.injected if d not in seen]
    if missing:
        problems.append(f"{len(missing)} of {len(out.injected)} injected never emitted")
    extra = set(seen) - set(out.injected)
    if extra:
        problems.append(f"{len(extra)} emitted but never injected")
    return problems


def check_modes_agree(out: RoundOutput) -> list[str]:
    return [
        f"{mode} replay differs from the in-loop order"
        for mode, orders in (("serial", out.serial), ("concurrent", out.concurrent))
        if orders != out.inloop
    ]


def check_numbering(out: RoundOutput) -> list[str]:
    numbers = [order.r for order in out.inloop]
    if numbers != list(range(1, out.subdags + 1)):
        return [f"orders numbered {numbers[:5]}... for {out.subdags} committed subdags"]
    return []


def check_batches(out: RoundOutput) -> list[str]:
    problems = []
    for order in out.inloop:
        end = 0
        for start, stop in order.batches:
            run = order.digests[start:stop]
            if start != end or stop <= start:
                problems.append(f"order {order.r}: batch [{start},{stop}) after {end}")
            elif any(a >= b for a, b in zip(run, run[1:])):
                problems.append(f"order {order.r}: batch [{start},{stop}) not digest-sorted")
            end = stop
        if end != len(order.digests):
            problems.append(f"order {order.r}: batches cover {end} of {len(order.digests)}")
    return problems[:3]


def check_fairness(out: RoundOutput) -> list[str]:
    """gamma-batch-order-fairness: when ceil(gamma*n) replicas received u
    before v, u's batch is no later than v's."""
    batch = batch_index(out.inloop)
    txs = sorted(batch)
    counts = before_counts(streams(out.events, out.n, "tx_received"), txs)
    pairs, total = _late(counts, int(ceil(out.gamma * out.n)), txs, batch)
    return [f"{total} pairs emitted against the received order, e.g. {pairs}"] if total else []


def check_unanimous(out: RoundOutput) -> list[str]:
    """A pair all n replicas reported in one order is never emitted reversed."""
    batch = batch_index(out.inloop)
    txs = sorted(batch)
    counts = before_counts(streams(out.events, out.n, "vertex_created"), txs)
    pairs, total = _late(counts, out.n, txs, batch)
    return [f"{total} unanimous pairs emitted reversed, e.g. {pairs}"] if total else []


def check_dist_total(out: RoundOutput) -> list[str]:
    """The Dist buckets hold every pair reported by all n replicas and
    emitted, except pairs the correct replicas split evenly."""
    if out.dist_pair_counts is None:
        return []
    reported = streams(out.events, out.n, "vertex_created")
    batch = batch_index(out.inloop)
    everywhere = set.intersection(*(set(s) for s in reported))
    txs = sorted(d for d in everywhere if d in batch)
    received = streams(out.events, out.n, "tx_received")
    honest = before_counts([received[i] for i in range(out.n) if i not in out.faulty], txs)
    untied = int(np.count_nonzero(honest != honest.T)) // 2
    bucketed = sum(out.dist_pair_counts)
    return [f"Dist buckets hold {bucketed} pairs, {untied} untied"] if bucketed != untied else []


def check_verdicts(out: RoundOutput) -> list[str]:
    return [f"program verdict {k} failed" for k, ok in out.verdicts.items() if not ok]


CHECKS = {
    "exactly_once": check_exactly_once,
    "modes_agree": check_modes_agree,
    "numbering": check_numbering,
    "batches": check_batches,
    "fairness": check_fairness,
    "unanimous": check_unanimous,
    "dist_total": check_dist_total,
    "verdicts": check_verdicts,
}


def check_round(out: RoundOutput) -> list[str]:
    return [f"{name}: {p}" for name, check in CHECKS.items() for p in check(out)]

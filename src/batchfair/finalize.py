"""Vote routing, missing-edge resolution, linearization, and the Emit gate.

Phase 3 (graph.py) linearizes every subdag with no missing pair. A graph with
missing pairs is parked with a running tally of the FairUpdate votes carried
by later committed subdags. A vote counts only if its target is parked when
the record carrying it lands; each author's first vote is added once, in
arrival order, and the tally stops at the first author count from n-f up at
which every missing pair has a direction at tau_i. apply_fair_update
installs those directions and finalize_order linearizes the augmented
graph's SCCs. Emit drains completed orders strictly in subdag commit order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import DepGraph, linearize, scc_positions
from .types import CommitRecord, FairUpdateVote, FinalOrder


@dataclass
class Tally:
    """A parked graph and the running tally of the ``authors`` counted so
    far: ``counts[(u, v)]`` (u < v, per missing pair) holds the u->v and v->u
    votes, and ``short`` counts the pairs below tau_i in both directions."""

    graph: DepGraph
    counts: dict[tuple[str, str], list[int]]
    short: int
    authors: set[int] = field(default_factory=set)


@dataclass
class ParkedStore:
    """Per-replica finalization state (Algorithm-3 shape).

    A parked subdag resolves once ``need`` (n-f) distinct authors have voted
    and each missing pair has ``tau_i`` votes in some direction."""

    need: int
    tau_i: int
    parked: dict[int, Tally] = field(default_factory=dict)
    ready: dict[int, FinalOrder] = field(default_factory=dict)
    next: int = 1


def _sufficient(store: ParkedStore, tally: Tally) -> bool:
    return len(tally.authors) >= store.need and not tally.short


def _add(store: ParkedStore, tally: Tally, vote: FairUpdateVote) -> bool:
    """Count one more author's vote, ignoring edges outside the missing set;
    True once the tally is sufficient."""
    tau_i = store.tau_i
    for u, v in vote.edges:
        pair, side = ((u, v), 0) if u <= v else ((v, u), 1)
        slot = tally.counts.get(pair)
        if slot is not None:
            slot[side] += 1
            if slot[side] == tau_i and slot[1 - side] < tau_i:
                tally.short -= 1
    tally.authors.add(vote.author)
    return _sufficient(store, tally)


def park(store: ParkedStore, graph: DepGraph) -> None:
    """Park a graph with missing pairs under an empty tally."""
    counts = {pair: [0, 0] for pair in graph.missing}
    store.parked[graph.r] = Tally(graph, counts, len(graph.missing))


def route_votes(store: ParkedStore, record: CommitRecord) -> list[int]:
    """Tally a landing subdag's votes; first vote per (author, target) wins.

    A vote counts only if its target is parked: votes for a finalized
    subdag, or for one that has not landed (which no honest worker casts,
    since FairPropose goes out when its subdag lands), are dropped, and a
    sufficient tally takes no further vote. Returns, ascending, the parked
    subdag ids whose tally became sufficient.
    """
    ready = []
    for vote in record.votes():
        tally = store.parked.get(vote.target_r)
        if tally is None or vote.author in tally.authors or _sufficient(store, tally):
            continue
        if _add(store, tally, vote):
            ready.append(vote.target_r)
    return sorted(ready)


def apply_fair_update(store: ParkedStore, r: int) -> FinalOrder | None:
    """Resolve a parked subdag from a sufficient tally (None while it is not).

    Ties at or above tau_i resolve toward the smaller-digest source, as in
    phase 2.
    """
    tally = store.parked.get(r)
    if tally is None:
        raise ValueError(f"subdag {r} is not parked")
    if not _sufficient(store, tally):
        return None
    graph = tally.graph
    idx = {d: i for i, d in enumerate(graph.nodes)}
    for (u, v), (wuv, wvu) in tally.counts.items():
        # u < v by construction, so a tie installs the smaller-digest source
        a, b = (u, v) if wuv >= wvu else (v, u)
        graph.adj[idx[a], idx[b]] = True
    graph.missing = []
    order = finalize_order(graph)
    del store.parked[r]
    mark_ready(store, order)
    return order


def finalize_order(graph: DepGraph) -> FinalOrder:
    """Linearize a parked graph once votes have installed its missing edges.

    The added edges can merge SCCs, so they are recomputed and canonically
    ordered before linearization.
    """
    assert not graph.missing, "finalize requires all pairs resolved"
    return linearize(graph.r, graph.nodes, scc_positions(graph.adj))


def mark_ready(store: ParkedStore, order: FinalOrder) -> None:
    store.ready[order.r] = order


def emit(store: ParkedStore) -> list[FinalOrder]:
    """Serialization point: drain ready orders in consecutive subdag order."""
    out: list[FinalOrder] = []
    while store.next in store.ready:
        out.append(store.ready.pop(store.next))
        store.next += 1
    return out

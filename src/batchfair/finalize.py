"""Vote routing, missing-edge resolution, linearization, and the Emit gate.

Phase 3 (graph.py) linearizes every subdag with no missing pair. A graph with
missing pairs is parked with a running tally of the FairUpdate votes carried
by later committed subdags: each author's first vote is added once, in
arrival order (votes that arrive before their target parks are added when it
parks), and the tally stops at the first author count from n-f up at which
every missing pair has a direction at tau_i. apply_fair_update installs
those directions and finalize_order linearizes the augmented graph's SCCs.
Emit drains completed orders strictly in subdag commit order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import DepGraph, condensation_order, linearize, tarjan_scc
from .types import CommitRecord, FinalOrder


@dataclass
class Tally:
    """A parked graph and the running tally of its first ``votes`` authors:
    ``counts[(u, v)]`` (u < v, per missing pair) holds the u->v and v->u
    votes, and ``short`` counts the pairs below tau_i in both directions."""

    graph: DepGraph
    counts: dict[tuple[str, str], list[int]]
    short: int
    votes: int = 0


@dataclass
class ParkedStore:
    """Per-replica finalization state (Algorithm-3 shape).

    A parked subdag resolves once ``need`` (n-f) distinct authors have voted
    and each missing pair has ``tau_i`` votes in some direction. ``votes``
    holds each target's first vote per author, in arrival order."""

    need: int
    tau_i: int
    parked: dict[int, Tally] = field(default_factory=dict)
    votes: dict[int, dict[int, tuple[tuple[str, str], ...]]] = field(default_factory=dict)
    ready: dict[int, FinalOrder] = field(default_factory=dict)
    next: int = 1


def _sufficient(store: ParkedStore, tally: Tally) -> bool:
    return tally.votes >= store.need and not tally.short


def _add(store: ParkedStore, tally: Tally, edges: tuple[tuple[str, str], ...]) -> bool:
    """Count one more author's vote, ignoring edges outside the missing set;
    True once the tally is sufficient."""
    tau_i = store.tau_i
    for u, v in edges:
        pair, side = ((u, v), 0) if u <= v else ((v, u), 1)
        slot = tally.counts.get(pair)
        if slot is not None:
            slot[side] += 1
            if slot[side] == tau_i and slot[1 - side] < tau_i:
                tally.short -= 1
    tally.votes += 1
    return _sufficient(store, tally)


def park(store: ParkedStore, graph: DepGraph) -> bool:
    """Park a graph with missing pairs and count the votes already buffered
    for it, in arrival order; True when they suffice to resolve it."""
    tally = Tally(graph, {pair: [0, 0] for pair in graph.missing}, len(graph.missing))
    store.parked[graph.r] = tally
    return any(_add(store, tally, edges) for edges in store.votes.get(graph.r, {}).values())


def route_votes(store: ParkedStore, record: CommitRecord) -> list[int]:
    """Record a committed subdag's votes; first vote per (author, target) wins.

    Votes targeting already-finalized subdags (emitted, or ready to emit)
    are dropped, and so are votes for a subdag not committed before the
    record that carries them, which no honest worker casts; a sufficient
    tally takes no further vote. Votes for a committed subdag that is not
    parked yet are buffered. Returns, ascending, the parked subdag ids whose
    tally became sufficient.
    """
    ready = []
    for vote in record.votes():
        r = vote.target_r
        if r >= record.r or r < store.next or r in store.ready:
            continue
        by_author = store.votes.setdefault(r, {})
        tally = store.parked.get(r)
        if vote.author in by_author or (tally is not None and _sufficient(store, tally)):
            continue
        by_author[vote.author] = vote.edges
        if tally is not None and _add(store, tally, vote.edges):
            ready.append(r)
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
    sccs = condensation_order(tarjan_scc(graph.adj), graph.adj)
    return linearize(graph.r, graph.nodes, sccs)


def mark_ready(store: ParkedStore, order: FinalOrder) -> None:
    store.ready[order.r] = order
    store.votes.pop(order.r, None)


def emit(store: ParkedStore) -> list[FinalOrder]:
    """Serialization point: drain ready orders in consecutive subdag order."""
    out: list[FinalOrder] = []
    while store.next in store.ready:
        out.append(store.ready.pop(store.next))
        store.next += 1
    return out

"""Vote routing, missing-edge resolution, linearization, and the Emit gate.

Phase 3 (graph.py) linearizes every subdag with no missing pair. Parked
graphs accumulate FairUpdate votes extracted from later committed subdags.
Once votes from n-f distinct authors are in, missing edges are tallied and
installed; finalize_order then linearizes the augmented graph's SCCs. Emit
drains completed orders strictly in subdag commit order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import DepGraph, condensation_order, count_threshold, linearize, tarjan_scc
from .types import CommitRecord, FinalOrder


@dataclass
class ParkedStore:
    """Per-replica finalization state (Algorithm-3 shape)."""

    parked: dict[int, DepGraph] = field(default_factory=dict)
    votes: dict[int, dict[int, tuple[tuple[str, str], ...]]] = field(default_factory=dict)
    ready: dict[int, FinalOrder] = field(default_factory=dict)
    next: int = 1
    diagnostics: list[dict] = field(default_factory=list)


def route_votes(store: ParkedStore, record: CommitRecord, n: int, f: int) -> list[int]:
    """Record a committed subdag's votes; first vote per (author, target) wins.

    Votes targeting already-finalized subdags (emitted, or ready to emit)
    are dropped. Returns the parked subdag ids whose distinct-author count
    has reached n-f.
    """
    for vote in record.votes():
        if vote.target_r < store.next or vote.target_r in store.ready:
            continue
        by_author = store.votes.setdefault(vote.target_r, {})
        if vote.author not in by_author:
            by_author[vote.author] = vote.edges
    need = n - f
    return sorted(
        r for r, by_author in store.votes.items()
        if r in store.parked and len(by_author) >= need
    )


def _tally(
    missing: list[tuple[str, str]],
    edge_lists: list[tuple[tuple[str, str], ...]],
) -> dict[tuple[str, str], tuple[int, int]]:
    counts = {pair: [0, 0] for pair in missing}
    for edges in edge_lists:
        for u, v in edges:
            pair = (u, v) if u <= v else (v, u)
            slot = counts.get(pair)
            if slot is not None:
                slot[0 if (u, v) == pair else 1] += 1
    return {p: (c[0], c[1]) for p, c in counts.items()}


def apply_fair_update(store: ParkedStore, r: int, tau, n: int, f: int) -> FinalOrder | None:
    """Resolve a parked subdag's missing edges from accumulated votes.

    Tallies the first n-f distinct authors in vote arrival order; while any
    pair stays below tau in both directions, waits for further authors (up to
    n), surfacing a diagnostic instead of forcing a direction. Ties at or
    above tau resolve toward the smaller-digest source, matching phase 2.
    """
    graph = store.parked.get(r)
    if graph is None:
        raise ValueError(f"subdag {r} is not parked")
    by_author = store.votes.get(r, {})
    need = n - f
    authors = list(by_author)  # insertion order = vote commit order
    if len(authors) < need:
        return None
    tau_i = count_threshold(tau)
    chosen = None
    for k in range(need, len(authors) + 1):
        tallies = _tally(graph.missing, [by_author[a] for a in authors[:k]])
        if all(max(c) >= tau_i for c in tallies.values()):
            chosen = tallies
            break
    if chosen is None:
        store.diagnostics.append(
            {
                "r": r,
                "votes": len(authors),
                "unresolved": [
                    list(p) for p, c in tallies.items() if max(c) < tau_i
                ],
            }
        )
        return None
    idx = {d: i for i, d in enumerate(graph.nodes)}
    for (u, v), (wuv, wvu) in chosen.items():
        # u < v by construction, so a tie installs the smaller-digest source
        if wuv >= wvu:
            graph.adj[idx[u], idx[v]] = True
        else:
            graph.adj[idx[v], idx[u]] = True
    graph.missing = []
    order = finalize_order(graph)
    del store.parked[r]
    store.votes.pop(r, None)
    store.ready[r] = order
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

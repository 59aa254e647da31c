"""Minimal models of the two prior DAG fairness layers, with their liveness
bugs reproduced and patched.

The first model covers the post-consensus weight-update fragment whose
incremental loop only counts ordering indicators arriving in the current
subdag; indicators deposited while a transaction was still blank are lost
unless the patched catch-up pass scans the full indicator vectors on
promotion. The second is the pre-consensus missing-edge weight store whose
two accumulation mechanisms can never fire for pairs split across rounds,
freezing weights below threshold; the patch resolves such pairs explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil

import numpy as np

from .graph import count_threshold, linearize, scc_positions
from .params import edge_threshold, solid_threshold


def _pair(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


# -- model 1: indicator-vector weight layer (FairDAG-RL-style) -------------------


@dataclass
class WeightGraph:
    r: int
    nodes: list[str] = field(default_factory=list)
    weights: dict[tuple[str, str], int] = field(default_factory=dict)  # directed
    edges: dict[tuple[str, str], tuple[str, str]] = field(default_factory=dict)
    finalized_order: list[str] | None = None


class FairDagModel:
    """Fragment: classification thresholds, weight loop, tournament test."""

    def __init__(self, n: int, f: int, patched: bool):
        self.n = n
        self.f = f
        self.patched = patched
        self.shaded_threshold = ceil((n - f) / 2)
        self.solid_threshold = n - f
        self.committed_ois: dict[str, dict[int, tuple[int, int]]] = {}
        self.graphs: list[WeightGraph] = []
        self.node_graph: dict[str, WeightGraph] = {}
        self.counted: set[tuple[int, int, tuple[str, str]]] = set()
        self.finalizations: list[tuple[int, int, list[str]]] = []  # (graph r, at subdag, order)
        self.subdags_processed = 0

    def weight(self, u: str, v: str) -> int:
        g = self.node_graph.get(u)
        if g is None or self.node_graph.get(v) is not g:
            return 0
        return g.weights.get((u, v), 0)

    def _count(self, g: WeightGraph, replica: int, d: str, e: str) -> None:
        key = (g.r, replica, _pair(d, e))
        if key in self.counted:
            return
        od = self.committed_ois[d].get(replica)
        oe = self.committed_ois[e].get(replica)
        if od is None or oe is None:
            return
        self.counted.add(key)
        if od < oe:
            g.weights[(d, e)] = g.weights.get((d, e), 0) + 1
        else:
            g.weights[(e, d)] = g.weights.get((e, d), 0) + 1

    def _refresh_edges(self, g: WeightGraph) -> None:
        for u in g.nodes:
            for v in g.nodes:
                if u >= v:
                    continue
                pair = (u, v)
                if pair in g.edges:
                    continue
                wuv = g.weights.get((u, v), 0)
                wvu = g.weights.get((v, u), 0)
                if wuv >= self.shaded_threshold and wuv >= wvu:
                    g.edges[pair] = (u, v)
                elif wvu >= self.shaded_threshold:
                    g.edges[pair] = (v, u)

    def _is_tournament(self, g: WeightGraph) -> bool:
        want = len(g.nodes) * (len(g.nodes) - 1) // 2
        return len(g.nodes) > 0 and len(g.edges) == want

    def _finalize(self, g: WeightGraph, at_subdag: int) -> None:
        nodes = sorted(g.nodes)
        idx = {d: i for i, d in enumerate(nodes)}
        adj = np.zeros((len(nodes), len(nodes)), dtype=bool)
        for u, v in g.edges.values():
            adj[idx[u], idx[v]] = True
        order = list(linearize(g.r, nodes, scc_positions(adj)).digests)
        g.finalized_order = order
        self.finalizations.append((g.r, at_subdag, order))

    def process_subdag(self, contributions: dict[int, list[tuple[str, int]]]) -> None:
        """One committed subdag: per-replica lists of (digest, ordering indicator)."""
        self.subdags_processed += 1
        r = self.subdags_processed
        # record indicators (slot written at most once per digest/replica)
        for replica in sorted(contributions):
            for digest, oi in contributions[replica]:
                slots = self.committed_ois.setdefault(digest, {})
                slots.setdefault(replica, (r, oi))
        # classification: promote newly non-blank digests into this subdag's graph
        listed = sorted(
            {d for lst in contributions.values() for d, _ in lst}
        )
        promoted = [
            d for d in listed
            if d not in self.node_graph
            and len(self.committed_ois[d]) >= self.shaded_threshold
        ]
        graph = None
        if promoted:
            graph = WeightGraph(r)
            self.graphs.append(graph)
            for d in promoted:
                if self.patched:
                    # catch-up pass: scan the full indicator vectors of the
                    # new node against every node already in the graph
                    for e in graph.nodes:
                        for replica in sorted(self.committed_ois[d]):
                            self._count(graph, replica, d, e)
                graph.nodes.append(d)
                self.node_graph[d] = graph
        # incremental weight loop: fires only for digests listed in the
        # current subdag that already belong to a graph (the unpatched gap)
        for replica in sorted(contributions):
            for digest, _oi in contributions[replica]:
                g = self.node_graph.get(digest)
                if g is None:
                    continue
                for e in g.nodes:
                    if e != digest:
                        self._count(g, replica, digest, e)
        for g in self.graphs:
            if g.finalized_order is None:
                self._refresh_edges(g)
                if self._is_tournament(g):
                    self._finalize(g, r)

    def run_heartbeats(self, rounds: int) -> None:
        for _ in range(rounds):
            self.process_subdag({})

    @property
    def stalled(self) -> bool:
        return any(g.finalized_order is None for g in self.graphs)


# -- model 2: pre-consensus missing-edge weight store (DoD-style) ------------------


@dataclass
class MissingPair:
    pair: tuple[str, str]
    w: dict[tuple[str, str], int]
    created_round: int
    resolved: tuple[str, str] | None = None


@dataclass
class DodReport:
    missing: dict[tuple[str, str], MissingPair]
    queue: list[int]  # stalled round ids, in order
    executed: list[int]
    mechanism1_fired: int
    mechanism2_fired: int
    resolutions: list[dict]

    @property
    def stalled(self) -> bool:
        return bool(self.queue)


class DodModel:
    """Scripted weight-store state machine over per-round local orders."""

    def __init__(self, n: int, f: int, gamma, patched: bool):
        self.n = n
        self.f = f
        self.patched = patched
        self.edge_threshold = count_threshold(edge_threshold(n, f, gamma))  # parses gamma exactly
        self.solid_threshold = solid_threshold(n, f)

    def run(self, rounds: dict[int, dict[int, list[str]]]) -> DodReport:
        """rounds: round id -> replica -> local order (crashed replicas absent).

        Earlier rounds' local orders are history only; each transaction enters
        exactly one round's global ordering (the round where it reaches the
        solid threshold across the collected quorum).
        """
        missing: dict[tuple[str, str], MissingPair] = {}
        queue: list[int] = []
        executed: list[int] = []
        mech1 = 0
        mech2 = 0
        resolutions: list[dict] = []
        seen_in_graph: set[str] = set()
        # per-replica full local history (for explicit resolution)
        history: dict[int, list[str]] = {}
        for rnd in sorted(rounds):
            for rep in sorted(rounds[rnd]):
                for d in rounds[rnd][rep]:
                    history.setdefault(rep, []).append(d)

        for rnd in sorted(rounds):
            locals_ = rounds[rnd]
            support: dict[str, int] = {}
            for rep in sorted(locals_):
                for d in locals_[rep]:
                    support[d] = support.get(d, 0) + 1
            graph_nodes = sorted(
                d for d, c in support.items()
                if c >= self.solid_threshold and d not in seen_in_graph
            )
            seen_in_graph.update(graph_nodes)
            # mechanism 2 (buggy accumulation): both members of a tracked pair
            # reappearing in a future round's graph would boost the weight
            for mp in missing.values():
                u, v = mp.pair
                if mp.resolved is None and u in graph_nodes and v in graph_nodes:
                    mech2 += 1
                    mp.w[(u, v)] += 1
                    mp.w[(v, u)] += 1
            round_missing = []
            for i, u in enumerate(graph_nodes):
                for v in graph_nodes[i + 1 :]:
                    both = [
                        rep for rep in sorted(locals_)
                        if u in locals_[rep] and v in locals_[rep]
                    ]
                    wuv = sum(1 for rep in both if locals_[rep].index(u) < locals_[rep].index(v))
                    wvu = len(both) - wuv
                    if max(wuv, wvu) >= self.edge_threshold and wuv != wvu:
                        continue  # edge added directly, nothing to track
                    pair = (u, v)
                    if pair not in missing:
                        missing[pair] = MissingPair(pair, {(u, v): wuv, (v, u): wvu}, rnd)
                    round_missing.append(pair)
            if self.patched and round_missing:
                # explicit resolution: every replica that has observed both
                # endpoints broadcasts the direction from its full local history
                for pair in round_missing:
                    u, v = pair
                    tally = {(u, v): 0, (v, u): 0}
                    for rep in sorted(history):
                        h = history[rep]
                        if u in h and v in h:
                            if h.index(u) < h.index(v):
                                tally[(u, v)] += 1
                            else:
                                tally[(v, u)] += 1
                    best = max(tally.values())
                    if best >= self.edge_threshold:
                        # tie resolves toward the smaller-digest source
                        direction = (u, v) if tally[(u, v)] >= tally[(v, u)] else (v, u)
                        missing[pair].resolved = direction
                        resolutions.append(
                            {"round": rnd, "pair": list(pair), "direction": list(direction),
                             "tally": {str(k): t for k, t in tally.items()}}
                        )
            unresolved = [p for p, mp in missing.items()
                          if mp.resolved is None and max(mp.w.values()) < self.edge_threshold]
            if graph_nodes:
                if unresolved or queue:
                    queue.append(rnd)  # stalls behind the first blocked graph
                else:
                    executed.append(rnd)
        return DodReport(missing, queue, executed, mech1, mech2, resolutions)

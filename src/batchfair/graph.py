"""Per-subdag dependency-graph construction: phases 1-3 of the fairness task.

Snapshot extraction decides a subdag's support classes, once: it counts how
many authors list each unclaimed pending digest, admits those at tau_i,
marks those at tau_s solid, and passes each author's admitted contributions
on as integer indices into the admitted list. Phase 1, the dominant cost, is
then an integer kernel that counts the pairwise weight matrix from those
index orders (a pure function of the snapshot). Phase 2 drops the admitted
transactions that an earlier subdag already retained (``CumulativeState.proposed``)
and turns the weights into a k x k boolean adjacency matrix. Phase 3
decomposes it into SCCs and truncates past the anchor. When no retained pair
is missing, phase 3 also linearizes the retained SCCs into the subdag's final
order; otherwise it returns the truncated graph, which the coordinator
(pipeline.py) parks until votes resolve its missing edges.

Phase 1 is the step a process pool runs (``weight_counts``), so what
crosses the process boundary is small: the admitted count and index lists
in, a flat ``array('I')`` out, which pickles as raw bytes (the workers build
no ndarray and see no digest). The counts land in ``Snapshot.weights``, and
phase 2 views them as an m x m matrix without copying, cutting edges at
``CumulativeState.tau_i``, the one integer threshold that admission and
the vote tally use too. From phase 2 on, ``DepGraph.adj`` is a boolean
ndarray whose vertices ascend by digest.

Two mechanisms keep concurrent per-subdag tasks single-graph-safe: solid
claims recorded synchronously at snapshot extraction, and phase 2's filter
against everything earlier subdags retained, applied in commit order.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import ceil

import numpy as np

from .params import edge_threshold, solid_threshold
from .types import CommitRecord, FinalOrder


def count_threshold(tau) -> int:
    """Smallest integer count satisfying count >= tau (tau may be fractional)."""
    return int(ceil(Fraction(tau)))


@dataclass
class Snapshot:
    """One subdag's phase-1 input, classified once at extraction.

    ``admitted`` holds the digests with support >= tau_i, ascending; ``solid``
    those among them with support >= tau_s. ``orders`` maps each author to
    its unclaimed admitted contributions, in contribution order, as indices
    into ``admitted``. Phase 1 fills ``weights``: weights[i*m + j] is the
    number of orders placing admitted[i] before admitted[j].
    """

    r: int
    admitted: list[str]
    solid: frozenset[str]
    orders: dict[int, list[int]]
    weights: array | None = None


@dataclass
class DepGraph:
    """Dependency graph for one subdag: adj[i, j] is the edge nodes[i] -> nodes[j]."""

    r: int
    nodes: list[str]  # sorted by digest
    adj: np.ndarray  # k x k bool
    missing: list[tuple[str, str]]  # (smaller, larger digest), row-major
    solid: np.ndarray  # bool per node; read by phase 3


class CumulativeState:
    """Main-thread cumulative ordering state shared across subdag tasks.

    ``pending[author]`` is an ordered set (a dict of None) of the author's
    contributions, first listing first. A digest leaves it only in
    apply_result, which adds it to ``proposed``; ingestion skips what is in
    either. Mutated only by extract_snapshot and apply_result, which run
    serially in commit order. ``tau_i`` is the integer edge threshold that
    admission, phase 2 and the vote tally all use.
    """

    def __init__(self, n: int, f: int, gamma) -> None:
        self.tau_i = count_threshold(edge_threshold(n, f, gamma))
        self.tau_s = solid_threshold(n, f)
        self.pending: dict[int, dict[str, None]] = {}
        self.proposed: set[str] = set()
        self.claims: dict[int, frozenset[str]] = {}
        self.last_extracted = 0
        self.last_applied = 0

    def _ingest(self, record: CommitRecord) -> None:
        for vr in record.vertices:
            plist = self.pending.setdefault(vr.author, {})
            for digest, _loi in vr.entries:
                if digest not in self.proposed:
                    plist.setdefault(digest)


def classify(r: int, orders: dict[int, list[str]], tau_i: int, tau_s: int) -> Snapshot:
    """Count support once (one per author listing a digest) and cut the
    snapshot: admitted at tau_i, solid at tau_s, orders as admitted indices."""
    support = Counter(chain.from_iterable(orders.values()))
    admitted = sorted(d for d, c in support.items() if c >= tau_i)
    solid = frozenset(d for d in admitted if support[d] >= tau_s)
    idx = {d: i for i, d in enumerate(admitted)}
    indexed = {}
    for author, order in orders.items():
        fi = [idx[d] for d in order if d in idx]
        if fi:
            indexed[author] = fi
    return Snapshot(r, admitted, solid, indexed)


def extract_snapshot(state: CumulativeState, record: CommitRecord) -> Snapshot:
    """Synchronous main-thread step: ingest a committed subdag and cut L_i.

    The snapshot excludes permanently proposed transactions and every active
    solid claim; the snapshot's own solid set is recorded as this subdag's
    claim before the task is dispatched.
    """
    if record.r != state.last_extracted + 1:
        raise ValueError(
            f"subdag {record.r} extracted out of order (expected {state.last_extracted + 1})"
        )
    state.last_extracted = record.r
    state._ingest(record)
    claimed = set().union(*state.claims.values())
    orders = {
        author: [d for d in plist if d not in claimed]
        for author, plist in sorted(state.pending.items())
    }
    snap = classify(record.r, orders, state.tau_i, state.tau_s)
    state.claims[record.r] = snap.solid
    return snap


def apply_result(state: CumulativeState, r: int, k_set: list[str]) -> None:
    """Promote a finished task's retained vertices and drop its claim."""
    if r != state.last_applied + 1:
        raise ValueError(
            f"result for subdag {r} applied out of order (expected {state.last_applied + 1})"
        )
    state.last_applied = r
    state.proposed.update(k_set)
    for plist in state.pending.values():
        for d in k_set:
            plist.pop(d, None)
    state.claims.pop(r, None)


# -- Phase 1 ------------------------------------------------------------------


def weight_counts(m: int, orders: dict[int, list[int]]) -> array:
    """The integer kernel: flat m*m pair counts over index orders."""
    weights = array("I", bytes(4 * m * m))
    for fi in orders.values():
        for a, i in enumerate(fi):
            base = i * m
            for j in fi[a + 1:]:
                weights[base + j] += 1
    return weights


def phase1_weights(snapshot: Snapshot) -> Snapshot:
    """Fill a snapshot's pairwise weight matrix and return the snapshot.

    The counts are a pure function of the snapshot: no shared-state reads,
    rerunnable.
    """
    snapshot.weights = weight_counts(len(snapshot.admitted), snapshot.orders)
    return snapshot


# -- Phase 2 ------------------------------------------------------------------


def phase2_build_graph(snap: Snapshot, proposed, tau_i: int) -> DepGraph:
    """Drop what earlier subdags retained, then add edges from cached weights.

    ``proposed`` is ``CumulativeState.proposed``, every digest retained by an
    earlier subdag, and ``tau_i`` is ``CumulativeState.tau_i``. An edge is
    installed toward the direction whose cached weight reaches tau_i; at an
    exact tie the smaller digest (the smaller index) is the source. Pairs
    below tau_i in both directions become missing edges, listed row-major.
    """
    m = len(snap.admitted)
    kept = [i for i, d in enumerate(snap.admitted) if d not in proposed]
    nodes = [snap.admitted[i] for i in kept]
    w = np.asarray(snap.weights).reshape(m, m)[np.ix_(kept, kept)]
    decided = (w >= tau_i) | (w.T >= tau_i)
    adj = decided & ((w > w.T) | np.triu(w == w.T, 1))
    rows, cols = np.nonzero(np.triu(~decided, 1))
    missing = [(nodes[a], nodes[b]) for a, b in zip(rows.tolist(), cols.tolist())]
    solid = np.array([d in snap.solid for d in nodes], dtype=bool)
    return DepGraph(snap.r, nodes, adj, missing, solid)


# -- SCC machinery -------------------------------------------------------------


def _successors(adj: np.ndarray) -> list[list[int]]:
    """Out-neighbour lists of a boolean adjacency matrix, each ascending."""
    cols = (np.flatnonzero(adj) % len(adj)).tolist()
    ends = np.cumsum(np.count_nonzero(adj, axis=1)).tolist()
    return [cols[s:e] for s, e in zip([0, *ends], ends)]


def tarjan_scc(adj: np.ndarray) -> list[list[int]]:
    """Iterative Tarjan; returns SCCs (sorted index lists) in a valid
    topological order.

    Deterministic: roots and successors are visited in index order.
    """
    succ = _successors(adj)
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            neighbors = succ[v]
            for i in range(pi, len(neighbors)):
                w = neighbors[i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            if low[v] == index[v]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    scc.append(w)
                    if w == v:
                        break
                scc.sort()
                sccs.append(scc)
            work.pop()
            if work:
                u, _ = work[-1]
                if low[v] < low[u]:
                    low[u] = low[v]
    sccs.reverse()  # Tarjan emits in reverse topological order
    return sccs


def condensation_order(sccs: list[list[int]], adj: np.ndarray) -> list[list[int]]:
    """Canonical topological order of the condensation.

    Kahn's algorithm, ties broken by the smallest member index, which is the
    smallest member digest because vertices ascend by digest. The anchor
    truncation rule depends on which valid topological order is used, so this
    canonical rule is part of the protocol, not an implementation detail.
    """
    import heapq

    if not sccs:
        return []
    # group rows and columns by SCC, then OR each block into one DAG cell
    members = [v for scc in sccs for v in scc]
    starts = np.cumsum([0, *(len(scc) for scc in sccs[:-1])])
    dag = np.logical_or.reduceat(adj[np.ix_(members, members)], starts, axis=0)
    dag = np.logical_or.reduceat(dag, starts, axis=1)
    np.fill_diagonal(dag, False)
    out_edges = _successors(dag)
    indeg = np.count_nonzero(dag, axis=0).tolist()
    keys = [min(scc) for scc in sccs]
    ready = [(keys[i], i) for i in range(len(sccs)) if indeg[i] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        _, i = heapq.heappop(ready)
        order.append(i)
        for b in out_edges[i]:
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(ready, (keys[b], b))
    assert len(order) == len(sccs), "condensation contained a cycle"
    return [sccs[i] for i in order]


def linearize(r: int, nodes: list[str], sccs: list[list[int]]) -> FinalOrder:
    """Emit each SCC, in the given order, as one contiguous batch sorted by
    transaction digest."""
    digests: list[str] = []
    batches: list[tuple[int, int]] = []
    for scc in sccs:
        start = len(digests)
        digests.extend(sorted(nodes[v] for v in scc))
        batches.append((start, len(digests)))
    return FinalOrder(r, tuple(digests), tuple(batches))


# -- Phase 3 ------------------------------------------------------------------


def phase3_anchor(graph: DepGraph) -> tuple[FinalOrder | DepGraph, int, list[str]]:
    """SCC decomposition and anchor truncation.

    The anchor is the last SCC (canonical condensation order) containing a
    solid vertex; everything after it returns to pending. With no solid vertex
    nothing is retained.

    Returns the subdag's FinalOrder when no retained pair is missing (the
    retained SCCs are a predecessor-closed prefix of the canonical order, so
    they already are the truncated graph's final order), else the truncated
    graph to park; then the anchor and the retained digests.
    """
    sccs = condensation_order(tarjan_scc(graph.adj), graph.adj)
    solid = graph.solid.tolist()
    anchor = 0
    for j, scc in enumerate(sccs, 1):
        if any(solid[v] for v in scc):
            anchor = j
    retained = sorted(v for scc in sccs[:anchor] for v in scc)
    nodes = [graph.nodes[v] for v in retained]
    kept_set = set(nodes)
    missing = [(u, v) for u, v in graph.missing if u in kept_set and v in kept_set]
    if not missing:
        return linearize(graph.r, graph.nodes, sccs[:anchor]), anchor, nodes
    truncated = DepGraph(
        graph.r, nodes, graph.adj[np.ix_(retained, retained)], missing, graph.solid[retained]
    )
    return truncated, anchor, nodes

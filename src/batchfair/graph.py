"""Per-subdag dependency-graph construction: phases 1-3 of the fairness task.

Snapshot extraction decides a subdag's support classes, once: it counts how
many authors list each pending digest, admits those at tau_i, marks those at
tau_s solid (a bool mask over the admitted list), and passes each author's
admitted contributions on as integer indices into the admitted list. Phase 1
then counts the pairwise weight matrix from those index orders with one
broadcast comparison per block of authors, and phase 2 turns the weights
into a k x k boolean adjacency matrix over the admitted digests: both are
pure functions of the snapshot. Phase 3 gives each vertex its SCC's
canonical position (``scc_positions``), each BFS level of its
forward-backward search one vector-matrix product, and truncates past the
anchor. When no retained pair is missing, phase 3 also linearizes the
retained SCCs into the subdag's final order; otherwise it returns the
truncated graph, which the coordinator (pipeline.py) parks until votes
resolve its missing edges.

Phase 1 is the step a process pool runs (``weight_counts``): the admitted
count and index lists in, the m x m count matrix out, in the smallest
unsigned dtype that holds the author count (the workers see no digest).
Phase 2 cuts edges at ``CumulativeState.tau_i``, the one integer threshold
that admission and the vote tally use too. From phase 2 on, ``DepGraph.adj``
is a boolean ndarray whose vertices ascend by digest.

A retained digest leaves ``pending`` when its subdag lands, and ingestion
skips it from then on, so a snapshot extracted after every earlier subdag
landed admits nothing an earlier subdag retained. Only a driver that
extracts ahead of landings (``FairnessPipeline.replay_concurrent``) needs
more: it keeps the solid digests of its in-flight snapshots out of later
snapshots (``claimed``), and at each landing cuts what subdags that landed
after the extraction retained (``drop_retained``).
"""

from __future__ import annotations

import heapq
from collections import Counter
from collections.abc import Iterable
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

    ``admitted`` holds the digests with support >= tau_i, ascending;
    ``solid[i]`` is whether admitted[i]'s support reaches tau_s. ``orders``
    maps each author to its admitted contributions, in contribution order,
    as indices into ``admitted``. Phase 1 fills ``weights``: weights[i, j]
    is the number of orders placing admitted[i] before admitted[j].
    """

    r: int
    admitted: list[str]
    solid: np.ndarray  # bool per admitted digest
    orders: dict[int, list[int]]
    weights: np.ndarray | None = None


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
        self.last_extracted = 0
        self.last_applied = 0

    def _ingest(self, record: CommitRecord) -> None:
        for vr in record.vertices:
            plist = self.pending.setdefault(vr.author, {})
            for _kind, digest, _loi in vr.entries:
                if digest not in self.proposed:
                    plist.setdefault(digest)


def classify(r: int, orders: dict[int, Iterable[str]], tau_i: int, tau_s: int) -> Snapshot:
    """Count support once (one per author listing a digest) and cut the
    snapshot: admitted at tau_i, solid at tau_s, orders as admitted indices."""
    support = Counter(chain.from_iterable(orders.values()))
    admitted = sorted(d for d, c in support.items() if c >= tau_i)
    solid = np.array([support[d] >= tau_s for d in admitted], dtype=bool)
    idx = {d: i for i, d in enumerate(admitted)}
    indexed = {}
    for author, order in orders.items():
        fi = [idx[d] for d in order if d in idx]
        if fi:
            indexed[author] = fi
    return Snapshot(r, admitted, solid, indexed)


def extract_snapshot(
    state: CumulativeState, record: CommitRecord, claimed=frozenset()
) -> Snapshot:
    """Synchronous main-thread step: ingest a committed subdag and cut L_i.

    The snapshot excludes permanently proposed transactions and every digest
    in ``claimed``, the solid digests of snapshots still in flight.
    """
    if record.r != state.last_extracted + 1:
        raise ValueError(
            f"subdag {record.r} extracted out of order (expected {state.last_extracted + 1})"
        )
    state.last_extracted = record.r
    state._ingest(record)
    orders = {
        author: [d for d in plist if d not in claimed] if claimed else plist
        for author, plist in sorted(state.pending.items())
    }
    return classify(record.r, orders, state.tau_i, state.tau_s)


def apply_result(state: CumulativeState, r: int, k_set: list[str]) -> None:
    """Promote a landed subdag's retained vertices out of pending."""
    if r != state.last_applied + 1:
        raise ValueError(
            f"result for subdag {r} applied out of order (expected {state.last_applied + 1})"
        )
    state.last_applied = r
    state.proposed.update(k_set)
    for plist in state.pending.values():
        for d in k_set:
            plist.pop(d, None)


# -- Phase 1 ------------------------------------------------------------------


PHASE1_BLOCK_BYTES = 1 << 22
"""Most bytes of pairwise comparisons phase 1 holds at once: authors are
compared in blocks of at most ``PHASE1_BLOCK_BYTES // m**2``. On a 2-core
host, 13 authors at m = 600 and 1,200 ran within 7% of one unsplit block."""


def weight_counts(m: int, orders: dict[int, list[int]]) -> np.ndarray:
    """The pair-enumeration kernel: W[i, j] is the number of orders listing
    admitted[i] before admitted[j].

    Row ``a`` of ``positions`` holds each admitted index's position in author
    a's order, m where a does not list it; ``listed`` is the same with -1 for
    m. A pair counts for an author exactly when positions[a, i] < listed[a, j]:
    it lists both, i first. So one broadcast comparison per block of authors
    counts every ordered pair. The dtype holds the author count, so no cell
    can wrap.
    """
    dtype = np.min_scalar_type(len(orders))
    positions = np.full((len(orders), m), m, dtype=np.int32)
    for row, fi in zip(positions, orders.values()):
        row[fi] = np.arange(len(fi))
    listed = np.where(positions < m, positions, -1)
    block = max(1, PHASE1_BLOCK_BYTES // max(1, m * m))
    w = np.zeros((m, m), dtype=dtype)
    for lo in range(0, len(orders), block):
        w += np.add.reduce(
            positions[lo : lo + block, :, None] < listed[lo : lo + block, None, :],
            axis=0, dtype=dtype,
        )
    return w


def phase1_weights(snapshot: Snapshot) -> Snapshot:
    """Fill a snapshot's pairwise weight matrix and return the snapshot.

    The counts are a pure function of the snapshot: no shared-state reads,
    rerunnable.
    """
    snapshot.weights = weight_counts(len(snapshot.admitted), snapshot.orders)
    return snapshot


# -- Phase 2 ------------------------------------------------------------------


def phase2_build_graph(snap: Snapshot, tau_i: int) -> DepGraph:
    """Add edges over the admitted digests from the cached weights.

    ``tau_i`` is ``CumulativeState.tau_i``. An edge is installed toward the
    direction whose cached weight reaches tau_i; at an exact tie the smaller
    digest (the smaller index) is the source. Pairs below tau_i in both
    directions become missing edges, listed row-major.
    """
    nodes, w = snap.admitted, snap.weights
    decided = (w >= tau_i) | (w.T >= tau_i)
    adj = decided & ((w > w.T) | np.triu(w == w.T, 1))
    rows, cols = np.nonzero(np.triu(~decided, 1))
    missing = [(nodes[a], nodes[b]) for a, b in zip(rows.tolist(), cols.tolist())]
    return DepGraph(snap.r, nodes, adj, missing, snap.solid)


def drop_retained(snap: Snapshot, proposed) -> Snapshot:
    """The snapshot without the digests in ``proposed``: its admitted list,
    solid mask and weights cut to the rest. The index orders, phase 1's
    input, are not carried over."""
    kept = [i for i, d in enumerate(snap.admitted) if d not in proposed]
    return Snapshot(snap.r, [snap.admitted[i] for i in kept], snap.solid[kept], {},
                    snap.weights[np.ix_(kept, kept)])


# -- SCC machinery -------------------------------------------------------------


def _reach(step: np.ndarray, start: int, allowed: np.ndarray) -> np.ndarray:
    """The vertices of ``allowed`` that ``start`` reaches through ``allowed``
    (``start`` included), as a 0/1 float32 mask; ``allowed`` is one too.

    ``step`` is the adjacency with its diagonal set, so one vector-matrix
    product takes the reached set one BFS level further. The search stops
    when a level adds nothing or every allowed vertex is reached. Counts stay
    below 2**24, so float32 holds them exactly.
    """
    seen = np.zeros_like(allowed)
    seen[start] = 1
    count, limit = 1, np.count_nonzero(allowed)
    while count < limit:
        seen = np.minimum(seen @ step, allowed)
        grown = np.count_nonzero(seen)
        if grown == count:
            break
        count = grown
    return seen


def scc_positions(adj: np.ndarray) -> np.ndarray:
    """Each vertex's SCC position in the canonical condensation order.

    SCCs come from forward-backward reachability (Fleischer, Hendrickson and
    Pinar, 2000): the SCC of the smallest unassigned vertex is what it
    reaches among the unassigned vertices and what reaches it within that
    forward set. So each SCC's label is its smallest member's rank among the
    SCC minima. The canonical order is Kahn's algorithm over the
    condensation, ties broken by the smallest member index, which is the
    smallest member digest because vertices ascend by digest. The anchor
    truncation rule depends on which valid topological order is used, so this
    canonical rule is part of the protocol, not an implementation detail.

    Each SCC's row of the condensation is one vector-matrix product, taken
    when the SCC is found. One matrix product over all SCCs (membership^T x
    adjacency x membership) would cross OpenBLAS's threading threshold once
    SCCs x k^2 reaches 2**18: on a 2-core host this function then took 31 ms
    on a transitive 150-vertex tournament, against 3.5 ms with per-SCC rows.
    """
    k = len(adj)
    label = np.full(k, -1)
    if k == 0:
        return label
    step = adj.astype(np.float32)
    np.fill_diagonal(step, 1)
    unassigned = np.ones(k, dtype=np.float32)
    out_rows = []  # per SCC label: what its members reach in one step
    while unassigned.any():
        pivot = int(unassigned.argmax())
        scc = _reach(step.T, pivot, _reach(step, pivot, unassigned))
        label[scc > 0] = len(out_rows)
        out_rows.append(scc @ step)
        unassigned -= scc
    # Kahn over the condensation; labels ascend with their smallest member
    c = len(out_rows)
    src, dst = np.nonzero(np.array(out_rows))
    dag = np.zeros((c, c), dtype=bool)
    dag[src, label[dst]] = True
    np.fill_diagonal(dag, False)
    indeg = np.count_nonzero(dag, axis=0).tolist()
    out_edges = [np.flatnonzero(row).tolist() for row in dag]
    ready = [j for j in range(c) if indeg[j] == 0]
    rank = np.empty(c, dtype=label.dtype)
    for position in range(c):
        j = heapq.heappop(ready)
        rank[j] = position
        for b in out_edges[j]:
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(ready, b)
    return rank[label]


def linearize(r: int, nodes: list[str], pos: np.ndarray) -> FinalOrder:
    """Emit each SCC, in position order, as one contiguous batch sorted by
    transaction digest; ``pos`` holds every position from 0 up to its max."""
    order = np.argsort(pos, kind="stable").tolist()
    ends = np.cumsum(np.bincount(pos)).tolist()
    return FinalOrder(
        r, tuple(nodes[v] for v in order), tuple(zip([0, *ends[:-1]], ends))
    )


# -- Phase 3 ------------------------------------------------------------------


def phase3_anchor(graph: DepGraph) -> tuple[FinalOrder | DepGraph, int, list[str]]:
    """SCC decomposition and anchor truncation.

    The anchor is the last SCC (canonical condensation order) containing a
    solid vertex; everything after it returns to pending. With no solid vertex
    nothing is retained.

    Returns the subdag's FinalOrder when no retained pair is missing (the
    retained SCCs are a predecessor-closed prefix of the canonical order, so
    they already are the truncated graph's final order), else the truncated
    graph to park, which is ``graph`` itself when the anchor keeps every
    vertex; then the anchor and the retained digests.
    """
    pos = scc_positions(graph.adj)
    anchor = int(pos[graph.solid].max(initial=-1)) + 1
    if anchor > pos.max(initial=-1):  # the anchor keeps every vertex
        if graph.missing:
            return graph, anchor, graph.nodes
        return linearize(graph.r, graph.nodes, pos), anchor, graph.nodes
    kept = np.flatnonzero(pos < anchor)
    nodes = [graph.nodes[v] for v in kept.tolist()]
    kept_set = set(nodes)
    missing = [(u, v) for u, v in graph.missing if u in kept_set and v in kept_set]
    if not missing:
        return linearize(graph.r, nodes, pos[kept]), anchor, nodes
    truncated = DepGraph(graph.r, nodes, graph.adj[np.ix_(kept, kept)], missing, graph.solid[kept])
    return truncated, anchor, nodes

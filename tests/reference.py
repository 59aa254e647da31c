"""Brute-force references and invariant checks that only the tests use."""

from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from math import ceil

import numpy as np
import pytest

from batchfair import pipeline
from batchfair.oracle import (
    BatchOfReport,
    FairnessViolation,
    SerialOutcome,
    _condensation,
    _precedence,
    _tau_i,
    batch_ranks,
)
from batchfair.types import CommitRecord, FinalOrder


def reachability_scc(nodes: list[str], edges: set[tuple[str, str]]) -> list[list[str]]:
    """SCCs of a digest graph by the oracle's reachability closure, in
    canonical condensation order (Kahn with ties broken by smallest member
    digest). Members of each SCC are listed in digest order."""
    nodes = sorted(nodes)
    idx = {d: i for i, d in enumerate(nodes)}
    adj = np.zeros((len(nodes), len(nodes)), dtype=bool)
    for u, v in edges:
        adj[idx[u], idx[v]] = True
    return [[nodes[i] for i in scc] for scc in _condensation(adj)]


@contextmanager
def serial_landings_checked():
    """Check, at every phase 2 of one serial pipeline run inside the block,
    that the snapshot admits no digest an earlier landing retained: what lets
    phase 2 build over the whole admitted list. Yields the landed subdags."""
    retained, landed = set(), []
    build, apply = pipeline.phase2_build_graph, pipeline.apply_result

    def checked_build(snap, tau_i):
        assert retained.isdisjoint(snap.admitted), f"subdag {snap.r} admits a retained digest"
        landed.append(snap.r)
        return build(snap, tau_i)

    def recorded_apply(state, r, k_set):
        retained.update(k_set)
        return apply(state, r, k_set)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "phase2_build_graph", checked_build)
        mp.setattr(pipeline, "apply_result", recorded_apply)
        yield landed


def reference_check_batch_of(trace, emitted, gamma) -> BatchOfReport:
    """The full-matrix gamma-batch-order-fairness checker: a t x t precedence
    count over every transaction all replicas received and emitted, then
    every ordered pair whose count reaches ceil(gamma * n) with u's batch
    after v's, in row-major order."""
    need = int(ceil(Fraction(gamma) * trace.n_replicas()))
    receive = trace.receive_orders()
    common = set.intersection(*(set(o) for o in receive.values())) if receive else set()
    all_txs = set().union(*(set(o) for o in receive.values())) if receive else set()
    skipped = len(all_txs) * (len(all_txs) - 1) // 2 - len(common) * (len(common) - 1) // 2
    rank = batch_ranks(emitted)
    txs = sorted(d for d in common if d in rank)
    t = len(txs)
    if t < 2:
        return BatchOfReport([], 0, skipped)
    counts = _precedence(list(receive.values()), txs)
    b = np.array([rank[d] for d in txs], dtype=np.int32)
    bad = (counts >= need) & (b[:, None] > b[None, :])
    violations = [
        FairnessViolation(txs[u], txs[v], int(counts[u, v]), int(b[u]), int(b[v]))
        for u, v in np.argwhere(bad)
    ]
    return BatchOfReport(violations, t * (t - 1) // 2, skipped)


def warshall_condensation(adj: np.ndarray) -> list[np.ndarray]:
    """SCCs of a boolean adjacency matrix in canonical condensation order,
    from Warshall's closure, one vectorized row update per intermediate node,
    then Kahn's algorithm over the condensation's edges, ties broken by the
    smallest member index."""
    m = len(adj)
    if m == 0:
        return []
    reach = adj | np.eye(m, dtype=bool)
    for k in range(m):
        reach |= reach[:, k, None] & reach[k]
    root = (reach & reach.T).argmax(axis=1)
    roots, comp_of = np.unique(root, return_inverse=True)
    c = len(roots)
    cadj = np.zeros((c, c), dtype=bool)
    src, dst = np.nonzero(adj)
    cadj[comp_of[src], comp_of[dst]] = True
    np.fill_diagonal(cadj, False)
    indeg = cadj.sum(axis=0)
    done = np.zeros(c, dtype=bool)
    order: list[int] = []
    for _ in range(c):
        k = int(np.argmax((indeg == 0) & ~done))
        done[k] = True
        order.append(k)
        indeg[cadj[k]] -= 1
    return [np.flatnonzero(comp_of == k) for k in order]


def reference_first_sufficient_prefix(
    counts: list[Counter], pairs: list[tuple[str, str]], start: int, tau_i: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Each pair's (u->v, v->u) tallies over the first k vote authors, at the
    smallest k >= start where every pair has one direction at tau_i, from one
    Counter of edges per author; None if no prefix suffices."""
    if len(counts) < start:
        return None
    fwd = np.array([[c.get((u, v), 0) for u, v in pairs] for c in counts]).cumsum(axis=0)
    rev = np.array([[c.get((v, u), 0) for u, v in pairs] for c in counts]).cumsum(axis=0)
    enough = np.flatnonzero((np.maximum(fwd, rev) >= tau_i).all(axis=1)[start - 1:])
    if not len(enough):
        return None
    k = start - 1 + enough[0]
    return fwd[k], rev[k]


def reference_serial_reference(
    records: list[CommitRecord], n: int, f: int, gamma
) -> SerialOutcome:
    """The serial reference over per-author digest lists: support and pending
    lists as Python dicts and lists, SCCs by warshall_condensation for the
    anchor cut and again for the kept graph, and one Counter of edges per
    vote author for the vote replay."""
    tau_i = _tau_i(n, f, gamma)
    tau_s = n - 2 * f
    pending: dict[int, list[str]] = {}
    seen: dict[int, set[str]] = {}
    proposed: set[str] = set()
    votes_for: dict[int, dict[int, tuple]] = {}
    for rec in records:
        for vote in rec.votes():
            if vote.target_r >= rec.r:
                continue
            by_author = votes_for.setdefault(vote.target_r, {})
            if vote.author not in by_author:
                by_author[vote.author] = vote.edges
    orders: list[FinalOrder] = []
    graphed_in: dict[str, int] = {}
    weights: list[tuple[list[str], np.ndarray]] = []
    votes: list[tuple[list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    mismatches: list[dict] = []
    stopped = None

    for rec in records:
        for vr in rec.vertices:
            lst = pending.setdefault(vr.author, [])
            s = seen.setdefault(vr.author, set())
            for _kind, digest, _loi in vr.entries:
                if digest in proposed or digest in s:
                    continue
                s.add(digest)
                lst.append(digest)
        support: dict[str, int] = {}
        for author in pending:
            for d in pending[author]:
                support[d] = support.get(d, 0) + 1
        admitted = sorted(d for d, c in support.items() if c >= tau_i)
        m = len(admitted)
        solid = np.array([support[d] >= tau_s for d in admitted], dtype=bool)
        w = _precedence([pending[author] for author in sorted(pending)], admitted)
        weights.append((admitted, w))
        upper = np.triu(np.ones((m, m), dtype=bool), k=1)
        strong = (w >= tau_i) | (w.T >= tau_i)
        adj = strong & ((w > w.T) | ((w == w.T) & upper))
        sccs = warshall_condensation(adj)
        anchor = 0
        for j, scc in enumerate(sccs, 1):
            if solid[scc].any():
                anchor = j
        keep = np.sort(np.concatenate(sccs[:anchor])) if anchor else np.empty(0, np.intp)
        retained = [admitted[i] for i in keep.tolist()]
        for d in retained:
            graphed_in[d] = rec.r
        retained_set = set(retained)
        proposed |= retained_set
        for author in pending:
            pending[author] = [d for d in pending[author] if d not in retained_set]
        sub = np.ix_(keep, keep)
        kept_adj = adj[sub]
        mu, mv = np.nonzero(upper[sub] & ~strong[sub])
        live_missing = [(retained[u], retained[v]) for u, v in zip(mu.tolist(), mv.tolist())]
        if live_missing:
            by_author = votes_for.get(rec.r, {})
            counts = [Counter(edges) for edges in by_author.values()]
            resolved = reference_first_sufficient_prefix(counts, live_missing, n - f, tau_i)
            if resolved is None:
                stopped = rec.r
                break
            a, b = resolved
            votes.append((retained, mu, mv, a, b))
            forward = a >= b
            kept_adj[mu[forward], mv[forward]] = True
            kept_adj[mv[~forward], mu[~forward]] = True
            missing_set = set(live_missing)
            for author, c in zip(by_author, counts):
                covered = {(x, y) if x <= y else (y, x) for x, y in c}
                if not missing_set <= covered:
                    mismatches.append({"r": rec.r, "author": author})
        digests: list[str] = []
        batches: list[tuple[int, int]] = []
        for scc in warshall_condensation(kept_adj):
            start = len(digests)
            digests.extend(retained[i] for i in scc.tolist())
            batches.append((start, len(digests)))
        orders.append(FinalOrder(rec.r, tuple(digests), tuple(batches)))
    return SerialOutcome(orders, stopped, graphed_in, weights, votes, mismatches)

"""Independent reference implementations and trace checkers.

Everything here is deliberately written against different machinery than the
pipeline modules. One kernel, ``_precedence``, counts for every check how
many orders put one transaction before another: the serial reference's
weights over each subdag's admitted set, the gamma-batch-order-fairness
counts over the replicas' receive orders, and the Dist table's reported
and honest counts. The pipeline's phase 1 (``graph.weight_counts``) applies
the same comparison rule, but differently: it takes every author's order at
once as integer indices into the admitted list, compares them in one
broadcast per block of authors and sums in the smallest unsigned dtype that
holds the author count, while ``_precedence`` maps digests itself, takes one
order at a time and adds into int16. The two share the rule, not code. The
pure-Python ``reference_weight_counts`` in the tests, one increment per
listed pair, remains the independent check of the pipeline's counts. The serial
reference finds SCCs from a Warshall reachability closure over a boolean
adjacency matrix and replays votes from the recorded stream with per-author
edge counts. Pair evidence and the per-pair vote tallies are built from the
kept arrays only when asked for. The LOI checker walks per-replica LOI
lists. The checks keep few GC-tracked objects alive, so they rarely start a
collection, which would scan the whole run's trace. Only the domain types
are shared.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import ceil

import numpy as np

from .trace import RunTrace
from .types import CommitRecord, FinalOrder


# -- counting primitives (oracle-side) --------------------------------------------


def _precedence(orders: list[list[str]], txs: list[str]) -> np.ndarray:
    """P[a, b] = number of orders holding both txs[a] and txs[b] with txs[a]
    first; each order lists a transaction at most once.

    A transaction the order lacks gets rank t in ``hi`` and -1 in ``lo``, so
    the one comparison per order, hi[a] < lo[b], holds only when the order
    holds both, txs[a] first."""
    t = len(txs)
    idx = {d: i for i, d in enumerate(txs)}
    p = np.zeros((t, t), dtype=np.int16)
    hi = np.empty(t, dtype=np.int32)
    lo = np.empty(t, dtype=np.int32)
    for order in orders:
        held = [idx[d] for d in order if d in idx]
        hi.fill(t)
        lo.fill(-1)
        hi[held] = lo[held] = np.arange(len(held))
        p += hi[:, None] < lo[None, :]
    return p


def _tau_i(n: int, f: int, gamma) -> int:
    """The integer edge threshold ceil(n(1 - gamma) + f + 1)."""
    return int(ceil(Fraction(n) * (1 - Fraction(gamma)) + f + 1))


# -- graph primitives (oracle-side) ---------------------------------------------


def _condensation(adj: np.ndarray) -> list[np.ndarray]:
    """SCCs of a boolean adjacency matrix, in canonical condensation order.

    The reflexive-transitive closure comes from Warshall's algorithm, one
    vectorized row update per intermediate node. Two nodes share an SCC when
    each reaches the other. Canonical order: Kahn's algorithm over the
    condensation, ties broken by the smallest member index. Each SCC is its
    member indices in ascending order.
    """
    m = len(adj)
    if m == 0:
        return []
    reach = adj | np.eye(m, dtype=bool)
    for k in range(m):
        reach |= reach[:, k, None] & reach[k]
    # the smallest index in each node's SCC labels it; labels ascend with comp
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
        k = int(np.argmax((indeg == 0) & ~done))  # smallest ready component
        done[k] = True
        order.append(k)
        indeg[cadj[k]] -= 1
    return [np.flatnonzero(comp_of == k) for k in order]


# -- serial reference -------------------------------------------------------------


@dataclass
class PairEvidence:
    """Per-pair observations of the serial reference (see SerialOutcome.evidence)."""

    weights: list[tuple[int, int]] = field(default_factory=list)  # (w_uv, w_vu), u < v
    vote_tally: tuple[int, int] | None = None


@dataclass
class SerialOutcome:
    orders: list[FinalOrder]
    stopped_at: int | None  # first subdag whose votes never sufficed, if any
    graphed_in: dict[str, int]  # digest -> subdag whose graph retained it
    # per processed subdag: its sorted admitted digests and their weight
    # matrix, W[u, v] = number of authors reporting both with u first
    weights: list[tuple[list[str], np.ndarray]]
    # per subdag resolved by votes: its retained digests, the missing pairs
    # as index arrays (u < v) and their (u->v, v->u) vote tallies
    votes: list[tuple[list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    vote_mismatches: list[dict]

    @cached_property
    def vote_tallies(self) -> dict[tuple[str, str], tuple[int, int]]:
        """Resolved pair -> its (u->v, v->u) vote tally. Built on first access."""
        return {
            (retained[u], retained[v]): (x, y)
            for retained, mu, mv, a, b in self.votes
            for u, v, x, y in zip(mu.tolist(), mv.tolist(), a.tolist(), b.tolist())
        }

    @cached_property
    def evidence(self) -> dict[tuple[str, str], PairEvidence]:
        """Every pair (u < v) admitted together in some subdag: its (w_uv,
        w_vu) in each such subdag, in commit order, and its vote tally if
        votes resolved it. Built on first access only."""
        out: dict[tuple[str, str], PairEvidence] = {}
        for admitted, w in self.weights:
            iu, iv = np.triu_indices(len(admitted), k=1)
            for u, v, wuv, wvu in zip(
                iu.tolist(), iv.tolist(), w[iu, iv].tolist(), w[iv, iu].tolist()
            ):
                pair = (admitted[u], admitted[v])
                ev = out.get(pair)
                if ev is None:
                    ev = out[pair] = PairEvidence()
                ev.weights.append((wuv, wvu))
        for pair, tally in self.vote_tallies.items():
            out[pair].vote_tally = tally
        return out


def _first_sufficient_prefix(
    counts: list[Counter], pairs: list[tuple[str, str]], start: int, tau_i: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Tally each pair over the first k vote authors, for the smallest k >=
    start at which every pair has one direction at tau_i or above: returns
    the (u->v, v->u) tallies at that k, or None if no prefix suffices.
    Duplicate edges inside one vote count each time; start >= 1."""
    if len(counts) < start:
        return None
    fwd = np.array([[c.get((u, v), 0) for u, v in pairs] for c in counts]).cumsum(axis=0)
    rev = np.array([[c.get((v, u), 0) for u, v in pairs] for c in counts]).cumsum(axis=0)
    enough = np.flatnonzero((np.maximum(fwd, rev) >= tau_i).all(axis=1)[start - 1:])
    if not len(enough):
        return None
    k = start - 1 + enough[0]
    return fwd[k], rev[k]


def serial_reference(records: list[CommitRecord], n: int, f: int, gamma) -> SerialOutcome:
    """Serial execution of the fairness layer: each subdag's task completes,
    including vote resolution, before the next subdag is touched.

    Votes are replayed from the committed stream (scanning forward when a
    graph parks). Emits the same total order as the concurrent pipeline.
    """
    tau_i = _tau_i(n, f, gamma)
    tau_s = n - 2 * f
    pending: dict[int, list[str]] = {}
    seen: dict[int, set[str]] = {}
    proposed: set[str] = set()
    # precollect the vote stream in commit order, first vote per (author,
    # target); a vote for a subdag not committed before its carrier is skipped
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
        # an edge needs one direction at tau; it points the heavier way, and a
        # tie points from the smaller digest (row index u < v)
        upper = np.triu(np.ones((m, m), dtype=bool), k=1)
        strong = (w >= tau_i) | (w.T >= tau_i)
        adj = strong & ((w > w.T) | ((w == w.T) & upper))
        sccs = _condensation(adj)
        anchor = 0
        for j, scc in enumerate(sccs, 1):
            if solid[scc].any():
                anchor = j
        keep = np.sort(np.concatenate(sccs[:anchor])) if anchor else np.empty(0, np.intp)
        retained = [admitted[i] for i in keep.tolist()]  # sorted, as admitted is
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
            resolved = _first_sufficient_prefix(counts, live_missing, n - f, tau_i)
            if resolved is None:
                stopped = rec.r
                break
            a, b = resolved
            votes.append((retained, mu, mv, a, b))
            forward = a >= b
            kept_adj[mu[forward], mv[forward]] = True
            kept_adj[mv[~forward], mu[~forward]] = True
            # sanity: every honest vote should cover exactly the missing set
            missing_set = set(live_missing)
            for author, c in zip(by_author, counts):
                covered = {(x, y) if x <= y else (y, x) for x, y in c}
                if not missing_set <= covered:
                    mismatches.append({"r": rec.r, "author": author})
        digests: list[str] = []
        batches: list[tuple[int, int]] = []
        for scc in _condensation(kept_adj):
            start = len(digests)
            digests.extend(retained[i] for i in scc.tolist())
            batches.append((start, len(digests)))
        orders.append(FinalOrder(rec.r, tuple(digests), tuple(batches)))
    return SerialOutcome(orders, stopped, graphed_in, weights, votes, mismatches)


# -- gamma-batch-order-fairness checker -----------------------------------------


@dataclass(frozen=True)
class FairnessViolation:
    first: str  # the transaction that gamma*n replicas received first
    second: str
    supporters: int
    first_batch: int
    second_batch: int


@dataclass
class BatchOfReport:
    violations: list[FairnessViolation]
    pairs_checked: int
    pairs_skipped_scope: int  # not received by all replicas

    @property
    def ok(self) -> bool:
        return not self.violations


def batch_ranks(emitted: list[FinalOrder]) -> dict[str, int]:
    """Global batch index per emitted transaction (batches = SCC runs)."""
    rank: dict[str, int] = {}
    b = 0
    for order in emitted:
        for s, e in order.batches:
            for d in order.digests[s:e]:
                rank[d] = b
            b += 1
    return rank


def check_batch_of(trace: RunTrace, emitted: list[FinalOrder], gamma) -> BatchOfReport:
    """Brute force over all ordered pairs of transactions received by every
    replica: if >= gamma*n replicas received u before v, u's emitted batch
    must be no later than v's."""
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


# -- single-graph and LOI-monotonicity checkers ----------------------------------


def check_single_graph(trace: RunTrace) -> tuple[bool, str | None]:
    """Each digest enters at most one retained graph K_r."""
    seen: dict[str, int] = {}
    for r, k_digests in trace.retained_sets():
        for d in k_digests:
            if d in seen:
                return False, d
            seen[d] = r
    return True, None


def _first_descent(
    committed: dict[int, tuple[list[str], list[int]]], replicas
) -> dict | None:
    """The first entry, replica by replica, whose LOI does not exceed the
    one before it in that replica's committed stream."""
    for replica in replicas:
        last = -1
        for digest, loi in zip(*committed[replica]):
            if loi <= last:
                return {"replica": replica, "tx": digest, "loi": loi, "prev": last}
            last = loi
    return None


def check_loi_monotone(trace: RunTrace) -> tuple[bool, dict | None]:
    """Per replica, committed contributions walked in subdag commit order
    carry strictly increasing LOIs (rests on the self-referencing rule).

    Correct replicas are walked first, then crash-faulted ones: those are
    honest until they stop, so their committed prefix must ascend too."""
    _, crashes = trace.fault_roles()
    bad = _first_descent(trace.committed_lois(), [*trace.correct_replicas(), *crashes])
    return bad is None, bad


def check_crashed_prefix_monotone(trace: RunTrace) -> tuple[bool, dict | None]:
    """The crash-faulted half of ``check_loi_monotone`` on its own. The
    harness does not call it; perfbench's probes patch it by name."""
    bad = _first_descent(trace.committed_lois(), trace.fault_roles()[1])
    return bad is None, bad


# -- adversarial Dist histogram ----------------------------------------------------


@dataclass
class DistRow:
    dist: int
    pair_count: int
    reversed_count: int

    @property
    def reversed_fraction(self) -> float:
        return self.reversed_count / self.pair_count if self.pair_count else 0.0


def _dist_arrays(
    trace: RunTrace, emitted: list[FinalOrder]
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(txs, u, v, Dist, reversed) per pair, u < v as indices into the
    sorted txs, over the transactions reported by all N replicas and emitted.

    Dist = |#(u before v) - #(v before u)| over all N reported orders
    (Byzantine reports included). A pair is reversed when its inter-batch
    emitted order disagrees with the honest-majority receive direction;
    same-batch pairs count as not reversed. Pairs with a tied honest count
    are excluded (no majority direction exists to disagree with)."""
    reported = trace.reported_orders()
    receive = trace.receive_orders()
    rank = batch_ranks(emitted)
    # scope: reported by all N replicas (keeps Dist parity exact) and emitted
    common = set.intersection(*(set(o) for o in reported.values()))
    txs = sorted(d for d in common if d in rank)
    if len(txs) < 2:
        empty = np.empty(0, dtype=np.intp)
        return txs, empty, empty, empty, empty.astype(bool)
    fwd = _precedence(list(reported.values()), txs)
    hc = _precedence([receive[i] for i in trace.correct_replicas()], txs)
    b = np.array([rank[d] for d in txs], dtype=np.int32)
    reversed_ = (hc > hc.T) & (b[:, None] > b[None, :])  # against the honest majority
    iu, iv = np.triu_indices(len(txs), k=1)
    decided = hc[iu, iv] != hc[iv, iu]
    iu, iv = iu[decided], iv[decided]
    dist = np.abs(fwd[iu, iv] - fwd[iv, iu])
    return txs, iu, iv, dist, reversed_[iu, iv] | reversed_[iv, iu]


def dist_histogram(trace: RunTrace, emitted: list[FinalOrder]) -> list[DistRow]:
    """Bucket the pair table by Dist in {N mod 2, ..., N} in steps of 2."""
    n = trace.n_replicas()
    _txs, _iu, _iv, dist, rev = _dist_arrays(trace, emitted)
    pairs = np.bincount(dist, minlength=n + 1)
    reversed_ = np.bincount(dist[rev], minlength=n + 1)
    return [
        DistRow(d, int(pairs[d]), int(reversed_[d])) for d in range(n % 2, n + 1, 2)
    ]

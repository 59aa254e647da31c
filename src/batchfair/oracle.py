"""Independent reference implementations and trace checkers.

Everything here is deliberately written against different machinery than the
pipeline modules. One kernel, ``_precedence_of``, counts how many orders put
one transaction before another for the serial reference's weights over each
subdag's admitted set and, through ``_precedence``, for the Dist table's
reported and honest counts. The gamma-batch-order-fairness check builds no
such matrix: it takes its candidates by inversion, the pairs that some
receive order holds against batch order, and counts their supporters by
brute force over every receive order. The pipeline's phase 1
(``graph.weight_counts``) applies the same comparison rule, but differently:
it takes every author's order at once as integer indices into the admitted
list, compares them in one broadcast per block of authors and sums in the
smallest unsigned dtype that holds the author count, while
``_precedence_of`` takes one order at a time, compares ranks and adds into
int16. The two share the rule, not code. The pure-Python
``reference_weight_counts`` in the tests, one increment per listed pair,
remains the independent check of the pipeline's counts. The serial
reference ranks every digest of the stream once and keeps each author's
pending list as an array of ranks. It finds SCCs from a reachability closure
by repeated squaring of a boolean adjacency matrix, and it replays votes from
the recorded stream through one authors x 2P edge-count matrix per parked
subdag with P missing pairs. Pair evidence and the per-pair vote tallies are
built from the kept arrays only when asked for. The LOI checker walks
per-replica LOI lists. The checks keep few GC-tracked objects alive, so they
rarely start a collection, which would scan the whole run's trace. Only the
domain types are shared.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import ceil

import numpy as np

from .trace import RunTrace
from .types import CommitRecord, FinalOrder


# -- counting primitives (oracle-side) --------------------------------------------


def _precedence_of(orders: list[np.ndarray], t: int) -> np.ndarray:
    """P[a, b] = number of orders holding both a and b with a first, for
    orders given as distinct indices in [0, t).

    A transaction the order lacks gets rank t in ``hi`` and -1 in ``lo``, so
    the one comparison per order, hi[a] < lo[b], holds only when the order
    holds both, a first."""
    p = np.zeros((t, t), dtype=np.int16)
    hi = np.empty(t, dtype=np.int32)
    lo = np.empty(t, dtype=np.int32)
    for held in orders:
        hi.fill(t)
        lo.fill(-1)
        hi[held] = lo[held] = np.arange(len(held))
        p += hi[:, None] < lo[None, :]
    return p


def _precedence(orders: list[list[str]], txs: list[str]) -> np.ndarray:
    """P[a, b] = number of orders holding both txs[a] and txs[b] with txs[a]
    first; each order lists a transaction at most once."""
    idx = {d: i for i, d in enumerate(txs)}
    return _precedence_of([[idx[d] for d in order if d in idx] for order in orders], len(txs))


# bytes of one block of boolean comparisons when check_batch_of enumerates an
# order's inversions, each flagged position against the positions before it;
# the block's inversions, if every cell were one, take up to 16 bytes a cell
CHECK_BLOCK_BYTES = 1 << 20


def _tau_i(n: int, f: int, gamma) -> int:
    """The integer edge threshold ceil(n(1 - gamma) + f + 1)."""
    return int(ceil(Fraction(n) * (1 - Fraction(gamma)) + f + 1))


# -- graph primitives (oracle-side) ---------------------------------------------


def _condensation(adj: np.ndarray) -> list[np.ndarray]:
    """SCCs of a boolean adjacency matrix, in canonical condensation order.

    The reflexive-transitive closure comes from repeated squaring: reach =
    reach @ reach until it stops changing, ceil(log2 diameter) + 1 products.
    The products are taken in float32, and a cell is reached when its sum is
    positive, which is exact: a sum of non-negative terms never rounds to
    zero. Two nodes share an SCC when each reaches the other. Canonical
    order: Kahn's algorithm over the condensation, ties broken by the
    smallest member index. A component is ready once every component that
    reaches it is done, which is the same as once its direct predecessors
    are, since the done set is always closed under predecessors. Each SCC is
    its member indices in ascending order.
    """
    m = len(adj)
    if m == 0:
        return []
    reach = adj | np.eye(m, dtype=bool)
    while True:
        r = reach.astype(np.float32)
        wider = (r @ r) > 0
        if np.array_equal(wider, reach):
            break
        reach = wider
    # the smallest index in each node's SCC labels it; labels ascend with comp
    root = (reach & reach.T).argmax(axis=1)
    roots, comp_of = np.unique(root, return_inverse=True)
    creach = reach[np.ix_(roots, roots)]
    waiting = creach.sum(axis=0) - 1  # the other components that reach each one
    done = np.zeros(len(roots), dtype=bool)
    order: list[int] = []
    for _ in range(len(roots)):
        k = int(np.argmax((waiting == 0) & ~done))  # smallest ready component
        done[k] = True
        order.append(k)
        waiting[creach[k]] -= 1
    return [np.flatnonzero(comp_of == k) for k in order]


def _anchored(sccs: list[np.ndarray], solid: np.ndarray) -> list[np.ndarray]:
    """The SCCs, in canonical order, up to the last one holding a solid node.

    They are a prefix of a topological order, so closed under predecessors:
    the subgraph they induce has these SCCs in this same canonical order."""
    last = max((j for j, scc in enumerate(sccs, 1) if solid[scc].any()), default=0)
    return sccs[:last]


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


def _vote_counts(cast: list[tuple], pairs: list[tuple[str, str]]) -> np.ndarray:
    """One row per vote, 2P columns for the P pairs (u, v): column j counts
    the vote's u->v edges of pairs[j], column P + j its v->u edges. An edge
    listed twice counts twice; an edge of no pair counts nowhere."""
    p = len(pairs)
    col = {pair: j for j, pair in enumerate(pairs)}
    col.update({(v, u): p + j for j, (u, v) in enumerate(pairs)})
    cells = np.array(
        [row * 2 * p + j for row, edges in enumerate(cast)
         for j in map(col.get, edges) if j is not None],
        dtype=np.intp,
    )
    return np.bincount(cells, minlength=len(cast) * 2 * p).reshape(len(cast), 2 * p)


def _first_sufficient_prefix(
    counts: np.ndarray, start: int, tau_i: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Tally each pair over the first k vote authors, for the smallest k >=
    start at which every pair has one direction at tau_i or above: returns
    the (u->v, v->u) tallies at that k, or None if no prefix suffices.
    counts holds one row per author (see _vote_counts), so duplicate edges
    inside one vote count each time; start >= 1."""
    if len(counts) < start:
        return None
    p = counts.shape[1] // 2
    tally = counts.cumsum(axis=0)
    fwd, rev = tally[:, :p], tally[:, p:]
    enough = np.flatnonzero((np.maximum(fwd, rev) >= tau_i).all(axis=1)[start - 1:])
    if not len(enough):
        return None
    k = start - 1 + enough[0]
    return fwd[k], rev[k]


def serial_reference(records: list[CommitRecord], n: int, f: int, gamma) -> SerialOutcome:
    """Serial execution of the fairness layer: each subdag's task completes,
    including vote resolution, before the next subdag is touched.

    Every digest of the stream is ranked by digest once, and each author's
    pending list is an array of ranks, so support is one count over all of
    them and the admitted ranks ascend by digest. Votes are replayed from
    the committed stream (scanning forward when a graph parks). Emits the
    same total order as the concurrent pipeline.
    """
    tau_i = _tau_i(n, f, gamma)
    tau_s = n - 2 * f
    names = sorted({d for rec in records for vr in rec.vertices for _k, d, _l in vr.entries})
    rank = {d: i for i, d in enumerate(names)}
    no_ranks = np.empty(0, dtype=np.intp)
    pending: dict[int, np.ndarray] = {}  # author -> ranks, in report order
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
        new: dict[int, list[int]] = {}
        for vr in rec.vertices:
            lst = new.setdefault(vr.author, [])
            s = seen.setdefault(vr.author, set())
            for _kind, digest, _loi in vr.entries:
                if digest in proposed or digest in s:
                    continue
                s.add(digest)
                lst.append(rank[digest])
        for author, lst in new.items():
            pending[author] = np.concatenate(
                (pending.get(author, no_ranks), np.array(lst, np.intp))
            )
        support = np.bincount(np.concatenate((no_ranks, *pending.values())), minlength=len(names))
        ranks = np.flatnonzero(support >= tau_i)
        admitted = [names[i] for i in ranks.tolist()]
        m = len(admitted)
        solid = support[ranks] >= tau_s
        local = np.full(len(names), -1, dtype=np.intp)
        local[ranks] = np.arange(m)
        held = [local[lst] for lst in pending.values()]
        w = _precedence_of([h[h >= 0] for h in held], m)
        weights.append((admitted, w))
        # an edge needs one direction at tau; it points the heavier way, and a
        # tie points from the smaller digest (row index u < v)
        strong = (w >= tau_i) | (w.T >= tau_i)
        adj = strong & ((w > w.T) | ((w == w.T) & np.triu(np.ones((m, m), dtype=bool), k=1)))
        sccs = _anchored(_condensation(adj), solid)
        keep = np.sort(np.concatenate(sccs)) if sccs else no_ranks
        retained = [admitted[i] for i in keep.tolist()]  # sorted, as admitted is
        graphed_in.update(dict.fromkeys(retained, rec.r))
        proposed.update(retained)
        cut = np.zeros(len(names), dtype=bool)
        cut[ranks[keep]] = True
        for author, lst in pending.items():
            pending[author] = lst[~cut[lst]]
        sub = np.ix_(keep, keep)
        mu, mv = np.nonzero(np.triu(~strong[sub], k=1))
        if len(mu):
            by_author = votes_for.get(rec.r, {})
            counts = _vote_counts(
                list(by_author.values()),
                [(retained[u], retained[v]) for u, v in zip(mu.tolist(), mv.tolist())],
            )
            resolved = _first_sufficient_prefix(counts, n - f, tau_i)
            if resolved is None:
                stopped = rec.r
                break
            a, b = resolved
            votes.append((retained, mu, mv, a, b))
            kept_adj = adj[sub]
            forward = a >= b
            kept_adj[mu[forward], mv[forward]] = True
            kept_adj[mv[~forward], mu[~forward]] = True
            # sanity: every honest vote should cover exactly the missing set
            p = len(mu)
            covers = (counts[:, :p] + counts[:, p:] > 0).all(axis=1)
            mismatches.extend(
                {"r": rec.r, "author": author}
                for author, ok in zip(by_author, covers.tolist()) if not ok
            )
            sccs = [keep[scc] for scc in _condensation(kept_adj)]
        # with no vote edge the anchored SCCs already are the kept graph's
        digests: list[str] = []
        batches: list[tuple[int, int]] = []
        for scc in sccs:
            start = len(digests)
            digests.extend(admitted[i] for i in scc.tolist())
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


def _positions(order: list[str], idx: dict[str, int], t: int) -> np.ndarray:
    """Each of the t transactions' position in one order that holds them all;
    a transaction the order lists twice takes its last position."""
    listed = np.array(list(map(idx.get, order, repeat(-1))), dtype=np.int32)
    held = listed[listed >= 0]
    pos = np.empty(t, dtype=np.int32)
    pos[held] = np.arange(len(held), dtype=np.int32)
    return pos


def _inversions(seq: np.ndarray, b: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The pairs (u, v) that the order seq (transaction indices, first
    received first) holds with u first although b[u] > b[v], as arrays of
    u and v, a block at a time.

    A position q can start an inversion only if the running maximum of the
    batch ranks before it exceeds its own rank. Only those rows are compared
    against their prefix, as many at a time as CHECK_BLOCK_BYTES allows."""
    r = b[seq]
    rows = np.flatnonzero(r[1:] < np.maximum.accumulate(r)[:-1]) + 1
    step = max(1, CHECK_BLOCK_BYTES // len(r))
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        width = int(block[-1])  # rows ascend: the block's longest prefix
        later = r[:width] > r[block, None]
        later &= np.arange(width) < block[:, None]
        q, p = np.nonzero(later)
        yield seq[p], seq[block[q]]


def check_batch_of(trace: RunTrace, emitted: list[FinalOrder], gamma) -> BatchOfReport:
    """Every ordered pair of transactions received by every replica: if >=
    gamma*n replicas received u before v, u's emitted batch must be no later
    than v's.

    Candidates by inversion, supporters by brute force. A violating pair is
    an inversion of batch order (u first, u's batch later) in at least need
    receive orders, so, by pigeonhole, in at least one of any n - need + 1 of
    them. The candidates are the inversions of the first n - need + 1
    orders; each one's supporters are counted over all n orders from their
    positions. No t x t array is built: the work follows the inversions."""
    orders = list(trace.receive_orders().values())
    common = set(orders[0]).intersection(*orders[1:]) if orders else set()
    all_txs = set().union(*orders)
    skipped = len(all_txs) * (len(all_txs) - 1) // 2 - len(common) * (len(common) - 1) // 2
    rank = batch_ranks(emitted)
    txs = sorted(d for d in common if d in rank)
    t = len(txs)
    if t < 2:
        return BatchOfReport([], 0, skipped)
    n = trace.n_replicas()
    need = int(ceil(Fraction(gamma) * n))
    if need < 1:
        raise ValueError(f"gamma must be positive, got {gamma}")
    idx = {d: i for i, d in enumerate(txs)}
    b = np.array([rank[d] for d in txs], dtype=np.int32)
    pos = None  # n x t, built at the first candidate
    keys, supporters = [], []
    for order in orders[: n - need + 1]:
        seq = np.argsort(_positions(order, idx, t))
        for u, v in _inversions(seq, b):
            if not len(u):
                continue
            if pos is None:
                pos = np.stack([_positions(o, idx, t) for o in orders])
            count = np.zeros(len(u), dtype=np.int32)
            for row in pos:
                count += row[u] < row[v]
            hit = count >= need
            keys.append(u[hit] * t + v[hit])
            supporters.append(count[hit])
    violations = []
    if keys:
        key, first = np.unique(np.concatenate(keys), return_index=True)
        count = np.concatenate(supporters)[first]
        violations = [
            FairnessViolation(txs[u], txs[v], c, int(b[u]), int(b[v]))
            for u, v, c in zip((key // t).tolist(), (key % t).tolist(), count.tolist())
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

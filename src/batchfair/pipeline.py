"""Fairness-pipeline coordinator: per-subdag phases and the Emit gate.

Extraction (``extract_snapshot``) runs on the coordinator in commit order and
decides each subdag's support classes once. Phase 1 (the weight matrix) is a
numpy kernel over the snapshot's index orders, a pure function of the
snapshot, and is the only step that can run apart from the others: phase 3's
retained set decides what the next snapshot admits, a vote counts only if
its target is parked when the vote's record lands, and Emit drains in commit
order. So phases 2-4 run on the coordinator, one subdag at a time, in commit
order. That is the landing step, ``_land``, and both drivers share it:

* event/serial mode (``on_commit``, ``replay``): each committed subdag runs
  phase 1 inline and lands at once (this is also how the simulator drives
  the pipeline at commit time);
* concurrent mode (``replay_concurrent``): phase-1 tasks run on a process
  pool for a window of in-flight subdags, and the coordinator lands their
  results in commit order. Only this driver extracts ahead of landings, so
  only it excludes its window's solid digests and cuts stale snapshots.

The pipeline calls nothing back. ``on_commit`` returns the subdag's
``Landing``: the trace events it produced, in order, the orders it let out,
and the FairPropose it owes, ``(r, missing)`` of the graph it parked. The
simulator writes the events, stamps the orders' emit times and hands the
FairPropose to its workers; the replay drivers drop it. In a landing that
parks, ``graph_parked`` is the last event: a park makes nothing ready, so
the Emit drain after it finds nothing, and the votes the FairPropose
releases at once follow every event of the landing. An event holds the
pipeline's own values, not copies: ``order_emitted`` the order's digests and
batches, ``graph_profile`` the very dict ``PipelineResult.profiles`` keeps.

Both modes land the same records in the same order, so they produce
bit-identical emitted orders; only wall-clock differs. A pool task ships the
admitted count and the index orders, and returns the m x m count matrix,
one byte per cell below 256 authors: no digest crosses the pool.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import compress
from time import perf_counter_ns

from .finalize import ParkedStore, apply_fair_update, emit, mark_ready, park, route_votes
from .graph import (
    CumulativeState,
    Snapshot,
    apply_result,
    drop_retained,
    extract_snapshot,
    phase1_weights,
    phase2_build_graph,
    phase3_anchor,
    weight_counts,
)
from .types import CommitRecord, FinalOrder


@dataclass
class PipelineResult:
    emitted: list[FinalOrder]
    profiles: list[dict]
    parked_left: list[int]


@dataclass
class Landing:
    """What landing one subdag produced, for the driver to act on."""

    events: list[dict] = field(default_factory=list)  # trace events, in order
    emitted: list[FinalOrder] = field(default_factory=list)
    fair_propose: tuple[int, list] | None = None  # (r, missing) of the parked graph


def _weights_task(m: int, orders: dict[int, list[int]]) -> tuple:
    """Phase-1 counts and their CPU time; module level so it pickles for the pool."""
    t0 = perf_counter_ns()
    weights = weight_counts(m, orders)
    return weights, perf_counter_ns() - t0


class FairnessPipeline:
    """Coordinator for one replica-equivalent fairness processor."""

    def __init__(self, n: int, f: int, gamma):
        self.state = CumulativeState(n, f, gamma)
        self.store = ParkedStore(n - f, self.state.tau_i)
        self.profiles: list[dict] = []
        self.emitted: list[FinalOrder] = []

    # -- shared bits -----------------------------------------------------------

    def _drain_emit(self, landing: Landing, now: int) -> None:
        for order in emit(self.store):
            self.emitted.append(order)
            landing.emitted.append(order)
            landing.events.append(
                {"ev": "order_emitted", "t": now, "replica": None, "r": order.r,
                 "digests": order.digests, "batches": order.batches}
            )

    def _extract(self, record: CommitRecord, claimed=frozenset()) -> tuple[Snapshot, int]:
        t0 = perf_counter_ns()
        snap = extract_snapshot(self.state, record, claimed)
        return snap, perf_counter_ns() - t0

    def _land(
        self, record: CommitRecord, snap: Snapshot, extract_ns: int, weights_ns: int,
        now: int = 0,
    ) -> Landing:
        """Land one subdag, in commit order: tally its votes and resolve every
        target they complete, then phases 2-4 and Emit; ``now`` stamps its
        events."""
        landing = Landing()
        for r in route_votes(self.store, record):
            apply_fair_update(self.store, r)
        self._drain_emit(landing, now)
        r = snap.r
        t0 = perf_counter_ns()
        graph = phase2_build_graph(snap, self.state.tau_i)
        t1 = perf_counter_ns()
        outcome, anchor, k_digests = phase3_anchor(graph)
        t2 = perf_counter_ns()
        apply_result(self.state, r, k_digests)
        t3 = perf_counter_ns()
        parked = None if isinstance(outcome, FinalOrder) else outcome
        landing.events.append(
            {"ev": "graph_built", "t": now, "replica": None, "r": r, "v": len(snap.admitted),
             "m": 0 if parked is None else len(parked.missing), "anchor": anchor,
             "k": len(k_digests), "k_digests": tuple(k_digests)}
        )
        profile = {
            "ev": "graph_profile", "t": now, "replica": None, "r": r,
            "extract_ns": extract_ns, "weights_ns": weights_ns,
            "build_ns": t1 - t0, "scc_ns": t2 - t1, "result_ns": t3 - t2,
        }
        self.profiles.append(profile)
        landing.events.append(profile)
        if parked is None:
            mark_ready(self.store, outcome)
        else:
            landing.events.append(
                {"ev": "graph_parked", "t": now, "replica": None, "r": r,
                 "pairs": tuple(parked.missing)}
            )
            landing.fair_propose = (r, parked.missing)
            park(self.store, parked)
        self._drain_emit(landing, now)
        return landing

    # -- event/serial mode -------------------------------------------------------

    def on_commit(self, record: CommitRecord, now: int = 0) -> Landing:
        """Process one committed subdag to completion (serial task execution);
        ``now`` is the commit time its events carry."""
        snap, extract_ns = self._extract(record)
        t0 = perf_counter_ns()
        phase1_weights(snap)
        return self._land(record, snap, extract_ns, perf_counter_ns() - t0, now)

    def finish(self) -> PipelineResult:
        return PipelineResult(self.emitted, self.profiles, sorted(self.store.parked))

    # -- replay drivers ------------------------------------------------------------

    def replay(self, records: list[CommitRecord]) -> PipelineResult:
        for rec in records:
            self.on_commit(rec)
        return self.finish()

    def replay_concurrent(
        self, records: list[CommitRecord], slots: int = 4,
        pool: ProcessPoolExecutor | None = None,
    ) -> PipelineResult:
        """Concurrent replay: phase 1 parallel across in-flight subdags.

        At most ``slots`` phase-1 tasks are in flight. Only extraction and
        phase 1 run ahead; each record lands, votes first, strictly in commit
        order, so emitted output is scheduling-independent. A snapshot excludes
        the window's solid digests and loses, at landing, what was retained
        since its extraction."""
        own_pool = pool is None
        if own_pool:
            pool = ProcessPoolExecutor(max_workers=slots)
        inflight: deque[tuple[CommitRecord, Snapshot, int, Future]] = deque()

        def land_oldest() -> None:
            rec, snap, extract_ns, fut = inflight.popleft()
            snap.weights, weights_ns = fut.result()
            self._land(rec, drop_retained(snap, self.state.proposed), extract_ns, weights_ns)

        try:
            for rec in records:
                claimed = {d for _, p, _, _ in inflight for d in compress(p.admitted, p.solid)}
                snap, extract_ns = self._extract(rec, claimed)
                fut = pool.submit(_weights_task, len(snap.admitted), snap.orders)
                inflight.append((rec, snap, extract_ns, fut))
                if len(inflight) >= max(1, slots):
                    land_oldest()
            while inflight:
                land_oldest()
        finally:
            if own_pool:
                pool.shutdown()
        return self.finish()

"""Brute-force references and invariant checks that only the tests use."""

from contextlib import contextmanager
from fractions import Fraction
from math import ceil

import numpy as np
import pytest

from batchfair import pipeline
from batchfair.oracle import (
    BatchOfReport,
    FairnessViolation,
    _condensation,
    _precedence,
    batch_ranks,
)


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

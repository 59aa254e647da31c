"""Brute-force references and invariant checks that only the tests use."""

from contextlib import contextmanager

import numpy as np
import pytest

from batchfair import pipeline
from batchfair.oracle import _condensation


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

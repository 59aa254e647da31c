"""Brute-force references that only the tests use."""

import numpy as np

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

import random
from fractions import Fraction

import numpy as np
import pytest

from batchfair.finalize import (
    ParkedStore,
    apply_fair_update,
    emit,
    finalize_order,
    mark_ready,
    route_votes,
)
from batchfair.graph import DepGraph
from batchfair.types import CommitRecord, FairUpdateVote, FinalOrder, VertexRecord, tx_digest


def d(name) -> str:
    return tx_digest(str(name))


def matrix(size: int, edges) -> np.ndarray:
    adj = np.zeros((size, size), dtype=bool)
    for u, v in edges:
        adj[u, v] = True
    return adj


def vote_record(r: int, votes: list[FairUpdateVote]) -> CommitRecord:
    vr = VertexRecord(0, r, f"r{r:04d}a000", (), tuple(votes))
    return CommitRecord(r, vr.vid, (vr,))


def parked_pair_graph(r: int = 3):
    u, v = sorted((d("u"), d("v")))
    g = DepGraph(r, [u, v], matrix(2, []), [(u, v)], np.ones(2, dtype=bool))
    return g, u, v


def test_route_votes_returns_ready_at_n_minus_f():
    store = ParkedStore()
    g, u, v = parked_pair_graph(3)
    store.parked[3] = g
    for author in range(3):
        ready = route_votes(
            store, vote_record(9, [FairUpdateVote(author, 3, ((u, v),))]), 5, 1
        )
        assert ready == []
    ready = route_votes(
        store, vote_record(10, [FairUpdateVote(3, 3, ((u, v),))]), 5, 1
    )
    assert ready == [3]  # 4th distinct author tips n-f = 4


def test_route_votes_duplicate_author_not_counted():
    store = ParkedStore()
    g, u, v = parked_pair_graph(3)
    store.parked[3] = g
    route_votes(store, vote_record(5, [FairUpdateVote(0, 3, ((u, v),))]), 5, 1)
    route_votes(store, vote_record(6, [FairUpdateVote(0, 3, ((v, u),))]), 5, 1)
    assert len(store.votes[3]) == 1
    assert store.votes[3][0] == ((u, v),)  # first vote per author wins


def test_votes_for_finalized_subdag_dropped():
    store = ParkedStore()
    mark_ready(store, FinalOrder(2, (), ()))
    route_votes(store, vote_record(5, [FairUpdateVote(0, 2, ())]), 5, 1)
    assert 2 not in store.votes


def test_votes_for_unknown_subdag_buffered_not_ready():
    store = ParkedStore()
    ready = route_votes(store, vote_record(5, [FairUpdateVote(0, 99, ())]), 5, 1)
    assert ready == [] and 99 in store.votes


def test_apply_unanimous_vote_installs_and_finalizes():
    store = ParkedStore()
    g, u, v = parked_pair_graph(3)
    store.parked[3] = g
    for author in range(4):
        route_votes(store, vote_record(8, [FairUpdateVote(author, 3, ((u, v),))]), 5, 1)
    order = apply_fair_update(store, 3, Fraction(2), 5, 1)
    assert order is not None
    assert order.digests == (u, v)
    assert 3 not in store.parked and store.ready[3] == order


def test_apply_split_tie_installs_smaller_digest_source():
    store = ParkedStore()
    g, u, v = parked_pair_graph(3)
    store.parked[3] = g
    votes = [
        FairUpdateVote(0, 3, ((u, v),)),
        FairUpdateVote(1, 3, ((u, v),)),
        FairUpdateVote(2, 3, ((v, u),)),
        FairUpdateVote(3, 3, ((v, u),)),
    ]
    route_votes(store, vote_record(8, votes), 5, 1)
    order = apply_fair_update(store, 3, Fraction(2), 5, 1)
    # 2/2 at tau=2: both reach the threshold; the smaller digest wins the tie
    assert order.digests == (u, v) and order.batches == ((0, 1), (1, 2))


def test_apply_below_threshold_waits_and_reports_diagnostic():
    store = ParkedStore()
    g, u, v = parked_pair_graph(3)
    store.parked[3] = g
    # n=13, f=3: 10 votes split 5/5 never reach tau=6.6 -> ceil 7
    votes = [FairUpdateVote(a, 3, ((u, v) if a % 2 else (v, u),)) for a in range(10)]
    route_votes(store, vote_record(8, votes), 13, 3)
    order = apply_fair_update(store, 3, Fraction(33, 5), 13, 3)
    assert order is None
    assert 3 in store.parked
    assert store.diagnostics and store.diagnostics[0]["r"] == 3
    # two more votes in one direction push it over
    more = [FairUpdateVote(a, 3, ((u, v),)) for a in (10, 11)]
    route_votes(store, vote_record(9, more), 13, 3)
    order = apply_fair_update(store, 3, Fraction(33, 5), 13, 3)
    assert order is not None and order.digests == (u, v)


def test_apply_ignores_edges_outside_missing_set():
    store = ParkedStore()
    g, u, v = parked_pair_graph(3)
    store.parked[3] = g
    junk = (d("zz"), d("ww"))
    votes = [FairUpdateVote(a, 3, ((u, v), junk)) for a in range(4)]
    route_votes(store, vote_record(8, votes), 5, 1)
    order = apply_fair_update(store, 3, Fraction(2), 5, 1)
    assert order is not None and set(order.digests) == {u, v}


def test_apply_requires_parked():
    store = ParkedStore()
    with pytest.raises(ValueError):
        apply_fair_update(store, 4, Fraction(2), 5, 1)


# -- finalize -----------------------------------------------------------------------


def test_finalize_linear_chain_topological():
    names = sorted([d("x"), d("y"), d("z")])
    # build x -> y -> z in digest order for a deterministic expectation
    g = DepGraph(1, names, matrix(3, [(0, 1), (1, 2)]), [], np.ones(3, dtype=bool))
    order = finalize_order(g)
    assert order.digests == tuple(names)
    assert order.batches == ((0, 1), (1, 2), (2, 3))


def test_finalize_condorcet_single_contiguous_batch():
    names = sorted([d("a"), d("b"), d("c")])
    g = DepGraph(1, names, matrix(3, [(0, 1), (1, 2), (2, 0)]), [], np.ones(3, dtype=bool))
    order = finalize_order(g)
    assert order.batches == ((0, 3),)
    assert order.digests == tuple(names)  # digest-sorted inside the batch


def test_finalize_random_tournament_matches_condensation_oracle():
    from batchfair.oracle import reachability_scc

    rng = random.Random(30)
    nodes = sorted(d(f"t{i}") for i in range(30))
    adj = np.zeros((30, 30), dtype=bool)
    edges = set()
    for i in range(30):
        for j in range(i + 1, 30):
            if rng.random() < 0.5:
                adj[i, j] = True
                edges.add((nodes[i], nodes[j]))
            else:
                adj[j, i] = True
                edges.add((nodes[j], nodes[i]))
    order = finalize_order(DepGraph(1, nodes, adj, [], np.zeros(30, dtype=bool)))
    expected = []
    for scc in reachability_scc(nodes, edges):
        expected.extend(sorted(scc))
    assert list(order.digests) == expected
    # batch boundaries are exactly the SCC runs
    sizes = [e - s for s, e in order.batches]
    assert sizes == [len(scc) for scc in reachability_scc(nodes, edges)]


# -- emit ---------------------------------------------------------------------------


def test_emit_in_order_and_gap_gating():
    store = ParkedStore()
    mark_ready(store, FinalOrder(2, (d("b"),), ((0, 1),)))
    assert emit(store) == []  # gap: 1 not ready yet
    mark_ready(store, FinalOrder(1, (d("a"),), ((0, 1),)))
    out = emit(store)
    assert [o.r for o in out] == [1, 2]
    assert store.next == 3


def test_emit_drains_run_of_ready():
    store = ParkedStore()
    for r in (3, 1, 2):
        mark_ready(store, FinalOrder(r, (), ()))
    assert [o.r for o in emit(store)] == [1, 2, 3]
    assert emit(store) == []

import random
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batchfair.finalize import (
    ParkedStore,
    apply_fair_update,
    emit,
    finalize_order,
    mark_ready,
    park,
    route_votes,
)
from batchfair.dagsim import Simulator
from batchfair.graph import DepGraph
from batchfair.oracle import serial_reference
from batchfair.pipeline import FairnessPipeline
from batchfair.scenarios import build_scenario
from batchfair.types import CommitRecord, FairUpdateVote, FinalOrder, VertexRecord, tx_digest
from reference import reachability_scc


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
    store = ParkedStore(4, 2)  # n=5, f=1: n-f = 4 authors, tau = 2
    g, u, v = parked_pair_graph(3)
    park(store, g)
    for author in range(3):
        ready = route_votes(store, vote_record(9, [FairUpdateVote(author, 3, ((u, v),))]))
        assert ready == []  # u->v is at tau after two votes, but only n-f authors resolve
    ready = route_votes(store, vote_record(10, [FairUpdateVote(3, 3, ((u, v),))]))
    assert ready == [3]  # 4th distinct author tips n-f = 4
    # a sufficient tally takes no further vote
    route_votes(store, vote_record(11, [FairUpdateVote(4, 3, ((v, u),))]))
    assert store.parked[3].authors == {0, 1, 2, 3}
    assert store.parked[3].counts == {(u, v): [4, 0]}


def test_route_votes_duplicate_author_not_counted():
    store = ParkedStore(4, 2)
    g, u, v = parked_pair_graph(3)
    park(store, g)
    route_votes(store, vote_record(5, [FairUpdateVote(0, 3, ((u, v),))]))
    route_votes(store, vote_record(6, [FairUpdateVote(0, 3, ((v, u),))]))
    # first vote per author wins
    assert store.parked[3].authors == {0} and store.parked[3].counts == {(u, v): [1, 0]}


def test_votes_for_finalized_subdag_dropped():
    store = ParkedStore(4, 2)
    mark_ready(store, FinalOrder(2, (), ()))
    assert route_votes(store, vote_record(5, [FairUpdateVote(0, 2, ())])) == []
    assert store.parked == {} and store.ready == {2: FinalOrder(2, (), ())}


def test_votes_for_later_subdag_dropped():
    # a vote can only target a subdag that landed before the record carrying it
    store = ParkedStore(4, 2)
    g, u, v = parked_pair_graph(3)
    park(store, g)
    votes = [FairUpdateVote(0, 99, ()), FairUpdateVote(1, 5, ()), FairUpdateVote(2, 3, ((u, v),))]
    assert route_votes(store, vote_record(5, votes)) == []
    assert list(store.parked) == [3] and store.parked[3].authors == {2}


def test_premature_vote_does_not_take_the_authors_first_vote():
    """Each author first votes, reversed, for the subdag being committed; the
    premature votes are dropped on both sides, and the valid ones decide."""
    scenario = build_scenario("wire_binary")
    cfg = scenario.config
    res = Simulator(cfg, scenario.faults, scenario.clients, scenario.spikes).run()
    target = next(v.target_r for rec in res.records for v in rec.votes())
    premature = tuple(
        FairUpdateVote(v.author, target, tuple((b, a) for a, b in v.edges))
        for rec in res.records for v in rec.votes() if v.target_r == target
    )
    assert premature and any(v.edges for v in premature)
    records = [
        replace(rec, vertices=(
            replace(rec.vertices[0], votes=premature + rec.vertices[0].votes), *rec.vertices[1:]
        ))
        if rec.r == target else rec
        for rec in res.records
    ]
    replay = FairnessPipeline(cfg.n, cfg.f, cfg.gamma).replay(records)
    assert replay.emitted == serial_reference(records, cfg.n, cfg.f, cfg.gamma).orders
    assert replay.emitted == res.pipeline.emitted


def test_vote_routed_before_its_target_parks_is_dropped():
    # a vote counts only if its target is parked when the vote's record lands
    store = ParkedStore(4, 2)
    g, u, v = parked_pair_graph(3)
    early = [FairUpdateVote(a, 3, ((u, v),)) for a in range(4)]
    assert route_votes(store, vote_record(8, early)) == []  # not parked yet
    park(store, g)
    tally = store.parked[3]
    assert tally.authors == set() and tally.counts == {(u, v): [0, 0]} and tally.short == 1
    assert apply_fair_update(store, 3) is None
    # the same authors voting again once it is parked do count
    assert route_votes(store, vote_record(9, early)) == [3]
    order = apply_fair_update(store, 3)
    assert order is not None and order.digests == (u, v)


def test_apply_unanimous_vote_installs_and_finalizes():
    store = ParkedStore(4, 2)
    g, u, v = parked_pair_graph(3)
    park(store, g)
    for author in range(4):
        route_votes(store, vote_record(8, [FairUpdateVote(author, 3, ((u, v),))]))
    order = apply_fair_update(store, 3)
    assert order is not None
    assert order.digests == (u, v)
    assert 3 not in store.parked and store.ready[3] == order


def test_apply_split_tie_installs_smaller_digest_source():
    store = ParkedStore(4, 2)
    g, u, v = parked_pair_graph(3)
    park(store, g)
    votes = [
        FairUpdateVote(0, 3, ((u, v),)),
        FairUpdateVote(1, 3, ((u, v),)),
        FairUpdateVote(2, 3, ((v, u),)),
        FairUpdateVote(3, 3, ((v, u),)),
    ]
    assert route_votes(store, vote_record(8, votes)) == [3]
    order = apply_fair_update(store, 3)
    # 2/2 at tau=2: both reach the threshold; the smaller digest wins the tie
    assert order.digests == (u, v) and order.batches == ((0, 1), (1, 2))


def test_apply_below_threshold_waits_and_reports_diagnostic():
    store = ParkedStore(10, 7)  # n=13, f=3: tau = 6.6 -> 7
    g, u, v = parked_pair_graph(3)
    park(store, g)
    # 10 votes split 5/5 never reach 7
    votes = [FairUpdateVote(a, 3, ((u, v) if a % 2 else (v, u),)) for a in range(10)]
    assert route_votes(store, vote_record(8, votes)) == []
    assert apply_fair_update(store, 3) is None
    # the live tally shows why: 10 authors, the pair split 5/5 and still short
    tally = store.parked[3]
    assert len(tally.authors) == 10 and tally.counts == {(u, v): [5, 5]} and tally.short == 1
    # two more votes in one direction push it over
    more = [FairUpdateVote(a, 3, ((u, v),)) for a in (10, 11)]
    assert route_votes(store, vote_record(9, more)) == [3]
    order = apply_fair_update(store, 3)
    assert order is not None and order.digests == (u, v)


def test_apply_ignores_edges_outside_missing_set():
    store = ParkedStore(4, 2)
    g, u, v = parked_pair_graph(3)
    park(store, g)
    junk = (d("zz"), d("ww"))
    votes = [FairUpdateVote(a, 3, ((u, v), junk)) for a in range(4)]
    route_votes(store, vote_record(8, votes))
    order = apply_fair_update(store, 3)
    assert order is not None and set(order.digests) == {u, v}


def test_apply_requires_parked():
    store = ParkedStore(4, 2)
    with pytest.raises(ValueError):
        apply_fair_update(store, 4)


# -- the running tally against a prefix re-tally -------------------------------------


def reference_tally(missing, edge_lists):
    """Tally every missing pair (u < v) as (u->v, v->u) over the given votes."""
    counts = {pair: [0, 0] for pair in missing}
    for edges in edge_lists:
        for u, v in edges:
            pair = (u, v) if u <= v else (v, u)
            slot = counts.get(pair)
            if slot is not None:
                slot[0 if (u, v) == pair else 1] += 1
    return {p: (c[0], c[1]) for p, c in counts.items()}


class PrefixRetally:
    """Reference resolution of one parked subdag: once it is parked, keep the
    first vote of each author in arrival order and, on every attempt,
    re-tally each author prefix from n-f up, resolving at the first one that
    decides every missing pair at tau."""

    def __init__(self, graph: DepGraph, need: int, tau_i: int):
        self.graph, self.need, self.tau_i = graph, need, tau_i
        self.votes: dict[int, tuple] = {}
        self.parked = False
        self.order = None

    def route(self, record: CommitRecord) -> None:
        if not self.parked or self.order is not None:
            return
        for vote in record.votes():
            if vote.target_r == self.graph.r:
                self.votes.setdefault(vote.author, vote.edges)

    def attempt(self):
        authors = list(self.votes)
        if self.order is not None or len(authors) < self.need:
            return None
        for k in range(self.need, len(authors) + 1):
            tallies = reference_tally(self.graph.missing, [self.votes[a] for a in authors[:k]])
            if all(max(c) >= self.tau_i for c in tallies.values()):
                break
        else:
            return None
        idx = {x: i for i, x in enumerate(self.graph.nodes)}
        for (u, v), (wuv, wvu) in tallies.items():
            a, b = (u, v) if wuv >= wvu else (v, u)
            self.graph.adj[idx[a], idx[b]] = True
        self.graph.missing = []
        self.order = finalize_order(self.graph)
        return self.order


@settings(max_examples=400, deadline=None)
@given(data=st.data(), nf=st.sampled_from([(3, 0), (5, 1), (7, 1)]),
       tau_i=st.integers(1, 3), size=st.integers(2, 4))
def test_running_tally_matches_prefix_retally(data, nf, tau_i, size):
    n, f = nf
    nodes = sorted(d(f"p{i}") for i in range(size))
    pairs = list(combinations(nodes, 2))
    missing = data.draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True), label="missing")
    missing.sort(key=pairs.index)
    adj = np.zeros((size, size), dtype=bool)
    for a, b in combinations(range(size), 2):
        if (nodes[a], nodes[b]) not in missing:
            adj[(a, b) if data.draw(st.booleans(), label="dir") else (b, a)] = True
    # votes: both directions of missing pairs, decided pairs, junk, repeats
    edge = st.one_of(
        st.sampled_from(missing).flatmap(lambda p: st.sampled_from([p, p[::-1]])),
        st.sampled_from(pairs),
        st.just((d("junk"), nodes[0])),
    )
    # an honest vote directs every missing pair once
    honest = st.tuples(*(st.sampled_from([p, p[::-1]]) for p in missing)).map(list)
    # every author of range(n + 1) votes, some before the subdag parks (those
    # are dropped); some authors vote again later
    authors = list(data.draw(st.permutations(range(n + 1)), label="authors"))
    for again in data.draw(st.lists(st.sampled_from(range(n + 1)), max_size=3), label="again"):
        authors.insert(data.draw(st.integers(0, len(authors)), label="at"), again)
    records: list[list[FairUpdateVote]] = [[]]
    for author in authors:
        target = data.draw(st.sampled_from([3, 3, 3, 9]), label="target")
        edges = data.draw(st.one_of(honest, st.lists(edge, max_size=2 * len(missing) + 1)),
                          label="edges")
        records[-1].append(FairUpdateVote(author, target, tuple(edges)))
        if data.draw(st.booleans(), label="cut"):
            records.append([])  # several authors share a record until a cut
    park_at = data.draw(st.integers(0, len(records)), label="park_at")

    ours = DepGraph(3, list(nodes), adj.copy(), list(missing), np.ones(size, dtype=bool))
    theirs = DepGraph(3, list(nodes), adj.copy(), list(missing), np.ones(size, dtype=bool))
    store, ref = ParkedStore(n - f, tau_i), PrefixRetally(theirs, n - f, tau_i)
    got, want = [], []
    for i in range(len(records) + 1):
        if i == park_at:
            park(store, ours)
            ref.parked = True
        if i == len(records):
            break
        rec = vote_record(10 + i, records[i])
        for r in route_votes(store, rec):
            got.append((i, apply_fair_update(store, r)))
        ref.route(rec)
        if (order := ref.attempt()) is not None:
            want.append((i, order))
    assert got == want
    assert (ours.adj == theirs.adj).all()
    assert (3 in store.parked) == (ref.order is None)


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
    store = ParkedStore(4, 2)
    mark_ready(store, FinalOrder(2, (d("b"),), ((0, 1),)))
    assert emit(store) == []  # gap: 1 not ready yet
    mark_ready(store, FinalOrder(1, (d("a"),), ((0, 1),)))
    out = emit(store)
    assert [o.r for o in out] == [1, 2]
    assert store.next == 3


def test_emit_drains_run_of_ready():
    store = ParkedStore(4, 2)
    for r in (3, 1, 2):
        mark_ready(store, FinalOrder(r, (), ()))
    assert [o.r for o in emit(store)] == [1, 2, 3]
    assert emit(store) == []

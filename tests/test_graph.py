import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batchfair import graph, pipeline
from batchfair.dagsim import Simulator
from batchfair.graph import (
    CumulativeState,
    DepGraph,
    Snapshot,
    apply_result,
    classify,
    count_threshold,
    drop_retained,
    extract_snapshot,
    phase1_weights,
    phase2_build_graph,
    phase3_anchor,
    scc_positions,
    weight_counts,
)
from batchfair.params import edge_threshold, solid_threshold
from batchfair.scenarios import build_scenario
from batchfair.types import DIRECT, CommitRecord, FinalOrder, VertexRecord, tx_digest
from reference import reachability_scc


def d(name) -> str:
    return tx_digest(str(name))


def brute_force_weights(orders: dict, u: str, v: str) -> tuple[int, int]:
    """Independent pair counter: scan every list, count each direction."""
    uv = vu = 0
    for lst in orders.values():
        if u in lst and v in lst:
            if lst.index(u) < lst.index(v):
                uv += 1
            else:
                vu += 1
    return uv, vu


def brute_force_support(orders: dict, tx: str) -> int:
    return sum(1 for lst in orders.values() if tx in lst)


def snapshot(orders: dict, n: int, f: int, gamma) -> Snapshot:
    """Subdag 1's snapshot of digest orders, classified at (n, f, gamma)."""
    tau_i = count_threshold(edge_threshold(n, f, gamma))
    return classify(1, orders, tau_i, solid_threshold(n, f))


def solid_digests(snap: Snapshot) -> list[str]:
    return [snap.admitted[i] for i in np.flatnonzero(snap.solid)]


def digest_orders(snap: Snapshot) -> dict:
    return {a: tuple(snap.admitted[i] for i in fi) for a, fi in snap.orders.items()}


def weight(rep, u: str, v: str) -> int:
    """Cached phase-1 weight: orders placing u before v."""
    return rep.weights[rep.admitted.index(u), rep.admitted.index(v)]


def reference_weight_counts(m: int, orders: dict[int, list[int]]) -> np.ndarray:
    """Brute-force phase 1: one Python increment per ordered pair an author
    lists, into an unbounded integer matrix."""
    weights = [[0] * m for _ in range(m)]
    for fi in orders.values():
        for a, i in enumerate(fi):
            for j in fi[a + 1:]:
                weights[i][j] += 1
    return np.array(weights, dtype=np.int64).reshape(m, m)


def assert_same_counts(weights: np.ndarray, m: int, orders: dict) -> None:
    """Bit for bit: the reference's values, in an unsigned dtype that holds
    the author count."""
    assert weights.shape == (m, m)
    assert weights.dtype.kind == "u"
    assert np.iinfo(weights.dtype).max >= len(orders)
    assert np.array_equal(weights, reference_weight_counts(m, orders))


def edges_of(g) -> set[tuple[str, str]]:
    return {(g.nodes[u], g.nodes[v]) for u, v in zip(*np.nonzero(g.adj))}


def matrix(size: int, edges) -> np.ndarray:
    adj = np.zeros((size, size), dtype=bool)
    for u, v in edges:
        adj[u, v] = True
    return adj


# -- phase 1 -----------------------------------------------------------------------


def test_condorcet_weights_and_classes():
    # three cyclic orders; tau = 2, tau_s = 3 at n=3, f=0, gamma=2/3
    a, b, c = d("a"), d("b"), d("c")
    snap = snapshot({0: (a, b, c), 1: (b, c, a), 2: (c, a, b)}, 3, 0, Fraction(2, 3))
    rep = phase1_weights(snap)
    assert rep.admitted == sorted([a, b, c])
    assert rep.solid.dtype == bool and solid_digests(rep) == sorted([a, b, c])
    assert (weight(rep, a, b), weight(rep, b, a)) == (2, 1)
    assert (weight(rep, b, c), weight(rep, c, b)) == (2, 1)
    assert (weight(rep, c, a), weight(rep, a, c)) == (2, 1)


def test_empty_snapshot_empty_report():
    rep = phase1_weights(snapshot({}, 5, 1, 1))
    assert rep.admitted == [] and len(rep.solid) == 0 and len(rep.weights) == 0


def test_phase1_matches_brute_force_fixed():
    rng = random.Random(11)
    txs = [d(i) for i in range(12)]
    orders = {}
    for rep_id in range(5):
        lst = [t for t in txs if rng.random() < 0.8]
        rng.shuffle(lst)
        orders[rep_id] = tuple(lst)
    rep = phase1_weights(snapshot(orders, 5, 1, 1))
    tau_i = count_threshold(edge_threshold(5, 1, 1))
    for t in txs:
        assert (brute_force_support(orders, t) >= tau_i) == (t in rep.admitted)
    for u, v in combinations(rep.admitted, 2):
        assert (weight(rep, u, v), weight(rep, v, u)) == brute_force_weights(orders, u, v)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.sampled_from([3, 5, 7]))
def test_phase1_matches_brute_force_property(data, n):
    universe = [d(i) for i in range(8)]
    orders = {}
    for i in range(n):
        lst = data.draw(st.permutations(universe), label=f"order{i}")
        cut = data.draw(st.integers(0, len(universe)), label=f"cut{i}")
        orders[i] = tuple(lst[:cut])
    f = (n - 1) // 4
    rep = phase1_weights(snapshot(orders, n, f, 1))
    for u, v in combinations(rep.admitted, 2):
        assert (weight(rep, u, v), weight(rep, v, u)) == brute_force_weights(orders, u, v)
    assert_same_counts(rep.weights, len(rep.admitted), rep.orders)
    # weight purity: rerunning yields identical results
    again = phase1_weights(snapshot(orders, n, f, 1))
    assert np.array_equal(again.weights, rep.weights) and again.admitted == rep.admitted


def test_phase1_counts_past_255_authors_do_not_wrap():
    m = 6
    rng = random.Random(300)
    orders = {}
    for author in range(300):
        order = list(range(m)) if author < 280 else rng.sample(range(m), rng.randint(1, m))
        orders[author] = order
    weights = weight_counts(m, orders)
    assert weights.dtype == np.uint16
    assert weights[0, 1] >= 280
    assert_same_counts(weights, m, orders)


@pytest.mark.parametrize("authors", [13, 300])
@pytest.mark.parametrize("budget", [1, 10_000])
def test_phase1_blocks_of_authors_match_reference(monkeypatch, budget, authors):
    # 1 byte: one author per block; 10,000 bytes: blocks of 6 at m = 40
    monkeypatch.setattr(graph, "PHASE1_BLOCK_BYTES", budget)
    rng = random.Random(authors)
    m = 40
    orders = {a: rng.sample(range(m), rng.randint(1, m)) for a in range(authors)}
    weights = weight_counts(m, orders)
    assert weights.dtype == (np.uint16 if authors > 255 else np.uint8)
    assert_same_counts(weights, m, orders)


@pytest.mark.parametrize(
    "name, seed", [("profile_bench", seed) for seed in range(5)] + [("speedup_bench", 0)]
)
def test_phase1_matches_reference_on_every_bench_snapshot(monkeypatch, name, seed):
    """Every in-loop snapshot of the shipped benchmark scenarios."""
    checked = []
    kernel = pipeline.phase1_weights

    def checking(snap):
        kernel(snap)
        assert_same_counts(snap.weights, len(snap.admitted), snap.orders)
        checked.append(len(snap.admitted))
        return snap

    monkeypatch.setattr(pipeline, "phase1_weights", checking)
    sc = build_scenario(name, seed=seed)
    res = Simulator(sc.config, sc.faults, sc.clients, sc.spikes).run()
    assert len(checked) == len(res.records) and max(checked) >= 100


# -- phase 2 ------------------------------------------------------------------------


def _condorcet_report():
    a, b, c = d("a"), d("b"), d("c")
    snap = snapshot({0: (a, b, c), 1: (b, c, a), 2: (c, a, b)}, 3, 0, Fraction(2, 3))
    return phase1_weights(snap), (a, b, c)


def test_phase2_condorcet_builds_cycle_no_missing():
    rep, (a, b, c) = _condorcet_report()
    g = phase2_build_graph(rep, 2)  # tau = 2 at n=3, f=0, gamma=2/3
    assert g.missing == []
    assert edges_of(g) == {(a, b), (b, c), (c, a)}


def test_phase2_below_threshold_pair_is_missing():
    x, y = d("x"), d("y")
    # two replicas disagree 1/1, tau = 2
    snap = snapshot({0: (x, y), 1: (y, x), 2: ()}, 3, 0, Fraction(2, 3))
    rep = phase1_weights(snap)
    g = phase2_build_graph(rep, 2)
    assert g.missing == [tuple(sorted((x, y)))]
    assert not g.adj.any()


def test_phase2_tie_at_threshold_goes_to_smaller_digest():
    x, y = sorted((d("p"), d("q")))
    snap = snapshot({0: (x, y), 1: (x, y), 2: (y, x), 3: (y, x), 4: ()}, 5, 1, 1)
    rep = phase1_weights(snap)  # tau = 2; 2/2 tie
    g = phase2_build_graph(rep, 2)
    assert edges_of(g) == {(x, y)}


def test_phase2_chain_filter_removes_before_edges():
    rep, (a, b, c) = _condorcet_report()
    g = phase2_build_graph(drop_retained(rep, frozenset({b})), 2)
    assert b not in g.nodes
    assert edges_of(g) == {(c, a)}  # only the a/c pair survives the filter
    assert g.solid.tolist() == [True, True]


def test_phase2_builds_over_the_snapshot_as_it_is():
    # phase 2 filters nothing: its vertices and solid mask are the snapshot's own
    rep, _ = _condorcet_report()
    g = phase2_build_graph(rep, 2)
    assert g.nodes is rep.admitted and g.solid is rep.solid


def scalar_phase2(report, proposed, tau_i: int):
    """Reference rule: the per-pair loop phase 2 ran before it used masks.

    Returns the kept nodes, the edge set and the missing pairs in loop order.
    """
    keep = [x for x in report.admitted if x not in proposed]
    idx_of = {x: k for k, x in enumerate(report.admitted)}
    w = report.weights
    edges, missing = set(), []
    for a in range(len(keep)):
        for b in range(a + 1, len(keep)):
            ia, ib = idx_of[keep[a]], idx_of[keep[b]]
            wab, wba = int(w[ia, ib]), int(w[ib, ia])
            if wab >= tau_i or wba >= tau_i:
                edges.add((keep[a], keep[b]) if wab >= wba else (keep[b], keep[a]))
            else:
                missing.append((keep[a], keep[b]))
    return keep, edges, missing


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m=st.integers(0, 12), tau_i=st.integers(1, 4))
def test_phase2_masks_match_scalar_pair_rule(data, m, tau_i):
    admitted = sorted(d(f"w{i}") for i in range(m))
    weights = np.zeros((m, m), dtype=np.uint8)
    for i in range(m):
        for j in range(i + 1, m):
            wij = data.draw(st.integers(0, tau_i + 2))
            # exact ties, at, above and below tau, are what the tie rule decides
            tie = data.draw(st.booleans())
            wji = wij if tie else data.draw(st.integers(0, tau_i + 2))
            weights[i, j], weights[j, i] = wij, wji
    picks = st.sets(st.sampled_from(admitted)) if admitted else st.just(set())
    proposed = frozenset(data.draw(picks)) | {d("retained earlier")}
    solid = frozenset(data.draw(picks))
    mask = np.array([x in solid for x in admitted], dtype=bool)
    report = Snapshot(1, admitted, mask, {}, weights)
    g = phase2_build_graph(drop_retained(report, proposed), tau_i)
    keep, edges, missing = scalar_phase2(report, proposed, tau_i)
    assert g.nodes == keep
    assert edges_of(g) == edges
    assert g.missing == missing
    assert g.solid.tolist() == [x in solid for x in keep]


# -- SCC positions -----------------------------------------------------------------


def scc_members(adj: np.ndarray) -> list[list[int]]:
    """The SCCs in canonical order, each as its ascending member indices."""
    pos = scc_positions(adj)
    return [np.flatnonzero(pos == p).tolist() for p in range(pos.max(initial=-1) + 1)]


def reference_members(adj: np.ndarray) -> list[list[int]]:
    """The oracle closure's SCCs of the same graph, as member indices."""
    nodes = sorted(d(f"v{i}") for i in range(len(adj)))
    edges = {(nodes[u], nodes[v]) for u, v in zip(*np.nonzero(adj))}
    index = {x: i for i, x in enumerate(nodes)}
    return [[index[x] for x in scc] for scc in reachability_scc(nodes, edges)]


def near_tournament(rng, size: int, p_missing: float, p_forward: float) -> np.ndarray:
    """One direction or none per pair, the shape phase 2 hands phase 3."""
    adj = np.zeros((size, size), dtype=bool)
    for u, v in combinations(range(size), 2):
        if rng.random() >= p_missing:
            if rng.random() < p_forward:
                adj[u, v] = True
            else:
                adj[v, u] = True
    return adj


def test_scc_positions_empty_graph():
    pos = scc_positions(np.zeros((0, 0), dtype=bool))
    assert pos.shape == (0,)


def test_scc_positions_one_vertex():
    assert scc_positions(np.zeros((1, 1), dtype=bool)).tolist() == [0]


def test_scc_three_cycle_single_scc():
    assert scc_members(matrix(3, [(0, 1), (1, 2), (2, 0)])) == [[0, 1, 2]]


def test_scc_one_giant_component():
    # a Hamiltonian cycle through a random tournament makes one SCC of all
    rng = random.Random(40)
    size = 40
    adj = near_tournament(rng, size, 0.0, 0.5)
    cycle = rng.sample(range(size), size)
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        adj[u, v], adj[v, u] = True, False
    assert scc_positions(adj).tolist() == [0] * size
    assert scc_members(adj) == reference_members(adj)


@pytest.mark.parametrize("forward", [True, False])
def test_scc_transitive_tournament_is_all_singletons(forward):
    size = 30
    rng = random.Random(30)
    rank = rng.sample(range(size), size)  # vertex v sits at rank[v]
    adj = np.zeros((size, size), dtype=bool)
    for u, v in combinations(range(size), 2):
        first, second = (u, v) if (rank[u] < rank[v]) == forward else (v, u)
        adj[first, second] = True
    pos = scc_positions(adj)
    want = rank if forward else [size - 1 - x for x in rank]
    assert pos.tolist() == want
    assert scc_members(adj) == reference_members(adj)


def test_scc_singleton_chain_in_topo_order():
    assert scc_members(matrix(4, [(0, 1), (1, 2), (2, 3)])) == [[0], [1], [2], [3]]


def test_scc_ties_break_by_smallest_member():
    # sources {2} and {3}; once {2} is out, {1, 4} (key 1) goes before {3}
    adj = matrix(5, [(3, 0), (1, 4), (2, 4), (4, 1)])
    assert scc_members(adj) == [[2], [1, 4], [3], [0]]
    assert scc_members(adj) == reference_members(adj)


def test_scc_matches_reachability_oracle_random_50():
    # a general digraph: some pairs carry both directions
    rng = random.Random(50)
    adj = np.zeros((50, 50), dtype=bool)
    for u in range(50):
        for v in range(50):
            if u != v and rng.random() < 0.06:
                adj[u, v] = True
    assert scc_members(adj) == reference_members(adj)  # same SCCs, same canonical order


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    size=st.integers(1, 30),
    p_missing=st.sampled_from([0.0, 0.02, 0.1, 0.3, 0.7, 0.95]),
    p_forward=st.floats(0.0, 1.0),
)
def test_scc_matches_reachability_oracle_property(seed, size, p_missing, p_forward):
    adj = near_tournament(random.Random(seed), size, p_missing, p_forward)
    assert scc_members(adj) == reference_members(adj)


# -- phase 3 -------------------------------------------------------------------------


def test_phase3_condorcet_single_scc_is_anchor():
    rep, (a, b, c) = _condorcet_report()
    g = phase2_build_graph(rep, 2)
    trunc, anchor, k = phase3_anchor(g)
    assert anchor == 1
    assert sorted(k) == sorted([a, b, c])


def test_phase3_truncates_past_anchor():
    # x -> y -> z with only x solid: y, z return to pending
    x, y, z = d("x1"), d("y1"), d("z1")
    snap = snapshot({0: (x, y, z), 1: (x, y, z), 2: (x,)}, 5, 1, 1)
    rep = phase1_weights(snap)  # tau=2, tau_s=3
    assert solid_digests(rep) == [x]
    g = phase2_build_graph(rep, 2)
    order, anchor, k = phase3_anchor(g)
    assert k == [x]
    assert order == FinalOrder(1, (x,), ((0, 1),))


def test_phase3_no_solid_retains_nothing():
    x, y = d("x2"), d("y2")
    st_ = CumulativeState(5, 1, 1)
    st_.proposed.add(d("old"))
    snap = extract_snapshot(st_, _record(1, {0: [x, y], 1: [x, y]}))
    rep = phase1_weights(snap)  # support 2 < tau_s=3: shaded only
    g = phase2_build_graph(rep, 2)
    trunc, anchor, k = phase3_anchor(g)
    assert anchor == 0 and k == []
    apply_result(st_, 1, k)
    assert st_.proposed == {d("old")}


def test_phase3_empty_graph():
    g = phase2_build_graph(phase1_weights(snapshot({}, 5, 1, 1)), 2)
    trunc, anchor, k = phase3_anchor(g)
    assert anchor == 0 and k == [] and trunc == FinalOrder(1, (), ())


def test_phase3_matches_reference_on_near_tournaments():
    """Anchor, retained digests, missing pairs and the final order or parked
    graph, against the oracle closure's SCCs of random phase-2-shaped graphs."""
    seen = Counter()
    for seed in range(300):
        rng = random.Random(seed)
        size = rng.randint(1, 24)
        adj = near_tournament(rng, size, rng.choice([0.0, 0.02, 0.1, 0.3]), rng.random())
        nodes = sorted(d(f"v{i}") for i in range(size))
        solid = np.array([rng.random() < 0.15 for _ in range(size)], dtype=bool)
        missing = [(nodes[a], nodes[b]) for a, b in combinations(range(size), 2)
                   if not adj[a, b] and not adj[b, a]]
        outcome, anchor, k = phase3_anchor(DepGraph(1, nodes, adj.copy(), missing, solid))

        members = reference_members(adj)
        want_anchor = 1 + max((i for i, scc in enumerate(members) if solid[scc].any()), default=-1)
        kept = sorted(v for scc in members[:want_anchor] for v in scc)
        kept_set = {nodes[v] for v in kept}
        assert anchor == want_anchor
        assert k == [nodes[v] for v in kept]
        want_missing = [p for p in missing if set(p) <= kept_set]
        if want_missing:
            assert isinstance(outcome, DepGraph)
            assert outcome.nodes == k and outcome.missing == want_missing
            assert np.array_equal(outcome.adj, adj[np.ix_(kept, kept)])
            assert np.array_equal(outcome.solid, solid[kept])
        else:
            ends = np.cumsum([len(scc) for scc in members[:want_anchor]]).tolist()
            assert outcome == FinalOrder(
                1, tuple(nodes[v] for scc in members[:want_anchor] for v in scc),
                tuple(zip([0, *ends[:-1]], ends)),
            )
        seen[len(kept) == size, bool(want_missing)] += 1
    # every vertex kept or some truncated, each finalized or parked
    assert len(seen) == 4 and min(seen.values()) >= 10, seen


# -- phase 4 --------------------------------------------------------------------------


def test_phase4_finalizes_without_missing():
    rep, (a, b, c) = _condorcet_report()
    g = phase2_build_graph(rep, 2)
    order, *_ = phase3_anchor(g)
    assert order.digests == tuple(sorted([a, b, c]))
    assert order.batches == ((0, 3),)


def test_phase4_parks_with_missing():
    x, y = d("x"), d("y")
    snap = snapshot({0: (x, y), 1: (y, x), 2: (x, y), 3: (x,), 4: (y,)}, 5, 1, 1)
    rep = phase1_weights(snap)
    g = phase2_build_graph(rep, 3)  # force 2/1 below 3
    trunc, *_ = phase3_anchor(g)
    assert trunc.missing == [tuple(sorted((x, y)))]
    assert trunc.adj.shape == (2, 2) and not trunc.adj.any()


# -- cumulative state: extract + apply -------------------------------------------------


def _record(r, contributions: dict[int, list[str]]) -> CommitRecord:
    vrs = []
    for author in sorted(contributions):
        entries = tuple((DIRECT, dg, i) for i, dg in enumerate(contributions[author]))
        vrs.append(VertexRecord(author, r, f"r{r:04d}a{author:03d}", entries))
    return CommitRecord(r, f"r{r:04d}a000", tuple(vrs))


def test_extract_first_subdag_base_case():
    st_ = CumulativeState(3, 0, Fraction(2, 3))
    snap = extract_snapshot(st_, _record(1, {0: [d("x")], 1: [d("x")], 2: [d("x")]}))
    assert snap.admitted == [d("x")]
    assert snap.orders == {0: [0], 1: [0], 2: [0]}
    assert digest_orders(snap) == {0: (d("x"),), 1: (d("x"),), 2: (d("x"),)}
    assert solid_digests(snap) == [d("x")]  # support 3 >= tau_s = 3


def test_extract_single_reporter_stays_blank_no_claim():
    st_ = CumulativeState(4, 1, 1)
    snap = extract_snapshot(st_, _record(1, {2: [d("a"), d("b")]}))
    assert solid_digests(snap) == []
    # support 1 < tau_i = 2: nothing is admitted, and both stay pending in order
    assert snap.admitted == [] and snap.orders == {}
    assert list(st_.pending[2]) == [d("a"), d("b")]


def test_claimed_tx_excluded_from_next_snapshot_before_apply():
    rec2 = _record(2, {0: [d("t")], 1: [d("t")], 2: [d("t")]})
    for window in (False, True):
        st_ = CumulativeState(3, 0, Fraction(2, 3))
        snap1 = extract_snapshot(st_, _record(1, {0: [d("s")], 1: [d("s")], 2: [d("s")]}))
        # subdag 1 has NOT landed; with it in the window, its solid s is claimed
        claimed = set(solid_digests(snap1)) if window else frozenset()
        snap2 = extract_snapshot(st_, rec2, claimed)
        flat = {dg for order in digest_orders(snap2).values() for dg in order}
        assert (d("s") in flat) != window and d("t") in flat


def test_out_of_order_extract_rejected():
    st_ = CumulativeState(3, 0, Fraction(2, 3))
    with pytest.raises(ValueError):
        extract_snapshot(st_, _record(2, {0: [d("x")]}))


def test_apply_result_promotes_and_keeps_truncated_pending():
    st_ = CumulativeState(3, 0, Fraction(2, 3))
    extract_snapshot(st_, _record(1, {0: [d("k"), d("z")], 1: [d("k")], 2: [d("k")]}))
    apply_result(st_, 1, [d("k")])
    assert d("k") in st_.proposed and {a: list(p) for a, p in st_.pending.items()} == {
        0: [d("z")], 1: [], 2: []}
    # truncated tx stays pending and reappears in the next snapshot
    snap2 = extract_snapshot(st_, _record(2, {1: [d("z")], 2: [d("z")]}))
    flat = {dg for order in digest_orders(snap2).values() for dg in order}
    assert d("z") in flat and d("k") not in flat


def test_apply_result_twice_rejected():
    st_ = CumulativeState(3, 0, Fraction(2, 3))
    extract_snapshot(st_, _record(1, {0: [d("k")]}))
    apply_result(st_, 1, [])
    with pytest.raises(ValueError):
        apply_result(st_, 1, [])


def test_apply_result_out_of_order_rejected():
    st_ = CumulativeState(3, 0, Fraction(2, 3))
    extract_snapshot(st_, _record(1, {0: [d("k")]}))
    extract_snapshot(st_, _record(2, {0: [d("z")]}))
    with pytest.raises(ValueError, match="applied out of order"):
        apply_result(st_, 2, [])


def test_graphed_tx_never_reenters_via_late_echo():
    st_ = CumulativeState(3, 0, Fraction(2, 3))
    extract_snapshot(st_, _record(1, {0: [d("k")], 1: [d("k")], 2: [d("k")]}))
    apply_result(st_, 1, [d("k")])
    snap2 = extract_snapshot(st_, _record(2, {1: [d("k"), d("w")]}))
    assert {a: list(p) for a, p in st_.pending.items() if p} == {1: [d("w")]}
    assert snap2.admitted == []  # w alone is below tau_i = 2

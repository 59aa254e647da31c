import random
from array import array
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batchfair.graph import (
    CumulativeState,
    Snapshot,
    apply_result,
    classify,
    condensation_order,
    count_threshold,
    extract_snapshot,
    phase1_weights,
    phase2_build_graph,
    phase3_anchor,
    tarjan_scc,
)
from batchfair.params import edge_threshold, solid_threshold
from batchfair.types import CommitRecord, FinalOrder, VertexRecord, tx_digest


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


def digest_orders(snap: Snapshot) -> dict:
    return {a: tuple(snap.admitted[i] for i in fi) for a, fi in snap.orders.items()}


def weight(rep, u: str, v: str) -> int:
    """Cached phase-1 weight: orders placing u before v."""
    m = len(rep.admitted)
    return rep.weights[rep.admitted.index(u) * m + rep.admitted.index(v)]


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
    assert rep.solid == frozenset({a, b, c})
    assert (weight(rep, a, b), weight(rep, b, a)) == (2, 1)
    assert (weight(rep, b, c), weight(rep, c, b)) == (2, 1)
    assert (weight(rep, c, a), weight(rep, a, c)) == (2, 1)


def test_empty_snapshot_empty_report():
    rep = phase1_weights(snapshot({}, 5, 1, 1))
    assert rep.admitted == [] and rep.solid == frozenset() and len(rep.weights) == 0


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
    # weight purity: rerunning yields identical results
    again = phase1_weights(snapshot(orders, n, f, 1))
    assert again.weights == rep.weights and again.admitted == rep.admitted


# -- phase 2 ------------------------------------------------------------------------


def _condorcet_report():
    a, b, c = d("a"), d("b"), d("c")
    snap = snapshot({0: (a, b, c), 1: (b, c, a), 2: (c, a, b)}, 3, 0, Fraction(2, 3))
    return phase1_weights(snap), (a, b, c)


def test_phase2_condorcet_builds_cycle_no_missing():
    rep, (a, b, c) = _condorcet_report()
    g = phase2_build_graph(rep, frozenset(), 2)  # tau = 2 at n=3, f=0, gamma=2/3
    assert g.missing == []
    assert edges_of(g) == {(a, b), (b, c), (c, a)}


def test_phase2_below_threshold_pair_is_missing():
    x, y = d("x"), d("y")
    # two replicas disagree 1/1, tau = 2
    snap = snapshot({0: (x, y), 1: (y, x), 2: ()}, 3, 0, Fraction(2, 3))
    rep = phase1_weights(snap)
    g = phase2_build_graph(rep, frozenset(), 2)
    assert g.missing == [tuple(sorted((x, y)))]
    assert not g.adj.any()


def test_phase2_tie_at_threshold_goes_to_smaller_digest():
    x, y = sorted((d("p"), d("q")))
    snap = snapshot({0: (x, y), 1: (x, y), 2: (y, x), 3: (y, x), 4: ()}, 5, 1, 1)
    rep = phase1_weights(snap)  # tau = 2; 2/2 tie
    g = phase2_build_graph(rep, frozenset(), 2)
    assert edges_of(g) == {(x, y)}


def test_phase2_chain_filter_removes_before_edges():
    rep, (a, b, c) = _condorcet_report()
    g = phase2_build_graph(rep, frozenset({b}), 2)
    assert b not in g.nodes
    assert edges_of(g) == {(c, a)}  # only the a/c pair survives the filter


def scalar_phase2(report, proposed, tau_i: int):
    """Reference rule: the per-pair loop phase 2 ran before it used masks.

    Returns the kept nodes, the edge set and the missing pairs in loop order.
    """
    keep = [x for x in report.admitted if x not in proposed]
    idx_of = {x: k for k, x in enumerate(report.admitted)}
    m = len(report.admitted)
    w = report.weights
    edges, missing = set(), []
    for a in range(len(keep)):
        for b in range(a + 1, len(keep)):
            ia, ib = idx_of[keep[a]], idx_of[keep[b]]
            wab, wba = w[ia * m + ib], w[ib * m + ia]
            if wab >= tau_i or wba >= tau_i:
                edges.add((keep[a], keep[b]) if wab >= wba else (keep[b], keep[a]))
            else:
                missing.append((keep[a], keep[b]))
    return keep, edges, missing


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m=st.integers(0, 12), tau_i=st.integers(1, 4))
def test_phase2_masks_match_scalar_pair_rule(data, m, tau_i):
    admitted = sorted(d(f"w{i}") for i in range(m))
    weights = array("I", bytes(4 * m * m))
    for i in range(m):
        for j in range(i + 1, m):
            wij = data.draw(st.integers(0, tau_i + 2))
            # exact ties, at, above and below tau, are what the tie rule decides
            tie = data.draw(st.booleans())
            wji = wij if tie else data.draw(st.integers(0, tau_i + 2))
            weights[i * m + j], weights[j * m + i] = wij, wji
    picks = st.sets(st.sampled_from(admitted)) if admitted else st.just(set())
    proposed = frozenset(data.draw(picks)) | {d("retained earlier")}
    solid = frozenset(data.draw(picks))
    report = Snapshot(1, admitted, solid, {}, weights)
    g = phase2_build_graph(report, proposed, tau_i)
    keep, edges, missing = scalar_phase2(report, proposed, tau_i)
    assert g.nodes == keep
    assert edges_of(g) == edges
    assert g.missing == missing
    assert g.solid.tolist() == [x in solid for x in keep]


# -- tarjan + condensation -----------------------------------------------------------


def test_tarjan_three_cycle_single_scc():
    assert tarjan_scc(matrix(3, [(0, 1), (1, 2), (2, 0)])) == [[0, 1, 2]]


def test_tarjan_singleton_dag_in_topo_order():
    sccs = tarjan_scc(matrix(4, [(0, 1), (1, 2), (2, 3)]))
    assert sccs == [[0], [1], [2], [3]]


def _random_digraph(rng, size, p):
    nodes = sorted(d(f"v{i}") for i in range(size))
    adj = np.zeros((size, size), dtype=bool)
    for u in range(size):
        for v in range(size):
            if u != v and rng.random() < p:
                adj[u, v] = True
    return nodes, adj


def test_tarjan_matches_reachability_oracle_random_50():
    from batchfair.oracle import reachability_scc

    rng = random.Random(50)
    nodes, adj = _random_digraph(rng, 50, 0.06)
    edges = {(nodes[u], nodes[v]) for u, v in zip(*np.nonzero(adj))}
    ours = condensation_order(tarjan_scc(adj), adj)
    ours_named = [sorted(nodes[v] for v in scc) for scc in ours]
    oracle = [sorted(scc) for scc in reachability_scc(nodes, edges)]
    assert ours_named == oracle  # same SCCs, same canonical order


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), size=st.integers(1, 24), p=st.floats(0.02, 0.4))
def test_tarjan_matches_reachability_oracle_property(seed, size, p):
    from batchfair.oracle import reachability_scc

    rng = random.Random(seed)
    nodes, adj = _random_digraph(rng, size, p)
    edges = {(nodes[u], nodes[v]) for u, v in zip(*np.nonzero(adj))}
    ours = [sorted(nodes[v] for v in scc)
            for scc in condensation_order(tarjan_scc(adj), adj)]
    assert ours == [sorted(scc) for scc in reachability_scc(nodes, edges)]


# -- phase 3 -------------------------------------------------------------------------


def test_phase3_condorcet_single_scc_is_anchor():
    rep, (a, b, c) = _condorcet_report()
    g = phase2_build_graph(rep, frozenset(), 2)
    trunc, anchor, k = phase3_anchor(g)
    assert anchor == 1
    assert sorted(k) == sorted([a, b, c])


def test_phase3_truncates_past_anchor():
    # x -> y -> z with only x solid: y, z return to pending
    x, y, z = d("x1"), d("y1"), d("z1")
    snap = snapshot({0: (x, y, z), 1: (x, y, z), 2: (x,)}, 5, 1, 1)
    rep = phase1_weights(snap)  # tau=2, tau_s=3
    assert rep.solid == frozenset({x})
    g = phase2_build_graph(rep, frozenset(), 2)
    order, anchor, k = phase3_anchor(g)
    assert k == [x]
    assert order == FinalOrder(1, (x,), ((0, 1),))


def test_phase3_no_solid_retains_nothing():
    x, y = d("x2"), d("y2")
    st_ = CumulativeState(5, 1, 1)
    st_.proposed.add(d("old"))
    snap = extract_snapshot(st_, _record(1, {0: [x, y], 1: [x, y]}))
    rep = phase1_weights(snap)  # support 2 < tau_s=3: shaded only
    g = phase2_build_graph(rep, st_.proposed, 2)
    trunc, anchor, k = phase3_anchor(g)
    assert anchor == 0 and k == []
    apply_result(st_, 1, k)
    assert st_.proposed == {d("old")}


def test_phase3_empty_graph():
    g = phase2_build_graph(
        phase1_weights(snapshot({}, 5, 1, 1)), frozenset(), 2
    )
    trunc, anchor, k = phase3_anchor(g)
    assert anchor == 0 and k == [] and trunc == FinalOrder(1, (), ())


# -- phase 4 --------------------------------------------------------------------------


def test_phase4_finalizes_without_missing():
    rep, (a, b, c) = _condorcet_report()
    g = phase2_build_graph(rep, frozenset(), 2)
    order, *_ = phase3_anchor(g)
    assert order.digests == tuple(sorted([a, b, c]))
    assert order.batches == ((0, 3),)


def test_phase4_parks_with_missing():
    x, y = d("x"), d("y")
    snap = snapshot({0: (x, y), 1: (y, x), 2: (x, y), 3: (x,), 4: (y,)}, 5, 1, 1)
    rep = phase1_weights(snap)
    g = phase2_build_graph(rep, frozenset(), 3)  # force 2/1 below 3
    trunc, *_ = phase3_anchor(g)
    assert trunc.missing == [tuple(sorted((x, y)))]
    assert trunc.adj.shape == (2, 2) and not trunc.adj.any()


# -- cumulative state: extract + apply -------------------------------------------------


def _record(r, contributions: dict[int, list[str]]) -> CommitRecord:
    vrs = []
    for author in sorted(contributions):
        entries = tuple((dg, i) for i, dg in enumerate(contributions[author]))
        vrs.append(VertexRecord(author, r, f"r{r:04d}a{author:03d}", entries))
    return CommitRecord(r, f"r{r:04d}a000", tuple(vrs))


def test_extract_first_subdag_base_case():
    st_ = CumulativeState(3, 0, Fraction(2, 3))
    snap = extract_snapshot(st_, _record(1, {0: [d("x")], 1: [d("x")], 2: [d("x")]}))
    assert snap.admitted == [d("x")]
    assert snap.orders == {0: [0], 1: [0], 2: [0]}
    assert digest_orders(snap) == {0: (d("x"),), 1: (d("x"),), 2: (d("x"),)}
    assert snap.solid == st_.claims[1] == frozenset({d("x")})  # support 3 >= tau_s = 3


def test_extract_single_reporter_stays_blank_no_claim():
    st_ = CumulativeState(4, 1, 1)
    snap = extract_snapshot(st_, _record(1, {2: [d("a"), d("b")]}))
    assert snap.solid == st_.claims[1] == frozenset()
    # support 1 < tau_i = 2: nothing is admitted, and both stay pending in order
    assert snap.admitted == [] and snap.orders == {}
    assert list(st_.pending[2]) == [d("a"), d("b")]


def test_claimed_tx_excluded_from_next_snapshot_before_apply():
    st_ = CumulativeState(3, 0, Fraction(2, 3))
    extract_snapshot(st_, _record(1, {0: [d("s")], 1: [d("s")], 2: [d("s")]}))
    # the first task has NOT returned; its solid claim hides s
    snap2 = extract_snapshot(st_, _record(2, {0: [d("t")], 1: [d("t")], 2: [d("t")]}))
    flat = {dg for order in digest_orders(snap2).values() for dg in order}
    assert d("s") not in flat and d("t") in flat


def test_out_of_order_extract_rejected():
    st_ = CumulativeState(3, 0, Fraction(2, 3))
    with pytest.raises(ValueError):
        extract_snapshot(st_, _record(2, {0: [d("x")]}))


def test_apply_result_promotes_and_drops_claim():
    st_ = CumulativeState(3, 0, Fraction(2, 3))
    extract_snapshot(st_, _record(1, {0: [d("k"), d("z")], 1: [d("k")], 2: [d("k")]}))
    apply_result(st_, 1, [d("k")])
    assert d("k") in st_.proposed and 1 not in st_.claims
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

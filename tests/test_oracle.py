import ast
import random
from fractions import Fraction
from itertools import combinations
from math import ceil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import batchfair
from batchfair.adversaries import (
    REVERSE_ORDER,
    FaultDirective,
    FaultSchedule,
    uniform_load,
)
from batchfair.dagsim import Simulator
from batchfair.oracle import (
    _precedence,
    check_batch_of,
    check_loi_monotone,
    check_single_graph,
    dist_histogram,
    serial_reference,
)
from batchfair.params import SimConfig
from batchfair.trace import RunTrace
from batchfair.types import (
    DIRECT, CommitRecord, FairUpdateVote, FinalOrder, VertexRecord, tx_digest,
)
from reference import reachability_scc


def d(name) -> str:
    return tx_digest(str(name))


@st.composite
def partial_orders(draw):
    """Up to six transactions and orders over a random subset of them plus
    two outsiders, each order listing a transaction at most once."""
    t = draw(st.integers(0, 6))
    orders = draw(st.lists(st.lists(st.integers(0, t + 1), unique=True), max_size=6))
    return [d(i) for i in range(t)], [[d(i) for i in order] for order in orders]


@settings(max_examples=200, deadline=None)
@given(partial_orders())
@example(([], []))
@example(([], [[d(0)], []]))
@example(([d(0)], [[d(0)], [], [d(1), d(0)]]))
def test_precedence_matches_pairwise_count(case):
    txs, orders = case
    want = np.zeros((len(txs), len(txs)), dtype=int)
    for order in orders:
        for first, second in combinations(order, 2):
            if first in txs and second in txs:
                want[txs.index(first), txs.index(second)] += 1
    got = _precedence(orders, txs)
    assert got.dtype == np.int16 and got.shape == want.shape
    assert (got == want).all()


def synthetic_trace(n, receive_orders, reported=None, faults=(), retained=()):
    """Hand-built trace: per-replica receive orders, reported batch orders,
    and graph_built retained sets."""
    trace = RunTrace(
        meta={
            "config": {"n": n, "f": (n - 1) // 4, "gamma": "1", "seed": 0},
            "faults": list(faults),
        }
    )
    t = 0
    for rep, order in receive_orders.items():
        for k, tx in enumerate(order):
            trace.events.append(
                {"ev": "tx_received", "t": t, "replica": rep, "tx": tx, "loi": k,
                 "src": "client"}
            )
            t += 1
    reported = reported if reported is not None else receive_orders
    for rep, order in reported.items():
        trace.events.append(
            {
                "ev": "vertex_created", "t": t, "replica": rep, "round": 1,
                "vid": f"r0001a{rep:03d}", "parents": [],
                "entries": [["d", tx, k] for k, tx in enumerate(order)],
                "votes": [],
            }
        )
    for r, k_digests in retained:
        trace.events.append(
            {"ev": "graph_built", "t": t, "replica": None, "r": r, "v": len(k_digests),
             "m": 0, "anchor": 1, "k": len(k_digests), "k_digests": list(k_digests)}
        )
    return trace


def order_of(r, *txs):
    return FinalOrder(r, tuple(txs), tuple((i, i + 1) for i in range(len(txs))))


# -- check_batch_of -------------------------------------------------------------------


def test_unanimous_receive_order_consistent_emission_passes():
    a, b, c = d("a"), d("b"), d("c")
    trace = synthetic_trace(3, {0: [a, b, c], 1: [a, b, c], 2: [a, b, c]})
    rep = check_batch_of(trace, [order_of(1, a), order_of(2, b), order_of(3, c)], 1)
    assert rep.ok and rep.pairs_checked == 3


def test_planted_batch_swap_found_exactly():
    a, b, c = d("a"), d("b"), d("c")
    trace = synthetic_trace(3, {0: [a, b, c], 1: [a, b, c], 2: [a, b, c]})
    corrupted = [order_of(1, b), order_of(2, a), order_of(3, c)]  # swap a and b
    rep = check_batch_of(trace, corrupted, 1)
    assert len(rep.violations) == 1
    v = rep.violations[0]
    assert (v.first, v.second) == (a, b) and v.supporters == 3
    assert v.first_batch > v.second_batch


def test_same_batch_counts_as_no_later():
    a, b = sorted((d("a"), d("b")))
    trace = synthetic_trace(3, {0: [a, b], 1: [a, b], 2: [a, b]})
    same_batch = [FinalOrder(1, (a, b), ((0, 2),))]
    assert check_batch_of(trace, same_batch, 1).ok


def test_scoping_excludes_partially_received():
    a, b, c = d("a"), d("b"), d("c")
    # c unseen by replica 2: pairs with c are out of Definition-1 scope
    trace = synthetic_trace(3, {0: [a, b, c], 1: [a, b, c], 2: [a, b]})
    corrupted = [order_of(1, c), order_of(2, b), order_of(3, a)]
    rep = check_batch_of(trace, corrupted, 1)
    assert {(v.first, v.second) for v in rep.violations} == {(a, b)}
    assert rep.pairs_skipped_scope == 2


def test_gamma_threshold_counts_exactly():
    a, b = d("a"), d("b")
    # 2 of 3 replicas prefer a first; gamma=2/3 makes the pair binding
    trace = synthetic_trace(3, {0: [a, b], 1: [a, b], 2: [b, a]})
    bad = [order_of(1, b), order_of(2, a)]
    assert check_batch_of(trace, bad, 1).ok  # gamma=1 needs all 3
    rep = check_batch_of(trace, bad, Fraction(2, 3))
    assert len(rep.violations) == 1 and rep.violations[0].supporters == 2


# -- check_single_graph ----------------------------------------------------------------


def test_single_graph_pass_and_planted_duplicate():
    a, b = d("a"), d("b")
    ok_trace = synthetic_trace(3, {}, retained=[(1, [a]), (2, [b])])
    assert check_single_graph(ok_trace) == (True, None)
    dup_trace = synthetic_trace(3, {}, retained=[(1, [a]), (2, [b, a])])
    ok, offender = check_single_graph(dup_trace)
    assert not ok and offender == a


# -- check_loi_monotone ----------------------------------------------------------------


def inverted_loi_trace(faults) -> RunTrace:
    """One replica whose committed stream goes LOI 5, then 0, 1."""
    trace = RunTrace(meta={"config": {"n": 1, "f": 0, "gamma": "1"}, "faults": faults})
    trace.events.append(
        {"ev": "vertex_created", "t": 0, "replica": 0, "round": 1, "vid": "r0001a000",
         "parents": [], "entries": [["d", d("x"), 0], ["d", d("y"), 1]], "votes": []}
    )
    trace.events.append(
        {"ev": "vertex_created", "t": 1, "replica": 0, "round": 2, "vid": "r0002a000",
         "parents": [], "entries": [["d", d("z"), 5]], "votes": []}
    )
    trace.events.append({"ev": "subdag_committed", "t": 2, "replica": None, "r": 1, "wave": 1,
                         "leader": "r0002a000", "vertices": ["r0002a000"]})
    trace.events.append({"ev": "subdag_committed", "t": 3, "replica": None, "r": 2, "wave": 2,
                         "leader": "r0001a000", "vertices": ["r0001a000"]})
    return trace


def test_loi_monotone_detects_planted_inversion():
    ok, bad = check_loi_monotone(inverted_loi_trace([]))
    assert not ok and bad == {"replica": 0, "tx": d("x"), "loi": 0, "prev": 5}


def test_loi_monotone_walks_crashed_replica_prefix():
    # a crash-faulted replica is honest until it stops: its prefix is walked too
    trace = inverted_loi_trace([{"replica": 0, "strategy": "silent_crash", "round": 9}])
    assert trace.correct_replicas() == []
    ok, bad = check_loi_monotone(trace)
    assert not ok and bad == {"replica": 0, "tx": d("x"), "loi": 0, "prev": 5}


# -- dist histogram ---------------------------------------------------------------------


def test_dist_all_agree_lands_in_bucket_n():
    a, b = d("a"), d("b")
    trace = synthetic_trace(3, {0: [a, b], 1: [a, b], 2: [a, b]})
    rows = dist_histogram(trace, [order_of(1, a, b)])
    by_bucket = {r.dist: r for r in rows}
    assert sorted(by_bucket) == [1, 3]  # labels N mod 2 .. N step 2
    assert by_bucket[3].pair_count == 1 and by_bucket[3].reversed_fraction == 0.0


def test_dist_hand_planted_reversal_fractions():
    a, b, c = d("a"), d("b"), d("c")
    orders = {0: [a, b, c], 1: [a, b, c], 2: [a, c, b]}
    trace = synthetic_trace(3, orders)
    # emitted: a, then c, then b -> (b, c) majority (b first, 2/1) reversed
    emitted = [order_of(1, a), order_of(2, c), order_of(3, b)]
    rows = {r.dist: r for r in dist_histogram(trace, emitted)}
    assert rows[1].pair_count == 1 and rows[1].reversed_fraction == 1.0
    assert rows[3].pair_count == 2 and rows[3].reversed_fraction == 0.0


def test_dist_counts_byzantine_reports_but_not_their_truth():
    a, b = sorted((d("a"), d("b")))
    receive = {i: [a, b] for i in range(5)}
    reported = {i: [a, b] for i in range(4)}
    reported[4] = [b, a]  # reverser's report
    trace = synthetic_trace(
        5, receive, reported=reported,
        faults=[{"replica": 4, "strategy": "reverse_local_order", "round": 0}],
    )
    rows = {r.dist: r for r in dist_histogram(trace, [order_of(1, a, b)])}
    # reported split 4/1 -> Dist 3 (not 5): the lie moves the bucket
    assert rows[3].pair_count == 1 and rows[5].pair_count == 0
    assert rows[3].reversed_fraction == 0.0


# -- serial reference ------------------------------------------------------------------


def test_serial_reference_empty_stream():
    out = serial_reference([], 5, 1, 1)
    assert out.orders == [] and out.stopped_at is None


def test_serial_reference_equals_pipeline_fault_free():
    cfg = SimConfig(n=5, f=1, gamma=1, seed=31, max_rounds=16)
    clients = uniform_load(5, 40, 1, 10, seed=31, skew_p=0.2)
    res = Simulator(cfg, clients=clients).run()
    out = serial_reference(res.records, 5, 1, 1)
    assert out.orders == res.pipeline.emitted
    assert not out.vote_mismatches


def test_serial_reference_equals_pipeline_with_reversers():
    cfg = SimConfig(n=5, f=1, gamma=1, seed=8, max_rounds=16)
    faults = FaultSchedule([FaultDirective(2, REVERSE_ORDER, 0)])
    clients = uniform_load(5, 36, 1, 10, seed=8, skew_p=0.3)
    res = Simulator(cfg, faults=faults, clients=clients).run()
    out = serial_reference(res.records, 5, 1, 1)
    assert out.orders == res.pipeline.emitted


def test_gamma_lt_1_cross_graph_corner_documented():
    """At gamma < 1, cross-round skew can graph a gamma*n-supported pair across
    two subdags: the one replica that received v first reports it in a prefix
    without u, the co-report weight ties below tau, and anchor truncation
    drops the missing pair before votes can resolve it. The strict checker
    flags the inversion, and the pair shares no Condorcet cycle even under
    the weakest edge notion, so cycle semantics do not excuse it either.
    Pin the instance; sweep loads therefore skew only at gamma = 1, where the
    all-replica scope plus LOI-prefix monotonicity make this impossible."""
    from batchfair.scenarios import sweep_scenario
    from batchfair.dagsim import Simulator
    from fractions import Fraction
    from math import ceil

    sc = sweep_scenario(5, 0, "0.8", seed=130, skew_p=0.2)
    res = Simulator(sc.config, sc.faults, sc.clients, sc.spikes).run()
    rep = check_batch_of(res.trace, res.pipeline.emitted, sc.config.gamma)
    assert len(rep.violations) == 1  # the strict checker flags the corner
    u, v = rep.violations[0].first, rep.violations[0].second
    # weak-preference digraph: x -> y when >= n(1-gamma)+1 replicas receive x
    # before y (the weakest edge strength a cycle construction could use)
    n = 5
    weak = int(ceil(Fraction(n) * (1 - sc.config.gamma) + 1))
    receive = res.trace.receive_orders()
    emitted_txs = sorted({dg for o in res.pipeline.emitted for dg in o.digests})
    pos = {i: {dg: k for k, dg in enumerate(order)} for i, order in receive.items()}
    edges = set()
    for x in emitted_txs:
        for y in emitted_txs:
            if x == y:
                continue
            count = sum(
                1 for i in pos
                if x in pos[i] and y in pos[i] and pos[i][x] < pos[i][y]
            )
            if count >= weak:
                edges.add((x, y))
    sccs = reachability_scc(emitted_txs, edges)
    home = next(scc for scc in sccs if u in scc)
    assert v not in home  # no shared cycle: the corner is a genuine inversion
    # the identical schedule at gamma = 1 is out of scope by definition: the
    # skewed replica genuinely received v first, so receive-unanimity fails
    ro = res.trace.receive_orders()
    prefer_u = sum(1 for i in ro if ro[i].index(u) < ro[i].index(v))
    assert prefer_u == 4 < n


def test_oracle_module_shares_no_pipeline_code():
    """Checker independence: the oracle imports only domain types and traces,
    never the pipeline's graph/finalize/pipeline machinery."""
    import ast
    from pathlib import Path

    import batchfair.oracle as oracle_mod

    tree = ast.parse(Path(oracle_mod.__file__).read_text())
    froms = {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
    }
    local = {m for m in froms if m.startswith(".") or m.startswith("batchfair")}
    assert local <= {".trace", ".types", "batchfair.trace", "batchfair.types"}


def test_directional_safety_under_reversing_adversary():
    """If >= gamma*n replicas received u before v, no snapshot observation or
    vote tally ever puts the wrong direction at or above tau."""
    from math import ceil

    from batchfair.harness import execute_scenario
    from batchfair.scenarios import build_scenario

    sc = build_scenario("reversing_fig8", f_actual=5)
    _, res = execute_scenario(sc, serial=True, variant={"f_actual": 5})
    n, f = sc.config.n, sc.config.f
    tau_i = int(ceil(Fraction(n) * (1 - sc.config.gamma) + f + 1))
    outcome = serial_reference(res.records, n, f, sc.config.gamma)
    receive = res.trace.receive_orders()
    pos = {i: {dg: k for k, dg in enumerate(order)} for i, order in receive.items()}
    need = n  # gamma = 1
    checked = 0
    for (u, v), ev in outcome.evidence.items():
        both = [i for i in pos if u in pos[i] and v in pos[i]]
        if len(both) < n:
            continue
        u_first = sum(1 for i in both if pos[i][u] < pos[i][v])
        if u_first >= need:
            wrong = 1  # index of w_vu in the (w_uv, w_vu) observations
        elif (len(both) - u_first) >= need:
            wrong = 0
        else:
            continue
        checked += 1
        for obs in ev.weights:
            assert obs[wrong] < tau_i
        if ev.vote_tally is not None:
            assert ev.vote_tally[wrong] < tau_i
    assert checked > 100  # the run must actually exercise the property


# -- reachability SCCs against networkx ---------------------------------------------------


def test_reachability_scc_matches_networkx_condensation():
    nx = pytest.importorskip("networkx")
    rng = random.Random(24)
    for trial in range(40):
        size = rng.randint(1, 40)
        # even trials are tournaments; odd ones leave pairs without an edge
        p_missing = 0.0 if trial % 2 == 0 else rng.choice([0.2, 0.5, 0.9])
        nodes = sorted(d(f"g{trial}.{i}") for i in range(size))
        edges = set()
        for u, v in combinations(nodes, 2):
            if rng.random() >= p_missing:
                edges.add((u, v) if rng.random() < 0.5 else (v, u))
        g = nx.DiGraph()
        g.add_nodes_from(nodes)
        g.add_edges_from(edges)
        cond = nx.condensation(g)
        members = {c: sorted(cond.nodes[c]["members"]) for c in cond}
        expected = [
            members[c]
            for c in nx.lexicographical_topological_sort(cond, key=lambda c: members[c][0])
        ]
        assert reachability_scc(nodes, edges) == expected


# -- pair evidence against a brute-force pair count ------------------------------------------


def brute_force_evidence(records, n, f, gamma, graphed_in, stopped_at):
    """Per-pair (w_uv, w_vu) observations and vote tallies, recounted pair by
    pair with itertools.combinations. Follows the retained sets the outcome
    reports (graphed_in) and stops where it stopped."""
    tau_i = int(ceil(Fraction(n) * (1 - Fraction(gamma)) + f + 1))
    votes_for: dict[int, dict[int, tuple]] = {}
    for rec in records:
        for vote in rec.votes():
            votes_for.setdefault(vote.target_r, {}).setdefault(vote.author, vote.edges)
    pending: dict[int, list[str]] = {}
    seen: dict[int, set[str]] = {}
    proposed: set[str] = set()
    weights: dict[tuple[str, str], list[tuple[int, int]]] = {}
    tallies: dict[tuple[str, str], tuple[int, int]] = {}
    for rec in records:
        for vr in rec.vertices:
            s = seen.setdefault(vr.author, set())
            for _kind, digest, _loi in vr.entries:
                if digest not in proposed and digest not in s:
                    s.add(digest)
                    pending.setdefault(vr.author, []).append(digest)
        support: dict[str, int] = {}
        for lst in pending.values():
            for dg in lst:
                support[dg] = support.get(dg, 0) + 1
        admitted = sorted(dg for dg, c in support.items() if c >= tau_i)
        count: dict[tuple[str, str], int] = {}
        for lst in pending.values():
            for pair in combinations([dg for dg in lst if dg in admitted], 2):
                count[pair] = count.get(pair, 0) + 1
        retained = {dg for dg, r in graphed_in.items() if r == rec.r}
        missing = []
        for u, v in combinations(admitted, 2):
            wuv, wvu = count.get((u, v), 0), count.get((v, u), 0)
            weights.setdefault((u, v), []).append((wuv, wvu))
            if wuv < tau_i and wvu < tau_i and u in retained and v in retained:
                missing.append((u, v))
        if rec.r == stopped_at:
            break
        if missing:
            cast = list(votes_for[rec.r].values())
            for k in range(n - f, len(cast) + 1):
                tally = {
                    (u, v): (
                        sum(edges.count((u, v)) for edges in cast[:k]),
                        sum(edges.count((v, u)) for edges in cast[:k]),
                    )
                    for u, v in missing
                }
                if all(max(t) >= tau_i for t in tally.values()):
                    tallies.update(tally)
                    break
        proposed |= retained
        for author in pending:
            pending[author] = [dg for dg in pending[author] if dg not in retained]
    return weights, tallies


def assert_evidence_matches_brute_force(records, n, f, gamma):
    outcome = serial_reference(records, n, f, gamma)
    weights, tallies = brute_force_evidence(
        records, n, f, gamma, outcome.graphed_in, outcome.stopped_at
    )
    got = {pair: (ev.weights, ev.vote_tally) for pair, ev in outcome.evidence.items()}
    assert got == {pair: (w, tallies.get(pair)) for pair, w in weights.items()}
    return outcome


def random_records(rng, n, subdags, names):
    """Each author reports a random subset of names in random order per
    subdag, and votes on the previous subdag with every pair of names in a
    random direction, sometimes repeating an edge."""
    records = []
    for r in range(1, subdags + 1):
        vertices = []
        for author in range(n):
            picked = rng.sample(names, rng.randint(0, len(names)))
            edges = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in combinations(names, 2)]
            if edges and rng.random() < 0.3:
                edges.append(rng.choice(edges))
            votes = (FairUpdateVote(author, r - 1, tuple(edges)),) if r > 1 else ()
            vertices.append(VertexRecord(
                author, r, f"r{r:04d}a{author:03d}",
                tuple((DIRECT, dg, k) for k, dg in enumerate(picked)), votes,
            ))
        records.append(CommitRecord(r, vertices[0].vid, tuple(vertices)))
    return records


@pytest.mark.parametrize("n, f, gamma", [(5, 1, 1), (7, 1, "0.8")])
def test_evidence_matches_brute_force_on_random_pending_lists(n, f, gamma):
    rng = random.Random(n)
    names = [d(f"w{i}") for i in range(9)]
    resolved = 0
    for _ in range(25):
        records = random_records(rng, n, rng.randint(1, 4), names)
        outcome = assert_evidence_matches_brute_force(records, n, f, gamma)
        resolved += len(outcome.vote_tallies)
    assert resolved  # the vote replay ran


@pytest.mark.parametrize(
    "name, variant", [("crash_n13", {}), ("reversing_fig8", {"f_actual": 5})]
)
def test_evidence_matches_brute_force_on_shipped_scenarios(name, variant):
    from batchfair.scenarios import build_scenario

    sc = build_scenario(name, **variant)
    res = Simulator(sc.config, sc.faults, sc.clients, sc.spikes).run()
    cfg = sc.config
    outcome = assert_evidence_matches_brute_force(res.records, cfg.n, cfg.f, cfg.gamma)
    if name == "crash_n13":
        assert outcome.vote_tallies  # parked subdags resolved through votes


def test_execute_scenario_never_builds_pair_evidence(monkeypatch):
    # neither the pair evidence nor the per-pair vote tallies: a run's checks
    # keep no object per pair alive
    from batchfair import harness
    from batchfair.scenarios import build_scenario

    outcomes = []

    def recording(*args):
        outcomes.append(serial_reference(*args))
        return outcomes[-1]

    monkeypatch.setattr(harness, "serial_reference", recording)
    harness.execute_scenario(build_scenario("condorcet_minimal"), serial=True)
    assert len(outcomes) == 1
    assert "evidence" not in vars(outcomes[0]) and "vote_tallies" not in vars(outcomes[0])


def package_imports(module: str) -> set[str]:
    """The batchfair modules ``module`` imports, directly or through others,
    read from the source. sys.modules would not show them: the package
    __init__ imports the pipeline into every process that imports the oracle."""
    src = Path(batchfair.__file__).parent
    found: set[str] = set()
    todo = [module]
    while todo:
        for node in ast.walk(ast.parse((src / f"{todo.pop()}.py").read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 1:
                names = [node.module] if node.module else [a.name for a in node.names]
            elif node.level == 0 and (node.module or "").startswith("batchfair."):
                names = [node.module.split(".")[1]]
            else:
                continue
            for name in set(names) - found:
                found.add(name)
                todo.append(name)
    return found


def test_oracle_shares_only_types_with_the_pipeline():
    oracle, pipeline = package_imports("oracle"), package_imports("pipeline")
    assert oracle <= {"trace", "types"}, oracle
    assert pipeline <= {"finalize", "graph", "params", "types"}, pipeline
    assert oracle & pipeline <= {"types"}
    assert "types" in oracle & pipeline  # the walk reads both import graphs

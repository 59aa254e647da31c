import gc
import hashlib
import heapq
import json
import random
from collections import Counter
from dataclasses import replace
from itertools import islice
from types import FunctionType, ModuleType

import pytest
from hypothesis import given, settings, strategies as st

from batchfair.adversaries import (
    REVERSE_ORDER,
    SILENT_CRASH,
    ClientDirective,
    ClientSchedule,
    DelaySpike,
    FaultDirective,
    FaultSchedule,
    random_crash_schedule,
    uniform_load,
)
from batchfair.dagsim import DELAY_BLOCK_WORDS, Simulator
from batchfair.harness import execute_scenario
from batchfair.params import ConfigError, SimConfig
from batchfair.scenarios import Scenario, build_scenario, sweep_scenario
from batchfair.types import (
    DIRECT,
    INDIRECT,
    Batch,
    FairUpdateVote,
    Vertex,
    VertexRecord,
    orders_digest,
    tx_digest,
    vertex_id,
)
from batchfair.worker import WorkerState


def lockstep_sim(n=5, f=1, seed=7, max_rounds=10, **kw) -> Simulator:
    cfg = SimConfig(n=n, f=f, gamma=1, seed=seed, max_rounds=max_rounds,
                    delivery_model="lockstep", **kw)
    return Simulator(cfg, clients=uniform_load(n, 20, 1, max(2, max_rounds - 4), seed=seed))


def test_genesis_round_yields_n_vertices_and_certificates():
    sim = lockstep_sim()
    sim.advance_round()
    assert sorted(sim.by_round[0]) == [0, 1, 2, 3, 4]
    assert not sim.attestors  # a vertex keeps attestors only until it certifies
    for author, vertex in sim.by_round[0].items():
        # genesis carries no payload
        assert vertex == Vertex(VertexRecord(author, 0, vertex_id(0, author), ()), frozenset(), 0)
    certs = [e for e in sim.trace.events if e["ev"] == "certificate_formed"]
    assert sorted(e["replica"] for e in certs) == [0, 1, 2, 3, 4]
    assert all(len(e["attestors"]) >= sim.cfg.quorum for e in certs)


def test_vertices_reference_quorum_and_self():
    sim = lockstep_sim()
    sim.advance_round()
    sim.advance_round()
    assert len(sim.by_round[1]) == 5
    for author, vertex in sim.by_round[1].items():
        assert len(vertex.parents) >= sim.cfg.quorum
        assert author in vertex.parents  # self-referencing rule


def test_crashed_replica_stops_proposing():
    cfg = SimConfig(n=5, f=1, gamma=1, seed=3, max_rounds=8, delivery_model="lockstep")
    faults = FaultSchedule([FaultDirective(2, SILENT_CRASH, 3)])
    sim = Simulator(cfg, faults=faults)
    for _ in range(4):
        sim.advance_round()
    assert sorted(sim.by_round[2]) == [0, 1, 2, 3, 4]
    assert sorted(sim.by_round[3]) == [0, 1, 3, 4]  # 4 vertices at round 3
    for v in sim.by_round[3].values():
        assert len(v.parents) >= 4  # quorum_size(5,1,1) = 4


def test_round_counter_advances_by_one():
    sim = lockstep_sim()
    assert sim.round == 0
    sim.advance_round()
    assert sim.round == 1
    sim.advance_round()
    assert sim.round == 2


def test_subdag_ids_consecutive_no_gaps():
    sim = lockstep_sim(seed=7, max_rounds=12)
    res = sim.run()
    ids = [rec.r for rec in res.records]
    assert ids == list(range(1, len(ids) + 1))
    assert ids  # the run committed something


def test_subdags_partition_committed_vertices():
    res = lockstep_sim(seed=11, max_rounds=12).run()
    seen = set()
    for rec in res.records:
        for vr in rec.vertices:
            assert vr.vid not in seen
            seen.add(vr.vid)


def test_causal_closure_parents_in_earlier_or_same_subdag():
    res = lockstep_sim(seed=5, max_rounds=12).run()
    parents = {e["vid"]: e["parents"] for e in res.trace.events if e["ev"] == "vertex_created"}
    placed = {}
    for rec in res.records:
        for vr in rec.vertices:
            placed[vr.vid] = rec.r
    for rec in res.records:
        for vr in rec.vertices:
            for parent in parents[vr.vid]:
                assert placed[parent] <= rec.r


def test_leader_commits_only_with_f_plus_one_references():
    sim = lockstep_sim(n=5, f=1, seed=2, max_rounds=4)
    for _ in range(4):
        sim.advance_round()
    leader_author = sim._coin(1)
    leader = sim.by_round[1][leader_author]
    children = {a: v for a, v in sim.by_round[2].items() if leader_author in v.parents}
    assert len(children) >= 2  # sanity: the run would commit naturally
    # strip the leader reference from all but f=1 round-2 vertices
    keep = sorted(children)[:1]
    for author, v in list(sim.by_round[2].items()):
        if author in children and author not in keep:
            sim.by_round[2][author] = replace(v, parents=v.parents - {leader_author})
    assert sim.try_commit() == []  # exactly f references: below threshold
    # restore one reference: f+1 reached, the wave commits
    sim.next_wave = 1
    restore = sorted(set(children) - set(keep))[0]
    v = sim.by_round[2][restore]
    sim.by_round[2][restore] = replace(v, parents=v.parents | {leader_author})
    committed = sim.try_commit()
    assert committed and committed[0].leader_vid == leader.record.vid


def test_leader_commits_with_parents_at_round_ten_thousand():
    sim = lockstep_sim(n=5, f=1)
    wave = 5001  # leader round (wave - 1) * wave_len + 1 = 10001
    for rnd in (10_000, 10_001, 10_002):
        parents = frozenset() if rnd == 10_000 else frozenset(range(5))
        sim.by_round[rnd] = {
            a: Vertex(VertexRecord(a, rnd, vertex_id(rnd, a), ()), parents, a) for a in range(5)
        }
    leader = sim._coin(wave)
    sim.attestors[vertex_id(10_001, leader)] = {leader}  # not yet certified
    sim.round, sim.next_wave = 10_003, wave
    assert sim.try_commit() == []
    del sim.attestors[vertex_id(10_001, leader)]
    sim.next_wave = wave
    [record] = sim.try_commit()
    assert record.leader_vid == vertex_id(10_001, leader)
    assert [vr.vid for vr in record.vertices] == [
        *(vertex_id(10_000, a) for a in range(5)), vertex_id(10_001, leader)
    ]
    # the committed vertices left the store, and round 10_000 with them
    assert sorted(sim.by_round) == [10_001, 10_002]
    assert sorted(sim.by_round[10_001]) == sorted(set(range(5)) - {leader})


def _reachable(root) -> list:
    """Every object reachable from root through data: types, modules and
    functions are not followed."""
    seen, stack, out = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType, FunctionType)):
            continue
        seen.add(id(obj))
        out.append(obj)
        stack.extend(gc.get_referents(obj))
    return out


@pytest.mark.parametrize("name,kwargs", [("crash_n13", {"txs": 400}), ("wire_binary", {})])
def test_records_are_built_once_and_no_batch_outlives_its_proposal(name, kwargs):
    sc = build_scenario(name, **kwargs)
    sim = Simulator(sc.config, sc.faults, sc.clients, sc.spikes)
    proposed = {}  # (round, author) -> vertex, as by_round held it before each commit
    while sim.round <= sim.cfg.max_rounds:
        sim.advance_round()
        proposed.update(((rd, a), v) for rd, vs in sim.by_round.items() for a, v in vs.items())
        sim.try_commit()
    for rec in sim.records:
        for vr in rec.vertices:
            assert vr is proposed[vr.round, vr.author].record
    kinds = Counter(type(obj) for obj in _reachable((sim.by_round, sim.records)))
    assert kinds[VertexRecord] == len(proposed)
    assert kinds[FairUpdateVote] > 0  # the walk reaches the records' votes
    assert kinds[Batch] == 0


@pytest.mark.parametrize(
    "name,kwargs", [("speedup_bench", {}), ("crash_n13", {"txs": 400}), ("wire_binary", {})]
)
def test_committed_entries_are_the_tuples_build_batch_sealed(name, kwargs, monkeypatch):
    sealed = {}  # author -> the entries of each batch it sealed; round r seals the r-th
    build_batch = WorkerState.build_batch

    def spy(worker):
        batch = build_batch(worker)
        sealed.setdefault(worker.replica, []).append(batch.entries)
        return batch

    monkeypatch.setattr(WorkerState, "build_batch", spy)
    sc = build_scenario(name, **kwargs)
    records = Simulator(sc.config, sc.faults, sc.clients, sc.spikes).run().records
    committed = [vr for rec in records for vr in rec.vertices if vr.round > 0]
    assert any(vr.entries for vr in committed)
    for vr in committed:
        entries = sealed[vr.author][vr.round - 1]
        if sc.config.batch_wire:  # decoded from the wire: a new, equal tuple
            assert vr.entries == entries
        else:
            assert vr.entries is entries


def test_held_certificates_span_at_most_two_rounds():
    sc = build_scenario("speedup_bench")
    sim = Simulator(sc.config, sc.faults, sc.clients, sc.spikes)
    sim.run()
    assert all(len(held) <= 2 for held in sim.held)
    assert all(min(held) >= sim.round - 1 for held in sim.held if held)


def test_per_round_bookkeeping_stays_bounded():
    # crash_n13 runs 56 rounds with three crashes; a crashed author's last
    # vertex may never certify, so it may keep its attestors
    sc = build_scenario("crash_n13")
    sim = Simulator(sc.config, sc.faults, sc.clients, sc.spikes)
    while sim.round <= sim.cfg.max_rounds:
        sim.advance_round()
        assert set(sim.ready_at) <= {sim.round}
        assert len(sim.attestors) <= len(sim.crash_round)
        # by_round holds exactly the proposed vertices that no record holds,
        # with no empty round, and attestors only proposed vertices
        proposed = {e["vid"] for e in sim.trace.events if e["ev"] == "vertex_created"}
        committed = {vr.vid for rec in sim.records for vr in rec.vertices}
        stored = [v.record.vid for vs in sim.by_round.values() for v in vs.values()]
        assert sorted(stored) == sorted(proposed - committed)
        assert all(sim.by_round.values())
        assert sim.attestors.keys() <= proposed
        # one heap entry per pending time, no empty time, none before now
        assert sorted(sim.times) == sorted(sim.queue)
        assert all(sim.queue.values())
        assert all(t >= sim.now for t in sim.times)
        sim.try_commit()
    assert sim.records and sim.round == sim.cfg.max_rounds + 1


def test_uncommitted_store_does_not_grow_with_rounds():
    # what stays uncommitted is the last two rounds and each crashed
    # replica's uncertified last vertex, however long the run
    def stored_after(rounds):
        sc = build_scenario("crash_n13", txs=400)
        sim = Simulator(replace(sc.config, max_rounds=rounds), sc.faults, sc.clients, sc.spikes)
        sim.run()
        return sum(map(len, sim.by_round.values()))

    assert stored_after(150) <= stored_after(56)


def test_uncommitted_wave_yields_empty_list_and_later_sweep():
    # crash the wave-1 leader before its leader round: the wave is skipped,
    # ids stay consecutive, and the leader's earlier vertices are swept later
    cfg = SimConfig(n=5, f=1, gamma=1, seed=7, max_rounds=12, delivery_model="lockstep")
    sim = Simulator(cfg)
    leader_author = sim._coin(1)
    faults = FaultSchedule([FaultDirective(leader_author, SILENT_CRASH, 1)])
    res = Simulator(cfg, faults=faults).run()
    ids = [rec.r for rec in res.records]
    assert ids == list(range(1, len(ids) + 1))


def test_determinism_bit_identical_traces():
    def run():
        cfg = SimConfig(n=9, f=2, gamma=1, seed=77, max_rounds=14)
        faults = FaultSchedule([FaultDirective(4, SILENT_CRASH, 5),
                                FaultDirective(7, REVERSE_ORDER, 0)])
        clients = uniform_load(9, 50, 1, 10, seed=77, skew_p=0.2)
        return Simulator(cfg, faults=faults, clients=clients).run()

    a, b = run(), run()
    assert a.trace.deterministic_view() == b.trace.deterministic_view()
    assert a.pipeline.emitted == b.pipeline.emitted


def test_round_stalls_when_no_replica_becomes_ready():
    sim = Simulator(SimConfig(n=5, f=1, gamma=1, seed=7, max_rounds=6))
    sim.advance_round()
    sim.times.clear()  # the round-0 certificates are never delivered
    sim.queue.clear()
    with pytest.raises(ConfigError) as err:
        sim.advance_round()
    assert str(err.value) == "round 1 stalled: replicas [0, 1, 2, 3, 4] never became ready"


def test_round_stalls_when_certificates_never_form():
    sim = Simulator(SimConfig(n=5, f=1, gamma=1, seed=7, max_rounds=6))
    sim._on_attest = lambda t, data: None  # every attestation is dropped
    with pytest.raises(ConfigError) as err:
        sim.advance_round()
    assert str(err.value) == (
        "round 0 certificates never formed: "
        "['r0000a000', 'r0000a001', 'r0000a002', 'r0000a003', 'r0000a004']"
    )


def test_delay_spikes_pinned():
    # no shipped scenario has a spike; pin one run with both scopes
    cfg = SimConfig(n=9, f=2, gamma=1, seed=23, max_rounds=16)
    faults = FaultSchedule([FaultDirective(6, REVERSE_ORDER, 0)])
    clients = uniform_load(9, 60, 1, 10, seed=23, skew_p=0.2)
    spikes = [DelaySpike(2, 4, 30, "vertex"), DelaySpike(3, 6, 25, "inbound")]
    res = Simulator(cfg, faults=faults, clients=clients, spikes=spikes).run()
    h = hashlib.sha256()
    for e in res.trace.deterministic_view():
        h.update(json.dumps(e, sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == "3ee33be66ea1b25438fa08c3ca904d6010fc227312ba1b330ea5d4ff2a1a13a8"
    assert orders_digest(res.pipeline.emitted) == (
        "0b8bf5f36e07e3464ddda41401350e320ecc22e80c8fd0316a8a90471d420319"
    )


def test_delayed_vote_is_cast_at_the_sighting_that_completes_its_wait_set():
    # at f=0 a vertex certifies on proposal (a quorum of one), so delaying
    # replica 1's round-4 vertex, the only one listing u, lets subdag 3 commit
    # u, parked against v, before replicas 0, 2, 3 and 4 have seen u
    cfg = SimConfig(n=5, f=0, gamma=1, seed=904883, max_rounds=14)
    sends = [("u", 1), ("v", 2)] + [("z", j) for j in range(5)]  # z is solid
    clients = ClientSchedule([ClientDirective(b, j, 4, seq) for seq, (b, j) in enumerate(sends)])
    sc = Scenario("delayed_vote", cfg, clients=clients, spikes=[DelaySpike(1, 4, 12, "vertex")])
    report, res = execute_scenario(sc, serial=True)
    assert all(report.verdicts.values()) and report.counts["parked_unresolved"] == 0
    events = res.trace.events
    u, v = tx_digest("u"), tx_digest("v")
    [parked] = [i for i, e in enumerate(events) if e["ev"] == "graph_parked"]
    assert events[parked]["r"] == 3 and events[parked]["pairs"] == (tuple(sorted([u, v])),)
    votes = {e["replica"]: i for i, e in enumerate(events) if e["ev"] == "vote_cast"}
    assert sorted(votes) == [0, 1, 2, 3, 4]
    assert votes[1] == parked + 1  # replica 1 listed u and votes at the FairPropose
    for x in (0, 2, 3, 4):
        vote = events[votes[x]]
        sighting = events[votes[x] + 1]
        assert votes[x] > parked and vote["target_r"] == 3
        assert (sighting["ev"], sighting["replica"], sighting["tx"]) == ("tx_received", x, u)
        lois = {e["tx"]: e["loi"] for e in events[:votes[x] + 2]
                if e["ev"] == "tx_received" and e["replica"] == x}
        [[a, b]] = vote["edges"]
        assert lois[a] < lois[b]  # the edge points from the lower LOI
        batch = next(e for e in events[votes[x]:]
                     if e["ev"] == "vertex_created" and e["replica"] == x)
        assert batch["votes"] == [{"author": x, "r": 3, "edges": vote["edges"]}]


def test_delay_spike_replica_outside_the_replicas_is_config_error():
    cfg = SimConfig(n=5, f=1, gamma=1, seed=3)
    for replica in (5, 99):
        with pytest.raises(ConfigError, match=rf"delay spike replica {replica} outside \[0, 5\)"):
            Simulator(cfg, spikes=[DelaySpike(replica, 4, 30, "inbound")])
    Simulator(cfg, spikes=[DelaySpike(4, 4, 30, "inbound"), DelaySpike(0, 0, 0)])


def test_fault_and_client_replicas_outside_the_replicas_are_config_errors():
    cfg = SimConfig(n=5, f=1, gamma=1, seed=3)
    for strategy, round_ in ((SILENT_CRASH, 3), (REVERSE_ORDER, 0)):
        with pytest.raises(ConfigError, match=r"fault replica 99 outside \[0, 5\)"):
            Simulator(cfg, faults=FaultSchedule([FaultDirective(99, strategy, round_)]))
    clients = ClientSchedule([ClientDirective("a", 0, 1, 0), ClientDirective("x", 5, 1, 1)])
    with pytest.raises(ConfigError, match=r"client replica 5 outside \[0, 5\)"):
        Simulator(cfg, clients=clients)
    Simulator(cfg, faults=FaultSchedule([FaultDirective(4, SILENT_CRASH, 0)]),
              clients=ClientSchedule([ClientDirective("a", 4, 1, 0)]))


def test_client_round_past_max_rounds_is_config_error():
    sc = sweep_scenario(5, 1, 1, 1)
    last = sc.config.max_rounds

    def sim(*extra):
        clients = ClientSchedule([*sc.clients.directives, *extra])
        return Simulator(sc.config, sc.faults, clients, sc.spikes)

    with pytest.raises(ConfigError, match=f"client round 1000000 past max_rounds {last}"):
        sim(ClientDirective("late", 0, 10**6, 10**9))
    # the run's last round still injects
    res = sim(ClientDirective("last", 0, last, 10**9)).run()
    assert tx_digest("last") in res.injection_time


@pytest.mark.parametrize("lo,hi", [(3, 3), (0, 2), (1, 4), (1, 6), (2, 9)])
def test_block_drawn_delays_match_randint(lo, hi):
    # spans 1, 3, 4, 6 and 8: k = 1..4 bits, powers of two and not
    cfg = SimConfig(n=5, f=1, gamma=1, seed=19, delay_min=lo, delay_max=hi)
    sim = Simulator(cfg)
    count = 3 * DELAY_BLOCK_WORDS + 17  # past at least three block refills
    ref = random.Random(f"{cfg.seed}:net")
    assert list(islice(sim.net_delays, count)) == [ref.randint(lo, hi) for _ in range(count)]


def test_lockstep_and_self_sends_draw_nothing():
    lock = lockstep_sim(max_rounds=4)
    state = lock.net_rng.getstate()
    lock.run()
    assert lock.net_rng.getstate() == state
    # uniform delivery: by the time round 0's certificates have formed, its
    # 5 vertices went to 4 others each, all 20 arrived and were attested, and
    # the 5 certificates went to 4 others each: 60 draws, none for a self-send
    sim = Simulator(SimConfig(n=5, f=1, gamma=1, seed=7, max_rounds=6))
    sim.advance_round()
    ref = random.Random("7:net")
    for _ in range(60):
        ref.randint(1, 6)
    assert list(islice(sim.net_delays, 20)) == [ref.randint(1, 6) for _ in range(20)]


def test_delay_span_must_fit_one_word():
    SimConfig(n=5, f=1, delay_min=5, delay_max=5 + 2**32 - 2)
    with pytest.raises(ConfigError):
        SimConfig(n=5, f=1, delay_min=5, delay_max=5 + 2**32 - 1)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(st.one_of(
    st.lists(st.integers(-3, 3), min_size=1, max_size=4),  # post at now + offset
    st.none(),  # pop one event
), max_size=60))
def test_event_queue_pops_in_time_then_post_order(ops):
    sim = Simulator(SimConfig(n=5, f=1, gamma=1))
    popped = []

    def record(t, data):
        popped.append((t, data))
        sim.progress = True  # ends the pump after this one event

    ref: list[tuple[int, int]] = []
    seq = 0
    for op in ops + [None] * (sum(map(len, filter(None, ops)))):
        if op is None:
            if ref:
                sim._pump(lambda want=len(popped) + 1: len(popped) == want, str)
                assert popped[-1] == heapq.heappop(ref)
        else:
            times = [sim.now + offset for offset in op]
            sim._post(times, record, range(seq, seq + len(op)))
            for t in times:
                heapq.heappush(ref, (t, seq))
                seq += 1
        assert sorted(sim.times) == sorted(sim.queue) and all(sim.queue.values())
    assert not ref and not sim.times


def _receipts(sim):
    return [(e["replica"], e["tx"], e["loi"]) for e in sim.trace.events
            if e["ev"] == "tx_received"]


def test_digest_listed_twice_in_a_batch_gets_one_loi():
    # decoded wire batches do not reject a repeated digest
    cfg = SimConfig(n=5, f=1, gamma=1, seed=3, max_rounds=4,
                    delivery_model="lockstep", batch_wire="binary")
    sim = Simulator(cfg)
    sim.advance_round()
    tx = tx_digest("twice")
    sim.workers[0].entry_queue = [(DIRECT, tx, 0), (INDIRECT, tx, 0)]
    sim.workers[0].body_queue = ["twice"]
    sim.advance_round()
    assert sim.by_round[1][0].record.entries == ((DIRECT, tx, 0), (INDIRECT, tx, 0))
    assert _receipts(sim) == [(j, tx, 0) for j in range(1, 5)]
    assert all(sim.workers[j].lois == {tx: 0} for j in range(1, 5))


def test_batch_of_known_digests_adds_no_receipt():
    cfg = SimConfig(n=5, f=1, gamma=1, seed=3, max_rounds=4, delivery_model="lockstep")
    sim = Simulator(cfg)
    sim.advance_round()
    tx = tx_digest("known")
    for j in range(5):
        sim.workers[j].observe_client("known", tx)
    receipts = _receipts(sim)
    lois = [dict(w.lois) for w in sim.workers]
    sim.advance_round()
    assert [v.record.entries for v in sim.by_round[1].values()] == [((DIRECT, tx, 0),)] * 5
    assert _receipts(sim) == receipts
    assert [w.lois for w in sim.workers] == lois


def test_infeasible_crash_schedule_rejected():
    cfg = SimConfig(n=5, f=1, gamma=1, seed=1, max_rounds=6)
    too_many = FaultSchedule([FaultDirective(0, SILENT_CRASH, 2),
                              FaultDirective(1, SILENT_CRASH, 2)])
    with pytest.raises(ValueError):
        Simulator(cfg, faults=too_many)  # budget f=1 exceeded


def test_wire_round_trip_inside_simulation():
    cfg = SimConfig(n=5, f=1, gamma=1, seed=4, max_rounds=16, batch_wire="binary")
    clients = uniform_load(5, 25, 1, 6, seed=4, skew_p=0.2)
    res = Simulator(cfg, clients=clients).run()
    assert sum(len(o.digests) for o in res.pipeline.emitted) == len(res.injected)


# -- schedules ---------------------------------------------------------------------


def test_fault_schedule_validation():
    with pytest.raises(ValueError):
        FaultSchedule([FaultDirective(0, "drop_alternate", 1)])
    with pytest.raises(ValueError):
        FaultSchedule([FaultDirective(0, SILENT_CRASH, 1),
                       FaultDirective(0, REVERSE_ORDER, 2)])
    sched = FaultSchedule([FaultDirective(0, SILENT_CRASH, 1)])
    with pytest.raises(ValueError):
        sched.check_budget(0)
    for replica, round_, field in ((-1, 3, "replica"), (True, 3, "replica"),
                                   (1, -4, "round"), (1, "3", "round")):
        with pytest.raises(ConfigError, match=f"fault directive {field} must be an integer >= 0"):
            FaultDirective(replica, SILENT_CRASH, round_)


def test_client_schedule_rounds_nondecreasing_per_replica():
    with pytest.raises(ValueError):
        ClientSchedule([
            ClientDirective("a", 0, 5, 0),
            ClientDirective("b", 0, 3, 1),
        ])


def test_random_crash_schedule_respects_budget():
    for seed in range(20):
        sched = random_crash_schedule(9, 2, 20, seed)
        assert sched.f_actual <= 2
        assert all(d.strategy == SILENT_CRASH for d in sched.directives)


def test_self_reference_chain_commits_in_round_order():
    # if replica i's round-r vertex is committed in subdag k, every earlier
    # vertex of i is committed in some subdag j <= k
    res = lockstep_sim(seed=13, max_rounds=14).run()
    commit_of: dict[tuple[int, int], int] = {}
    for rec in res.records:
        for vr in rec.vertices:
            commit_of[(vr.author, vr.round)] = rec.r
    for (author, rnd), k in commit_of.items():
        for earlier in range(rnd):
            assert commit_of.get((author, earlier), 10**9) <= k


@pytest.mark.parametrize("wave_len", [2, 3, 4])
def test_longer_waves_commit_consecutively_and_emit_everything(wave_len):
    cfg = SimConfig(n=5, f=1, gamma=1, seed=11, max_rounds=24, wave_len=wave_len)
    res = Simulator(cfg, clients=uniform_load(5, 40, 1, 16, seed=11, skew_p=0.2)).run()
    ids = [rec.r for rec in res.records]
    assert ids == list(range(1, len(ids) + 1)) and ids
    assert sum(len(o.digests) for o in res.pipeline.emitted) == len(res.injected)

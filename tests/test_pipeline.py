import sys

import numpy as np
import pytest

from batchfair import finalize, graph, params, pipeline
from batchfair.adversaries import (
    REVERSE_ORDER,
    SILENT_CRASH,
    FaultDirective,
    FaultSchedule,
    uniform_load,
)
from batchfair.dagsim import Simulator
from batchfair.params import SimConfig
from batchfair.pipeline import FairnessPipeline, _weights_task
from batchfair.scenarios import build_scenario, scenario_names, sweep_scenario
from batchfair.types import orders_digest
from reference import serial_landings_checked


def simulate(n=13, f=3, gamma=1, seed=42, rounds=24, txs=80, skew=0.3, crashes=True):
    cfg = SimConfig(n=n, f=f, gamma=gamma, seed=seed, max_rounds=rounds)
    faults = FaultSchedule()
    if crashes and f:
        replicas = [2, 7, 11][:f]
        faults = FaultSchedule(
            [FaultDirective(r, SILENT_CRASH, 4 + 3 * i) for i, r in enumerate(replicas)]
        )
    clients = uniform_load(n, txs, 1, rounds - 8, seed=seed, skew_p=skew)
    return Simulator(cfg, faults=faults, clients=clients).run(), cfg


def test_serial_replay_matches_in_loop():
    res, cfg = simulate(seed=42)
    replay = FairnessPipeline(cfg.n, cfg.f, cfg.gamma).replay(res.records)
    assert replay.emitted == res.pipeline.emitted


def test_concurrent_replay_matches_in_loop_with_parked_graphs(pool):
    res, cfg = simulate(seed=42, skew=0.3)
    parked_events = [e for e in res.trace.events if e["ev"] == "graph_parked"]
    assert parked_events, "scenario must exercise the vote path"
    conc = FairnessPipeline(cfg.n, cfg.f, cfg.gamma).replay_concurrent(
        res.records, slots=2, pool=pool
    )
    assert conc.emitted == res.pipeline.emitted
    assert orders_digest(conc.emitted) == orders_digest(res.pipeline.emitted)


def test_concurrent_window_excludes_solid_digests_and_cuts_stale_snapshots(monkeypatch, pool):
    res, cfg = simulate(seed=42, skew=0.3)
    events = []  # ("extract", snapshot) and ("land", snapshot, its cut), in call order
    extract, drop = pipeline.extract_snapshot, pipeline.drop_retained

    def extracted(state, record, claimed=frozenset()):
        events.append(("extract", extract(state, record, claimed)))
        return events[-1][1]

    def dropped(snap, proposed):
        events.append(("land", snap, drop(snap, proposed)))
        return events[-1][2]

    monkeypatch.setattr(pipeline, "extract_snapshot", extracted)
    monkeypatch.setattr(pipeline, "drop_retained", dropped)
    conc = FairnessPipeline(cfg.n, cfg.f, cfg.gamma).replay_concurrent(
        res.records, slots=2, pool=pool
    )
    assert conc.emitted == res.pipeline.emitted
    inflight, claimed_any, retained = {}, False, set()
    for event in events:
        snap = event[1]
        if event[0] == "extract":
            for prior in inflight.values():
                solid = {prior.admitted[i] for i in np.flatnonzero(prior.solid)}
                assert solid.isdisjoint(snap.admitted), (prior.r, snap.r)
                claimed_any |= bool(solid)
            inflight[snap.r] = snap
        else:
            del inflight[snap.r]
            # the cut drops only what an earlier subdag retained
            assert set(snap.admitted) - set(event[2].admitted) <= retained
            retained.update(next(e["k_digests"] for e in res.trace.events
                                 if e["ev"] == "graph_built" and e["r"] == snap.r))
    assert claimed_any
    assert any(len(cut.admitted) < len(snap.admitted) for _, snap, cut in
               (e for e in events if e[0] == "land"))


def test_serial_landings_admit_nothing_retained_earlier():
    for name in scenario_names():
        for variant in build_scenario(name).variants or [{}]:
            sc = build_scenario(name, **variant)
            with serial_landings_checked() as landed:
                res = Simulator(sc.config, sc.faults, sc.clients, sc.spikes).run()
            assert landed == [rec.r for rec in res.records]


class CountingExecutor:
    """Delegates to a real pool and records the function, the arguments and
    the future of every submit."""

    def __init__(self, pool):
        self._pool = pool
        self.submitted = []
        self.args = []
        self.futures = []

    def submit(self, fn, *args, **kwargs):
        self.submitted.append(fn)
        self.args.append(args)
        self.futures.append(self._pool.submit(fn, *args, **kwargs))
        return self.futures[-1]


def _strings(obj) -> list:
    """Every str inside nested tuples, lists, dicts and sets."""
    if isinstance(obj, str):
        return [obj]
    if isinstance(obj, dict):
        return _strings(list(obj.items()))
    if isinstance(obj, (tuple, list, set, frozenset)):
        return [s for item in obj for s in _strings(item)]
    return []


def test_concurrent_replay_sends_only_phase1_to_the_pool(pool):
    res, cfg = simulate(seed=42, skew=0.3)
    assert any(e["ev"] == "graph_parked" for e in res.trace.events)
    counting = CountingExecutor(pool)
    conc = FairnessPipeline(cfg.n, cfg.f, cfg.gamma).replay_concurrent(
        res.records, slots=4, pool=counting
    )
    assert counting.submitted == [_weights_task] * len(res.records)
    assert conc.emitted == res.pipeline.emitted
    # each task ships the admitted count and per-author integer index orders
    assert any(orders for _, orders in counting.args)
    for m, orders in counting.args:
        assert type(m) is int
        for order in orders.values():
            assert all(type(i) is int and 0 <= i < m for i in order)
    # no digest crosses the pool in either direction
    results = [fut.result() for fut in counting.futures]
    assert _strings(counting.args) == [] and _strings(results) == []
    # and the pool's counts are the in-process kernel's, dtype included
    for (weights, _), (m, orders) in zip(results, counting.args):
        local = graph.weight_counts(m, orders)
        assert weights.dtype == local.dtype and np.array_equal(weights, local)


def count_calls(monkeypatch, module, name) -> list:
    """Wrap ``module.name`` in every batchfair namespace that holds it; the
    returned list grows by one entry per call."""
    orig = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return orig(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("batchfair") and vars(mod).get(name) is orig:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_scc_pass_once_per_subdag_and_finalize_only_on_resolve(monkeypatch):
    res, cfg = simulate(seed=42, skew=0.3)
    scc = count_calls(monkeypatch, graph, "scc_positions")
    finalized = count_calls(monkeypatch, finalize, "finalize_order")
    pipe = FairnessPipeline(cfg.n, cfg.f, cfg.gamma)
    landings = [pipe.on_commit(rec) for rec in res.records]
    out = pipe.finish()
    parked = {e["r"] for lg in landings for e in lg.events if e["ev"] == "graph_parked"}
    resolved = parked - set(out.parked_left)
    assert resolved, "scenario must resolve parked subdags through votes"
    assert len(scc) == len(res.records) + len(resolved)
    assert len(finalized) == len(resolved)
    assert out.emitted == res.pipeline.emitted


PIPELINE_EVENTS = ("order_emitted", "graph_built", "graph_profile", "graph_parked")


def _without_wall_clock(events: list[dict]) -> list[dict]:
    # graph_profile carries nanoseconds: keep only its place and subdag
    return [{"ev": e["ev"], "r": e["r"]} if e["ev"] == "graph_profile" else e for e in events]


def test_landings_carry_the_in_loop_pipeline_events():
    res, cfg = simulate(seed=42, skew=0.3)
    events = res.trace.events
    committed = [i for i, e in enumerate(events) if e["ev"] == "subdag_committed"]
    pipe = FairnessPipeline(cfg.n, cfg.f, cfg.gamma)
    emitted, emit_time, proposed = [], {}, 0
    for rec, i in zip(res.records, committed, strict=True):
        landing = pipe.on_commit(rec, now=events[i]["t"])
        # in the trace, a landing's events follow its subdag_committed event
        end = i + 1
        while end < len(events) and events[end]["ev"] in PIPELINE_EVENTS:
            end += 1
        assert _without_wall_clock(landing.events) == _without_wall_clock(events[i + 1:end])
        assert [e["r"] for e in landing.events if e["ev"] == "order_emitted"] == [
            o.r for o in landing.emitted
        ]
        parked = [e for e in landing.events if e["ev"] == "graph_parked"]
        if landing.fair_propose is None:
            assert parked == []
        else:
            # parking ends the landing, so the votes it releases come after
            assert landing.events[-1] is parked[0]
            r, missing = landing.fair_propose
            assert r == rec.r and missing == list(parked[0]["pairs"])
            proposed += 1
        emitted += landing.emitted
        emit_time.update((o.r, events[i]["t"]) for o in landing.emitted)
    assert proposed, "scenario must park a graph"
    assert emitted == res.pipeline.emitted and emit_time == res.emit_time


def test_trace_events_hold_the_runs_own_values():
    # an event refers to the run's value instead of holding a copy of it
    res, cfg = simulate(seed=42, skew=0.3)
    events = res.trace.events
    created = {e["vid"]: e for e in events if e["ev"] == "vertex_created"}
    for rec in res.records:
        for vr in rec.vertices:
            assert created[vr.vid]["entries"] is vr.entries
    edges = [e["edges"] for e in events if e["ev"] == "vote_cast"]
    edges += [v["edges"] for e in created.values() for v in e["votes"]]
    assert edges and all(type(es) is tuple for es in edges)
    assert all(type(edge) is tuple for es in edges for edge in es)
    emitted = [e for e in events if e["ev"] == "order_emitted"]
    for e, order in zip(emitted, res.pipeline.emitted, strict=True):
        assert e["digests"] is order.digests and e["batches"] is order.batches
    built = [e for e in events if e["ev"] == "graph_built"]
    parked = [e for e in events if e["ev"] == "graph_parked"]
    assert parked and all(type(e["k_digests"]) is tuple for e in built)
    assert all(type(e["pairs"]) is tuple for e in parked)
    profiles = [e for e in events if e["ev"] == "graph_profile"]
    assert len(profiles) == len(res.pipeline.profiles)
    assert all(e is p for e, p in zip(profiles, res.pipeline.profiles))


def test_support_classified_once_per_subdag(monkeypatch):
    res, cfg = simulate(seed=42, skew=0.3)
    classified = count_calls(monkeypatch, graph, "classify")
    out = FairnessPipeline(cfg.n, cfg.f, cfg.gamma).replay(res.records)
    assert len(classified) == len(res.records)
    assert out.emitted == res.pipeline.emitted


def test_retained_digests_leave_every_per_author_structure():
    res, cfg = simulate(seed=42)
    pipe = FairnessPipeline(cfg.n, cfg.f, cfg.gamma)
    state = pipe.state
    # every author-keyed container of digests
    per_author = [v for v in vars(state).values() if isinstance(v, dict)]
    assert per_author
    for rec in res.records:
        pipe.on_commit(rec)  # lands the subdag: apply_result
        for by_author in per_author:
            for held in by_author.values():
                assert state.proposed.isdisjoint(held), rec.r
    assert state.proposed


def test_quorum_arithmetic_once_per_config(monkeypatch):
    calls = count_calls(monkeypatch, params, "quorum_size")
    counts = []
    for rounds in (14, 28):  # twice the rounds, twice the DAG messages
        before = len(calls)
        simulate(seed=42, rounds=rounds)
        counts.append(len(calls) - before)
    assert counts[0] == counts[1] > 0


def test_every_driver_routes_each_record_when_it_lands(monkeypatch, pool):
    """Serial and concurrent replay route the same records, in the same
    order, and resolve the same subdags from them: no vote waits for its
    target to park, and no subdag resolves anywhere but in vote routing."""
    sc = sweep_scenario(5, 1, "1", 1)
    cfg = sc.config
    res = Simulator(cfg, sc.faults, sc.clients, sc.spikes).run()
    route_votes = pipeline.route_votes
    log: list[tuple[int, list[int]]] = []

    def logged(store, record):
        targets = route_votes(store, record)
        log.append((record.r, targets))
        return targets

    monkeypatch.setattr(pipeline, "route_votes", logged)
    serial = FairnessPipeline(cfg.n, cfg.f, cfg.gamma).replay(res.records)
    want = list(log)
    assert [r for r, _ in want] == [rec.r for rec in res.records]
    assert any(targets for _, targets in want), "scenario must resolve parked subdags"
    for slots in (1, 2, 3, 4):
        log.clear()
        conc = FairnessPipeline(cfg.n, cfg.f, cfg.gamma).replay_concurrent(
            res.records, slots=slots, pool=pool
        )
        assert log == want, slots
        assert conc.emitted == serial.emitted == res.pipeline.emitted


@pytest.mark.parametrize("slots", [1, 2, 4])
def test_scheduling_independence_across_slot_counts(slots, pool):
    res, cfg = simulate(seed=9, txs=60, skew=0.4)
    conc = FairnessPipeline(cfg.n, cfg.f, cfg.gamma).replay_concurrent(
        res.records, slots=slots, pool=pool
    )
    assert conc.emitted == res.pipeline.emitted


@pytest.mark.parametrize("seed", [1, 7, 13])
def test_equivalence_with_reversers(seed, pool):
    cfg = SimConfig(n=5, f=1, gamma=1, seed=seed, max_rounds=18)
    faults = FaultSchedule([FaultDirective(3, REVERSE_ORDER, 0)])
    clients = uniform_load(5, 40, 1, 12, seed=seed, skew_p=0.25)
    res = Simulator(cfg, faults=faults, clients=clients).run()
    serial = FairnessPipeline(5, 1, 1).replay(res.records)
    conc = FairnessPipeline(5, 1, 1).replay_concurrent(res.records, slots=2, pool=pool)
    assert serial.emitted == conc.emitted == res.pipeline.emitted


def test_empty_record_stream():
    p = FairnessPipeline(5, 1, 1)
    out = p.replay([])
    assert out.emitted == [] and out.parked_left == []


def test_proposed_set_monotone_and_matches_retained_sets():
    res, cfg = simulate(seed=42)
    replay = FairnessPipeline(cfg.n, cfg.f, cfg.gamma)
    proposed_history = []
    for rec in res.records:
        replay.on_commit(rec)
        proposed_history.append(set(replay.state.proposed))
    for earlier, later in zip(proposed_history, proposed_history[1:]):
        assert earlier <= later  # nested ascending along the subdag sequence
    k_union = set()
    for _, k_digests in res.trace.retained_sets():
        k_union |= set(k_digests)
    assert proposed_history[-1] == k_union


def test_profiles_cover_every_subdag():
    res, cfg = simulate(seed=42)
    assert [p["r"] for p in res.pipeline.profiles] == [rec.r for rec in res.records]
    for p in res.pipeline.profiles:
        for key in ("extract_ns", "weights_ns", "build_ns", "scc_ns", "result_ns"):
            assert p[key] >= 0


def test_serial_and_concurrent_phase_totals_close(pool):
    # same computation, different scheduling: per-phase totals line up within
    # a generous noise factor. A total is about a millisecond, so one
    # preemption can push a single replay out of the band: each side keeps
    # its minimum over three replays, alternating which side runs first.
    res, cfg = simulate(seed=42, txs=120, rounds=26)
    keys = ("weights_ns", "scc_ns")
    totals: dict[str, list[dict]] = {"serial": [], "concurrent": []}
    for i in range(3):
        for side in ("serial", "concurrent")[:: 1 if i % 2 == 0 else -1]:
            pipe = FairnessPipeline(cfg.n, cfg.f, cfg.gamma)
            if side == "serial":
                out = pipe.replay(res.records)
            else:
                out = pipe.replay_concurrent(res.records, slots=2, pool=pool)
            totals[side].append({k: sum(p[k] for p in out.profiles) for k in keys})
    for key in keys:
        a = min(t[key] for t in totals["serial"])
        b = min(t[key] for t in totals["concurrent"])
        assert a > 0 and b > 0
        assert 1 / 4 < a / b < 4


def test_equivalence_over_randomized_configurations(pool):
    """Broad configuration stress: random n/f/gamma/wave/delivery/skew/crash
    combinations, concurrent replay vs oracle serial reference."""
    import random

    from batchfair.adversaries import random_crash_schedule
    from batchfair.oracle import serial_reference
    from batchfair.params import ConfigError

    rng = random.Random(99)
    ran = 0
    attempts = 0
    while ran < 30 and attempts < 120:
        attempts += 1
        n, f = rng.choice([(5, 1), (6, 1), (9, 2), (13, 3), (7, 1)])
        gamma = rng.choice(["1", "0.9", "0.8"])
        wave_len = rng.choice([2, 3])
        seed = rng.randrange(10_000)
        try:
            cfg = SimConfig(
                n=n, f=f, gamma=gamma, seed=seed, max_rounds=rng.choice([20, 26]),
                wave_len=wave_len,
                delivery_model=rng.choice(["uniform", "lockstep"]),
                delay_max=rng.choice([3, 6, 10]),
            )
            faults = random_crash_schedule(n, f, cfg.max_rounds, seed)
            skew = 0.25 if cfg.gamma == 1 else 0.0
            clients = uniform_load(
                n, rng.choice([30, 60]), 1, cfg.max_rounds - 8, seed=seed, skew_p=skew
            )
            res = Simulator(cfg, faults=faults, clients=clients).run()
        except ConfigError:
            continue  # infeasible corner (tight quorum + scheduled crashes)
        conc = FairnessPipeline(n, f, cfg.gamma).replay_concurrent(
            res.records, slots=2, pool=pool
        )
        oracle = serial_reference(res.records, n, f, cfg.gamma)
        assert conc.emitted == oracle.orders == res.pipeline.emitted, (
            n, f, gamma, wave_len, seed,
        )
        ran += 1
    assert ran == 30

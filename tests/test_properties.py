"""Property tests over synthetic committed-record streams.

These bypass the simulator entirely: random (including adversarially odd)
per-author contribution streams go straight into the fairness pipeline, so
window/cut/truncation behavior is exercised on shapes the simulator would
rarely produce (duplicate listings, empty subdags, single-author bursts).
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from batchfair.graph import (
    CumulativeState,
    apply_result,
    drop_retained,
    extract_snapshot,
    phase1_weights,
    phase2_build_graph,
    phase3_anchor,
)
from batchfair.oracle import serial_reference
from batchfair.pipeline import FairnessPipeline
from batchfair.types import DIRECT, CommitRecord, VertexRecord, tx_digest
from reference import serial_landings_checked

N, F = 5, 1
GAMMA = Fraction(1)
UNIVERSE = sorted(tx_digest(f"p{i}") for i in range(10))


@st.composite
def record_streams(draw):
    """A stream of commit records with per-author LOI-consistent entries."""
    n_records = draw(st.integers(1, 6))
    # per author, a global arrival order over a subset of the universe
    arrivals = {}
    for author in range(N):
        txs = draw(st.permutations(UNIVERSE))
        cut = draw(st.integers(0, len(UNIVERSE)))
        arrivals[author] = txs[:cut]
    # split each author's arrival order into per-record chunks (prefix rule)
    cuts = {
        author: sorted(
            draw(
                st.lists(
                    st.integers(0, len(arrivals[author])),
                    min_size=n_records - 1,
                    max_size=n_records - 1,
                )
            )
        )
        for author in range(N)
    }
    records = []
    for r in range(1, n_records + 1):
        vrs = []
        for author in range(N):
            seq = arrivals[author]
            bounds = [0, *cuts[author], len(seq)]
            chunk = seq[bounds[r - 1] : bounds[r]]
            entries = tuple((DIRECT, dg, bounds[r - 1] + k) for k, dg in enumerate(chunk))
            if entries:
                vrs.append(VertexRecord(author, r, f"r{r:04d}a{author:03d}", entries))
        records.append(CommitRecord(r, f"r{r:04d}a000", tuple(vrs)))
    return records


@settings(max_examples=50, deadline=None)
@given(records=record_streams())
def test_single_graph_and_chain_invariants_on_random_streams(records):
    pipe = FairnessPipeline(N, F, GAMMA)
    k_sets = []
    proposed_sets = []
    for rec in records:
        pipe.on_commit(rec)
        proposed_sets.append(set(pipe.state.proposed))
    for p, rec in zip(pipe.profiles, records):
        assert p["r"] == rec.r
    # single graph: each digest retained at most once across the run
    retained = [d for o in pipe.emitted for d in o.digests]
    for r in sorted(pipe.store.ready):
        retained.extend(pipe.store.ready[r].digests)
    assert len(retained) == len(set(retained))
    # the set of retained digests only grows
    for a, b in zip(proposed_sets, proposed_sets[1:]):
        assert a <= b


@settings(max_examples=30, deadline=None)
@given(records=record_streams())
def test_oracle_matches_serial_pipeline_on_random_streams(records):
    pipe = FairnessPipeline(N, F, GAMMA)
    out = pipe.replay(records)
    oracle = serial_reference(records, N, F, GAMMA)
    assert oracle.orders == out.emitted


@settings(max_examples=15, deadline=None)
@given(records=record_streams(), slots=st.sampled_from([1, 3]))
def test_concurrent_matches_serial_on_random_streams(records, slots, pool):
    serial = FairnessPipeline(N, F, GAMMA).replay(records)
    conc = FairnessPipeline(N, F, GAMMA).replay_concurrent(
        records, slots=slots, pool=pool
    )
    assert serial.emitted == conc.emitted
    assert serial.parked_left == conc.parked_left


@settings(max_examples=50, deadline=None)
@given(records=record_streams())
def test_serial_snapshots_admit_nothing_retained_earlier(records):
    with serial_landings_checked() as landed:
        FairnessPipeline(N, F, GAMMA).replay(records)
    assert landed == [rec.r for rec in records]


@settings(max_examples=50, deadline=None)
@given(records=record_streams(), slots=st.integers(1, 3))
def test_solid_retention_and_claim_subset(records, slots):
    # a window of `slots` snapshots extracted ahead of their landings, as in
    # the concurrent replay: a new snapshot admits no solid digest of the
    # window, a snapshot's solid digests not retained earlier land in its own
    # K_r, and every K_r is the serial pipeline's
    state = CumulativeState(N, F, GAMMA)
    window, k_sets = [], []

    def land():
        snap = window.pop(0)
        solid = {snap.admitted[i] for i in np.flatnonzero(snap.solid)}
        graph = phase2_build_graph(drop_retained(snap, state.proposed), state.tau_i)
        trunc, anchor, k_digests = phase3_anchor(graph)
        assert solid - state.proposed <= set(k_digests)
        apply_result(state, snap.r, k_digests)
        k_sets.append(tuple(k_digests))

    for rec in records:
        claimed = {p.admitted[i] for p in window for i in np.flatnonzero(p.solid)}
        snap = phase1_weights(extract_snapshot(state, rec, claimed))
        assert claimed.isdisjoint(snap.admitted)
        window.append(snap)
        if len(window) >= slots:
            land()
    while window:
        land()
    serial = FairnessPipeline(N, F, GAMMA)
    assert k_sets == [
        next(e["k_digests"] for e in serial.on_commit(rec).events if e["ev"] == "graph_built")
        for rec in records
    ]


def test_byzantine_double_listing_deduped():
    dg = tx_digest("dup")
    rec = CommitRecord(
        1,
        "r0001a000",
        (
            VertexRecord(0, 1, "r0001a000", ((DIRECT, dg, 0), (DIRECT, dg, 5))),
            VertexRecord(1, 1, "r0001a001", ((DIRECT, dg, 0),)),
            VertexRecord(2, 1, "r0001a002", ((DIRECT, dg, 0),)),
        ),
    )
    state = CumulativeState(N, F, GAMMA)
    snap = extract_snapshot(state, rec)
    assert snap.admitted == [dg]
    assert snap.orders[0] == [0]  # first listing wins, duplicate dropped
    report = phase1_weights(snap)
    # support counts one per listing author: 3, not 4
    assert sum(order.count(0) for order in snap.orders.values()) == 3
    assert report.admitted == [dg] and report.solid.tolist() == [True]

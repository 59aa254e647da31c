import json
import struct

import pytest
from hypothesis import given, settings, strategies as st

from batchfair.types import DIRECT, INDIRECT, Batch, tx_digest
from batchfair.worker import WireError, WorkerState, decode_batch, encode_batch


def d(name: str) -> str:
    return tx_digest(name)


def make_worker(reverse=False) -> WorkerState:
    return WorkerState(0, reverse_order=reverse)


# -- LOI tracker -----------------------------------------------------------------


def test_loi_counter_base_and_increment():
    w = make_worker()
    assert w.observe_client("a", d("a")) == (0, True)
    assert w.observe_client("b", d("b")) == (1, True)


def test_loi_idempotent_reobservation():
    w = make_worker()
    assert w.observe_client("a", d("a")) == (0, True)
    assert w.observe_client("a", d("a")) == (0, False)
    assert w.tracker.next_loi == 1


def test_same_loi_for_remote_then_client_path():
    w = make_worker()
    first = w.observe_remote(d("a"))
    again = w.observe_client("a", d("a"))
    assert first == (0, True) and again == (0, False)


@given(st.lists(st.integers(0, 30), min_size=1, max_size=60))
def test_loi_bijection_gapless(ids):
    w = make_worker()
    for i in ids:
        w.observe_client(f"tx{i}", d(f"tx{i}"))
    lois = [w.tracker.loi_of(d(f"tx{i}")) for i in sorted(set(ids))]
    assert sorted(lois) == list(range(len(set(ids))))
    # observation order matches assignment order
    first_seen = list(dict.fromkeys(d(f"tx{i}") for i in ids))
    assert list(w.tracker.assignment) == first_seen
    assert [w.tracker.loi_of(x) for x in first_seen] == list(range(len(set(ids))))


# -- batch assembly ---------------------------------------------------------------


def test_batch_entries_in_loi_order_and_kinds():
    w = make_worker()
    w.observe_client("a", d("a"))
    w.observe_remote(d("x"))
    w.observe_client("b", d("b"))
    batch = w.build_batch()
    assert [e.loi for e in batch.entries] == [0, 1, 2]
    assert [e.kind for e in batch.entries] == [DIRECT, INDIRECT, DIRECT]
    assert [e.body for e in batch.entries] == ["a", None, "b"]


def test_indirect_one_hop_never_reforwarded():
    w = make_worker()
    w.observe_remote(d("x"))
    first = w.build_batch()
    assert [(e.kind, e.digest) for e in first.entries] == [(INDIRECT, d("x"))]
    w.observe_remote(d("x"))  # second sighting of the same digest
    assert w.build_batch().entries == ()


def test_sealed_batches_strictly_ascending_across_seals():
    w = make_worker()
    seen = []
    for k in range(7):
        w.observe_client(f"t{k}", d(f"t{k}"))
        if k % 2:
            seen.extend(e.loi for e in w.build_batch().entries)
    seen.extend(e.loi for e in w.build_batch().entries)
    assert seen == sorted(seen) == list(range(7))


def test_reverser_reports_exact_reverse():
    w = make_worker(reverse=True)
    for name in ("a", "b", "c"):
        w.observe_client(name, d(name))
    batch = w.build_batch()
    assert [e.body for e in batch.entries] == ["c", "b", "a"]
    # single transaction batches are unchanged
    w.observe_client("z", d("z"))
    assert [e.body for e in w.build_batch().entries] == ["z"]


# -- Algorithm-1 voting --------------------------------------------------------------


def test_fair_propose_both_known_votes_min_to_max():
    w = make_worker()
    w.observe_client("a", d("a"))  # loi 0
    w.observe_client("b", d("b"))  # loi 1
    w.on_fair_propose(3, {(d("a"), d("b"))})
    assert len(w.vote_queue) == 1
    vote = w.vote_queue[0]
    assert vote.target_r == 3 and vote.edges == ((d("a"), d("b")),)


def test_fair_propose_defers_unknown_endpoint():
    w = make_worker()
    w.observe_client("a", d("a"))
    w.on_fair_propose(4, {(d("a"), d("c"))})
    assert w.vote_queue == []
    assert w.edge_store.pending[4]


def test_deferred_pair_resolves_on_new_tx():
    w = make_worker()
    w.observe_client("a", d("a"))
    w.on_fair_propose(5, {(d("a"), d("c"))})
    w.observe_remote(d("c"))  # loi 1 > loi(a) = 0
    assert len(w.vote_queue) == 1
    assert w.vote_queue[0].edges == ((d("a"), d("c")),)


def test_two_subdags_pending_on_same_tx_both_release():
    w = make_worker()
    w.observe_client("x", d("x"))
    w.observe_client("y", d("y"))
    w.on_fair_propose(4, {(d("t"), d("x"))})
    w.on_fair_propose(6, {(d("y"), d("t"))})
    assert w.vote_queue == []
    w.observe_remote(d("t"))
    targets = sorted(v.target_r for v in w.vote_queue)
    assert targets == [4, 6]
    # directional honesty: every edge goes small LOI -> large LOI
    for vote in w.vote_queue:
        for u, v in vote.edges:
            assert w.tracker.loi_of(u) < w.tracker.loi_of(v)


def test_unrelated_tx_is_noop_for_pending():
    w = make_worker()
    w.on_fair_propose(2, {(d("p"), d("q"))})
    w.observe_client("zzz", d("zzz"))
    assert w.vote_queue == [] and w.edge_store.pending[2]


def test_duplicate_fair_propose_rejected():
    w = make_worker()
    w.on_fair_propose(7, set())
    with pytest.raises(ValueError):
        w.on_fair_propose(7, set())


def test_vote_covers_complete_missing_set():
    w = make_worker()
    for name in ("a", "b", "c", "e"):
        w.observe_client(name, d(name))
    missing = {(d("a"), d("b")), (d("c"), d("e")), (d("a"), d("e"))}
    w.on_fair_propose(9, missing)
    vote = w.vote_queue[0]
    assert len(vote.edges) == len(missing)
    covered = {tuple(sorted(e)) for e in vote.edges}
    assert covered == {tuple(sorted(p)) for p in missing}


# -- wire formats ----------------------------------------------------------------------


def _example_batch():
    w = make_worker()
    w.observe_client("pay-alice-5", d("pay-alice-5"))
    w.observe_remote(d("remote-tx"))
    w.on_fair_propose(2, {(d("pay-alice-5"), d("remote-tx"))})
    w.observe_client("pay-bob-7", d("pay-bob-7"))
    return w.build_batch()


@pytest.mark.parametrize("fmt", ["json", "binary"])
def test_batch_wire_round_trip(fmt):
    batch = _example_batch()
    assert batch.votes and batch.entries  # both payload kinds present
    wire = encode_batch(batch, fmt)
    assert decode_batch(wire, fmt) == batch


def test_binary_wire_is_length_prefixed():
    import struct

    wire = encode_batch(_example_batch(), "binary")
    (length,) = struct.unpack_from("<I", wire, 0)
    assert length == len(wire) - 4


@settings(max_examples=40)
@given(
    names=st.lists(st.text(alphabet="abcdef", min_size=1, max_size=6), min_size=0, max_size=12),
    fmt=st.sampled_from(["json", "binary"]),
    reverse=st.booleans(),
)
def test_wire_round_trip_property(names, fmt, reverse):
    w = make_worker(reverse=reverse)
    for i, name in enumerate(names):
        if i % 3 == 2:
            w.observe_remote(d(name + "!remote"))
        else:
            w.observe_client(name, d(name))
    batch = w.build_batch()
    assert decode_batch(encode_batch(batch, fmt), fmt) == batch


def _json_with(path, value):
    doc = json.loads(encode_batch(_example_batch(), "json"))
    *outer, last = path
    node = doc
    for key in outer:
        node = node[key]
    node[last] = value
    return json.dumps(doc).encode()


@pytest.mark.parametrize(
    "fmt, wire",
    [
        ("binary", encode_batch(_example_batch(), "binary")[:-3]),
        ("binary", encode_batch(_example_batch(), "binary")[:3]),
        ("json", b'{"author": 0, "seq": 0, "votes": []}'),
        ("json", b'{"author": 0, "seq": 0, "entries": []}'),
        ("json", b"\xff"),
    ],
)
def test_decode_batch_rejects_truncated_or_incomplete_input(fmt, wire):
    with pytest.raises(WireError):
        decode_batch(wire, fmt)


def test_binary_decode_rejects_trailing_bytes_inside_declared_length():
    wire = encode_batch(_example_batch(), "binary")
    padded = struct.pack("<I", len(wire) - 4 + 2) + wire[4:] + b"\0\0"
    with pytest.raises(WireError):
        decode_batch(padded, "binary")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)
JSON_PATHS = st.sampled_from(
    [("author",), ("seq",), ("entries",), ("votes",), ("entries", 0), ("entries", 0, 0),
     ("entries", 0, 2), ("entries", 0, 3), ("votes", 0), ("votes", 0, "r"),
     ("votes", 0, "edges"), ("votes", 0, "edges", 0)]
)


def _mangled(fmt):
    wire = encode_batch(_example_batch(), fmt)
    n = len(wire)

    def with_tail(extra):
        if fmt == "binary":  # keep the length prefix honest so the tail is inside it
            return struct.pack("<I", n - 4 + len(extra)) + wire[4:] + extra
        return wire + extra

    strategies = [
        st.binary(max_size=200),
        st.integers(0, n - 1).map(lambda k: wire[:k]),
        st.tuples(st.integers(0, n - 1), st.integers(0, 255)).map(
            lambda t: wire[: t[0]] + bytes([t[1]]) + wire[t[0] + 1 :]
        ),
        st.binary(min_size=1, max_size=8).map(with_tail),
    ]
    if fmt == "json":
        strategies.append(st.builds(_json_with, JSON_PATHS, JSON_VALUES))
    return st.one_of(strategies)


@settings(max_examples=300)
@given(data=st.data(), fmt=st.sampled_from(["json", "binary"]))
def test_decode_batch_yields_a_valid_batch_or_wire_error(data, fmt):
    wire = data.draw(_mangled(fmt))
    try:
        batch = decode_batch(wire, fmt)
    except WireError:
        return
    assert isinstance(batch, Batch)
    assert decode_batch(encode_batch(batch, fmt), fmt) == batch

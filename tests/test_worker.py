import struct

import pytest
from hypothesis import given, settings, strategies as st

from batchfair.types import DIRECT, INDIRECT, Batch, FairUpdateVote, tx_digest
from batchfair.worker import WireError, WorkerState, decode_batch, encode_batch


def d(name: str) -> str:
    return tx_digest(name)


def make_worker(reverse=False) -> WorkerState:
    return WorkerState(0, reverse_order=reverse)


# -- LOI table -------------------------------------------------------------------


def test_loi_counter_base_and_increment():
    w = make_worker()
    assert w.observe_client("a", d("a")) == (0, True)
    assert w.observe_client("b", d("b")) == (1, True)


def test_loi_idempotent_reobservation():
    w = make_worker()
    assert w.observe_client("a", d("a")) == (0, True)
    assert w.observe_client("a", d("a")) == (0, False)
    assert w.lois == {d("a"): 0}


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
    lois = [w.lois[d(f"tx{i}")] for i in sorted(set(ids))]
    assert sorted(lois) == list(range(len(set(ids))))
    # observation order matches assignment order
    first_seen = list(dict.fromkeys(d(f"tx{i}") for i in ids))
    assert list(w.lois) == first_seen
    assert [w.lois[x] for x in first_seen] == list(range(len(set(ids))))


# -- batch assembly ---------------------------------------------------------------


def test_batch_entries_in_loi_order_and_kinds():
    w = make_worker()
    w.observe_client("a", d("a"))
    w.observe_remote(d("x"))
    w.observe_client("b", d("b"))
    batch = w.build_batch()
    assert [loi for _kind, _digest, loi in batch.entries] == [0, 1, 2]
    assert [kind for kind, _digest, _loi in batch.entries] == [DIRECT, INDIRECT, DIRECT]
    assert batch.bodies == ("a", "b")


def test_indirect_one_hop_never_reforwarded():
    w = make_worker()
    w.observe_remote(d("x"))
    first = w.build_batch()
    assert first.entries == ((INDIRECT, d("x"), 0),)
    w.observe_remote(d("x"))  # second sighting of the same digest
    assert w.build_batch().entries == ()


def test_sealed_batches_strictly_ascending_across_seals():
    w = make_worker()
    seen = []
    for k in range(7):
        w.observe_client(f"t{k}", d(f"t{k}"))
        if k % 2:
            seen.extend(loi for _kind, _digest, loi in w.build_batch().entries)
    seen.extend(loi for _kind, _digest, loi in w.build_batch().entries)
    assert seen == sorted(seen) == list(range(7))


def test_reverser_reports_exact_reverse():
    w = make_worker(reverse=True)
    for name in ("a", "b", "c"):
        w.observe_client(name, d(name))
    batch = w.build_batch()
    assert [digest for _kind, digest, _loi in batch.entries] == [d("c"), d("b"), d("a")]
    assert batch.bodies == ("c", "b", "a")
    # single transaction batches are unchanged
    w.observe_client("z", d("z"))
    assert w.build_batch().bodies == ("z",)


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
    assert w.waiting[4] == ({d("c")}, [tuple(sorted((d("a"), d("c"))))])


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
            assert w.lois[u] < w.lois[v]


def test_unrelated_tx_is_noop_for_pending():
    w = make_worker()
    w.on_fair_propose(2, {(d("p"), d("q"))})
    w.observe_client("zzz", d("zzz"))
    assert w.vote_queue == [] and w.waiting[2][0] == {d("p"), d("q")}


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


# -- equivalence with the per-pair Algorithm-1 worker ------------------------------------


class ReferenceWorker:
    """Algorithm 1 pair by pair: each missing pair waits on its own, every
    first sighting retries the waiting pairs it touches, and a subdag's vote
    goes out once none of its pairs waits. Kept here to pin WorkerState's
    wait sets to it."""

    def __init__(self, replica: int, reverse_order: bool = False) -> None:
        self.replica = replica
        self.reverse_order = reverse_order
        self.assignment: dict[str, int] = {}
        self.pending: dict[int, set[tuple[str, str]]] = {}
        self.resolved: dict[int, dict[tuple[str, str], tuple[str, str]]] = {}
        self.proposed: set[int] = set()
        self.entry_queue: list[tuple] = []  # (kind, digest, loi, body)
        self.vote_queue: list[FairUpdateVote] = []
        self.seq = 0
        self.vote_cb = None

    def _record(self, digest, kind, body=None):
        if digest in self.assignment:
            return self.assignment[digest], False
        loi = self.assignment[digest] = len(self.assignment)
        self.entry_queue.append((kind, digest, loi, body))
        for r in sorted(self.pending):
            hits = [p for p in self.pending[r] if digest in p]
            for pair in hits:
                self._try_resolve(r, pair)
            if hits:
                self._maybe_release(r)
        return loi, True

    def observe_client(self, body, digest):
        return self._record(digest, DIRECT, body)

    def observe_remote(self, digest):
        return self._record(digest, INDIRECT)

    def on_fair_propose(self, r, missing):
        if r in self.proposed:
            raise ValueError(f"duplicate FairPropose for subdag {r}")
        self.proposed.add(r)
        self.pending[r] = set()
        self.resolved[r] = {}
        for u, v in missing:
            self._try_resolve(r, (u, v) if u <= v else (v, u))
        self._maybe_release(r)

    def _try_resolve(self, r, pair):
        u, v = pair
        if u in self.assignment and v in self.assignment:
            lu, lv = self.assignment[u], self.assignment[v]
            self.resolved[r][pair] = (u, v) if lu < lv else (v, u)
            self.pending[r].discard(pair)
        else:
            self.pending[r].add(pair)

    def _maybe_release(self, r):
        if r in self.pending and not self.pending[r]:
            edges = tuple(self.resolved[r][p] for p in sorted(self.resolved[r]))
            vote = FairUpdateVote(self.replica, r, edges)
            self.vote_queue.append(vote)
            del self.pending[r]
            del self.resolved[r]
            if self.vote_cb is not None:
                self.vote_cb(self.replica, vote)

    def build_batch(self):
        entries = sorted(self.entry_queue, key=lambda e: e[2])
        if self.reverse_order:
            entries.reverse()
        batch = Batch(
            self.replica,
            self.seq,
            tuple(e[:3] for e in entries),
            tuple(e[3] for e in entries if e[0] == DIRECT),
            tuple(self.vote_queue),
        )
        self.seq += 1
        self.entry_queue = []
        self.vote_queue = []
        return batch


TXS = [f"t{i}" for i in range(5)]  # few digests, so wait sets overlap
PAIRS = st.lists(
    st.tuples(st.sampled_from(TXS), st.sampled_from(TXS)).filter(lambda p: p[0] != p[1]),
    max_size=5,
)  # either orientation, duplicates and reversed duplicates included
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("client"), st.sampled_from(TXS)),
        st.tuples(st.just("remote"), st.sampled_from(TXS)),
        st.tuples(st.just("propose"), st.integers(0, 6), PAIRS),
        st.tuples(st.just("build")),
    ),
    min_size=10,
    max_size=50,
)


def _drive(worker, ops) -> list:
    log = []
    worker.vote_cb = lambda replica, vote: log.append(("vote", replica, vote))
    for op in ops:
        if op[0] == "client":
            log.append(("obs", worker.observe_client(op[1], d(op[1]))))
        elif op[0] == "remote":
            log.append(("obs", worker.observe_remote(d(op[1]))))
        elif op[0] == "propose":
            try:
                worker.on_fair_propose(op[1], {(d(u), d(v)) for u, v in op[2]})
            except ValueError as exc:
                log.append(("rejected", str(exc)))
        else:
            log.append(("batch", worker.build_batch()))
    log.append(("batch", worker.build_batch()))
    return log


@settings(max_examples=300)
@given(ops=OPS, reverse=st.booleans())
def test_wait_sets_match_per_pair_reference(ops, reverse):
    w, ref = WorkerState(3, reverse), ReferenceWorker(3, reverse)
    assert _drive(w, ops) == _drive(ref, ops)
    assert list(w.lois.items()) == list(ref.assignment.items())
    assert set(w.waiting) == set(ref.pending)


# -- wire format -----------------------------------------------------------------------


def _example_batch():
    w = make_worker()
    w.observe_client("pay-alice-5", d("pay-alice-5"))
    w.observe_remote(d("remote-tx"))
    w.on_fair_propose(2, {(d("pay-alice-5"), d("remote-tx"))})
    w.observe_client("pay-bob-7", d("pay-bob-7"))
    return w.build_batch()


@pytest.mark.parametrize("fmt", ["binary"])  # the one wire format
def test_batch_wire_round_trip(fmt):
    batch = _example_batch()
    assert batch.votes and batch.entries  # both payload kinds present
    assert decode_batch(encode_batch(batch)) == batch


def test_wire_layout_pinned():
    a, b = "11" * 32, "22" * 32
    batch = Batch(7, 2, ((DIRECT, a, 0), (INDIRECT, b, 1)), ("hi",),
                  (FairUpdateVote(7, 5, ((a, b),)),))
    wire = encode_batch(batch)
    assert wire.hex() == "".join([
        "b8000000",  # u32 payload length
        "07000000" "02000000" "02000000",  # u32 author, seq, entry count
        "01" + a + "0000000000000000" "02000000" "6869",  # u8 direct, digest, u64 LOI,
        "00" + b + "0100000000000000" "00000000",  # u32 body length, body (none if indirect)
        "01000000",  # u32 vote count
        "07000000" "05000000" "01000000",  # u32 voter, target subdag, edge count
        a + b,  # one edge: from digest, to digest
    ])
    assert decode_batch(wire) == batch


def test_wire_counts_past_16_bits_round_trip():
    big = 1 << 16
    digests = [f"{i:064x}" for i in range(big)]
    entries = tuple((DIRECT if i % 2 else INDIRECT, x, i) for i, x in enumerate(digests))
    vote = FairUpdateVote(1, 9, tuple(zip(digests, digests[1:] + digests[:1])))
    batch = Batch(1, 0, entries, tuple(f"b{i}" for i in range(1, big, 2)), (vote,))
    assert len(batch.entries) == len(vote.edges) == big
    assert decode_batch(encode_batch(batch)) == batch


def test_binary_wire_is_length_prefixed():
    wire = encode_batch(_example_batch())
    (length,) = struct.unpack_from("<I", wire, 0)
    assert length == len(wire) - 4


@settings(max_examples=40)
@given(
    names=st.lists(st.text(alphabet="abcdef", min_size=1, max_size=6), min_size=0, max_size=12),
    reverse=st.booleans(),
)
def test_wire_round_trip_property(names, reverse):
    w = make_worker(reverse=reverse)
    for i, name in enumerate(names):
        if i % 3 == 2:
            w.observe_remote(d(name + "!remote"))
        else:
            w.observe_client(name, d(name))
    batch = w.build_batch()
    assert decode_batch(encode_batch(batch)) == batch


@pytest.mark.parametrize(
    "fmt, wire",
    [
        ("binary", encode_batch(_example_batch())[:-3]),
        ("binary", encode_batch(_example_batch())[:3]),
    ],
    ids=["binary-tail-cut", "binary-prefix-cut"],  # not the bytes, which change with the format
)
def test_decode_batch_rejects_truncated_or_incomplete_input(fmt, wire):
    with pytest.raises(WireError):
        decode_batch(wire)


def test_binary_decode_rejects_trailing_bytes_inside_declared_length():
    wire = encode_batch(_example_batch())
    padded = struct.pack("<I", len(wire) - 4 + 2) + wire[4:] + b"\0\0"
    with pytest.raises(WireError):
        decode_batch(padded)


@st.composite
def _mangled(draw):
    """The encoding of a batch built from drawn names, with a vote, under 1-3
    stacked mutations: a byte overwrite, a truncation, a splice of one of its
    own slices, or a tail kept inside an honest length prefix."""
    names = draw(st.lists(st.text(alphabet="abcdef", min_size=1, max_size=6), max_size=8))
    w = make_worker(reverse=draw(st.booleans()))
    for i, name in enumerate(names):
        if i % 3 == 2:
            w.observe_remote(d(name + "!remote"))
        else:
            w.observe_client(name, d(name))
    known = sorted(w.lois)
    w.on_fair_propose(draw(st.integers(1, 99)), list(zip(known, known[1:])))
    wire = encode_batch(w.build_batch())
    for _ in range(draw(st.integers(1, 3))):
        n = len(wire)
        cut = draw(st.integers(0, n))
        kind = draw(st.sampled_from(["overwrite", "truncate", "splice", "tail"]))
        if kind == "overwrite":
            wire = wire[:cut] + bytes([draw(st.integers(0, 255))]) + wire[cut + 1:]
        elif kind == "truncate":
            wire = wire[:cut]
        elif kind == "splice":
            start = draw(st.integers(0, n))
            wire = wire[:cut] + wire[start:draw(st.integers(start, n))] + wire[cut:]
        else:
            extra = draw(st.binary(min_size=1, max_size=8))
            wire = struct.pack("<I", max(n - 4, 0) + len(extra)) + wire[4:] + extra
    return wire


@settings(max_examples=300, derandomize=True)
@given(wire=_mangled())
def test_decode_batch_yields_a_valid_batch_or_wire_error(wire):
    try:
        batch = decode_batch(wire)
    except WireError:
        return
    assert encode_batch(batch) == wire

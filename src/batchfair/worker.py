"""Per-replica worker: LOI assignment, batch assembly, and FairUpdate voting.

The worker stamps every transaction with a local ordering indicator (LOI) on
first observation, no matter how it arrived, assembles sealed batches of
direct entries, one-hop indirect entries, and queued votes, and resolves
missing-edge proposals from the fairness processor against its LOI table.
Each first sighting queues the (kind, digest, LOI) triple that the vertex
record, the trace and the fairness layer read; a direct entry's body waits in
``body_queue`` and travels only on the wire.

``lois`` maps each digest to its LOI in first-observation order, so a new
digest's LOI is ``len(lois)``. ``waiting[r]`` holds a FairProposed subdag's
endpoints not yet observed and its missing pairs, sorted; the vote for r is
released, every edge pointing from the lower LOI, at the observation that
empties the set. Batches cross the wire in one length-prefixed binary format.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable
from .types import Batch, DIRECT, FairUpdateVote, INDIRECT


class WorkerState:
    """All mutable per-replica worker state, driven by simulation events."""

    def __init__(self, replica: int, reverse_order: bool = False) -> None:
        self.replica = replica
        self.reverse_order = reverse_order
        self.lois: dict[str, int] = {}
        self.waiting: dict[int, tuple[set[str], list[tuple[str, str]]]] = {}
        self.proposed: set[int] = set()  # subdag ids already FairProposed
        self.entry_queue: list[tuple[str, str, int]] = []  # (kind, digest, loi), LOI-ascending
        self.body_queue: list[str] = []  # the queued direct entries' bodies, in order
        self.vote_queue: list[FairUpdateVote] = []
        self.seq = 0
        self.vote_cb = None  # optional (replica, vote) hook for tracing

    # -- observation paths ------------------------------------------------

    def observe_client(self, body: str, digest: str) -> tuple[int, bool]:
        """A client submitted a transaction body directly to this replica.

        Returns (loi, fresh): fresh on the first observation of the digest.
        """
        loi = self.lois.get(digest)
        if loi is not None:
            return loi, False
        self.body_queue.append(body)
        return self._first_sighting(DIRECT, digest)

    def observe_remote(self, digest: str) -> tuple[int, bool]:
        """A digest arrived inside a remote worker's batch (either entry kind).

        First observation assigns an LOI and queues this replica's own
        indirect entry; the entry itself is never propagated further.
        Returns (loi, fresh), as observe_client does.
        """
        loi = self.lois.get(digest)
        if loi is not None:
            return loi, False
        return self._first_sighting(INDIRECT, digest)

    def _first_sighting(self, kind: str, digest: str) -> tuple[int, bool]:
        # Algorithm-1 new-transaction hook: the digest leaves every waiting
        # set, and each set it empties releases its vote, in subdag order.
        loi = self.lois[digest] = len(self.lois)
        self.entry_queue.append((kind, digest, loi))
        if self.waiting:  # empty unless a FairPropose is open
            for r in sorted(self.waiting):
                unknown = self.waiting[r][0]
                unknown.discard(digest)
                if not unknown:
                    self._release(r)
        return loi, True

    # -- Algorithm 1: FairUpdate voting -----------------------------------

    def on_fair_propose(self, r: int, missing: Iterable[tuple[str, str]]) -> None:
        """Resolve a parked subdag's missing pairs against the LOI table."""
        if r in self.proposed:
            raise ValueError(f"duplicate FairPropose for subdag {r}")
        self.proposed.add(r)
        pairs = sorted({(u, v) if u <= v else (v, u) for u, v in missing})
        unknown = {d for pair in pairs for d in pair if d not in self.lois}
        self.waiting[r] = (unknown, pairs)
        if not unknown:
            self._release(r)

    def _release(self, r: int) -> None:
        lois = self.lois
        edges = tuple(
            (u, v) if lois[u] < lois[v] else (v, u) for u, v in self.waiting.pop(r)[1]
        )
        vote = FairUpdateVote(self.replica, r, edges)
        self.vote_queue.append(vote)
        if self.vote_cb is not None:
            self.vote_cb(self.replica, vote)

    # -- batch assembly ----------------------------------------------------

    def build_batch(self) -> Batch:
        """Seal pending entries and queued votes into an immutable batch.

        Entries are LOI-ascending for a correct replica, as queued; a
        reversing Byzantine replica reports the exact reverse of its receive
        order.
        An all-empty batch is permitted (heartbeat keeping rounds alive).
        """
        entries, bodies = self.entry_queue, self.body_queue
        if self.reverse_order:  # bodies stay parallel to the direct entries
            entries.reverse()
            bodies.reverse()
        batch = Batch(self.replica, self.seq, tuple(entries), tuple(bodies), tuple(self.vote_queue))
        self.seq += 1
        self.entry_queue, self.body_queue, self.vote_queue = [], [], []
        return batch


# -- wire format -------------------------------------------------------------


def encode_batch(batch: Batch) -> bytes:
    """Length-prefixed little-endian encoding; digests travel as 32 raw bytes
    and each direct entry carries its body."""
    parts = [struct.pack("<III", batch.author, batch.seq, len(batch.entries))]
    bodies = iter(batch.bodies)
    for kind, digest, loi in batch.entries:
        body = next(bodies).encode() if kind == DIRECT else b""
        parts.append(struct.pack("<B32sQI", kind == DIRECT, bytes.fromhex(digest), loi, len(body)))
        parts.append(body)
    parts.append(struct.pack("<I", len(batch.votes)))
    for v in batch.votes:
        parts.append(struct.pack("<III", v.author, v.target_r, len(v.edges)))
        for u, w in v.edges:
            parts.append(bytes.fromhex(u) + bytes.fromhex(w))
    payload = b"".join(parts)
    return struct.pack("<I", len(payload)) + payload


class WireError(ValueError):
    """Batch bytes that do not decode to a well-formed batch."""


def decode_batch(data: bytes) -> Batch:
    """Decode wire bytes; malformed input raises WireError."""
    off = 0

    def take(fmt: str) -> tuple:
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(data):
            raise WireError("truncated batch")
        off += size
        return struct.unpack_from(fmt, data, off - size)

    (total,) = take("<I")
    if total != len(data) - 4:
        raise WireError("length prefix mismatch")
    author, seq, n_entries = take("<III")
    entries, bodies = [], []
    for _ in range(n_entries):
        is_direct, digest, loi, blen = take("<B32sQI")
        if is_direct > 1 or (blen and not is_direct):
            raise WireError("malformed entry header")
        if is_direct:
            try:
                bodies.append(take(f"{blen}s")[0].decode())
            except UnicodeDecodeError:
                raise WireError("entry body is not UTF-8") from None
        entries.append((DIRECT if is_direct else INDIRECT, digest.hex(), loi))
    (n_votes,) = take("<I")
    votes = []
    for _ in range(n_votes):
        vauthor, target_r, n_edges = take("<III")
        edges = tuple((u.hex(), w.hex()) for u, w in (take("32s32s") for _ in range(n_edges)))
        votes.append(FairUpdateVote(vauthor, target_r, edges))
    if off != len(data):
        raise WireError(f"{len(data) - off} trailing bytes after the batch")
    return Batch(author, seq, tuple(entries), tuple(bodies), tuple(votes))

"""Per-replica worker: LOI assignment, batch assembly, and FairUpdate voting.

The worker stamps every transaction with a local ordering indicator (LOI) on
first observation, no matter how it arrived, assembles sealed batches of
direct entries, one-hop indirect entries, and queued votes, and resolves
missing-edge proposals from the fairness processor against its LOI table.
"""

from __future__ import annotations

import json
import struct
from .types import Batch, DIRECT, Entry, FairUpdateVote, INDIRECT


class LoiTracker:
    """Monotone first-observation counter over transaction digests."""

    def __init__(self) -> None:
        self.assignment: dict[str, int] = {}
        self.next_loi = 0

    def record(self, digest: str) -> tuple[int, bool]:
        """Return (loi, fresh). Re-observation returns the stored LOI."""
        loi = self.assignment.get(digest)
        if loi is not None:
            return loi, False
        loi = self.next_loi
        self.assignment[digest] = loi
        self.next_loi += 1
        return loi, True

    def knows(self, digest: str) -> bool:
        return digest in self.assignment

    def loi_of(self, digest: str) -> int:
        return self.assignment[digest]


def _pair(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


class PendingEdgeStore:
    """Unresolved pairs P[r] and resolved directed votes V[r] per parked subdag."""

    def __init__(self) -> None:
        self.pending: dict[int, set[tuple[str, str]]] = {}
        self.resolved: dict[int, dict[tuple[str, str], tuple[str, str]]] = {}
        self.proposed: set[int] = set()  # subdag ids already FairProposed


class WorkerState:
    """All mutable per-replica worker state, driven by simulation events."""

    def __init__(self, replica: int, reverse_order: bool = False) -> None:
        self.replica = replica
        self.reverse_order = reverse_order
        self.tracker = LoiTracker()
        self.edge_store = PendingEdgeStore()
        self.entry_queue: list[Entry] = []  # direct + indirect awaiting seal
        self.vote_queue: list[FairUpdateVote] = []
        self.seq = 0
        self.vote_cb = None  # optional (replica, vote) hook for tracing

    # -- observation paths ------------------------------------------------

    def observe_client(self, body: str, digest: str) -> tuple[int, bool]:
        """A client submitted a transaction body directly to this replica.

        Returns (loi, fresh): fresh on the first observation of the digest.
        """
        loi, fresh = self.tracker.record(digest)
        if fresh:
            self.entry_queue.append(Entry(DIRECT, digest, loi, body))
            self._rescan_pending(digest)
        return loi, fresh

    def observe_remote(self, digest: str) -> tuple[int, bool]:
        """A digest arrived inside a remote worker's batch (either entry kind).

        First observation assigns an LOI and queues this replica's own
        indirect entry; the entry itself is never propagated further.
        Returns (loi, fresh), as observe_client does.
        """
        loi, fresh = self.tracker.record(digest)
        if fresh:
            self.entry_queue.append(Entry(INDIRECT, digest, loi))
            self._rescan_pending(digest)
        return loi, fresh

    # -- Algorithm 1: FairUpdate voting -----------------------------------

    def on_fair_propose(self, r: int, missing: set[tuple[str, str]]) -> None:
        """Resolve a parked subdag's missing pairs against the LOI table."""
        if r in self.edge_store.proposed:
            raise ValueError(f"duplicate FairPropose for subdag {r}")
        self.edge_store.proposed.add(r)
        self.edge_store.pending[r] = set()
        self.edge_store.resolved[r] = {}
        for u, v in missing:
            self._try_resolve(r, _pair(u, v))
        self._maybe_release(r)

    def _try_resolve(self, r: int, pair: tuple[str, str]) -> None:
        u, v = pair
        if self.tracker.knows(u) and self.tracker.knows(v):
            lu, lv = self.tracker.loi_of(u), self.tracker.loi_of(v)
            assert lu != lv, "LOIs are unique per replica"
            edge = (u, v) if lu < lv else (v, u)
            self.edge_store.resolved[r][pair] = edge
            self.edge_store.pending[r].discard(pair)
        else:
            self.edge_store.pending[r].add(pair)

    def _rescan_pending(self, digest: str) -> None:
        # Algorithm-1 new-transaction hook: retry every deferred pair that
        # has this digest as an endpoint.
        for r in sorted(self.edge_store.pending):
            hits = [p for p in self.edge_store.pending[r] if digest in p]
            for pair in hits:
                self._try_resolve(r, pair)
            if hits:
                self._maybe_release(r)

    def _maybe_release(self, r: int) -> None:
        if r in self.edge_store.pending and not self.edge_store.pending[r]:
            edges = tuple(
                self.edge_store.resolved[r][p]
                for p in sorted(self.edge_store.resolved[r])
            )
            vote = FairUpdateVote(self.replica, r, edges)
            self.vote_queue.append(vote)
            del self.edge_store.pending[r]
            del self.edge_store.resolved[r]
            if self.vote_cb is not None:
                self.vote_cb(self.replica, vote)

    # -- batch assembly ----------------------------------------------------

    def build_batch(self) -> Batch:
        """Seal pending entries and queued votes into an immutable batch.

        Entries are LOI-ascending for a correct replica; a reversing
        Byzantine replica reports the exact reverse of its receive order.
        An all-empty batch is permitted (heartbeat keeping rounds alive).
        """
        entries = sorted(self.entry_queue, key=lambda e: e.loi)
        if self.reverse_order:
            entries.reverse()
        batch = Batch(self.replica, self.seq, tuple(entries), tuple(self.vote_queue))
        self.seq += 1
        self.entry_queue = []
        self.vote_queue = []
        return batch


# -- wire formats -----------------------------------------------------------


def encode_batch(batch: Batch, fmt: str = "json") -> bytes:
    if fmt == "json":
        doc = {
            "author": batch.author,
            "seq": batch.seq,
            "entries": [
                [e.kind, e.digest, e.loi] + ([e.body] if e.kind == DIRECT else [])
                for e in batch.entries
            ],
            "votes": [
                {"author": v.author, "r": v.target_r, "edges": [list(e) for e in v.edges]}
                for v in batch.votes
            ],
        }
        return json.dumps(doc, separators=(",", ":")).encode()
    if fmt == "binary":
        parts = [struct.pack("<IIH", batch.author, batch.seq, len(batch.entries))]
        for e in batch.entries:
            body = e.body.encode() if e.body is not None else b""
            parts.append(struct.pack("<B32sQI", e.kind == DIRECT, bytes.fromhex(e.digest), e.loi, len(body)))
            parts.append(body)
        parts.append(struct.pack("<H", len(batch.votes)))
        for v in batch.votes:
            parts.append(struct.pack("<IIH", v.author, v.target_r, len(v.edges)))
            for u, w in v.edges:
                parts.append(bytes.fromhex(u) + bytes.fromhex(w))
        payload = b"".join(parts)
        return struct.pack("<I", len(payload)) + payload
    raise ValueError(f"unknown batch wire format {fmt!r}")


class WireError(ValueError):
    """Batch bytes that do not decode to a well-formed batch."""


def _int(value) -> int:
    if type(value) is not int:
        raise WireError(f"expected an integer, got {value!r}")
    return value


def _str(value) -> str:
    if type(value) is not str:
        raise WireError(f"expected a string, got {value!r}")
    return value


def _decode_json(data: bytes) -> Batch:
    try:
        doc = json.loads(data.decode())
    except (ValueError, RecursionError) as exc:
        raise WireError(f"not a JSON document: {exc}") from None
    try:
        entries = []
        for item in doc["entries"]:
            kind = item[0]
            if kind not in (DIRECT, INDIRECT) or len(item) != (4 if kind == DIRECT else 3):
                raise WireError(f"malformed entry {item!r}")
            body = _str(item[3]) if kind == DIRECT else None
            entries.append(Entry(kind, _str(item[1]), _int(item[2]), body))
        votes = []
        for v in doc["votes"]:
            edges = []
            for edge in v["edges"]:
                if type(edge) is not list or len(edge) != 2:
                    raise WireError(f"malformed edge {edge!r}")
                edges.append((_str(edge[0]), _str(edge[1])))
            votes.append(FairUpdateVote(_int(v["author"]), _int(v["r"]), tuple(edges)))
        return Batch(_int(doc["author"]), _int(doc["seq"]), tuple(entries), tuple(votes))
    except (KeyError, IndexError, TypeError) as exc:
        raise WireError(f"malformed batch document: {exc!r}") from None


def _decode_binary(data: bytes) -> Batch:
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
    author, seq, n_entries = take("<IIH")
    entries = []
    for _ in range(n_entries):
        is_direct, digest, loi, blen = take("<B32sQI")
        if is_direct > 1 or (blen and not is_direct):
            raise WireError("malformed entry header")
        body = None
        if is_direct:
            try:
                body = take(f"{blen}s")[0].decode()
            except UnicodeDecodeError:
                raise WireError("entry body is not UTF-8") from None
        entries.append(Entry(DIRECT if is_direct else INDIRECT, digest.hex(), loi, body))
    (n_votes,) = take("<H")
    votes = []
    for _ in range(n_votes):
        vauthor, target_r, n_edges = take("<IIH")
        edges = tuple((u.hex(), w.hex()) for u, w in (take("32s32s") for _ in range(n_edges)))
        votes.append(FairUpdateVote(vauthor, target_r, edges))
    if off != len(data):
        raise WireError(f"{len(data) - off} trailing bytes after the batch")
    return Batch(author, seq, tuple(entries), tuple(votes))


def decode_batch(data: bytes, fmt: str = "json") -> Batch:
    """Decode wire bytes; malformed input of either format raises WireError."""
    if fmt == "json":
        return _decode_json(data)
    if fmt == "binary":
        return _decode_binary(data)
    raise ValueError(f"unknown batch wire format {fmt!r}")

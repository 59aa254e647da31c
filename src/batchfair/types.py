"""Shared domain types: transactions, batches, DAG vertices, committed subdags.

These are the only definitions shared between the protocol pipeline and the
oracle checkers. A contribution is one (kind, digest, LOI) triple, the same
object from the worker's first sighting to the fairness layer and the trace.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


def tx_digest(body: str | bytes) -> str:
    """Collision-resistant 32-byte digest of a transaction body, hex-encoded."""
    if isinstance(body, str):
        body = body.encode()
    return hashlib.sha256(body).hexdigest()


DIRECT = "d"
INDIRECT = "i"


@dataclass(frozen=True)
class FairUpdateVote:
    """Directed resolutions of a parked subdag's complete missing-edge set."""

    author: int
    target_r: int
    edges: tuple[tuple[str, str], ...]  # (from digest, to digest)


@dataclass(frozen=True)
class Batch:
    """A sealed, immutable worker batch.

    ``entries`` are the author's (kind, digest, LOI) triples in reported
    order, the tuple its vertex record keeps: LOI-ascending for a correct
    author, any order for a Byzantine one. ``bodies`` holds each direct
    entry's body, in entry order, and travels only on the wire; an indirect
    entry (a digest learned from a remote batch, one hop) has none.
    """

    author: int
    seq: int
    entries: tuple[tuple[str, str, int], ...]  # (kind, digest, loi)
    bodies: tuple[str, ...] = ()
    votes: tuple[FairUpdateVote, ...] = ()


def vertex_id(round_: int, author: int) -> str:
    return f"r{round_:04d}a{author:03d}"


@dataclass(frozen=True)
class FinalOrder:
    """The finalized transaction order of one subdag.

    ``batches`` are (start, end) index runs; each run is one strongly
    connected component of the dependency graph, emitted contiguously.
    """

    r: int
    digests: tuple[str, ...]
    batches: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class VertexRecord:
    """Commit-stream view of one vertex, as the fairness layer consumes it."""

    author: int
    round: int
    vid: str
    entries: tuple[tuple[str, str, int], ...]  # (kind, digest, loi) in reported order
    votes: tuple[FairUpdateVote, ...] = ()


@dataclass(frozen=True)
class Vertex:
    """A simulated DAG proposal: its commit-stream record (author, round, id
    and contribution), plus what only the simulator reads."""

    record: VertexRecord
    parents: frozenset[int]  # authors of the round-1 vertices it references
    t: int  # proposal time


@dataclass(frozen=True)
class CommitRecord:
    """One committed subdag as seen by the fairness layer: the leader's newly
    committed causal history, in deterministic topological order."""

    r: int  # 1-based consecutive commit sequence number
    leader_vid: str
    vertices: tuple[VertexRecord, ...]

    def votes(self) -> list[FairUpdateVote]:
        out = []
        for v in self.vertices:
            out.extend(v.votes)
        return out


def orders_digest(orders: list[FinalOrder]) -> str:
    """Canonical digest of an emitted order sequence, for bitwise comparison."""
    h = hashlib.sha256()
    for fo in orders:
        h.update(f"#{fo.r}:".encode())
        for d in fo.digests:
            h.update(d.encode())
            h.update(b",")
        for s, e in fo.batches:
            h.update(f"[{s},{e})".encode())
    return h.hexdigest()

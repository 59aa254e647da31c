"""Append-only run traces: JSONL persistence and derived views for checkers."""

from __future__ import annotations

import json
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .types import CommitRecord, FairUpdateVote, FinalOrder, VertexRecord

# event kinds that must be bit-identical across runs of the same config;
# graph_profile carries wall-clock nanoseconds and is excluded
DETERMINISTIC_EVENTS = (
    "tx_received",
    "vertex_created",
    "certificate_formed",
    "subdag_committed",
    "vote_cast",
    "order_emitted",
    "graph_built",
    "graph_parked",
)


@dataclass
class RunTrace:
    meta: dict = field(default_factory=dict)
    events: list[dict] = field(default_factory=list)

    # -- persistence -------------------------------------------------------

    def write_jsonl(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"ev": "meta", **self.meta}, sort_keys=True) + "\n")
            for ev in self.events:
                fh.write(json.dumps(ev, sort_keys=True) + "\n")

    @classmethod
    def read_jsonl(cls, path: str | Path) -> "RunTrace":
        """Read a trace that write_jsonl wrote. A line that is not a JSON
        object with an "ev" key raises ValueError("PATH:LINE: ..."); a file
        with no meta line carrying the run's config raises ValueError too."""
        meta: dict = {}
        events: list[dict] = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                try:
                    doc = json.loads(line)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from None
                if not isinstance(doc, dict) or "ev" not in doc:
                    raise ValueError(f'{path}:{lineno}: not a trace event (no "ev" key)')
                if doc["ev"] == "meta":
                    doc.pop("ev")
                    meta = doc
                else:
                    events.append(doc)
        if "config" not in meta:
            raise ValueError(f"{path}: no meta line carrying the run's config")
        return cls(meta, events)

    def deterministic_view(self) -> list[dict]:
        return [e for e in self.events if e["ev"] in DETERMINISTIC_EVENTS]

    # -- derived views -------------------------------------------------------

    def n_replicas(self) -> int:
        return int(self.meta["config"]["n"])

    def fault_roles(self) -> tuple[set[int], dict[int, int]]:
        """Return (reversing replicas, crash replica -> activation round)."""
        reversers: set[int] = set()
        crashes: dict[int, int] = {}
        for d in self.meta.get("faults", []):
            if d["strategy"] == "reverse_local_order":
                reversers.add(d["replica"])
            elif d["strategy"] == "silent_crash":
                crashes[d["replica"]] = d["round"]
        return reversers, crashes

    def correct_replicas(self) -> list[int]:
        reversers, crashes = self.fault_roles()
        return [i for i in range(self.n_replicas()) if i not in reversers and i not in crashes]

    def receive_orders(self) -> dict[int, list[str]]:
        """True first-observation order per replica (ground truth)."""
        out: dict[int, list[str]] = {i: [] for i in range(self.n_replicas())}
        for e in self.events:
            if e["ev"] == "tx_received":
                out[e["replica"]].append(e["tx"])
        return out

    def reported_orders(self) -> dict[int, list[str]]:
        """Sealed contribution order per replica (what the protocol saw)."""
        out: dict[int, list[str]] = {i: [] for i in range(self.n_replicas())}
        for e in self.events:
            if e["ev"] == "vertex_created":
                for _kind, digest, _loi in e["entries"]:
                    out[e["replica"]].append(digest)
        return out

    def _committed(self) -> Iterator[tuple[dict, list[dict]]]:
        """Each subdag_committed event with its vertex_created events, in
        commit order."""
        verts = {e["vid"]: e for e in self.events if e["ev"] == "vertex_created"}
        for e in self.events:
            if e["ev"] == "subdag_committed":
                yield e, [verts[vid] for vid in e["vertices"]]

    def commit_records(self) -> list[CommitRecord]:
        """Reassemble the committed-subdag stream the fairness layer consumed.

        Entries are (kind, digest, loi) tuples and vote edges (from, to)
        tuples. A trace built in memory already holds them as tuples, which
        are shared; one read back from JSON holds lists, which become tuples,
        so both give equal records."""
        records: list[CommitRecord] = []
        for e, vertices in self._committed():
            vrs = []
            for ve in vertices:
                entries = tuple(map(tuple, ve["entries"]))
                votes = tuple(
                    FairUpdateVote(v["author"], v["r"], tuple(map(tuple, v["edges"])))
                    for v in ve["votes"]
                )
                vrs.append(VertexRecord(ve["replica"], ve["round"], ve["vid"], entries, votes))
            records.append(CommitRecord(e["r"], e["leader"], tuple(vrs)))
        return records

    def emitted_orders(self) -> list[FinalOrder]:
        return [
            FinalOrder(e["r"], tuple(e["digests"]), tuple(map(tuple, e["batches"])))
            for e in self.events if e["ev"] == "order_emitted"
        ]

    def committed_lois(self) -> dict[int, tuple[list[str], list[int]]]:
        """Per replica, the digests and LOIs of its committed vertices'
        entries in commit order, as two parallel lists (no object per entry)."""
        out: dict[int, tuple[list[str], list[int]]] = {
            i: ([], []) for i in range(self.n_replicas())
        }
        for _e, vertices in self._committed():
            for ve in vertices:
                digests, lois = out[ve["replica"]]
                for _k, d, loi in ve["entries"]:
                    digests.append(d)
                    lois.append(loi)
        return out

    def retained_sets(self) -> list[tuple[int, Sequence[str]]]:
        """(r, K_r digests) from graph_built events."""
        return [
            (e["r"], e["k_digests"]) for e in self.events if e["ev"] == "graph_built"
        ]

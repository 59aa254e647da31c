"""Append-only run traces: JSONL persistence and derived views for checkers."""

from __future__ import annotations

import json
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

from .types import CommitRecord, FairUpdateVote, FinalOrder, VertexRecord

# event kinds that must be bit-identical across runs of the same config, each
# with the keys it carries besides "ev"; graph_profile carries wall-clock
# nanoseconds and is excluded
DETERMINISTIC_EVENTS = {
    "tx_received": ("t", "replica", "tx", "loi", "src"),
    "vertex_created": ("t", "replica", "round", "vid", "parents", "entries", "votes"),
    "certificate_formed": ("t", "replica", "round", "vid", "attestors"),
    "subdag_committed": ("t", "replica", "r", "leader", "vertices", "wave"),
    "vote_cast": ("t", "replica", "target_r", "edges"),
    "order_emitted": ("t", "replica", "r", "digests", "batches"),
    "graph_built": ("t", "replica", "r", "v", "m", "anchor", "k", "k_digests"),
    "graph_parked": ("t", "replica", "r", "pairs"),
}
# the kinds whose "replica" names a replica; in the others it is None
REPLICA_EVENTS = frozenset(("tx_received", "vertex_created", "certificate_formed", "vote_cast"))
# the shape, as JSON holds it, of each value the views unpack: "int" or "str",
# a tuple of shapes for a list of that length, a dict of shapes for an object
# with those keys, and a list of one shape for a list of any length
VALUE_SHAPES = {
    "tx_received": {"tx": "str"},
    "vertex_created": {
        "round": "int",
        "vid": "str",
        "entries": [("str", "str", "int")],  # (kind, digest, loi)
        "votes": [{"author": "int", "r": "int", "edges": [("str", "str")]}],  # (from, to)
    },
    "subdag_committed": {"r": "int", "leader": "str", "vertices": ["str"]},
    "order_emitted": {"r": "int", "digests": ["str"], "batches": [["int"]]},
    "graph_built": {"r": "int", "k_digests": ["str"]},
}


class TraceError(ValueError):
    """A trace that does not hold together, with the line or event at fault."""


def _misfit(value, shape) -> tuple | None:
    """The first part of value, with its shape, that does not have the shape
    it should (see VALUE_SHAPES); None if every part does."""
    if isinstance(shape, str):
        return None if type(value) is (int if shape == "int" else str) else (value, shape)
    if isinstance(shape, dict):
        if type(value) is not dict or not shape.keys() <= value.keys():
            return value, shape
        parts = [(value[key], item) for key, item in shape.items()]
    elif type(value) is not list or isinstance(shape, tuple) and len(value) != len(shape):
        return value, shape
    else:
        parts = zip(value, shape) if isinstance(shape, tuple) else zip(value, repeat(shape[0]))
    for part, item in parts:
        bad = _misfit(part, item)
        if bad:
            return bad
    return None


def _shape_name(shape) -> str:
    if isinstance(shape, str):
        return shape
    if isinstance(shape, dict):
        return "{" + ", ".join(f"{key}: {_shape_name(item)}" for key, item in shape.items()) + "}"
    if isinstance(shape, tuple):
        return "[" + ", ".join(map(_shape_name, shape)) + "]"
    return f"[{_shape_name(shape[0])}, ...]"


def _event_problem(ev: dict, n: int) -> str | None:
    """What keeps one read-back event from being read by the views, if anything."""
    keys = DETERMINISTIC_EVENTS.get(ev["ev"], ())
    missing = [k for k in keys if k not in ev]
    if missing:
        return f"{ev['ev']} event lacks {', '.join(missing)}"
    if ev["ev"] in REPLICA_EVENTS:
        replica = ev["replica"]
        if type(replica) is not int or not 0 <= replica < n:
            return f"{ev['ev']} replica {replica!r} is not in [0, {n})"
    for key, shape in VALUE_SHAPES.get(ev["ev"], {}).items():
        bad = _misfit(ev[key], shape)
        if bad:
            part = repr(bad[0])
            part = part if len(part) <= 60 else part[:57] + "..."
            return f"{ev['ev']} {key}: {part} is not {_shape_name(bad[1])}"
    return None


def _batch_spans(ev: dict) -> tuple[tuple[int, int], ...]:
    """An order_emitted event's batches, which must tile its digests in order."""
    spans = tuple(map(tuple, ev["batches"]))
    end = 0
    for span in spans:  # each span starts where the one before it ended
        if len(span) != 2 or not span[0] == end < span[1]:
            break
        end = span[1]
    else:  # no span broke the tiling: it must end at the last digest
        if end == len(ev["digests"]):
            return spans
    raise TraceError(
        f"order_emitted r={ev['r']}: batches {ev['batches']!r} do not tile "
        f"its {len(ev['digests'])} digests"
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
        object with an "ev" key, and a deterministic event that lacks one of
        its kind's keys, names a replica outside [0, n) or holds a value
        that the views unpack in another shape than VALUE_SHAPES gives,
        raise TraceError("PATH:LINE: ..."); a file with no meta line
        carrying the run's config, with an integer n, raises TraceError
        too. A trace built in memory is not checked."""
        meta: dict = {}
        events: list[dict] = []
        lines: list[int] = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                try:
                    doc = json.loads(line)
                except ValueError as exc:
                    raise TraceError(f"{path}:{lineno}: not JSON: {exc}") from None
                if not isinstance(doc, dict) or "ev" not in doc:
                    raise TraceError(f'{path}:{lineno}: not a trace event (no "ev" key)')
                if doc["ev"] == "meta":
                    doc.pop("ev")
                    meta = doc
                else:
                    events.append(doc)
                    lines.append(lineno)
        if not isinstance(meta.get("config"), dict):
            raise TraceError(f"{path}: no meta line carrying the run's config")
        n = meta["config"].get("n")
        if type(n) is not int:
            raise TraceError(f"{path}: the run's config has n {n!r}, not an integer")
        for lineno, ev in zip(lines, events):
            problem = _event_problem(ev, n)
            if problem:
                raise TraceError(f"{path}:{lineno}: {problem}")
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
                try:
                    vertices = [verts[vid] for vid in e["vertices"]]
                except KeyError as exc:
                    raise TraceError(
                        f"subdag_committed r={e['r']} lists vertex {exc.args[0]!r}, "
                        "which no vertex_created event made"
                    ) from None
                yield e, vertices

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
            FinalOrder(e["r"], tuple(e["digests"]), _batch_spans(e))
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

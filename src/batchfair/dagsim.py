"""Deterministic discrete-event simulation of the adjusted DAG consensus.

Rounds follow the barrier model: advance_round pumps the message queue until
every live replica can propose (holds a quorum of previous-round certificates
and, under the self-referencing rule, its own), creates the round's vertices
at each replica's individual readiness time, and completes once the round's
certificates have formed. try_commit elects wave leaders with a seeded coin,
commits a leader once f+1 next-round vertices reference it, and hands each
committed subdag to the in-loop fairness pipeline, whose landing it traces,
stamps with the commit time and turns into FairProposes to its workers.

Events run in (time, post) order: a heap holds the distinct pending times
and each time keeps one FIFO of (handler, data), so popping the front of the
earliest time gives the order a heap keyed (time, seq) would. All randomness
comes from generators seeded from the run seed, so identical configs produce
bit-identical traces. Network delays are the draws that
``random.Random(f"{seed}:net").randint(delay_min, delay_max)`` would make,
in send order, taken in blocks: CPython's randint keeps the first top-k-bits
value of one MT19937 word below the span (k = span.bit_length() <= 32), and
one getrandbits(32 * B) call returns B consecutive words, so a block is
those words shifted and filtered in numpy. The stream feeds only delays,
so drawing ahead changes nothing. A message to oneself and lockstep
delivery draw nothing.

Each vertex is built once, at proposal: its commit-stream record (the
batch's (kind, digest, LOI) entries and votes), its parents and its proposal
time. The sealed batch is dropped there, and a commit hands the fairness
layer the very records ``by_round`` held. The trace refers to those values
instead of copying them: a vertex_created event holds its record's entries
tuple and its votes' edges, and a vote_cast event its vote's edges. The
stores that hold a vertex are its status: ``by_round`` holds the uncommitted
vertices and ``attestors`` the uncertified ones, so a commit takes its
vertices out of ``by_round`` and a certificate pops its vertex's attestors.
A certificate message carries (round, author, receiver).

The hot paths do only the work that changes state. A receiver of a vertex
walks its record's entries in order and observes only the digests missing
from its LOI table, re-checking each so that a digest listed twice still gets
one LOI. Each client body is hashed on its first delivery. The pumps re-check
readiness and certificates only after an event that recorded a readiness or
formed a certificate, since nothing else moves them. Per-round bookkeeping
keeps only the rounds still read: ``ready_at`` from the current round on and
``held`` for the current and previous round. Nothing reads a committed vertex
again: a round-r proposal reads round r-1, and a leader at round L commits
only once round L+1 is complete, with a history of rounds <= L.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain, islice, repeat

import numpy as np

from .adversaries import ClientSchedule, DelaySpike, FaultSchedule
from .params import ConfigError, SimConfig
from .pipeline import FairnessPipeline, PipelineResult
from .trace import RunTrace
from .types import CommitRecord, Vertex, VertexRecord, tx_digest, vertex_id
from .worker import WorkerState, decode_batch, encode_batch

DELAY_BLOCK_WORDS = 4096  # MT19937 words per block of network delays
FOREVER = 1 << 62  # the simulated time a replica that never crashes lives to


@dataclass
class SimResult:
    config: SimConfig
    trace: RunTrace
    records: list[CommitRecord]
    pipeline: PipelineResult
    injected: list[str]  # digests of all client-submitted transactions
    injection_time: dict[str, int]
    emit_time: dict[int, int]  # subdag id -> simulated emit time


class Simulator:
    def __init__(
        self,
        config: SimConfig,
        faults: FaultSchedule | None = None,
        clients: ClientSchedule | None = None,
        spikes: list[DelaySpike] | None = None,
        meta: dict | None = None,
    ):
        self.cfg = config
        self.faults = faults or FaultSchedule()
        self.clients = clients or ClientSchedule()
        self.spikes: dict[int, list[DelaySpike]] = {}  # round -> spikes naming it
        for spike in spikes or []:
            if not 0 <= spike.replica < config.n:
                raise ConfigError(f"delay spike replica {spike.replica} outside [0, {config.n})")
            self.spikes.setdefault(spike.round, []).append(spike)
        for d in self.faults.directives:
            if not 0 <= d.replica < config.n:
                raise ConfigError(f"fault replica {d.replica} outside [0, {config.n})")
        self.client_plan = self.clients.by_replica_round()
        for replica, round_ in self.client_plan:  # keys ascend by replica
            if not 0 <= replica < config.n:
                raise ConfigError(f"client replica {replica} outside [0, {config.n})")
            if round_ > config.max_rounds:
                raise ConfigError(f"client round {round_} past max_rounds {config.max_rounds}")
        self.faults.check_budget(config.f)
        self.crash_round = self.faults.crash_rounds()
        if config.readiness > config.n - len(self.crash_round):
            raise ConfigError(
                f"readiness threshold {config.readiness} unreachable with "
                f"{len(self.crash_round)} scheduled crashes out of n={config.n}"
            )
        reversers = self.faults.reversers()
        self.workers = [
            WorkerState(i, reverse_order=(i in reversers)) for i in range(config.n)
        ]
        self.net_rng = random.Random(f"{config.seed}:net")
        # network delays before spikes, in draw order
        self.net_delays = (
            repeat(0) if config.delivery_model == "lockstep"
            else chain.from_iterable(self._delay_blocks())
        )
        self.trace = RunTrace(
            meta={
                "config": config.to_dict(),
                "faults": [
                    {"replica": d.replica, "strategy": d.strategy, "round": d.round}
                    for d in self.faults.directives
                ],
                **(meta or {}),
            }
        )
        self.pipeline = FairnessPipeline(config.n, config.f, config.gamma)
        for w in self.workers:
            w.vote_cb = self._on_vote_cast

        # DAG state
        self.by_round: dict[int, dict[int, Vertex]] = {}  # uncommitted vertices only
        # per replica, round -> authors of the certificates it holds; only
        # rounds >= self.round - 1 are ever read again, so only those are kept
        self.held: list[dict[int, set[int]]] = [{} for _ in range(config.n)]
        self.attestors: dict[str, set[int]] = {}  # uncertified vertices only

        # event machinery: pending times, and per time its events in post order
        self.times: list[int] = []
        self.queue: dict[int, deque] = {}
        self.now = 0
        self.round = 0  # next round to propose
        # round -> replica -> time; every replica may propose genesis at 0
        self.ready_at: dict[int, dict[int, int]] = {0: {i: 0 for i in range(config.n)}}
        # set when an event records a readiness or forms a certificate
        self.progress = False
        # per replica, the last time it is alive; set when its crash round comes
        self.alive_until = [
            -1 if self.crash_round.get(i, 1) <= 0 else FOREVER for i in range(config.n)
        ]

        # commit state
        self.next_wave = 1  # waves below it have been checked
        self.records: list[CommitRecord] = []  # subdag r is records[r - 1]

        # client bookkeeping
        self.injection_time: dict[str, int] = {}  # in first-injection order
        self.digest_of: dict[str, str] = {}  # body -> digest, on first delivery
        self.emit_time: dict[int, int] = {}

    # -- helpers -----------------------------------------------------------------

    def _live_set(self, round_: int) -> list[int]:
        return [
            i for i in range(self.cfg.n)
            if self.crash_round.get(i, 1 << 30) > round_
        ]

    def _delay_blocks(self):
        """Successive blocks of the net_rng randint stream (see module docstring)."""
        cfg = self.cfg
        span = cfg.delay_max - cfg.delay_min + 1
        shift = 32 - span.bit_length()
        while True:
            bits = self.net_rng.getrandbits(32 * DELAY_BLOCK_WORDS)
            r = np.frombuffer(bits.to_bytes(4 * DELAY_BLOCK_WORDS, "little"), "<u4") >> shift
            yield map(cfg.delay_min.__add__, r[r < span].tolist())

    def _spike_extra(self, round_: int, sender: int, kind: str) -> list[int]:
        """Per receiver, the spike delay a round_ message of kind from sender gets."""
        extra = [0] * self.cfg.n
        for spike in self.spikes[round_]:
            if spike.scope == "vertex" and kind == "vertex" and spike.replica == sender:
                extra = [x + spike.extra for x in extra]
            elif spike.scope == "inbound":
                extra = [x + spike.extra if j == spike.replica else x for j, x in enumerate(extra)]
        return extra

    def _post(self, times, handler, datas) -> None:
        """Queue handler(time, data) for each pair of times and datas, in order."""
        queue = self.queue
        for t, data in zip(times, datas):
            events = queue.get(t)
            if events is None:
                events = queue[t] = deque()
                heappush(self.times, t)
            events.append((handler, data))

    def _on_vote_cast(self, replica: int, vote) -> None:
        self.trace.events.append(
            {
                "ev": "vote_cast",
                "t": self.now,
                "replica": replica,
                "target_r": vote.target_r,
                "edges": vote.edges,
            }
        )

    # -- proposals ----------------------------------------------------------------

    def _propose(self, replica: int, round_: int, t: int) -> None:
        cfg = self.cfg
        bodies = self.client_plan.get((replica, round_))
        if bodies:
            self.now = t
            worker, digest_of = self.workers[replica], self.digest_of
            injection_time, append = self.injection_time, self.trace.events.append
            for body in bodies:
                digest = digest_of.get(body)
                if digest is None:
                    digest = digest_of[body] = tx_digest(body)
                injection_time.setdefault(digest, t)
                loi, fresh = worker.observe_client(body, digest)
                if fresh:
                    append({"ev": "tx_received", "t": t, "replica": replica, "tx": digest,
                            "loi": loi, "src": "client"})
        vid = vertex_id(round_, replica)
        if round_ == 0:
            vertex = Vertex(VertexRecord(replica, 0, vid, ()), frozenset(), t)
        else:
            batch = self.workers[replica].build_batch()
            if cfg.batch_wire:
                batch = decode_batch(encode_batch(batch))
            held = self.held[replica].get(round_ - 1, set())
            assert len(held) >= cfg.quorum, "proposed without a quorum of parents"
            if cfg.self_reference:
                assert replica in held, "correct replica missing its own certificate"
            record = VertexRecord(replica, round_, vid, batch.entries, batch.votes)
            vertex = Vertex(record, frozenset(held), t)
        self.by_round.setdefault(round_, {})[replica] = vertex
        self.trace.events.append(
            {
                "ev": "vertex_created",
                "t": t,
                "replica": replica,
                "round": round_,
                "vid": vid,
                "parents": sorted(vertex_id(round_ - 1, a) for a in vertex.parents),
                "entries": vertex.record.entries,
                "votes": [
                    {"author": v.author, "r": v.target_r, "edges": v.edges}
                    for v in vertex.record.votes
                ],
            }
        )
        # author attests its own vertex immediately; a quorum of one certifies it
        self.attestors[vid] = {replica}
        if cfg.quorum == 1:
            self._certify(vertex, t)
        receivers = [j for j in range(cfg.n) if j != replica]
        delays = islice(self.net_delays, cfg.n - 1)
        if round_ in self.spikes:
            extra = self._spike_extra(round_, replica, "vertex")
            delays = [d + extra[j] for d, j in zip(delays, receivers)]
        self._post([t + d for d in delays], self._on_vertex, [(vertex, j) for j in receivers])
        # a quorum may already be on hand (e.g. this proposal was delayed past
        # the certificates of its own round), so re-check readiness now
        self._note_ready(replica, round_ + 1, t)
        # crash boundary: a replica crashing at round R dies right after its
        # round R-1 proposal
        if self.crash_round.get(replica) == round_ + 1:
            self.alive_until[replica] = t

    def _certify(self, vertex: Vertex, t: int) -> None:
        """Form the certificate of a vertex that has a quorum of attestors."""
        n, vr = self.cfg.n, vertex.record
        author, round_ = vr.author, vr.round
        attestors = self.attestors.pop(vr.vid)  # later attests change nothing
        self.progress = True
        self.trace.events.append(
            {
                "ev": "certificate_formed",
                "t": t,
                "replica": author,
                "round": round_,
                "vid": vr.vid,
                "attestors": sorted(attestors),
            }
        )
        delays = list(islice(self.net_delays, n - 1))
        if round_ in self.spikes:
            extra = self._spike_extra(round_, author, "cert")
            delays = [d + extra[j] for d, j in zip(delays, (j for j in range(n) if j != author))]
        delays.insert(author, 0)  # the author holds its own certificate at once
        self._post([t + d for d in delays], self._on_cert, [(round_, author, j) for j in range(n)])

    def _on_vertex(self, t: int, data: tuple) -> None:
        vertex, receiver = data
        if t > self.alive_until[receiver]:
            return
        worker = self.workers[receiver]
        lois = worker.lois
        record = vertex.record
        for _kind, digest, _loi in record.entries:
            if digest not in lois:  # read per digest: one listed twice gets one LOI
                loi, _ = worker.observe_remote(digest)
                self.trace.events.append(
                    {"ev": "tx_received", "t": t, "replica": receiver,
                     "tx": digest, "loi": loi, "src": "batch"}
                )
        at = t + next(self.net_delays)
        if record.round in self.spikes:
            at += self._spike_extra(record.round, receiver, "attest")[record.author]
        events = self.queue.get(at)  # _post, inlined: this runs once per vertex message
        if events is None:
            events = self.queue[at] = deque()
            heappush(self.times, at)
        events.append((self._on_attest, (vertex, receiver)))

    def _on_attest(self, t: int, data: tuple) -> None:
        vertex, attestor = data
        attestors = self.attestors.get(vertex.record.vid)
        if attestors is None or t > self.alive_until[vertex.record.author]:
            return
        attestors.add(attestor)
        if len(attestors) >= self.cfg.quorum:
            self._certify(vertex, t)

    def _on_cert(self, t: int, data: tuple) -> None:
        round_, author, receiver = data
        if t > self.alive_until[receiver] or round_ < self.round - 1:
            return
        held = self.held[receiver].setdefault(round_, set())
        held.add(author)
        if len(held) >= self.cfg.readiness:
            self._note_ready(receiver, round_ + 1, t)

    def _note_ready(self, replica: int, round_: int, t: int) -> None:
        ready = self.ready_at.setdefault(round_, {})
        if replica in ready or replica not in self.by_round.get(round_ - 1, ()):
            return
        held = self.held[replica].get(round_ - 1, ())
        if len(held) < self.cfg.readiness:
            return
        if self.cfg.self_reference and replica not in held:
            return
        ready[replica] = t
        self.progress = True

    def _pump(self, done, stalled) -> None:
        """Handle queued events in (time, post) order until done() holds; if
        the queue runs dry first, fail with the text stalled() returns.

        done() may read only readiness and certificates, so it is re-checked
        only after an event that recorded a readiness or formed a certificate."""
        times, queue = self.times, self.queue
        while not done():
            self.progress = False
            while not self.progress:
                if not times:
                    raise ConfigError(stalled())
                t = times[0]
                events = queue[t]
                handler, data = events.popleft()
                if not events:
                    heappop(times)
                    del queue[t]
                self.now = t
                handler(t, data)

    # -- public operations ----------------------------------------------------------

    def advance_round(self) -> None:
        """Run one DAG round: every live replica proposes once its quorum of
        previous-round certificates (self-reference included) is in; returns
        once the round's certificates formed."""
        r = self.round
        live = self._live_set(r)
        lockstep = self.cfg.delivery_model == "lockstep"
        pending = set(live)
        ready = self.ready_at.setdefault(r, {})

        def propose_ready() -> bool:
            for i in sorted(pending):
                at = ready.get(i)
                if at is not None:
                    self._propose(i, r, max(at, r) if lockstep else at)
                    pending.discard(i)
            return not pending

        self._pump(
            propose_ready,
            lambda: f"round {r} stalled: replicas {sorted(pending)} never became ready",
        )
        # pump until this round's certificates form; a replica that dies right
        # after proposing cannot assemble its own certificate, so don't wait
        want = [vertex_id(r, i) for i in live if self.crash_round.get(i, 1 << 30) > r + 1]
        self._pump(
            lambda: self.attestors.keys().isdisjoint(want),
            lambda: f"round {r} certificates never formed: "
            f"{[vid for vid in want if vid in self.attestors]}",
        )
        self.round += 1
        for held in self.held:
            held.pop(r - 1, None)
        del self.ready_at[r]  # no later round reads it

    def _coin(self, wave: int) -> int:
        return random.Random(f"{self.cfg.seed}:coin:{wave}").randrange(self.cfg.n)

    def try_commit(self) -> list[CommitRecord]:
        """Commit every unchecked wave whose leader got f+1 child references."""
        cfg = self.cfg
        out: list[CommitRecord] = []
        while True:
            wave = self.next_wave
            leader_round = (wave - 1) * cfg.wave_len + 1
            if leader_round + 1 >= self.round:
                break  # reference round not complete yet
            self.next_wave += 1
            leader_author = self._coin(wave)
            leader = self.by_round.get(leader_round, {}).get(leader_author)
            if leader is not None and leader.record.vid not in self.attestors:
                children = sorted(
                    v.t for v in self.by_round.get(leader_round + 1, {}).values()
                    if leader_author in v.parents
                )
                if len(children) >= cfg.f + 1:
                    out.append(self._commit(leader, wave, children[cfg.f]))
        return out

    def _commit(self, leader: Vertex, wave: int, commit_t: int) -> CommitRecord:
        # the leader's uncommitted causal history, one round at a time: each
        # vertex leaves by_round as the walk reaches it
        layers, authors, round_ = [], {leader.record.author}, leader.record.round
        while authors:
            store = self.by_round.get(round_, {})
            layer = [store.pop(a) for a in sorted(authors) if a in store]
            if not store:
                self.by_round.pop(round_, None)
            layers.append(layer)
            authors = set().union(*(v.parents for v in layer))
            round_ -= 1
        vertices = tuple(v.record for layer in reversed(layers) for v in layer)
        r = len(self.records) + 1
        self.trace.events.append(
            {
                "ev": "subdag_committed",
                "t": commit_t,
                "replica": None,
                "r": r,
                "wave": wave,
                "leader": leader.record.vid,
                "vertices": [vr.vid for vr in vertices],
            }
        )
        record = CommitRecord(r, leader.record.vid, vertices)
        self.records.append(record)
        # the fairness layer costs no simulated time: whatever the subdag
        # lets emit is stamped with its commit time
        landing = self.pipeline.on_commit(record, now=commit_t)
        self.trace.events.extend(landing.events)
        for order in landing.emitted:
            self.emit_time[order.r] = commit_t
        if landing.fair_propose is not None:
            # the fairness processor of every live replica parks the same
            # graph; each local worker resolves against its own LOI table,
            # and the votes it can cast at once carry the commit time
            self.now = commit_t
            for i, worker in enumerate(self.workers):
                if commit_t <= self.alive_until[i]:
                    worker.on_fair_propose(*landing.fair_propose)
        return record

    # -- full run ---------------------------------------------------------------------

    def run(self) -> SimResult:
        while self.round <= self.cfg.max_rounds:
            self.advance_round()
            self.try_commit()
        return SimResult(
            self.cfg,
            self.trace,
            self.records,
            self.pipeline.finish(),
            list(self.injection_time),
            self.injection_time,
            self.emit_time,
        )

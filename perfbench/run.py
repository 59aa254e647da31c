"""Benchmark for batchfair: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload bulk_n13 --seed 1 --seconds 35 --trace 0

A run builds the workload's scenario, starts and warms a 2-worker process
pool, times ``setup_s`` in fresh interpreters, then repeats rounds for about
``--seconds`` seconds. A round is one verified ``batchfair run``
(``harness.execute_scenario`` in concurrent mode on the warmed pool) plus
three serial replays of its committed records; every round's outputs go through
``checks.check_round``. The last stdout line is one JSON object with
``correct``, ``attempted`` (rounds), ``failed`` (rounds that raised) and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ledger
with ``--trace 1``. See README.md for what each metric measures.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import resource
import statistics
import subprocess
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SLOTS = 2  # the host has 2 cores; every concurrent stage uses 2 slots
SETUP_SAMPLES = 5
REPEATS = 3  # serial replays per round: the stage is short and noisy


def import_program() -> None:
    """Put the checkout's own ``src`` first on the path; refuse any other copy."""
    package = SRC / "batchfair"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program source at {package}")
    sys.path.insert(0, str(SRC))
    import batchfair

    if Path(batchfair.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"benchmark: imported batchfair from {batchfair.__file__}")


import_program()

from batchfair import harness  # noqa: E402
from batchfair.pipeline import FairnessPipeline  # noqa: E402

from checks import RoundOutput, check_round  # noqa: E402
from probes import (  # noqa: E402
    ORACLE_CALLS,
    MemoryWatch,
    RefClock,
    StageTimer,
    TimingPool,
    Tracer,
)
from workloads import WORKLOADS, Workload, build  # noqa: E402


@dataclass
class Round:
    kind: str  # "untraced" or "traced"
    wall_s: float  # benchmark time the round took, checks included
    problems: list[str]
    emitted: int = 0
    fingerprint: tuple = ()  # emitted-order digest and emit_* metrics
    work: dict = field(default_factory=dict)
    seconds: dict = field(default_factory=dict)  # stage wall times
    layers: dict = field(default_factory=dict)  # per-layer metrics (traced)
    spans: dict = field(default_factory=dict)  # span dump (traced)


class Bench:
    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.scenario, self.variant = build(workload, seed)
        self.clock = RefClock()
        self.pool = ProcessPoolExecutor(max_workers=SLOTS)
        list(self.pool.map(int, range(SLOTS)))  # start both workers before any probe

    def close(self) -> None:
        self.pool.shutdown(wait=True)

    # -- set-up ----------------------------------------------------------------------

    def setup_once(self) -> float:
        self.clock.sample()
        t0 = perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(BENCH / "setup_child.py"), self.workload.name, str(self.seed)],
            stdout=subprocess.PIPE, text=True,
        )
        with child:
            line = child.stdout.readline()
            raw = perf_counter() - t0
            child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up child exited with {child.returncode}")
        return raw

    # -- rounds ------------------------------------------------------------------------

    def _execute(self, pool):
        return harness.execute_scenario(
            self.scenario, serial=False, slots=SLOTS, pool=pool, variant=self.variant
        )

    def _finish(self, rnd: Round, report, res, concurrent, serial) -> None:
        """Check one round's outputs and note its work and emit metrics."""
        cfg = self.scenario.config
        emitted = res.pipeline.emitted
        out = RoundOutput(
            n=cfg.n, gamma=cfg.gamma, injected=res.injected, events=res.trace.events,
            faulty={d.replica for d in self.scenario.faults.directives},
            subdags=len(res.records), inloop=emitted, serial=serial.emitted,
            concurrent=concurrent.emitted, verdicts=report.verdicts,
            dist_pair_counts=[row["pair_count"] for row in report.dist_rows]
            if self.workload.adversarial else None,
        )
        rnd.problems = check_round(out)
        if len(res.injected) != self.workload.txs:
            rnd.problems.append(f"injected {len(res.injected)} of {self.workload.txs}")
        latencies = [
            res.emit_time[o.r] - res.injection_time[d] for o in emitted for d in o.digests
        ]
        rnd.emitted = len(latencies)
        rnd.fingerprint = (
            report.emitted_digest,
            report.throughput_tx_per_s,
            statistics.median(latencies),
            report.latency_p95,
        )
        events = res.trace.events
        rnd.work = {
            "subdags": len(res.records),
            "admitted_sq": sum(e["v"] ** 2 for e in events if e["ev"] == "graph_built"),
            "parked": sum(e["ev"] == "graph_parked" for e in events),
            "votes": sum(e["ev"] == "vote_cast" for e in events),
            "trace_events": len(events),
        }

    def _serial_replay(self, res):
        cfg = self.scenario.config
        return FairnessPipeline(cfg.n, cfg.f, cfg.gamma).replay(res.records)

    def untraced(self) -> Round:
        t_round = perf_counter()
        timer = StageTimer(self.clock)
        with timer.installed():
            t0 = perf_counter()
            report, res = self._execute(self.pool)
            run_s = perf_counter() - t0
        repeats = [timer.time("serial", self._serial_replay, res) for _ in range(REPEATS)]
        rnd = Round("untraced", 0.0, [], seconds={
            "run_s": run_s,
            "sim_s": timer.total("dagsim.Simulator.run"),
            "conc_s": timer.total("pipeline.FairnessPipeline.replay_concurrent"),
            "oracle_s": timer.total(*ORACLE_CALLS),
            "serial_s": timer.median("serial"),
        })
        self._finish(rnd, report, res, timer.kept, repeats[0])
        if any(rep.emitted != res.pipeline.emitted for rep in repeats):
            rnd.problems.append("modes_agree: a repeated replay differs from the in-loop order")
        rnd.wall_s = perf_counter() - t_round
        return rnd

    def traced(self) -> Round:
        t_round = perf_counter()
        tracer = Tracer()
        memory = MemoryWatch(tracer)
        with tracer.installed(), memory.installed():
            report, res = self._execute(TimingPool(self.pool, tracer))
        rnd = Round("traced", 0.0, [])
        self._finish(rnd, report, res, tracer.kept, self._serial_replay(res))
        rnd.layers = {**ledger(tracer, rnd.work), **memory.peaks_mib}
        t_root = tracer.spans[0][2]
        rnd.spans = {
            "self_s": tracer.self_s,
            "calls": tracer.calls,
            "counters": tracer.counters,
            "spans": [[n, p, s - t_root, e - t_root] for n, p, s, e in tracer.spans],
        }
        rnd.wall_s = perf_counter() - t_round
        return rnd


# -- the per-layer ledger ------------------------------------------------------------

# metric -> spans whose self time it sums
LAYER_TIMES = {
    "dagsim.advance_round_s": ("dagsim.advance_round",),
    "dagsim.try_commit_s": ("dagsim.try_commit",),
    "dagsim.run_self_s": ("dagsim.run",),
    "worker.observe_s": ("worker.observe_client", "worker.observe_remote"),
    "worker.build_batch_s": ("worker.build_batch",),
    "worker.on_fair_propose_s": ("worker.on_fair_propose",),
    "graph.extract_snapshot_s": ("graph.extract_snapshot",),
    "graph.phase1_weights_s": ("graph.phase1_weights",),
    "graph.phase2_build_graph_s": ("graph.phase2_build_graph",),
    "graph.phase3_anchor_s": ("graph.phase3_anchor",),
    "graph.apply_result_s": ("graph.apply_result",),
    "finalize.route_votes_s": ("finalize.route_votes",),
    "finalize.apply_fair_update_s": ("finalize.apply_fair_update",),
    "finalize.finalize_order_s": ("finalize.finalize_order",),
    "finalize.emit_s": ("finalize.emit", "finalize.mark_ready"),
    "pipeline.on_commit_self_s": ("pipeline.on_commit",),
    "pipeline.coordinator_s": ("pipeline.replay_concurrent",),
    "pipeline.pool_submit_s": ("pipeline.pool_submit",),
    "pipeline.pool_wait_s": ("pipeline.pool_wait",),
    "oracle.serial_reference_s": ("oracle.serial_reference",),
    "oracle.check_batch_of_s": ("oracle.check_batch_of",),
    "oracle.dist_histogram_s": ("oracle.dist_histogram",),
    "oracle.single_graph_loi_s": (
        "oracle.check_single_graph", "oracle.check_loi_monotone",
        "oracle.check_crashed_prefix_monotone",
    ),
    "trace.views_s": (
        "trace.receive_orders", "trace.reported_orders", "trace.committed_lois",
        "trace.retained_sets", "trace.fault_roles", "trace.correct_replicas",
        "trace.n_replicas",
    ),
    "harness.self_s": ("harness.execute_scenario",),
    "bench.probe_s": ("bench.probe",),
}


def ledger(tracer: Tracer, work: dict) -> dict:
    """Per-layer metrics of one traced round."""
    out = {
        name: sum(tracer.self_s.get(s, 0.0) for s in spans)
        for name, spans in LAYER_TIMES.items()
    }
    name, _parent, start, end = tracer.spans[0]
    assert name == "harness.execute_scenario"
    out["bench.run_s"] = end - start
    out["bench.unaccounted_s"] = out["bench.run_s"] - sum(out[k] for k in LAYER_TIMES)
    calls, counters = tracer.calls, tracer.counters
    out.update({
        "dagsim.trace_events": work["trace_events"],
        "params.quorum_size_calls": calls.get("params.quorum_size", 0),
        "worker.batches": calls.get("worker.build_batch", 0),
        "worker.votes_cast": work["votes"],
        "graph.admitted_txs": counters.get("graph.admitted_txs", 0),
        "graph.weight_cells": counters.get("graph.weight_cells", 0),
        "graph.missing_pairs": counters.get("graph.missing_pairs", 0),
        "finalize.parked_subdags": work["parked"],
        "finalize.tally_attempts": calls.get("finalize.apply_fair_update", 0),
        "finalize.tallies_resolved": counters.get("finalize.tallies_resolved", 0),
        "pipeline.pool_tasks": counters.get("pipeline.pool_tasks", 0),
        "pipeline.pool_pickled_bytes": counters.get("pipeline.pool_pickled_bytes", 0),
        "oracle.pairs_checked": counters.get("oracle.pairs_checked", 0),
        "trace.view_calls": sum(v for k, v in calls.items() if k.startswith("trace.")),
    })
    return out


# -- metrics ---------------------------------------------------------------------------


def peak_rss_mib() -> float:
    """High-water resident memory of this process plus each pool worker."""
    total_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for proc in multiprocessing.active_children():
        with open(f"/proc/{proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
    return total_kib / 1024


def end_to_end(bench: Bench, setup: list[float], rounds: list[Round]) -> dict:
    """Medians over the run's rounds, in reference-scaled seconds."""
    scale = bench.clock.factor()

    def median(key):
        return scale * statistics.median(r.seconds[key] for r in rounds)

    first = rounds[0]
    _digest, throughput, p50, p95 = first.fingerprint
    return {
        "setup_s": (scale * statistics.median(setup), "s"),
        "run_s": (median("run_s"), "s"),
        "sim_tx_per_s": (bench.workload.txs / median("sim_s"), "tx/s"),
        "fair_serial_tx_per_s": (first.emitted / median("serial_s"), "tx/s"),
        "check_tx_per_s": (first.emitted / median("oracle_s"), "tx/s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
        "emit_tx_per_sim_s": (throughput, "tx/sim_s"),
        "emit_latency_p50_ticks": (p50, "sim_tick"),
        "emit_latency_p95_ticks": (p95, "sim_tick"),
    }


UNITS = {"_s": "s", "_mib": "MiB", "_bytes": "byte"}


def per_layer(bench: Bench, rounds: list[Round]) -> tuple[dict, Round]:
    """The ledger of the median traced round, in reference-scaled seconds."""
    traced = sorted((r for r in rounds if r.kind == "traced"),
                    key=lambda r: r.layers["bench.run_s"])
    chosen = traced[len(traced) // 2]  # one round, so that its ledger adds up
    metrics = dict(chosen.layers)
    metrics["bench.untraced_run_s"] = statistics.median(
        r.seconds["run_s"] for r in rounds if r.kind == "untraced")
    metrics["bench.tracing_overhead_s"] = metrics["bench.run_s"] - metrics["bench.untraced_run_s"]
    scale = bench.clock.factor()
    out = {}
    for name, value in metrics.items():
        unit = next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")
        out[name] = (value * scale if unit == "s" else value, unit)
    # too noisy between runs on this host for a bounded end-to-end metric (README)
    conc_s = scale * statistics.median(r.seconds["conc_s"] for r in rounds if r.kind == "untraced")
    out["pipeline.replay_concurrent_tx_per_s"] = (chosen.emitted / conc_s, "tx/s")
    return out, chosen


# -- run loop ------------------------------------------------------------------------------


def run(args) -> int:
    workload = WORKLOADS[args.workload]
    bench = Bench(workload, args.seed)
    rounds: list[Round] = []
    try:
        setup = [bench.setup_once() for _ in range(SETUP_SAMPLES)]
        plan = ["untraced", "traced"] if args.trace else ["untraced"]
        last_wall: dict[str, float] = {}
        t_start = perf_counter()
        attempt = 0
        while True:
            kind = plan[attempt % len(plan)]
            attempt += 1
            gc.collect()
            bench.clock.sample()
            try:
                rnd = getattr(bench, kind)()
            except Exception:
                traceback.print_exc()
                rnd = None
            if rnd is not None:
                rounds.append(rnd)
                last_wall[kind] = rnd.wall_s
                print(f"round {attempt} {kind} {rnd.wall_s:.2f}s "
                      + " ".join(f"{k}={v:.4f}" for k, v in rnd.seconds.items()))
            used = perf_counter() - t_start
            next_kind = plan[attempt % len(plan)]
            expected = last_wall.get(next_kind, max(last_wall.values(), default=0.0))
            if attempt >= len(plan) and used + expected > args.seconds:
                break
        bench.clock.sample()
        failed = attempt - len(rounds)
        if args.trace:
            metrics, chosen = per_layer(bench, rounds)
        else:
            metrics = end_to_end(bench, setup, [r for r in rounds if r.kind == "untraced"])
    finally:
        bench.close()

    problems = [p for r in rounds for p in r.problems]
    fingerprints = {r.fingerprint for r in rounds}
    if len(fingerprints) > 1:
        problems.append(f"emitted digest or emit_* metrics differ across rounds: {fingerprints}")
    for p in problems[:20]:
        print(f"CHECK FAILED {p}")
    print("work " + " ".join(f"{k}={v}" for k, v in rounds[0].work.items()))
    print("raw setup_s samples " + " ".join(f"{s:.4f}" for s in setup))
    print(f"reference loop median {statistics.median(bench.clock.samples):.6f}s "
          f"over {len(bench.clock.samples)} samples, scale {bench.clock.factor():.4f}")
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        path.write_text(json.dumps(chosen.spans))
        print(f"spans written to {path.relative_to(BENCH.parent)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempt,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

"""Scenario runner, oracle verdicts, reports, sweeps, and phase profiling."""

from __future__ import annotations

import csv
import hashlib
import json
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .adversaries import (
    ClientDirective,
    ClientSchedule,
    DelaySpike,
    FaultDirective,
    FaultSchedule,
    uniform_load,
)
from .baselines import DodModel, FairDagModel
from .dagsim import Simulator, SimResult
from .oracle import (
    check_batch_of,
    check_loi_monotone,
    check_single_graph,
    dist_histogram,
    serial_reference,
)
from .params import ConfigError, SimConfig
from .pipeline import FairnessPipeline
from .scenarios import Scenario, build_scenario
from .trace import RunTrace
from .types import orders_digest


@dataclass
class RunReport:
    scenario: str
    variant: dict
    config: dict
    mode: str  # "serial" or "concurrent"
    emitted_digest: str
    verdicts: dict
    counts: dict
    phase_means_ns: dict
    throughput_tx_per_s: float
    latency_mean: float
    latency_p95: float
    dist_rows: list[dict] = field(default_factory=list)
    model_results: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.verdicts.values())

    def _hashed_fields(self) -> dict:
        """The fields report_hash covers; to_dict leads with them."""
        return {
            "scenario": self.scenario,
            "variant": self.variant,
            "config": self.config,
            "emitted_digest": self.emitted_digest,
            "verdicts": self.verdicts,
            "counts": self.counts,
        }

    def report_hash(self) -> str:
        """Hash of the deterministic report fields (timings excluded)."""
        doc = json.dumps(self._hashed_fields(), sort_keys=True)
        return hashlib.sha256(doc.encode()).hexdigest()

    def to_dict(self) -> dict:
        return {
            **self._hashed_fields(),
            "mode": self.mode,
            "phase_means_ns": self.phase_means_ns,
            "throughput_tx_per_s": self.throughput_tx_per_s,
            "latency_mean": self.latency_mean,
            "latency_p95": self.latency_p95,
            "dist": self.dist_rows,
            "model_results": self.model_results,
            "report_hash": self.report_hash(),
        }


SIM_SECOND = 1000  # simulated-time ticks per reported "second"


def _phase_means(profiles: list[dict]) -> dict:
    if not profiles:
        return {}
    keys = ("extract_ns", "weights_ns", "build_ns", "scc_ns", "result_ns")
    return {k: statistics.fmean(p[k] for p in profiles) for k in keys}


def phase_profile(trace: RunTrace) -> dict:
    """Per-phase CPU time (ns) over a trace's graph_profile events: phase ->
    {"mean", "p50", "p95", "max"}, the quantiles read off the sorted times."""
    rows = [e for e in trace.events if e["ev"] == "graph_profile"]
    out = {}
    for phase, mean in _phase_means(rows).items():
        ns = sorted(e[phase] for e in rows)
        out[phase] = {"mean": mean, "p50": ns[int(0.5 * (len(ns) - 1))],
                      "p95": ns[int(0.95 * (len(ns) - 1))], "max": ns[-1]}
    return out


def _verdicts(
    cfg: SimConfig, records: list, trace: RunTrace, emitted: list, replay_emitted: list
) -> tuple[dict, dict]:
    """Run every oracle checker on one run: the five verdicts, and the counts
    the checkers report."""
    outcome = serial_reference(records, cfg.n, cfg.f, cfg.gamma)
    batch_of = check_batch_of(trace, emitted, cfg.gamma)
    single_ok, single_bad = check_single_graph(trace)
    loi_ok, loi_bad = check_loi_monotone(trace)
    verdicts = {
        "mode_digest_match": orders_digest(replay_emitted) == orders_digest(emitted),
        "serial_equivalence": outcome.orders == emitted and not outcome.vote_mismatches,
        "batch_order_fairness": batch_of.ok,
        "single_graph": single_ok,
        "loi_monotone": loi_ok,
    }
    found = {
        "pairs_checked": batch_of.pairs_checked,
        "violations": len(batch_of.violations),
        "single_graph_offender": single_bad,
        "loi_offender": loi_bad,
    }
    return verdicts, found


def execute_scenario(
    scenario: Scenario,
    serial: bool = False,
    slots: int | None = None,
    pool: ProcessPoolExecutor | None = None,
    variant: dict | None = None,
) -> tuple[RunReport, SimResult]:
    """Simulate, replay in the requested mode, and run every oracle checker."""
    if slots is None:
        slots = scenario.config.task_slots
    res = Simulator(
        scenario.config, scenario.faults, scenario.clients, scenario.spikes,
        meta={"scenario": scenario.name, **(variant or {})},
    ).run()
    cfg = scenario.config
    replayer = FairnessPipeline(cfg.n, cfg.f, cfg.gamma)
    if serial:
        replay = replayer.replay(res.records)
    else:
        replay = replayer.replay_concurrent(res.records, slots=slots, pool=pool)
    verdicts, found = _verdicts(
        cfg, res.records, res.trace, res.pipeline.emitted, replay.emitted
    )
    emitted_txs = {d for o in res.pipeline.emitted for d in o.digests}
    stragglers = [d for d in res.injected if d not in emitted_txs]
    counts = {
        "rounds": cfg.max_rounds,
        "subdags": len(res.records),
        "orders_emitted": len(res.pipeline.emitted),
        "txs_injected": len(res.injected),
        "txs_emitted": len(emitted_txs),
        "stragglers": len(stragglers),
        "parked_unresolved": len(res.pipeline.parked_left),
        **found,
    }
    # throughput / latency in simulated time
    emit_t = [res.emit_time[o.r] for o in res.pipeline.emitted if o.digests]
    if emitted_txs and emit_t and res.injection_time:
        span = max(emit_t) - min(res.injection_time.values())
        throughput = len(emitted_txs) / max(span, 1) * SIM_SECOND
        lat = [
            res.emit_time[o.r] - res.injection_time[d]
            for o in res.pipeline.emitted
            for d in o.digests
            if d in res.injection_time
        ]
        lat.sort()
        latency_mean = statistics.fmean(lat)
        latency_p95 = lat[int(0.95 * (len(lat) - 1))]
    else:
        throughput = 0.0
        latency_mean = latency_p95 = 0.0
    dist_rows: list[dict] = []
    adversarial = bool(res.trace.fault_roles()[0]) or "f_actual" in (variant or {})
    if adversarial:
        for row in dist_histogram(res.trace, res.pipeline.emitted):
            dist_rows.append(
                {
                    "dist_bucket": row.dist,
                    "pair_count": row.pair_count,
                    "reversed_fraction": row.reversed_fraction,
                }
            )
    report = RunReport(
        scenario=scenario.name,
        variant=variant or {},
        config=cfg.to_dict(),
        mode="serial" if serial else "concurrent",
        emitted_digest=orders_digest(res.pipeline.emitted),
        verdicts=verdicts,
        counts=counts,
        phase_means_ns=_phase_means(res.pipeline.profiles),
        throughput_tx_per_s=throughput,
        latency_mean=latency_mean,
        latency_p95=latency_p95,
        dist_rows=dist_rows,
    )
    return report, res


def run_baseline_models(scenario: Scenario) -> dict:
    """Run the scripted weight-layer models attached to a scenario."""
    out: dict = {}
    if scenario.model is None:
        return out
    m = scenario.model
    if scenario.name == "fairdag_b1":
        for patched in (False, True):
            model = FairDagModel(m["n"], m["f"], patched)
            for contributions in m["subdags"]:
                model.process_subdag(contributions)
            after_two = {
                "weight_ab": model.weight("a", "b"),
                "weight_ba": model.weight("b", "a"),
            }
            if not patched:
                model.run_heartbeats(m["horizon"] - model.subdags_processed)
            out["patched" if patched else "unpatched"] = {
                **after_two,
                "subdags_processed": model.subdags_processed,
                "stalled": model.stalled,
                "finalizations": [
                    {"graph_r": r, "at_subdag": at, "order": order}
                    for r, at, order in model.finalizations
                ],
            }
    elif scenario.name == "dod_b2":
        for patched in (False, True):
            model = DodModel(m["n"], m["f"], m["gamma"], patched)
            rep = model.run(m["rounds"])
            pair = ("a", "b")
            mp = rep.missing.get(pair)
            out["patched" if patched else "buggy"] = {
                "w_ab": mp.w[("a", "b")] if mp else None,
                "w_ba": mp.w[("b", "a")] if mp else None,
                "threshold": model.edge_threshold,
                "stalled": rep.stalled,
                "queue": rep.queue,
                "executed": rep.executed,
                "mechanism1_fired": rep.mechanism1_fired,
                "mechanism2_fired": rep.mechanism2_fired,
                "resolutions": rep.resolutions,
            }
    return out


def run_scenario(
    scenario: Scenario | str,
    serial: bool = False,
    slots: int | None = None,
    seed: int | None = None,
    outdir: str | Path | None = None,
    trace_on: bool = True,
) -> list[RunReport]:
    """Run a scenario, such as one from ``load_scenario_file``, or a shipped
    scenario by name (all its variants, built at ``seed``, default 0)."""
    if isinstance(scenario, str):
        scenario = build_scenario(scenario, seed=seed or 0)
    elif seed is not None:
        raise ValueError("seed builds a shipped scenario by name; a Scenario carries its own")
    variants = scenario.variants or [{}]
    reports: list[RunReport] = []
    results: list[SimResult] = []
    for variant in variants:
        sc = scenario
        if variant:
            sc = build_scenario(scenario.name, seed=seed or 0, **variant)
        report, res = execute_scenario(sc, serial=serial, slots=slots, variant=variant)
        report.model_results = run_baseline_models(sc)
        reports.append(report)
        results.append(res)
    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        if trace_on:
            for report, res in zip(reports, results):
                suffix = "".join(f"_{k}{v}" for k, v in report.variant.items())
                res.trace.write_jsonl(outdir / f"trace{suffix}.jsonl")
        with open(outdir / "report.json", "w") as fh:
            json.dump([r.to_dict() for r in reports], fh, indent=2)
        write_metrics_csv(outdir / "metrics.csv", reports)
        if any(r.dist_rows for r in reports):
            write_dist_csv(outdir / "dist.csv", reports)
    return reports


def write_metrics_csv(path: str | Path, reports: list[RunReport]) -> None:
    """One row per report; the verdict columns are the verdicts' own keys."""
    verdict_cols = list(reports[0].verdicts) if reports else []
    cols = [
        "scenario", "variant", "mode", "n", "f", "gamma", "seed",
        "txs_injected", "txs_emitted", "stragglers", "subdags",
        "throughput_tx_per_s", "latency_mean", "latency_p95",
        *verdict_cols, "report_hash",
    ]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for r in reports:
            w.writerow(
                [
                    r.scenario, json.dumps(r.variant), r.mode,
                    r.config["n"], r.config["f"], r.config["gamma"], r.config["seed"],
                    r.counts["txs_injected"], r.counts["txs_emitted"],
                    r.counts["stragglers"], r.counts["subdags"],
                    f"{r.throughput_tx_per_s:.2f}", f"{r.latency_mean:.2f}",
                    f"{r.latency_p95:.2f}",
                    *(str(r.verdicts[k]).lower() for k in verdict_cols),
                    r.report_hash(),
                ]
            )


def write_dist_csv(path: str | Path, reports: list[RunReport]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["f_actual", "dist_bucket", "pair_count", "reversed_fraction"])
        for r in reports:
            fa = r.variant.get("f_actual", "")
            for row in r.dist_rows:
                w.writerow(
                    [fa, row["dist_bucket"], row["pair_count"],
                     f"{row['reversed_fraction']:.6f}"]
                )


def report_from_trace(trace: RunTrace) -> dict:
    """Recompute the deterministic report fields from a trace alone."""
    cfg = SimConfig.from_dict(trace.meta["config"])
    records = trace.commit_records()
    emitted = trace.emitted_orders()
    replay = FairnessPipeline(cfg.n, cfg.f, cfg.gamma).replay(records)
    verdicts, _found = _verdicts(cfg, records, trace, emitted, replay.emitted)
    return {"emitted_digest": orders_digest(emitted), "verdicts": verdicts}


# -- speedup measurement ------------------------------------------------------------


# Runs per side in measure_speedup. One serial and one concurrent wall time
# on a shared host fall on either side of a 1.5x bar by noise alone, so each
# side is timed several times and reported by its median.
SPEEDUP_RUNS = 5


@dataclass
class SpeedupResult:
    serial_wall_s: float  # median over SPEEDUP_RUNS runs
    concurrent_wall_s: float  # median over SPEEDUP_RUNS runs
    speedup: float  # ratio of the two medians
    digests_equal: bool
    eligible_subdags: int
    min_snapshot: int


def measure_speedup(
    scenario: Scenario, slots: int = 4, min_snapshot_size: int = 200
) -> SpeedupResult:
    """Wall-clock of the fairness layer, serial vs concurrent, on one trace.

    Both sides replay the same records SPEEDUP_RUNS times, alternating which
    side runs first; every replay's output digest must equal the in-loop one.
    """
    res = Simulator(
        scenario.config, scenario.faults, scenario.clients, scenario.spikes
    ).run()
    cfg = scenario.config
    # snapshot size per subdag = admitted count from the in-loop trace
    sizes = [e["v"] for e in res.trace.events if e["ev"] == "graph_built"]
    eligible = sum(1 for s in sizes if s >= min_snapshot_size)
    digests = {orders_digest(res.pipeline.emitted)}
    with ProcessPoolExecutor(max_workers=slots) as pool:
        # warm the workers so fork cost is not billed to the fairness layer
        list(pool.map(int, range(slots)))

        def serial():
            return FairnessPipeline(cfg.n, cfg.f, cfg.gamma).replay(res.records)

        def concurrent():
            return FairnessPipeline(cfg.n, cfg.f, cfg.gamma).replay_concurrent(
                res.records, slots=slots, pool=pool
            )

        walls: dict = {serial: [], concurrent: []}
        for i in range(SPEEDUP_RUNS):
            for side in (serial, concurrent) if i % 2 == 0 else (concurrent, serial):
                t0 = time.perf_counter()
                out = side()
                walls[side].append(time.perf_counter() - t0)
                digests.add(orders_digest(out.emitted))
    serial_s = statistics.median(walls[serial])
    concurrent_s = statistics.median(walls[concurrent])
    return SpeedupResult(
        serial_wall_s=serial_s,
        concurrent_wall_s=concurrent_s,
        speedup=serial_s / max(concurrent_s, 1e-9),
        digests_equal=len(digests) == 1,
        eligible_subdags=eligible,
        min_snapshot=min(sizes) if sizes else 0,
    )


# -- parameter sweeps ----------------------------------------------------------------


def sweep(grid: dict, seeds: list[int], out_path: str | Path | None = None) -> list[dict]:
    """Grid sweep over n/f/gamma/txs; one averaged row per cell.

    Infeasible cells (a ConfigError: threshold violations, unreachable
    quorums) are marked skipped with the offending reason rather than
    dropped; any other error is a defect and propagates.
    """
    from .scenarios import sweep_scenario

    rows: list[dict] = []
    for n in grid.get("n", [5]):
        for f in grid.get("f", [1]):
            for gamma in grid.get("gamma", ["1"]):
                for txs in grid.get("txs", [90]):
                    cell = {"n": n, "f": f, "gamma": str(gamma), "txs": txs}
                    metrics: list[tuple[float, float, bool]] = []
                    error = None
                    for seed in seeds:
                        try:
                            sc = sweep_scenario(n, f, gamma, seed, txs=txs)
                            report, _ = execute_scenario(sc, serial=True)
                        except ConfigError as exc:
                            error = str(exc)
                            break
                        metrics.append(
                            (report.throughput_tx_per_s, report.latency_mean, report.ok)
                        )
                    if error is not None:
                        rows.append({**cell, "status": "skipped", "reason": error})
                    else:
                        rows.append(
                            {
                                **cell,
                                "status": "ok",
                                "seeds": len(seeds),
                                "throughput_tx_per_s": statistics.fmean(m[0] for m in metrics),
                                "latency_mean": statistics.fmean(m[1] for m in metrics),
                                "all_verdicts_pass": all(m[2] for m in metrics),
                            }
                        )
    if out_path is not None:
        cols = [
            "n", "f", "gamma", "txs", "status", "reason", "seeds",
            "throughput_tx_per_s", "latency_mean", "all_verdicts_pass",
        ]
        with open(out_path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=cols)
            w.writeheader()
            for row in rows:
                w.writerow({k: row.get(k, "") for k in cols})
    return rows


# -- JSON scenario files --------------------------------------------------------------


def _entry(where: str, entry, required: tuple, optional: tuple = ()) -> dict:
    """One object of a scenario file; a non-object, a missing key or an
    unknown key raises ConfigError naming ``where``."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: expected an object, got {entry!r}")
    missing = [k for k in required if k not in entry]
    unknown = sorted(set(entry) - {*required, *optional})
    if missing or unknown:
        raise ConfigError(f"{where}: missing keys {missing}, unknown keys {unknown}")
    return entry


def _count(where: str, value) -> int:
    """A non-negative integer field of a scenario file (not a bool)."""
    if type(value) is not int or value < 0:
        raise ConfigError(f"{where} must be an integer >= 0, got {value!r}")
    return value


def _list(where: str, value) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list, got {value!r}")
    return value


def load_scenario_file(path: str | Path) -> Scenario:
    """Build a scenario from a JSON config document; malformed input raises
    ConfigError naming the bad key or entry."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path} is not a JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"a scenario file holds one JSON object, got {doc!r}")
    faults = FaultSchedule([
        FaultDirective(**_entry(f"faults[{i}]", d, ("replica", "strategy", "round")))
        for i, d in enumerate(_list("faults", doc.pop("faults", [])))
    ])
    spikes = [
        DelaySpike(**_entry(f"spikes[{i}]", s, ("replica", "round", "extra"), ("scope",)))
        for i, s in enumerate(_list("spikes", doc.pop("spikes", [])))
    ]
    cspec = doc.pop("clients", None)
    name = doc.pop("name", Path(path).stem)
    if not isinstance(name, str):
        raise ConfigError(f"name must be a string, got {name!r}")
    cfg = SimConfig.from_dict(doc)
    # a non-object takes the uniform branch, whose check names it
    kind = cspec.get("kind", "uniform") if isinstance(cspec, dict) else "uniform"
    if cspec is None:
        clients = ClientSchedule()
    elif kind == "uniform":
        _entry("clients", cspec, ("txs",), ("kind", "start_round", "end_round", "skew_p"))
        txs = _count("clients.txs", cspec["txs"])
        start = _count("clients.start_round", cspec.get("start_round", 1))
        end = _count("clients.end_round", cspec.get("end_round", max(2, cfg.max_rounds - 8)))
        if start > end:
            past = f"clients.end_round {end}" if "end_round" in cspec else (
                f"the default clients.end_round {end}, which is max(2, max_rounds - 8) "
                f"with max_rounds {cfg.max_rounds}"
            )
            raise ConfigError(f"clients.start_round {start} is past {past}")
        skew_p = cspec.get("skew_p", 0.0)
        if isinstance(skew_p, bool) or not isinstance(skew_p, (int, float)) or not 0 <= skew_p <= 1:
            raise ConfigError(f"clients.skew_p must be a number in [0, 1], got {skew_p!r}")
        clients = uniform_load(cfg.n, txs, start, end, seed=cfg.seed, skew_p=skew_p)
    elif kind == "items":
        items = _list("clients.items", _entry("clients", cspec, ("kind", "items"))["items"])
        for i, item in enumerate(items):
            if not isinstance(item, list) or len(item) != 4:
                raise ConfigError(
                    f"clients.items[{i}]: expected [body, replica, round, seq], got {item!r}"
                )
            if not isinstance(item[0], str):
                raise ConfigError(f"clients.items[{i}].body must be a string, got {item[0]!r}")
            for key, value in zip(("replica", "round", "seq"), item[1:]):
                _count(f"clients.items[{i}].{key}", value)
        clients = ClientSchedule([ClientDirective(*item) for item in items])
    else:
        raise ConfigError(f"clients.kind: unknown kind {kind!r}, expected 'uniform' or 'items'")
    return Scenario(name, cfg, faults=faults, clients=clients, spikes=spikes)

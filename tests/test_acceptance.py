"""Acceptance suite: one test per shipped correctness/performance criterion.

Each test prints one PASS/FAIL line (run with -s or check captured output).
Criterion 10 (pipeline speedup) requires >= 2 physical cores to stand a
chance; on a single-core host it fails honestly rather than being weakened.
"""

import hashlib
import os
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from statistics import fmean

import pytest

from batchfair.harness import execute_scenario, measure_speedup, run_baseline_models
from batchfair.oracle import (
    SerialOutcome,
    _dist_arrays,
    _precedence,
    _tau_i,
    check_batch_of,
    check_loi_monotone,
    check_single_graph,
    serial_reference,
)
from batchfair.pipeline import FairnessPipeline
from batchfair.scenarios import build_scenario, sweep_scenario
from batchfair.trace import RunTrace
from batchfair.types import FinalOrder, orders_digest
from test_golden import trace_digest


def _report(criterion: str, ok: bool, detail: str = "") -> bool:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    return ok


# -- criterion 1-3 share one 200-run randomized sweep ---------------------------------

SWEEP_CELLS = [
    # (n, f_max, gamma) - f maximal for the threshold n > 4f/(2*gamma-1)
    (5, 1, "1"), (9, 2, "1"), (13, 3, "1"),
    (5, 0, "0.8"), (9, 1, "0.8"), (13, 1, "0.8"),
]
SWEEP_RUNS = 200


@pytest.fixture(scope="module")
def sweep_results(pool):
    results = []
    t0 = time.perf_counter()
    runs = 0
    seed = 0
    while runs < SWEEP_RUNS:
        n, f, gamma = SWEEP_CELLS[runs % len(SWEEP_CELLS)]
        seed += 1
        sc = sweep_scenario(n, f, gamma, seed=seed)
        from batchfair.dagsim import Simulator

        res = Simulator(sc.config, sc.faults, sc.clients, sc.spikes).run()
        conc = FairnessPipeline(n, f, sc.config.gamma).replay_concurrent(
            res.records, slots=2, pool=pool
        )
        oracle = serial_reference(res.records, n, f, sc.config.gamma)
        results.append(
            {
                "cell": (n, f, gamma),
                "seed": seed,
                "equal": orders_digest(conc.emitted) == orders_digest(oracle.orders)
                == orders_digest(res.pipeline.emitted),
                "violations": len(
                    check_batch_of(res.trace, res.pipeline.emitted, sc.config.gamma).violations
                ),
                "single": check_single_graph(res.trace)[0],
                "loi": check_loi_monotone(res.trace)[0],
                "orders": orders_digest(res.pipeline.emitted),
                "trace": trace_digest(res.trace),
            }
        )
        runs += 1
    elapsed = time.perf_counter() - t0
    return results, elapsed


# sha256 over each sweep run's seed, in-loop emitted digest and trace digest
SWEEP_PIN = "c9ea64f52d684b76877ee6f1bec84dc16e1538741408f03f4c5e94ad1d7dac92"


def test_sweep_runs_pinned(sweep_results):
    results, _ = sweep_results
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r['seed']} {r['orders']} {r['trace']}\n".encode())
    assert h.hexdigest() == SWEEP_PIN


def test_criterion_1_serial_equivalence(sweep_results):
    results, elapsed = sweep_results
    equal = sum(1 for r in results if r["equal"])
    ok = equal == SWEEP_RUNS and elapsed < 300
    assert _report(
        "1 serial-equivalence",
        ok,
        f"{equal}/{SWEEP_RUNS} bitwise-equal across seeds x n x gamma x crashes, "
        f"{elapsed:.0f}s (< 300s budget)",
    )


def test_criterion_2_batch_order_fairness(sweep_results, pool):
    results, _ = sweep_results
    sweep_violations = sum(r["violations"] for r in results)
    adversarial_ok = True
    details = []
    for f_actual in (0, 2, 5):
        sc = build_scenario("reversing_fig8", f_actual=f_actual)
        rep, res = execute_scenario(
            sc, serial=True, variant={"f_actual": f_actual}
        )
        v = rep.counts["violations"]
        details.append(f"f_actual={f_actual}: {v}")
        adversarial_ok &= v == 0 and rep.counts["stragglers"] == 0
    ok = sweep_violations == 0 and adversarial_ok
    assert _report(
        "2 gamma-batch-order-fairness",
        ok,
        f"sweep violations={sweep_violations}; reversing N=21 f=5: {', '.join(details)}",
    )


def test_criterion_3_single_graph_and_loi_monotone(sweep_results):
    results, _ = sweep_results
    single_fail = sum(1 for r in results if not r["single"])
    loi_fail = sum(1 for r in results if not r["loi"])
    # ablation: disabling the self-referencing rule must break LOI monotonicity
    rep_off, res_off = execute_scenario(build_scenario("ablation_no_selfref"), serial=True)
    ablation_breaks = not check_loi_monotone(res_off.trace)[0]
    rep_on, res_on = execute_scenario(build_scenario("ablation_selfref_on"), serial=True)
    control_clean = check_loi_monotone(res_on.trace)[0]
    ok = single_fail == 0 and loi_fail == 0 and ablation_breaks and control_clean
    assert _report(
        "3 single-graph + LOI-monotonicity",
        ok,
        f"sweep failures: single={single_fail} loi={loi_fail}; "
        f"self-ref ablation breaks={ablation_breaks}, control clean={control_clean}",
    )


def test_criterion_4_liveness_n13_2000tx():
    rep, res = execute_scenario(build_scenario("crash_n13"), serial=True)
    ok = (
        rep.counts["txs_injected"] == 2000
        and rep.counts["stragglers"] == 0
        and rep.counts["parked_unresolved"] == 0
        and all(rep.verdicts.values())
    )
    assert _report(
        "4 liveness N=13 f=3 crash",
        ok,
        f"emitted {rep.counts['txs_emitted']}/{rep.counts['txs_injected']}, "
        f"stragglers={rep.counts['stragglers']}",
    )


def test_criterion_5_starvation_attack_on_indicator_weight_layer():
    out = run_baseline_models(build_scenario("fairdag_b1"))
    unpatched, patched = out["unpatched"], out["patched"]
    ok = (
        unpatched["weight_ab"] == 1
        and unpatched["weight_ba"] == 1
        and unpatched["stalled"]
        and unpatched["subdags_processed"] == 1000
        and patched["weight_ab"] == 2
        and not patched["stalled"]
        and any(fin["order"] == ["a", "b"] for fin in patched["finalizations"])
    )
    assert _report(
        "5 indicator-weight starvation attack",
        ok,
        f"unpatched w(a,b)={unpatched['weight_ab']} w(b,a)={unpatched['weight_ba']} "
        f"stalled@1000={unpatched['stalled']}; patched w(a,b)={patched['weight_ab']} "
        f"finalized={not patched['stalled']}",
    )


def test_criterion_5b_attack_does_not_transfer():
    # the same delivery plan, adapted to this protocol's thresholds, finalizes
    rep, _ = execute_scenario(build_scenario("fairdag_b1"), serial=True)
    ok = rep.counts["stragglers"] == 0 and all(rep.verdicts.values())
    assert _report(
        "5b starvation plan does not transfer",
        ok,
        f"all {rep.counts['txs_emitted']} txs emitted under the attack plan",
    )


def test_criterion_6_missing_edge_stall():
    out = run_baseline_models(build_scenario("dod_b2"))
    buggy, patched = out["buggy"], out["patched"]
    ok = (
        buggy["w_ab"] == 1 and buggy["w_ba"] == 1 and buggy["threshold"] == 2
        and buggy["stalled"] and buggy["executed"] == []
        and buggy["mechanism1_fired"] == 0 and buggy["mechanism2_fired"] == 0
        and not patched["stalled"] and patched["queue"] == []
        and patched["resolutions"]
    )
    assert _report(
        "6 missing-edge weight stall",
        ok,
        f"buggy w=({buggy['w_ab']},{buggy['w_ba']}) frozen below {buggy['threshold']}, "
        f"queue stalled={buggy['stalled']}; patched drains={not patched['stalled']}",
    )


def test_criterion_7_condorcet_cycle_single_batch():
    from batchfair.graph import classify, count_threshold, phase1_weights
    from batchfair.params import edge_threshold, solid_threshold
    from batchfair.types import tx_digest

    rep, res = execute_scenario(build_scenario("condorcet_minimal"), serial=True)
    orders = [o for o in res.pipeline.emitted if o.digests]
    one_batch = len(orders) == 1 and orders[0].batches == ((0, 3),)
    # hand-computed 2/1 weight splits over the three cyclic orders
    a, b, c = (tx_digest(x) for x in "abc")
    snap_orders = {}
    for rec in res.records:
        for vr in rec.vertices:
            for _kind, dg, _loi in vr.entries:
                snap_orders.setdefault(vr.author, []).append(dg)
    tau_i = count_threshold(edge_threshold(3, 0, Fraction(2, 3)))
    report = phase1_weights(classify(1, snap_orders, tau_i, solid_threshold(3, 0)))

    def weight(u, v):
        return report.weights[report.admitted.index(u), report.admitted.index(v)]

    weights_ok = (
        (weight(a, b), weight(b, a)) == (2, 1)
        and (weight(b, c), weight(c, b)) == (2, 1)
        and (weight(c, a), weight(a, c)) == (2, 1)
    )
    ok = one_batch and weights_ok and all(rep.verdicts.values())
    assert _report(
        "7 condorcet cycle handling",
        ok,
        f"single contiguous batch={one_batch}, hand-computed 2/1 weights={weights_ok}",
    )


# -- criterion 8 helpers: the per-pair Dist table and weight-certified pairs ----------


def dist_pair_table(
    trace: RunTrace, emitted: list[FinalOrder]
) -> list[tuple[str, str, int, bool]]:
    """Per-pair adversarial-closeness table (u, v, Dist, reversed), over the
    pairs and with the meaning of ``oracle._dist_arrays``."""
    txs, iu, iv, dist, rev = _dist_arrays(trace, emitted)
    return [
        (txs[u], txs[v], d, r)
        for u, v, d, r in zip(iu.tolist(), iv.tolist(), dist.tolist(), rev.tolist())
    ]


def certified_pairs(outcome: SerialOutcome, trace: RunTrace) -> set[tuple[str, str]]:
    """Pairs where the honest direction's weight reached tau in every snapshot
    observation (and every vote tally), both graphed in the same subdag.
    Such a pair can never be emitted against the honest direction."""
    cfg = trace.meta["config"]
    tau_i = _tau_i(int(cfg["n"]), int(cfg["f"]), cfg["gamma"])
    receive = trace.receive_orders()
    txs = list(outcome.graphed_in)
    at = {d: i for i, d in enumerate(txs)}
    honest = _precedence([receive[i] for i in trace.correct_replicas()], txs)
    out: set[tuple[str, str]] = set()
    for (u, v), ev in outcome.evidence.items():
        ru, rv = outcome.graphed_in.get(u), outcome.graphed_in.get(v)
        if ru is None or ru != rv:
            continue
        pref_uv, pref_vu = honest[at[u], at[v]], honest[at[v], at[u]]
        if pref_uv == pref_vu:
            continue
        honest_first = 0 if pref_uv > pref_vu else 1
        obs = list(ev.weights)
        if ev.vote_tally is not None:
            obs.append(ev.vote_tally)
        if all(o[honest_first] >= tau_i and o[honest_first] > o[1 - honest_first] for o in obs):
            out.add((u, v))
    return out


def test_criterion_8_adversarial_dist_shape(tmp_path):
    import csv

    from batchfair.harness import write_dist_csv

    all_ok = True
    details = []
    reports = []
    for f_actual in (0, 2, 5):
        sc = build_scenario("reversing_fig8", f_actual=f_actual)
        rep, res = execute_scenario(sc, serial=True, variant={"f_actual": f_actual})
        reports.append(rep)
        rows = [r for r in rep.dist_rows]
        n = sc.config.n
        labels = [r["dist_bucket"] for r in rows]
        schema_ok = labels == list(range(n % 2, n + 1, 2))
        fractions = [r["reversed_fraction"] for r in rows if r["pair_count"]]
        monotone = all(x >= y - 1e-12 for x, y in zip(fractions, fractions[1:]))
        top = next(r for r in rows if r["dist_bucket"] == n)
        top_zero = top["reversed_fraction"] == 0.0
        # buckets whose pairs are all weight-certified must show zero reversals
        outcome = serial_reference(res.records, n, sc.config.f, sc.config.gamma)
        certified = certified_pairs(outcome, res.trace)
        by_bucket: dict[int, list] = {}
        for u, v, dist, rev in dist_pair_table(res.trace, res.pipeline.emitted):
            by_bucket.setdefault(dist, []).append(((u, v), rev))
        certified_zero = True
        for bucket, pairs in by_bucket.items():
            if all(p in certified for p, _ in pairs):
                certified_zero &= not any(rev for _, rev in pairs)
        variant_ok = schema_ok and monotone and top_zero and certified_zero
        all_ok &= variant_ok
        d1 = next((r["reversed_fraction"] for r in rows if r["dist_bucket"] == 1), 0.0)
        details.append(
            f"f_actual={f_actual}: monotone={monotone} dist{n}=0:{top_zero} "
            f"certified-zero={certified_zero} d1={d1:.4f}"
        )
    # produced CSV carries the documented schema
    write_dist_csv(tmp_path / "dist.csv", reports)
    with open(tmp_path / "dist.csv") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        csv_rows = list(reader)
    schema = header == ["f_actual", "dist_bucket", "pair_count", "reversed_fraction"]
    all_ok &= schema and len(csv_rows) == 3 * 11  # 3 variants x buckets 1..21
    details.append(f"csv schema={schema} rows={len(csv_rows)}")
    assert _report("8 adversarial Dist shape", all_ok, "; ".join(details))


def test_criterion_9_weights_phase_dominates_scc():
    weight_means = []
    scc_means = []
    sizes_ok = True
    for seed in range(5):
        rep, res = execute_scenario(build_scenario("profile_bench", seed=seed), serial=True)
        weight_means.append(rep.phase_means_ns["weights_ns"])
        scc_means.append(rep.phase_means_ns["scc_ns"])
        loaded = [e["v"] for e in res.trace.events if e["ev"] == "graph_built" if e["v"]]
        sizes_ok &= bool(loaded) and min(loaded) >= 100
    w, s = fmean(weight_means), fmean(scc_means)
    ok = sizes_ok and w > s
    assert _report(
        "9 weight-phase dominance",
        ok,
        f"5-run mean: weights={w / 1e6:.2f}ms vs phase 3={s / 1e6:.2f}ms "
        f"(x{w / s:.1f}), snapshots >= 100: {sizes_ok}",
    )


def test_criterion_10_pipeline_speedup():
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    result = measure_speedup(build_scenario("speedup_bench"), slots=4, min_snapshot_size=200)
    preconditions = result.eligible_subdags >= 8 and result.digests_equal
    ok = preconditions and result.speedup >= 1.5
    assert _report(
        "10 pipeline speedup",
        ok,
        f"serial={result.serial_wall_s:.2f}s concurrent={result.concurrent_wall_s:.2f}s "
        f"speedup={result.speedup:.2f} (need >= 1.5), identical digest={result.digests_equal}, "
        f"eligible subdags={result.eligible_subdags}, host cores={cores}",
    )

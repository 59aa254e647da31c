"""Shows that the output checks catch corrupted outputs.

    python3 perfbench/selftest.py

Runs a small reversing_n21 scenario, confirms that its real outputs pass
every check, then feeds the checks four corruptions of the emitted orders (a
dropped transaction, a duplicate, two batches swapped across a pair all n
replicas reported in one order, a gap in a batch range) and requires the
named check to fail on each. The corruption is applied to the in-loop,
serial and concurrent orders alike, so the mode-agreement check cannot be
what catches it. Exits 0 only when every case behaves.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from batchfair.harness import execute_scenario  # noqa: E402
from batchfair.pipeline import FairnessPipeline  # noqa: E402
from batchfair.types import FinalOrder  # noqa: E402

from checks import RoundOutput, before_counts, check_round, streams  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402


def relayout(order: FinalOrder, batches: list[list[str]]) -> FinalOrder:
    digests, ranges = [], []
    for batch in batches:
        ranges.append((len(digests), len(digests) + len(batch)))
        digests.extend(batch)
    return replace(order, digests=tuple(digests), batches=tuple(ranges))


def batches_of(order: FinalOrder) -> list[list[str]]:
    return [list(order.digests[s:e]) for s, e in order.batches]


def drop_one(out: RoundOutput) -> list:
    orders = list(out.inloop)
    k = max(range(len(orders)), key=lambda i: len(orders[i].digests))
    batches = batches_of(orders[k])
    batches[-1].pop()
    orders[k] = relayout(orders[k], [b for b in batches if b])
    return orders


def duplicate_one(out: RoundOutput) -> list:
    orders = list(out.inloop)
    first = next(o for o in orders if o.digests)
    orders[-1] = relayout(orders[-1], batches_of(orders[-1]) + [[first.digests[0]]])
    return orders


def swap_unanimous(out: RoundOutput) -> list:
    """Swap two batches of one order that hold a pair all n replicas
    reported with the earlier batch's transaction first."""
    reported = streams(out.events, out.n, "vertex_created")
    orders = list(out.inloop)
    for k, order in enumerate(orders):
        batches = batches_of(order)
        if len(batches) < 2:
            continue
        txs = list(order.digests)
        counts = before_counts(reported, txs)
        where = {d: i for i, d in enumerate(txs)}
        for i in range(len(batches)):
            for j in range(i + 1, len(batches)):
                if any(counts[where[u], where[v]] >= out.n
                       for u in batches[i] for v in batches[j]):
                    batches[i], batches[j] = batches[j], batches[i]
                    orders[k] = relayout(order, batches)
                    return orders
    raise RuntimeError("no order holds two batches across a unanimous pair")


def gap_in_range(out: RoundOutput) -> list:
    orders = list(out.inloop)
    k = next(i for i, o in enumerate(orders) if len(o.batches) >= 2)
    ranges = list(orders[k].batches)
    s1, e1 = ranges[1]
    ranges[1] = (s1 + 1, e1) if e1 - s1 > 1 else (s1 + 1, e1 + 1)
    orders[k] = replace(orders[k], batches=tuple(ranges))
    return orders


CASES = (
    ("dropped transaction", drop_one, "exactly_once"),
    ("duplicate transaction", duplicate_one, "exactly_once"),
    ("batches swapped across a unanimous pair", swap_unanimous, "unanimous"),
    ("gap in a batch range", gap_in_range, "batches"),
)


def main() -> int:
    workload = WORKLOADS["reversing_n21"]
    scenario, variant = build(workload, seed=0, txs=210)
    report, res = execute_scenario(scenario, serial=True, variant=variant)
    cfg = scenario.config
    serial = FairnessPipeline(cfg.n, cfg.f, cfg.gamma).replay(res.records).emitted
    out = RoundOutput(
        n=cfg.n, gamma=cfg.gamma, injected=res.injected, events=res.trace.events,
        faulty={d.replica for d in scenario.faults.directives}, subdags=len(res.records),
        inloop=res.pipeline.emitted, serial=serial, concurrent=serial,
        verdicts=report.verdicts,
        dist_pair_counts=[row["pair_count"] for row in report.dist_rows],
    )
    ok = True
    clean = check_round(out)
    print(f"{'PASS' if not clean else 'FAIL'} real outputs pass every check {clean}")
    ok &= not clean
    for label, corrupt, expected in CASES:
        orders = corrupt(out)
        problems = check_round(replace(out, inloop=orders, serial=orders, concurrent=orders))
        caught = any(p.startswith(expected + ":") for p in problems)
        print(f"{'PASS' if caught else 'FAIL'} {label}: {expected} fails -> {problems}")
        ok &= caught
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

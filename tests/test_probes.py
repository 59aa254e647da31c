"""The benchmark's probes still fit the program.

perfbench/probes.py wraps functions by dotted name and reads what some of
them return. A renamed function, or a count hook that no longer finds what
it reads, would otherwise show only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

from batchfair import harness
from batchfair.scenarios import build_scenario, sweep_scenario

PROBES = Path(__file__).resolve().parent.parent / "perfbench" / "probes.py"


def load_probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probes_resolve_and_count_in_loop_phase1(pool):
    probes = load_probes()
    for path in (*probes.SPANNED, *probes.HOT, *probes.COUNTED, *probes.STAGES):
        importlib.import_module(f"batchfair.{path.split('.')[0]}")
        owner, attr, is_method = probes._resolve(path)
        target = owner.__dict__.get(attr) if is_method else getattr(owner, attr, None)
        assert callable(target), path
    tracer = probes.Tracer()
    timer = probes.StageTimer(probes.RefClock())
    # concurrent mode: the replay's phase 1 runs in the pool's workers, so
    # only the in-loop phase 1 passes through the probes
    with tracer.installed(), timer.installed():
        report, res = harness.execute_scenario(
            build_scenario("condorcet_minimal"), serial=False, slots=2, pool=pool
        )
    assert all(report.verdicts.values())
    built = [e["v"] for e in res.trace.events if e["ev"] == "graph_built"]
    assert any(built)
    assert tracer.counters["graph.weight_cells"] == sum(v * v for v in built)
    assert tracer.counters["graph.admitted_txs"] == sum(built)
    assert tracer.kept.emitted == timer.kept.emitted == res.pipeline.emitted


def test_probes_count_missing_pairs_and_resolved_tallies(pool):
    # this sweep run parks and resolves subdags, which condorcet_minimal never does
    probes = load_probes()
    tracer = probes.Tracer()
    with tracer.installed():
        report, res = harness.execute_scenario(
            sweep_scenario(5, 1, "1", 1, txs=40), serial=False, slots=2, pool=pool
        )
    assert all(report.verdicts.values())
    parked = [e for e in res.trace.events if e["ev"] == "graph_parked"]
    assert parked and not res.pipeline.parked_left
    # the in-loop pipeline and the replay each build and resolve every graph
    assert tracer.counters["graph.missing_pairs"] == 2 * sum(len(e["pairs"]) for e in parked)
    assert tracer.counters["finalize.tallies_resolved"] == 2 * len(parked)

import csv
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from batchfair.adversaries import SPIKE_SCOPES, STRATEGIES
from batchfair.cli import main as cli_main
from batchfair.harness import (
    execute_scenario,
    load_scenario_file,
    phase_profile,
    run_scenario,
    sweep,
)
from batchfair.params import ConfigError
from batchfair.pipeline import FairnessPipeline
from batchfair.scenarios import build_scenario, scenario_names
from batchfair.trace import RunTrace


def test_run_scenario_writes_artifacts(tmp_path):
    reports = run_scenario("condorcet_minimal", serial=True, outdir=tmp_path)
    assert len(reports) == 1 and reports[0].ok
    assert (tmp_path / "trace.jsonl").exists()
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "metrics.csv").exists()
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc[0]["verdicts"]["batch_order_fairness"] is True
    with open(tmp_path / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["scenario"] == "condorcet_minimal"
    assert rows[0]["stragglers"] == "0"


def test_metrics_csv_verdict_columns_are_the_report_verdicts(tmp_path):
    reports = run_scenario("condorcet_minimal", serial=True, outdir=tmp_path, trace_on=False)
    with open(tmp_path / "metrics.csv") as fh:
        header, row = list(csv.reader(fh))
    first = header.index("latency_p95") + 1
    assert header[first:-1] == list(reports[0].verdicts)
    assert row[first:-1] == [str(v).lower() for v in reports[0].verdicts.values()]


def test_trace_jsonl_round_trip(tmp_path):
    reports = run_scenario("condorcet_minimal", serial=True, outdir=tmp_path)
    trace = RunTrace.read_jsonl(tmp_path / "trace.jsonl")
    assert trace.meta["scenario"] == "condorcet_minimal"
    kinds = {e["ev"] for e in trace.events}
    assert {"tx_received", "vertex_created", "certificate_formed",
            "subdag_committed", "order_emitted", "graph_built"} <= kinds


def test_replay_fidelity_same_seed_same_report_hash():
    sc = build_scenario("condorcet_minimal")
    rep1, _ = execute_scenario(sc, serial=True)
    rep2, _ = execute_scenario(build_scenario("condorcet_minimal"), serial=True)
    assert rep1.report_hash() == rep2.report_hash()


def test_serial_flag_changes_mode_not_digest():
    a, _ = execute_scenario(build_scenario("wire_binary"), serial=True)
    b, _ = execute_scenario(build_scenario("wire_binary"), serial=False, slots=2)
    assert a.mode == "serial" and b.mode == "concurrent"
    assert a.emitted_digest == b.emitted_digest


def test_json_config_round_trip(tmp_path):
    doc = {
        "name": "custom",
        "n": 5, "f": 1, "gamma": "1", "seed": 12, "max_rounds": 14,
        "delivery_model": "uniform",
        "faults": [{"replica": 2, "strategy": "silent_crash", "round": 5}],
        "clients": {"kind": "uniform", "txs": 30, "start_round": 1, "end_round": 8,
                     "skew_p": 0.1},
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(doc))
    scenario = load_scenario_file(path)
    assert scenario.name == "custom" and scenario.faults.f_actual == 1
    reports = run_scenario(load_scenario_file(path), serial=True, outdir=tmp_path / "out")
    assert reports[0].ok
    # the CLI reads --config as a document whatever the file's suffix
    cfg = tmp_path / "custom.cfg"
    cfg.write_text(path.read_text())
    assert cli_main(["run", "--config", str(cfg), "--serial", "--out", str(tmp_path / "cfg")]) == 0
    again = json.loads((tmp_path / "cfg" / "report.json").read_text())[0]
    assert again["emitted_digest"] == reports[0].emitted_digest
    with pytest.raises(ValueError, match="seed builds a shipped scenario"):
        run_scenario(load_scenario_file(path), seed=9)


def test_bad_config_names_offending_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 5, "f": 1, "gamma": "1", "wavelength": 2}))
    with pytest.raises(Exception) as exc:
        load_scenario_file(path)
    assert "wavelength" in str(exc.value)


BASE_DOC = {"n": 5, "f": 1, "gamma": "1", "seed": 3, "max_rounds": 12}


def load_doc(tmp_path, **keys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**BASE_DOC, **keys}))
    return load_scenario_file(path)


def test_explicit_client_items_load(tmp_path):
    items = [["tx-a", 0, 1, 0], ["tx-b", 1, 2, 1]]
    scenario = load_doc(tmp_path, clients={"kind": "items", "items": items})
    assert scenario.name == "doc"  # the file's stem, not a field of the items
    assert [(c.body, c.replica, c.round, c.seq) for c in scenario.clients.directives] == [
        ("tx-a", 0, 1, 0), ("tx-b", 1, 2, 1)
    ]


def test_non_object_document_is_config_error(tmp_path):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([BASE_DOC]))
    with pytest.raises(ConfigError, match="one JSON object"):
        load_scenario_file(path)


def test_unknown_client_kind_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="clients.kind: unknown kind 'poisson'"):
        load_doc(tmp_path, clients={"kind": "poisson", "txs": 10})


def test_fault_without_strategy_is_config_error(tmp_path):
    faults = [{"replica": 1, "strategy": "silent_crash", "round": 3}, {"replica": 2, "round": 4}]
    with pytest.raises(ConfigError, match=r"faults\[1\]: missing keys \['strategy'\]"):
        load_doc(tmp_path, faults=faults)


@pytest.mark.parametrize("spike,field", [
    ({"replica": 99, "round": 4, "extra": 30, "scope": "outbound"}, "scope"),
    ({"replica": 1, "round": 4, "extra": -50, "scope": "inbound"}, "extra"),
    ({"replica": 1, "round": -1, "extra": 30}, "round"),
    ({"replica": 5, "round": 4, "extra": 30}, "replica"),
    ({"replica": -1, "round": 4, "extra": 30}, "replica"),
    ({"replica": 1, "round": 4, "extra": "30"}, "extra"),
])
def test_malformed_delay_spike_is_config_error(tmp_path, spike, field):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**BASE_DOC, "spikes": [spike]}))
    with pytest.raises(ConfigError, match=f"delay spike {field}"):
        run_scenario(load_scenario_file(path), serial=True, outdir=tmp_path / "out")


def test_unknown_fault_strategy_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="unknown fault strategy 'lagging'"):
        load_doc(tmp_path, faults=[{"replica": 1, "strategy": "lagging", "round": 3}])


def test_three_field_client_item_is_config_error(tmp_path):
    items = [["tx-a", 0, 1, 0], ["tx-b", 1, 2]]
    with pytest.raises(ConfigError, match=r"clients.items\[1\]: expected \[body, replica, round, seq\]"):
        load_doc(tmp_path, clients={"kind": "items", "items": items})


@pytest.mark.parametrize("item,field", [
    ([1, 0, 1, 0], "body"),
    (["x", 0, "1", 0], "round"),
    (["x", -1, 1, 0], "replica"),
    (["x", True, 1, 0], "replica"),
    (["x", 0, 1, 0.0], "seq"),
])
def test_malformed_client_item_is_config_error(tmp_path, item, field):
    items = [["tx-a", 0, 1, 0], item]
    with pytest.raises(ConfigError, match=rf"clients.items\[1\].{field} must be"):
        load_doc(tmp_path, clients={"kind": "items", "items": items})


@pytest.mark.parametrize("doc,match", [
    ({"faults": [{"replica": 99, "strategy": "silent_crash", "round": 3}]},
     r"fault replica 99 outside \[0, 5\)"),
    ({"faults": [{"replica": 99, "strategy": "reverse_local_order", "round": 0}]},
     r"fault replica 99 outside \[0, 5\)"),
    ({"faults": [{"replica": 1, "strategy": "silent_crash", "round": -4}]},
     "fault directive round must be an integer >= 0"),
    ({"faults": [{"replica": "1", "strategy": "silent_crash", "round": 3}]},
     "fault directive replica must be an integer >= 0"),
    ({"clients": {"kind": "items", "items": [["tx-a", 0, 1, 0], ["x", 99, 1, 0]]}},
     r"client replica 99 outside \[0, 5\)"),
], ids=["crash-replica", "reverser-replica", "negative-round", "string-replica", "client-replica"])
def test_malformed_directive_run_is_config_error(tmp_path, doc, match):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**BASE_DOC, **doc}))
    with pytest.raises(ConfigError, match=match):
        run_scenario(load_scenario_file(path), serial=True, outdir=tmp_path / "out")


@pytest.mark.parametrize("doc,match", [
    ({"clients": {"txs": "10"}}, "clients.txs must be an integer >= 0, got '10'"),
    ({"clients": {"txs": 2.5}}, "clients.txs must be an integer >= 0, got 2.5"),
    ({"clients": {"txs": -5}}, "clients.txs must be an integer >= 0, got -5"),
    ({"clients": {"txs": 10, "start_round": "1"}}, "clients.start_round must be an integer"),
    ({"clients": {"txs": 10, "start_round": 5, "end_round": 2}},
     "clients.start_round 5 is past clients.end_round 2"),
    ({"clients": {"txs": 10, "start_round": 5, "end_round": 4}},
     "^clients.start_round 5 is past clients.end_round 4$"),
    ({"clients": {"txs": 10, "start_round": 5}},
     r"^clients.start_round 5 is past the default clients.end_round 4, "
     r"which is max\(2, max_rounds - 8\) with max_rounds 12$"),
    ({"clients": {"txs": 10, "skew_p": "x"}}, r"clients.skew_p must be a number in \[0, 1\]"),
    ({"clients": {"txs": 10, "skew_p": 7}}, r"clients.skew_p must be a number in \[0, 1\], got 7"),
    ({"clients": {"txs": 10, "skew_p": True}}, r"clients.skew_p must be a number"),
    ({"clients": {"kind": "items", "items": 5}}, "clients.items must be a list, got 5"),
    ({"faults": 5}, "faults must be a list, got 5"),
    ({"faults": None}, "faults must be a list, got None"),
    ({"spikes": 7}, "spikes must be a list, got 7"),
    ({"name": 5}, "name must be a string, got 5"),
], ids=["txs-str", "txs-float", "txs-negative", "start-str", "start-past-end",
        "start-past-set-end", "start-past-default-end", "skew-str", "skew-7", "skew-bool", "items-int", "faults-int", "faults-null", "spikes-int", "name-int"])
def test_malformed_scenario_section_is_config_error(tmp_path, doc, match):
    with pytest.raises(ConfigError, match=match):
        load_doc(tmp_path, **doc)


def test_missing_replica_count_is_config_error(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"f": 1, "max_rounds": 12}))
    with pytest.raises(ConfigError, match=r"missing config keys: \['n'\]"):
        load_scenario_file(path)


def test_json_batch_wire_is_config_error(tmp_path):
    assert load_doc(tmp_path, batch_wire="binary").config.batch_wire == "binary"
    with pytest.raises(ConfigError, match="unknown batch wire format 'json'"):
        load_doc(tmp_path, batch_wire="json")


@pytest.mark.parametrize("key, value", [
    ("gamma", "1/0"),
    ("gamma", "abc"),
    ("n", "5"),
    ("n", True),
    ("f", 1.0),
    ("delay_max", None),
    ("max_rounds", "x"),
    ("max_rounds", 0),
    ("seed", 1.5),
    ("self_reference", "no"),
    ("delivery_model", None),
])
def test_malformed_config_field_is_config_error(tmp_path, key, value):
    with pytest.raises(ConfigError, match=key):
        load_doc(tmp_path, **{key: value})


# -- generated scenario files: every document fails loudly or runs ---------------------

# (n, f, gamma) cells that pass check_thresholds; a large n would pass too,
# so none is ever drawn
CELLS = [(1, 0, "1"), (4, 0, "1"), (5, 1, "1"), (5, 0, "4/5"), (7, 1, "4/5"), (9, 2, "1")]
# integers stay small, so a junk n or max_rounds never makes a large run
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 9), st.floats(-2, 12), st.just(float("nan")),
    st.text("0123456789x/.", max_size=3), st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from(["replica", "round", "txs"]), st.integers(0, 3), max_size=2),
)


@st.composite
def scenario_docs(draw):
    """A scenario document from the schema load_scenario_file reads, with up
    to two mutations: a value of the wrong type or range, a dropped key, or
    an unknown key, at the top level or inside faults, spikes and clients."""
    n, f, gamma = draw(st.sampled_from(CELLS))
    rounds = draw(st.integers(1, 16))
    doc = {"n": n, "f": f, "gamma": gamma, "max_rounds": rounds}
    optional = {
        "name": st.text(max_size=4), "seed": st.integers(0, 50), "wave_len": st.integers(2, 4),
        "delivery_model": st.sampled_from(["uniform", "lockstep"]),
        "delay_min": st.integers(0, 2), "delay_max": st.integers(2, 8),
        "self_reference": st.booleans(), "batch_wire": st.sampled_from(["", "binary"]),
        "task_slots": st.integers(1, 4),
        "faults": st.lists(st.fixed_dictionaries({
            "replica": st.integers(0, n - 1), "strategy": st.sampled_from(STRATEGIES),
            "round": st.integers(0, rounds + 1)}), max_size=f, unique_by=lambda d: d["replica"]),
        "spikes": st.lists(st.fixed_dictionaries(
            {"replica": st.integers(0, n - 1), "round": st.integers(0, rounds),
             "extra": st.integers(0, 30)},
            optional={"scope": st.sampled_from(SPIKE_SCOPES)}), max_size=2),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            doc[key] = draw(values)
    if draw(st.booleans()):
        start = draw(st.integers(0, rounds))
        doc["clients"] = draw(st.fixed_dictionaries({"txs": st.integers(1, 40)}, optional={
            "kind": st.just("uniform"), "start_round": st.just(start),
            "end_round": st.integers(start, rounds), "skew_p": st.floats(0, 1)}))
    else:
        # (body, replica, round), sent in round order so rounds never fall per replica
        sends = draw(st.lists(st.tuples(
            st.integers(0, 20), st.integers(0, n - 1), st.integers(0, rounds)), max_size=12))
        doc["clients"] = {"kind": "items", "items": [
            [f"tx-{b}", replica, rd, seq]
            for seq, (b, replica, rd) in enumerate(sorted(sends, key=lambda s: s[2]))]}
    for _ in range(draw(st.integers(0, 2))):
        # (container, key) of every value in the document; max_rounds stays,
        # since its default of 40 rounds is no small run
        slots = [(doc, k) for k in doc]
        for key in ("faults", "spikes"):
            if isinstance(doc.get(key), list):
                slots += [(d, k) for d in doc[key] if isinstance(d, dict) for k in d]
        clients = doc.get("clients")
        if isinstance(clients, dict):
            slots += [(clients, k) for k in clients]
            if isinstance(clients.get("items"), list):
                slots += [(it, i) for it in clients["items"] if isinstance(it, list)
                          for i in range(len(it))]
        container, key = draw(st.sampled_from(slots))
        op = draw(st.sampled_from(["junk", "drop", "extra"]))
        if op == "junk":
            container[key] = draw(JUNK)
        elif isinstance(container, dict) and op == "drop" and key != "max_rounds":
            del container[key]
        elif isinstance(container, dict):
            container["bogus"] = draw(JUNK)
    return doc


@settings(max_examples=120, deadline=None, derandomize=True)
@given(doc=scenario_docs())
def test_generated_scenario_files_fail_loudly_or_run(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "generated.json"
    path.write_text(json.dumps(doc))
    try:
        scenario = load_scenario_file(path)
        report, res = execute_scenario(scenario, serial=True)
    except ConfigError:
        return
    assert len(report.verdicts) == 5
    assert all(isinstance(v, bool) for v in report.verdicts.values())
    assert all(e["t"] >= 0 for e in res.trace.events)
    assert all(0 <= d.replica < scenario.config.n for d in scenario.faults.directives)


def test_sweep_marks_infeasible_cells_skipped(tmp_path):
    out = tmp_path / "sweep.csv"
    rows = sweep({"n": [5, 4], "f": [1], "gamma": ["1"], "txs": [20]}, [1], out)
    by_n = {row["n"]: row for row in rows}
    assert by_n[5]["status"] == "ok"
    assert by_n[4]["status"] == "skipped" and by_n[4]["reason"]
    with open(out) as fh:
        csv_rows = list(csv.DictReader(fh))
    assert {r["status"] for r in csv_rows} == {"ok", "skipped"}


def test_sweep_raises_a_pipeline_defect(monkeypatch):
    # a pipeline invariant raises ValueError; only a ConfigError marks a cell skipped
    from batchfair import pipeline

    def broken(*args, **kwargs):
        raise ValueError("snapshot out of commit order")

    monkeypatch.setattr(pipeline, "phase2_build_graph", broken)
    with pytest.raises(ValueError, match="out of commit order"):
        sweep({"n": [5], "f": [1], "gamma": ["1"], "txs": [20]}, [1])


def test_sweep_empty_grid_empty_csv(tmp_path):
    out = tmp_path / "empty.csv"
    rows = sweep({"n": [], "f": [], "gamma": [], "txs": []}, [1], out)
    assert rows == []
    with open(out) as fh:
        assert len(list(csv.DictReader(fh))) == 0


def test_phase_profile_from_trace(tmp_path):
    run_scenario("condorcet_minimal", serial=True, outdir=tmp_path)
    stats = phase_profile(RunTrace.read_jsonl(tmp_path / "trace.jsonl"))
    assert set(stats) == {"extract_ns", "weights_ns", "build_ns", "scc_ns", "result_ns"}
    for row in stats.values():
        assert list(row) == ["mean", "p50", "p95", "max"]
        assert 0 <= row["p50"] <= row["p95"] <= row["max"] and 0 <= row["mean"] <= row["max"]


def test_phase_profile_quantiles():
    # 20 subdags whose weights took 1..20 ns, listed out of order
    phases = ("extract_ns", "weights_ns", "build_ns", "scc_ns", "result_ns")
    events = [{"ev": "graph_profile", "r": r, **dict.fromkeys(phases, 0), "weights_ns": ns}
              for r, ns in enumerate([*range(20, 10, -1), *range(1, 11)], 1)]
    events.append({"ev": "vertex_created"})
    stats = phase_profile(RunTrace(meta={}, events=events))
    assert stats["weights_ns"] == {"mean": 10.5, "p50": 10, "p95": 19, "max": 20}
    assert stats["scc_ns"] == {"mean": 0, "p50": 0, "p95": 0, "max": 0}


def test_phase_profile_empty_trace():
    assert phase_profile(RunTrace(meta={}, events=[])) == {}


def test_scenario_names_cover_shipped_set():
    names = scenario_names()
    for required in ("fairdag_b1", "dod_b2", "reversing_fig8", "crash_n13",
                     "condorcet_minimal"):
        assert required in names


def test_unknown_scenario_raises():
    with pytest.raises(KeyError):
        build_scenario("definitely_not_shipped")


# -- CLI ---------------------------------------------------------------------------------


def test_cli_run_exit_zero_and_prints_verdicts(tmp_path, capsys):
    code = cli_main(["run", "--scenario", "condorcet_minimal", "--serial",
                     "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "batch_order_fairness" in out and "FAIL" not in out


@pytest.mark.parametrize("threads,expected", [([], 2), (["--threads", "3"], 3)])
def test_cli_run_takes_task_slots_from_config_unless_threads_given(
    tmp_path, monkeypatch, threads, expected
):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**BASE_DOC, "task_slots": 2}))
    seen = []

    def spy(self, records, slots=4, pool=None):
        seen.append(slots)
        return self.replay(records)

    monkeypatch.setattr(FairnessPipeline, "replay_concurrent", spy)
    assert cli_main(["run", "--config", str(path), *threads]) == 0
    assert seen == [expected]


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_cli_run_rejects_threads_below_one(threads, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli_main(["run", "--scenario", "condorcet_minimal", "--threads", threads])
    assert exit_.value.code == 2
    assert f"--threads must be at least 1, got {threads}" in capsys.readouterr().err


def test_cli_scenarios_lists(capsys):
    assert cli_main(["scenarios"]) == 0
    out = capsys.readouterr().out
    assert "dod_b2" in out


def test_cli_profile(tmp_path, capsys):
    cli_main(["run", "--scenario", "condorcet_minimal", "--serial",
              "--out", str(tmp_path)])
    capsys.readouterr()
    assert cli_main(["profile", str(tmp_path / "trace.jsonl")]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["phase", "mean", "ms", "p50", "ms", "p95", "ms", "max", "ms"]
    assert [row.split()[0] for row in rows] == [
        "extract_ns", "weights_ns", "build_ns", "scc_ns", "result_ns"]
    assert all(len(row.split()) == 5 for row in rows)


def test_cli_check_reruns_the_verdicts_of_a_stored_trace(tmp_path, capsys):
    assert cli_main(["run", "--scenario", "wire_binary", "--out", str(tmp_path)]) == 0
    digest = json.loads((tmp_path / "report.json").read_text())[0]["emitted_digest"]
    capsys.readouterr()
    assert cli_main(["check", str(tmp_path / "trace.jsonl")]) == 0
    out = capsys.readouterr().out
    assert f"digest={digest}" in out and "FAIL" not in out
    # a trace that lost its last emitted order no longer matches its commit stream
    lines = (tmp_path / "trace.jsonl").read_text().splitlines(keepends=True)
    last = max(i for i, line in enumerate(lines) if json.loads(line)["ev"] == "order_emitted")
    (tmp_path / "cut.jsonl").write_text("".join(lines[:last] + lines[last + 1:]))
    assert cli_main(["check", str(tmp_path / "cut.jsonl")]) == 1
    assert "serial_equivalence       FAIL" in capsys.readouterr().out


@pytest.mark.parametrize(
    "case",
    ["unknown-scenario", "infeasible-config", "config-not-json", "config-missing",
     "config-any-suffix", "scenario-and-config", "seed-with-config", "check-not-a-trace", "check-line-cut", "check-no-meta", "check-missing",
     "profile-not-a-trace"],
)
def test_cli_input_errors_exit_2_with_one_error_line(tmp_path, capsys, case):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"n": 5, "f": 2}))
    (tmp_path / "doc.cfg").write_text(doc.read_text())
    (tmp_path / "broken.json").write_text('{"n": 5, "f": ')
    meta = json.dumps({"ev": "meta", "config": {"n": 4}})
    (tmp_path / "cut.jsonl").write_text(meta + '\n{"ev": "tx_rec')
    (tmp_path / "bare.jsonl").write_text('{"ev": "tx_received"}\n')
    argv, message = {
        "unknown-scenario": (["run", "--scenario", "nope"], "invalid choice: 'nope'"),
        "infeasible-config": (["run", "--config", str(doc)], "n=5, f=2, gamma=1 violates"),
        "config-not-json": (["run", "--config", str(tmp_path / "broken.json")],
                            "broken.json is not a JSON document"),
        "config-missing": (["run", "--config", str(tmp_path / "none.json")],
                           "No such file or directory"),
        # read as a document whatever its suffix, not looked up as a scenario name
        "config-any-suffix": (["run", "--config", str(tmp_path / "doc.cfg")],
                              "n=5, f=2, gamma=1 violates"),
        "scenario-and-config": (["run", "--scenario", "condorcet_minimal", "--config", str(doc)],
                                "argument --config: not allowed with argument --scenario"),
        "seed-with-config": (["run", "--config", str(doc), "--seed", "9"],
                             "--seed applies to --scenario"),
        "check-not-a-trace": (["check", str(doc)], f'{doc}:1: not a trace event (no "ev" key)'),
        "check-line-cut": (["check", str(tmp_path / "cut.jsonl")], "cut.jsonl:2: not JSON"),
        "check-no-meta": (["check", str(tmp_path / "bare.jsonl")],
                          "bare.jsonl: no meta line carrying the run's config"),
        "check-missing": (["check", str(tmp_path / "none.jsonl")], "No such file or directory"),
        "profile-not-a-trace": (["profile", str(doc)], f"{doc}:1: not a trace event"),
    }[case]
    with pytest.raises(SystemExit) as exit_:
        cli_main(argv)
    assert exit_.value.code == 2  # 1 is left to a failed verdict
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == err.splitlines()[-1:] and message in errors[0]


def test_cli_run_baseline_scenario_reports_model(capsys):
    code = cli_main(["run", "--scenario", "dod_b2", "--serial"])
    out = capsys.readouterr().out
    assert code == 0
    assert "model[buggy]" in out and "model[patched]" in out


def test_cli_run_exit_nonzero_on_failed_verdict(capsys):
    # the self-reference ablation deliberately fails the LOI checker
    code = cli_main(["run", "--scenario", "ablation_no_selfref", "--serial"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_sweep_gamma_grid_paired_with_network_sizes(tmp_path):
    # the gamma grid {1.0, 0.9, 0.8, 0.7} paired with the minimal network
    # sizes at f=1 yields one row per cell; the gamma=0.8 n=7 cell is so
    # tight that the ceiled quorum equals n, so a seed that schedules an
    # actual crash is marked skipped with the reason rather than dropped
    rows = []
    for gamma, n in (("1", 5), ("0.9", 6), ("0.8", 7), ("0.7", 11)):
        out = sweep({"n": [n], "f": [1], "gamma": [gamma], "txs": [40]}, [1])
        assert len(out) == 1
        rows.append(out[0])
    assert len(rows) == 4
    for row in rows:
        if row["status"] == "skipped":
            assert "unreachable" in row["reason"]
        else:
            assert row["all_verdicts_pass"]
    assert sum(1 for r in rows if r["status"] == "ok") >= 3


def test_sweep_average_matches_mean_of_single_runs():
    from statistics import fmean

    from batchfair.scenarios import sweep_scenario

    seeds = [1, 2, 3, 4, 5]
    rows = sweep({"n": [5], "f": [1], "gamma": ["1"], "txs": [40]}, seeds)
    singles = []
    for seed in seeds:
        rep, _ = execute_scenario(
            sweep_scenario(5, 1, "1", seed, txs=40), serial=True
        )
        singles.append(rep.throughput_tx_per_s)
    assert rows[0]["throughput_tx_per_s"] == pytest.approx(fmean(singles))


def test_fairdag_b1_report_carries_model_stall():
    reports = run_scenario("fairdag_b1", serial=True)
    model = reports[0].model_results
    assert model["unpatched"]["stalled"] is True
    assert model["patched"]["stalled"] is False


def test_report_reproducible_from_trace_alone(tmp_path):
    from batchfair.harness import report_from_trace

    reports = run_scenario("wire_binary", serial=True, outdir=tmp_path)
    trace = RunTrace.read_jsonl(tmp_path / "trace.jsonl")
    rebuilt = report_from_trace(trace)
    assert rebuilt["emitted_digest"] == reports[0].emitted_digest
    assert rebuilt["verdicts"] == reports[0].verdicts

import random
from fractions import Fraction

from batchfair.baselines import DodModel, FairDagModel
from batchfair.scenarios import build_scenario


B1 = build_scenario("fairdag_b1").model
B2 = build_scenario("dod_b2").model


# -- indicator-vector weight layer (starvation bug) -----------------------------------


def test_unpatched_weights_frozen_at_one_after_second_subdag():
    model = FairDagModel(B1["n"], B1["f"], patched=False)
    for contributions in B1["subdags"]:
        model.process_subdag(contributions)
    assert model.weight("a", "b") == 1
    assert model.weight("b", "a") == 1
    assert model.stalled


def test_unpatched_never_tournament_within_1000_rounds():
    model = FairDagModel(B1["n"], B1["f"], patched=False)
    for contributions in B1["subdags"]:
        model.process_subdag(contributions)
    model.run_heartbeats(1000 - model.subdags_processed)
    assert model.subdags_processed == 1000
    assert model.stalled  # the pair graph never became a tournament


def test_patched_catch_up_reaches_two_and_finalizes():
    model = FairDagModel(B1["n"], B1["f"], patched=True)
    for contributions in B1["subdags"]:
        model.process_subdag(contributions)
    assert model.weight("a", "b") == 2  # the earlier indicator now counts
    assert model.weight("b", "a") == 1
    assert not model.stalled
    orders = [order for _, _, order in model.finalizations]
    assert ["a", "b"] in orders


def test_thresholds_match_setting():
    model = FairDagModel(4, 1, patched=False)
    assert model.shaded_threshold == 2  # ceil((N-f)/2)
    assert model.solid_threshold == 3  # N-f
    # a float gamma is read exactly, as SimConfig reads it: 0.7 is 7/10
    for gamma in (0.7, "7/10", Fraction(7, 10)):
        dod = DodModel(10, 1, gamma, patched=False)
        assert (dod.edge_threshold, dod.solid_threshold) == (5, 8)  # ceil(10 * 3/10 + 2), N-2f


def test_symmetric_workload_patched_and_unpatched_agree():
    rng = random.Random(5)
    for trial in range(10):
        n, f = 4, 1
        txs = [f"s{trial}t{i}" for i in range(6)]
        subdags = []
        for _ in range(3):
            contribution = {}
            for rep in range(1, n):  # replica n crashed, mirroring the setting
                order = txs[:]
                rng.shuffle(order)
                contribution[rep] = [(t, i + 1) for i, t in enumerate(order)]
            subdags.append(contribution)
        results = []
        for patched in (False, True):
            model = FairDagModel(n, f, patched)
            for sd in subdags:
                model.process_subdag(sd)
            results.append([order for _, _, order in model.finalizations])
        assert results[0] == results[1]  # no asymmetry, identical orders
        assert results[0], "symmetric workload must finalize"


# -- missing-edge weight store (round-split stall) --------------------------------------


def test_buggy_mode_freezes_pair_and_stalls_queue():
    model = DodModel(B2["n"], B2["f"], B2["gamma"], patched=False)
    report = model.run(B2["rounds"])
    pair = report.missing[("a", "b")]
    assert pair.w[("a", "b")] == 1 and pair.w[("b", "a")] == 1
    assert model.edge_threshold == 2
    assert report.stalled and report.executed == []
    assert report.queue[0] == 2  # stalls on the first graph containing the pair
    assert report.mechanism1_fired == 0 and report.mechanism2_fired == 0


def test_patched_mode_resolves_and_drains_queue():
    model = DodModel(B2["n"], B2["f"], B2["gamma"], patched=True)
    report = model.run(B2["rounds"])
    assert not report.stalled and report.queue == []
    assert report.executed  # every graph executed
    assert report.resolutions and report.resolutions[0]["pair"] == ["a", "b"]


def test_same_round_everywhere_no_missing_pair_modes_identical():
    rounds = {1: {r: ["a", "b"] for r in range(1, 5)}}
    buggy = DodModel(5, 1, 1, patched=False).run(rounds)
    patched = DodModel(5, 1, 1, patched=True).run(rounds)
    for report in (buggy, patched):
        assert not report.missing and not report.stalled
        assert report.executed == [1]


def test_shipped_scenarios_carry_exact_parameterizations():
    fb = build_scenario("fairdag_b1")
    assert fb.model["n"] == 4 and fb.model["f"] == 1
    assert fb.faults.crash_rounds() == {4: 0}  # adapted protocol run crashes one
    dd = build_scenario("dod_b2")
    assert dd.model["n"] == 5 and dd.model["f"] == 1 and dd.model["gamma"] == "1"
    fig8 = build_scenario("reversing_fig8")
    assert fig8.config.n == 21 and fig8.config.f == 5
    assert [v["f_actual"] for v in fig8.variants] == [0, 2, 5]

"""Golden digests: the emitted-order digest, report hash and trace digest of
every shipped scenario variant, in serial and in concurrent replay mode. The
report hash leaves the mode out, so both modes share one expected triple.

A change that moves any of them changes what the protocol emits, what the
oracle reports or what the simulation records. Such a change must say why,
and update the values here.
"""

import hashlib
import json

import pytest

from batchfair.dagsim import Simulator
from batchfair.harness import execute_scenario
from batchfair.scenarios import build_scenario
from batchfair.trace import RunTrace

# (scenario, variant) -> (emitted_digest, report_hash, trace_digest)
GOLDEN = {
    ("ablation_no_selfref", ()): (
        "8682096a025cd832b6de8a1300d535609bd27075a21dcf04161a3501d8e143be",
        "20a36b322a0773c14e2f7f95ec34d7cbd7d56d8986c754f94747ae79dabf407a",
        "627fd8fb204712eb74cfac62237748e341e6c9bb3fffad83521da297b83463cc",
    ),
    ("ablation_selfref_on", ()): (
        "0c9ba40f04481a759ceaf0dd23cc8be40bad832b6adc7a1983124ad884b8b59f",
        "d2cd3b4faed500203bec4ff800cc6058a1bb1d1c955a0f122b2addd1a512d2f9",
        "fe912d9a1022cfb481347ad56280cf78b6e9a17dde418862cca945b271eb8cbf",
    ),
    ("condorcet_minimal", ()): (
        "5047516828a926ac864833c933820f70edc76fbeccf8d2febd51d0b4d0a9cde3",
        "a4586197bd1d2150470a6b3fa7b050766a017e97555edede49ec8e274e1cb60b",
        "a941ddcaad2b6672e60b6e6d3878ee2412c2fe5aec6d87a6720f5cee9a7caada",
    ),
    ("crash_n13", ()): (
        "c3c7bae44c60e7d80a6ae9d70a4069c0beec8b22b9e498b25e70411e52765ad8",
        "35c24eb93e5202c68d7ed33fdd0dcd68534135b4bbf08120d41fff788bfe8742",
        "a695982df57d987d5dc5c08da16c1187717d97ccb2bdb94a7a77dc5d3bedf3e0",
    ),
    ("dod_b2", ()): (
        "ba46a8c770d6f832cddee919c88102cfa60c6b70f9b511f108e5128881e6f368",
        "30d4805fbd16c03abf2fe59983abe8e8a41d272b03ecd8f575fe540c63c177dc",
        "01b91260a5bcb3f04032032c7abe0707cb914f7d4f24018ad162c227f1f2d65a",
    ),
    ("fairdag_b1", ()): (
        "99e2a36a2f1c9e372f734f45508a80dfa763241b2945ed98908c70a31a91fc8a",
        "ace87303d15a4ff71d104b6ac7aeb45670d7b459eb52b908d5f2126be58df135",
        "798db912f13b5f15531d715b229dfcace4f9520f0039236a33aeffb20abd30e6",
    ),
    ("profile_bench", ()): (
        "6d0b021ac536eeb536c5d5cd2190db3b5acf57645bce7d71b50dd16b12de283a",
        "891aa44e4b6742dc38aa1c7e246c3ad671e3d9df1a78d8845160d0db5aff9efa",
        "b99b647aecdc2e55734ed7c5d48c38b304691d4879ada22b2fb8589daa31e288",
    ),
    ("reversing_fig8", (("f_actual", 0),)): (
        "410a73b2dd2ba94d6c1ee35dfc874c85819bd08b05414d6a1305442dd168cb22",
        "1e450684d4600320fdc68e585c1bf013c61a67b19fb50e848e57f3478c281f4d",
        "12b11db3d40a40fcca1ba0e767b920e313a020ed6e29ebb74a036237018a0988",
    ),
    ("reversing_fig8", (("f_actual", 2),)): (
        "74eea032f0b22580fffcdc4d19aac1bd489e9b05c187c3cc21279394b8c6a686",
        "114fa70ee990375d0c65a28eeab12eb97fa052cf0e4e090712b6f089f3de9a01",
        "1b7c1eb5654bb041a021a31c60508a11ab0323158fd63c292fa127cfe347809a",
    ),
    ("reversing_fig8", (("f_actual", 5),)): (
        "43e6ab46c1f109f900b7bf13bd48800d4e8663cd4051c32536a7be4f24c98672",
        "cec0c75127417f0a9a993fad657630be0c5989efb60bb24da4c3d3cf6863626e",
        "3793ebd7ef6f7e3c44ab2863c80d631adcac3fa93ed424e307ed7ca95455544f",
    ),
    ("speedup_bench", ()): (
        "0866ad7dec795d7ee9f27c34ddddad7a552c27104ab8702de1c1adc7bdc0ec50",
        "bacc52809db052b9aa8665c053ac82caea3b1958861076d24981ce33094b913b",
        "f1e101ae50460013a0944eaa01507d63489664c4a7b8af972130399792898828",
    ),
    ("wire_binary", ()): (
        "4e32e2b9f2cbd49099fef8e5ad12a773c8f0e1e84dd281f7ec2a0dcf174eadb5",
        "7f1049fdfa47307257aec46a318a9cbc5159dac9c4b03e236b89c56aeb4c344a",
        "d6c211794f34bc5cf4a9fd76d050587e053a8513528d4347a44a3c11f48acc7d",
    ),
}


def trace_digest(trace) -> str:
    """sha256 over the deterministic events, one sorted-key JSON line each."""
    h = hashlib.sha256()
    for e in trace.deterministic_view():
        h.update(json.dumps(e, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def test_golden_table_covers_every_shipped_variant():
    from batchfair.scenarios import scenario_names

    shipped = {
        (name, tuple(sorted(variant.items())))
        for name in scenario_names()
        for variant in build_scenario(name).variants or [{}]
    }
    assert shipped == set(GOLDEN)


@pytest.mark.parametrize(
    "name,variant,serial",
    [
        pytest.param(name, variant, serial,
                     id=f"{name}-{dict(variant)}" + ("" if serial else "-concurrent"))
        for name, variant in sorted(GOLDEN)
        for serial in (True, False)
    ],
)
def test_shipped_scenario_matches_golden_digests(name, variant, serial, pool):
    variant = dict(variant)
    scenario = build_scenario(name, **variant)
    report, res = execute_scenario(scenario, serial=serial, pool=pool, variant=variant)
    got = (report.emitted_digest, report.report_hash(), trace_digest(res.trace))
    assert got == GOLDEN[name, tuple(sorted(variant.items()))]


@pytest.mark.parametrize(
    "name,variant",
    [pytest.param(name, variant, id=f"{name}-{dict(variant)}") for name, variant in sorted(GOLDEN)],
)
def test_trace_holds_the_commit_stream(name, variant, tmp_path):
    # report_from_trace rebuilds the commit stream from the trace alone, both
    # in memory, where entries and edges are tuples, and read back from JSON,
    # where they are lists
    sc = build_scenario(name, **dict(variant))
    res = Simulator(sc.config, sc.faults, sc.clients, sc.spikes).run()
    assert res.trace.commit_records() == res.records
    res.trace.write_jsonl(tmp_path / "trace.jsonl")
    back = RunTrace.read_jsonl(tmp_path / "trace.jsonl")
    assert back.commit_records() == res.records
    assert back.emitted_orders() == res.pipeline.emitted
    assert trace_digest(back) == GOLDEN[name, variant][2]

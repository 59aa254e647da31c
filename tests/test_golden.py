"""Golden digests: the emitted-order digest and report hash of every shipped
scenario variant, in serial mode.

A change that moves any of them changes what the protocol emits or what the
oracle reports. Such a change must say why, and update the values here.
"""

import pytest

from batchfair.harness import execute_scenario
from batchfair.scenarios import build_scenario

# (scenario, variant) -> (emitted_digest, report_hash)
GOLDEN = {
    ("ablation_no_selfref", ()): (
        "8682096a025cd832b6de8a1300d535609bd27075a21dcf04161a3501d8e143be",
        "20a36b322a0773c14e2f7f95ec34d7cbd7d56d8986c754f94747ae79dabf407a",
    ),
    ("ablation_selfref_on", ()): (
        "0c9ba40f04481a759ceaf0dd23cc8be40bad832b6adc7a1983124ad884b8b59f",
        "d2cd3b4faed500203bec4ff800cc6058a1bb1d1c955a0f122b2addd1a512d2f9",
    ),
    ("condorcet_minimal", ()): (
        "5047516828a926ac864833c933820f70edc76fbeccf8d2febd51d0b4d0a9cde3",
        "a4586197bd1d2150470a6b3fa7b050766a017e97555edede49ec8e274e1cb60b",
    ),
    ("crash_n13", ()): (
        "c3c7bae44c60e7d80a6ae9d70a4069c0beec8b22b9e498b25e70411e52765ad8",
        "35c24eb93e5202c68d7ed33fdd0dcd68534135b4bbf08120d41fff788bfe8742",
    ),
    ("dod_b2", ()): (
        "ba46a8c770d6f832cddee919c88102cfa60c6b70f9b511f108e5128881e6f368",
        "30d4805fbd16c03abf2fe59983abe8e8a41d272b03ecd8f575fe540c63c177dc",
    ),
    ("fairdag_b1", ()): (
        "99e2a36a2f1c9e372f734f45508a80dfa763241b2945ed98908c70a31a91fc8a",
        "ace87303d15a4ff71d104b6ac7aeb45670d7b459eb52b908d5f2126be58df135",
    ),
    ("profile_bench", ()): (
        "6d0b021ac536eeb536c5d5cd2190db3b5acf57645bce7d71b50dd16b12de283a",
        "891aa44e4b6742dc38aa1c7e246c3ad671e3d9df1a78d8845160d0db5aff9efa",
    ),
    ("reversing_fig8", (("f_actual", 0),)): (
        "410a73b2dd2ba94d6c1ee35dfc874c85819bd08b05414d6a1305442dd168cb22",
        "1e450684d4600320fdc68e585c1bf013c61a67b19fb50e848e57f3478c281f4d",
    ),
    ("reversing_fig8", (("f_actual", 2),)): (
        "74eea032f0b22580fffcdc4d19aac1bd489e9b05c187c3cc21279394b8c6a686",
        "114fa70ee990375d0c65a28eeab12eb97fa052cf0e4e090712b6f089f3de9a01",
    ),
    ("reversing_fig8", (("f_actual", 5),)): (
        "43e6ab46c1f109f900b7bf13bd48800d4e8663cd4051c32536a7be4f24c98672",
        "cec0c75127417f0a9a993fad657630be0c5989efb60bb24da4c3d3cf6863626e",
    ),
    ("speedup_bench", ()): (
        "0866ad7dec795d7ee9f27c34ddddad7a552c27104ab8702de1c1adc7bdc0ec50",
        "bacc52809db052b9aa8665c053ac82caea3b1958861076d24981ce33094b913b",
    ),
    ("wire_binary", ()): (
        "4e32e2b9f2cbd49099fef8e5ad12a773c8f0e1e84dd281f7ec2a0dcf174eadb5",
        "7f1049fdfa47307257aec46a318a9cbc5159dac9c4b03e236b89c56aeb4c344a",
    ),
}


def test_golden_table_covers_every_shipped_variant():
    from batchfair.scenarios import scenario_names

    shipped = {
        (name, tuple(sorted(variant.items())))
        for name in scenario_names()
        for variant in build_scenario(name).variants or [{}]
    }
    assert shipped == set(GOLDEN)


@pytest.mark.parametrize(
    "name,variant", sorted(GOLDEN), ids=lambda x: x if isinstance(x, str) else str(dict(x))
)
def test_shipped_scenario_matches_golden_digests(name, variant):
    variant = dict(variant)
    scenario = build_scenario(name, **variant)
    report, _ = execute_scenario(scenario, serial=True, variant=variant)
    assert (report.emitted_digest, report.report_hash()) == GOLDEN[name, tuple(sorted(variant.items()))]

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from batchfair.params import (
    ConfigError,
    SimConfig,
    edge_threshold,
    parse_gamma,
    quorum_size,
    solid_threshold,
)


def test_quorum_size_examples():
    # k = ceil(4/(2g-1)); (k-1)f + 1
    assert quorum_size(13, 3, 1.0) == 10
    assert quorum_size(5, 0, 1.0) == 1
    assert quorum_size(11, 1, 0.7) == 10  # k = ceil(4/0.4) = 10


def test_quorum_rejects_bad_gamma_and_thresholds():
    with pytest.raises(ConfigError):
        quorum_size(5, 1, 0.5)
    with pytest.raises(ConfigError):
        quorum_size(5, 1, 0.0)
    with pytest.raises(ConfigError):
        quorum_size(4, 1, 1.0)  # needs n > 4f
    # boundary: n == 4f/(2g-1) exactly is rejected (strict)
    with pytest.raises(ConfigError):
        quorum_size(12, 3, 1.0)
    assert quorum_size(13, 3, 1.0) == 10


def test_gamma_parsing_exact():
    assert parse_gamma("2/3") == Fraction(2, 3)
    assert parse_gamma(0.8) == Fraction(4, 5)
    assert parse_gamma("0.7") == Fraction(7, 10)
    assert parse_gamma(1) == 1
    # exactness matters: tau at n=3, gamma=2/3 must be exactly 2
    assert edge_threshold(3, 0, "2/3") == 2


def test_thresholds():
    assert edge_threshold(13, 3, 1) == 4  # f + 1 at gamma 1
    assert edge_threshold(13, 1, 0.8) == Fraction(13, 5) + 2
    assert solid_threshold(13, 3) == 7
    assert solid_threshold(5, 1) == 3


def test_simconfig_validation():
    cfg = SimConfig(n=5, f=1, gamma=1, seed=3)
    assert cfg.quorum == 4
    assert edge_threshold(cfg.n, cfg.f, cfg.gamma) == 2
    assert solid_threshold(cfg.n, cfg.f) == 3
    with pytest.raises(ConfigError):
        SimConfig(n=5, f=1, gamma=1, wave_len=1)
    with pytest.raises(ConfigError):
        SimConfig(n=5, f=1, gamma="1/2")
    with pytest.raises(ConfigError):
        SimConfig(n=5, f=1, gamma=1, delivery_model="carrier-pigeon")
    with pytest.raises(ConfigError, match="unknown batch wire format 'json'"):
        SimConfig(n=5, f=1, gamma=1, batch_wire="json")
    assert SimConfig(n=5, f=1, gamma=1, batch_wire="binary").batch_wire == "binary"
    with pytest.raises(ConfigError, match="delay_min"):
        SimConfig(n=5, f=1, gamma=1, delay_min=-1)
    with pytest.raises(ConfigError, match="delay_max"):
        SimConfig(n=5, f=1, gamma=1, delay_min=4, delay_max=3)
    with pytest.raises(ConfigError, match="task_slots"):
        SimConfig(n=5, f=1, gamma=1, task_slots=0)
    assert SimConfig(n=5, f=1, gamma=1, delay_min=0, delay_max=0, task_slots=1).delay_max == 0
    round_trip = SimConfig.from_dict(cfg.to_dict())
    assert round_trip == cfg


@given(
    f=st.integers(0, 6),
    num=st.integers(51, 100),
)
def test_quorum_feasible_whenever_config_accepted(f, num):
    # for any accepted (n, f, gamma), a quorum fits among n - f live replicas
    gamma = Fraction(num, 100)
    n = 1
    while Fraction(n) * (2 * gamma - 1) <= 4 * f:
        n += 1
    n += f  # headroom mirrors practical deployments (sweep marks tight cells)
    q = quorum_size(n, f, gamma)
    assert q >= f + 1
    assert q <= n - f  # rounds keep advancing with all f replicas crashed

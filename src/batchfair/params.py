"""Protocol parameters, fault thresholds, and quorum arithmetic.

All threshold math uses exact rational arithmetic: with gamma = 2/3 and
n = 3 the edge threshold n*(1-gamma) + f + 1 must come out exactly 2, which
float arithmetic does not guarantee.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from math import ceil


class ConfigError(ValueError):
    """Raised for infeasible or malformed protocol configurations."""


def parse_gamma(value) -> Fraction:
    """Parse a fairness parameter into an exact Fraction.

    Accepts Fractions, ints, strings like "2/3" or "0.8", and floats
    (converted via their decimal string, so 0.8 -> 4/5 exactly).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, float, str)):
        try:
            return Fraction(str(value))  # "True" from a bool does not parse
        except (ValueError, ZeroDivisionError):
            pass
    raise ConfigError(f"cannot parse gamma from {value!r}")


def check_thresholds(n: int, f: int, gamma: Fraction) -> None:
    """Validate the fault-tolerance constraint n > 4f/(2*gamma - 1)."""
    if not (Fraction(1, 2) < gamma <= 1):
        raise ConfigError(f"gamma must be in (1/2, 1], got {gamma}")
    if n < 1:
        raise ConfigError(f"replica count must be positive, got {n}")
    if f < 0:
        raise ConfigError(f"fault budget must be non-negative, got {f}")
    if Fraction(n) * (2 * gamma - 1) <= 4 * f:
        raise ConfigError(
            f"n={n}, f={f}, gamma={gamma} violates n > 4f/(2*gamma - 1)"
        )


def quorum_size(n: int, f: int, gamma) -> int:
    """Vertices referenced per round: (k-1)*f + 1 with k = ceil(4/(2*gamma-1)).

    For gamma = 1 this is k = 4, i.e. 3f+1 references.
    """
    g = parse_gamma(gamma)
    check_thresholds(n, f, g)
    k = ceil(Fraction(4) / (2 * g - 1))
    return (k - 1) * f + 1


def edge_threshold(n: int, f: int, gamma) -> Fraction:
    """Shaded/edge threshold tau = n*(1-gamma) + f + 1 (exact)."""
    g = parse_gamma(gamma)
    return Fraction(n) * (1 - g) + f + 1


def solid_threshold(n: int, f: int) -> int:
    """Solid support threshold tau_s = n - 2f."""
    return n - 2 * f


_KINDS = {"int": int, "bool": bool, "str": str}  # checked SimConfig field types


@dataclass
class SimConfig:
    """Parameters of one deterministic simulation run.

    ``quorum`` (vertices referenced per round) and ``readiness``
    (certificates a replica waits for before proposing the next round) are
    derived once, when the config is validated. The fairness threshold only
    needs the quorum of references, but waiting for n-f certificates (the
    base DAG's rule) keeps the DAG connected when f is small; at f=0 the
    quorum alone collapses to one vertex and the DAG would degenerate into
    disconnected per-replica chains.

    ``batch_wire`` is "" (batches stay objects) or "binary" (each sealed
    batch is encoded and decoded before it is proposed). It stays a string
    because ``to_dict()`` feeds the report hash.
    """

    n: int
    f: int
    gamma: Fraction = Fraction(1)
    wave_len: int = 2
    seed: int = 0
    max_rounds: int = 40
    delivery_model: str = "uniform"  # "uniform" or "lockstep"
    delay_min: int = 1
    delay_max: int = 6
    self_reference: bool = True  # ablation switch; correct replicas self-ref
    batch_wire: str = ""  # "binary": round-trip every batch through the wire format
    task_slots: int = 4  # concurrent fairness task slots for replays

    def __post_init__(self) -> None:
        for fld in fields(self):
            kind = _KINDS.get(fld.type)  # annotations are strings in this module
            value = getattr(self, fld.name)
            # bool is an int subclass, so neither may stand in for the other
            if kind and (not isinstance(value, kind) or isinstance(value, bool) != (kind is bool)):
                raise ConfigError(f"{fld.name} must be {fld.type}, got {value!r}")
        self.gamma = parse_gamma(self.gamma)
        self.quorum = quorum_size(self.n, self.f, self.gamma)  # validates n, f, gamma
        self.readiness = max(self.quorum, self.n - self.f)
        if self.wave_len < 2:
            raise ConfigError(f"wave_len must be >= 2, got {self.wave_len}")
        if self.delivery_model not in ("uniform", "lockstep"):
            raise ConfigError(f"delivery_model: unknown delivery model {self.delivery_model!r}")
        if self.batch_wire not in ("", "binary"):
            raise ConfigError(f"batch_wire: unknown batch wire format {self.batch_wire!r}")
        if self.max_rounds < 1:
            raise ConfigError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if not (0 <= self.seed < 2**64):
            raise ConfigError("seed must fit in 64 bits")
        if self.delay_min < 0:
            raise ConfigError(f"delay_min must be >= 0, got {self.delay_min}")
        if self.delay_max < self.delay_min:
            raise ConfigError(
                f"delay_max must be >= delay_min ({self.delay_min}), got {self.delay_max}"
            )
        if self.delay_max - self.delay_min + 1 >= 2**32:
            # one 32-bit generator word per draw (see dagsim's delay blocks)
            raise ConfigError(
                f"delay span delay_max - delay_min + 1 must be below 2**32, got "
                f"{self.delay_max - self.delay_min + 1}"
            )
        if self.task_slots < 1:
            raise ConfigError(f"task_slots must be >= 1, got {self.task_slots}")

    def to_dict(self) -> dict:
        d = {fld.name: getattr(self, fld.name) for fld in fields(self)}
        d["gamma"] = str(self.gamma)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        known = {fld.name for fld in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = [fld.name for fld in fields(cls) if fld.default is MISSING and fld.name not in d]
        if missing:
            raise ConfigError(f"missing config keys: {missing}")
        return cls(**d)

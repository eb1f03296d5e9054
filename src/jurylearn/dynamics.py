"""Competence dynamics: a self-improving leader with mean-seeking followers.

Voter 1 ("the leader") improves autonomously with derivative
``multiplier * gain * (1 - p_1)``.  Every other voter drifts toward a mean
competence: the global group mean, or, in the windowed variant, the mean of
the voters whose competence lies within ``window`` of their own (always
including themselves, so an isolated voter simply stays put).  The windowed
variant can fragment the group into clusters that stop improving, which
caps the group competence below 1.

Integration is classical fixed-step 4th-order Runge-Kutta over tuples of
plain floats, each mean a left-to-right sum; a fixed step and a fixed
summation order keep trajectories bit-reproducible on every supported
Python (the means use ``reduce(add, ...)``, since the built-in ``sum``
compensates float sums from Python 3.12).  States are clipped to [0, 1]
after each step and the number of clipped components is recorded (it stays
0 for the global-mean model, whose field points inward).

The group competence along a trajectory is evaluated per sample with the
exact majority machinery; even group sizes use the fair-coin tie rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from importlib import resources
from operator import add
from typing import NamedTuple, Sequence

from . import _checks
from .csvio import CsvTable
from .errors import DomainError, IntegrationFailureError, NotConvergedError
from .votemath import CompetenceVector, MajorityRule, majority_prob_heterogeneous

__all__ = [
    "DynamicsConfig",
    "Trajectory",
    "derivative_field",
    "integrate",
    "OutcomeKind",
    "Cluster",
    "Outcome",
    "classify_outcome",
    "parse_dynamics_config",
    "format_dynamics_config",
    "load_scenario",
    "list_scenarios",
    "trajectory_table",
]

# Ceiling on t_end/step (integrate keeps every state); bundled scenarios take <= 8,000.
MAX_STEPS = 10**6


@dataclass(frozen=True)
class DynamicsConfig:
    n: int
    initial: tuple[float, ...]
    leader_gain: float
    t_end: float
    step: float
    leader_multiplier: float = 1.0
    window: float | None = None

    def __post_init__(self):
        n = _checks.count(self.n, "number of voters")
        initial = tuple(_checks.within(x, "initial competence") for x in self.initial)
        if len(initial) != n:
            raise DomainError(f"expected {n} initial competences, got {len(initial)}")
        t_end = _checks.non_negative(self.t_end, "end time")
        step = _checks.positive(self.step, "step size")
        _checks.within(t_end / step, "step count t_end/step", 0.0, MAX_STEPS)
        window = None if self.window is None else _checks.positive(self.window, "window radius")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "leader_gain", _checks.non_negative(self.leader_gain, "leader gain"))
        object.__setattr__(self, "t_end", t_end)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "leader_multiplier", _checks.positive(self.leader_multiplier, "leader multiplier"))
        object.__setattr__(self, "window", window)


def _field(config: DynamicsConfig, state: tuple[float, ...]) -> tuple[float, ...]:
    window = config.window
    lead = config.leader_multiplier * config.leader_gain * (1.0 - state[0])
    if window is None:  # one mean for every follower keeps the global model O(n)
        mean = reduce(add, state, 0.0) / len(state)
        return (lead,) + tuple(mean - x for x in state[1:])
    d = [lead]
    for x in state[1:]:
        nearby = [y for y in state if abs(y - x) <= window]
        d.append(reduce(add, nearby, 0.0) / len(nearby) - x)
    return tuple(d)


def derivative_field(config: DynamicsConfig, state: Sequence[float]) -> tuple[float, ...]:
    """Instantaneous competence derivatives at ``state``."""
    values = tuple(_checks.within(x, "competence") for x in state)
    if len(values) != config.n:
        raise DomainError(f"expected a state of length {config.n}, got {len(values)}")
    return _field(config, values)


@dataclass(frozen=True)
class Trajectory:
    """Sampled competence paths plus the induced group-competence curve."""

    config: DynamicsConfig
    times: tuple[float, ...]
    states: tuple[tuple[float, ...], ...]
    group_curve: tuple[float, ...]
    clamp_count: int

    @property
    def final_state(self) -> tuple[float, ...]:
        return self.states[-1]


def integrate(config: DynamicsConfig) -> Trajectory:
    """Integrate the dynamics from t = 0 to (approximately) t_end.

    The horizon is rounded to a whole number of steps, so choose t_end as a
    multiple of the step size for exact endpoints.
    """
    h = config.step
    steps = int(round(config.t_end / h))

    y = config.initial
    states = [y]
    clamp_count = 0
    for k in range(steps):
        k1 = _field(config, y)
        k2 = _field(config, tuple(a + 0.5 * h * b for a, b in zip(y, k1)))
        k3 = _field(config, tuple(a + 0.5 * h * b for a, b in zip(y, k2)))
        k4 = _field(config, tuple(a + h * b for a, b in zip(y, k3)))
        y = tuple(
            a + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        )
        if not all(map(math.isfinite, y)):
            raise IntegrationFailureError(f"non-finite state at t = {(k + 1) * h}")
        clamp_count += sum(not 0.0 <= x <= 1.0 for x in y)
        y = tuple(min(max(x, 0.0), 1.0) for x in y)
        states.append(y)

    group = tuple(
        majority_prob_heterogeneous(CompetenceVector(s), MajorityRule.FAIR_COIN) for s in states
    )
    return Trajectory(
        config=config,
        times=tuple(k * h for k in range(steps + 1)),
        states=tuple(states),
        group_curve=group,
        clamp_count=clamp_count,
    )


class OutcomeKind(Enum):
    CONSENSUS_AT_1 = "consensus-at-1"
    FRAGMENTED = "fragmented"


class Cluster(NamedTuple):
    members: tuple[int, ...]  # 1-based voter indices
    value: float


@dataclass(frozen=True)
class Outcome:
    kind: OutcomeKind
    clusters: tuple[Cluster, ...]


def classify_outcome(traj: Trajectory, tol: float = 0.01) -> Outcome:
    """Group the final competences into clusters once the dynamics have settled.

    Raises NotConvergedError unless every component's derivative is below
    ``tol`` at the final state.  Voters whose final competences chain
    together with gaps <= 2*tol form one cluster; the outcome is consensus
    when every voter ends within tol of 1.
    """
    _checks.positive(tol, "tolerance")
    final = traj.final_state
    speed = max(abs(d) for d in derivative_field(traj.config, final))
    if speed >= tol:
        raise NotConvergedError(
            f"trajectory still moving (max |derivative| = {speed:.3g} >= {tol}); "
            "integrate further before classifying"
        )
    order = sorted(range(len(final)), key=lambda i: final[i])
    clusters: list[list[int]] = [[order[0]]]
    for i in order[1:]:
        if final[i] - final[clusters[-1][-1]] <= 2.0 * tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    built = tuple(
        Cluster(
            members=tuple(sorted(i + 1 for i in members)),
            value=math.fsum(final[i] for i in members) / len(members),
        )
        for members in clusters
    )
    if all(x >= 1.0 - tol for x in final):
        return Outcome(OutcomeKind.CONSENSUS_AT_1, built)
    return Outcome(OutcomeKind.FRAGMENTED, built)


# -- configuration text format ------------------------------------------------
#
# One "key = value" pair per line, '#' starts a comment.  Keys: n, initial
# (comma-separated competences), kappa (leader gain), multiplier (optional,
# default 1), window (optional; omit or set to "none" for the global-mean
# model), t_end, step.

_REQUIRED_KEYS = {"n", "initial", "kappa", "t_end", "step"}
_ALL_KEYS = _REQUIRED_KEYS | {"multiplier", "window"}


def parse_dynamics_config(text: str) -> DynamicsConfig:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise DomainError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        if key not in _ALL_KEYS:
            raise DomainError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise DomainError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value.strip()
    missing = _REQUIRED_KEYS - entries.keys()
    if missing:
        raise DomainError(f"missing config keys: {', '.join(sorted(missing))}")
    window = entries.get("window", "none")
    return DynamicsConfig(
        n=entries["n"],
        initial=entries["initial"].split(","),
        leader_gain=entries["kappa"],
        t_end=entries["t_end"],
        step=entries["step"],
        leader_multiplier=entries.get("multiplier", 1.0),
        window=None if window.lower() in {"none", ""} else window,
    )


def format_dynamics_config(config: DynamicsConfig) -> str:
    lines = [
        f"n = {config.n}",
        f"initial = {', '.join(repr(x) for x in config.initial)}",
        f"kappa = {config.leader_gain!r}",
        f"multiplier = {config.leader_multiplier!r}",
        f"window = {'none' if config.window is None else repr(config.window)}",
        f"t_end = {config.t_end!r}",
        f"step = {config.step!r}",
    ]
    return "\n".join(lines) + "\n"


def list_scenarios() -> list[str]:
    """Names of the bundled scenario presets."""
    root = resources.files("jurylearn") / "scenarios"
    return sorted(path.name[: -len(".cfg")] for path in root.iterdir() if path.name.endswith(".cfg"))


def load_scenario(name: str) -> DynamicsConfig:
    path = resources.files("jurylearn") / "scenarios" / f"{name}.cfg"
    if not path.is_file():
        raise DomainError(
            f"unknown scenario {name!r}; available: {', '.join(list_scenarios())}"
        )
    return parse_dynamics_config(path.read_text())


def trajectory_table(traj: Trajectory) -> CsvTable:
    """Trajectory as a CSV table with columns t, p1..pn, P_group."""
    n = traj.config.n
    header = ("t",) + tuple(f"p{i}" for i in range(1, n + 1)) + ("P_group",)
    rows = tuple(
        (t,) + state + (g,)
        for t, state, g in zip(traj.times, traj.states, traj.group_curve)
    )
    return CsvTable(header=header, rows=rows)

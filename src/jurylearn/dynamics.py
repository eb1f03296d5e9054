"""Competence dynamics: a self-improving leader with mean-seeking followers.

Voter 1 ("the leader") improves autonomously with derivative
``multiplier * gain * (1 - p_1)``.  Every other voter drifts toward a mean
competence: the global group mean, or, in the windowed variant, the mean of
the voters whose competence lies within ``window`` of their own (always
including themselves, so an isolated voter simply stays put).  The windowed
variant can fragment the group into clusters that stop improving, which
caps the group competence below 1.

Integration is classical fixed-step 4th-order Runge-Kutta over plain
floats, each mean a left-to-right sum; a fixed step and a fixed summation
order keep trajectories bit-reproducible on every supported Python (the
built-in ``sum`` compensates float sums from Python 3.12).  The field is
built once per config, branch and ``multiplier * gain`` chosen up front,
with the same products and sums as the model's terms.  States are clipped
to [0, 1] after each step and the number of clipped components is recorded
(it stays 0 for the global-mean model, whose field points inward).

The group competence along a trajectory comes from one batched fold of the
exact majority machinery over all stored states, already clipped and
finite, so unchecked; even group sizes use the fair-coin tie rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from importlib import resources
from operator import add
from typing import Callable, NamedTuple, Sequence

from . import _checks
from .csvio import CsvTable
from .errors import DomainError, IntegrationFailureError, NotConvergedError
from .votemath import _majority_rows

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
        initial = _checks.competences([self.initial], "initial competence")[0]
        if len(initial) != n:
            raise DomainError(f"expected {n} initial competences, got {len(initial)}")
        t_end = _checks.non_negative(self.t_end, "end time")
        step = _checks.positive(self.step, "step size")
        # integrate keeps every state; bundled scenarios take <= 8,000 steps
        _checks.within(t_end / step, "step count t_end/step", 0.0, _checks.MAX_HELD)
        window = None if self.window is None else _checks.positive(self.window, "window radius")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "leader_gain", _checks.non_negative(self.leader_gain, "leader gain"))
        object.__setattr__(self, "t_end", t_end)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "leader_multiplier", _checks.positive(self.leader_multiplier, "leader multiplier"))
        object.__setattr__(self, "window", window)


def _field_of(config: DynamicsConfig) -> Callable[[Sequence[float]], list[float]]:
    gain = config.leader_multiplier * config.leader_gain
    window = config.window
    if window is None:  # one mean for every follower keeps the global model O(n)
        def field(state):
            mean = reduce(add, state, 0.0) / len(state)
            return [gain * (1.0 - state[0])] + [mean - x for x in state[1:]]

        return field

    def field(state):
        d = [gain * (1.0 - state[0])]
        for x in state[1:]:
            total = 0.0
            count = 0
            for y in state:
                if abs(y - x) <= window:
                    total += y
                    count += 1
            d.append(total / count - x)
        return d

    return field


def derivative_field(config: DynamicsConfig, state: Sequence[float]) -> tuple[float, ...]:
    """Instantaneous competence derivatives at ``state``."""
    values = _checks.competences([state], "competence")[0]
    if len(values) != config.n:
        raise DomainError(f"expected a state of length {config.n}, got {len(values)}")
    return tuple(_field_of(config)(values))


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
    multiple of the step size for exact endpoints.  RK4 follows the leader only
    while ``step * leader_multiplier * leader_gain`` < 2.785, the end of its real
    stability interval (z^3 + 4z^2 + 12z + 24 = 0 at -2.785); past it the leader
    moves away from 1 at every step, and only ``clamp_count > 0`` shows it.
    """
    h = config.step
    half = 0.5 * h  # 0.5 * h * b already multiplies as (0.5 * h) * b
    sixth = h / 6.0
    steps = int(round(config.t_end / h))
    field = _field_of(config)

    y = config.initial
    states = [y]
    clamp_count = 0
    for k in range(steps):
        k1 = field(y)
        k2 = field([a + half * b for a, b in zip(y, k1)])
        k3 = field([a + half * b for a, b in zip(y, k2)])
        k4 = field([a + h * b for a, b in zip(y, k3)])
        y = [
            a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        ]
        if not all(map(math.isfinite, y)):
            raise IntegrationFailureError(f"non-finite state at t = {(k + 1) * h}")
        if min(y) < 0.0 or max(y) > 1.0:
            clamp_count += sum(not 0.0 <= x <= 1.0 for x in y)
            y = [min(max(x, 0.0), 1.0) for x in y]
        y = tuple(y)
        states.append(y)

    return Trajectory(
        config=config,
        times=tuple(k * h for k in range(steps + 1)),
        states=tuple(states),
        group_curve=tuple(_majority_rows(states)),  # checked, clamped rows; FAIR_COIN ties
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
    tol = _checks.positive(tol, "tolerance")
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
        initial=_checks.items(entries["initial"]),
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

"""Inputs outside a documented domain are refused at the boundary.

The regression table lists inputs that used to be accepted, silently
truncated, or that escaped as a bare OverflowError/ValueError/TypeError.
The property test feeds arbitrary floats, nan and inf included, to every
float input of the command line and requires a clean exit code.
"""

import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jurylearn import (
    CommonCoin,
    CompetenceVector,
    CostQuery,
    DomainError,
    DynamicsConfig,
    ExactMajoritySet,
    Independent,
    LinearProfile,
    MajorityRule,
    PowerProfile,
    VoteDistribution,
    critical_group_rate,
    derivative_at_half,
    derivative_field,
    figure_table,
    group_competence,
    hoeffding_extremal,
    initial_slope,
    integrate,
    majority_prob_heterogeneous,
    majority_prob_homogeneous,
    sample_majority_rate,
)
from jurylearn import correlation, votemath
from jurylearn.cli import run
from jurylearn.profiles import uniform_grid

NAN, INF = math.nan, math.inf


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def _config(**overrides):
    fields = dict(n=1, initial=[0.5], leader_gain=0.1, t_end=1.0, step=0.1)
    fields.update(overrides)
    return DynamicsConfig(**fields)


def _derivative(*state):
    return derivative_field(_config(n=3, initial=[0.5] * 3), state)


def _correlate(model):
    return ("correlate", "--model", model, "--trials", "100", "--seed", "1")


def _cost(profile):
    return ("cost", "--pstar", "0.8", "--profile", profile, "--n-list", "3")


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    # 10^18 RK4 steps: far above the integrator's step ceiling
    path = tmp_path_factory.mktemp("config") / "huge.cfg"
    path.write_text("n = 1\ninitial = 0.5\nkappa = 0.1\nt_end = 1e9\nstep = 1e-9\n")
    return str(path)


# A callable must raise DomainError; an argv tuple must exit 1 with empty stdout.
REJECTED = {
    "critical_group_rate(3.5)": lambda: critical_group_rate(3.5),
    "group_competence(total=nan)": lambda: group_competence(LinearProfile(1.0), 3, NAN),
    "integrate(t_end=inf)": lambda: integrate(_config(t_end=INF)),
    "ExactMajoritySet(3.5)": lambda: ExactMajoritySet(3.5),
    "ExactMajoritySet(nan)": lambda: ExactMajoritySet(NAN),
    "CommonCoin(n=2**20+1)": lambda: CommonCoin(2**20 + 1, 0.6, 0.5),
    "DynamicsConfig(t_end=1e300, step=1e-10)": lambda: _config(t_end=1e300, step=1e-10),
    "DynamicsConfig(leader_gain=nan)": lambda: _config(leader_gain=NAN),
    "DynamicsConfig(step=inf)": lambda: _config(step=INF),
    "DynamicsConfig(t_end=1e9, step=1e-9)": lambda: _config(t_end=1e9, step=1e-9),
    "simulate --config with 1e18 steps": ("simulate", "--config", "{config}"),
    "VoteDistribution([nan, 1.0])": lambda: VoteDistribution([NAN, 1.0]),
    "PowerProfile(1).evaluate(nan)": lambda: PowerProfile(1).evaluate(NAN),
    "PowerProfile(inf)": lambda: PowerProfile(INF),
    "initial_slope(3, inf)": lambda: initial_slope(3, INF),
    "derivative_at_half(3.5)": lambda: derivative_at_half(3.5),
    "majority_prob_homogeneous(inf, 0.6)": lambda: majority_prob_homogeneous(INF, 0.6),
    "hoeffding_extremal(inf, 0.5)": lambda: hoeffding_extremal(INF, 0.5),
    "sample_majority_rate(trials=inf)": lambda: sample_majority_rate(ExactMajoritySet(5), INF, 1),
    "sample_majority_rate(seed=1.5)": lambda: sample_majority_rate(ExactMajoritySet(5), 100, 1.5),
    "sample_majority_rate(seed=nan)": lambda: sample_majority_rate(ExactMajoritySet(5), 100, NAN),
    "sample_majority_rate(seed=inf)": lambda: sample_majority_rate(ExactMajoritySet(5), 100, INF),
    "uniform_grid(inf, 3)": lambda: uniform_grid(INF, 3),
    "uniform_grid(-1, 3)": lambda: uniform_grid(-1, 3),
    "CostQuery(3, None)": lambda: CostQuery(3, None, LinearProfile(1.0)),
    "correlate commoncoin n=2.5": _correlate("commoncoin:p=0.6,lambda=0.5,n=2.5"),
    "correlate commoncoin n=inf": _correlate("commoncoin:p=0.6,lambda=0.5,n=inf"),
    "correlate commoncoin n=nan": _correlate("commoncoin:p=0.6,lambda=0.5,n=nan"),
    "correlate exactmajority unknown field": _correlate("exactmajority:n=5,p=0.3"),
    "correlate commoncoin unknown field": _correlate("commoncoin:p=0.6,lambda=0.5,n=5,bogus=3"),
    "correlate independent unknown field": _correlate("independent:probs=0.6,0.7,n=5"),
    "correlate independent duplicate field": _correlate("independent:probs=0.6,probs=0.7,0.8"),
    "cost linear duplicate field": _cost("linear:c=1,c=2"),
    "cost linear:c=inf": _cost("linear:c=inf"),
    "cost linear:c=1e-320": _cost("linear:c=1e-320"),
    "cost plateau:a=1e-320": _cost("plateau:a=1e-320,cap=0.9"),
    "majority_prob_homogeneous(3, 'x')": lambda: majority_prob_homogeneous(3, "x"),
    "majority_prob_homogeneous(3, None)": lambda: majority_prob_homogeneous(3, None),
    "majority_prob_homogeneous(4, 0.6, 'fail')": lambda: majority_prob_homogeneous(4, 0.6, "fail"),
    "majority_prob_homogeneous(3, 0.6, 'bogus')": lambda: majority_prob_homogeneous(3, 0.6, "bogus"),
    "majority_prob_heterogeneous(rule='bogus')": lambda: majority_prob_heterogeneous(
        CompetenceVector([0.6, 0.7]), "bogus"
    ),
    "derivative_field(nan, .5, .5)": lambda: _derivative(NAN, 0.5, 0.5),
    "derivative_field(inf, .5, .5)": lambda: _derivative(INF, 0.5, 0.5),
    "derivative_field(2.0, .5, .5)": lambda: _derivative(2.0, 0.5, 0.5),
    "figure_table(inf)": lambda: figure_table(INF),
    "figure_table(2.7)": lambda: figure_table(2.7),
}


@pytest.mark.parametrize("case", REJECTED.values(), ids=REJECTED.keys())
def test_out_of_domain_input_is_rejected(config_file, case):
    if callable(case):
        with pytest.raises(DomainError):
            case()
    else:
        code, out, err = cli(*(arg.replace("{config}", config_file) for arg in case))
        assert (code, out) == (1, "")
        assert err.startswith("error: ")


def test_rule_values_are_normalised_to_members():
    assert group_competence(LinearProfile(1.0), 3.0, 1.0) == group_competence(LinearProfile(1.0), 3, 1.0)
    assert majority_prob_homogeneous(4, 0.6, "fair-coin") == majority_prob_homogeneous(4, 0.6, MajorityRule.FAIR_COIN)


def test_integral_sizes_read_alike_in_text(tmp_path):
    # a size may be any integral number: 3.0 reads as 3 in a model, an n-list and a config
    runs = []
    for n in ("3", "3.0"):
        config = tmp_path / f"n{n}.cfg"
        config.write_text(f"n = {n}\ninitial = 0.5, 0.6, 0.7\nkappa = 0.1\nt_end = 0.5\nstep = 0.1\n")
        runs.append([
            cli(*_correlate(f"commoncoin:p=0.6,lambda=0.5,n={n}")),
            cli("cost", "--pstar", "0.8", "--profile", "linear:c=1.0", "--n-list", f"1,{n}"),
            cli("simulate", "--config", str(config)),
        ])
    assert runs[0] == runs[1]
    assert [code for code, _, _ in runs[1]] == [0, 0, 0]


def test_integer_text_seed_keeps_its_stream():
    # 2**53 + 1 has no float; read through float it would take the stream of 2**53
    model = CommonCoin(5, 0.6, 0.5)
    assert sample_majority_rate(model, 2000, "9007199254740993") == sample_majority_rate(model, 2000, 2**53 + 1)


def test_tie_rule_is_checked_before_the_fold(monkeypatch):
    monkeypatch.setattr(votemath, "_pmf", None)  # calling the fold now raises TypeError
    for rule in ("bogus", MajorityRule.FAIL):
        with pytest.raises(DomainError):
            majority_prob_heterogeneous(CompetenceVector([0.6, 0.7]), rule)


def test_power_profile_saturates_without_overflow():
    # t**2 overflows a float for t > ~1.3e154; p(t) = 1 for every t >= 1 anyway
    assert PowerProfile(2).evaluate(1e155) == 1.0
    assert group_competence(PowerProfile(2.0), 3, 1e200) == 1.0


def test_sampler_row_blocks_keep_the_stream(monkeypatch):
    models = [CommonCoin(7, 0.6, 0.4), Independent(CompetenceVector([0.6, 0.7, 0.55]))]
    whole = [sample_majority_rate(m, 5000, 3) for m in models]
    monkeypatch.setattr(correlation, "_BLOCK", 16)
    assert [sample_majority_rate(m, 5000, 3) for m in models] == whole


# -- every float input of the command line ------------------------------------
#
# Each "{}" slot takes one drawn float; everything else is fixed and small.
# rates, simulate and figure take no float input and are not listed.

TEMPLATES = [
    ("majority", "--n", "3", "--p={}"),
    ("majority", "--probs={},0.6,0.7", "--tie-break", "fair-coin"),
    ("extremal", "--n", "3", "--pbar={}"),
    ("majorize", "--a={},0.6", "--b=0.7,{}"),
    ("bound", "concentration", "--n", "10", "--pbar={}"),
    ("bound", "ladha", "--probs={},{}", "--cov", "{cov}"),
    ("tradeoff", "--c1={}", "--cg={}", "--n", "3", "--t-max={}", "--points", "5"),
    ("cost", "--pstar={}", "--profile", "linear:c={}", "--n-list", "1,3"),
    ("cost", "--pstar=0.8", "--profile", "power:alpha={}", "--n-list", "1,3"),
    ("cost", "--pstar=0.8", "--profile", "plateau:a={},cap={}", "--n-list", "1,3"),
    ("correlate", "--model", "commoncoin:p={},lambda={},n={}", "--trials", "8", "--seed", "1"),
    ("correlate", "--model", "exactmajority:n={}", "--trials", "8", "--seed", "1"),
    ("correlate", "--model", "independent:probs={},{}", "--trials", "8", "--seed", "1"),
]


@pytest.fixture(scope="module")
def cov_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cov") / "cov.txt"
    path.write_text("2\n0.24 0\n0 0.24\n")
    return str(path)


@pytest.mark.parametrize("template", TEMPLATES, ids=" ".join)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_float_exits_cleanly(cov_file, template, data):
    argv = []
    for arg in template:
        arg = arg.replace("{cov}", cov_file)
        while "{}" in arg:
            x = data.draw(st.floats(allow_nan=True, allow_infinity=True))
            arg = arg.replace("{}", repr(x), 1)
        argv.append(arg)
    code, out, _ = cli(*argv)
    assert code in (0, 1, 2)
    if code != 0:
        assert out == ""
    else:
        cells = re.split(r"[,\n]", out.strip())
        assert not {"nan", "inf", "-inf"} & set(cells), out


@pytest.mark.xfail(
    strict=True,
    raises=OverflowError,
    reason="the homogeneous binomial tail converts math.comb to float and overflows for n >= 1031",
)
def test_majority_large_homogeneous_jury():
    assert cli("majority", "--n", "2001", "--p", "0.6")[0] == 0

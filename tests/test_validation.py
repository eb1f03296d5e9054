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
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jurylearn import (
    CommonCoin,
    CompetenceVector,
    CovarianceSpec,
    CsvTable,
    DomainError,
    DynamicsConfig,
    ExactMajoritySet,
    Independent,
    LinearProfile,
    MajorityRule,
    PlateauProfile,
    PowerProfile,
    asymptotic_rate_check,
    classify_outcome,
    competence_curve,
    concentration_failure_bound,
    cost_curve,
    cost_to_reach,
    critical_group_rate,
    derivative_at_half,
    derivative_field,
    figure_table,
    format_profile,
    group_competence,
    hoeffding_extremal,
    initial_slope,
    integrate,
    ladha_bound,
    majorizes,
    majority_prob_heterogeneous,
    majority_prob_homogeneous,
    model_moments,
    sample_majority_rate,
    vote_distribution,
)
from jurylearn import _checks, correlation, figures, profiles, tradeoff, votemath
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
    "PowerProfile(1).evaluate(nan)": lambda: PowerProfile(1).evaluate(NAN),
    "PowerProfile(inf)": lambda: PowerProfile(INF),
    "initial_slope(3, inf)": lambda: initial_slope(3, INF),
    "derivative_at_half(3.5)": lambda: derivative_at_half(3.5),
    "majority_prob_homogeneous(inf, 0.6)": lambda: majority_prob_homogeneous(INF, 0.6),
    "hoeffding_extremal(inf, 0.5)": lambda: hoeffding_extremal(INF, 0.5),
    "concentration_failure_bound(10**400, 0.6)": lambda: concentration_failure_bound(10**400, 0.6),
    "sample_majority_rate(trials=inf)": lambda: sample_majority_rate(ExactMajoritySet(5), INF, 1),
    "sample_majority_rate(seed=1.5)": lambda: sample_majority_rate(ExactMajoritySet(5), 100, 1.5),
    "sample_majority_rate(seed=nan)": lambda: sample_majority_rate(ExactMajoritySet(5), 100, NAN),
    "sample_majority_rate(seed=inf)": lambda: sample_majority_rate(ExactMajoritySet(5), 100, INF),
    "uniform_grid(inf, 3)": lambda: uniform_grid(INF, 3),
    "uniform_grid(-1, 3)": lambda: uniform_grid(-1, 3),
    "cost_to_reach(3, None)": lambda: cost_to_reach(3, None, LinearProfile(1.0)),
    "format_profile(unknown type)": lambda: format_profile(object()),
    "model_moments(unknown type)": lambda: model_moments(object()),
    "CsvTable(ragged row)": lambda: CsvTable(("a", "b"), [(1, 2), (3,)]),
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
    "majorizes(nan in the second jury)": lambda: majorizes([0.6, 0.7, 0.8], [0.6, NAN, 0.8]),
    "majority_prob_heterogeneous(inf)": lambda: majority_prob_heterogeneous([0.6, INF, 0.8]),
    "majority_prob_heterogeneous(1.5)": lambda: majority_prob_heterogeneous([0.6, 0.7, 1.5]),
    "majority_prob_heterogeneous(-0.1)": lambda: majority_prob_heterogeneous([-0.1, 0.7, 0.8]),
    "majorizes(zero voters)": lambda: majorizes([], []),
    "majorizes(ragged juries)": lambda: majorizes([0.6, 0.7, 0.8], [0.6]),
    "derivative_field(nan, .5, .5)": lambda: _derivative(NAN, 0.5, 0.5),
    "derivative_field(inf, .5, .5)": lambda: _derivative(INF, 0.5, 0.5),
    "derivative_field(2.0, .5, .5)": lambda: _derivative(2.0, 0.5, 0.5),
    "figure_table(inf)": lambda: figure_table(INF),
    "figure_table(2.7)": lambda: figure_table(2.7),
    "majority_prob_homogeneous(3, 10**400)": lambda: majority_prob_homogeneous(3, 10**400),
    "LinearProfile(10**400)": lambda: LinearProfile(10**400),
    "CompetenceVector([10**400])": lambda: CompetenceVector([10**400]),
    "majority_prob_homogeneous(3, 10**5000)": lambda: majority_prob_homogeneous(3, 10**5000),
    "LinearProfile(-10**5000)": lambda: LinearProfile(-(10**5000)),
    "critical_group_rate(-10**5000)": lambda: critical_group_rate(-(10**5000)),
    "critical_group_rate(2 * 10**5000)": lambda: critical_group_rate(2 * 10**5000),
    "figure_table(10**5000)": lambda: figure_table(10**5000),
    "cost_to_reach(3, 10**5000)": lambda: cost_to_reach(3, 10**5000, LinearProfile(1.0)),
    # text is one value, not a jury of its characters
    "CompetenceVector('11')": lambda: CompetenceVector("11"),
    "majority_prob_heterogeneous('111')": lambda: majority_prob_heterogeneous("111"),
    "Independent('101')": lambda: Independent("101"),
    "majorizes(text jury beside a list)": lambda: majorizes([0.6, 0.7], "11"),
    "DynamicsConfig(initial='11')": lambda: _config(n=2, initial="11"),
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


# -- one competence check behind every jury ------------------------------------
#
# Each bad jury goes to every entry point that takes competences, as numbers
# to the library and as comma-separated text to the command line; all of
# them refuse it with one message, naming the field a config calls
# "initial competence".

BAD_JURIES = {
    "1.5": ([1.5], "{} must lie in [0.0, 1.0], got 1.5"),
    "nan": ([NAN], "{} must lie in [0.0, 1.0], got nan"),
    "'x'": (["x"], "{} must be a number, got 'x'"),
    "10**400": ([10**400], "{} must lie in [0.0, 1.0], got inf"),
    "no voters": ([], "a jury needs at least one voter"),
}

# How the one check reads each kind of entry: the floats it gives, or the
# message it refuses with.  Every entry is read before any is range-checked,
# and an entry that is itself a row is refused like uneven rows.
UNEVEN = "expected rows of competence values, all of one length"

JURY_READINGS = {
    "nested row": ([[[0.5]]], UNEVEN),
    "bytearray entry": ([[bytearray(b"0.5")]], UNEVEN),
    "1-d array entry": ([[np.array([0.5])]], UNEVEN),
    "bytes": ([[b"0.5", b" 0.25 "]], [(0.5, 0.25)]),
    "bool": ([[True, False]], [(1.0, 0.0)]),
    "Fraction": ([[Fraction(1, 3)]], [(0.3333333333333333,)]),
    "Decimal": ([[Decimal("0.1")]], [(0.1,)]),
    "np.float32": ([[np.float32(0.1)]], [(0.10000000149011612,)]),
    "0-d array": ([[np.array(0.75)]], [(0.75,)]),
    "numpy row": ([np.array([0.6, 0.7])], [(0.6, 0.7)]),
    "numpy matrix": (np.array([[0.6, 0.7], [0.1, 0.2]]), [(0.6, 0.7), (0.1, 0.2)]),
    "iterator row": ([iter([0.6, 0.7])], [(0.6, 0.7)]),
    "' 0.5 '": ([[" 0.5 "]], [(0.5,)]),
    "'0_5'": ([["0_5"]], "competence must lie in [0.0, 1.0], got 5.0"),
    "[1.5, 'x']": ([[1.5, "x"]], "competence must be a number, got 'x'"),
    "None": ([[0.5, None]], "competence must be a number, got None"),
    # with several bad entries, the first in reading order is named
    "[0.5, 2.0, nan]": ([[0.5, 2.0, NAN]], "competence must lie in [0.0, 1.0], got 2.0"),
    "[nan, 2.0]": ([[NAN, 2.0]], "competence must lie in [0.0, 1.0], got nan"),
    "-1.0 in the second row": ([[0.5, 0.5], [0.5, -1.0]], "competence must lie in [0.0, 1.0], got -1.0"),
    "bytes row": ([b"11"], UNEVEN),
    "no rows": ([], UNEVEN),
}


@pytest.mark.parametrize("rows, expected", JURY_READINGS.values(), ids=JURY_READINGS.keys())
def test_each_kind_of_entry_reads_as_before(rows, expected):
    if isinstance(expected, str):
        with pytest.raises(DomainError) as info:
            _checks.competences(rows, "competence")
        assert str(info.value) == expected
    else:
        got = _checks.competences(rows, "competence")
        assert got == expected
        assert {type(x) for row in got for x in row} == {float}


JURY_ENTRY_POINTS = {
    "CompetenceVector": lambda jury: CompetenceVector(jury),
    "majority_prob_heterogeneous": lambda jury: majority_prob_heterogeneous(jury),
    "vote_distribution": lambda jury: vote_distribution(jury),
    "majorizes": lambda jury: majorizes(jury, jury),
    "CovarianceSpec": lambda jury: CovarianceSpec(jury, [[0.25]]),
    "Independent": lambda jury: Independent(jury),
    "DynamicsConfig": lambda jury: _config(initial=jury),
    "derivative_field": lambda jury: derivative_field(_config(), jury),
}

JURY_COMMANDS = {
    "majority --probs": lambda text: ("majority", f"--probs={text}"),
    "correlate independent": lambda text: _correlate(f"independent:probs={text}"),
    "bound ladha --probs": lambda text: ("bound", "ladha", f"--probs={text}", "--cov", "{cov}"),
    "simulate --config": lambda text: ("simulate", "--config", "{config}"),
}


@pytest.mark.parametrize("jury_id", BAD_JURIES)
def test_a_bad_jury_gets_one_message_everywhere(tmp_path, cov_file, jury_id):
    jury, message = BAD_JURIES[jury_id]
    text = ",".join(map(str, jury))
    config = tmp_path / "jury.cfg"
    config.write_text(f"n = 1\ninitial = {text}\nkappa = 0.1\nt_end = 0.5\nstep = 0.1\n")
    got, expected = {}, {}
    for name, call in JURY_ENTRY_POINTS.items():
        with pytest.raises(DomainError) as info:
            call(jury)
        got[name] = str(info.value)
        expected[name] = message.format("initial competence" if name == "DynamicsConfig" else "competence")
    for name, argv in JURY_COMMANDS.items():
        argv = (a.replace("{cov}", cov_file).replace("{config}", str(config)) for a in argv(text))
        got[name] = cli(*argv)
        field = "initial competence" if name == "simulate --config" else "competence"
        expected[name] = (1, "", f"error: {message.format(field)}\n")
    assert got == expected


# Every jury entry point takes plain competences (numbers, or text as the CLI
# passes them) and gives the same result, bit for bit, as for the
# CompetenceVector it reads them into.

JURY = (0.6, 0.55, 0.8, 0.7, 0.65)
RIVAL = (0.65,) * 5  # majorized by JURY
COV = [[p * (1.0 - p) if i == j else 0.01 for j in range(len(JURY))] for i, p in enumerate(JURY)]

PLAIN_JURY_CALLS = {
    "majority_prob_heterogeneous": majority_prob_heterogeneous,
    "vote_distribution": vote_distribution,
    "majorizes(jury, rival)": lambda jury: majorizes(jury, RIVAL),
    "majorizes(rival, jury)": lambda jury: majorizes(RIVAL, jury),
    "CovarianceSpec": lambda jury: ladha_bound(CovarianceSpec(jury, COV)),
    "model_moments(Independent)": lambda jury: ladha_bound(model_moments(Independent(jury))),
    "sample_majority_rate(Independent)": lambda jury: sample_majority_rate(Independent(jury), 20_000, seed=11),
}

PLAIN_JURIES = {
    "list": lambda: list(JURY),
    "text": lambda: [repr(p) for p in JURY],
    "iterator": lambda: iter(JURY),
}


@pytest.mark.parametrize("form", PLAIN_JURIES)
@pytest.mark.parametrize("name", PLAIN_JURY_CALLS)
def test_plain_competences_read_like_a_competence_vector(name, form):
    call = PLAIN_JURY_CALLS[name]
    assert call(PLAIN_JURIES[form]()) == call(CompetenceVector(JURY))


# Every jury the library stores or returns is the checked tuple of plain
# floats, whatever form it was handed in as.

STORED_JURIES = {
    "CovarianceSpec": lambda jury: CovarianceSpec(jury, COV).p,
    "Independent": lambda jury: Independent(jury).p,
    "model_moments(Independent)": lambda jury: model_moments(Independent(jury)).p,
    "DynamicsConfig": lambda jury: _config(n=len(JURY), initial=jury).initial,
    "trajectory states": lambda jury: integrate(_config(n=len(JURY), initial=jury)).states[0],
}


@pytest.mark.parametrize("form", [*PLAIN_JURIES, "CompetenceVector"])
@pytest.mark.parametrize("name", STORED_JURIES)
def test_a_stored_jury_is_the_checked_tuple(name, form):
    def jury():
        return CompetenceVector(JURY) if form == "CompetenceVector" else PLAIN_JURIES[form]()

    got = STORED_JURIES[name](jury())
    assert type(got) is tuple and {type(x) for x in got} == {float}
    assert got == _checks.competences([jury()], "competence")[0] == JURY


@pytest.mark.parametrize("n, pbar", [(3, 0.7), (3, 1.0), (5, 0.0), (5, 0.5), ("4", "0.6")])
def test_the_extremal_jury_is_a_tuple_of_floats(n, pbar):
    jury = hoeffding_extremal(n, pbar)
    assert type(jury) is tuple and {type(x) for x in jury} == {float}
    assert jury == _checks.competences([jury], "competence")[0]


def test_checked_text_is_the_value_used():
    settled = integrate(_config(leader_gain=0.0))
    assert classify_outcome(settled, "0.01") == classify_outcome(settled, 0.01)
    for kind in ("expert", "critical"):
        assert asymptotic_rate_check("5", kind) == asymptotic_rate_check(5, kind)


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


def test_tie_rule_is_checked_before_the_tail(monkeypatch):
    for module in (votemath, profiles, tradeoff, figures):
        monkeypatch.setattr(module, "_tail_of", None)  # building the tail now raises TypeError
    for rule in ("bogus", MajorityRule.FAIL):
        with pytest.raises(DomainError):
            majority_prob_homogeneous(4, 0.6, rule)
    with pytest.raises(DomainError):
        competence_curve(LinearProfile(1.0), 4, [0.5])


def test_library_loops_check_each_value_once(monkeypatch):
    calls = []
    within = _checks.within
    monkeypatch.setattr(_checks, "within", lambda *args, **kwargs: calls.append(args) or within(*args, **kwargs))
    figure_table(1)
    assert calls == []  # no check per (n, p) point: figure 1 makes its own p in [1/2, 1]
    cost_to_reach(41, 0.9, LinearProfile(1.0))  # the profile's constructor checks with positive, not within
    assert len(calls) == 1  # the profile's target check, not one per bisection step


def test_library_loops_build_each_tail_once(monkeypatch):
    builds = []
    tail_of = votemath._tail_of
    for module in (votemath, profiles, tradeoff, figures):
        monkeypatch.setattr(module, "_tail_of", lambda n: builds.append(n) or tail_of(n))
    cost_to_reach(41, 0.9, LinearProfile(1.0))
    assert builds == [41]  # the reachable bound and all 43 bisection steps share one tail
    figure_table(1)
    assert builds == [41, 1, 3, 5, 7, 91]  # one per size, not one per (n, p) point
    for grid in ([0.0, 0.5, 1.0], [0.25] * 7):
        competence_curve(LinearProfile(1.0), 3, grid)
    assert builds == [41, 1, 3, 5, 7, 91, 3, 3]
    assert competence_curve(LinearProfile(1.0), 3, []) == []
    assert len(builds) == 8  # an empty grid builds none


def test_cost_sweeps_invert_each_size_once(monkeypatch):
    builds, inversions = [], []
    tail_of, invert = votemath._tail_of, tradeoff._invert_majority
    for module in (votemath, profiles, tradeoff, figures):
        monkeypatch.setattr(module, "_tail_of", lambda n: builds.append(n) or tail_of(n))
    monkeypatch.setattr(tradeoff, "_invert_majority", lambda tail, p: inversions.append(p) or invert(tail, p))
    figure_table(4)
    assert builds == list(range(1, 43, 2))  # one tail per size, not one per (size, rate rule)
    assert inversions == [0.8] * 21  # the three rate rules share each size's bisection
    schedules = (lambda n: LinearProfile(1.0), lambda n: PlateauProfile(1.0, 0.9), lambda n: PowerProfile(2.0))
    cost_curve(0.8, [1, 3, 5, 7], *schedules)
    assert builds[21:] == [1, 3, 5, 7] and len(inversions) == 25  # m sizes, k schedules: m bisections
    figure_table(5)
    figure_table(6)
    assert builds[25:] == [3, 3]  # one tail per table, read by every group profile's column
    assert len(inversions) == 25


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
    reason="the homogeneous binomial tail converts math.comb to float, and C(1030, 516) ~ 2.9e308 "
    "already overflows: n >= 1030 fails (n = 1030 only with fair-coin, since fail refuses it first)",
)
@pytest.mark.parametrize(
    "argv",
    [("--n", "1030", "--p", "0.6", "--tie-break", "fair-coin"), ("--n", "2001", "--p", "0.6")],
    ids=["n1030-fair-coin", "n2001"],
)
def test_majority_large_homogeneous_jury(argv):
    assert cli("majority", *argv)[0] == 0

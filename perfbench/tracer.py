"""Span tracing of jurylearn from outside the package.

``Tracer.install()`` replaces each public function and the traced methods
with a timing wrapper: in the defining module, in every other jurylearn
module namespace that imported the function (``dynamics`` and ``figures``
hold their own bindings of the majority functions, for example), and on
the class for methods (``CompetenceVector.__init__``,
``CovarianceSpec.__init__``, ``CsvTable.render`` and each profile's
``evaluate``).  ``uninstall()`` puts every original back.

A span is ``(name, start, end, parent, op, error, info)``: ``parent`` is
the index of the enclosing span or -1, ``op`` the index of the benchmark
op that caused it, ``error`` the exception type that left the call, and
``info`` the work the call carried (sizes read from its arguments or
result).  Spans stay in memory; ``layer_metrics`` turns one pass's spans
into the per-layer metrics.  Self time is a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import math
from time import perf_counter

_CHUNK = 1 << 16  # documented Monte Carlo chunk size


def _n_arg(args, result):
    return int(args[0])


def _len_arg(args, result):
    return len(args[0])


def _integrate_info(args, result):
    config = args[0]
    return int(round(config.t_end / config.step)), result.clamp_count


def _sample_info(args, result):
    model = args[0]
    return int(args[1]), model.n if hasattr(model, "n") else len(model.p)


def _covspec_info(args, result):
    return len(args[1])  # args[0] is the instance


def _render_info(args, result):
    table = args[0]
    return len(table.rows) * len(table.header), len(result)


# (module, attribute path, info) for every traced callable.  A dotted path
# names a method, wrapped on its class.
_TARGETS = (
    ("cli", "run", None),
    ("cli", "build_parser", None),
    ("figures", "figure_table", _n_arg),
    ("dynamics", "integrate", _integrate_info),
    ("dynamics", "derivative_field", None),
    ("dynamics", "classify_outcome", None),
    ("dynamics", "parse_dynamics_config", None),
    ("dynamics", "format_dynamics_config", None),
    ("dynamics", "load_scenario", None),
    ("dynamics", "list_scenarios", None),
    ("dynamics", "trajectory_table", None),
    ("votemath", "majority_prob_heterogeneous", _len_arg),
    ("votemath", "majority_prob_homogeneous", _n_arg),
    ("votemath", "vote_distribution", _len_arg),
    ("votemath", "derivative_at_half", None),
    ("votemath", "hoeffding_extremal", None),
    ("votemath", "majorizes", None),
    ("votemath", "concentration_failure_bound", None),
    ("votemath", "CompetenceVector.__init__", None),
    ("tradeoff", "critical_group_rate", None),
    ("tradeoff", "expert_threshold", None),
    ("tradeoff", "asymptotic_rate_check", None),
    ("tradeoff", "fixed_budget_compare", None),
    ("tradeoff", "initial_slope", None),
    ("tradeoff", "cost_to_reach", None),
    ("tradeoff", "cost_curve", None),
    ("profiles", "LinearProfile.evaluate", None),
    ("profiles", "PowerProfile.evaluate", None),
    ("profiles", "PlateauProfile.evaluate", None),
    ("profiles", "LinearProfile.time_to_reach", None),
    ("profiles", "PowerProfile.time_to_reach", None),
    ("profiles", "PlateauProfile.time_to_reach", None),
    ("profiles", "group_competence", None),
    ("profiles", "competence_curve", None),
    ("profiles", "parse_profile", None),
    ("profiles", "format_profile", None),
    ("correlation", "model_moments", None),
    ("correlation", "ladha_bound", None),
    ("correlation", "sample_majority_rate", _sample_info),
    ("correlation", "parse_model", None),
    ("correlation", "CovarianceSpec.__init__", _covspec_info),
    ("csvio", "CsvTable.render", _render_info),
)

_MODULES = ("cli", "figures", "dynamics", "votemath", "tradeoff", "profiles", "correlation", "csvio")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, info_fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, type(exc).__name__, None)
                raise
            end = perf_counter()
            stack.pop()
            info = info_fn(args, result) if info_fn else None
            spans[index] = (name, start, end, parent, self.op, None, info)
            return result

        return wrapper

    def install(self) -> None:
        modules = {name: importlib.import_module(f"jurylearn.{name}") for name in _MODULES}
        modules["__init__"] = importlib.import_module("jurylearn")
        wrappers = {}
        for module_name, path, info_fn in _TARGETS:
            owner = modules[module_name]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = vars(owner)[attr]
            wrapper = self._wrap(f"{module_name}.{path}", original, info_fn)
            self._replace(owner, attr, wrapper)
            if not classes:
                wrappers[id(original)] = wrapper
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and getattr(module, attr) is not wrapper:
                    self._replace(module, attr, wrapper)

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take_spans(self) -> list:
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_metrics(spans: list, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one pass (see BENCHMARK.json for the names)."""
    child = [0.0] * len(spans)
    by_name: dict[str, list[int]] = {}
    for i, (name, start, end, parent, *_) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        if parent >= 0:
            child[parent] += end - start

    def pick(names):
        return [(i, spans[i]) for name in names for i in by_name.get(name, ())]

    def count(*names):
        return len(pick(names))

    def inclusive(*names):
        # time inside any of ``names``, not counting a call nested in another
        return sum(s[2] - s[1] for _, s in pick(names) if s[3] < 0 or spans[s[3]][0] not in names)

    def self_time(*names):
        return sum(s[2] - s[1] - child[i] for i, s in pick(names))

    def info(name):
        return [s[6] for _, s in pick((name,)) if s[6] is not None]

    def per(numerator, denominator, scale=1.0):
        return numerator / denominator * scale if denominator else 0.0

    m: dict[str, float] = {}
    m["cli.calls"] = count("cli.run")
    m["cli.self_s"] = self_time("cli.run")
    m["cli.build_parser_s"] = inclusive("cli.build_parser")
    m["cli.output_bytes"] = output_bytes
    for k in range(1, 9):
        m[f"figures.fig{k}_s"] = sum(s[2] - s[1] for _, s in pick(("figures.figure_table",)) if s[6] == k)

    integrate = info("dynamics.integrate")
    m["dynamics.integrate_calls"] = count("dynamics.integrate")
    m["dynamics.integrate_self_s"] = self_time("dynamics.integrate")
    m["dynamics.rk4_steps"] = sum(steps for steps, _ in integrate)
    m["dynamics.us_per_rk4_step"] = per(m["dynamics.integrate_self_s"], m["dynamics.rk4_steps"], 1e6)
    m["dynamics.clamp_count"] = sum(clamps for _, clamps in integrate)
    m["dynamics.trajectory_table_s"] = inclusive("dynamics.trajectory_table")
    m["dynamics.config_s"] = inclusive("dynamics.load_scenario", "dynamics.parse_dynamics_config")

    hetero, homog = "votemath.majority_prob_heterogeneous", "votemath.majority_prob_homogeneous"
    m["votemath.hetero_calls"] = count(hetero)
    m["votemath.hetero_s"] = inclusive(hetero)
    m["votemath.fold_cells"] = sum(n * (n + 1) // 2 for n in info(hetero))
    m["votemath.ns_per_fold_cell"] = per(m["votemath.hetero_s"], m["votemath.fold_cells"], 1e9)
    m["votemath.homog_calls"] = count(homog)
    m["votemath.homog_s"] = inclusive(homog)
    m["votemath.homog_terms"] = sum(n - n // 2 + (1 - n % 2) for n in info(homog))
    m["votemath.vector_calls"] = count("votemath.CompetenceVector.__init__")
    m["votemath.vector_s"] = inclusive("votemath.CompetenceVector.__init__")
    # an error counts once, where it leaves the votemath layer
    votemath_names = [name for name in by_name if name.startswith("votemath.")]
    escaped = [
        s[5] for _, s in pick(votemath_names)
        if s[5] and (s[3] < 0 or not spans[s[3]][0].startswith("votemath."))
    ]
    m["votemath.errors"] = len(escaped)
    m["votemath.errors.OverflowError"] = escaped.count("OverflowError")

    cost = pick(("tradeoff.cost_to_reach",))
    answered = sum(1 for _, s in cost if s[5] is None)
    evals = sum(1 for _, s in pick((homog,)) if s[3] >= 0 and spans[s[3]][0] == "tradeoff.cost_to_reach")
    m["tradeoff.cost_queries"] = len(cost)
    m["tradeoff.cost_s"] = inclusive("tradeoff.cost_to_reach")
    m["tradeoff.evals_per_query"] = per(evals, answered)
    m["tradeoff.sweep_s"] = inclusive("tradeoff.cost_curve", "tradeoff.fixed_budget_compare")

    profile_names = [name for name in by_name if name.startswith("profiles.")]
    m["profiles.evaluate_calls"] = count(*(name for name in profile_names if name.endswith(".evaluate")))
    m["profiles.s"] = inclusive(*profile_names)

    samples = info("correlation.sample_majority_rate")
    m["correlation.sample_s"] = inclusive("correlation.sample_majority_rate")
    m["correlation.trials"] = sum(trials for trials, _ in samples)
    m["correlation.chunks"] = sum(math.ceil(trials / _CHUNK) for trials, _ in samples)
    m["correlation.ns_per_vote"] = per(m["correlation.sample_s"], sum(t * n for t, n in samples), 1e9)
    m["correlation.covspec_s"] = inclusive("correlation.CovarianceSpec.__init__")
    m["correlation.covspec_pairs"] = sum(n * (n - 1) // 2 for n in info("correlation.CovarianceSpec.__init__"))
    m["correlation.ladha_s"] = inclusive("correlation.ladha_bound")

    renders = info("csvio.CsvTable.render")
    m["csvio.render_calls"] = count("csvio.CsvTable.render")
    m["csvio.render_s"] = inclusive("csvio.CsvTable.render")
    m["csvio.cells"] = sum(cells for cells, _ in renders)
    m["csvio.bytes"] = sum(size for _, size in renders)
    m["csvio.ns_per_cell"] = per(m["csvio.render_s"], m["csvio.cells"], 1e9)
    m["trace.spans"] = len(spans)
    return m

"""Command-line interface emitting CSV data for every operation.

Subcommands (all write to stdout, or to a file via ``--out``):

    majority    exact majority probability (homogeneous or per-voter)
    extremal    mean-preserving jury composition maximizing that probability
    majorize    sorted-prefix-sum dominance between two juries
    bound       moment lower bound (ladha) or tail upper bound (concentration)
    rates       critical group rates or expert thresholds, exact rationals
    tradeoff    single voter vs group under a shared time budget
    cost        cost of reaching a target group competence per group size
    simulate    competence-dynamics trajectory (bundled scenario or config file)
    correlate   Monte Carlo majority rate under a correlated vote model
    figure      data series behind the standard plots (ids 1..8)

Each handler returns a ``CsvTable`` or, for a bare value, one row of cells;
``run`` renders it once through ``csvio``.  Domain errors and an ``--out``
file that cannot be written exit with code 1 and a one-line message on
stderr; bad flags exit with code 2.  Output is fully rendered before anything
is written, so a failing command never leaves partial CSV on stdout.

``run`` may be called any number of times in one process.  The parser is
built on the first call and cached: ``parse_args`` never mutates it and
returns a fresh namespace each time, and the handlers, the ``--id`` choices
and the tie-rule choices are all bound when it is built.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import _checks
from .correlation import CovarianceSpec, ladha_bound, parse_model, sample_majority_rate
from .csvio import CsvTable, render_row
from .dynamics import integrate, load_scenario, parse_dynamics_config, trajectory_table
from .errors import DomainError, IntegrationFailureError
from .figures import FIGURE_IDS, figure_table
from .profiles import parse_profile, uniform_grid
from .tradeoff import asymptotic_rate_check, cost_curve, fixed_budget_compare
from .votemath import (
    MajorityRule,
    concentration_failure_bound,
    hoeffding_extremal,
    majorizes,
    majority_prob_heterogeneous,
    majority_prob_homogeneous,
)

__all__ = ["run", "main"]


def _read_text(path: str, what: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {what} file: {exc}") from None


def _cmd_majority(args) -> tuple[float]:
    if (args.probs is None) == (args.n is None):
        raise DomainError("specify either --n/--p or --probs")
    if args.probs is not None:
        return (majority_prob_heterogeneous(_checks.items(args.probs), args.tie_break),)
    if args.p is None:
        raise DomainError("--n requires --p")
    return (majority_prob_homogeneous(args.n, args.p, args.tie_break),)


def _cmd_extremal(args) -> tuple[float, ...]:
    return hoeffding_extremal(args.n, args.pbar)


def _cmd_majorize(args) -> tuple[bool]:
    return (majorizes(_checks.items(args.a), _checks.items(args.b)),)


def _read_cov_file(path: str):
    # Plain text: first line n, then n lines of n numbers.
    size, *entries = _read_text(path, "covariance").split() or [""]
    n = _checks.count(size, "covariance size")
    return [entries[i : i + n] for i in range(0, len(entries), n)]  # CovarianceSpec checks the shape


def _cmd_bound(args) -> tuple[float]:
    if args.kind == "concentration":
        if args.n is None or args.pbar is None:
            raise DomainError("bound concentration requires --n and --pbar")
        return (concentration_failure_bound(args.n, args.pbar),)
    if args.probs is None or args.cov is None:
        raise DomainError("bound ladha requires --probs and --cov FILE")
    return (ladha_bound(CovarianceSpec(_checks.items(args.probs), _read_cov_file(args.cov))),)


def _cmd_rates(args) -> CsvTable:
    # The largest n's rate is the longest, with a part >= 2^(n - 1 - log2 n): too long past 4 * limit.
    sizes = range(1, _checks.count(args.n_max, "--n-max") + 1, 2)
    n, limit = sizes[-1], sys.get_int_max_str_digits()
    if limit and n > 4 * limit:
        raise DomainError(f"cell value exceeds the {limit}-digit limit for integer string conversion")
    render_row([asymptotic_rate_check(n, args.kind).exact])
    checks = {n: asymptotic_rate_check(n, args.kind) for n in sizes}
    rows = [(n, check.exact, float(check.exact), check.asymptote) for n, check in checks.items()]
    return CsvTable(("n", "exact", "value", "asymptote"), rows)


def _cmd_tradeoff(args) -> CsvTable:
    rows = fixed_budget_compare(args.c1, args.cg, args.n, uniform_grid(args.t_max, args.points))
    return CsvTable(("T", "P_single", "P_group"), rows)


def _cmd_cost(args) -> CsvTable:
    profile = parse_profile(args.profile)
    rows = cost_curve(args.pstar, args.n_list.split(","), lambda n: profile)
    return CsvTable(("n", "cost"), rows)


def _cmd_simulate(args) -> CsvTable:
    if (args.scenario is None) == (args.config is None):
        raise DomainError("specify exactly one of --scenario or --config")
    if args.scenario is not None:
        config = load_scenario(args.scenario)
    else:
        config = parse_dynamics_config(_read_text(args.config, "config"))
    return trajectory_table(integrate(config))


def _cmd_correlate(args) -> CsvTable:
    result = sample_majority_rate(parse_model(args.model), args.trials, args.seed)
    return CsvTable(("estimate", "stderr"), [result])


def _cmd_figure(args) -> CsvTable:
    return figure_table(args.id)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jurylearn",
        description="Majority-vote competence math: exact probabilities, "
        "rate trade-offs, and competence dynamics, emitted as CSV.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")
        return p

    p = add("majority", _cmd_majority, "exact probability of a correct majority decision")
    p.add_argument("--n", type=int, help="group size (homogeneous mode)")
    p.add_argument("--p", type=float, help="shared individual competence")
    p.add_argument("--probs", help="comma-separated per-voter competences")
    p.add_argument(
        "--tie-break",
        choices=[rule.value for rule in MajorityRule],
        default=MajorityRule.FAIL.value,
        help="tie rule for even group sizes (default: refuse)",
    )

    p = add("extremal", _cmd_extremal, "probability-maximizing jury with a given mean competence")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pbar", type=float, required=True, help="mean competence")

    p = add("majorize", _cmd_majorize, "does jury A dominate jury B by sorted prefix sums?")
    p.add_argument("--a", required=True, help="comma-separated competences of jury A")
    p.add_argument("--b", required=True, help="comma-separated competences of jury B")

    p = add("bound", _cmd_bound, "probability bounds from moments")
    p.add_argument("kind", choices=["ladha", "concentration"])
    p.add_argument("--probs", help="comma-separated competences (ladha)")
    p.add_argument("--cov", metavar="FILE", help="covariance file: first line n, then n rows (ladha)")
    p.add_argument("--n", type=int, help="group size (concentration)")
    p.add_argument("--pbar", type=float, help="mean competence (concentration)")

    p = add("rates", _cmd_rates, "critical group rates or expert thresholds, exact rationals")
    p.add_argument("kind", choices=["critical", "expert"])
    p.add_argument("--n-max", type=int, required=True, help="largest (odd) group size")

    p = add("tradeoff", _cmd_tradeoff, "single voter vs group under a shared time budget")
    p.add_argument("--c1", type=float, required=True, help="single voter's learning rate")
    p.add_argument("--cg", type=float, required=True, help="group members' learning rate")
    p.add_argument("--n", type=int, required=True, help="group size (odd, >= 3)")
    p.add_argument("--t-max", type=float, required=True, help="largest total time budget")
    p.add_argument("--points", type=int, default=512)

    p = add("cost", _cmd_cost, "cost of reaching a target group competence")
    p.add_argument("--pstar", type=float, required=True, help="target group competence")
    p.add_argument("--profile", required=True, help="e.g. linear:c=1.0 or plateau:a=1.0,cap=0.6667")
    p.add_argument("--n-list", required=True, help="comma-separated odd group sizes")

    p = add("simulate", _cmd_simulate, "integrate a competence-dynamics scenario")
    p.add_argument("--scenario", help="bundled preset name, e.g. drift3")
    p.add_argument("--config", metavar="FILE", help="key = value config file")

    p = add("correlate", _cmd_correlate, "Monte Carlo majority rate under a correlated model")
    p.add_argument("--model", required=True, help="e.g. commoncoin:p=0.6,lambda=0.5,n=5")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True, help="the only entropy source")

    p = add("figure", _cmd_figure, "data series behind the standard plots")
    p.add_argument("--id", type=int, required=True, choices=list(FIGURE_IDS))

    return parser


def run(argv: list[str]) -> int:
    """Execute one command line; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        result = args.handler(args)
        output = result.render() if isinstance(result, CsvTable) else render_row(result)
    except (DomainError, IntegrationFailureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(output)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 1
    else:
        try:
            sys.stdout.write(output)
            sys.stdout.flush()
        except BrokenPipeError:
            # downstream consumer (e.g. `head`) closed the pipe; exit quietly
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())

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

Domain errors and an ``--out`` file that cannot be written exit with code 1
and a one-line message on stderr; bad flags exit with code 2.  Output is
fully built before anything is written, so a failing command never leaves
partial CSV on stdout.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import _checks
from .correlation import CovarianceSpec, ladha_bound, parse_model, sample_majority_rate
from .csvio import CsvTable
from .dynamics import integrate, load_scenario, parse_dynamics_config, trajectory_table
from .errors import DomainError, IntegrationFailureError, NotConvergedError
from .figures import FIGURE_IDS, figure_table
from .profiles import parse_profile, uniform_grid
from .tradeoff import asymptotic_rate_check, cost_curve, fixed_budget_compare
from .votemath import (
    CompetenceVector,
    concentration_failure_bound,
    hoeffding_extremal,
    majorizes,
    majority_prob_heterogeneous,
    majority_prob_homogeneous,
)

__all__ = ["run", "main"]


def _render_float(x: float) -> str:
    return repr(float(x))


def _cmd_majority(args) -> str:
    if (args.probs is None) == (args.n is None):
        raise DomainError("specify either --n/--p or --probs")
    if args.probs is not None:
        value = majority_prob_heterogeneous(CompetenceVector(_checks.items(args.probs)), args.tie_break)
    elif args.p is None:
        raise DomainError("--n requires --p")
    else:
        value = majority_prob_homogeneous(args.n, args.p, args.tie_break)
    return _render_float(value) + "\n"


def _cmd_extremal(args) -> str:
    jury = hoeffding_extremal(args.n, args.pbar)
    return ",".join(_render_float(p) for p in jury.probs) + "\n"


def _cmd_majorize(args) -> str:
    result = majorizes(CompetenceVector(_checks.items(args.a)), CompetenceVector(_checks.items(args.b)))
    return ("true" if result else "false") + "\n"


def _read_cov_file(path: str):
    # Plain text: first line n, then n lines of n numbers.
    try:
        with open(path) as fh:
            tokens = fh.read().split()
    except OSError as exc:
        raise DomainError(f"cannot read covariance file: {exc}") from None
    size, *entries = tokens or [""]
    n = _checks.count(size, "covariance size")
    return [entries[i : i + n] for i in range(0, len(entries), n)]  # CovarianceSpec checks the shape


def _cmd_bound(args) -> str:
    if args.kind == "concentration":
        if args.n is None or args.pbar is None:
            raise DomainError("bound concentration requires --n and --pbar")
        return _render_float(concentration_failure_bound(args.n, args.pbar)) + "\n"
    if args.probs is None or args.cov is None:
        raise DomainError("bound ladha requires --probs and --cov FILE")
    probs = CompetenceVector(_checks.items(args.probs))
    return _render_float(ladha_bound(CovarianceSpec(probs, _read_cov_file(args.cov)))) + "\n"


def _cmd_rates(args) -> str:
    n_max = _checks.count(args.n_max, "--n-max")
    rows = []
    for n in range(1, n_max + 1, 2):
        check = asymptotic_rate_check(n, args.kind)
        rows.append((n, check.exact, float(check.exact), check.asymptote))
    return CsvTable(("n", "exact", "value", "asymptote"), rows).render()


def _cmd_tradeoff(args) -> str:
    rows = fixed_budget_compare(args.c1, args.cg, args.n, uniform_grid(args.t_max, args.points))
    return CsvTable(("T", "P_single", "P_group"), rows).render()


def _cmd_cost(args) -> str:
    profile = parse_profile(args.profile)
    rows = cost_curve(args.pstar, args.n_list.split(","), lambda n: profile)
    return CsvTable(("n", "cost"), rows).render()


def _cmd_simulate(args) -> str:
    if (args.scenario is None) == (args.config is None):
        raise DomainError("specify exactly one of --scenario or --config")
    if args.scenario is not None:
        config = load_scenario(args.scenario)
    else:
        try:
            with open(args.config) as fh:
                config = parse_dynamics_config(fh.read())
        except OSError as exc:
            raise DomainError(f"cannot read config file: {exc}") from None
    return trajectory_table(integrate(config)).render()


def _cmd_correlate(args) -> str:
    model = parse_model(args.model)
    result = sample_majority_rate(model, args.trials, args.seed)
    table = CsvTable(("estimate", "stderr"), [(result.estimate, result.stderr)])
    return table.render()


def _cmd_figure(args) -> str:
    return figure_table(args.id).render()


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
        choices=["fail", "fair-coin"],
        default="fail",
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        output = args.handler(args)
    except (DomainError, NotConvergedError, IntegrationFailureError) as exc:
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
    return 0


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())

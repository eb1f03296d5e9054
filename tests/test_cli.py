"""Command-line surface: values, exit codes, CSV round trips, determinism."""

import hashlib
import subprocess
import sys
from fractions import Fraction

import pytest

from jurylearn import cli
from jurylearn.cli import build_parser, run
from jurylearn.csvio import CsvTable, render_row
from jurylearn.errors import DomainError
from jurylearn.tradeoff import AsymptoticCheck, asymptotic_rate_check


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScalarCommands:
    def test_majority_homogeneous(self, capsys):
        code, out, _ = invoke(capsys, "majority", "--n", "3", "--p", "0.6")
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.648, abs=1e-12)

    def test_majority_heterogeneous(self, capsys):
        code, out, _ = invoke(capsys, "majority", "--probs", "1,1,0.1")
        assert code == 0
        assert out.strip() == "1.0"

    def test_majority_even_requires_flag(self, capsys):
        code, out, err = invoke(capsys, "majority", "--n", "4", "--p", "0.6")
        assert code == 1
        assert out == ""
        assert "error:" in err
        code, out, _ = invoke(capsys, "majority", "--n", "4", "--p", "0.6", "--tie-break", "fair-coin")
        assert code == 0

    def test_extremal(self, capsys):
        code, out, _ = invoke(capsys, "extremal", "--n", "3", "--pbar", "0.7")
        assert code == 0
        values = [float(x) for x in out.strip().split(",")]
        assert values == pytest.approx([1.0, 1.0, 0.1], abs=1e-12)

    def test_majorize(self, capsys):
        code, out, _ = invoke(capsys, "majorize", "--a", "1,1,0.1", "--b", "0.7,0.7,0.7")
        assert (code, out.strip()) == (0, "true")
        code, out, _ = invoke(capsys, "majorize", "--a", "0.6,0.6,0.6", "--b", "0.9,0.5,0.4")
        assert (code, out.strip()) == (0, "false")

    def test_majorize_juries_of_two_sizes(self, capsys):
        assert invoke(capsys, "majorize", "--a", "0.5", "--b", "0.5,0.5") == (
            1,
            "",
            "error: expected rows of competence values, all of one length\n",
        )

    def test_bound_concentration(self, capsys):
        code, out, _ = invoke(capsys, "bound", "concentration", "--n", "100", "--pbar", "0.6")
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.7357588823428847, abs=1e-12)

    def test_bound_ladha_with_cov_file(self, capsys, tmp_path):
        cov = tmp_path / "cov.txt"
        cov.write_text("3\n0.24 0 0\n0 0.24 0\n0 0 0.24\n")
        code, out, _ = invoke(capsys, "bound", "ladha", "--probs", "0.6,0.6,0.6", "--cov", str(cov))
        assert code == 0
        assert float(out.strip()) == pytest.approx(1 / 9, abs=1e-12)

    def test_bound_ladha_bad_file(self, capsys, tmp_path):
        cov = tmp_path / "cov.txt"
        cov.write_text("2\n0.24 0\n")
        code, out, err = invoke(capsys, "bound", "ladha", "--probs", "0.6,0.6", "--cov", str(cov))
        assert code == 1 and out == ""

    def test_bound_ladha_size_is_checked_by_the_covariance(self, capsys, tmp_path):
        cov = tmp_path / "cov.txt"
        cov.write_text("2\n0.24 0\n0 0.24\n")
        code, out, err = invoke(capsys, "bound", "ladha", "--probs", "0.6,0.6,0.6", "--cov", str(cov))
        assert (code, out, err) == (1, "", "error: covariance must be 3x3, got (2, 2)\n")


class TestBareValues:
    # (argv, exact stdout): a bare value is one headerless CSV row, rendered
    # by the same cell rules as a table.
    CASES = {
        "majority": (("majority", "--n", "3", "--p", "0.6"), "0.648\n"),
        "extremal": (("extremal", "--n", "3", "--pbar", "0.7"), "1.0,1.0,0.09999999999999964\n"),
        "majorize-true": (("majorize", "--a", "1,1,0.1", "--b", "0.7,0.7,0.7"), "true\n"),
        "majorize-false": (("majorize", "--a", "0.6,0.6,0.6", "--b", "0.9,0.5,0.4"), "false\n"),
        "bound-concentration": (("bound", "concentration", "--n", "100", "--pbar", "0.6"), "0.7357588823428849\n"),
        "bound-ladha": (("bound", "ladha", "--probs", "0.6,0.6,0.6", "--cov", "{cov}"), "0.11111111111111106\n"),
    }

    @pytest.mark.parametrize("argv, text", CASES.values(), ids=CASES.keys())
    def test_stdout_bytes(self, capsys, tmp_path, argv, text):
        cov = tmp_path / "cov.txt"
        cov.write_text("3\n0.24 0 0\n0 0.24 0\n0 0 0.24\n")
        assert invoke(capsys, *(arg.replace("{cov}", str(cov)) for arg in argv)) == (0, text, "")


class TestRates:
    def test_critical_table(self, capsys):
        code, out, _ = invoke(capsys, "rates", "critical", "--n-max", "15")
        assert code == 0
        table = CsvTable.parse(out)
        assert table.header == ("n", "exact", "value", "asymptote")
        exact = [row[1] for row in table.rows]
        assert exact == [
            1,
            2,
            Fraction(8, 3),
            Fraction(16, 5),
            Fraction(128, 35),
            Fraction(256, 63),
            Fraction(1024, 231),
            Fraction(2048, 429),
        ]
        assert "2048/429" in out.splitlines()[-1]

    def test_expert_table(self, capsys):
        code, out, _ = invoke(capsys, "rates", "expert", "--n-max", "15")
        assert code == 0
        table = CsvTable.parse(out)
        exact = [row[1] for row in table.rows[1:]]
        assert exact == [
            Fraction(3, 2),
            Fraction(15, 8),
            Fraction(35, 16),
            Fraction(315, 128),
            Fraction(693, 256),
            Fraction(3003, 1024),
            Fraction(6435, 2048),
        ]

    # The first --n-max whose table passes the default 4,300-digit limit for
    # integer text, per kind; the table two sizes smaller still renders.
    FIRST_UNRENDERABLE = {"critical": 14297, "expert": 14289}
    TOO_LONG = "error: cell value exceeds the 4300-digit limit for integer string conversion\n"

    @pytest.fixture
    def default_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("kind", FIRST_UNRENDERABLE)
    def test_unrenderable_table_is_refused_from_its_last_row(self, capsys, monkeypatch, default_digit_limit, kind):
        n_max = self.FIRST_UNRENDERABLE[kind]
        exact = cli.asymptotic_rate_check

        def last_row_only(n, k):
            assert n == n_max, f"rate at n = {n} computed for a table that cannot be rendered"
            return exact(n, k)

        monkeypatch.setattr(cli, "asymptotic_rate_check", last_row_only)
        assert invoke(capsys, "rates", kind, "--n-max", str(n_max)) == (1, "", self.TOO_LONG)
        check = asymptotic_rate_check(n_max - 2, kind)
        render_row((n_max - 2, check.exact, float(check.exact), check.asymptote))

    @pytest.mark.parametrize("kind", FIRST_UNRENDERABLE)
    def test_largest_renderable_table_is_kept_in_order(self, capsys, monkeypatch, default_digit_limit, kind):
        # every row but the last is a stand-in, so the 23 s of exact rates below it are skipped
        top = self.FIRST_UNRENDERABLE[kind] - 2
        exact = cli.asymptotic_rate_check
        stand_in = AsymptoticCheck(Fraction(1), 1.0, 0.0)
        monkeypatch.setattr(cli, "asymptotic_rate_check", lambda n, k: exact(n, k) if n == top else stand_in)
        code, out, _ = invoke(capsys, "rates", kind, "--n-max", str(top + 1))
        assert code == 0
        assert [int(line.split(",")[0]) for line in out.splitlines()[1:]] == list(range(1, top + 1, 2))

    @pytest.mark.parametrize("n_max", ["17201", str(10**38), "1" + "0" * 400], ids=["17201", "1e38", "1e400"])
    def test_far_too_large_table_is_refused_before_any_rate(self, capsys, monkeypatch, default_digit_limit, n_max):
        monkeypatch.setattr(cli, "asymptotic_rate_check", None)  # calling it now raises TypeError
        for kind in self.FIRST_UNRENDERABLE:
            assert invoke(capsys, "rates", kind, "--n-max", n_max) == (1, "", self.TOO_LONG)


class TestTables:
    def test_tradeoff_columns(self, capsys):
        code, out, _ = invoke(
            capsys, "tradeoff", "--c1", "1", "--cg", "2", "--n", "3", "--t-max", "1", "--points", "11"
        )
        assert code == 0
        table = CsvTable.parse(out)
        assert table.header == ("T", "P_single", "P_group")
        assert len(table.rows) == 11
        assert table.rows[0] == (0.0, 0.5, 0.5)

    def test_cost_rows(self, capsys):
        code, out, _ = invoke(
            capsys, "cost", "--pstar", "0.8", "--profile", "linear:c=1.0", "--n-list", "1,3,5"
        )
        assert code == 0
        table = CsvTable.parse(out)
        assert [row[0] for row in table.rows] == [1, 3, 5]
        assert table.rows[0][1] == pytest.approx(0.3, abs=1e-9)

    def test_cost_unattainable_is_clean_failure(self, capsys):
        code, out, err = invoke(
            capsys, "cost", "--pstar", "0.9", "--profile", "plateau:a=1.0,cap=0.55", "--n-list", "3"
        )
        assert code == 1
        assert out == ""  # no partial CSV
        assert "error:" in err

    def test_simulate_scenario(self, capsys):
        code, out, _ = invoke(capsys, "simulate", "--scenario", "drift3")
        assert code == 0
        table = CsvTable.parse(out)
        assert table.header == ("t", "p1", "p2", "p3", "P_group")
        assert len(table.rows) == 6001
        assert all(isinstance(c, (int, float)) for row in table.rows for c in row)
        # P(correct) for (0.55, 0.75, 0.45): sum of pair products - 2 * triple
        assert table.rows[0] == (0.0, 0.55, 0.75, 0.45, pytest.approx(0.62625, abs=1e-12))

    def test_simulate_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("n = 1\ninitial = 0.5\nkappa = 0.1\nt_end = 1\nstep = 0.1\n")
        code, out, _ = invoke(capsys, "simulate", "--config", str(cfg))
        assert code == 0
        assert len(CsvTable.parse(out).rows) == 11

    def test_simulate_needs_exactly_one_source(self, capsys):
        code, *_ = invoke(capsys, "simulate")
        assert code == 1
        code, *_ = invoke(capsys, "simulate", "--scenario", "drift3", "--config", "x.cfg")
        assert code == 1

    def test_correlate(self, capsys):
        code, out, _ = invoke(
            capsys, "correlate", "--model", "exactmajority:n=5", "--trials", "1000", "--seed", "1"
        )
        assert code == 0
        table = CsvTable.parse(out)
        assert table.header == ("estimate", "stderr")
        assert table.rows[0][0] == 1.0

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "table.csv"
        code, out, _ = invoke(capsys, "rates", "critical", "--n-max", "5", "--out", str(dest))
        assert code == 0
        assert out == ""
        assert "8/3" in dest.read_text()


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_cached_parser_carries_no_state_between_calls(capsys, tmp_path):
    tie_message = "error: group size 4 is even; choose a tie rule such as FAIR_COIN\n"
    assert invoke(capsys, "majority", "--n", "4", "--p", "0.6", "--tie-break", "fair-coin")[0] == 0
    assert invoke(capsys, "majority", "--n", "4", "--p", "0.6") == (1, "", tie_message)
    assert invoke(capsys, "majority", "--n", "x")[0] == 2
    assert invoke(capsys, "majority", "--n", "3", "--p", "0.6") == (0, "0.648\n", "")
    dest = tmp_path / "value.csv"
    assert invoke(capsys, "majority", "--n", "3", "--p", "0.6", "--out", str(dest)) == (0, "", "")
    assert dest.read_text() == "0.648\n"
    assert invoke(capsys, "majority", "--n", "3", "--p", "0.6") == (0, "0.648\n", "")


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert invoke(capsys, "frobnicate")[0] == 2

    def test_unknown_flag(self, capsys):
        assert invoke(capsys, "majority", "--banana", "1")[0] == 2

    def test_domain_error(self, capsys):
        code, out, err = invoke(capsys, "majority", "--n", "3", "--p", "1.5")
        assert code == 1 and out == "" and "error:" in err

    def test_unwritable_out_file(self, capsys, tmp_path):
        dest = tmp_path / "missing" / "table.csv"
        code, out, err = invoke(capsys, "rates", "critical", "--n-max", "5", "--out", str(dest))
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot write output: ") and err.count("\n") == 1

    def test_unreadable_input_file(self, capsys, tmp_path):
        undecodable = tmp_path / "binary"
        undecodable.write_bytes(b"\xff\xfe\x00")
        commands = {"config": ("simulate", "--config"), "covariance": ("bound", "ladha", "--probs", "0.6", "--cov")}
        for what, argv in commands.items():
            for path in (undecodable, tmp_path / "missing"):
                code, out, err = invoke(capsys, *argv, str(path))
                assert (code, out) == (1, "")
                assert err.startswith(f"error: cannot read {what} file: ") and err.count("\n") == 1

    # (argv, exit code, stderr) for the checks behind the cost path
    COST_REJECTIONS = [
        (
            ("cost", "--pstar", "0.8", "--profile", "linear:c=1.0", "--n-list", "4"),
            1,
            "error: group size must be an odd integer >= 1, got 4\n",
        ),
        (
            ("cost", "--pstar", "0.5", "--profile", "linear:c=1.0", "--n-list", "3"),
            1,
            "error: target competence must lie strictly between 1/2 and 1, got 0.5\n",
        ),
        (
            ("cost", "--pstar", "1", "--profile", "linear:c=1.0", "--n-list", "3"),
            1,
            "error: target competence must lie strictly between 1/2 and 1, got 1.0\n",
        ),
    ]

    @pytest.mark.parametrize("argv, code, stderr", COST_REJECTIONS, ids=["even-n", "pstar-half", "pstar-one"])
    def test_cost_rejection_messages(self, capsys, argv, code, stderr):
        assert invoke(capsys, *argv) == (code, "", stderr)

    # (argv, exit code, stderr) for missing or clashing arguments, a group
    # size beyond float range, a grid one point above its ceiling, and input
    # files that fail to parse or to integrate; a {name} argument is the path
    # of FILES[name]
    FILES = {
        "text-cov": "2\n0.24 x\n0 0.24\n",
        "short-row-cov": "2\n0.24 0\n0\n",
        "blow-up": "n = 2\ninitial = 0.55, 0.5\nkappa = 1e308\nmultiplier = 10\nt_end = 1\nstep = 0.5\n",
    }
    NO_JURY = "error: specify either --n/--p or --probs\n"
    BAD_COV = "error: covariance entries must be finite numbers, every row of one length\n"
    ARGUMENT_REJECTIONS = {
        "majority-no-jury": (("majority",), 1, NO_JURY),
        "majority-two-juries": (("majority", "--n", "3", "--p", "0.6", "--probs", "0.6"), 1, NO_JURY),
        "majority-n-without-p": (("majority", "--n", "3"), 1, "error: --n requires --p\n"),
        "concentration-without-pbar": (
            ("bound", "concentration", "--n", "3"),
            1,
            "error: bound concentration requires --n and --pbar\n",
        ),
        "concentration-n-beyond-float": (
            ("bound", "concentration", "--n", "1" + "0" * 400, "--pbar", "0.6"),
            1,
            "error: group size must be positive and finite, got inf\n",
        ),
        "tradeoff-points-above-ceiling": (
            ("tradeoff", "--c1", "1", "--cg", "2", "--n", "3", "--t-max", "1", "--points", "1000001"),
            1,
            "error: points must be at most 1000000, got 1000001\n",
        ),
        "ladha-without-cov": (
            ("bound", "ladha", "--probs", "0.6"),
            1,
            "error: bound ladha requires --probs and --cov FILE\n",
        ),
        "ladha-text-entry": (("bound", "ladha", "--probs", "0.6,0.6", "--cov", "{text-cov}"), 1, BAD_COV),
        "ladha-short-row": (("bound", "ladha", "--probs", "0.6,0.6", "--cov", "{short-row-cov}"), 1, BAD_COV),
        "simulate-blow-up": (("simulate", "--config", "{blow-up}"), 1, "error: non-finite state at t = 0.5\n"),
    }

    @pytest.mark.parametrize("argv, code, stderr", ARGUMENT_REJECTIONS.values(), ids=ARGUMENT_REJECTIONS.keys())
    def test_argument_and_file_rejections(self, capsys, tmp_path, argv, code, stderr):
        for name, text in self.FILES.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / arg[1:-1]) if arg.startswith("{") else arg for arg in argv]
        assert invoke(capsys, *argv) == (code, "", stderr)

    def test_console_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "jurylearn", "majority", "--n", "3", "--p", "0.6"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert float(result.stdout.strip()) == pytest.approx(0.648, abs=1e-12)


class TestFigures:
    def test_figure_one_columns(self, capsys):
        code, out, _ = invoke(capsys, "figure", "--id", "1")
        assert code == 0
        table = CsvTable.parse(out)
        assert table.header == ("p", "P_1", "P_3", "P_5", "P_7", "P_91")
        assert table.rows[0][0] == 0.5
        assert table.rows[-1][0] == 1.0
        assert len(table.rows) == 512

    def test_figure_invalid_id(self, capsys):
        assert invoke(capsys, "figure", "--id", "9")[0] == 2

    @pytest.mark.parametrize(
        "fig_id, sha256",
        [
            (1, "b42ae79a85af4ab5fbdc2de1e1155c210cb38ec61176b62915c1d0fcbc3f56c5"),
            (2, "035bd5892cbe278be0c0835ca5df4474f3422e3b4eaa7584b68a2344166bfa01"),
            (3, "303103a5d35e8551e0eaba17b394a8f4a50520d9a5cf2dad4c3fba02bd4a3a44"),
            (4, "80429425db14aa1dc2aabcf55dc129de0c1647dcf4582f530ac6746a1c4a580e"),
            (5, "f3f6cd594a0884fdb5976352cb821dfe18471bfe344fac5289ff5443a904bda2"),
            (6, "15b19bdc15464a4e035f7dfac9643ed73644abd5790f8d760e9a5f5e39b25c06"),
            (7, "e8be5009db570fb2dd58a9031f302df15d3272f8efa761524f1f163ca1b89f46"),
            (8, "b37ea8053b4b72663c5358e953454d3defc0dfefcdfae6942dba899d2d00c48e"),
        ],
        ids=[str(fig_id) for fig_id in range(1, 9)],
    )
    def test_figures_deterministic(self, capsys, fig_id, sha256):
        _, first, _ = invoke(capsys, "figure", "--id", str(fig_id))
        _, second, _ = invoke(capsys, "figure", "--id", str(fig_id))
        assert first == second and first
        assert hashlib.sha256(first.encode()).hexdigest() == sha256

    @pytest.mark.parametrize("fig_id", [1, 4, 6, 7, 8])
    def test_figure_round_trip(self, capsys, fig_id):
        _, out, _ = invoke(capsys, "figure", "--id", str(fig_id))
        table = CsvTable.parse(out)
        assert table.render() == out
        # every data cell must re-parse as a number, never as leftover text
        assert all(isinstance(c, (int, float)) for row in table.rows for c in row)


def test_header_cell_with_a_comma_is_refused():
    with pytest.raises(DomainError):
        CsvTable(("n", "a,b"), [(1, 2)]).render()


def test_undefined_fraction_reparses_as_text():
    assert CsvTable.parse("a\n1/0\n").rows == (("1/0",),)


@pytest.mark.parametrize("cell", [10**5000, Fraction(10**5000 + 1, 3)], ids=["int", "fraction"])
def test_cell_beyond_the_digit_limit_is_refused(cell):
    with pytest.raises(DomainError, match="digit limit"):
        render_row([cell])


class TestRoundTrip:
    # (argv, SHA-256 of stdout): the digests pin every byte of the tables
    # built by the fixed-budget and cost sweeps.
    CASES = [
        (
            ("rates", "critical", "--n-max", "21"),
            "780ac8d56105d27f9d673296e0ae061a69cb032f857a7ad9c62107a1d024d974",
        ),
        (
            ("rates", "expert", "--n-max", "21"),
            "777fa9ee3671e96fe511c1d934c82324085d720e93b45d7f445b17edba6e49a4",
        ),
        (
            ("tradeoff", "--c1", "1", "--cg", "2.5", "--n", "3", "--t-max", "1.5", "--points", "64"),
            "39254892e2cda3b88af6df6a3f594f80d37804ce5a89f7d50e325ade18750f7d",
        ),
        (
            ("cost", "--pstar", "0.8", "--profile", "power:alpha=0.55", "--n-list", "1,3,5,7"),
            "6d5a591ab91968594642494939d8866f504b8e3bb5d130fc1d43bc09cdfffcd3",
        ),
        (
            ("correlate", "--model", "commoncoin:p=0.6,lambda=0.25,n=5", "--trials", "4096", "--seed", "5"),
            "334bb308ab46a327793a8d7f1ba0a30da1b6cfa3c781fd19f60d41d2c337ee5d",
        ),
        (
            ("cost", "--pstar", "0.8", "--profile", "linear:c=1.0", "--n-list", "1,3,5,7,9,11"),
            "ff82fa1bc6638f2baf611865413a0fe96152b26888cbb261773a2e0c635ca5c9",
        ),
        (
            ("cost", "--pstar", "0.6", "--profile", "plateau:a=1.0,cap=0.6667", "--n-list", "1,3,5,7"),
            "7d662178cf27810d0fc51c3c55654a81bbe3c0c5b6a731b082c99bbcbbb3d082",
        ),
    ]

    @pytest.mark.parametrize("argv, sha256", CASES, ids=[f"argv{i}" for i in range(len(CASES))])
    def test_emitted_tables_reparse_exactly(self, capsys, argv, sha256):
        _, out, _ = invoke(capsys, *argv)
        table = CsvTable.parse(out)
        assert table.render() == out
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

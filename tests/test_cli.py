import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from univoque import cli, expansions
from univoque.cli import main
from univoque.errors import (BoundaryAmbiguityError, MiddleGapError, NotInImageError,
                             NotParryError, OutOfDomainError, PreconditionViolated,
                             TooLargeError, UnivoqueError)
from univoque.trapezoid import Itinerary
from univoque.words import PeriodicSeq
from util import affine_lr_cycles

TABLE_CSV = """n,d_beta_n,defining_poly,minimal_poly_if_divides,beta_n,below_KL
2,11,x^2-x-1,x^2-x-1,1.61803,yes
3,111,x^3-x^2-x-1,x^3-x^2-x-1,1.83929,no
4,1101,x^4-x^3-x^2-1,x^3-2x^2+x-1,1.75488,yes
5,11011,x^5-x^4-x^3-x-1,x^5-x^4-x^3-x-1,1.81240,no
6,110101,x^6-x^5-x^4-x^2-1,x^6-x^5-x^4-x^2-1,1.78854,no
7,1101011,x^7-x^6-x^5-x^3-x-1,x^6-2x^5+x^4-x^3-1,1.80509,no
8,11010011,x^8-x^7-x^6-x^4-x-1,x^5-2x^4+x^2-1,1.78460,yes
"""

TABLE_24_ROWS = {
    16: "16,1101001100101101,x^16-x^15-x^14-x^12-x^9-x^8-x^5-x^3-x^2-1,"
        "x^9-2x^8+x^6-x^5+x^4-x^2+x-1,1.78721,yes",
    24: "24,110100110010110100101101,"
        "x^24-x^23-x^22-x^20-x^17-x^16-x^13-x^11-x^10-x^8-x^5-x^3-x^2-1,"
        "x^21-2x^20+x^18-x^16-x^10+x^9-x^8-x^2+x-1,1.78723,no",
}

README = Path(__file__).resolve().parent.parent / "README.md"
GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTable:
    def test_csv_matches_reference(self, capsys):
        code, out, _ = run(capsys, "table", "8", "--format", "csv")
        assert code == 0
        assert out.replace("\r\n", "\n") == TABLE_CSV

    def test_readme_block_matches_reference(self):
        text = README.read_text()
        start = text.index(TABLE_CSV.splitlines()[0])
        assert text[start:text.index("```", start)] == TABLE_CSV

    def test_minimal_degrees_past_the_paper_table(self, capsys):
        code, out, _ = run(capsys, "table", "24", "--format", "csv")
        rows = {int(line.split(",")[0]): line for line in out.splitlines()[1:]}
        assert code == 0
        assert {k: rows[k] for k in TABLE_24_ROWS} == TABLE_24_ROWS

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "table", "5", "--format", "json")
        _, second, _ = run(capsys, "table", "5", "--format", "json")
        assert first == second

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "table", "3")
        assert code == 0
        assert "defining_poly" in out.splitlines()[0]
        assert len(out.splitlines()) == 3

    @pytest.mark.parametrize("n_max", ["257", "1000"])
    def test_rows_past_the_cap_fail_before_any_threshold(self, capsys, monkeypatch, n_max):
        def unreachable(*args):
            raise AssertionError("a threshold was built")

        monkeypatch.setattr(cli.thresholds, "threshold_beta", unreachable)
        code, out, err = run(capsys, "table", n_max)
        assert (code, out) == (1, "")
        assert err == "error: table capped at n_max <= TABLE_LIMIT = 256\n"

    def test_reads_no_orbit_of_one(self, capsys, monkeypatch):
        # d_beta_n is a_n with its last 0 raised, read from the word
        def unreachable(*args):
            raise AssertionError("an exact orbit was read")

        monkeypatch.setattr(expansions._AlgebraicOrbit, "extend", unreachable)
        code, out, _ = run(capsys, "table", "24", "--format", "csv")
        assert code == 0
        assert out.encode() == (GOLDEN / "table_24_csv.out").read_bytes()


def test_golden_files_match_the_case_list():
    """One .out and one .err per listed case and nothing else, so no
    recorded output sits unlisted where no test and no CI step runs it."""
    files = {path.name for path in GOLDEN.iterdir()}
    want = {f"{name}.{ext}" for name in GOLDEN_CASES for ext in ("out", "err")}
    assert files == want | {"cases.json"}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_output_matches_golden(capsys, name):
    """Stdout, stderr and exit code of fixed commands, byte for byte, as
    each printed from a fresh interpreter when recorded.  Certified
    intervals and digits must not move when the arithmetic behind them
    changes, nor must the undecided messages and budgets of exit 2.
    A case with a timeout runs in a subprocess that is stopped after that
    many seconds, so a slow build fails the case instead of stalling."""
    case = GOLDEN_CASES[name]
    if "timeout" in case:
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-m", "univoque.cli", *case["argv"]],
                              capture_output=True, env=env, timeout=case["timeout"])
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    else:
        code, text, errtext = run(capsys, *case["argv"])
        out, err = text.encode(), errtext.encode()
    assert code == case["exit"]
    assert out == (GOLDEN / f"{name}.out").read_bytes()
    assert err == (GOLDEN / f"{name}.err").read_bytes()


class TestScalarCommands:
    def test_beta_n(self, capsys):
        code, out, _ = run(capsys, "beta-n", "5", "--eps", "1e-8")
        assert code == 0 and out.strip() == "1.81240"

    def test_beta_n_at_period_1024(self, capsys):
        code, out, _ = run(capsys, "beta-n", "1024")
        assert code == 0 and out.strip() == "1.78723"

    def test_beta_n_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "beta-n", "2", "--format", "json")
        data = json.loads(out)
        assert data["poly"] == "x^2-x-1"
        assert abs(float(data["beta"]) - 1.6180339887) < 1e-9

    def test_kl(self, capsys):
        code, out, _ = run(capsys, "kl")
        assert code == 0 and out.strip() == "1.78723"

    def test_kl_json_does_not_depend_on_earlier_calls(self, capsys):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        first = subprocess.run([sys.executable, "-m", "univoque.cli", "kl", "--format", "json"],
                               capture_output=True, text=True, env=env, timeout=20)
        assert run(capsys, "kl")[0] == 0
        assert run(capsys, "kl", "--format", "json") == (first.returncode, first.stdout, "")

    def test_q_n(self, capsys):
        code, out, _ = run(capsys, "q-n", "3")
        assert code == 0 and out.strip() == "1.46557"

    def test_a_k_both_agree(self, capsys):
        code, out, _ = run(capsys, "a-k", "12")
        lines = dict(line.split() for line in out.splitlines())
        assert code == 0
        assert lines["recursive"] == lines["explicit"] == "(110100110010)^w"

    def test_expand(self, capsys):
        code, out, _ = run(capsys, "expand", "--beta", "poly:[-1,-1,1]@(1,2)",
                           "--x", "1", "--digits", "4")
        assert code == 0 and out.strip() == "1100"

    def test_check_unique(self, capsys):
        code, out, _ = run(capsys, "check-unique", "--beta", "float:1.5",
                           "--seq", "(01)^w")
        assert code == 0 and out.strip() == "false"
        code, out, _ = run(capsys, "check-unique", "--beta", "float:1.9",
                           "--seq", "(01)^w")
        assert code == 0 and out.strip() == "true"


class TestRoundTrips:
    def test_printed_sequences_reparse(self, capsys):
        _, out, _ = run(capsys, "a-k", "24", "--method", "recursive")
        seq = PeriodicSeq.parse(out.strip())
        assert str(seq) == out.strip()

    def test_printed_itineraries_reparse(self, capsys):
        _, out, _ = run(capsys, "lr-cycles", "--beta", "float:1.8", "--n", "2")
        text = out.strip()
        assert str(Itinerary.parse(text)) == text


class TestVerification:
    def test_verify_order_text(self, capsys):
        code, out, _ = run(capsys, "verify-order", "8")
        assert code == 0
        assert out.splitlines()[0] == ("beta_2 < beta_4 < beta_8 < beta_6 "
                                       "< beta_7 < beta_5 < beta_3")
        assert out.splitlines()[1] == "violations: 0"

    def test_verify_order_json(self, capsys):
        code, out, _ = run(capsys, "verify-order", "6", "--format", "json")
        data = json.loads(out)
        assert data["violations"] == []
        assert [c["n"] for c in data["chain"]] == [2, 4, 6, 5, 3]

    def test_verify_lemmas(self, capsys):
        code, out, _ = run(capsys, "verify-lemmas")
        data = json.loads(out)
        assert code == 0 and data["ok"] is True

    @pytest.mark.parametrize("option", ["--seed", "--cases"])
    def test_verify_lemmas_takes_no_options(self, capsys, monkeypatch, option):
        def unreachable():
            raise AssertionError("a lemma check ran")

        monkeypatch.setattr(cli.oracle, "lemma_report", unreachable)
        with pytest.raises(SystemExit) as exc:
            main(["verify-lemmas", option, "7"])
        out = capsys.readouterr()
        assert (exc.value.code, out.out) == (1, "")
        assert out.err.endswith(f"error: unrecognized arguments: {option} 7\n")

    def test_conjecture_scan_runs(self, capsys):
        code, out, _ = run(capsys, "conjecture-2n", "--n", "1", "--steps", "3",
                           "--beta-min", "1.60", "--beta-max", "1.64")
        assert code == 0
        assert len(out.splitlines()) == 4  # header plus three scan lines

    def test_conjecture_scan_refuses_beyond_necklace_cap(self, capsys):
        # 2^5 = 32 exceeds the cycle search's necklace cap: no rows at all
        code, out, err = run(capsys, "conjecture-2n", "--n", "5", "--steps", "3")
        assert code == 1
        assert out == ""
        assert "NECKLACE_LIMIT" in err

    def test_lr_cycles_capped_at_necklace_limit(self, capsys):
        code, out, err = run(capsys, "lr-cycles", "--beta", "float:1.8", "--n", "25")
        assert code == 1
        assert out == ""
        assert "NECKLACE_LIMIT" in err


class TestOrbits:
    def test_trapezoid_orbit(self, capsys):
        code, out, _ = run(capsys, "orbit", "--beta", "float:1.8", "--x", "0.3",
                           "--steps", "2", "--map", "T")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("L ")
        assert len(lines) == 3

    def test_gap_orbit_hits_gap(self, capsys):
        code, _, err = run(capsys, "orbit", "--beta", "float:1.9", "--x", "0.55",
                           "--steps", "3", "--map", "F")
        assert code == 1
        assert "middle gap" in err


class TestOutputGates:
    @pytest.mark.parametrize("beta", ["1.62", "1.8", "1.95"])
    def test_lr_cycles_json_matches_affine_reference(self, capsys, beta):
        for n in range(1, 9):
            code, out, err = run(capsys, "lr-cycles", "--beta", f"float:{beta}",
                                 "--n", str(n), "--format", "json")
            assert (code, err) == (0, "")
            assert out == json.dumps(affine_lr_cycles(float(beta), n)) + "\n"

    @pytest.mark.parametrize("argv", [
        ["orbit", "--beta", "float:1.8", "--x", "1e300", "--map", "F"],
        ["orbit", "--beta", "float:1.8", "--x", "0.3", "--map", "F"],  # gap after five steps
        ["conjecture-2n", "--n", "1", "--steps", "3", "--beta-max", "2.5"],  # second row above 2
    ])
    def test_failed_orbit_prints_nothing(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ")

    def test_out_of_range_exact_point_gets_a_short_message(self, capsys):
        code, out, err = run(capsys, "expand", "--beta", "poly:[-1,-1,1]@(1,2)",
                             "--x", "1e400")
        assert code == 1 and out == ""
        assert err == "error: x must lie in [0, 1], got a value above 1\n"


class TestExitCodes:
    def test_domain_error_is_one(self, capsys):
        code, _, err = run(capsys, "beta-n", "1")
        assert code == 1 and "error:" in err

    def test_undecided_is_two(self, capsys):
        code, _, err = run(capsys, "check-unique", "--beta",
                           "float:1.6180339887498949", "--seq", "(10)^w")
        assert code == 2 and "undecided" in err

    def test_isolation_past_its_depth_cap_is_two(self, capsys):
        """Two roots 2^-500 apart, 1 + 1/N and 1 + 2/N for N = 2^500."""
        n = 2 ** 500
        base = f"poly:[{(n + 1) * (n + 2)},{-n * (2 * n + 3)},{n * n}]@(1,2)"
        code, out, err = run(capsys, "check-unique", "--beta", base, "--seq", "(10)^w")
        assert (code, out) == (2, "")
        assert err == ("undecided: root isolation did not converge within depth 400 "
                       "(budget 400)\n")

    def test_extension_below_threshold_is_one(self, capsys):
        code, _, err = run(capsys, "extension3", "--beta", "float:1.7")
        assert code == 1 and "period-4 threshold" in err

    @pytest.mark.parametrize("error", [
        UnivoqueError, PreconditionViolated, NotParryError, MiddleGapError,
        OutOfDomainError, BoundaryAmbiguityError, NotInImageError, TooLargeError,
        ValueError,
    ])
    def test_every_other_package_error_is_one(self, capsys, monkeypatch, error):
        """Only the two undecided errors exit 2; every other package
        error exits 1 with its message, the base class itself included."""
        def fail(*args):
            raise error("no root here")
        monkeypatch.setattr(cli.thresholds, "threshold_beta", fail)
        assert run(capsys, "beta-n", "5") == (1, "", "error: no root here\n")

    @pytest.mark.parametrize("argv, end", [
        (["lr-cycles", "--beta", "poly:[-1,1]@(1,1)", "--n", "3"], 1),
        (["orbit", "--beta", "poly:[-1,1]@(1,1)", "--x", "0.5", "--map", "T"], 1),
        (["extension3", "--beta", "poly:[-2,1]@(2,2)"], 2),
        (["check-unique", "--beta", "poly:[-2,1]@(2,2)", "--seq", "(01)^w"], 2),
        (["expand", "--beta", "poly:[-1,1]@(1,1)", "--x", "1/2"], 1),
    ])
    def test_base_at_an_end_of_the_domain_is_one(self, capsys, argv, end):
        """A root at 1 or 2 is refused as FloatBeta refuses the float."""
        assert run(capsys, *argv) == (1, "", f"error: base {argv[2]!r}: base must lie "
                                             f"strictly inside (1, 2), got {float(end)}\n")

    def test_usage_error_is_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["beta-n", "2", "--format", "csv"],
        ["check-unique", "--beta", "float:1.9", "--seq", "(01)^w", "--format", "json"],
    ])
    def test_format_offered_only_where_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "--format" in capsys.readouterr().err


# The ids are the names these cases had when each also carried an
# environment value; argv6 was the case that needed one.
MALFORMED_INPUT = {
    "None-argv0": ["beta-n", "5", "--eps", "inf"],
    "None-argv1": ["table", "3", "--eps", "inf"],
    "None-argv2": ["q-n", "3", "--eps", "inf"],
    "None-argv3": ["kl", "--eps", "inf"],
    "None-argv4": ["beta-n", "5", "--eps", "0"],
    "None-argv5": ["kl", "--eps", "nan"],
    "None-argv7": ["check-unique", "--beta", "float:1.9", "--seq", "(01)^w", "--budget", "0"],
    "None-argv8": ["check-unique", "--beta", "float:1.9", "--seq", "(01)^w", "--budget", "-5"],
    "None-argv9": ["expand", "--beta", "float:1.8", "--x", "1/0"],
    "None-argv10": ["orbit", "--beta", "float:1.8", "--x", "1/0"],
    "None-argv11": ["check-unique", "--beta", "poly:[-1,-1,1]@(1/0,2)", "--seq", "(01)^w"],
    "None-argv12": ["expand", "--beta", "float:1.8", "--x", "1e400"],
}


@pytest.mark.parametrize("argv", MALFORMED_INPUT.values(), ids=MALFORMED_INPUT.keys())
def test_malformed_input_is_rejected_without_traceback(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejections
        code = exc.code
    err = capsys.readouterr().err
    assert code in (1, 2)
    # argparse prefixes its messages with the program and subcommand name
    assert re.match(r"(univoque [\w-]+: )?(error|undecided):", err), err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["expand", "--beta", "float:1.8", "--x", "nan"], "x must be a finite number, got 'nan'"),
    (["expand", "--beta", "float:1.8", "--x", "inf"], "x must be a finite number, got 'inf'"),
    (["expand", "--beta", "float:1.8", "--x", "abc"], "x must be a finite number, got 'abc'"),
    (["orbit", "--beta", "float:1.8", "--x", "nan"], "x must be a finite number, got 'nan'"),
    (["orbit", "--beta", "float:1.8", "--x", "abc"], "x must be a finite number, got 'abc'"),
    (["check-unique", "--beta", "poly:[a]@(1,2)", "--seq", "(01)^w"],
     "cannot parse base: 'poly:[a]@(1,2)'"),
    (["check-unique", "--beta", "float:abc", "--seq", "(01)^w"], "cannot parse base: 'float:abc'"),
    (["check-unique", "--beta", "poly:[-1,-1,1]@(1,x)", "--seq", "(01)^w"],
     "cannot parse base: 'poly:[-1,-1,1]@(1,x)'"),
    (["check-unique", "--beta", "poly:[0]@(1,2)", "--seq", "(01)^w"],
     "base 'poly:[0]@(1,2)': the zero polynomial isolates no root"),
    (["check-unique", "--beta", "poly:[1,0,1]@(1,2)", "--seq", "(01)^w"],
     "base 'poly:[1,0,1]@(1,2)': expected exactly one root in (1, 2), found 0"),
    (["expand", "--beta", "poly:[-1,-1,1]@(2,1)", "--x", "1"],
     "base 'poly:[-1,-1,1]@(2,1)': empty interval"),
    (["check-unique", "--beta", "poly:[-1,-1,1]@(0,2)", "--seq", "(01)^w"],
     "base 'poly:[-1,-1,1]@(0,2)': isolating interval must lie inside [1, 2]"),
    (["expand", "--beta", "poly:[0]@(3/2,3/2)", "--x", "1", "--digits", "4"],
     "base 'poly:[0]@(3/2,3/2)': the zero polynomial isolates no root"),
])
def test_malformed_text_is_named(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, condition", [
    (["orbit", "--beta", "float:1.8", "--x", "0.3", "--steps", "-1"], "steps must be >= 0"),
    (["conjecture-2n", "--steps", "-3"], "steps must be >= 0"),
    (["expand", "--beta", "float:1.8", "--x", "0.3", "--digits", "-1"],
     "digit count must be nonnegative"),
    (["lr-cycles", "--beta", "float:1.8", "--n", "0"], "cycle length must be positive"),
    (["conjecture-2n", "--n", "0"], "n must be >= 1"),
    (["conjecture-2n", "--n", "-1"], "n must be >= 1"),
])
def test_counts_that_mean_nothing_are_rejected(capsys, argv, condition):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and condition in err


class _WorkStarted(Exception):
    pass


@pytest.mark.parametrize("argv, limit, message", [
    (["expand", "--beta", "float:1.8", "--x", "0.3", "--digits"], cli.DIGITS_LIMIT,
     "expansion capped at digits <= DIGITS_LIMIT = 10000"),
    (["orbit", "--beta", "float:1.8", "--x", "0.3", "--steps"], cli.STEPS_LIMIT,
     "orbit capped at steps <= STEPS_LIMIT = 100000"),
    (["conjecture-2n", "--n", "1", "--steps"], cli.SCAN_LIMIT,
     "scan capped at steps <= SCAN_LIMIT = 100"),
    (["table"], cli.TABLE_LIMIT, "table capped at n_max <= TABLE_LIMIT = 256"),
    (["verify-order"], cli.oracle.ORDER_LIMIT,
     "all-pairs verification capped at n_max <= ORDER_LIMIT = 30"),
])
def test_counts_past_their_cap_fail_before_any_work(capsys, monkeypatch, argv, limit, message):
    def started(*args, **kwargs):
        raise _WorkStarted

    monkeypatch.setattr(cli, "as_beta", started)
    monkeypatch.setattr(cli.thresholds, "threshold_beta", started)
    monkeypatch.setattr(cli.oracle, "threshold_beta", started)
    with pytest.raises(_WorkStarted):  # the cap itself is allowed
        main(argv + [str(limit)])
    for count in (limit + 1, 10 ** 15):
        code, out, err = run(capsys, *argv, str(count))
        assert (code, out, err) == (1, "", f"error: {message}\n")


def test_kl_refuses_eps_below_its_floor():
    # a subprocess, so that a regression to an endless bisection fails
    # on the timeout instead of hanging the suite
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "univoque.cli", "kl", "--eps", "1e-300"],
                          capture_output=True, text=True, env=env, timeout=20)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and "2^-100" in proc.stderr


@pytest.mark.parametrize("value", ["1e-4", "abc"])
def test_environment_does_not_set_eps(capsys, monkeypatch, value):
    monkeypatch.setenv("UNIVOQUE_EPS", value)
    code, out, _ = run(capsys, "beta-n", "2", "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert Fraction(data["hi"]) - Fraction(data["lo"]) < Fraction(1, 10 ** 8)


def _subcommands() -> dict:
    """The shared parser's subcommand parsers, by name."""
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _documented_commands() -> list[list[str]]:
    """Every `univoque ...` line of README's command block and of the
    CLI module docstring, as argv lists."""
    text = README.read_text()
    block = text[text.index("```text", text.index("## Command line")):]
    lines = block[:block.index("```", 3)].splitlines() + cli.__doc__.splitlines()
    # README lines end in a description set off by two or more spaces
    return [shlex.split(re.split(r"\s{2,}", line.strip())[0])[1:]
            for line in lines if line.strip().startswith("univoque ")]


@pytest.fixture
def parser_builds(monkeypatch):
    """Counts `_Parser` constructions; returns the count list and the
    number of parsers in one command tree."""
    tree = 1 + len(_subcommands())
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    return built, tree


def test_documented_commands_run(capsys, parser_builds):
    commands = _documented_commands()
    assert len(commands) == 26
    assert {argv[0] for argv in commands} == set(_subcommands())
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
    built, tree = parser_builds
    assert len(built) <= tree


def test_main_builds_at_most_one_parser_tree(capsys, parser_builds):
    for _ in range(3):
        assert run(capsys, "check-unique", "--beta", "float:1.9", "--seq", "(01)^w")[0] == 0
    built, tree = parser_builds
    assert len(built) <= tree

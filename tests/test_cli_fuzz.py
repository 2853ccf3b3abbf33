"""A seeded grammar fuzz of the command line: a few hundred `cli.main`
calls over all 13 subcommands, drawn from edge values.  Every call must
exit 0, 1 or 2, with no traceback, within a per-call time bound, and a
nonzero exit must come with a message.

The edge values are bases at 1, at 2, at thresholds and outside (1, 2);
`poly:` text with empty or zero coefficients; x at +-inf, NaN, 1/0 and
1e400; eps of 0, denormal and NaN; and sizes just past each cap.  The
count arguments `expand --digits`, `orbit --steps` and `conjecture-2n
--steps` are drawn evenly from small values, values below 1 and values
just past and far past their caps (`cli.DIGITS_LIMIT`, `STEPS_LIMIT`,
`SCAN_LIMIT`), so that each goes past its cap several times; never at a
cap, where a call takes seconds.  `lr-cycles` near base 2 prints about
2^n / n cycles, so n stays at most 12 below its cap.  `verify-lemmas`
takes no options: it runs bare one time in three, and otherwise with a
stray `--seed` or `--cases`, which the parser refuses.

Stdlib only, so it also runs as a plain script:

    PYTHONPATH=src python tests/test_cli_fuzz.py
"""

import contextlib
import io
import random
import re
import signal
import sys
import time

from univoque import cli

SEED = 20261020
CALLS = 300
CALL_SECONDS = 5.0

# each argument is drawn from its usual values or, one time in three,
# from its edge values, so that most calls get past the parser
BASES = (
    ["float:1.8", "float:1.87", "float:1.618033988749895", "float:1.8392867552140613",
     "float:1.7548776662466927", "float:1.9999999999", "float:1.0000001",
     "poly:[-1,-1,1]@(1,2)", "poly:[-1,-1,0,-1,-1,1]@(1,2)", "poly:[-1,-1,-1,1]@(1,2)",
     "poly:[-3,2]@(1,2)"],
    ["float:1", "float:2", "float:0.5", "float:2.5", "float:-1", "float:nan", "float:inf",
     "float:abc", "poly:[]@(1,2)", "poly:[0]@(1,2)", "poly:[0,0,0]@(1,2)",
     "poly:[-1,1]@(1,1)", "poly:[-2,1]@(2,2)", "poly:[1,0,1]@(1,2)", "poly:[-1,-1,1]@(2,1)",
     "poly:[-1,-1,1]@(0,2)", "poly:[-1,-1,1]@(1/0,2)", "poly:[-1,,1]@(1,2)", "abc", ""],
)
POINTS = (["0", "1", "0.3", "0.41", "1/3", "5e-324", "0.5882352941186"],
          ["inf", "-inf", "nan", "1/0", "1e400", "-0.5", "2", "abc", ""])
EPS = (["1e-5", "1e-8", "1e-12", "1e-300", "5e-324", "7.9e-31"],
       ["0", "-1", "nan", "inf", "abc"])
SEQS = (["(01)^w", "(10)^w", "(110)^w", "(1100)^w", "(1)^w", "(0)^w", "1(10)^w",
         "(0101)^w", " (01)^w "],
        ["0(01)^w", "(012)^w", "()^w", "", "(01"])
PERIODS = (["2", "3", "5", "7", "24", "64", "256"],
           ["-1", "0", "1", "1025", "99999999999999", "x"])
TABLE_ROWS = (["2", "3", "8", "24"], ["-1", "0", "1", "257", "1000", "99999999999999", "x"])
ORDER_ROWS = (["2", "5", "12", "30"], ["-5", "0", "1", "31", "99999999999999", "x"])
LR_N = (["1", "2", "3", "5", "8", "12"], ["-1", "0", "25", "99999999999999", "x"])
SCAN_N = (["1", "2", "3"], ["-1", "0", "5", "99"])
SCAN_BASES = (["1.5", "1.6", "1.8", "1.9"], ["1", "2", "2.5", "nan", "inf", "-1"])


def _counts(limit: int) -> list:
    """Small counts and edge values, from below 1 to far past the cap."""
    return ["1", "5", "16", "-1", "0", "x", str(limit + 1), "99999999999999"]


def _argv(rng: random.Random, command: str) -> list:
    def pick(values):
        if isinstance(values, tuple):
            values = values[rng.random() < 1 / 3]
        return rng.choice(values)

    if command == "table":
        return [command, pick(TABLE_ROWS), "--eps", pick(EPS),
                "--format", pick(["text", "csv", "json"])]
    if command in ("beta-n", "q-n"):
        return [command, pick(PERIODS), "--eps", pick(EPS), "--format", pick(["text", "json"])]
    if command == "a-k":
        return [command, pick(PERIODS), "--method", pick(["recursive", "explicit", "both"])]
    if command == "expand":
        return [command, "--beta", pick(BASES), "--x", pick(POINTS),
                "--digits", pick(_counts(cli.DIGITS_LIMIT))]
    if command == "check-unique":
        argv = [command, "--beta", pick(BASES), "--seq", pick(SEQS)]
        return argv + ["--budget", pick(["-1", "0", "5", "256"])] if rng.random() < 0.5 else argv
    if command == "verify-order":
        return [command, pick(ORDER_ROWS)]
    if command == "orbit":
        return [command, "--beta", pick(BASES), "--x", pick(POINTS),
                "--steps", pick(_counts(cli.STEPS_LIMIT)), "--map", pick(["F", "T"])]
    if command == "lr-cycles":
        return [command, "--beta", pick(BASES), "--n", pick(LR_N)]
    if command == "extension3":
        return [command, "--beta", pick(BASES)]
    if command == "kl":
        return [command, "--eps", pick(EPS)]
    if command == "conjecture-2n":
        argv = [command, "--n", pick(SCAN_N), "--steps", pick(_counts(cli.SCAN_LIMIT))]
        if rng.random() < 0.5:
            argv += ["--beta-min", pick(SCAN_BASES), "--beta-max", pick(SCAN_BASES)]
        return argv
    if rng.random() < 1 / 3:
        return [command]
    return [command, rng.choice(["--seed", "--cases"]), pick(["0", "7", "200", "-1", "x"])]


def _on_alarm(signum, frame):
    raise TimeoutError(f"call ran past {CALL_SECONDS} s")


def run_one(argv: list) -> tuple:
    """Exit code, stderr and seconds of one in-process call; an exception
    that escapes main, a hang included, comes back as its name and text."""
    out, err = io.StringIO(), io.StringIO()
    timed = hasattr(signal, "setitimer")
    if timed:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, CALL_SECONDS)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejections
        code = exc.code
    except Exception as exc:  # each escape is a finding
        code = f"{type(exc).__name__}: {exc}"
    finally:
        if timed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue(), time.perf_counter() - start


def fuzz(seed: int = SEED, calls: int = CALLS) -> list:
    """The calls that broke the contract, as (argv, code, stderr)."""
    rng = random.Random(seed)
    commands = sorted(cli.build_parser()._subparsers._group_actions[0].choices)
    assert len(commands) == 13
    failures = []
    for i in range(calls):
        argv = _argv(rng, commands[i % len(commands)])
        code, err, seconds = run_one(argv)
        # argparse prefixes its messages with the program and subcommand
        # name, or with the program alone for arguments no subcommand takes
        named = code == 0 or re.match(r"(univoque( [\w-]+)?: )?(error|undecided): ", err)
        if code not in (0, 1, 2) or "Traceback" in err or not named or seconds > CALL_SECONDS:
            failures.append((argv, code, err))
    return failures


def test_every_call_exits_0_1_or_2_with_no_traceback():
    assert fuzz() == []


if __name__ == "__main__":
    start = time.perf_counter()
    found = fuzz()
    for argv, code, err in found:
        print(f"{argv}: {code!r} {err!r}")
    print(f"{CALLS} calls, {len(found)} failures, {time.perf_counter() - start:.2f} s")
    sys.exit(1 if found else 0)

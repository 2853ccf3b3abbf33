"""Command-line front end.

Examples:

    univoque table 8 --format csv
    univoque beta-n 5 --eps 1e-8
    univoque a-k 12 --method both
    univoque expand --beta poly:[-1,-1,1]@(1,2) --x 1 --digits 4
    univoque check-unique --beta float:1.9 --seq "(01)^w"
    univoque verify-order 12 --format json
    univoque orbit --beta float:1.8 --x 0.3 --steps 8 --map T
    univoque lr-cycles --beta float:1.8 --n 2
    univoque extension3 --beta float:1.8
    univoque kl --eps 1e-5
    univoque q-n 3
    univoque conjecture-2n --n 1 --steps 9
    univoque verify-lemmas

Exit status: 0 on success, 1 on a violated precondition or other domain
error (the message names the condition), 2 when a decision ran out of
digit or precision budget (the message names the budget).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from fractions import Fraction

from . import oracle, thresholds, trapezoid
from .algebraic import poly_str
from .errors import (
    PreconditionViolated,
    TooLargeError,
    UndecidableDigitError,
    UndecidedError,
    UnivoqueError,
)
from .expansions import (
    AlgebraicBeta,
    as_beta,
    greedy_digits,
    is_unique_expansion,
    shift_map,
)
from .words import NECKLACE_LIMIT, PeriodicSeq

# the longest table: `table 256 --eps 5e-324` takes about 14 s on a
# 2-CPU Xeon
TABLE_LIMIT = 256
# count caps; each call at its cap took at most 3 s there (10^4 digits of 1/3 at
# poly:[-2,0,0,0,1]@(1,2) 1.5 s, `conjecture-2n --n 4` from 1.99 to 1.999 2.6 s)
DIGITS_LIMIT = 10_000
STEPS_LIMIT = 100_000
SCAN_LIMIT = 100


def _eps(text: str) -> float:
    """argparse type of every --eps: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"eps must be a finite number > 0, got {text!r}")
    return value


def _point(text: str, exact: bool) -> Fraction | float:
    """The --x value: a Fraction when exact, else a float."""
    try:
        return Fraction(text) if exact else float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"x must be a finite number, got {text!r}") from None


def _emit_rows(args, rows: list[dict], out) -> None:
    if args.format == "json":
        out.write(json.dumps(rows, indent=2) + "\n")
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        out.write(buf.getvalue())
    else:
        widths = {k: max(len(k), *(len(str(r[k])) for r in rows)) for k in rows[0]}
        header = "  ".join(k.ljust(widths[k]) for k in rows[0])
        out.write(header.rstrip() + "\n")
        for r in rows:
            out.write("  ".join(str(r[k]).ljust(widths[k]) for k in r).rstrip() + "\n")


def _emit_root(args, out, beta, index: str, key: str) -> int:
    """Print a certified root to 5 decimals, or as JSON under the period
    `index` (read from args) and `key`, with its polynomial and interval."""
    if args.format == "json":
        lo, hi = beta.interval
        out.write(json.dumps({
            index: getattr(args, index),
            key: f"{float(beta):.10f}",
            "poly": poly_str(beta.poly),
            "lo": str(lo),
            "hi": str(hi),
        }, indent=2) + "\n")
    else:
        out.write(f"{float(beta):.5f}\n")
    return 0


def cmd_table(args, out) -> int:
    """One row per period n = 2..N <= TABLE_LIMIT.  a_n is extremal, so
    (a_n)^w is the quasi-greedy expansion of 1 at beta_n (Parry 1960),
    and the greedy one, d_beta_n, is a_n with its last 0 raised to 1."""
    if args.n_max < 2:
        raise PreconditionViolated("the table starts at period 2")
    if args.n_max > TABLE_LIMIT:
        raise TooLargeError(f"table capped at n_max <= TABLE_LIMIT = {TABLE_LIMIT}")
    rows = []
    for n in range(2, args.n_max + 1):
        beta = thresholds.threshold_beta(n, args.eps)
        word = thresholds.min_extremal_recursive(n).period
        rows.append({
            "n": n,
            "d_beta_n": str(word)[:-1] + "1",
            "defining_poly": poly_str(beta.poly),
            "minimal_poly_if_divides": poly_str(thresholds.reduced_poly(n)),
            "beta_n": f"{float(beta):.5f}",
            "below_KL": "yes" if thresholds.below_komornik_loreti(n) else "no",
        })
    _emit_rows(args, rows, out)
    return 0


def cmd_beta_n(args, out) -> int:
    return _emit_root(args, out, thresholds.threshold_beta(args.k, args.eps), "k", "beta")


def cmd_a_k(args, out) -> int:
    results = {}
    if args.method in ("recursive", "both"):
        results["recursive"] = str(thresholds.min_extremal_recursive(args.k))
    if args.method in ("explicit", "both"):
        results["explicit"] = str(thresholds.min_extremal_explicit(args.k))
    if args.format == "json":
        out.write(json.dumps({"k": args.k, **results}, indent=2) + "\n")
    else:
        for name, value in results.items():
            out.write(f"{name} {value}\n" if args.method == "both" else f"{value}\n")
    return 0


def cmd_expand(args, out) -> int:
    if args.digits > DIGITS_LIMIT:
        raise TooLargeError(f"expansion capped at digits <= DIGITS_LIMIT = {DIGITS_LIMIT}")
    beta = as_beta(args.beta)
    x = _point(args.x, isinstance(beta, AlgebraicBeta))
    word = greedy_digits(beta, x, args.digits)
    out.write(str(word) + "\n")
    return 0


def cmd_check_unique(args, out) -> int:
    beta = as_beta(args.beta)
    seq = PeriodicSeq.parse(args.seq)
    result = is_unique_expansion(beta, seq, args.budget)
    out.write(("true" if result else "false") + "\n")
    return 0


def cmd_verify_order(args, out) -> int:
    report = oracle.verify_ordering(args.n_max)
    if args.format == "json":
        out.write(json.dumps(report, indent=2) + "\n")
    else:
        chain = " < ".join(f"beta_{c['n']}" for c in report["chain"])
        out.write(chain + "\n")
        out.write(f"violations: {len(report['violations'])}\n")
    return 0 if not report["violations"] else 1


def cmd_orbit(args, out) -> int:
    if args.steps < 0:
        raise PreconditionViolated(f"steps must be >= 0, got {args.steps}")
    if args.steps > STEPS_LIMIT:
        raise TooLargeError(f"orbit capped at steps <= STEPS_LIMIT = {STEPS_LIMIT}")
    beta = as_beta(args.beta)
    x = _point(args.x, False)
    lines = []  # written only once every step succeeded
    if args.map == "F":
        for _ in range(args.steps):
            lines.append(f"{x!r}\n")
            x = shift_map(beta, x)
        lines.append(f"{x!r}\n")
    else:
        params = trapezoid.as_params(beta)
        for _ in range(args.steps):
            sym, y = params._step(x)
            lines.append(f"{sym} {x!r}\n")
            x = y
        lines.append(f". {x!r}\n")
    out.write("".join(lines))
    return 0


def cmd_lr_cycles(args, out) -> int:
    cycles = trapezoid.find_lr_cycles(as_beta(args.beta), args.n)
    if args.format == "json":
        out.write(json.dumps([str(c) for c in cycles]) + "\n")
    else:
        for c in cycles:
            out.write(str(c) + "\n")
        if not cycles:
            out.write("none\n")
    return 0


def cmd_extension3(args, out) -> int:
    beta = as_beta(args.beta)
    x = trapezoid.extension_three_cycle(beta)
    y = x
    for _ in range(3):
        y = trapezoid.extension_map(beta, y)
    if args.format == "json":
        out.write(json.dumps({
            "x_star": repr(x),
            "residual": repr(abs(y - x)),
            "image": repr(trapezoid.extension_map(beta, x)),
        }, indent=2) + "\n")
    else:
        out.write(f"{x!r}\n")
    return 0


def cmd_kl(args, out) -> int:
    eps = Fraction(args.eps)
    if args.format == "json":
        lo, hi = thresholds.kl_bracket(eps)
        out.write(json.dumps({
            "value": f"{float((lo + hi) / 2):.10f}",
            "lo": str(lo),
            "hi": str(hi),
        }, indent=2) + "\n")
    else:
        # a midpoint at the requested width can misround the 5th decimal
        lo, hi = thresholds.kl_bracket(min(eps, Fraction(1, 10 ** 8)))
        out.write(f"{float((lo + hi) / 2):.5f}\n")
    return 0


def cmd_q_n(args, out) -> int:
    return _emit_root(args, out, thresholds.greedy_threshold(args.n, args.eps), "n", "q_n")


def cmd_conjecture_2n(args, out) -> int:
    """Experiment only, no pass/fail semantics: scan bases near the
    2^n threshold and report which 2^n cycles exist, plateau-avoiding
    or through the plateau; '?' marks a base where that is undecided."""
    if args.n < 1:
        raise PreconditionViolated(f"n must be >= 1, got {args.n}")
    if args.steps < 0:
        raise PreconditionViolated(f"steps must be >= 0, got {args.steps}")
    if args.steps > SCAN_LIMIT:
        raise TooLargeError(f"scan capped at steps <= SCAN_LIMIT = {SCAN_LIMIT}")
    length = 1 << args.n
    if length > NECKLACE_LIMIT:
        raise TooLargeError(f"cycle length 2^{args.n} = {length} exceeds "
                            f"NECKLACE_LIMIT = {NECKLACE_LIMIT}")
    center = float(thresholds.threshold_beta(length, 1e-10))
    lo = args.beta_min if args.beta_min is not None else center - 0.02
    hi = args.beta_max if args.beta_max is not None else center + 0.02
    lines = [f"# first {length}-cycle scan; threshold for period {length} "
             f"at {center:.6f}\n"]  # written only once every row succeeded
    for i in range(args.steps):
        b = lo + (hi - lo) * i / (args.steps - 1) if args.steps > 1 else lo
        params = trapezoid.as_params(b)
        try:
            lr = "yes" if trapezoid.find_lr_cycles(params, length) else "no"
        except (UndecidedError, UndecidableDigitError):
            lr = "?"
        c_len = "-"
        x = params.plateau()[2]
        try:
            for j in range(4 * length):
                sym, x = params._step(x)
                if sym == "C":
                    c_len = str(j + 1)
                    break
        except UnivoqueError:
            c_len = "?"
        lines.append(f"beta={b:.6f} lr_{length}cycle={lr} "
                     f"plateau_cycle_len={c_len}\n")
    out.write("".join(lines))
    return 0


def cmd_verify_lemmas(args, out) -> int:
    report = oracle.lemma_report()
    out.write(json.dumps(report, indent=2) + "\n")
    return 0 if report["ok"] else 1


class _Parser(argparse.ArgumentParser):
    # domain-style errors exit 1; keep 2 reserved for exhausted budgets
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command tree, built once per process on first use."""
    parser = _Parser(prog="univoque",
                     description="Unique expansions in non-integer bases: "
                                 "thresholds, extremal sequences, and "
                                 "trapezoidal map dynamics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, formats=()):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if formats:
            p.add_argument("--format", choices=("text", *formats), default="text")
        return p

    p = add("table", cmd_table, "threshold table for periods 2..N", ("csv", "json"))
    p.add_argument("n_max", type=int)
    p.add_argument("--eps", type=_eps, default=1e-8)

    p = add("beta-n", cmd_beta_n, "certified threshold for period k", ("json",))
    p.add_argument("k", type=int)
    p.add_argument("--eps", type=_eps, default=1e-8)

    p = add("a-k", cmd_a_k, "least extremal sequence of period k", ("json",))
    p.add_argument("k", type=int)
    p.add_argument("--method", choices=("recursive", "explicit", "both"),
                   default="both")

    p = add("expand", cmd_expand, "greedy digits of x in a base")
    p.add_argument("--beta", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--digits", type=int, default=16)

    p = add("check-unique", cmd_check_unique,
            "two-sided criterion: every shift strictly between the mirrored "
            "bound and the bound; false on (0)^w and (1)^w, which are unique too")
    p.add_argument("--beta", required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--budget", type=int, default=None)

    p = add("verify-order", cmd_verify_order,
            "pairwise threshold order vs Sharkovskii order", ("json",))
    p.add_argument("n_max", type=int)

    p = add("orbit", cmd_orbit, "orbit of x under the gap map F or the trapezoid T")
    p.add_argument("--beta", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--map", choices=("F", "T"), default="T")

    p = add("lr-cycles", cmd_lr_cycles, "plateau-avoiding cycles of length n",
            ("json",))
    p.add_argument("--beta", required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("extension3", cmd_extension3,
            "3-periodic point of the continuous extension", ("json",))
    p.add_argument("--beta", required=True)

    p = add("kl", cmd_kl, "Komornik-Loreti constant", ("json",))
    p.add_argument("--eps", type=_eps, default=1e-5)

    p = add("q-n", cmd_q_n, "plain greedy period threshold root", ("json",))
    p.add_argument("n", type=int)
    p.add_argument("--eps", type=_eps, default=1e-8)

    p = add("conjecture-2n", cmd_conjecture_2n,
            "experiment: scan for the first 2^n cycle near its threshold")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--beta-min", type=float, default=None)
    p.add_argument("--beta-max", type=float, default=None)
    p.add_argument("--steps", type=int, default=9)

    add("verify-lemmas", cmd_verify_lemmas,
        "the order lemmas, checked on every word of a stated finite range")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except UndecidedError as exc:
        print(f"undecided: {exc} (budget {exc.budget})", file=sys.stderr)
        return 2
    except UndecidableDigitError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return 2
    except (UnivoqueError, ValueError) as exc:  # any other domain error
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

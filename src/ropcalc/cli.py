"""Command line front end.

Subcommands mirror the library: prob (forward evaluation), solve-p and
solve-t (the two inverse problems), rop-table (render a population table),
and curve (probability samples for plotting).  Structured output (json or
csv) carries the library floats verbatim; text output is for reading.

Exit codes: 0 on success, 1 when stdout is closed before the output is
written (as by ``| head``), 2 for malformed arguments, 3 for domain or
input-data errors.
"""

import argparse
import csv
import json
import math
import os
import re
import sys
from array import array
from itertools import islice

from .collision import AUTO, DomainError, _as_count, _power, as_space_size, collision_probability
from .rop import (
    _DROP_SEPARATORS,
    BUNDLED_DATASETS,
    format_percent,
    load_bundled_cities,
    load_populations,
    rop_table,
)
from .solvers import DEFAULT_WORLD_POPULATION, SolveTarget, solve_population, solve_space

__all__ = ["main", "build_parser", "parse_space_expr", "parse_count_expr"]

_INT = r"[0-9]{1,3}(?:[,_ ][0-9]{3})+|[0-9]+"
_GROUPED_INT = re.compile(_INT)
_POWER = re.compile(rf"(?P<base>{_INT})\^(?P<exp>{_INT})")

_DOMAIN_EXIT = 3


def parse_space_expr(text: str):
    """Parse a space-size expression into a number (int or float).

    Accepts plain integers with optional thousands separators
    ("68,719,476,736"), scientific notation ("6.9e10"), and the power form
    "base^exponent" ("2^36"), which is evaluated in exact integer
    arithmetic.  Separators ("," "_" " ") stand only between three-digit
    groups of an integer, base or exponent; every other form goes to float()
    as typed, so a decimal comma ("1,4e7") is refused, not read as 14e7.
    Syntax only; range checks happen when the value is used.
    """
    expr = text.strip()
    m = _POWER.fullmatch(expr)
    try:
        if m:
            return _power(*(int(m[g].translate(_DROP_SEPARATORS)) for g in ("base", "exp")))
        if _GROUPED_INT.fullmatch(expr):
            return int(expr.translate(_DROP_SEPARATORS))
        return float(expr)
    except (ValueError, OverflowError) as err:
        raise ValueError(f"bad space size {text!r}: {err}") from None


def parse_count_expr(text: str) -> int:
    """Parse a whole-number count: separators as in parse_space_expr, or scientific notation."""
    expr = text.strip()
    try:
        if _GROUPED_INT.fullmatch(expr):
            return int(expr.translate(_DROP_SEPARATORS))
        return _as_count(float(expr), "a count")
    except ValueError as err:  # a DomainError too
        raise ValueError(f"bad count {text!r}: {err}") from None


def _arg_type(parse):
    # argparse prints an ArgumentTypeError's own message; a ValueError would
    # only give "invalid value".
    def convert(text):
        try:
            return parse(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
    return convert


_space_arg = _arg_type(parse_space_expr)
_count_arg = _arg_type(parse_count_expr)


def _emit(fmt, rows, columns, text):
    """Write ``rows`` (one row dict, or an iterable of them, each written as it
    comes) as json, the ``columns`` of each row as csv, or the ``text`` lines.

    Floats keep their repr.  Strict JSON has no Infinity, so a guaranteed
    repeat's -inf becomes null there; csv writes -inf, and None as empty.
    """
    one = isinstance(rows, dict)
    rows = [rows] if one else rows
    if fmt == "json":
        rows = ({k: None if v == -math.inf else v for k, v in row.items()} for row in rows)
        # a dumps per 1024 rows, brackets stripped and joined by ", ": the bytes of one dumps
        chunks = iter(lambda: json.dumps(list(islice(rows, 1024)))[1:-1], "")
        sys.stdout.write(("" if one else "[") + next(chunks, ""))
        for chunk in chunks:
            sys.stdout.write(", " + chunk)
        print("" if one else "]")
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([row[c] for c in columns] for row in rows)
    else:
        for line in text:
            print(line)


def _cmd_prob(args):
    result = collision_probability(args.space, args.population, args.method, order=args.order)
    note = None
    if result.log_survival == -math.inf:  # only the pigeonhole short circuit gives -inf
        note = "pigeonhole: population exceeds the number of distinct values"
    payload = {
        "probability": result.probability,
        "log_survival": result.log_survival,
        "method": result.method,
        "order": result.order,
        "error_bound": result.abs_error_bound,
        "note": note,
    }
    text = [
        f"probability: {result.probability!r} ({format_percent(result.probability)})",
        f"log survival: {result.log_survival!r}",
        f"method: {result.method}" + ("" if result.order is None else f" (order {result.order})"),
        f"error bound: {result.abs_error_bound:.6g}",
    ]
    if note:
        text.append(f"note: {note}")
    _emit(args.format, payload, list(payload), text)


def _cmd_solve_p(args):
    space = as_space_size(args.space)
    p = solve_population(space, args.target)
    attained = collision_probability(space, p).probability
    payload = {"space": space.value, "target": args.target, "population": p, "probability": attained}
    text = [f"population: {p:,}", f"probability there: {attained!r}"]
    _emit(args.format, payload, list(payload), text)


def _cmd_solve_t(args):
    space = solve_space(args.population, SolveTarget(args.target, args.tolerance))
    attained = collision_probability(space, args.population).probability
    payload = {
        "population": args.population,
        "target": args.target,
        "space": space.value,
        "probability": attained,
    }
    text = [f"space size: {space.value:.5e}", f"probability there: {attained!r}"]
    _emit(args.format, payload, list(payload), text)


def _cmd_rop_table(args):
    records = (load_bundled_cities() if args.dataset in BUNDLED_DATASETS
               else load_populations(args.dataset, delimiter=args.delimiter))
    entries = rop_table(records, as_space_size(args.space))
    rows = (
        {
            "name": e.record.name,
            "population": e.record.population,
            "probability": e.result.probability,
            "log_survival": e.result.log_survival,
            "display": e.display,
        }
        for e in entries
    )
    name_w = max(len("name"), max(len(e.record.name) for e in entries))
    pop_w = max(len("population"), max(len(f"{e.record.population:,}") for e in entries))
    text = [f"{'name':<{name_w}}  {'population':>{pop_w}}  overlap"] + [
        f"{e.record.name:<{name_w}}  {e.record.population:>{pop_w},}  {e.display}"
        for e in entries
    ]
    _emit(args.format, rows, ["name", "population", "probability", "display"], text)


def _cmd_curve(args):
    space = as_space_size(args.space)
    n = _as_count(args.samples, "--samples", 2) - 1
    p_max = _as_count(args.p_max, "--p-max", 1)

    def population(i):  # i * p_max / n, rounded half to even in exact integers
        q, r = divmod(i * p_max, n)
        return q + (2 * r > n or 2 * r == n and q % 2)

    # every sample is evaluated before any is written, so a refusal prints nothing
    probs = array("d", (collision_probability(space, population(i)).probability
                        for i in range(args.samples)))
    rows = ({"population": population(i), "probability": q} for i, q in enumerate(probs))
    text = (f"{population(i)}\t{q!r}" for i, q in enumerate(probs))
    _emit(args.format, rows, ["population", "probability"], text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ropcalc",
        description="Repeat probabilities for uniform draws from very large spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # options that several subcommands share, each declared once
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "csv", "json"), default="text",
                     help="output format (default text)")
    space_help = "space size: plain, scientific, or base^exp form"
    space = argparse.ArgumentParser(add_help=False)
    space.add_argument("-t", "--space", type=_space_arg, required=True, help=space_help)

    p_prob = sub.add_parser("prob", parents=[fmt, space],
                            help="probability that a population repeats a value")
    p_prob.add_argument("-p", "--population", type=_count_arg, required=True,
                        help="number of draws (separators and 1.4e7 style accepted)")
    p_prob.add_argument("--method", choices=("exact", "series", "auto"), default=AUTO,
                        help="evaluation route (default auto)")
    p_prob.add_argument("--order", type=_count_arg, default=None,
                        help="series truncation order (series method only)")
    p_prob.set_defaults(func=_cmd_prob)

    p_solvep = sub.add_parser("solve-p", parents=[fmt, space],
                              help="smallest population reaching a target probability")
    p_solvep.add_argument("--target", type=float, required=True,
                          help="target probability in (0, 1)")
    p_solvep.set_defaults(func=_cmd_solve_p)

    p_solvet = sub.add_parser("solve-t", parents=[fmt],
                              help="space size pinning a target probability")
    p_solvet.add_argument("-p", "--population", "--phi", type=_count_arg,
                          default=DEFAULT_WORLD_POPULATION,
                          help="number of draws (default 8.2e9, the world population)")
    p_solvet.add_argument("--target", type=float, required=True,
                          help="target probability in (0, 1)")
    p_solvet.add_argument("--tolerance", type=float, default=1e-9,
                          help="relative tolerance on the space size (default 1e-9)")
    p_solvet.set_defaults(func=_cmd_solve_t)

    p_table = sub.add_parser("rop-table", parents=[fmt],
                             help="overlap table for a population dataset")
    p_table.add_argument("--dataset", default="us_cities",
                         help="path to a name/population table, or the bundled "
                              f"name(s): {', '.join(BUNDLED_DATASETS)} (default)")
    p_table.add_argument("--delimiter", choices=(",", ";", "\t"), default=None,
                         help="field delimiter (default: auto-detect)")
    p_table.add_argument("-t", "--space", type=_space_arg, default=parse_space_expr("2^36"),
                         help=space_help + " (default 2^36, the classic fingerprint estimate)")
    p_table.set_defaults(func=_cmd_rop_table)

    p_curve = sub.add_parser("curve", parents=[fmt, space],
                             help="sample the probability curve up to --p-max")
    p_curve.add_argument("--p-max", type=_count_arg, required=True,
                         help="largest population to sample")
    p_curve.add_argument("--samples", type=_count_arg, default=101,
                         help="number of evenly spaced samples (default 101)")
    p_curve.set_defaults(func=_cmd_curve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the recipe of Python's signal docs: the flush at exit then goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (DomainError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return _DOMAIN_EXIT
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Seeded bit-for-bit sweep of ropcalc's answers.

Evaluates a seeded set of forward calls, solves and tables over the
documented domain and prints one line: the record count and a sha256 over
every record.  A record holds each input and each answer field, a float by
its ``.hex()`` and anything else by its repr, or a refusal by its type and
message.  CLI runs are recorded too: argv, format, exit code, stdout and
stderr, the output by its repr.  Two ropcalc versions answer bit for bit
alike on the sweep when they print the same line; ``--dump`` prints the
records first, so two runs can be diffed.

It uses whatever ``ropcalc`` is importable, so one script compares two
checkouts, each run in its own process:

    PYTHONPATH=../parent/src python tools/bitsweep.py
    PYTHONPATH=src python tools/bitsweep.py

Cover (default ``--calls 10000``): 4,000 auto, 3,000 exact and 3,000 series
calls with t in [1, 1e30], random budgets on the exact calls and random orders
on the series calls, 75 calls at the edges,
``calls // 10`` solves of each kind and one over 1.5 values, the bundled table at
2^36, 2^47, 1e12 and 2^64, and in each of the CLI's three formats 11 fixed runs
(the frozen-output argvs of tests/test_cli.py, the table on the bundled cities;
``rop-table -t 1e9``; a curve refused in its middle; a 2,049-sample curve; a curve
to 2^60 + 1) and ``calls // 100`` seeded curves of up to 1,000 samples.  Takes
about 2 s on a 2-vCPU Xeon VM.
"""

import argparse
import contextlib
import hashlib
import io
import random
import sys

import numpy as np

import ropcalc
import ropcalc.cli
from ropcalc import (
    DomainError,
    SpaceSize,
    collision_probability,
    load_bundled_cities,
    rop_table,
    solve_population,
    solve_space,
    space_for_world_overlap,
)

# An exact product over a million factors takes a few ms; every exact call asks
# for at most this many unless its budget refuses it first.  Auto's calls stay under it
# too, so the sweep stays fast on versions whose auto walks products up to its budget.
_EXACT_CAP = 10**6

# Calls at the edges: one of each refusal (a series refusal past the product's budget too),
# auto's switches, the series' wall (p/t ~ 0.95464) and the pigeonhole wall hit exactly, auto
# above 1/2 where the product would walk 1e6 and 1e8 factors, either side of its cost rule's
# flip at t = 1e4 and 4e4, at (1e7, 9_479_104), where an earlier rule walked 9.5e6 factors, a
# product refused by its budget;
# spaces on either side of each of the space reader's checks, numpy's float among them, also
# at the pigeonhole wall; and the series scan's seams:
# explicit orders 2, 3, 4 and 512, order-less scans at p = 2 and 3 (direct sums from order 4),
# and m = p - 1 = 256 and 257 at order 300, either side of k = m where the terms turn from
# Faulhaber's formula to the direct sum.
_EDGES = [
    ((0, 5), {}), ((1e31, 5), {}), ((float("nan"), 5), {}), ((True, 5), {}), (("365", 5), {}),
    ((2**100, 5), {}), ((365, -1), {}), ((365, 2.5), {}), ((365, True), {}), ((365, "23"), {}),
    ((365, 23, "fast"), {}), ((365, 23, "exact"), {"order": 3}), ((365, 23), {"order": 3}),
    ((365, 23, "series"), {"order": 1}), ((365, 23, "series"), {"order": 513}),
    ((365, 23, "series"), {"order": 2.5}), ((365, 23), {"exact_budget": -1}),
    ((365, 23), {"exact_budget": 1.5}), ((365, 23), {"exact_budget": None}),
    ((365, 2**4000), {}), ((365, -(2**4000)), {}),
    ((365, 200), {"exact_budget": 10}), ((1000, 499), {"exact_budget": 10}),
    ((1e12, 10**9, "exact"), {}), ((1e12, 10**9, "exact"), {"exact_budget": 10**8}),
    ((1000, 600, "series"), {}), ((1000, 500, "series"), {}), ((1e30, 6e29, "series"), {}),
    ((1e6, 10**7, "series"), {}), ((1e6, 10**7, "exact"), {"exact_budget": 0}),
    ((1000, 500, "exact"), {"exact_budget": 10}), ((1000, 500), {}), ((1e5, 10), {}),
    ((2**60, 2**60), {}), ((2**60, 2**60 + 1), {}), ((2.0**60, 2**60 + 1), {}), ((365, 366), {}),
    ((1000, 954, "series"), {}), ((1000, 955, "series"), {}),
    ((1000, 954), {"exact_budget": 10}), ((1000, 955), {"exact_budget": 10}),
    ((2e8, 10**8), {}), ((1.5e6, 10**6), {}), ((1e5, 1200), {"exact_budget": 1000}),
    ((1e4, 156), {}), ((1e4, 157), {}), ((4e4, 34_553), {}), ((4e4, 34_554), {}),
    ((1e7, 9_479_104), {}),
    ((1e20, 10**20, "series"), {}),
    ((int(1e30), 5), {}), ((int(1e30) + 1, 5), {}), ((10**30 + 1, 5), {}), ((1e30, 5), {}),
    ((0.5, 5), {}), ((-5, 5), {}), ((float("inf"), 5), {}), ((np.int64(365), 5), {}),
    ((SpaceSize(2.0**36), 5), {}), ((np.float64(365.0), 5), {}), ((np.float64(1e31), 5), {}),
    ((np.float64(1e20), 10**20), {}), ((np.float64(1e20), 10**20, "series"), {}),
    *(((2.0**47, 14_000_000, "series"), {"order": k}) for k in (2, 3, 4)),
    ((1e9, 950_000_000, "series"), {"order": 512}),
    *(((t, p, "series"), {}) for p in (2, 3) for t in (p + 1.0, 1e12)),
    *(((t, p, "series"), {"order": 300}) for t in (1e4, 300.0) for p in (257, 258)),
]

# CLI runs at the edges: the frozen-output argvs, the table also at 1e9, a curve whose sample
# 2e8 is refused though its last, 3e8, is a pigeonhole answer, the paper's curve at 2^47
# in 2,049 samples, past two of the 1,024-row chunks that json output is encoded in, and a
# curve whose samples pass 2^53.
_CLI_ARGVS = [
    ["prob", "-t", "365", "-p", "23"],
    ["prob", "-t", "2^47", "-p", "1.4e7", "--method", "series", "--order", "3"],
    ["prob", "-t", "10", "-p", "11"],
    ["solve-p", "-t", "365", "--target", "0.5"],
    ["solve-t", "-p", "1000", "--target", "0.5"],
    ["rop-table", "-t", "1000"],
    ["curve", "-t", "365", "--p-max", "30", "--samples", "4"],
    ["rop-table", "-t", "1e9"],
    ["curve", "-t", "2e8", "--p-max", "3e8", "--samples", "4"],
    ["curve", "-t", "2^47", "--p-max", "4e7", "--samples", "2049"],
    ["curve", "-t", "1e30", "--p-max", "1,152,921,504,606,846,977", "--samples", "3"],
]


def _field(value) -> str:
    return value.hex() if type(value) is float else repr(value)  # np.float64 shows as itself


def _answer(fn, *args, **kwargs) -> list:
    """The answer of one call as fields, or its refusal by type and message."""
    try:
        out = fn(*args, **kwargs)
    except DomainError as err:
        return [type(err).__name__, str(err)]
    if isinstance(out, ropcalc.EvalResult):
        return [out.probability, out.log_survival, out.method, out.abs_error_bound, out.order]
    return [out.value if isinstance(out, ropcalc.SpaceSize) else out]


def _cli(argv) -> list:
    """Exit code, stdout and stderr of one CLI run, in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ropcalc.cli.main(argv)
    return [code, out.getvalue(), err.getvalue()]


def _space(rng) -> "float | int":
    t = 10 ** rng.uniform(0, 30)
    return int(t) if rng.random() < 0.2 else t  # ints past 2**53 compare with p exactly


def _budget(rng) -> dict:
    return {} if rng.random() < 0.5 else {"exact_budget": int(10 ** rng.uniform(0, 6.5))}


def _forward_calls(rng, calls):
    """(args, kwargs) of ``calls`` forward calls: 40% auto, 30% exact, 30% series."""
    for i in range(calls):
        share = i / calls
        t = _space(rng)
        if share < 0.4:  # auto at p/t from 1e-14 to 2, with more draws near 1e-4, 1/2 and its cost switch
            ratio = rng.choice([10 ** rng.uniform(-14, 0.3), 10 ** rng.uniform(-4.3, -3.7),
                                rng.uniform(0.4, 0.6), 10 ** rng.uniform(-4, -0.3)])
            if ratio < 0.5 and rng.random() < 0.4:  # the cost switch: p up to 6e4
                t = round(10 ** rng.uniform(1, 4.8)) / ratio
            p, kwargs, method = round(ratio * t), {}, "auto"
            if rng.random() < 0.05:  # the pigeonhole wall, exactly
                t = float(round(t))
                p = int(t) + rng.randint(-1, 2)
            # no product over the cap: past it the series answers, or past its wall the budget refuses
            if p - 1 > _EXACT_CAP and p >= 0.5 * t:
                kwargs = {"exact_budget": _EXACT_CAP}
        elif share < 0.7:  # exact, or its refusal over the budget
            p = int(10 ** rng.uniform(0, 6)) if rng.random() < 0.9 else int(10 ** rng.uniform(8.1, 30))
            kwargs, method = _budget(rng), "exact"
        else:  # series at p/t up to 0.7, order-less or at an explicit order
            p, kwargs, method = round(10 ** rng.uniform(-14, -0.15) * t), {}, "series"
            if rng.random() < 0.5:
                kwargs = {"order": rng.randint(2, 120)}
        yield (t, p, method), kwargs


def _curve_argvs(rng, curves):
    """argv of ``curves`` curves of 2 to 1,000 samples, up to p_max from 1e-6 t to 3 t."""
    for _ in range(curves):
        reach, t = 10 ** rng.uniform(-6, 0.5), _space(rng)
        while reach >= 0.5 and 1e4 < t < 2.1e8:  # samples of 1e4 to 1e8 product factors
            t = _space(rng)
        p_max, samples = max(1, round(reach * t)), round(10 ** rng.uniform(0.31, 3))
        yield ["curve", "-t", str(t), "--p-max", str(p_max), "--samples", str(samples)]


def _records(seed, calls):
    """Every record of the sweep, each a list of fields."""
    rng = random.Random(seed)
    for args, kwargs in [*_forward_calls(rng, calls), *_EDGES]:
        yield ["prob", *args, *sorted(kwargs.items()), *_answer(collision_probability, *args, **kwargs)]
    yield ["solve-p", 1.5, 0.9, *_answer(solve_population, 1.5, 0.9)]
    for _ in range(calls // 10):
        target = rng.choice([rng.random(), 1 - 10 ** -rng.uniform(1, 15), 10 ** -rng.uniform(1, 15)])
        t, p = _space(rng), round(10 ** rng.uniform(0.3, 15))
        percent, world = 100 * rng.random(), round(10 ** rng.uniform(0.3, 10))
        yield ["solve-p", t, target, *_answer(solve_population, t, target)]
        yield ["solve-t", p, target, *_answer(solve_space, p, target)]
        yield ["world", percent, world, *_answer(space_for_world_overlap, percent, world)]
    cities = load_bundled_cities()
    for space in (2**36, 2**47, 1e12, 2**64):
        for entry in rop_table(cities, space):
            rec, res = entry.record, entry.result
            yield ["table", space, rec.name, rec.population, res.probability, res.log_survival,
                   res.method, res.abs_error_bound, res.order, entry.display]
    for argv in [*_CLI_ARGVS, *_curve_argvs(rng, calls // 100)]:
        for fmt in ("text", "csv", "json"):
            yield ["cli", *argv, fmt, *_cli([*argv, "--format", fmt])]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--calls", type=int, default=10_000, help="forward calls; solves are calls // 10 each")
    parser.add_argument("--dump", action="store_true", help="print every record before the digest")
    args = parser.parse_args(argv)
    print(f"ropcalc from {ropcalc.__file__}", file=sys.stderr)
    digest, count = hashlib.sha256(), 0
    for record in _records(args.seed, args.calls):
        line = " ".join(map(_field, record))
        if args.dump:
            print(line)
        digest.update(line.encode("utf-8") + b"\n")
        count += 1
    print(f"{count} records, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

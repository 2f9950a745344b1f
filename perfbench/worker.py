"""The measured process: one fresh interpreter per workload run.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --out DIR
                                [--setup-only]

It imports ropcalc, runs the fixed warm-up operations, and prints "ready";
run.py times set-up from launch to that line.  It then runs whole batches
of the workload in a closed loop (one call at a time, each waiting for its
answer) until the window has lasted ``--seconds``, timing the host with
the calibration loop between calls.  Every answer goes to
DIR/records.jsonl for run.py to check after the window; nothing is checked
here.  With ``--trace 1`` the window is split: an untraced half, then a
traced half whose spans give the per-layer numbers.  The audit operations
(workloads.audit) follow, untimed, and a traced run ends with the fixed
reference points and the CLI layer split; their outputs are recorded for
checking too.
"""

import argparse
import contextlib
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import ropcalc
from ropcalc import collision, solvers
from ropcalc.collision import DomainError, IterationBudgetError
from ropcalc.rop import IngestError

import calibration
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
# The package re-exports the function rop(), which hides the module of that name.
rop = importlib.import_module("ropcalc.rop")

REFUSALS = (DomainError, IterationBudgetError, IngestError)

# Fixed calls per subcommand for the CLI layer split: the argv, and the
# same call as an operation that check.py rebuilds from library calls.
CLI_REFERENCE = {
    "prob": (["prob", "-t", "365", "-p", "23"], {"t": 365, "p": 23}),
    "solve-p": (["solve-p", "-t", "2^96", "--target", "0.01"], {"t": 2**96, "x": 0.01}),
    "solve-t": (["solve-t", "--target", "0.5"], {"p": workloads.WORLD_POPULATION, "x": 0.5}),
    "rop-table": (["rop-table"], {"dataset": "us_cities"}),
    "curve": (["curve", "-t", "2^47", "--p-max", "30000000"], {"t": 2**47, "p": 30_000_000}),
}


def _result(r):
    return [r.probability, r.log_survival, r.method, r.abs_error_bound, r.order]


class Runner:
    """Executes operations, optionally inside spans."""

    def __init__(self):
        self.tracer = None

    def _call(self, name, fn, *args, attrs=None):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(name, fn, *args, attrs=attrs)

    def run(self, op):
        """One operation's library calls; returns the raw answer."""
        kind = op["kind"]
        if kind == "prob":
            answer = self._call(tracing.FORWARD, collision.collision_probability, op["t"], op["p"],
                                attrs={"p": op["p"]})
        elif kind == "solve_population":
            attrs = {}
            answer = self._call("solvers.solve_population", solvers.solve_population,
                                op["t"], op["x"], attrs=attrs)
            attrs["answer"] = answer
        elif kind == "solve_space":
            answer = self._call("solvers.solve_space", solvers.solve_space, op["p"], op["x"])
        elif kind == "world":
            answer = self._call("solvers.space_for_world_overlap", solvers.space_for_world_overlap,
                                op["pct"])
        elif kind == "table":
            records = self._call("rop.parse_populations", rop.parse_populations, op["text"],
                                 attrs={"rows": len(op["names"])})
            answer = (records, [self._call("rop.rop_table", rop.rop_table, records, space,
                                           attrs={"rows": len(records)})
                                for space in workloads.ROP_SPACES])
        else:
            raise ValueError(f"unknown operation kind {kind!r}")
        return answer


def encode(kind, answer):
    """JSON form of an answer; floats keep every bit through json."""
    if kind == "prob":
        return _result(answer)
    if kind == "solve_population":
        return answer
    if kind in ("solve_space", "world"):
        return answer.value
    if kind == "table":
        records, tables = answer
        return {"records": [[r.name, r.population] for r in records],
                "rows": [[_result(e.result) for e in entries] for entries in tables]}
    raise ValueError(kind)


def attempt(runner, op, label):
    """Run one operation; returns its record, with the answer or the error."""
    record = {"window": label, "op": op, "status": "answered"}
    start = time.perf_counter()
    try:
        answer = runner.run(op)
    except REFUSALS as err:
        record.update(status="refused", error=f"{type(err).__name__}: {err}")
    except Exception as err:  # recorded and reported; the run goes on
        record.update(status="raised", error=f"{type(err).__name__}: {err}")
    record["seconds"] = time.perf_counter() - start
    if record["status"] == "answered":
        record["answer"] = encode(op["kind"], answer)
    return record


def window(runner, args, seconds, first_batch, label, out, log):
    """Run whole batches until ``seconds`` have passed; returns the next batch index.

    Every ``calibration.EVERY_S`` of operation time, the calibration loop
    runs; each record carries the mean of the two calibrations around it.
    """
    index = first_batch
    pending, busy, before = [], 0.0, calibration.seconds()

    def calibrate():
        nonlocal pending, busy, before
        after = calibration.seconds()
        for record in pending:
            record["calibration"] = (before + after) / 2
            out.write(json.dumps(record) + "\n")
        pending, busy, before = [], 0.0, after

    start = time.perf_counter()
    while True:
        ops = workloads.batch(args.workload, args.seed, index)
        log.add(ops)
        for position, op in enumerate(ops):
            if runner.tracer is not None:
                runner.tracer.start_op([index, position])
            record = attempt(runner, op, label)
            pending.append(record)
            busy += record["seconds"]
            if busy >= calibration.EVERY_S:
                calibrate()
        index += 1
        if time.perf_counter() - start >= seconds:
            calibrate()
            return index


def _median_time(fn, reps):
    """(median seconds of ``reps`` calls of fn, the last call's return value)."""
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        value = fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), value


def _subprocess(argv, reps=5):
    """(median ms of a fresh ``python argv``, the last run's CLI answer record)."""
    # children inherit the PYTHONPATH run.py gave this process: src/ first
    seconds, proc = _median_time(
        lambda: subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                               text=True, timeout=120), reps)
    return 1e3 * seconds, {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def _cli_op(name, sub):
    return {"name": name, "kind": "cli", "sub": sub, **CLI_REFERENCE[sub][1]}


def _cli_argv(sub):
    return CLI_REFERENCE[sub][0] + ["--format", "json"]


def reference_points():
    """The ROADMAP re-anchor baselines, as fixed named points.

    Returns (metrics, answers); answers are checked by run.py like any other.
    """
    metrics, answers = {}, []
    counted = []
    original = solvers.collision_probability

    def counting(t, p, *a, **kw):
        counted.append(p)
        return original(t, p, *a, **kw)

    def forward(name, t, p, method, reps):
        samples = []
        for _ in range(reps):
            start = time.perf_counter()
            result = collision.collision_probability(t, p, method)
            samples.append(time.perf_counter() - start)
        answers.append(({"name": name, "kind": "prob", "t": t, "p": p}, _result(result)))
        return statistics.median(samples)

    metrics["ref.birthday_365_23.us"] = 1e6 * forward("birthday_365_23", 365, 23, "auto", 51)
    metrics["ref.t2p47_p14e6.exact_ms"] = 1e3 * forward("t2p47_p14e6_exact", 2**47, 14_000_000,
                                                        "exact", 3)
    metrics["ref.t2p47_p14e6.series_us"] = 1e6 * forward("t2p47_p14e6_series", 2**47,
                                                         14_000_000, "series", 51)
    seconds = forward("t1e11_p1e8_exact", 1e11, 10**8, "exact", 1)
    metrics["ref.t1e11_p1e8.exact_ms"] = 1e3 * seconds
    metrics["ref.t1e11_p1e8.ns_per_factor"] = 1e9 * seconds / (10**8 - 1)

    for name, fn, op in (
        ("solve_population_2p96", solvers.solve_population,
         {"kind": "solve_population", "t": 2**96, "x": 0.01}),
        ("solve_space_world", solvers.solve_space,
         {"kind": "solve_space", "p": workloads.WORLD_POPULATION, "x": 0.5}),
    ):
        args = (op.get("t", op.get("p")), op["x"])
        counted.clear()
        solvers.collision_probability = counting
        try:
            answer = fn(*args)
        finally:
            solvers.collision_probability = original
        metrics[f"ref.{name}.probes"] = len(counted)
        metrics[f"ref.{name}.ms"] = 1e3 * _median_time(lambda: fn(*args), 5)[0]
        answers.append(({"name": name, **op}, encode(op["kind"], answer)))

    answer = solvers.space_for_world_overlap(50)
    answers.append(({"name": "world_overlap_50", "kind": "world", "pct": 50.0}, answer.value))
    metrics["ref.world_overlap_50.ms"] = 1e3 * _median_time(
        lambda: solvers.space_for_world_overlap(50), 5)[0]
    metrics["ref.cli_prob_365_23.ms"], output = _subprocess(
        ["-m", "ropcalc.cli", *_cli_argv("prob")])
    answers.append((_cli_op("cli_prob_365_23", "prob"), output))
    return metrics, answers


def cli_layers():
    """Split one CLI call into interpreter, imports, parsing and the command.

    The command is timed on its own (``args.func(args)``, which is
    ``main(argv)`` minus parsing), so its time is never swamped by the noise
    of two larger ones.  Returns (metrics, answers): the output of one
    in-process ``main(argv)`` per subcommand is checked by run.py against
    the library, like the reference answers.
    """
    from ropcalc import cli  # only the traced run needs it; keeps it out of set-up

    metrics, answers = {"cli.interp_ms": _subprocess(["-c", "pass"])[0]}, []
    metrics["cli.import_ms"] = _subprocess(["-c", "import ropcalc"])[0] - metrics["cli.interp_ms"]
    metrics["cli.import_numpy_ms"] = (_subprocess(["-c", "import numpy"])[0]
                                      - metrics["cli.interp_ms"])
    parse = {}
    for sub in CLI_REFERENCE:
        argv = _cli_argv(sub)
        parse[sub] = 1e3 * _median_time(lambda: cli.build_parser().parse_args(argv), 21)[0]

        args = cli.build_parser().parse_args(argv)

        def command():
            with contextlib.redirect_stdout(io.StringIO()):
                args.func(args)

        metrics[f"cli.{sub}.run_ms"] = 1e3 * _median_time(command, 21)[0]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(argv)
        answers.append((_cli_op(f"cli_{sub}", sub),
                        {"code": code, "stdout": out.getvalue(), "stderr": ""}))
    metrics["cli.parse_ms"] = statistics.fmean(parse.values())
    return metrics, answers


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if Path(ropcalc.__file__).resolve().parent != ROOT / "src" / "ropcalc":
        sys.exit(f"imported ropcalc from {ropcalc.__file__}, not from this checkout's src/")

    runner = Runner()
    for op in workloads.warmup(args.workload):
        runner.run(op)
    print("ready", flush=True)
    if args.setup_only:
        return

    summary = {}
    log = workloads.InputLog()
    tracer = None
    with open(args.out / "records.jsonl", "w", encoding="utf-8") as out:
        if not args.trace:
            window(runner, args, args.seconds, 0, "untraced", out, log)
        else:
            next_batch = window(runner, args, args.seconds / 2, 0, "untraced", out, log)
            tracer = runner.tracer = tracing.Tracer()
            tracer.install()
            try:
                window(runner, args, args.seconds / 2, next_batch, "traced", out, log)
            finally:
                tracer.uninstall()
                runner.tracer = None
            tracer.finish()
    summary["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary["inputs"] = log.report()
    with open(args.out / "records.jsonl", "a", encoding="utf-8") as out:
        for op in workloads.audit(args.workload, args.seed):
            out.write(json.dumps(dict(attempt(runner, op, "audit"), calibration=None)) + "\n")
    if args.trace:
        summary["layers"] = tracer.totals.metrics()
        summary["spans"] = tracer.span_count
        tracer.write(args.out / "spans.jsonl")
        summary["refs"], answers = reference_points()
        cli_metrics, cli_answers = cli_layers()
        summary["layers"].update(cli_metrics)
        with open(args.out / "records.jsonl", "a", encoding="utf-8") as out:
            for op, answer in answers + cli_answers:
                out.write(json.dumps({"status": "answered", "answer": answer, "window": "ref",
                                      "op": op, "seconds": None, "calibration": None}) + "\n")
    (args.out / "summary.json").write_text(json.dumps(summary), encoding="utf-8")


if __name__ == "__main__":
    main()

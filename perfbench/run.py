"""ropcalc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; it uses the ropcalc under the
checkout's ``src/`` and writes only to ``.perfbench/`` there.  It times
set-up over several fresh launches, runs the workload's window in a fresh
worker process, scales every time to a reference host speed with the
calibration loop (calibration.py), checks every answer against the
independent oracle after the window, prints a report, and prints one JSON
object as its last line.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from a traced run.  See README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import calibration
import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Set-up is timed over this many fresh launches, each scaled by the mean of
# the calibrations (median of a few loops) just before and just after it,
# and the median is reported.  A further launch runs the window.
SETUP_LAUNCHES = 15
SETUP_CALIBRATION_LOOPS = 5

# Tail percentile: the highest of 75/90/95/99 that leaves at least 10
# samples beyond it.  Every workload keeps over 1000 samples in a 20 s run,
# so it is p99 for all; it is fixed so that a faster program is compared at
# the same percentile.  The report says when fewer than 10 lie beyond it.
TAIL_PERCENTILE = 99

# The tail is the median of the TAIL_PERCENTILE latencies of up to
# TAIL_PARTS consecutive, equal parts of the window, each of at least
# PART_SAMPLES samples so that 10 lie beyond its p99: a burst of other work
# on the host lifts the tail of one part and leaves the median alone.
TAIL_PARTS = 4
PART_SAMPLES = 1000

# Processes that check answers once the window is over (the machine has two
# cores; nothing else runs then).
CHECK_PROCESSES = 2

# ROADMAP re-anchor probe counts for the two solver reference points.
ROADMAP_PROBES = {"ref.solve_population_2p96.probes": 91, "ref.solve_space_world.probes": 34}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    """This environment with the checkout's src/ first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return env


def launch(args, workdir, setup_only):
    """Start a worker; returns (process, seconds until it printed "ready")."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(workdir)] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        fail(f"worker did not get ready (exit {proc.returncode})")
    return proc, ready


def finish(proc, timeout):
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("worker timed out")
    if proc.returncode != 0:
        fail(f"worker exited with {proc.returncode}")


def measure(args, workdir):
    """Runs the set-up launches and the window; returns the scaled set-up times."""
    setups = []
    before = calibration.seconds(SETUP_CALIBRATION_LOOPS)
    for _ in range(SETUP_LAUNCHES):
        proc, ready = launch(args, workdir, setup_only=True)
        finish(proc, 60)
        after = calibration.seconds(SETUP_CALIBRATION_LOOPS)
        setups.append(ready * calibration.REFERENCE_S / ((before + after) / 2))
        before = after
    proc, _ready = launch(args, workdir, setup_only=False)
    finish(proc, args.seconds + 120)
    return setups


def check(workdir):
    """Check every record in CHECK_PROCESSES processes; rows in record order.

    No timeout: checking is deterministic and ends by itself, and its cost
    grows with the answers a window returns.
    """
    procs = []
    try:
        for share in range(CHECK_PROCESSES):
            out = workdir / f"checked_{share}.json"
            cmd = [sys.executable, str(HERE / "check.py"), str(workdir / "records.jsonl"),
                   str(share), str(CHECK_PROCESSES), str(out)]
            procs.append((subprocess.Popen(cmd, cwd=ROOT, env=child_env()), out))
        rows = []
        for proc, out in procs:
            if proc.wait() != 0:
                fail(f"checking exited with {proc.returncode}")
            rows.extend(json.loads(out.read_text(encoding="utf-8")))
        return sorted(rows)
    finally:
        for proc, _ in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


# --- metrics --------------------------------------------------------------

def percentile(sorted_values, q):
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def tail(latencies):
    """Median over consecutive parts of their TAIL_PERCENTILE latency
    (see TAIL_PARTS), and the fewest samples beyond it in a part."""
    parts = max(1, min(TAIL_PARTS, len(latencies) // PART_SAMPLES))
    size = len(latencies) // parts
    found = [percentile(sorted(latencies[i * size:(i + 1) * size]), TAIL_PERCENTILE)
             for i in range(parts)]
    return statistics.median(v for v, _ in found), min(b for _, b in found)


def window_stats(records):
    """Throughput and latencies of one window, in scaled seconds.

    Throughput is answered operations per scaled busy second; latencies are
    those of the operations that passed every check.
    """
    scaled = [r["seconds"] * calibration.REFERENCE_S / r["calibration"] for r in records]
    return {"ops_per_s": sum(r["answered"] for r in records) / sum(scaled),
            "latencies": [s for r, s in zip(records, scaled) if r["ok"]],
            "host": statistics.median(r["calibration"] for r in records)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not (ROOT / "src" / "ropcalc" / "__init__.py").is_file():
        fail(f"no ropcalc sources under {ROOT / 'src'}; run from a ropcalc checkout")

    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setups = measure(args, workdir)
        summary = json.loads((workdir / "summary.json").read_text(encoding="utf-8"))
        if args.trace:
            os.replace(workdir / "spans.jsonl", ROOT / ".perfbench" / f"spans_{args.workload}.jsonl")
        check_start = time.perf_counter()
        checked = check(workdir)
        check_seconds = time.perf_counter() - check_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records, failures, traced_wrong, ref_failures = [], Counter(), 0, {}
    audit, audit_failed, audit_failures = 0, 0, Counter()
    for _line, host, window, seconds, answered, kinds, wrong, name in checked:
        if window == "ref":
            if kinds:
                ref_failures[name] = kinds
            continue
        if window == "audit":
            audit += 1
            audit_failed += bool(kinds)
            audit_failures.update(kinds)
            continue
        failures.update(kinds)
        if window == "traced":
            traced_wrong += wrong
        records.append({"calibration": host, "window": window, "seconds": seconds,
                        "ok": not kinds, "answered": answered})
    attempted = len(records)
    ok = sum(r["ok"] for r in records)
    broken = (set(failures) | set(audit_failures)
              | {k for ks in ref_failures.values() for k in ks}) & oracle.BROKEN_GUARANTEES
    untraced = window_stats([r for r in records if r["window"] == "untraced"])
    lat = untraced["latencies"]
    if not lat:
        fail("no operation was answered correctly; nothing to time")
    tail_s, beyond = tail(lat)

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}")
    inputs = summary["inputs"]
    ranges = " ".join(f"{k}=[{lo:.6g}, {hi:.6g}]" for k, (lo, hi) in inputs["ranges"].items())
    print(f"# inputs: seed={args.seed} batches={inputs['batches']} ops={inputs['ops']} {ranges} "
        f"sha256={inputs['sha256']}")
    print(f"# set-up: median of {len(setups)} launches, scaled samples "
        + ", ".join(f"{s:.4f}" for s in setups) + " s")
    print(f"# host: median calibration loop {1e3 * untraced['host']:.4f} ms in the window; "
        f"times scaled to {1e3 * calibration.REFERENCE_S:g} ms")
    print(f"# throughput: {untraced['ops_per_s']:.6g} answered ops per scaled busy second")
    print(f"# latency: {len(lat)} ok samples; p50 {1e3 * statistics.median(lat):.4g} ms; "
        f"tail p{TAIL_PERCENTILE} {1e3 * tail_s:.4g} ms (median over parts of the window) "
        f"with at least {beyond} samples beyond it in each part"
        + ("" if beyond >= 10 else " (FEWER THAN 10: tail is not resolved)"))
    print(f"# outcome: attempted {attempted}, ok {ok}, failed {attempted - ok}; by kind "
        + (json.dumps(dict(sorted(failures.items()))) if failures else "{}")
        + f"; correct={not broken}; checked in {check_seconds:.1f} s")
    print(f"# audit (untimed, not in attempted): {audit} ops where ropcalc fails today, "
        f"failed {audit_failed}; by kind " + json.dumps(dict(sorted(audit_failures.items()))))

    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": untraced["ops_per_s"],
            "latency_p50_ms": 1e3 * statistics.median(lat),
            "latency_tail_ms": 1e3 * tail_s,
            "ok_frac": ok / attempted,
            "peak_rss_mb": summary["peak_rss_kb"] / 1024.0,
        }
    else:
        traced = window_stats([r for r in records if r["window"] == "traced"])
        metrics = dict(summary["layers"])
        spans = summary["spans"]
        metrics["collision.wrong"] = traced_wrong
        metrics["trace.untraced_ops_per_s"] = untraced["ops_per_s"]
        metrics["trace.traced_ops_per_s"] = traced["ops_per_s"]
        metrics["trace.overhead_frac"] = 1.0 - traced["ops_per_s"] / untraced["ops_per_s"]
        metrics["trace.ops"] = sum(1 for r in records if r["window"] == "traced")
        metrics.update(summary["refs"])
        metrics["audit.ops"] = audit
        metrics["audit.failed"] = audit_failed
        print(f"# traced window: {metrics['trace.ops']} ops, {spans} spans; "
            f"repeat share {metrics['inputs.repeat_share']:.4f}; route shares exact "
            f"{metrics['inputs.route_share.exact']:.4f} series "
            f"{metrics['inputs.route_share.series']:.4f} trivial "
            f"{metrics['inputs.route_share.trivial']:.4f}")
        print(f"# tracing overhead: {traced['ops_per_s']:.6g} traced vs "
            f"{untraced['ops_per_s']:.6g} untraced ops/s "
            f"({100 * metrics['trace.overhead_frac']:.2f}% slower)")
        for name, baseline in ROADMAP_PROBES.items():
            verdict = "matches" if metrics[name] == baseline else "differs from"
            print(f"# reference {name} = {metrics[name]} {verdict} the ROADMAP baseline {baseline}")
        print("# reference answers: "
            + ("all pass the oracle" if not ref_failures else json.dumps(ref_failures)))
    listed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(json.dumps({
        "correct": not broken,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed["per_layer" if args.trace else "end_to_end"]},
    }))


if __name__ == "__main__":
    main()

"""Per-operation checks, run after the timed window.

    python3 perfbench/check.py RECORDS SHARE SHARES OUT

checks every SHARES-th record of a records file, starting at SHARE, and
writes one row per record to OUT as JSON.  run.py starts one such process
per core once the window is over, so checking a long run takes half the
time.
"""

import json
import math
import sys
from pathlib import Path

import ropcalc

import oracle
import workloads

# Space rop-table uses when -t is not given (its documented default, 2^36).
CLI_DEFAULT_SPACE = 2**36


class Checker:
    """Checks answers after the window; returns failure kinds per operation."""

    def __init__(self):
        self.reference = oracle.Oracle()

    def check(self, op, answer):
        """(kinds, wrong forward answers) for one answered operation."""
        kind = op["kind"]
        if kind == "prob":
            kinds = self.reference.check_forward(op["t"], op["p"], answer)
            return kinds, int(bool(kinds))
        if kind == "table":
            return self._table(op, answer)
        if kind == "solve_population":
            return self._minimal(op["t"], op["x"], answer), 0
        if kind == "solve_space":
            return self._on_target(op["p"], op["x"], answer), 0
        if kind == "world":
            return self._on_target(workloads.WORLD_POPULATION, op["pct"] / 100.0, answer), 0
        if kind == "cli":
            return self._cli(op, answer), 0
        raise ValueError(kind)

    def _minimal(self, t, x, p):
        prob = ropcalc.collision_probability
        if prob(t, p).probability >= x and (p <= 2 or prob(t, p - 1).probability < x):
            return []
        return ["not_minimal"]

    def _on_target(self, p, x, t):
        bound = ropcalc.collision_probability(t, p).abs_error_bound
        allowed = oracle.SOLVE_RTOL * x + 2 * bound + oracle.PROB_SLACK
        return [] if abs(self.reference.reference(t, p)[1] - x) <= allowed else ["off_target"]

    def _table(self, op, answer):
        kinds = set()
        if answer["records"] != [[n, p] for n, p in zip(op["names"], op["pops"])]:
            kinds.add("parse")
        wrong = 0
        for space, row in zip(workloads.ROP_SPACES, answer["rows"]):
            for (_name, pop), cell in zip(answer["records"], row):
                cell_kinds = self.reference.check_forward(space, pop, cell)
                wrong += bool(cell_kinds)
                kinds.update(cell_kinds)
        return sorted(kinds), wrong

    def _cli(self, op, answer):
        # the fixed reference calls are all inside the domain: any refusal is a mismatch
        if answer["code"] != 0 or answer["stderr"]:
            return ["cli_mismatch"]
        try:
            got = json.loads(answer["stdout"])
        except ValueError:
            return ["cli_mismatch"]
        # sorted-key JSON text: floats compare bit for bit, ints apart from floats
        same = json.dumps(got, sort_keys=True) == json.dumps(self._cli_expected(op), sort_keys=True)
        return [] if same else ["cli_mismatch"]

    def _cli_expected(self, op):
        """The CLI's JSON, rebuilt from in-process library calls."""
        sub = op["sub"]

        def finite(v):
            return None if math.isinf(v) else v

        if sub == "prob":
            r = ropcalc.collision_probability(ropcalc.as_space_size(op["t"]), op["p"])
            return {"probability": r.probability, "log_survival": finite(r.log_survival),
                    "method": r.method, "order": r.order, "error_bound": r.abs_error_bound,
                    "note": None}
        if sub == "solve-p":
            space = ropcalc.as_space_size(op["t"])
            p = ropcalc.solve_population(space, op["x"])
            return {"space": space.value, "target": op["x"], "population": p,
                    "probability": ropcalc.collision_probability(space, p).probability}
        if sub == "solve-t":
            space = ropcalc.solve_space(op["p"], op["x"])
            return {"population": op["p"], "target": op["x"], "space": space.value,
                    "probability": ropcalc.collision_probability(space, op["p"]).probability}
        if sub == "rop-table":
            records = ropcalc.load_bundled_cities()
            return [{"name": e.record.name, "population": e.record.population,
                     "probability": e.result.probability,
                     "log_survival": finite(e.result.log_survival), "display": e.display}
                    for e in ropcalc.rop_table(records, CLI_DEFAULT_SPACE)]
        if sub == "curve":
            space = ropcalc.as_space_size(op["t"])
            pops = [round(i * op["p"] / 100) for i in range(101)]
            return [{"population": p, "probability": ropcalc.collision_probability(space, p).probability}
                    for p in pops]
        raise ValueError(sub)


def check_share(path, share, shares):
    """Check every ``shares``-th record of a records file, from ``share`` on."""
    checker = Checker()
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh):
            if line_no % shares != share:
                continue
            rec = json.loads(line)
            if rec["status"] == "answered":
                kinds, wrong = checker.check(rec["op"], rec["answer"])
            else:
                kinds, wrong = [rec["status"]], 0
            rows.append((line_no, rec["calibration"], rec["window"], rec["seconds"],
                         rec["status"] == "answered", kinds, wrong, rec["op"].get("name")))
    return rows


if __name__ == "__main__":
    records, share, shares, out = sys.argv[1:]
    rows = check_share(records, int(share), int(shares))
    Path(out).write_text(json.dumps(rows), encoding="utf-8")

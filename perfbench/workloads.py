"""Seeded inputs for the benchmark workloads.

A workload runs in batches.  Every batch is a pure function of
(workload, seed, index): two runs with one seed see identical inputs,
however many batches their time window lets them finish.  Each batch is a
stratified sample (one draw per equal-width stratum of log size, shuffled),
so a batch costs nearly the same whatever the seed; that is what keeps the
per-batch throughput steady from seed to seed.

Operations are plain dicts of JSON values; the library only ever sees the
numbers and strings inside them, never the seed.
"""

import hashlib
import json
import math
import random

WORKLOADS = ("forward_exact", "solve_sweep", "rop_tables")

# Model spaces every rop_tables table is evaluated over: space_size of
# GaltonModel() and RegionModel(), then 1e12 and 2^64.  Literals, so the
# inputs do not depend on the code under test.
ROP_SPACES = (2**36, 2**47, 10**12, 2**64)

# Default world population of space_for_world_overlap.
WORLD_POPULATION = 8_200_000_000

# Rows per generated table and tables per rop_tables batch.
TABLE_ROWS = 40
TABLES_PER_BATCH = 8

# Below 2^36 * 1e-4 ~ 6.87e6 every row takes the series route at every
# model space.  An exact-route row would cost ~70 ms against ~0.2 ms for a
# series row and would hide the series and ingest cost this workload is for;
# forward_exact measures the exact route.  From ~5.3e6 to that switch, auto
# stops the series at order 2 at 2^36 and log_survival misses 1e-9 relative
# (ROADMAP item 2), so the window stays below 5e6 and the audit draws there.
TABLE_MAX_POPULATION = 5_000_000
SERIES_SWITCH_2P36 = 2**36 // 10**4

# Below this p, solve_space's seed bracket 4 * t0 stays under the 1e30
# domain edge for every target >= 1e-6 (t0 ~ p^2 / 2x <= 1.25e29).  Above
# it, with a small target, solve_space refuses a root that lies inside the
# domain; the audit draws there.
SOLVE_MAX_POPULATION = 5 * 10**11

# Operations per audit: inputs from the documented domain where ropcalc
# refuses or misses a check today.  The audit runs after the window, untimed
# and apart from it, so every operation of the window passes while each
# known defect still shows in every run.  A fix turns its failures into
# passes.
AUDIT_OPS = 10

_SYLLABLES = ("al", "bar", "cor", "dun", "el", "fen", "gar", "hol", "ing", "jor",
              "kel", "lin", "mar", "nor", "os", "pen", "quin", "ros", "sal", "tor",
              "ul", "ver", "wes", "yar")
_SUFFIXES = ("ton", "ville", " City", "burg", "field", " Falls", "port", " Springs")


def _rng(workload, seed, stream, index):
    return random.Random(f"{workload}/{seed}/{stream}/{index}")


def _strata(rng, n):
    """n uniforms in [0, 1), one in each of n equal strata, shuffled."""
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    return u


def _log_between(u, lo, hi):
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _forward_exact(rng):
    # p log-uniform in [1e3, 4e6] and p/t log-uniform in (1e-4, 0.45), so
    # auto walks the O(p) product.
    ops = []
    for u, r in zip(_strata(rng, 50), _strata(rng, 50)):
        p = round(_log_between(u, 1e3, 4e6))
        ops.append({"kind": "prob", "t": round(p / _log_between(r, 1e-4, 0.45)), "p": p})
    return ops


def _solve_sweep(rng):
    n = 10
    pops = [{"kind": "solve_population", "t": round(2.0 ** (8 + u * (math.log2(1e30) - 8))),
             "x": _log_between(x, 1e-6, 0.99)}
            for u, x in zip(_strata(rng, n), _strata(rng, n))]
    spaces = [{"kind": "solve_space", "p": round(_log_between(u, 3, SOLVE_MAX_POPULATION)),
               "x": _log_between(x, 1e-6, 0.99)}
              for u, x in zip(_strata(rng, n), _strata(rng, n))]
    worlds = [{"kind": "world", "pct": 100.0 * _log_between(x, 1e-6, 0.99)}
              for x in _strata(rng, n)]
    return [op for triple in zip(pops, spaces, worlds) for op in triple]


def _name(rng, taken):
    while True:
        name = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3)))
        name = name.capitalize() + rng.choice(_SUFFIXES)
        if name not in taken:
            taken.add(name)
            return name


def _grouped(rng, n, delimiter):
    style = rng.randrange(4)
    if style == 0:
        return str(n)
    if style == 1:
        return f"{n:_}"
    text = f"{n:,}"
    if style == 3:
        text = text.replace(",", ", ", 1)
    return f'"{text}"' if delimiter == "," else text


def table_text(rng, names, pops):
    """A city-style table: header, a comment, grouped digits, any delimiter."""
    delimiter = rng.choice((",", "\t", ";"))
    lines = ["# generated city-style population table",
             delimiter.join(("name", "region", "population"))]
    for name, pop in zip(names, pops):
        lines.append(delimiter.join((name, rng.choice("NESW"), _grouped(rng, pop, delimiter))))
    return "\n".join(lines) + "\n"


def _tables(rng, count, rows, lo=100, hi=TABLE_MAX_POPULATION):
    # Stratify the populations over the whole batch and deal them out
    # round-robin, so each table holds one draw from every size band.
    pops = sorted(round(_log_between(u, lo, hi))
                  for u in _strata(rng, count * rows))
    tables = []
    for j in range(count):
        mine = pops[j::count]
        rng.shuffle(mine)
        taken = set()
        names = [_name(rng, taken) for _ in mine]
        tables.append({"kind": "table", "names": names, "pops": mine,
                       "text": table_text(rng, names, mine)})
    rng.shuffle(tables)
    return tables


def batch(workload, seed, index):
    """The operations of timed batch ``index`` of ``workload`` under ``seed``."""
    rng = _rng(workload, seed, "timed", index)
    if workload == "forward_exact":
        return _forward_exact(rng)
    if workload == "solve_sweep":
        return _solve_sweep(rng)
    if workload == "rop_tables":
        return _tables(rng, TABLES_PER_BATCH, TABLE_ROWS)
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload):
    """Fixed, seed-independent warm-up operations, run before timing."""
    if workload == "forward_exact":
        return [{"kind": "prob", "t": 365, "p": 23}, {"kind": "prob", "t": 10**7, "p": 10**4}]
    if workload == "solve_sweep":
        return [{"kind": "solve_population", "t": 2**40, "x": 0.5},
                {"kind": "solve_space", "p": 10**6, "x": 0.5}, {"kind": "world", "pct": 50.0}]
    if workload == "rop_tables":
        return _tables(random.Random("warmup"), 1, 5)
    raise ValueError(f"unknown workload {workload!r}")


def audit(workload, seed):
    """The audit operations of ``workload`` under ``seed`` (see AUDIT_OPS)."""
    rng = _rng(workload, seed, "audit", 0)
    if workload == "forward_exact":
        # Beyond the exact budget with p/t >= 1/2, where neither route
        # applies and ropcalc refuses (ROADMAP item 3).
        ops = []
        for u in _strata(rng, AUDIT_OPS):
            p = round(_log_between(u, 2e8, 1e12))
            ops.append({"kind": "prob", "t": round(p / rng.uniform(0.5, 0.95)), "p": p})
        return ops
    if workload == "solve_sweep":
        # Roots t0 in [2.6e29, 5e29], inside the domain, whose seed bracket
        # 4 * t0 passes 1e30.
        ops = []
        for u, v in zip(_strata(rng, AUDIT_OPS), _strata(rng, AUDIT_OPS)):
            x = _log_between(v, 1e-6, 1e-3)
            root = _log_between(u, 2.6e29, 5e29)
            ops.append({"kind": "solve_space", "p": round(math.sqrt(-2.0 * root * math.log1p(-x))),
                        "x": x})
        return ops
    if workload == "rop_tables":
        # Rows between the window's cap and the exact switch at 2^36.
        return _tables(rng, AUDIT_OPS, 4, TABLE_MAX_POPULATION, SERIES_SWITCH_2P36)
    raise ValueError(f"unknown workload {workload!r}")


class InputLog:
    """Running hash and ranges of the inputs a run actually used."""

    def __init__(self):
        self._hash = hashlib.sha256()
        self.batches = 0
        self.ops = 0
        self.ranges = {}

    def add(self, ops):
        self.batches += 1
        for op in ops:
            self.ops += 1
            self._hash.update(json.dumps(op, sort_keys=True).encode())
            values = {k: op[k] for k in ("t", "p", "x", "pct") if k in op}
            if op["kind"] == "table":
                values["p"] = op["pops"]
                values["t"] = ROP_SPACES
            for key, v in values.items():
                for x in v if isinstance(v, (list, tuple)) else (v,):
                    lo, hi = self.ranges.get(key, (x, x))
                    self.ranges[key] = (min(lo, x), max(hi, x))

    def report(self):
        return {"batches": self.batches, "ops": self.ops,
                "ranges": {k: [float(lo), float(hi)] for k, (lo, hi) in sorted(self.ranges.items())},
                "sha256": self._hash.hexdigest()}

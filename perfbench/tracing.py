"""Spans around the benchmark's calls into ropcalc.

A span is (op, id, parent, name, start, end, attrs); spans of one operation
share ``op``.  They are kept in memory until their operation ends, then
folded into running per-layer totals, and the first ``MAX_WRITTEN`` of them
are written out when the window ends (a solve_sweep window makes close to
a million, too many to keep).  Nothing here edits the library: the traced
run wraps the public functions the benchmark calls, and counts forward
evaluations by rebinding the ``collision_probability`` name that
``ropcalc.solvers`` and ``ropcalc.rop`` imported.
"""

import functools
import importlib
import json
import math
import time

from ropcalc.collision import DomainError, IterationBudgetError

FORWARD = "collision.collision_probability"
# By module path: the package re-exports a function named rop.
_PATCHED = tuple(importlib.import_module(f"ropcalc.{name}") for name in ("solvers", "rop"))

MAX_WRITTEN = 100_000


class Tracer:
    def __init__(self):
        self.totals = Totals()
        self.written = []
        self.span_count = 0
        self._spans = []
        self._op = None
        self._stack = []
        self._saved = []

    def start_op(self, op):
        """End the current operation's spans and start collecting ``op``'s."""
        self.finish()
        self._op = op

    def finish(self):
        if self._spans:
            self.totals.add(self._spans)
            room = MAX_WRITTEN - len(self.written)
            self.written.extend(self._spans[:max(0, room)])
            self.span_count += len(self._spans)
            self._spans = []

    def call(self, name, fn, *args, attrs=None):
        """Run fn(*args) inside a span; forward evaluations record their route.

        ``attrs`` stays live: the caller may add to it after the call returns.
        """
        attrs = {} if attrs is None else attrs
        parent = self._stack[-1] if self._stack else None
        span_id = len(self._spans)
        self._spans.append(None)
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args)
        except (DomainError, IterationBudgetError):
            attrs["status"] = "refused"
            raise
        except Exception:
            attrs["status"] = "raised"
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._spans[span_id] = (self._op, span_id, parent, name, start, end, attrs)
        if name == FORWARD:
            attrs["route"] = _route(args[1], result)
            attrs["order"] = result.order
        return result

    def install(self):
        """Rebind collision_probability inside the modules that import it."""
        for module in _PATCHED:
            original = module.collision_probability
            self._saved.append((module, original))
            module.collision_probability = self._forward(original)

    def uninstall(self):
        while self._saved:
            module, original = self._saved.pop()
            module.collision_probability = original

    def _forward(self, original):
        def traced(t, p, *args, **kwargs):
            fn = functools.partial(original, **kwargs) if kwargs else original
            return self.call(FORWARD, fn, t, p, *args, attrs={"p": p})
        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for op, span_id, parent, name, start, end, attrs in self.written:
                fh.write(json.dumps({"op": op, "id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end, **attrs}) + "\n")


def _route(p, result):
    if p <= 1 or result.log_survival == -math.inf:
        return "trivial"
    return result.method


class Totals:
    """Per-layer counts and times, folded in one operation at a time."""

    def __init__(self):
        self.calls = {"exact": 0, "series": 0, "trivial": 0}
        self.exact_s = self.series_s = 0.0
        self.factors = self.terms = self.refused = 0
        self.seen, self.repeats = set(), 0
        # per solve kind: [solves, probes, solve seconds, seconds inside probes]
        self.solves = {"solve_population": [0, 0, 0.0, 0.0], "solve_space": [0, 0, 0.0, 0.0]}
        self.answers_log2 = 0.0
        self.parse_s = self.table_s = self.table_self_s = 0.0
        self.parse_rows = self.table_rows = 0

    def add(self, spans):
        """Fold in the spans of one operation."""
        children = {}
        for span in spans:
            if span[2] is not None:
                children.setdefault(span[2], []).append(span)

        def inner(span):
            return sum(c[5] - c[4] for c in children.get(span[1], ()))

        for span in spans:
            _op, _sid, _parent, name, start, end, attrs = span
            if name == FORWARD:
                p = attrs["p"]
                self.repeats += p in self.seen
                self.seen.add(p)
                if attrs.get("status"):
                    self.refused += 1
                    continue
                route = attrs["route"]
                self.calls[route] += 1
                if route == "exact":
                    self.factors += p - 1
                    self.exact_s += end - start
                elif route == "series":
                    self.terms += attrs["order"]
                    self.series_s += end - start
            elif name.startswith("solvers."):
                kind = "solve_population" if name == "solvers.solve_population" else "solve_space"
                totals = self.solves[kind]
                totals[0] += 1
                totals[1] += len(children.get(span[1], ()))
                totals[2] += end - start
                totals[3] += inner(span)
                if "answer" in attrs:
                    self.answers_log2 += math.log2(attrs["answer"])
            elif name == "rop.parse_populations":
                self.parse_s += end - start
                self.parse_rows += attrs["rows"]
            elif name == "rop.rop_table":
                self.table_s += end - start
                self.table_self_s += end - start - inner(span)
                self.table_rows += attrs["rows"]

    def metrics(self):
        def mean(total, count):
            return total / count if count else 0.0

        evaluations = sum(self.calls.values())
        pop, space = self.solves["solve_population"], self.solves["solve_space"]
        solves = pop[0] + space[0]
        return {
            "collision.exact.calls": self.calls["exact"],
            "collision.exact.factors": self.factors,
            "collision.exact.ns_per_factor": mean(self.exact_s * 1e9, self.factors),
            "collision.series.calls": self.calls["series"],
            "collision.series.terms": self.terms,
            "collision.series.us_per_call": mean(self.series_s * 1e6, self.calls["series"]),
            "collision.trivial.calls": self.calls["trivial"],
            "collision.refused": self.refused,
            "solvers.solve_population.probes": mean(pop[1], pop[0]),
            "solvers.solve_population.probes_total": pop[1],
            "solvers.solve_space.probes": mean(space[1], space[0]),
            "solvers.solve_space.probes_total": space[1],
            "solvers.solve_population.probes_over_log2_answer": mean(pop[1], self.answers_log2),
            "solvers.probe_us": mean((pop[3] + space[3]) * 1e6, solves),
            "solvers.self_us": mean((pop[2] + space[2] - pop[3] - space[3]) * 1e6, solves),
            "rop.parse_us_per_row": mean(self.parse_s * 1e6, self.parse_rows),
            "rop.table_us_per_row": mean(self.table_s * 1e6, self.table_rows),
            "rop.self_us_per_row": mean(self.table_self_s * 1e6, self.table_rows),
            "inputs.repeat_share": mean(self.repeats, evaluations + self.refused),
            "inputs.route_share.exact": mean(self.calls["exact"], evaluations),
            "inputs.route_share.series": mean(self.calls["series"], evaluations),
            "inputs.route_share.trivial": mean(self.calls["trivial"], evaluations),
        }

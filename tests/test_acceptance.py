"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines (under default capture they appear only for failing tests).

Every expected number here is a frozen literal: reference values were
derived up front with independent tooling (exact rational arithmetic,
50-digit floats) or taken from the published table the bundled dataset
reproduces.  Randomized checks use fixed seeds, so a green run is
reproducible bit for bit on the same platform.
"""

import math
import time

import numpy as np
import pytest

from ropcalc import (
    SeriesBoundError,
    SolveTarget,
    collision_probability,
    load_bundled_cities,
    pair_count,
    rop_table,
    solve_population,
    solve_space,
    space_for_world_overlap,
)
from ropcalc.collision import _SERIES_MAX_RATIO

SEED = 20260816


def _report(num: int, label: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"criterion {num} {status} — {label}")
    assert not failures, f"criterion {num}: " + "; ".join(str(f) for f in failures[:5])


def _best_of(fn, repeats: int = 5) -> float:
    """Minimum wall time over several runs, after one warm-up call."""
    fn()
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_classic_birthday():
    failures = []
    r = collision_probability(365, 23, "exact")
    if abs(r.probability - 0.507297) > 1e-6:
        failures.append(f"probability {r.probability} not within 1e-6 of 0.507297")
    p = solve_population(365, SolveTarget(0.5))
    if p != 23:
        failures.append(f"population solver returned {p}, wanted 23")
    elapsed = _best_of(
        lambda: (collision_probability(365, 23, "exact"), solve_population(365, 0.5))
    )
    if elapsed >= 1e-3:
        failures.append(f"runtime {elapsed * 1e3:.3f} ms, budget 1 ms")
    _report(1, "classic 365-value space: probability and inverse", failures)


# (name, expected percentage) — saturated rows carry the display string instead
CITY_EXPECTATIONS = [
    ("New York City", "≈ 100%"),
    ("Los Angeles", "≈ 100%"),
    ("Chicago", "≈ 100%"),
    ("Nashville", 96.80),
    ("Las Vegas", 95.83),
    ("Detroit", 94.59),
    ("Baltimore", 90.22),
    ("Atlanta", 85.02),
    ("Raleigh", 81.59),
    ("Miami", 79.68),
    ("Minneapolis", 73.89),
    ("Tulsa", 71.10),
    ("Arlington", 68.57),
    ("New Orleans", 64.44),
    ("Wichita", 68.33),
    ("Cleveland", 62.67),
    ("Tampa", 65.98),
    ("Aurora", 66.23),
    ("Anaheim", 58.14),
    ("Honolulu", 58.05),
    ("Lexington", 53.10),
    ("Anchorage", 46.05),
]


def test_criterion_2_city_table():
    failures = []
    t0 = time.perf_counter()
    table = rop_table(load_bundled_cities(), 2**36)
    elapsed = time.perf_counter() - t0

    if len(table) != 22:
        failures.append(f"expected 22 rows, got {len(table)}")
    for entry, (name, expected) in zip(table, CITY_EXPECTATIONS):
        if entry.record.name != name:
            failures.append(f"row order broke at {entry.record.name!r} vs {name!r}")
            continue
        if isinstance(expected, str):
            if entry.display != expected:
                failures.append(f"{name}: display {entry.display!r}, wanted {expected!r}")
        else:
            got_pp = 100.0 * entry.result.probability
            if abs(got_pp - expected) > 0.05:
                failures.append(f"{name}: {got_pp:.4f}pp vs published {expected}pp")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f} s, budget 1 s")
    _report(2, "22-city overlap table within 0.05pp of published values", failures)


def test_criterion_3_wide_space_headlines():
    failures = []
    t = 2**47

    t0 = time.perf_counter()
    half = collision_probability(t, 14_000_000, "exact")
    near_all = collision_probability(t, 40_000_000, "exact")
    exact_elapsed = time.perf_counter() - t0

    if abs(half.probability - 0.50) > 0.005:
        failures.append(f"B(2^47, 1.4e7) = {half.probability}, wanted 0.50 +- 0.005")
    if abs(near_all.probability - 0.997) > 0.001:
        failures.append(f"B(2^47, 4e7) = {near_all.probability}, wanted 0.997 +- 0.001")
    if exact_elapsed >= 5.0:
        failures.append(f"exact runtime {exact_elapsed:.2f} s, budget 5 s")

    series_elapsed = _best_of(
        lambda: (
            collision_probability(t, 14_000_000, "series"),
            collision_probability(t, 40_000_000, "series"),
        )
    )
    if series_elapsed >= 1e-3:
        failures.append(f"series runtime {series_elapsed * 1e3:.3f} ms, budget 1 ms")
    for method in ("exact", "series"):
        a = collision_probability(t, 14_000_000, method).probability
        b = half.probability if method == "exact" else a
        if abs(a - b) > 1e-9:
            failures.append(f"method {method} unstable")
    _report(3, "2^47-value space: even odds at 14M, near certainty at 40M", failures)


def test_criterion_4_world_scale_spaces():
    failures = []
    targets = [(25, 1.1686e20), (50, 4.8502e19), (75, 2.4252e19)]
    for percent, expected in targets:
        elapsed = _best_of(lambda pct=percent: space_for_world_overlap(pct), repeats=3)
        got = space_for_world_overlap(percent).value
        rel = abs(got - expected) / expected
        if rel > 1e-3:
            failures.append(f"{percent}%: {got:.6e} vs {expected:.4e} (rel {rel:.2e})")
        if elapsed >= 0.1:
            failures.append(f"{percent}%: runtime {elapsed * 1e3:.1f} ms, budget 100 ms")
    _report(4, "space sizes for 25/50/75% world-population overlap", failures)


def test_criterion_5_route_cross_validation():
    failures = []
    rng = np.random.default_rng(SEED + 5)
    refusals = 0
    for _ in range(200):
        t = 10 ** rng.uniform(3, 12)
        p_max = min(t, 1e6)
        p = max(2, min(int(10 ** rng.uniform(math.log10(2), math.log10(p_max))), int(p_max)))
        exact = collision_probability(t, p, "exact")
        try:
            series = collision_probability(t, p, "series", order=6)
        except SeriesBoundError:
            refusals += 1
            if p / t < _SERIES_MAX_RATIO:
                failures.append(f"series refused inside its certified zone: t={t}, p={p}")
            continue
        diff = abs(exact.probability - series.probability)
        if diff > series.abs_error_bound:
            failures.append(
                f"t={t:.4g}, p={p}: |exact-series|={diff:.3e} "
                f"exceeds bound {series.abs_error_bound:.3e}"
            )
        if p / t <= 1e-2 and series.abs_error_bound > 1e-10:
            failures.append(
                f"t={t:.4g}, p={p}: bound {series.abs_error_bound:.3e} above 1e-10 "
                f"despite p/t = {p / t:.3e}"
            )
    _report(
        5,
        f"200 random spaces: routes agree within reported bounds "
        f"({refusals} certified refusals)",
        failures,
    )


# fixed Monte Carlo configurations spanning collision odds from ~9% to
# forced-repeat; the last row sits exactly on the pigeonhole edge
MC_CONFIGS = [
    (500, 10), (365, 23), (400, 30), (300, 35), (250, 40),
    (200, 45), (150, 50), (100, 55), (60, 45), (47, 47),
]


def test_criterion_6_monte_carlo_oracle():
    failures = []
    trials = 10**6
    chunk = 1 << 16
    rng = np.random.default_rng(SEED + 6)
    t0 = time.perf_counter()
    for t, p in MC_CONFIGS:
        expected = collision_probability(t, p).probability
        hits = 0
        done = 0
        while done < trials:
            n = min(chunk, trials - done)
            draws = rng.integers(0, t, size=(n, p), dtype=np.int16)
            draws.sort(axis=1)
            hits += int((np.diff(draws, axis=1) == 0).any(axis=1).sum())
            done += n
        freq = hits / trials
        se = max(math.sqrt(expected * (1.0 - expected) / trials), 1e-9)
        if abs(freq - expected) > 4.0 * se:
            failures.append(
                f"t={t}, p={p}: frequency {freq:.6f} is "
                f"{abs(freq - expected) / se:.1f} SE from {expected:.6f}"
            )
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f} s, budget 30 s")
    _report(6, "10 simulated spaces within 4 standard errors over 1e6 trials", failures)


def test_criterion_7_randomized_invariants():
    failures = []
    rng = np.random.default_rng(SEED + 7)
    cases = 1000

    # monotone in population
    for _ in range(cases):
        t = 10 ** rng.uniform(0.5, 9)
        p = int(rng.integers(0, 3000))
        if collision_probability(t, p).probability > collision_probability(t, p + 1).probability:
            failures.append(f"monotonicity in p broke at t={t}, p={p}")
            break

    # monotone in space size
    for _ in range(cases):
        p = int(rng.integers(2, 3000))
        t1 = 10 ** rng.uniform(0.4, 12)
        t2 = t1 * (1.0 + rng.uniform(0.0, 10.0))
        if collision_probability(t2, p).probability > collision_probability(t1, p).probability + 1e-15:
            failures.append(f"monotonicity in t broke at p={p}, t1={t1}, t2={t2}")
            break

    # sandwich: 1 - exp(-pairs/t) <= B <= pairs/t for p <= t
    for _ in range(cases):
        t = 10 ** rng.uniform(0.5, 12)
        p = int(rng.integers(2, int(min(t, 1e4)) + 1))
        b = collision_probability(t, p).probability
        pairs_over_t = pair_count(p) / t
        lower = -math.expm1(-pairs_over_t)
        upper = min(1.0, pairs_over_t)
        if not (lower - 1e-12 <= b <= upper + 1e-12):
            failures.append(f"sandwich broke at t={t}, p={p}: {lower} / {b} / {upper}")
            break

    # pigeonhole exactness
    for _ in range(cases):
        t = int(rng.integers(2, 10**6))
        extra = int(rng.integers(1, 1000))
        r = collision_probability(t, t + extra)
        if r.probability != 1.0 or r.log_survival != -math.inf:
            failures.append(f"pigeonhole not exact at t={t}, p={t + extra}")
            break
        if not math.isfinite(collision_probability(t, t).log_survival):
            failures.append(f"survival vanished below the pigeonhole edge at t={t}")
            break

    # population solver bracketing
    for _ in range(cases):
        t = 10 ** rng.uniform(0.5, 9)
        x = rng.uniform(0.001, 0.999)
        p = solve_population(t, SolveTarget(x))
        if collision_probability(t, p).probability < x:
            failures.append(f"solver undershot at t={t}, x={x}")
            break
        if collision_probability(t, p - 1).probability >= x:
            failures.append(f"solver not minimal at t={t}, x={x}")
            break

    # space solver round-trip
    for _ in range(cases):
        p = int(10 ** rng.uniform(math.log10(2), 9))
        x = rng.uniform(0.01, 0.99)
        t = solve_space(p, SolveTarget(x))
        if abs(collision_probability(t, p).probability - x) > 1e-6:
            failures.append(f"round-trip broke at p={p}, x={x}")
            break

    _report(7, "six structural invariants over 1000 random cases each", failures)


def test_criterion_8_pair_counts():
    failures = []
    if pair_count(23) != 253:
        failures.append(f"pair_count(23) = {pair_count(23)}, wanted 253")
    rng = np.random.default_rng(SEED + 8)
    for _ in range(1000):
        n = int(rng.integers(0, 10**13))
        if pair_count(n) != math.comb(n, 2):
            failures.append(f"pair_count({n}) disagrees with the binomial form")
            break
    _report(8, "pair counts match the exact binomial form up to 1e13", failures)

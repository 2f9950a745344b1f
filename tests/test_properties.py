"""Randomized invariant tests over the evaluator and solvers.

These encode structural facts that must hold for every input: ranges,
monotonicity, the sandwich between the two routes, pigeonhole behavior,
and agreement with trusted closed forms.
"""

import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ropcalc import (
    SolveTarget,
    collision_probability,
    pair_count,
    solve_population,
    solve_space,
)
from ropcalc.collision import _SERIES_MAX_RATIO, _series_scan

from conftest import rational_collision

spaces = st.one_of(
    st.integers(min_value=2, max_value=10**15),
    st.floats(min_value=2.0, max_value=1e30, allow_nan=False, allow_infinity=False),
)
small_spaces = st.integers(min_value=2, max_value=2000)
populations = st.integers(min_value=0, max_value=10**6)


@given(spaces, populations)
@settings(max_examples=200, deadline=None)
def test_probability_is_a_probability(t, p):
    r = collision_probability(t, p)
    assert 0.0 <= r.probability <= 1.0
    assert r.log_survival <= 0.0
    assert r.abs_error_bound >= 0.0


@given(small_spaces, st.integers(min_value=0, max_value=2100))
@settings(max_examples=200, deadline=None)
def test_monotone_in_population(t, p):
    lo = collision_probability(t, p).probability
    hi = collision_probability(t, p + 1).probability
    assert lo <= hi


@given(st.integers(min_value=2, max_value=10**12), st.integers(min_value=2, max_value=3000))
@settings(max_examples=200, deadline=None)
def test_monotone_in_space(t, p):
    # a bigger space can only make a repeat less likely
    wide = collision_probability(2 * t, p).probability
    tight = collision_probability(t, p).probability
    assert wide <= tight + 1e-15


@given(small_spaces, st.integers(min_value=2, max_value=2100))
@settings(max_examples=150, deadline=None)
def test_matches_exact_rational_value(t, p):
    r = collision_probability(t, p, "exact")
    truth = rational_collision(t, p)
    assert abs(r.probability - float(truth)) <= 5e-13


@given(small_spaces)
@settings(max_examples=100, deadline=None)
def test_pigeonhole_boundary(t):
    assert collision_probability(t, t + 1).probability == 1.0
    assert collision_probability(t, t + 1).log_survival == -math.inf
    # at p == t survival is still positive: the log stays finite even when
    # the probability itself rounds to 1.0 in doubles (t >= ~30 does that)
    assert math.isfinite(collision_probability(t, t).log_survival)
    assert rational_collision(t, t) < 1


@given(
    st.floats(min_value=1e4, max_value=1e15, allow_nan=False),
    st.integers(min_value=2, max_value=10**4),
)
@settings(max_examples=200, deadline=None)
def test_routes_sandwich_each_other(t, p):
    assume(p / t <= 0.01)
    exact = collision_probability(t, p, "exact")
    series = collision_probability(t, p, "series", order=6)
    assert abs(exact.probability - series.probability) <= series.abs_error_bound


@given(st.integers(min_value=0, max_value=10**13))
@settings(max_examples=300, deadline=None)
def test_pair_count_closed_form(n):
    assert pair_count(n) == math.comb(n, 2)
    assert pair_count(n) == n * (n - 1) // 2


@given(small_spaces, st.floats(min_value=1e-6, max_value=0.999999, allow_nan=False))
@settings(max_examples=150, deadline=None)
def test_population_solver_brackets(t, target):
    p = solve_population(t, SolveTarget(target))
    assert collision_probability(t, p).probability >= target
    if p > 2:
        assert collision_probability(t, p - 1).probability < target


@given(
    st.integers(min_value=100, max_value=10**9),
    st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_space_solver_round_trips(p, target):
    t = solve_space(p, SolveTarget(target))
    assert abs(collision_probability(t, p).probability - target) <= 1e-6


@given(small_spaces, st.integers(min_value=2, max_value=2100))
@settings(max_examples=100, deadline=None)
def test_survival_probability_pair(t, p):
    # probability and log-survival always describe the same number
    r = collision_probability(t, p)
    if math.isinf(r.log_survival):
        assert r.probability == 1.0
    else:
        assert abs(r.probability - (-math.expm1(r.log_survival))) <= 1e-15


@given(st.integers(min_value=2, max_value=60))
@settings(max_examples=59, deadline=None)
def test_small_cases_against_first_principles(p):
    # survival over 365 values equals the falling-factorial ratio exactly
    truth = Fraction(1)
    for n in range(1, p):
        truth *= Fraction(365 - n, 365)
    got = collision_probability(365, p, "exact")
    assert abs(got.probability - float(1 - truth)) <= 1e-14


@given(
    st.floats(min_value=2.0, max_value=1e30),
    st.floats(min_value=0.0, max_value=_SERIES_MAX_RATIO, exclude_max=True),
    st.integers(min_value=2, max_value=511),
)
@settings(max_examples=150, deadline=None)
def test_series_terms_do_not_depend_on_where_the_scan_stops(t, ratio, k):
    # bit for bit: a scan to order k keeps the first k terms of a scan to k + 1, and omits its
    # (k + 1)-th; an order-less scan returns the terms of the explicit scan at its stop order
    p = max(2, int(ratio * t))
    assume(p / t < _SERIES_MAX_RATIO)
    shorter = [term.hex() for term in _series_scan(t, p, k)[3]]
    longer = [term.hex() for term in _series_scan(t, p, k + 1)[3]]
    assert shorter[:k] == longer[:k]
    assert shorter[k] == longer[k]
    _, _, stop, terms = _series_scan(t, p)
    assert [term.hex() for term in terms] == [term.hex() for term in _series_scan(t, p, stop)[3]]

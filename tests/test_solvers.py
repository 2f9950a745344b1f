"""Unit tests for the two inverse solvers.

Integer answers and space sizes were derived independently (exact
rational bisection / 50-digit root finding) and frozen as literals.
"""

import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from ropcalc import (
    DEFAULT_WORLD_POPULATION,
    MAX_SPACE,
    DomainError,
    SolveTarget,
    as_space_size,
    collision_probability,
    pair_count,
    solve_population,
    solve_space,
    space_for_world_overlap,
)
from ropcalc import solvers

# frozen: smallest p with B(2^47, p) >= 1/2, found by exact bisection
P_HALF_2POW47 = 13_967_949
# frozen: smallest p with B(2^47, p) >= 0.997
P_997_2POW47 = 40_436_720

# frozen: between the 60-digit mpmath values of B(1e4, 156) =
# 0.703383681438768649... and B(1e4, 157) = 0.708010896008323858..., the
# last population auto evaluates with the series at t = 1e4 and the first it
# evaluates with the exact product
X_AUTO_SWITCH_1E4 = 0.7057

# frozen: 50-digit solutions of B(t, 8.2e9) = x
SPACE_25_PERCENT = 1.1686512027e20
SPACE_50_PERCENT = 4.85034072715e19
SPACE_75_PERCENT = 2.42517036371e19


def _double(probability):
    """A stand-in evaluation result: the probability and its log_survival (-inf at 1)."""
    ls = -math.inf if probability == 1.0 else math.log1p(-probability)
    return SimpleNamespace(probability=probability, log_survival=ls)


@pytest.fixture
def probes(monkeypatch):
    """The (t, p) pairs the solvers evaluate the forward map at, in order."""
    calls = []

    def counting(t, p):
        calls.append((t, p))
        return collision_probability(t, p)

    monkeypatch.setattr(solvers, "collision_probability", counting)
    return calls


class TestSolveTarget:
    def test_defaults(self):
        st = SolveTarget(0.5)
        assert st.target_prob == 0.5 and st.tolerance == 1e-9

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_rejects_degenerate_targets(self, bad):
        with pytest.raises(DomainError):
            SolveTarget(bad)

    @pytest.mark.parametrize("solve", [solve_population, solve_space],
                             ids=["population", "space"])
    @pytest.mark.parametrize("bad", ["0.5", True, 10**400, -(10**400), np.True_, np.int64(1)],
                             ids=["str", "bool", "1e400", "-1e400", "np-True", "np-1"])
    def test_solvers_refuse_a_target_that_is_not_a_probability(self, solve, bad):
        # an int past the float range is refused before float() could overflow
        with pytest.raises(DomainError):
            solve(365, bad)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(DomainError):
            SolveTarget(0.5, tolerance=0.0)
        with pytest.raises(DomainError):
            SolveTarget(0.5, tolerance=-1e-9)


class TestSolvePopulation:
    def test_classic_birthday_answer(self):
        assert solve_population(365, SolveTarget(0.5)) == 23

    def test_classic_neighbours_bracket(self):
        # 22 falls short of even odds, 23 reaches them
        assert collision_probability(365, 22).probability < 0.5
        assert collision_probability(365, 23).probability >= 0.5

    def test_wide_space_even_odds(self):
        assert solve_population(2**47, SolveTarget(0.5)) == P_HALF_2POW47

    def test_wide_space_near_certainty(self):
        assert solve_population(2**47, SolveTarget(0.997)) == P_997_2POW47

    @pytest.mark.parametrize(
        "t,target",
        [
            (365, 0.5), (365, 0.99), (1000, 0.25), (2**36, 0.5), (1e12, 0.9), (7, 0.999),
            (2**96, 0.01), (1e30, 1e-300), (1e30, 1 - 2**-53),
            (3, 1 - 2**-53), (2, 0.99), (2, 0.999),
        ],
    )
    def test_bracketing_invariant(self, t, target):
        p = solve_population(t, SolveTarget(target))
        assert collision_probability(t, p).probability >= target
        assert collision_probability(t, p - 1).probability < target

    def test_minimal_where_the_answer_crosses_the_auto_switch(self):
        p = solve_population(10**4, SolveTarget(X_AUTO_SWITCH_1E4))
        assert p == 157
        below, at = collision_probability(10**4, p - 1), collision_probability(10**4, p)
        assert (below.method, at.method) == ("series", "exact")
        assert below.probability < X_AUTO_SWITCH_1E4 <= at.probability

    def test_minimum_is_two(self):
        # any target is met by p = 2 when the space is a single value... but
        # space 1 is degenerate, so use a tiny space and huge target instead
        assert solve_population(2, SolveTarget(0.49)) == 2

    def test_answers_spaces_below_two(self):
        # one value repeats at the second draw; over 1.5 values the second draw repeats
        # with probability 1/1.5 and the third surely, so a target above 2/3 needs 3
        assert [solve_population(1, q) for q in (1e-12, 0.5, 1 - 1e-12)] == [2, 2, 2]
        assert [solve_population(1.5, q) for q in (0.5, 0.6, 0.7, 0.9)] == [2, 2, 3, 3]

    def test_tiny_target_still_needs_two(self):
        assert solve_population(365, SolveTarget(1e-12)) == 2

    def test_target_above_reachable_uses_pigeonhole(self):
        # B(10, p) maxes out below 1 until p = 11 forces a repeat
        assert solve_population(10, SolveTarget(0.9999999)) <= 11
        p = solve_population(10, SolveTarget(0.99999999999))
        assert collision_probability(10, p).probability >= 0.99999999999

    def test_monotone_in_target(self):
        answers = [solve_population(10**6, SolveTarget(x)) for x in (0.1, 0.3, 0.5, 0.9, 0.999)]
        assert answers == sorted(answers)
        assert len(set(answers)) == len(answers)

    def test_accepts_plain_float_target(self):
        assert solve_population(365, 0.5) == 23

    @pytest.mark.parametrize("t,target,most", [(2**96, 0.01, 6), (365, 0.5, 4)])
    def test_pair_count_seed_keeps_probes_few(self, monkeypatch, t, target, most):
        # secant probes from the pair-count seed p0 land on the adjacent pair around the answer
        calls = []

        def counting(t, p):
            calls.append(p)
            return collision_probability(t, p)

        monkeypatch.setattr(solvers, "collision_probability", counting)
        solve_population(t, target)
        assert len(calls) <= most

    @pytest.mark.parametrize("t, target", [(1.387e28, 0.99944), (5e29, 0.9995)])
    def test_tied_secant_gallops_down_from_its_hit(self, probes, t, target):
        # the float probability is flat here, so two probes of it tie near 1 and leave no
        # miss; bisecting from 1 took 51 and 54 probes, the secant on log_survival takes few
        answer = solve_population(t, target)
        assert len(probes) <= 15
        assert collision_probability(t, answer - 1).probability < target
        assert collision_probability(t, answer).probability >= target

    def test_tied_secant_answers_are_frozen(self):
        # frozen: the answers of an integer bisection from 1, the first p reaching each target
        rng = random.Random(20261018)
        cases = [(round(_log_uniform(rng, 1e26, 1e30)), 1 - _log_uniform(rng, 6e-7, 6e-4))
                 for _ in range(12)]
        assert [solve_population(t, x) for t, x in cases] == [
            2630307839427341, 1491240921987310, 464546771037746, 86158282691673,
            64566166148834, 582700282292571, 108273592296609, 3525477517166878,
            1587625434240007, 75497874628753, 3229473361606961, 1765066682715806]

    def test_tied_cases_aim_at_the_float_crossing(self, probes):
        # near probability 1 the float probability is flat for ~20 populations below the
        # log-survival crossing; secant probes on log_survival aimed at the float crossing
        # land on the answer's neighbours, where probes of the rounded probability tied
        rng = random.Random(20261018)
        cases = [(round(_log_uniform(rng, 1e26, 1e30)), 1 - _log_uniform(rng, 6e-7, 6e-4))
                 for _ in range(12)] + [(1.387e28, 0.99944), (5e29, 0.9995)]
        for t, x in cases:
            probes.clear()
            answer = solve_population(t, x)
            assert len(probes) <= 4, (t, x)
            assert _forward(t, answer - 1) < x <= _forward(t, answer), (t, x)

    def test_last_float_below_one_in_the_widest_space(self, probes):
        # frozen: the first population whose evaluated probability reaches 1 - 2**-53 in a
        # space of 1e30, as bisection from 1 finds it
        assert solve_population(1e30, 1 - 2**-53) == 8524240196236711
        assert len(probes) <= 6

    def test_search_cap_is_the_pigeonhole_cutoff_above_2_pow_63(self, monkeypatch):
        # A forward map that only reports a repeat once one is forced makes
        # the search run up to its cap, which must be the first p with
        # p - 1 >= t: 2**70 + 1, not the rounded float 2**70 + 1.0 == 2**70.
        def forced_only(t, p):
            return _double(1.0 if p - 1 >= as_space_size(t).value else 0.0)

        monkeypatch.setattr(solvers, "collision_probability", forced_only)
        assert solve_population(2**70, 0.5) == 2**70 + 1

    def test_a_map_below_the_target_at_the_cap_is_an_internal_error(self, monkeypatch):
        # the true map reaches probability 1 at the cap, so only a broken one gets here
        monkeypatch.setattr(solvers, "collision_probability", lambda t, p: _double(0.0))
        with pytest.raises(AssertionError, match="guaranteed-repeat cutoff failed"):
            solve_population(365, 0.5)


class TestSolveSpace:
    def test_round_trip_even_odds(self):
        p = 8_200_000_000
        t = solve_space(p, SolveTarget(0.5))
        assert abs(collision_probability(t, p).probability - 0.5) <= 1e-6

    @pytest.mark.parametrize("target", [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99])
    def test_round_trip_across_targets(self, target):
        p = 1_000_000
        t = solve_space(p, SolveTarget(target))
        assert abs(collision_probability(t, p).probability - target) <= 1e-6

    def test_round_trip_small_population(self):
        t = solve_space(23, SolveTarget(0.5))
        # the classic question inverted: ~365-ish space gives 23 even odds
        assert 350 < t.value < 380
        assert abs(collision_probability(t, 23).probability - 0.5) <= 1e-6

    def test_monotone_in_target(self):
        p = 10**6
        sizes = [solve_space(p, SolveTarget(x)).value for x in (0.1, 0.3, 0.5, 0.7, 0.9)]
        # harder targets (higher probability) need smaller spaces
        assert sizes == sorted(sizes, reverse=True)

    def test_tolerance_is_respected(self):
        p = 10**6
        loose = solve_space(p, SolveTarget(0.5, tolerance=1e-3))
        tight = solve_space(p, SolveTarget(0.5, tolerance=1e-12))
        assert abs(loose.value - tight.value) / tight.value < 2e-3
        x = collision_probability(tight, p).probability
        assert abs(x - 0.5) < 1e-9

    def test_rejects_tiny_population(self):
        with pytest.raises(DomainError):
            solve_space(1, SolveTarget(0.5))

    def test_root_next_to_the_space_ceiling(self):
        # the seed bracket [t0/4, 4*t0] reaches past 1e30 here; the root does not.
        # frozen: 50-digit root of the order-2 series, whose next term is ~1e-43
        t = solve_space(10**12, 1e-6)
        assert t.value == pytest.approx(4.99999749999458e29, rel=2e-9)

    def test_root_beyond_the_space_ceiling_names_it(self):
        # the probability at t = 1e30 is ~5e-5, so no supported space reaches 1e-9
        with pytest.raises(DomainError) as err:
            solve_space(10**13, 1e-9)
        assert "1e30" in str(err.value)
        assert "e+34" not in str(err.value)  # no probe past the maximum

    def test_rejects_out_of_range_result(self):
        # even odds among 2 draws needs t == 2; target too extreme pushes
        # the root above the supported ceiling
        with pytest.raises(DomainError):
            solve_space(10**9, SolveTarget(1e-22))

    @pytest.mark.parametrize("p", [10**200, 10**400], ids=["1e200", "1e400"])
    def test_huge_population_names_the_ceiling(self, p):
        # p - 1 >= 1e30 forces a repeat in every supported space; pair_count(p)
        # overflows a float here, so the refusal must come before any float math
        with pytest.raises(DomainError) as err:
            solve_space(p, 0.5)
        assert "1e30" in str(err.value)

    @pytest.mark.parametrize("p", [6 * 10**29, 10**30], ids=["6e29", "1e30"])
    def test_seed_past_the_ceiling_refuses_without_probing(self, monkeypatch, p):
        # log1p(-y) <= -y gives prob(t) >= 0.5 for every t <= t0 = pair_count(p) / log 2,
        # far above 1e30 here; a probe at 1e30 would meet the exact budget instead
        calls = []

        def counting(t, p):
            calls.append(t)
            return collision_probability(t, p)

        monkeypatch.setattr(solvers, "collision_probability", counting)
        with pytest.raises(DomainError) as err:
            solve_space(p, 0.5)
        assert "1e30" in str(err.value)
        assert calls == []

    def test_pair_count_bracket_needs_no_upper_probe(self, monkeypatch):
        # both bracket ends follow from the pair-count bound, and secant probes
        # leave the bisection almost nothing to probe
        calls = []

        def counting(t, p):
            calls.append(t)
            return collision_probability(t, p)

        monkeypatch.setattr(solvers, "collision_probability", counting)
        solve_space(8_200_000_000, 0.5)
        assert len(calls) <= 6

    def test_cli_golden_root_takes_few_probes(self, probes):
        # the root that `ropcalc solve-t -p 1000` prints, bit for bit
        assert solve_space(1000, 0.5).value == 720959.4167795692
        assert len(probes) <= 6

    @pytest.mark.parametrize("tolerance", [1e-16, 1e-17, 1e-300])
    def test_sub_ulp_tolerance_stops_at_adjacent_floats(self, probes, tolerance):
        # no float lies between the bracket ends long before hi - lo <= tol * lo can
        # hold; frozen: the root that bisection alone reaches, probing every midpoint
        t = solve_space(10**6, SolveTarget(0.5, tolerance=tolerance)).value
        assert t.hex() == "0x1.4fe747781c68fp+39"
        assert len(probes) <= 10

    @pytest.mark.parametrize("p", [2, 3, 7, 24])
    @pytest.mark.parametrize("target", [0.9, 0.99, 1 - 1e-12, 1 - 2**-53])
    def test_root_bracketed_for_small_populations_near_certainty(self, p, target):
        # here t0 + p - 1, not 4*t0, is the upper bracket end; spaces below 1
        # are outside the domain, and t = 1 already forces a repeat
        t = solve_space(p, target).value
        assert collision_probability(max(1.0, t * (1 - 2e-9)), p).probability >= target
        assert target >= collision_probability(t * (1 + 2e-9), p).probability


class TestWorldOverlap:
    def test_quarter_odds_space(self):
        t = space_for_world_overlap(25)
        assert t.value == pytest.approx(SPACE_25_PERCENT, rel=1e-6)

    def test_even_odds_space(self):
        t = space_for_world_overlap(50)
        assert t.value == pytest.approx(SPACE_50_PERCENT, rel=1e-6)

    def test_three_quarter_odds_space(self):
        t = space_for_world_overlap(75)
        assert t.value == pytest.approx(SPACE_75_PERCENT, rel=1e-6)

    def test_round_trips_through_forward_evaluator(self):
        for pct in (25, 50, 75):
            t = space_for_world_overlap(pct)
            got = collision_probability(t, DEFAULT_WORLD_POPULATION).probability
            assert abs(got - pct / 100) <= 1e-6

    def test_alternate_world_population(self):
        t = space_for_world_overlap(50, world_population=1000)
        assert abs(collision_probability(t, 1000).probability - 0.5) <= 1e-6
        # ~pair_count(1000)/log 2
        assert t.value == pytest.approx(499_500 / math.log(2), rel=1e-3)

    def test_monotone_decreasing_in_percent(self):
        sizes = [space_for_world_overlap(x).value for x in (5, 25, 50, 75, 95)]
        assert sizes == sorted(sizes, reverse=True)

    @pytest.mark.parametrize("bad", [0, 100, -3, 101.0, float("nan"), "50", 10**400, -(10**400),
                                     np.True_, np.int64(100)],
                             ids=["0", "100", "-3", "101.0", "nan", "str-50", "1e400", "-1e400",
                                  "np-True", "np-100"])
    def test_rejects_degenerate_percent(self, bad):
        with pytest.raises(DomainError):
            space_for_world_overlap(bad)

    def test_numpy_integers_are_the_int_answer(self):
        assert space_for_world_overlap(np.int64(50)) == space_for_world_overlap(50)
        assert space_for_world_overlap(np.int32(50), world_population=np.int64(1000)) == \
            space_for_world_overlap(50, world_population=1000)
        assert solve_space(1000.0, 0.5) == solve_space(1000, 0.5)
        assert solve_population(np.int64(365), 0.5) == 23

    def test_halving_percent_roughly_doubles_space(self):
        # for small probabilities B ~ pair_count/t, so x and t trade linearly
        t1 = space_for_world_overlap(1)
        t2 = space_for_world_overlap(2)
        assert t1.value / t2.value == pytest.approx(2.0, rel=0.01)


def _forward(t, p):
    return collision_probability(t, p).probability


def bisect_population(prob, t, goal):
    """Plain bisection from the pair-count bracket [p0/2, 2*p0], probing every step."""
    space = as_space_size(t)
    cap = math.ceil(space.value) + 1
    p0 = math.isqrt(math.ceil(2.0 * space.value * -math.log1p(-goal))) + 1
    lo, hi = min(max(p0 // 2, 1), cap), min(2 * p0, cap)
    if lo > 1 and prob(space, lo) >= goal:
        lo, hi = 1, lo
    elif prob(space, hi) < goal:
        lo, hi = hi, cap
        assert prob(space, hi) >= goal
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if prob(space, mid) >= goal else (mid, hi)
    return hi


def bisect_space(prob, p, x, tolerance=1e-9):
    """Plain bisection on log t in the pair-count bracket, probing every midpoint."""
    t0 = pair_count(p) / -math.log1p(-x)
    lo, hi = max(1.0, t0 / 4.0), min(max(4.0 * t0, t0 + (p - 1)), MAX_SPACE)
    if t0 > MAX_SPACE or hi == MAX_SPACE and prob(hi, p) > x:
        raise DomainError("root above 1e30")
    for _ in range(400):
        if hi - lo <= tolerance * lo:
            break
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if prob(mid, p) >= x else (lo, mid)
    return math.sqrt(lo * hi)


def _outcome(solve, *args):
    try:
        return solve(*args)
    except DomainError:
        return DomainError


def _log_uniform(rng, a, b):
    return math.exp(rng.uniform(math.log(a), math.log(b)))


def _target(rng):
    # targets from 1e-300 up, and from 1 - 2**-53 down
    return rng.choice([_log_uniform(rng, 1e-300, 0.5), 1.0 - _log_uniform(rng, 2**-53, 0.5)])


_RNG = random.Random(20261018)
_POPULATION_CASES = [(round(_log_uniform(_RNG, 2**8, 1e30)), _target(_RNG)) for _ in range(150)] + [
    (t, x) for t in range(2, 11) for x in (0.999, 1 - 1e-6, 1 - 1e-12, 1 - 2**-53)]
_SPACE_CASES = [(round(_log_uniform(_RNG, 2, 5e11)), _target(_RNG)) for _ in range(150)] + [
    (p, x) for p in (2, 3, 7, 24) for x in (0.9, 0.99, 1 - 1e-12, 1 - 2**-53)]


class TestAgainstPlainBisection:
    """The secant probes only skip evaluations: every answer is the bisection's, bit for bit."""

    def test_population_answers_are_the_bisections(self):
        for t, x in _POPULATION_CASES:
            assert solve_population(t, x) == bisect_population(_forward, t, x), (t, x)

    def test_space_roots_are_the_bisections(self):
        for p, x in _SPACE_CASES:
            got = _outcome(lambda: solve_space(p, x).value)
            assert got == _outcome(bisect_space, _forward, p, x), (p, x)


def _flat(z, x, true):
    # x at the crossing z = 0, steep within 1e-3 of it, flat beyond
    z *= 1e3
    return x + (x / 2 * max(z, -1.0) if z < 0 else (1 - x) / 2 * min(z, 1.0))


def _crawl(z, x, true):
    # ln -log(1 - prob) is z**3 off its value at x: flat at the crossing itself, so
    # a secant only creeps towards it, a fixed share closer each step
    return -math.expm1(math.log1p(-x) * math.exp(max(min(z**3, 3.0), -3.0)))


# Monotone forward maps that defeat a secant.  z is the log distance past the
# crossing, positive where the map reaches x; true() is the real probability.
ADVERSARIAL = {
    "quantized": lambda z, x, true: math.floor(64 * true()) / 64,
    "step": lambda z, x, true: 1.0 if z >= 0 else 0.0,
    "flat": _flat,
    "crawl": _crawl,
}


class TestAdversarialMaps:
    """Where the secant finds nothing to follow, the bisection still costs at most 10 more probes."""

    @staticmethod
    def _patch(monkeypatch, prob):
        monkeypatch.setattr(solvers, "collision_probability", lambda t, p: _double(prob(t, p)))

    @pytest.mark.parametrize("kind", sorted(ADVERSARIAL))
    def test_population(self, monkeypatch, kind):
        shape, rng = ADVERSARIAL[kind], random.Random(kind)
        for _ in range(20):
            t, x = round(_log_uniform(rng, 2**8, 1e30)), rng.uniform(0.05, 0.95)
            seed = math.sqrt(2 * t * -math.log1p(-x))
            crossing = max(2, round(seed * _log_uniform(rng, 1 / 8, 8)))
            calls = []

            def prob(space, p):
                calls.append(p)
                return shape(math.log(p / crossing), x, lambda: _forward(space, p))

            expected = bisect_population(prob, t, x)
            most, calls[:] = len(calls) + 10, []
            self._patch(monkeypatch, prob)
            assert solve_population(t, x) == expected, (t, x, crossing)
            assert len(calls) <= most, (t, x, crossing)

    @pytest.mark.parametrize("kind", sorted(ADVERSARIAL))
    def test_space(self, monkeypatch, kind):
        shape, rng = ADVERSARIAL[kind], random.Random(kind)
        for _ in range(20):
            p, x = round(_log_uniform(rng, 3, 5e11)), rng.uniform(0.05, 0.95)
            crossing = pair_count(p) / -math.log1p(-x) * _log_uniform(rng, 1 / 8, 8)
            calls = []

            def prob(t, p):
                calls.append(t)
                return shape(math.log(crossing / t), x, lambda: _forward(t, p))

            expected = _outcome(bisect_space, prob, p, x)
            most, calls[:] = len(calls) + 10, []
            self._patch(monkeypatch, prob)
            assert _outcome(lambda: solve_space(p, x).value) == expected, (p, x, crossing)
            assert len(calls) <= most, (p, x, crossing)


class TestNearCertainty:
    """Targets within 1e-8 (populations) or 1e-3 (spaces) of 1 cost what mid-range ones do."""

    def test_population_answers_are_the_bisections(self, probes):
        rng = random.Random(20261019)
        for _ in range(200):
            t, x = round(_log_uniform(rng, 1e20, 1e30)), 1 - _log_uniform(rng, 2**-53, 1e-8)
            probes.clear()
            got = solve_population(t, x)
            assert len(probes) <= 6, (t, x)
            assert got == bisect_population(_forward, t, x), (t, x)

    def test_space_roots_are_the_bisections(self, probes):
        rng = random.Random(20261019)
        for _ in range(100):
            p, x = round(_log_uniform(rng, 1e3, 1e15)), 1 - _log_uniform(rng, 2**-53, 1e-3)
            probes.clear()
            got = _outcome(lambda: solve_space(p, x).value)
            assert len(probes) <= 8, (p, x)
            assert got == _outcome(bisect_space, _forward, p, x), (p, x)

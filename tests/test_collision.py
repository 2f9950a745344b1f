"""Unit tests for the forward evaluator and its two routes.

Expected constants were derived ahead of time from independent oracles
(exact rational products, 50-digit arbitrary precision sums, math.fsum
brute force) and are frozen here as literals.
"""

import dataclasses
import itertools
import math
import os
import random
import subprocess
import sys
import threading

import pytest

import ropcalc
from ropcalc import (
    DomainError,
    EvalResult,
    GaltonModel,
    IngestError,
    IterationBudgetError,
    SeriesBoundError,
    SpaceSize,
    as_space_size,
    collision_probability,
    pair_count,
    space_size,
)
from ropcalc import collision
from ropcalc.collision import _series_scan, _survival_log_product

from conftest import assert_same_space, fsum_survival_log, rational_collision

# frozen: float of the exact rational 1 - 365!/(342! * 365^23)
B_365_23 = 0.5072972343239854
# frozen: log(364/365) + log(363/365) at 50 digits, rounded to double
V_365_3 = -0.008238005263391569
# frozen: brute-force fsum over 999999 log1p terms, cross-checked against
# the series at order 4 (agreement to 13 digits)
B_2POW36_1E6 = 0.9993080422308641
# frozen: mpmath lgamma(t+1) - lgamma(t+1-p) - p*log(t), with the working
# digits raised by the digits the cancellation loses (at least 50 remain),
# rounded to double; the three points where an order-less scan once
# stopped at order 2
V_SERIES_POINTS = [
    (1e12, 2 * 10**8, "auto", -20001.33336667267),
    (2**36, 6 * 10**6, "auto", -261.94205408229516),
    (1e11, 10**8, "series", -50016.674504753166),
]


class TestPairCount:
    def test_classic(self):
        assert pair_count(23) == 253

    def test_trivial(self):
        assert pair_count(0) == 0
        assert pair_count(1) == 0
        assert pair_count(2) == 1

    def test_world_population(self):
        assert pair_count(8_200_000_000) == 33_619_999_995_900_000_000

    def test_matches_comb(self):
        for n in (3, 10, 97, 10**6 + 3, 10**13):
            assert pair_count(n) == math.comb(n, 2)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            pair_count(-1)

    def test_rejects_fractional(self):
        with pytest.raises(DomainError):
            pair_count(2.5)


class TestSpaceSize:
    def test_exact_form_for_small_integers(self):
        assert_same_space(as_space_size(365), 365.0)

    def test_power_of_two_keeps_exact_form(self):
        assert_same_space(as_space_size(2**36), 68_719_476_736.0)

    def test_large_integer_drops_exact_form(self):
        # 10^20 is beyond 2**63 - 1, and still a float exactly
        assert_same_space(as_space_size(10**20), 1e20)

    def test_unrepresentable_64bit_drops_exact_form(self):
        # 2**63 - 1 does not round-trip through a double: it rounds to 2**63
        assert_same_space(as_space_size(2**63 - 1), 2.0**63)

    def test_integer_float_regains_exact_form(self):
        assert_same_space(as_space_size(365.0), 365.0)

    def test_fractional_space_allowed(self):
        assert_same_space(as_space_size(10.5), 10.5)

    @pytest.mark.parametrize("bad", [0, 0.5, -3, float("nan"), float("inf"), 2e30, 10**31,
                                     int(1e30) + 1, -10**400])
    def test_rejected_values(self, bad):
        with pytest.raises(DomainError):
            as_space_size(bad)

    def test_huge_int_refusal_names_its_size(self):
        # an int too long to print (over 4300 digits) is refused all the same
        for t in (10**31, 10**5000):
            with pytest.raises(DomainError, match=f"^space size of {t.bit_length()} bits exceeds"):
                as_space_size(t)

    @pytest.mark.parametrize("bad", [True, "365", None])
    def test_rejected_inputs(self, bad):
        with pytest.raises(DomainError):
            as_space_size(bad)

    @pytest.mark.parametrize("bad", [True, "365", None, 365, 2**36])
    def test_non_float_value_rejected(self, bad):
        with pytest.raises(DomainError):
            SpaceSize(bad)

    def test_equal_spaces_compare_and_hash_equal(self):
        built = [as_space_size(2**36), as_space_size(2.0**36), SpaceSize(2.0**36),
                 as_space_size(SpaceSize(2.0**36)), space_size(GaltonModel())]
        assert all(s == built[0] and hash(s) == hash(built[0]) for s in built)
        assert len(set(built)) == 1
        assert len({as_space_size(365), as_space_size(365.0), SpaceSize(365.0)}) == 1

    def test_idempotent(self):
        s = as_space_size(42)
        assert as_space_size(s) is s


class TestSurvivalLogExact:
    def test_two_draw_case_is_log1p(self):
        for t in (2.0, 365.0, 1e12, 1e30):
            assert collision_probability(t, 2, "exact").log_survival == math.log1p(-1 / t)

    def test_three_draws_from_365(self):
        v = collision_probability(365, 3, "exact").log_survival
        assert v == pytest.approx(V_365_3, abs=1e-16)
        # and the defining two-term form agrees
        assert v == pytest.approx(math.log(364 / 365) + math.log(363 / 365), abs=1e-15)

    def test_galton_space_million_draws(self, galton_space):
        r = collision_probability(galton_space, 10**6, "exact")
        assert r.probability == pytest.approx(B_2POW36_1E6, abs=1e-13)

    @pytest.mark.parametrize("p", [2, 3, 1000, 65535, 65536, 65537, 131073])
    def test_matches_fsum_oracle_across_block_boundaries(self, p):
        t = 1e7
        assert _survival_log_product(t, p) == pytest.approx(
            fsum_survival_log(t, p), rel=1e-13, abs=1e-18
        )

    # frozen: multi-block products as the out-of-place kernel summed them
    # (block sums of log1p(-(n / t))), at a mid ratio and at t = p - 0.5
    EXACT_MULTI_BLOCK = [
        (2**16 + 2, 262152.0, "-0x1.187c43ec8de6fp+13"),
        (2**16 + 2, 65537.5, "-0x1.00012746deaeep+16"),
        (3 * 2**16 + 5, 786452.0, "-0x1.a4bb003b46313p+14"),
        (3 * 2**16 + 5, 196612.5, "-0x1.800213a37673dp+17"),
    ]

    @pytest.mark.parametrize("p, t, frozen", EXACT_MULTI_BLOCK)
    def test_multi_block_products_are_frozen(self, p, t, frozen):
        v = collision_probability(t, p, "exact").log_survival
        assert v.hex() == frozen
        assert v == pytest.approx(fsum_survival_log(t, p), rel=1e-13)

    def test_deterministic(self):
        a = collision_probability(2**36, 123_457, "exact")
        b = collision_probability(2**36, 123_457, "exact")
        assert a.log_survival.hex() == b.log_survival.hex()

    @pytest.mark.parametrize("budget", [None, "5", True, -1, 1j])
    def test_rejects_bad_budget(self, budget):
        with pytest.raises(DomainError, match="^exact budget must be"):
            collision_probability(365, 23, exact_budget=budget)

    def test_budget_error_mentions_series(self):
        with pytest.raises(IterationBudgetError, match="series"):
            collision_probability(1e12, 10**7, "exact", exact_budget=10**6)

    @pytest.mark.parametrize("method", ["auto", "exact"])
    def test_dense_over_budget_refusals_agree(self, method):
        # p/t = 2/3 is over the budget and too dense for the series, so no
        # route may send the caller to the series, which would refuse too
        t, p = 3e8, 2 * 10**8
        with pytest.raises(IterationBudgetError) as info:
            collision_probability(t, p, method)
        message = str(info.value)
        assert "199999999 factors" in message and "100000000" in message
        assert "p/t = 0.667" in message and "use the series" not in message

    def test_fractional_space_accepts_extra_draw(self):
        # 11 draws from 10.5 "values" still leaves every factor positive
        v = collision_probability(10.5, 11, "exact").log_survival
        assert math.isfinite(v) and v < -10


def _power_sum(k, m):
    """Exact sum of n**k for n = 1..m (k >= 1), the k-th value the generator yields."""
    return next(itertools.islice(collision._power_sums(m), k - 1, None))


def _recording_divmod(monkeypatch):
    """Divisors of every divmod the power sums make from now on: j + 1 for order j."""
    divisors = []

    def recording(a, b):
        divisors.append(b)
        return divmod(a, b)

    monkeypatch.setattr(collision, "divmod", recording, raising=False)
    return divisors


class TestPowerSum:
    @pytest.mark.parametrize("k", range(1, 13))
    def test_matches_brute_force(self, k):
        for m in (1, 2, 3, 7, 50, 201):
            assert _power_sum(k, m) == sum(n**k for n in range(1, m + 1))

    def test_closed_forms_at_scale(self):
        m = 10**13
        assert _power_sum(1, m) == m * (m + 1) // 2
        assert _power_sum(2, m) == m * (m + 1) * (2 * m + 1) // 6
        assert _power_sum(3, m) == (m * (m + 1) // 2) ** 2

    def test_zero_range(self):
        assert _power_sum(5, 0) == 0

    @pytest.mark.parametrize("q", [10_007, 65_521])
    def test_high_order_huge_m_against_modular_oracle(self, q):
        # n**k mod q repeats with period q in n, so the sum mod q needs only
        # one full period and a remainder; pow(n, k, q) is independent of
        # the recurrence.  k = 513 is the scan cap plus its omitted term.
        def oracle(k, m):
            def period_sum(upto):
                return sum(pow(n, k, q) for n in range(1, upto + 1))
            return ((m // q) * period_sum(q) + period_sum(m % q)) % q

        m = 10**13 + 12_345
        sums = list(itertools.islice(collision._power_sums(m), 513))
        for k in (513, 13, 64, 200, 511, 512):
            assert sums[k - 1] % q == oracle(k, m)

    def test_cold_scan_at_the_cap_computes_each_order_once(self, monkeypatch):
        # the scan at the order cap needs orders 1..513 of one m; orders 1..3
        # come from closed forms and each higher order j divides by j + 1 once.
        # No sum outlives its scan, so the same population costs the same again.
        divisors = _recording_divmod(monkeypatch)
        first = _series_scan(1e12, 10**6, 512)
        assert divisors == list(range(5, 515))
        assert _series_scan(1e12, 10**6, 512) == first
        assert divisors == 2 * list(range(5, 515))

    def test_cold_order_less_scan_holds_no_order_past_its_stop(self, monkeypatch):
        # sums are made only as the scan asks for them, so a scan that stops
        # at k computes S_1..S_{k+1}: divisions for orders 4..k+1 and no more
        divisors = _recording_divmod(monkeypatch)
        rng = random.Random(4000)
        cases = [(p / x, p) for p in (2, 3, 5, 9) for x in (0.3, 0.45, 0.4999)]
        for _ in range(400):
            p = int(10 ** rng.uniform(0.31, 12))
            cases.append((p / 10 ** rng.uniform(-6, math.log10(0.4999)), p))
        for t, p in cases:
            divisors.clear()
            k = _series_scan(t, p)[2]
            assert divisors == list(range(5, k + 3)), (t, p)

    def test_concurrent_cold_scans_match_a_single_thread(self):
        # four threads share some populations and keep others to themselves,
        # order-less and at explicit orders up to 80; every answer is the one
        # a single thread gets, compared by hex
        rng = random.Random(20261018)
        shared = [rng.randrange(10**4, 10**8) for _ in range(12)]
        jobs = [[(p * rng.choice([3, 10, 1e3, 1e6]), p,
                  rng.choice([None, None, rng.randint(2, 80)]))
                 for p in shared + [rng.randrange(10**4, 10**8) for _ in range(12)]]
                for _ in range(4)]

        def run(batch):
            return [tuple(map(float.hex, _series_scan(t, p, order)[:2])) for t, p, order in batch]

        expected = [run(batch) for batch in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            for _ in range(3):  # each round races to build the Pascal rows afresh
                collision._pascal.cache_clear()
                results, barrier = [None] * 4, threading.Barrier(4, timeout=60)

                def worker(i):
                    barrier.wait()
                    results[i] = run(jobs[i])

                threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert results == expected
        finally:
            sys.setswitchinterval(interval)


class TestSurvivalLogSeries:
    def test_two_draws_is_mercator(self):
        # p = 2 reduces the series to -sum 1/(k t^k), the expansion of log(1 - 1/t)
        t = 1e6
        v, bound = _series_scan(t, 2, 30)[:2]
        assert v == pytest.approx(math.log1p(-1 / t), rel=1e-15)
        assert bound < 1e-180

    def test_agrees_with_exact_within_bound(self):
        v_exact = collision_probability(365, 23, "exact").log_survival
        v_series, bound = _series_scan(365.0, 23, 6)[:2]
        assert abs(v_series - v_exact) <= bound
        assert bound < 1e-8

    def test_first_term_dominates_for_wide_spaces(self, galton_space):
        # order-1 contribution is pair_count(p)/t; frozen from exact integer division
        p = 467_963
        term1 = pair_count(p) / galton_space
        assert term1 == pytest.approx(1.5933539646066492, abs=1e-12)
        assert -math.expm1(-term1) == pytest.approx(0.7968, abs=5e-4)
        v = collision_probability(galton_space, p, "series", order=2).log_survival
        assert v == pytest.approx(-term1, rel=1e-5)

    def test_bound_is_honest_against_oracle(self):
        for t, p in ((1e4, 400), (1e6, 2000), (3e7, 10_000), (1e10, 300_000)):
            v, bound = _series_scan(t, p, 6)[:2]
            truth = fsum_survival_log(t, p)
            assert abs(v - truth) <= bound + 1e-13 * (1 + abs(truth))

    def test_log_space_fallback_for_huge_powers(self):
        # t^k overflows a double from k = 16 here; the term switches to logs
        t = 1e20
        v, bound = _series_scan(t, 10**6, 40)[:2]
        assert v == pytest.approx(fsum_survival_log(t, 10**6), rel=1e-12)
        assert bound >= 0.0

    def test_log_space_term_of_a_small_power_sum(self):
        # p = 2 gives S_k(1) = 1, and k ln t passes the direct form's 690 from k = 10,
        # so terms 10..13 take the log of a one-bit integer; frozen as first computed
        r = collision_probability(1e30, 2, "series", order=12)
        assert r.log_survival.hex() == "-0x1.4484bfeebc29fp-100"
        assert abs(r.log_survival - math.log1p(-1e-30)) <= r.abs_error_bound

    def test_refuses_uncertified_ratio(self):
        with pytest.raises(SeriesBoundError):
            collision_probability(100, 51, "series", order=6)

    def test_order_validation(self):
        with pytest.raises(DomainError):
            collision_probability(365, 23, "series", order=1)
        with pytest.raises(DomainError):
            collision_probability(365, 23, "series", order=-2)

    def test_order_above_the_cap_is_refused(self):
        # the cap bounds the Pascal rows memoised for the process's life:
        # about 5 MB once a scan at order 512 has built rows up to 514
        assert collision_probability(1e12, 10**6, "series", order=512).log_survival < 0.0
        with pytest.raises(DomainError, match="at most 512, got 513"):
            collision_probability(1e12, 10**6, "series", order=513)

    def test_trivial_population(self):
        for p in (0, 1):
            r = collision_probability(365, p, "series", order=4)
            assert (r.probability, r.log_survival, r.abs_error_bound) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("t, p", [(2, 1), (1, 1), (1.5, 1)])
    def test_trivial_population_needs_no_ratio_check(self, t, p):
        # p/t >= 1/2 here, but fewer than two draws never repeat
        assert collision_probability(t, p, "series", order=2).log_survival == 0.0

    @pytest.mark.parametrize("t, p, k", [
        (365, 23, 6), (2**36, 467_963, 2), (2**47, 14_000_000, 3), (1e20, 10**6, 40),
    ])
    def test_same_value_as_collision_probability(self, t, p, k):
        # the kernel tests above speak for the public answer: it is the scan's value, bit for bit
        v = _series_scan(float(t), p, k)[0]
        r = collision_probability(t, p, "series", order=k)
        assert v.hex() == r.log_survival.hex()


class TestCollisionProbability:
    @pytest.mark.parametrize("t, p, method", [
        (365, 23, "exact"), (2**36, 467_963, "auto"), (1e12, 10**6, "series"),
        (365, 1, "auto"), (365, 400, "auto"),
    ])
    def test_results_are_ordinary_frozen_records(self, t, p, method):
        r = collision_probability(t, p, method)
        twin = EvalResult(**{f.name: getattr(r, f.name) for f in dataclasses.fields(EvalResult)})
        assert type(r) is EvalResult
        assert r == twin and hash(r) == hash(twin) and repr(r) == repr(twin)
        assert dataclasses.asdict(r) == dataclasses.asdict(twin)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.probability = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.extra = 1

    def test_classic_birthday_number(self):
        r = collision_probability(365, 23, "exact")
        assert r.probability == pytest.approx(B_365_23, abs=1e-12)
        assert r.method == "exact"
        assert r.abs_error_bound == 0.0
        assert r.order is None

    def test_matches_rational_oracle(self):
        for t, p in ((365, 23), (1000, 40), (37, 14), (2, 2)):
            exact = float(rational_collision(t, p))
            r = collision_probability(t, p, "exact")
            assert r.probability == pytest.approx(exact, rel=1e-13)

    def test_fractional_space_matches_rational_oracle(self):
        from fractions import Fraction

        got = collision_probability(10.5, 3).probability
        want = float(rational_collision(Fraction(21, 2), 3))
        assert got == pytest.approx(want, rel=1e-14)

    def test_probability_consistent_with_log_survival(self):
        for t, p in ((365, 23), (2**36, 467_963), (10, 11), (10, 1)):
            r = collision_probability(t, p)
            expected = -math.expm1(r.log_survival)
            assert abs(r.probability - expected) <= math.ulp(max(expected, 1e-300))

    def test_no_draws(self):
        r = collision_probability(365, 0)
        assert r.probability == 0.0 and r.log_survival == 0.0 and r.abs_error_bound == 0.0

    def test_single_draw(self):
        r = collision_probability(1e30, 1)
        assert r.probability == 0.0 and r.log_survival == 0.0

    def test_guaranteed_repeat(self):
        r = collision_probability(10, 11)
        assert r.probability == 1.0
        assert r.log_survival == -math.inf
        assert r.abs_error_bound == 0.0

    def test_guaranteed_repeat_edge_is_exact(self):
        # p = t stays below certainty; p = t + 1 reaches it
        below = collision_probability(10, 10)
        assert below.probability < 1.0
        at = collision_probability(10, 11)
        assert at.probability == 1.0

    def test_fractional_space_guarantee_edge(self):
        assert collision_probability(10.5, 11).probability < 1.0
        assert collision_probability(10.5, 12).probability == 1.0

    def test_guaranteed_repeat_needs_no_iteration(self):
        # would take hours if it walked the factors
        r = collision_probability(10**12, 10**12 + 7)
        assert r.probability == 1.0

    @pytest.mark.parametrize("t, p", [(2**70, 2**70), (1e20, 10**20)])
    def test_pigeonhole_edge_above_2_pow_63(self, t, p):
        # p = t draws leave one free value, so no repeat is forced; t + 1.0
        # rounds to t up here, which once reported probability 1 and -inf.
        # Over the exact budget with p/t = 1 there is no certified route yet.
        with pytest.raises(IterationBudgetError):
            collision_probability(t, p)
        r = collision_probability(t, p + 1)
        assert r.probability == 1.0 and r.log_survival == -math.inf

    def test_methods_agree_within_reported_bound(self, galton_space):
        e = collision_probability(galton_space, 10**6, "exact")
        s = collision_probability(galton_space, 10**6, "series")
        assert abs(e.probability - s.probability) <= s.abs_error_bound
        assert s.abs_error_bound < 1e-12

    def test_headline_numbers(self):
        # frozen from 50-digit series evaluation
        a = collision_probability(2**47, 14_000_000)
        assert a.probability == pytest.approx(0.501589804070813, abs=1e-9)
        b = collision_probability(2**47, 40_000_000)
        assert b.probability == pytest.approx(0.9966012320561968, abs=1e-9)

    def test_galton_table_value(self, galton_space):
        # frozen from 50-digit series evaluation (Miami row)
        r = collision_probability(galton_space, 467_963)
        assert r.probability == pytest.approx(0.7967579369294363, abs=1e-10)

    def test_auto_uses_series_above_budget(self):
        r = collision_probability(1e26, 10**9)
        assert r.method == "series"
        assert r.order is not None and r.order >= 2

    def test_auto_uses_exact_for_tight_spaces(self):
        r = collision_probability(365, 23)
        assert r.method == "exact"

    def test_explicit_series_order_recorded(self, galton_space):
        r = collision_probability(galton_space, 10**6, "series", order=7)
        assert r.order == 7 and r.method == "series"

    def test_auto_over_budget_dense_space_errors(self):
        with pytest.raises(IterationBudgetError):
            collision_probability(3e8, 2 * 10**8, exact_budget=10**6)

    def test_series_bound_floor_reflects_rounding(self, galton_space):
        # bounds include an accumulation allowance, so they never collapse
        # below ~1e-13 * survival even when truncation error is tiny
        r = collision_probability(galton_space, 1000, "series", order=12)
        assert r.abs_error_bound > 0.0

    def test_whole_float_population_is_the_int_answer(self):
        a, b = collision_probability(365, 23.0), collision_probability(365, 23)
        assert a.log_survival.hex() == b.log_survival.hex() and a == b

    @pytest.mark.parametrize("bad", [-1, 2.5, float("nan"), "23", True])
    def test_rejects_bad_population(self, bad):
        with pytest.raises(DomainError):
            collision_probability(365, bad)

    def test_rejects_bad_method(self):
        with pytest.raises(DomainError):
            collision_probability(365, 23, "magic")

    def test_rejects_order_with_exact(self):
        with pytest.raises(DomainError):
            collision_probability(365, 23, "exact", order=6)

    @pytest.mark.parametrize("t,p", [(365, 23), (2**47, 14_000_000)])
    def test_rejects_order_with_auto(self, t, p):
        # whichever route auto would pick, the order is not silently dropped
        with pytest.raises(DomainError, match="series method"):
            collision_probability(t, p, order=6)

    @pytest.mark.parametrize("t, p, method, truth", V_SERIES_POINTS,
                             ids=["1e12-2e8-auto", "2pow36-6e6-auto", "1e11-1e8-series"])
    def test_order_less_series_log_survival_is_accurate(self, t, p, method, truth):
        # the scan grows the order until truncation fits the rounding share of
        # log_survival, not until the (far smaller) probability error does
        r = collision_probability(t, p, method)
        assert r.method == "series"
        assert abs(r.log_survival - truth) <= 1e-12 * abs(truth)

    def test_order_less_series_against_fsum_oracle(self):
        rng = random.Random(6)
        cases = [(1e6, 2 * 10**5, "series"), (1e7, 10**5, "series")]
        for _ in range(40):
            p = int(10 ** rng.uniform(math.log10(2), math.log10(2e5)))
            if rng.random() < 0.5:  # auto takes the series for p/t <= 1e-4
                cases.append((min(p * 10 ** rng.uniform(4, 14), 1e30), p, "auto"))
            else:
                cases.append((min(p / 10 ** rng.uniform(-14, math.log10(0.49)), 1e30), p, "series"))
        for t, p, method in cases:
            r = collision_probability(t, p, method)
            truth = fsum_survival_log(t, p)
            assert r.method == "series", (t, p, method)
            assert abs(r.log_survival - truth) <= 1e-12 * abs(truth), (t, p, method)
            assert r.abs_error_bound < 1e-12, (t, p, method)


def auto_exact_limit(t, p):
    """Longest product auto takes for 1e-4 < p/t < 1/2: 48 k**2 + 200 factors,
    k = 1 + ln(5e-11) / ln(p/t) the order a cold scan is predicted to stop at."""
    k = 1 + math.log(5e-11) / math.log(p / t)
    return 48 * k * k + 200


def _auto_route(t, p):
    """The route auto takes at (t, p), with both kernels stubbed out."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(collision, "_survival_log_product", lambda t, p: -1.0)
        mp.setattr(collision, "_series_scan", lambda t, p, order: (-1.0, 0.0, 2))
        return collision_probability(t, p).method


def _route_flips(t, p_max):
    """Every p <= p_max where auto's route differs from the one at p - 1."""
    edges = {int(f * t) + d for f in (1e-4, 0.5) for d in (0, 1)}  # the ratio switches
    grid = sorted({round(2 * (p_max / 2) ** (i / 600)) for i in range(601)}
                  | {q for q in edges if 2 <= q <= p_max})
    flips = []
    for lo, hi in zip(grid, grid[1:]):
        if (route := _auto_route(t, lo)) != _auto_route(t, hi):
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if _auto_route(t, mid) == route else (lo, mid)
            flips.append(hi)
    return flips


class TestAutoCrossover:
    def test_long_products_take_the_series(self):
        rng = random.Random(7)
        cases = [(1e7, 10**4), (1e6, 1181), (2e5 / 0.49, 200_000), (6e4 / 0.4999, 60_000)]
        while len(cases) < 28:
            p = int(10 ** rng.uniform(2, math.log10(2e5)))
            t = p / 10 ** rng.uniform(-4, math.log10(0.5))
            if p - 1 > auto_exact_limit(t, p):
                cases.append((t, p))
        for t, p in cases:
            assert 1e-4 < p / t < 0.5 and p - 1 > auto_exact_limit(t, p)
            r = collision_probability(t, p)
            truth = fsum_survival_log(t, p)
            assert r.method == "series", (t, p)
            assert abs(r.log_survival - truth) <= 1e-12 * abs(truth), (t, p)
            assert abs(r.probability + math.expm1(truth)) <= r.abs_error_bound + 2**-50, (t, p)

    def test_short_products_stay_exact(self):
        rng = random.Random(8)
        cases = [(365, 23), (1000, 40), (1e6, 1180), (1e6, 101), (3.2e4 / 0.45, 32_000)]
        while len(cases) < 29:
            p = int(10 ** rng.uniform(math.log10(2), math.log10(6e4)))
            t = max(p / 10 ** rng.uniform(-4, math.log10(0.5)), p + 0.5)
            if p / t > 1e-4 and p - 1 <= auto_exact_limit(t, p):
                cases.append((t, p))
        for t, p in cases:
            assert p / t > 1e-4 and p - 1 <= auto_exact_limit(t, p)
            r = collision_probability(t, p)
            e = collision_probability(t, p, "exact")
            assert r.method == "exact", (t, p)
            assert r.probability.hex() == e.probability.hex(), (t, p)
            assert r.log_survival.hex() == e.log_survival.hex(), (t, p)
        assert collision_probability(365, 23).probability == B_365_23

    def test_a_rerouted_answer_within_its_bound_of_mpmath(self):
        # frozen: 60-digit mpmath B(1e7, 10**4) = 0.99326991328350158754616; the
        # series stops at order 4 with log_survival 3.3e-13 off the exact value
        r = collision_probability(1e7, 10**4)
        assert (r.method, r.order) == ("series", 4)
        assert abs(r.probability - 0.99326991328350158754616) <= r.abs_error_bound
        assert (r.probability, r.log_survival) == (0.9932699132834993, -5.00116725034155)

    @pytest.mark.parametrize("t, p", [(4e4, 20_000), (1e5, 99_999), (1.5e6, 10**6)])
    def test_uncertified_ratio_stays_exact_within_budget(self, t, p):
        r = collision_probability(t, p)
        assert r.method == "exact"
        assert r.log_survival.hex() == collision_probability(t, p, "exact").log_survival.hex()

    def test_series_over_a_budget_below_the_switch(self):
        # auto keeps this product at the default budget; a budget below its
        # 1199 factors sends it to the series
        assert collision_probability(1e5, 1200).method == "exact"
        r = collision_probability(1e5, 1200, exact_budget=1000)
        assert (r.method, r.order) == ("series", 7)
        truth = fsum_survival_log(1e5, 1200)
        assert abs(r.log_survival - truth) <= 1e-12 * abs(truth)

    @pytest.mark.parametrize("t", [4e4, 1e5, 10**6, 2**24, 1e7, 1.6e8])
    def test_monotone_across_the_switch(self, t):
        # every flip up to p/t = 1/2, at the ratio switches and the cost
        # switch (above t ~ 8e6 only the one at 1/2): zero tolerance
        flips = _route_flips(t, int(t / 2) + 2)
        assert flips
        for p in flips:
            a, b = collision_probability(t, p - 1), collision_probability(t, p)
            assert a.method != b.method, p
            assert a.probability <= b.probability, p
            assert a.log_survival >= b.log_survival, p

    def test_monotone_and_within_bounds_across_every_flip(self):
        # every p where auto changes route, for t from 1e3 to 1e12: zero
        # tolerance across the flip, and both answers next to it within
        # their bounds of the fsum oracle
        rng = random.Random(20261018)
        ts = [1e6] + [10 ** (3 + (i + rng.random()) / 4) for i in range(36)]  # a quarter decade each
        flips = [(t, p) for t in ts for p in _route_flips(t, min(t / 2 + 2, 2e6))]
        assert len(flips) >= 25
        for t, p in flips:
            a, b = collision_probability(t, p - 1), collision_probability(t, p)
            assert a.method != b.method, (t, p)
            assert a.probability <= b.probability, (t, p)
            assert a.log_survival >= b.log_survival, (t, p)
            for r, q in ((a, p - 1), (b, p)):
                truth = fsum_survival_log(t, q)
                assert abs(r.log_survival - truth) <= 1e-13 * (1 + abs(truth)), (t, q)
                assert abs(r.probability + math.expm1(truth)) <= r.abs_error_bound + 2**-50, (t, q)


def test_numpy_loads_on_the_first_exact_call():
    # only the exact product's loop needs numpy, so importing ropcalc must not
    code = (
        "import sys, ropcalc\n"
        "print('numpy' in sys.modules)\n"
        "ropcalc.collision_probability(365, 23)\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "True"]


def test_every_refusal_is_a_domain_error():
    for cls in (IterationBudgetError, IngestError, SeriesBoundError):
        assert issubclass(cls, DomainError), cls
    assert issubclass(IterationBudgetError, RuntimeError)  # `except RuntimeError` still catches it


def test_exact_bits_do_not_depend_on_numpy_simd_dispatch():
    # numpy's AVX512 log1p loop can differ from its baseline loop in the last
    # bit, so a child with that dispatch level off must give the same hexes;
    # it imports the ropcalc under test, installed or not
    cases = [(t, p) for p, t, _ in TestSurvivalLogExact.EXACT_MULTI_BLOCK] + [(365, 23)]
    code = (
        "import sys\n"
        f"sys.path.insert(0, {os.path.dirname(os.path.dirname(ropcalc.__file__))!r})\n"
        "try:\n"
        "    import numpy\n"
        "except Exception:\n"
        "    sys.exit(77)\n"
        "import ropcalc\n"
        "print(ropcalc.__file__)\n"
        f"for t, p in {cases!r}:\n"
        "    r = ropcalc.collision_probability(t, p, 'exact')\n"
        "    print(r.probability.hex(), r.log_survival.hex())\n"
    )
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4"}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    if out.returncode == 77:
        pytest.skip("numpy does not import with X86_V4 disabled")
    assert out.returncode == 0, out.stderr
    path, *lines = out.stdout.splitlines()
    assert path == ropcalc.__file__
    for (t, p), line in zip(cases, lines, strict=True):
        r = collision_probability(t, p, "exact")
        assert line == f"{r.probability.hex()} {r.log_survival.hex()}", (t, p)

"""Unit tests for the forward evaluator and its two routes.

Expected constants were derived ahead of time from independent oracles
(exact rational products, 50-digit arbitrary precision sums, math.fsum
brute force) and are frozen here as literals.
"""

import dataclasses
import functools
import hashlib
import math
import os
import random
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import ropcalc
from ropcalc import (
    DomainError,
    EvalResult,
    GaltonModel,
    IngestError,
    IterationBudgetError,
    PopulationRecord,
    SeriesBoundError,
    SolveTarget,
    SpaceSize,
    as_space_size,
    collision_probability,
    pair_count,
    solve_space,
    space_for_world_overlap,
    space_size,
)
from ropcalc import collision
from ropcalc.collision import _series_scan, _survival_log_product

from conftest import (
    assert_same_space, fsum_survival_log, lgamma_survival_log, power_sums, rational_collision,
)

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

    @pytest.mark.parametrize("bad", [1e31, 0.5, float("nan"), float("inf")])
    def test_out_of_range_value_rejected(self, bad):
        # built directly, the dataclass checks the range that the space reader checks first
        with pytest.raises(DomainError, match="^space size must be from 1 to 1e30, got "):
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

    @pytest.mark.parametrize("t, expected", [
        (int(1e30), 1e30), (int(1e30) + 1, "space size of 100 bits exceeds the supported maximum 1e30"),
        (10**30 + 1, 1e30), (2**100, "space size of 101 bits exceeds the supported maximum 1e30"),
        (1e30, 1e30), (0.5, "space size must be from 1 to 1e30, got 0.5"),
        (-5, "space size must be from 1 to 1e30, got -5.0"),
        (float("nan"), "space size must be from 1 to 1e30, got nan"),
        (float("inf"), "space size must be from 1 to 1e30, got inf"),
        (True, "space size must be a number, not bool"),
        ("365", "space size must be int, float, or SpaceSize, got str"),
        (np.int64(365), 365.0), (SpaceSize(2.0**36), 2.0**36), (np.float64(365.0), 365.0),
        (np.float64(1e31), "space size must be from 1 to 1e30, got 1e+31"),
    ], ids=repr)
    def test_spaces_read_as_frozen(self, t, expected):
        # frozen from before collision_probability and as_space_size shared one reader: the plain
        # float a space reads as, or the message it is refused with, alike from both;
        # int(1e30) + 1 is refused although float() rounds it to 1e30
        if isinstance(expected, str):
            for read in (as_space_size, lambda t: collision_probability(t, 2)):
                with pytest.raises(DomainError) as info:
                    read(t)
                assert type(info.value) is DomainError and str(info.value) == expected
            return
        value = as_space_size(t).value
        assert type(value) is float and value == expected
        r = collision_probability(t, 2)
        assert r == collision_probability(expected, 2)
        assert all(type(x) is float for x in (r.probability, r.log_survival, r.abs_error_bound))

    @pytest.mark.parametrize("method, refusal", [("auto", IterationBudgetError), ("series", SeriesBoundError)])
    def test_numpy_float_space_meets_the_pigeonhole_wall_exactly(self, method, refusal):
        # np.float64 reads as a plain float, so p - 1 >= t compares int against float exactly:
        # p - 1 = 1e20 - 1 < t, no repeat is forced, and p/t = 1 has no route
        with pytest.raises(refusal):
            collision_probability(np.float64(1e20), 10**20, method)
        assert collision_probability(np.float64(1e20), 10**20 + 1, method).probability == 1.0


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
    # (block sums of log1p(-(n / t))), at a mid ratio and at t = p - 0.5, and
    # the 214 blocks of the paper's "50% at 14 million" in 2^47 as the
    # Neumaier cross-block sum gave them
    EXACT_MULTI_BLOCK = [
        (2**16 + 2, 262152.0, "-0x1.187c43ec8de6fp+13"),
        (2**16 + 2, 65537.5, "-0x1.00012746deaeep+16"),
        (3 * 2**16 + 5, 786452.0, "-0x1.a4bb003b46313p+14"),
        (3 * 2**16 + 5, 196612.5, "-0x1.800213a37673dp+17"),
        (14_000_000, 2.0**47, "-0x1.64859bdb97326p-1"),
    ]

    @pytest.mark.parametrize("p, t, frozen", EXACT_MULTI_BLOCK)
    def test_multi_block_products_are_frozen(self, p, t, frozen):
        v = collision_probability(t, p, "exact").log_survival
        assert v.hex() == frozen
        # the log-gamma oracle: fsum over 14M Python log1p calls takes seconds
        assert v == pytest.approx(lgamma_survival_log(t, p), rel=1e-13)

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
        # p/t = 0.976 is over the budget and past the series' wall, so no
        # route may send the caller to the series, which would refuse too
        t, p = 2.05e8, 2 * 10**8
        with pytest.raises(IterationBudgetError) as info:
            collision_probability(t, p, method)
        message = str(info.value)
        assert "199999999 factors" in message and "100000000" in message
        assert "p/t = 0.976" in message and "use the series" not in message

    def test_fractional_space_accepts_extra_draw(self):
        # 11 draws from 10.5 "values" still leaves every factor positive
        v = collision_probability(10.5, 11, "exact").log_survival
        assert math.isfinite(v) and v < -10


@functools.cache
def _exact_sums(m):
    """S_0(m)..S_513(m) from the exact oracle, once per m: the order cap plus the omitted order."""
    return power_sums(m, collision._MAX_ORDER + 1)


def _ulps_off(term, k, t, s):
    """|term - s / (k t**k)| in units of 2**-52 of the exact s / (k t**k), in exact integers:
    with t = tn/td and term = gn/gd, the relative error is (gn k tn**k - s gd td**k) / (s gd td**k)."""
    tn, td = t.as_integer_ratio()
    gn, gd = term.as_integer_ratio()
    exact = s * gd * td**k
    return (abs(gn * k * tn**k - exact) << 52) / exact


class TestPowerSum:
    """The exact oracle: S_k(m) from Pascal's identity, against brute force and modular sums."""

    @pytest.mark.parametrize("k", range(1, 13))
    def test_matches_brute_force(self, k):
        for m in (1, 2, 3, 7, 50, 201):
            assert power_sums(m, 12)[k] == sum(n**k for n in range(1, m + 1))

    def test_closed_forms_at_scale(self):
        m = 10**13
        assert power_sums(m, 3)[1:] == [m * (m + 1) // 2, m * (m + 1) * (2 * m + 1) // 6,
                                        (m * (m + 1) // 2) ** 2]

    def test_zero_range(self):
        assert power_sums(0, 5)[5] == 0

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
        sums = _exact_sums(m)
        for k in (513, 13, 64, 200, 511, 512):
            assert sums[k] % q == oracle(k, m)

    def test_cold_scan_at_the_cap_computes_each_order_once(self):
        # a scan to order k keeps terms 1..k and returns term k + 1 after them, one per order,
        # up to the cap; no term outlives its scan, so the same population gives the same again
        for k in (2, 3, 4, 100, 511, 512):
            first = _series_scan(1e12, 10**6, k)
            assert first[2] == k and len(first[3]) == k + 1
            assert _series_scan(1e12, 10**6, k) == first

    def test_cold_order_less_scan_holds_no_order_past_its_stop(self):
        # an order-less scan that stops at k returns terms 1..k+1 and no more
        rng = random.Random(4000)
        cases = [(p / x, p) for p in (2, 3, 5, 9) for x in (0.3, 0.45, 0.4999)]
        for _ in range(400):
            p = int(10 ** rng.uniform(0.31, 12))
            cases.append((p / 10 ** rng.uniform(-6, math.log10(0.4999)), p))
        for t, p in cases:
            _, _, k, terms = _series_scan(t, p)
            assert len(terms) == k + 1, (t, p)

    def test_concurrent_cold_scans_match_a_single_thread(self):
        # four threads share some populations and keep others to themselves,
        # order-less and at explicit orders up to 80; every answer, its tail, order
        # and terms, is the one a single thread gets, compared by hex
        rng = random.Random(20261018)
        shared = [rng.randrange(10**4, 10**8) for _ in range(12)]
        jobs = [[(p * rng.choice([3, 10, 1e3, 1e6]), p,
                  rng.choice([None, None, rng.randint(2, 80)]))
                 for p in shared + [rng.randrange(10**4, 10**8) for _ in range(12)]]
                for _ in range(4)]

        def run(batch):
            scans = (_series_scan(t, p, order) for t, p, order in batch)
            return [(v.hex(), tail.hex(), k, [term.hex() for term in terms]) for v, tail, k, terms in scans]

        expected = [run(batch) for batch in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            for _ in range(3):
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


class TestSeriesTerm:
    """Every float term of the series against the exact S_k(m) / (k t**k)."""

    @pytest.mark.parametrize("m, t", [
        (m, m / y) for m in (1, 2, 8, 25, 100, 256, 257, 411, 512, 10**6, 2**53 + 1, 10**13)
        for y in (0.3, 0.95)] + [(8, 31.4)])
    def test_every_order_within_its_ulp_budget(self, m, t):
        # orders 1..513 at m/t = 0.3 and 0.95: m = 256, 257, 411 and 512 put m = k - 1, k and
        # k + 1 around odd and even k, where the kernel turns from Faulhaber's formula to the
        # direct sum; (31.4, 8) once showed an extra Bernoulli term at odd k as a 6e-8 error.
        # A scan at the cap returns them all, the omitted one last; at p/t >= 1 only its tail
        # is meaningless
        terms = _series_scan(t, m + 1, collision._MAX_ORDER)[3]
        assert len(terms) == collision._MAX_ORDER + 1
        for k, term in enumerate(terms, 1):
            assert _ulps_off(term, k, t, _exact_sums(m)[k]) <= k + 8, (m, t, k)

    def test_every_term_is_frozen_bit_for_bit(self):
        # frozen: sha256 over the hex of all 513 terms at each grid point, from before the
        # Faulhaber step dropped its per-order slice; any reordered float operation shows here
        digest = hashlib.sha256()
        for m in (1, 2, 8, 25, 256, 257, 10**6, 2**53 + 1, 10**13):
            for y in (0.3, 0.95):
                for term in _series_scan(m / y, m + 1, 512)[3]:
                    digest.update(term.hex().encode() + b"\n")
        assert digest.hexdigest() == "ec0178521f4e123c42e3a50d8c9402d65ba22f532336f8b17eff1ab37c06e911"


# frozen: (value, tail, k) of _series_scan(t, p, order), by hex, from before the scan drove its
# terms with one for loop; the explicit orders, order-less scans at p = 2 and 3 (direct sums
# from order 4), and m = p - 1 = 256 and 257 at order 300, either side of k = m where the
# terms turn from Faulhaber's formula to the direct sum.  The last three, from before the scan
# computed its terms inline, put m = 512, 513 and 514 at the cap: the omitted term T_513 comes
# from the direct sum for the first two and from Faulhaber's formula for the third, and only
# the tail shows it
_SCAN_SEAMS = [
    ((2.0**47, 14_000_000, 2), ("-0x1.64859bdb9731cp-1", "0x1.4b029586d8a54p-50", 2)),
    ((2.0**47, 14_000_000, 3), ("-0x1.64859bdb97326p-1", "0x1.4b75a8a6395f7p-74", 3)),
    ((2.0**47, 14_000_000, 4), ("-0x1.64859bdb97326p-1", "0x1.70c9e0a4334afp-98", 4)),
    ((1e9, 950_000_000, 512), ("-0x1.7d924c469870ep+29", "0x1.20ec555c2cc44p-22", 512)),
    ((3.0, 2, None), ("-0x1.9f323ecbf97cbp-2", "0x1.067bfcf1f1531p-46", 26)),
    ((1e12, 2, None), ("-0x1.19799812df3bdp-40", "0x1.c5b5b6ee726f4p-122", 2)),
    ((4.0, 3, None), ("-0x1.f62f40794a628p-1", "0x1.999999999b333p-44", 39)),
    ((1e12, 3, None), ("-0x1.a636641c4f748p-39", "0x1.fe6c6dcc42ee7p-119", 2)),
    ((1e4, 257, 300), ("-0x1.a8b740d161689p+1", "0x0.0p+0", 300)),
    ((1e4, 258, 300), ("-0x1.ac0c66bce334dp+1", "0x0.0p+0", 300)),
    ((300.0, 257, 300), ("-0x1.58ffa7dc8ebc8p+7", "0x1.2b040a4d42e33p-74", 300)),
    ((300.0, 258, 300), ("-0x1.5ce2420439cc6p+7", "0x1.efeb98bd826f0p-73", 300)),
    ((600.0, 513, 512), ("-0x1.580953c5ae3d0p+8", "0x1.0a63d57e6edc7p-123", 512)),
    ((600.0, 514, 512), ("-0x1.59f7ab3319a45p+8", "0x1.6f0b8c862b4c8p-122", 512)),
    ((600.0, 515, 512), ("-0x1.5be8f846ef2c4p+8", "0x1.f8d0ca6523801p-121", 512)),
]


@pytest.mark.parametrize("args, expected", _SCAN_SEAMS, ids=[repr(args) for args, _ in _SCAN_SEAMS])
def test_scan_seams_are_frozen(args, expected):
    value, tail, k, _ = _series_scan(*args)
    assert (value.hex(), tail.hex(), k) == expected


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
        # t^k would overflow a double from k = 16 here (the name is from when such terms
        # took logs); the terms form (m/t)^k instead, which stays below 1
        t = 1e20
        v, bound = _series_scan(t, 10**6, 40)[:2]
        assert v == pytest.approx(fsum_survival_log(t, 10**6), rel=1e-12)
        assert bound >= 0.0

    def test_log_space_term_of_a_small_power_sum(self):
        # p = 2 gives S_k(1) = 1, so terms 4..13 are the direct sums (1/t)^k / k, far past
        # where t^k overflows (the name is from when they took the log of a one-bit integer);
        # frozen as first computed
        r = collision_probability(1e30, 2, "series", order=12)
        assert r.log_survival.hex() == "-0x1.4484bfeebc29fp-100"
        assert abs(r.log_survival - math.log1p(-1e-30)) <= r.abs_error_bound

    def test_refuses_uncertified_ratio(self):
        # p/t = 0.96 is past the wall, where an order-less scan would pass the order cap
        with pytest.raises(SeriesBoundError, match="order cap of 512"):
            collision_probability(100, 96, "series", order=6)

    def test_refusal_names_the_exact_method_only_within_its_budget(self):
        with pytest.raises(SeriesBoundError, match="order cap of 512; use the exact method$"):
            collision_probability(1000, 955, "series")
        assert collision_probability(1000, 955, "exact").method == "exact"
        # 1e20 - 1 factors are over the exact budget too: neither route answers
        for kwargs in ({}, {"exact_budget": 10}):
            with pytest.raises(SeriesBoundError) as info:
                collision_probability(1e20, 10**20, "series", **kwargs)
            budget = kwargs.get("exact_budget", collision.DEFAULT_EXACT_BUDGET)
            assert str(info.value).endswith(f"order cap of 512; the product's {10**20 - 1} factors "
                                            f"are over the budget of {budget} too: neither route answers")
            with pytest.raises(IterationBudgetError, match="too large for the series$"):
                collision_probability(1e20, 10**20, "exact", **kwargs)
        with pytest.raises(SeriesBoundError, match="neither route answers$"):
            collision_probability(1000, 955, "series", exact_budget=953)

    def test_order_validation(self):
        with pytest.raises(DomainError):
            collision_probability(365, 23, "series", order=1)
        with pytest.raises(DomainError):
            collision_probability(365, 23, "series", order=-2)
        for bad in (2.5, True, np.True_, "6"):
            with pytest.raises(DomainError, match="^series order must be a whole number"):
                collision_probability(365, 23, "series", order=bad)

    @pytest.mark.parametrize("order", [6.0, np.int64(6), np.uint8(6)], ids=["float", "int64", "uint8"])
    def test_whole_number_order_is_an_int(self, order):
        r = collision_probability(1e9, 10, "series", order=order)
        assert r.order == 6 and type(r.order) is int
        assert r == collision_probability(1e9, 10, "series", order=6)

    def test_order_above_the_cap_is_refused(self):
        # the cap defines the series' wall: an order-less scan is predicted to reach it there
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
            collision_probability(2.05e8, 2 * 10**8, exact_budget=10**6)

    def test_series_bound_floor_reflects_rounding(self, galton_space):
        # bounds include an accumulation allowance, so they never collapse
        # below ~1e-13 * survival even when truncation error is tiny
        r = collision_probability(galton_space, 1000, "series", order=12)
        assert r.abs_error_bound > 0.0

    def test_whole_float_population_is_the_int_answer(self):
        a, b = collision_probability(365, 23.0), collision_probability(365, 23)
        assert a.log_survival.hex() == b.log_survival.hex() and a == b

    @pytest.mark.parametrize("whole", [np.int64(23), np.int32(23), np.uint64(23), np.float64(23.0)],
                             ids=["int64", "int32", "uint64", "float64"])
    def test_numpy_population_is_the_int_answer(self, whole):
        for t, method in ((365, "auto"), (1e12, "series"), (np.int64(365), "exact")):
            a, b = collision_probability(t, whole, method), collision_probability(int(t), 23, method)
            assert (a.probability.hex(), a.log_survival.hex()) == (b.probability.hex(), b.log_survival.hex())
        assert collision_probability(365, 23, exact_budget=np.int64(22)).method == "exact"
        assert as_space_size(np.int64(365)) == as_space_size(365) and pair_count(whole) == 253

    @pytest.mark.parametrize("bad", [-1, 2.5, float("nan"), "23", True, np.True_, np.int64(-1)])
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
    """Longest product auto takes below the series' wall: C (k - k0) factors, C and k0
    collision's fitted constants and k = 1 + ln(5e-11) / ln(p/t) the order a scan is
    predicted to stop at."""
    k = 1 + math.log(5e-11) / math.log(p / t)
    return collision._AUTO_FACTORS_PER_ORDER * (k - collision._AUTO_ORDER_OFFSET)


def _auto_route(t, p):
    """The route auto takes at (t, p), from its rule alone."""
    return collision._pick(float(t), p)


def _route_flips(t, p_max):
    """Every p <= p_max where auto's route differs from the one at p - 1."""
    edges = {int(WALL * t) + d for d in (0, 1)}  # the wall, the one ratio switch
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
        cases = [(1e7, 10**4), (1e4, 156), (2e5 / 0.49, 200_000), (6e4 / 0.4999, 60_000)]
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
        cases = [(365, 23), (1000, 40), (1e4, 157), (1e4, 3000), (4e4, 34_554)]
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
        # the product answers each of these ratios within its budget, and auto gives its
        # probability: by the product bit for bit where the wall keeps it (100k factors), by
        # the series where the cost rule passes 20k and 1e6 factors on (orders 35 and 58)
        e = collision_probability(t, p, "exact")
        r = collision_probability(t, p)
        assert r.method == _auto_route(t, p) == ("exact" if p == 99_999 else "series")
        assert r.probability.hex() == e.probability.hex()
        if r.method == "exact":
            assert r.log_survival.hex() == e.log_survival.hex()
        else:
            assert abs(r.log_survival - e.log_survival) <= 2e-13 * abs(e.log_survival)

    def test_series_over_a_budget_below_the_switch(self):
        # auto keeps this product whatever the budget: a budget below its 1199 factors
        # refuses it and names the series, which answers it at order 13
        assert collision_probability(1e4, 1200).method == "exact"
        with pytest.raises(IterationBudgetError, match="1199 factors, over the budget of 1000; "
                                                       "p/t = 0.12, so use the series method"):
            collision_probability(1e4, 1200, exact_budget=1000)
        r = collision_probability(1e4, 1200, "series")
        assert (r.method, r.order) == ("series", 13)
        truth = fsum_survival_log(1e4, 1200)
        assert abs(r.log_survival - truth) <= 1e-12 * abs(truth)

    @pytest.mark.parametrize("t", [4e4, 1e5, 10**6, 2**24, 1e7, 1.6e8])
    def test_monotone_across_the_switch(self, t):
        # every flip up to just past the wall, zero tolerance: where the cost rule hands the
        # series back to the product as the predicted order grows towards the wall (up to
        # t ~ 1.2e5: 0.864 at t = 4e4, 0.947 at 1e5), and at the wall above that.  At 1.6e8
        # the product at the wall walks 1.53e8 factors, past the default budget.
        budget = {"exact_budget": 2 * 10**8} if t > 1e8 else {}
        flips = _route_flips(t, int(WALL * t) + 2)
        assert flips
        for p in flips:
            a, b = collision_probability(t, p - 1, **budget), collision_probability(t, p, **budget)
            assert a.method != b.method, p
            assert a.probability <= b.probability, p
            assert a.log_survival >= b.log_survival, p

    def test_monotone_and_within_bounds_across_every_flip(self):
        # every p up to 2e6 or the wall where auto changes route, for t from 10 to 1e7:
        # zero tolerance across the flip, and both answers next to it within their bounds
        # of the fsum oracle
        rng = random.Random(20261018)
        ts = [1e4] + [10 ** (1 + (i + rng.random()) / 8) for i in range(48)]  # an eighth decade each
        flips = [(t, p) for t in ts for p in _route_flips(t, min(WALL * t + 2, 2e6))]
        assert len(flips) >= 25 and any(p / t >= 0.5 for t, p in flips)
        for t, p in flips:
            a, b = collision_probability(t, p - 1), collision_probability(t, p)
            assert a.method != b.method, (t, p)
            assert a.probability <= b.probability, (t, p)
            assert a.log_survival >= b.log_survival, (t, p)
            for r, q in ((a, p - 1), (b, p)):
                truth = fsum_survival_log(t, q)
                assert abs(r.log_survival - truth) <= 1e-13 * (1 + abs(truth)), (t, q)
                assert abs(r.probability + math.expm1(truth)) <= r.abs_error_bound + 2**-50, (t, q)

    def test_no_product_below_the_wall_passes_the_cost_rule_at_its_cap(self):
        # wherever auto takes the product below the wall, it walks at most
        # C (512 - k0) = 220 * 506 factors, whatever t
        cap = auto_exact_limit(1, WALL)  # k = 512 at the wall
        assert cap == pytest.approx(220 * 506, rel=1e-9)
        rng = random.Random(26)
        products, series = [], 0
        for _ in range(4000):
            t = 10 ** rng.uniform(2, 30)
            p = max(2, round(rng.choice([10 ** rng.uniform(-4, 0), rng.uniform(0.5, WALL)]) * t))
            if 1e-4 < p / t < WALL and p - 1 < t:
                if _auto_route(t, p) == "series":
                    series += 1
                else:
                    products.append(p - 1)
                    assert p - 1 <= cap, (t, p)
        assert series >= 3000 and len(products) >= 200, (series, len(products))
        # the longest product below the wall: p - 1 just short of C (512 - k0) factors at t = 1.15e5
        p = math.ceil(WALL * 1.15e5) - 1
        assert _auto_route(1.15e5, p) == "exact" and 0.98 * cap < p - 1 <= cap, p
        # above 1/2, products of 1e6 and 1e8 factors are past the rule: auto takes the series
        for t, p in ((2e8, 10**8), (1.5e6, 10**6)):
            r = collision_probability(t, p)
            truth = lgamma_survival_log(t, p)
            assert r.method == "series" and r.probability == 1.0 == -math.expm1(truth), (t, p)
            assert abs(r.log_survival - truth) <= 2e-13 * abs(truth), (t, p)
        assert collision_probability(1.5e6, 10**6, "exact").probability == 1.0

    def test_a_long_product_near_the_wall_takes_the_series(self):
        # the 48 k**2 + 200 rule kept the product here, 9,479,103 factors in ~38 ms, where
        # the series answers at order 394 in well under a millisecond
        t, p = 1e7, 9_479_104
        r = collision_probability(t, p)
        truth = lgamma_survival_log(t, p)
        assert (r.method, r.order) == ("series", 394)
        assert abs(r.log_survival - truth) <= 2e-13 * abs(truth)
        assert abs(r.probability + math.expm1(truth)) <= r.abs_error_bound


WALL = collision._SERIES_MAX_RATIO


class TestSeriesWall:
    """From p/t = 1/2 to the wall, where an order-less scan's predicted stop reaches the order
    cap, the series answers the calls that the product's budget refuses."""

    def test_the_wall_is_where_the_predicted_stop_reaches_the_cap(self):
        assert 1 + collision._LOG_STOP / math.log(WALL) == pytest.approx(collision._MAX_ORDER, rel=1e-12)
        t = 1e12
        p = math.ceil(WALL * t)
        assert (p - 1) / t < WALL <= p / t
        # the prediction overshoots near the wall, so the last scan below it stops under the cap
        v, tail, k, _ = _series_scan(t, p - 1)
        assert k < collision._MAX_ORDER and tail <= 1e-13 * abs(v)
        assert [collision._pick(t, q) for q in (p - 1, p)] == ["series", "exact"]
        with pytest.raises(SeriesBoundError, match=r"^p/t = 0\.9546 is at least 0\.9546"):
            collision_probability(t, p, "series")

    def test_order_less_calls_below_the_wall_are_within_bounds_of_mpmath(self):
        # auto and the explicit series, alternately, at t log-uniform in [1e2, 1e30] and p/t
        # uniform in [1/2, wall); auto takes the product for the short ones (t below ~1.2e5)
        rng = random.Random(23)
        calls = 0
        for _ in range(320):
            t = 10 ** rng.uniform(2, 30)
            p = round(rng.uniform(0.5, WALL) * t)
            if not 0.5 <= p / t < WALL:  # rounding p can leave the range at small t
                continue
            r = collision_probability(t, p, *() if calls % 2 else ("series",))
            truth = lgamma_survival_log(t, p)
            if calls % 2 and p - 1 <= auto_exact_limit(t, p):
                assert r.method == "exact", (t, p)
            else:
                assert r.method == "series" and r.order < collision._MAX_ORDER, (t, p)
            assert abs(r.log_survival - truth) <= 2e-13 * abs(truth), (t, p)
            assert abs(r.probability + math.expm1(truth)) <= r.abs_error_bound + 2**-52, (t, p)
            calls += 1
        assert calls >= 300

    @pytest.mark.parametrize("t, p", [(100, 50), (1e6, 700_000), (2**40, 2**39 * 1.8), (1e30, 9.5e29)])
    def test_explicit_low_orders_stay_within_their_bounds(self, t, p):
        p = int(p)
        truth = -math.expm1(lgamma_survival_log(t, p))
        for order in (2, 5, 20, 100):
            r = collision_probability(t, p, "series", order=order)
            assert abs(r.probability - truth) <= r.abs_error_bound, (t, p, order)

    @pytest.mark.parametrize("budget", [10, 100, 1000, 10**4])
    def test_monotone_across_the_budget_switch(self, budget):
        # p - 1 = budget is the last product auto walks; one more draw passes the budget and
        # is refused, not rerouted, and the series that the refusal names answers it: zero
        # tolerance from the last product to that series answer, at each ratio where the
        # cost rule keeps the product (for 1e4 factors, from p/t ~ 0.625)
        p = budget + 2
        xs = [x for x in (0.5, 0.6, 0.75, 0.9, 0.95, 0.954) if p - 1 <= auto_exact_limit(p / x, p)]
        assert len(xs) >= 4
        for x in xs:
            t = p / x
            a = collision_probability(t, p - 1, exact_budget=budget)
            with pytest.raises(IterationBudgetError, match="so use the series method instead$"):
                collision_probability(t, p, exact_budget=budget)
            b = collision_probability(t, p, "series")
            assert (a.method, b.method) == ("exact", "series"), (t, p)
            assert a.probability <= b.probability and a.log_survival >= b.log_survival, (t, p)

    @pytest.mark.parametrize("t, p, order", [(1e9, 950_000_000, 410), (2**33, 8_200_000_000, 451)])
    def test_scans_near_the_wall_take_milliseconds(self, t, p, order):
        # hundreds of orders at O(1) each take well under 50 ms (best of 3)
        truth = lgamma_survival_log(t, p)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            r = collision_probability(t, p, "series")
            times.append(time.perf_counter() - start)
        assert r.order == order and min(times) < 0.05, times
        assert abs(r.log_survival - truth) <= 2e-13 * abs(truth)
        assert abs(r.probability + math.expm1(truth)) <= r.abs_error_bound + 2**-52

    @pytest.mark.parametrize("t", [1e10, 1.2e10, 2**33])
    def test_the_world_repeats_a_value(self, t):
        # 8.2e9 people in 1e10 values, 1.2e10 or 2**33 (p/t 0.9546, just below the wall)
        r = collision_probability(t, 8_200_000_000)
        truth = lgamma_survival_log(t, 8_200_000_000)
        assert (r.method, r.probability) == ("series", 1.0)
        assert abs(r.log_survival - truth) <= 2e-13 * abs(truth)


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


_BIG = 10**5000  # past str()'s 4300-digit limit, which each of these refusals once ran into
_OVERSIZED = {
    "population": lambda n: collision_probability(365, -n),
    "exact_budget": lambda n: collision_probability(365, 23, exact_budget=-n),
    "order": lambda n: collision_probability(1e9, 10, "series", order=n),
    "-order": lambda n: collision_probability(1e9, 10, "series", order=-n),
    "method": lambda n: collision_probability(365, 23, n),
    "pair_count": lambda n: pair_count(-n),
    "record": lambda n: PopulationRecord("a", -n),
    "model": lambda n: GaltonModel(-n),
    "target": lambda n: SolveTarget(n),
    "tolerance": lambda n: SolveTarget(0.5, n),
    "solve_space": lambda n: solve_space(-n, 0.5),
    "world": lambda n: space_for_world_overlap(50, n),
    "-world": lambda n: space_for_world_overlap(50, -n),
}


@pytest.mark.parametrize("call", _OVERSIZED.values(), ids=_OVERSIZED.keys())
def test_an_oversized_int_is_refused_by_its_size(call):
    with pytest.raises(DomainError, match="bits") as info:
        call(_BIG)
    assert type(info.value) is DomainError


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

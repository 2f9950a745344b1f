"""Shared test oracles and helpers.

These deliberately avoid the library's own evaluation paths: the rational
oracle multiplies exact fractions, one log oracle uses math.fsum over
individually computed log1p terms, the other takes a log-gamma difference
in mpmath, and the power sums come from Pascal's identity in exact
integers where the library's series takes Faulhaber's formula in floats.
Agreement between an oracle and the library is therefore evidence, not
tautology.
"""

import math
import operator
from fractions import Fraction

import pytest

from ropcalc import SpaceSize


def rational_collision(t, p: int) -> Fraction:
    """Exact collision probability 1 - prod (t-n)/t as a Fraction."""
    t = Fraction(t)
    surv = Fraction(1)
    for n in range(p):
        factor = (t - n) / t
        if factor <= 0:
            return Fraction(1)
        surv *= factor
    return 1 - surv


def fsum_survival_log(t: float, p: int) -> float:
    """Brute-force log-survival via exact (Shewchuk) float summation."""
    return math.fsum(math.log1p(-n / t) for n in range(1, p))


def lgamma_survival_log(t: float, p: int) -> float:
    """Log-survival as the log-gamma difference lgamma(t) - lgamma(t - p + 1) - (p - 1) log t,
    in mpmath with 60 digits beyond the ~2 log10(t) that the cancellation can lose."""
    import mpmath  # a test extra; only this oracle needs it

    with mpmath.workdps(60 + 2 * len(str(int(t)))):
        t = mpmath.mpf(t)
        return float(mpmath.loggamma(t) - mpmath.loggamma(t - p + 1) - (p - 1) * mpmath.log(t))


def power_sums(m: int, upto: int) -> list:
    """S_0(m)..S_upto(m), S_k(m) = 1**k + ... + m**k, exactly and with no loop over n.

    Pascal's identity summed over n = 1..m gives (m+1)**(j+1) - 1 = sum_{i=0..j} C(j+1, i) S_i(m),
    and C(j+1, j) = j+1 leaves S_j(m) the one unknown, known once the lower sums are.
    """
    sums, row = [m], [1, 1]
    for j in range(1, upto + 1):
        row = [1, *map(operator.add, row, row[1:]), 1]  # C(j+1, 0..j+1), from the row above
        s, r = divmod((m + 1) ** (j + 1) - 1 - sum(map(operator.mul, row, sums)), j + 1)
        assert r == 0, (j, m)
        sums.append(s)
    return sums


def assert_same_space(space, value: float):
    """A space built any way equals, and hashes as, the SpaceSize of its float value."""
    assert space.value == value
    assert space == SpaceSize(value) and hash(space) == hash(SpaceSize(value))


@pytest.fixture(scope="session")
def galton_space():
    return 2**36

"""Collision (shared-value) probabilities for uniform draws from huge spaces.

Computes the probability that ``p`` independent draws, uniform with
replacement over ``t`` equally likely distinct values, contain at least one
repeated value.  The space size ``t`` may be far beyond what fits in any
machine integer (up to 1e30), and the population ``p`` may run into the
trillions, so everything is evaluated through the log of the survival
(no-repeat) probability rather than the product itself.

``collision_probability`` takes one of two routes, named by ``method``:

* "exact" walks the product factors (t - n) / t directly, taking each
  factor as log1p(-n / t) and accumulating with compensated summation
  over fixed-size blocks.  Cost is O(p).
* "series" expands each log1p term as a power series and swaps the order
  of summation, which turns the whole sum into a handful of cumulative
  power sums, each computed exactly in integer arithmetic from the lower
  orders.  Cost grows with the order, not with p, and the truncation
  error carries a certified bound.

"auto", the default, picks between them by cost.

Both routes use fixed partitioning and a fixed reduction order, so results
are reproducible bit for bit from run to run on one platform.  Across
platforms the exact route's bits depend on numpy's SIMD dispatch level and
on libm, the series route's on libm only.  All public functions are pure
and safe for concurrent use.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from operator import mul

__all__ = [
    "DomainError",
    "IterationBudgetError",
    "SeriesBoundError",
    "SpaceSize",
    "EvalResult",
    "EXACT",
    "SERIES",
    "AUTO",
    "MAX_SPACE",
    "DEFAULT_EXACT_BUDGET",
    "as_space_size",
    "pair_count",
    "collision_probability",
]

# Largest supported space size.  Beyond this the closed-form routes would
# need guard rails we have not validated, so inputs are rejected.
MAX_SPACE = 1e30

# Auto gives up on the O(p) product above this many factors unless told
# otherwise; 1e8 log1p evaluations complete in a few seconds.
DEFAULT_EXACT_BUDGET = 10**8

# Auto takes the certified series (p/t < 1/2) when p/t <= 1e-4, and otherwise the
# route predicted cheaper: a cold scan to order k (_LOG_STOP) costs about as much as
# a product of 48 k**2 + 200 factors, the fit with the least summed cold cost over a
# grid of p in [10, 6e4] by p/t in [1e-4, 1/2) (README).
_AUTO_SERIES_RATIO = 1e-4
_AUTO_FACTORS_PER_ORDER2, _AUTO_FACTORS_BASE = 48, 200

# The certified geometric tail bound needs the term ratio to stay below 1
# with margin; refuse the series above this draw/space ratio.
_SERIES_MAX_RATIO = 0.5

# Highest series order: an order-less scan stops here at the latest, and an
# explicit order above it is refused.  A scan at k needs power sums 1..k+1 and
# Pascal rows up to k+2; rows to the cap hold about 5 MB for the process's life.
_MAX_ORDER = 512

# Fixed block length for the exact product sum.  Blocks are summed with
# numpy's pairwise reduction and combined with Neumaier compensation, so
# the partitioning itself is part of the (deterministic) algorithm.
_BLOCK = 1 << 16

# Rounding allowance folded into reported error bounds: covers term
# evaluation and accumulation noise of both evaluation routes with a wide
# margin (measured worst case is below 1e-14 relative).  An order-less
# series scan stops once its truncation bound fits inside the same share.
_ROUNDING_UNIT = 1e-13

# Absolute allowance for the single log-to-probability rounding step of
# each route: two correctly-rounded expm1 calls cost at most one ulp of a
# result near 1 (~2.2e-16) combined; 5e-16 leaves better than 2x headroom.
_FINAL_ROUNDING = 5e-16

_LN2 = math.log(2.0)

# An order-less scan at p/t = x stops near order 1 + ln(5e-11) / ln x, where its terms,
# about x**k / (k (k + 1)) of the value, reach the 1e-13 share: 4.4, 11.3 and 30.7 at
# x = 1e-3, 0.1 and 0.45 against real stops 4, 12 and 31; auto's cost rule uses it.
_LOG_STOP = math.log(5e-11)

EXACT = "exact"
SERIES = "series"
AUTO = "auto"


class DomainError(ValueError):
    """Every ropcalc refusal: an argument, model or table that ropcalc does not answer for."""


class IterationBudgetError(DomainError, RuntimeError):
    """The exact product would need more factors than the budget allows."""


class SeriesBoundError(DomainError):
    """The series truncation bound is not certified for these arguments."""


@dataclass(frozen=True)
class SpaceSize:
    """Number of equally likely distinct values in the space: a float from 1 to 1e30.

    Spaces of equal ``value`` compare and hash equal however they were built.
    """

    value: float

    def __post_init__(self):
        if not isinstance(self.value, float):
            raise DomainError(f"space size value must be a float, got {type(self.value).__name__}")
        if not 1.0 <= self.value <= MAX_SPACE:  # NaN fails every comparison
            raise DomainError(f"space size must be from 1 to 1e30, got {self.value!r}")


def as_space_size(t) -> SpaceSize:
    """Coerce an int, float, or SpaceSize into a validated SpaceSize."""
    if isinstance(t, SpaceSize):
        return t
    if isinstance(t, bool):
        raise DomainError("space size must be a number, not bool")
    if isinstance(t, int):
        if abs(t) > int(MAX_SPACE):  # exactly: float(t) could round down to 1e30, or overflow
            raise DomainError(f"space size of {t.bit_length()} bits exceeds the supported maximum 1e30")
    elif not isinstance(t, float):
        raise DomainError(f"space size must be int, float, or SpaceSize, got {type(t).__name__}")
    return SpaceSize(float(t))


def _power(base: int, exp: int) -> int:
    """base**exp in exact integers, refused before it is formed when exp > 4096 or it
    could pass 2**16 bits (it has at most exp * bit_length(base)); below that, the 1e30
    range check names its size."""
    if exp > 4096 or exp * base.bit_length() > 1 << 16:
        raise DomainError("exponent too large" if exp > 4096 else "power too large")
    return base**exp


def _as_count(p, what="population") -> int:
    """Validate a non-negative whole number of draws."""
    if isinstance(p, bool):
        raise DomainError(f"{what} must be a whole number, not bool")
    if isinstance(p, int):
        n = p
    elif isinstance(p, float):
        if not (math.isfinite(p) and p.is_integer()):
            raise DomainError(f"{what} must be a whole number, got {p!r}")
        n = int(p)
    else:
        raise DomainError(f"{what} must be a whole number, got {type(p).__name__}")
    if n < 0:
        raise DomainError(f"{what} must be >= 0, got {n}")
    return n


@dataclass(frozen=True)
class EvalResult:
    """Outcome of one collision-probability evaluation.

    probability     chance of at least one repeat, in [0, 1]
    log_survival    natural log of the no-repeat probability (<= 0;
                    -inf when a repeat is guaranteed)
    method          "exact" or "series" (the route actually used)
    abs_error_bound absolute bound on the probability error; 0 for the
                    exact route, which is the reference
    order           series truncation order, None for the exact route
    """

    probability: float
    log_survival: float
    method: str
    abs_error_bound: float
    order: "int | None" = None


def _frozen(cls, fields: dict):
    """A frozen dataclass instance built from ``fields`` without ``__init__``.

    The generated ``__init__`` of a frozen dataclass makes one
    ``object.__setattr__`` call per field; one ``__dict__`` fill is about a
    third of that.  Skips ``__post_init__``: only for fields already checked.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _result_from_log(v: float, method: str, bound: float, order=None) -> EvalResult:
    prob = -math.expm1(v)
    if prob == 0.0:
        prob = 0.0  # normalize -0.0
    return _frozen(EvalResult, {"probability": prob, "log_survival": v, "method": method,
                                "abs_error_bound": bound, "order": order})


def pair_count(n) -> int:
    """Number of unordered pairs among n items, n*(n-1)/2, exactly.

    Evaluated in arbitrary-precision integers, so there is no overflow for
    populations in the billions and beyond.
    """
    n = _as_count(n, what="pair count argument")
    return n * (n - 1) // 2


def _is_guaranteed_repeat(space: SpaceSize, p: int) -> bool:
    # p draws over t values force a repeat once p - 1 >= t.  Python compares
    # an int with a float exactly, so this holds at every size; the float
    # form p >= t + 1.0 fails above 2**53, where t + 1.0 == t.
    return p - 1 >= space.value


def _neumaier(total: float, comp: float, x: float) -> "tuple[float, float]":
    """One Neumaier compensated-sum step: add x to the running (total, comp).

    The final sum is total + comp (Higham, Accuracy and Stability of
    Numerical Algorithms, section 4.3).
    """
    s = total + x
    if abs(total) >= abs(x):
        comp += (total - s) + x
    else:
        comp += (x - s) + total
    return s, comp


def _survival_log_product(t: float, p: int) -> float:
    """Sum of log1p(-n/t) for n in [1, p-1] with fixed-block compensation."""
    import numpy as np  # only this loop needs it; keeps it off the import path

    total = comp = 0.0
    for start in range(1, p, _BLOCK):
        n = np.arange(start, min(p, start + _BLOCK), dtype=np.float64)
        np.divide(n, -t, out=n)  # in place, with no block-sized temporaries: -(n / t) exactly
        total, comp = _neumaier(total, comp, float(np.log1p(n, out=n).sum()))
    return total + comp


# --- exact cumulative power sums ------------------------------------------

@functools.cache
def _pascal(n: int) -> tuple:
    """C(n, 0..n), exactly.  A pure function of n, so threads that race to build a row
    store equal rows."""
    return tuple(map(math.comb, itertools.repeat(n), range(n + 1)))


def _power_sums(m: int):
    """S_1(m), S_2(m), ... in turn: S_j(m), the sum of n**j for n = 1..m, exact with no loop over n.

    S_1..S_3 come from the closed forms S_1 = m(m+1)/2, S_2 = S_1(2m+1)/3 and S_3 = S_1**2.
    Above them, Pascal's identity summed over n = 1..m gives (m+1)**(j+1) - 1 = sum_{i=0..j}
    C(j+1, i) S_i(m), and C(j+1, j) = j+1 leaves S_j(m) the one unknown: one dot product of
    a Pascal row with the lower sums, made only when the caller asks for S_j(m)."""
    s1 = m * (m + 1) // 2
    sums = [m, s1, s1 * (2 * m + 1) // 3, s1 * s1]  # S_k(m) at index k, S_0(m) = m
    yield from sums[1:]
    for j in itertools.count(4):
        s, r = divmod((m + 1) ** (j + 1) - 1 - sum(map(mul, _pascal(j + 1), sums)), j + 1)
        if r:
            raise AssertionError(f"power sum came out non-integral for k={j}, m={m}")
        sums.append(s)
        yield s


def _log_int(n: int) -> float:
    # log of a positive big integer without float overflow
    shift = max(n.bit_length() - 53, 0)
    return math.log(n >> shift) + shift * _LN2


def _series_term(s: int, k: int, t: float, log_t: float) -> float:
    """Value of s / (k * t**k) for the power sum s = S_k(m), overflow-safe."""
    # Direct evaluation while numerator and denominator both fit in floats;
    # otherwise fall back to log space (t**k overflows doubles long before
    # the term itself stops mattering).
    if s.bit_length() <= 1000 and k * log_t <= 690.0:
        return float(s) / (k * t**k)
    return math.exp(_log_int(s) - math.log(k) - k * log_t)


def _check_order(order) -> None:
    if not isinstance(order, int) or isinstance(order, bool) or order < 2:
        raise DomainError(f"series order must be an integer >= 2, got {order!r}")
    if order > _MAX_ORDER:
        raise DomainError(f"series order must be at most {_MAX_ORDER}, got {order}")


def _prob_bound(v: float, tail: float) -> float:
    """Absolute probability-error bound for a log-survival estimate v.

    ``tail`` bounds the (one-sided) truncation error in log space.  A
    rounding allowance proportional to the magnitude of v is folded in so
    the published bound also covers float accumulation noise of either
    evaluation route.  Mapping into probability space contracts the error
    by the survival factor exp(v).  The final flat term covers the last
    rounding of each route's own log-to-probability conversion (half an
    ulp of the result apiece), which is NOT contracted by exp(v) and
    dominates whenever the probability sits next to 1.
    """
    slack = _ROUNDING_UNIT * (1.0 + abs(v))
    x = v + tail + slack
    bound = (tail + slack) * math.exp(x if x < 0.0 else 0.0) + _FINAL_ROUNDING
    return bound if bound < 1.0 else 1.0


def _series_scan(t: float, p: int, order=None):
    """Series terms 1..k plus the first omitted term.

    Refuses p/t >= 1/2, where the geometric tail bound is not certified.
    A fixed ``order`` sets k.  With ``order=None`` k grows from 2 until the
    truncation bound tail = omitted term / (1 - p/t) is at most the share
    _ROUNDING_UNIT of |value| that reported bounds already carry: at most
    ~45 orders for p/t < 1/2, usually 2 to 4.  Returns (value, tail, k),
    the log-survival estimate, its truncation bound, and the order.
    """
    ratio = p / t  # finite: the caller settles p - 1 >= t first
    if ratio >= _SERIES_MAX_RATIO:
        raise SeriesBoundError(f"series bound is not certified for p/t = {ratio:.3g} >= 1/2; "
                               "use the exact method")
    log_t = math.log(t)
    geom = 1.0 / (1.0 - ratio)
    sums = _power_sums(p - 1)
    # Starting the sum at term 1 with no compensation is bit-identical to
    # a Neumaier step from zero.
    total, comp = _series_term(next(sums), 1, t, log_t), 0.0
    omitted = _series_term(next(sums), 2, t, log_t)
    for k in range(2, (order or _MAX_ORDER) + 1):
        total, comp = _neumaier(total, comp, omitted)
        omitted = _series_term(next(sums), k + 1, t, log_t)
        value, tail = -(total + comp), omitted * geom
        if order is None and tail <= _ROUNDING_UNIT * -value:
            break
    return value, tail, k


def collision_probability(
    t, p, method: str = AUTO, *, order=None, exact_budget: int = DEFAULT_EXACT_BUDGET
) -> EvalResult:
    """Probability that p uniform draws over t values repeat at least once.

    ``method`` is "exact", "series", or "auto".  Auto takes the series
    wherever it is certified (p/t < 1/2) and either p/t <= 1e-4 or the
    product would need more than 48 k**2 + 200 factors, where
    k = 1 + ln(5e-11) / ln(p/t) is the order the series is predicted to stop
    at; otherwise it runs the exact product within ``exact_budget``.  The
    series grows its order until the truncation bound on ``log_survival`` is
    at most 1e-13 of its magnitude.

    Two short circuits need no iteration at all: p <= 1 gives probability
    exactly 0, and p >= t + 1 gives probability exactly 1 (some value must
    repeat once every value has been seen).
    """
    space = as_space_size(t)
    p = _as_count(p)
    exact_budget = _as_count(exact_budget, "exact budget")
    if method not in (EXACT, SERIES, AUTO):
        raise DomainError(f"method must be one of exact/series/auto, got {method!r}")
    if order is not None:
        if method != SERIES:
            raise DomainError("order only applies to the series method")
        _check_order(order)

    if p <= 1:
        return _result_from_log(0.0, EXACT, 0.0)
    if _is_guaranteed_repeat(space, p):
        return _result_from_log(-math.inf, EXACT, 0.0)

    if method == AUTO:
        # Over the budget only the series is left; within it the O(p) walk
        # pays off for short products, and is the one route for p/t >= 1/2.
        ratio = p / space.value
        if _AUTO_SERIES_RATIO < ratio < _SERIES_MAX_RATIO:
            k = 1.0 + _LOG_STOP / math.log(ratio)
            cheap = p - 1 > min(exact_budget, _AUTO_FACTORS_PER_ORDER2 * k * k + _AUTO_FACTORS_BASE)
        else:
            cheap = ratio <= _AUTO_SERIES_RATIO
        method = SERIES if cheap else EXACT

    if method == EXACT:
        # the one over-budget refusal; p <= 1 and the pigeonhole case are settled above, so p/t is finite
        if p - 1 > exact_budget:
            ratio = p / space.value
            advice = ("so use the series method instead" if ratio < _SERIES_MAX_RATIO
                      else "too large for the series")
            raise IterationBudgetError(f"exact product needs {p - 1} factors, over the budget of "
                                       f"{exact_budget}; p/t = {ratio:.3g}, {advice}")
        return _result_from_log(_survival_log_product(space.value, p), EXACT, 0.0)
    value, tail, k = _series_scan(space.value, p, order)
    return _result_from_log(value, SERIES, _prob_bound(value, tail), k)

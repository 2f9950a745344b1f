"""Collision (shared-value) probabilities for uniform draws from huge spaces.

Computes the probability that ``p`` independent draws, uniform with
replacement over ``t`` equally likely distinct values, contain at least one
repeated value.  The space size ``t`` may be far beyond what fits in any
machine integer (up to 1e30), and the population ``p`` may run into the
trillions, so everything is evaluated through the log of the survival
(no-repeat) probability rather than the product itself.

``collision_probability`` takes one of two routes, named by ``method``:

* "exact" walks the product factors (t - n) / t directly, taking each
  factor as log1p(-n / t), summing each fixed-size block with numpy and
  the block sums with the correctly rounded ``math.fsum``.  Cost is O(p).
* "series" expands each log1p term as a power series and swaps the order
  of summation, which turns the whole sum into a handful of cumulative
  power sums: the first three from exact integer closed forms, the rest
  from Faulhaber's formula in floats, each made by the one loop that also
  decides where to stop.  Cost is O(1) per order, whatever p, and the
  truncation error carries a certified bound.

"auto", the default, picks between them by a cost rule linear in the series'
order, which ``tools/crossover.py`` fits.

Both routes use fixed partitioning and a fixed reduction order, so results
are reproducible bit for bit from run to run on one platform.  Across
platforms the exact route's bits depend on numpy's SIMD dispatch level and
on libm, the series route's on libm only.  All public functions are pure
and safe for concurrent use.
"""

import math
import numbers
from dataclasses import dataclass

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
_MAX_SPACE_INT = int(MAX_SPACE)

# Most factors the O(p) product may walk, under every method, unless told otherwise:
# 1e8 log1p evaluations take about half a second.  Auto's route does not read it.
DEFAULT_EXACT_BUDGET = 10**8

# Highest series order: an order-less scan stops here at the latest, and an
# explicit order above it is refused.  Orders cost O(1) each, so what the cap does
# is define the series' wall: the p/t past which a scan would need more orders.
_MAX_ORDER = 512

# The series' wall: an order-less scan at p/t = x is predicted to stop at the order k
# where x**(k - 1) = _STOP (see _pick), which reaches _MAX_ORDER at x ~ 0.95464.
_STOP, _LOG_STOP = 5e-11, math.log(5e-11)
_SERIES_MAX_RATIO = math.exp(_LOG_STOP / (_MAX_ORDER - 1))

# Fixed block length for the exact product sum.  Blocks are summed with
# numpy's pairwise reduction and combined with ``math.fsum``, so the
# partitioning itself is part of the (deterministic) algorithm.
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

EXACT = "exact"
SERIES = "series"
AUTO = "auto"


class DomainError(ValueError):
    """Every ropcalc refusal: an argument, model or table that ropcalc does not answer for."""


class IterationBudgetError(DomainError, RuntimeError):
    """The exact product would need more factors than the budget allows."""


class SeriesBoundError(DomainError):
    """p/t is too close to 1 for the series: its scan would pass its order cap."""


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


def _as_space(t) -> float:
    """Read a space size: an int (numpy's too), a float or a SpaceSize, from 1 to 1e30, as a float.
    The one reader: as_space_size wraps what it reads, collision_probability reads it bare."""
    if isinstance(t, SpaceSize):
        return t.value
    if isinstance(t, bool) or not isinstance(t, (float, int, numbers.Integral)):
        raise DomainError("space size must be a number, not bool" if isinstance(t, bool) else
                          f"space size must be int, float, or SpaceSize, got {type(t).__name__}")
    if not isinstance(t, float) and abs(t := int(t)) > _MAX_SPACE_INT:  # exact: float(t) may be 1e30
        raise DomainError(f"space size of {t.bit_length()} bits exceeds the supported maximum 1e30")
    t = float(t)  # a plain float also from numpy's: p - 1 >= t must compare int against float exactly
    if not 1.0 <= t <= MAX_SPACE:  # NaN fails every comparison
        raise DomainError(f"space size must be from 1 to 1e30, got {t!r}")
    return t


def as_space_size(t) -> SpaceSize:
    """Coerce an int (numpy's too), float, or SpaceSize into a validated SpaceSize."""
    return t if isinstance(t, SpaceSize) else _frozen(SpaceSize, {"value": _as_space(t)})


def _power(base: int, exp: int) -> int:
    """base**exp in exact integers, refused before it is formed when exp > 4096 or it
    could pass 2**16 bits (it has at most exp * bit_length(base)); below that, the 1e30
    range check names its size."""
    if exp > 4096 or exp * base.bit_length() > 1 << 16:
        raise DomainError("exponent too large" if exp > 4096 else "power too large")
    return base**exp


def _shown(value) -> str:
    """How a message shows a refused value: by its repr, or by its size for an int past every float."""
    if isinstance(value, int) and value.bit_length() > 1024:  # str() refuses over 4300 digits
        return f"an int of {value.bit_length()} bits"
    return repr(value)


def _as_count(value, what="population", low=0) -> int:
    """Read a count: an int, a float with no fraction or another integral number (numpy's
    integers), at least ``low``, as an int.  A bool is no count."""
    if type(value) is int:
        n = value
    elif (value.is_integer() if isinstance(value, float)  # nan and inf are not
          else isinstance(value, numbers.Integral) and not isinstance(value, bool)):
        n = int(value)
    else:
        raise DomainError(f"{what} must be a whole number, got {_shown(value)}")
    if n < low:
        raise DomainError(f"{what} must be >= {low}, got {_shown(n)}")
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
    """A frozen dataclass instance whose ``__dict__`` is the fresh dict ``fields``: one
    ``object.__setattr__`` call, where the generated ``__init__`` makes one per field.
    Skips ``__post_init__``: only for fields already checked."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "__dict__", fields)
    return obj


def _result_from_log(v: float, method: str, bound: float, order=None) -> EvalResult:
    prob = 0.0 - math.expm1(v)  # +0.0 where -expm1(v) is -0.0, else the same bits
    return _frozen(EvalResult, {"probability": prob, "log_survival": v, "method": method,
                                "abs_error_bound": bound, "order": order})


def pair_count(n) -> int:
    """Number of unordered pairs among n items, n*(n-1)/2, exactly.

    Evaluated in arbitrary-precision integers, so there is no overflow for
    populations in the billions and beyond.
    """
    n = _as_count(n, what="pair count argument")
    return n * (n - 1) // 2


def _survival_log_product(t: float, p: int) -> float:
    """Sum of log1p(-n/t) for n in [1, p-1]: fixed blocks, block sums correctly rounded."""
    import numpy as np  # only this loop needs it; keeps it off the import path

    blocks = []
    for start in range(1, p, _BLOCK):
        n = np.arange(start, min(p, start + _BLOCK), dtype=np.float64)
        np.divide(n, -t, out=n)  # in place, with no block-sized temporaries: -(n / t) exactly
        blocks.append(float(np.log1p(n, out=n).sum()))
    return math.fsum(blocks)


# --- series terms -----------------------------------------------------------

# B_2j / (2j)! for j = 1..12: Faulhaber's coefficients (DLMF 24.4(iii)), rounded to double.
# Each term they weigh is at most ~(k / 2 pi m)**2 of the one before, so for m > k the first
# left out, B_26's, is below 2**-68 of the bracket that holds them.
_FAULHABER = (
    0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05, -8.267195767195768e-07,
    2.08767569878681e-08, -5.284190138687493e-10, 1.3382536530684679e-11, -3.3896802963225827e-13,
    8.586062056277845e-15, -2.174868698558062e-16, 5.5090028283602295e-18, -1.3954464685812522e-19,
)


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
    """Series terms T_1..T_k plus the first omitted one, each evaluated once as the loop reaches it.

    With m = p - 1, T_k = S_k(m) / (k t**k) and S_k(m) = 1**k + ... + m**k.  T_1..T_3 round the
    exact closed forms S_1 = m(m+1)/2, S_2 = S_1(2m+1)/3 and S_3 = S_1**2.  Above them, while
    m > k, Faulhaber's formula in floats with y = m/t:
        T_k = y**k (m/(k+1) + 1/2 + sum_{j<=k/2} B_2j/(2j)! k(k-1)...(k-2j+2) / m**(2j-1)) / k,
    whose sum stops once a term no longer moves it; once m <= k, the direct sum of (n/t)**k.
    The sum walks _FAULHABER with no slice per k, taking the falling factorial two factors a step.
    A term is within k + 8 ulps of the exact one while it and y**k are normal floats (at worst
    0.46 (k + 8) over TestSeriesTerm's grid, m = 1..1e13).  The terms where k is large are
    ~1e-13 of the value where an order-less scan stops, so their error stays far inside the
    _ROUNDING_UNIT (1 + |v|) that _prob_bound allows.

    Needs p/t < _SERIES_MAX_RATIO (the caller refuses the rest).  As S_{k+1}(m) <= m S_k(m),
    each term is at most p/t times the one before, so tail = omitted term / (1 - p/t) bounds
    the truncation for any p/t < 1.  A fixed ``order`` sets k; with ``order=None`` k grows
    from 2 until tail is at most the share _ROUNDING_UNIT of |value| that reported bounds
    carry: 35 orders at p/t = 1/2, 410 at 0.95, usually 2 to 4.
    Returns (value, tail, k, terms): the estimate, its bound, the order, and T_1..T_{k+1}.
    """
    m = p - 1
    s1 = m * (m + 1) // 2
    terms = [float(s1) / t, float(s1 * (2 * m + 1) // 3) / (2 * t**2)]
    omitted, geom = float(s1 * s1) / (3 * t**3), 1.0 / (1.0 - p / t)
    # The stop test reads a plain running sum (builtin sum() compensates since Python 3.12, and the
    # stop order must not depend on the Python version); at order 2 it is fsum's, correctly rounded.
    running = terms[0] + terms[1]
    if not (order or omitted * geom > _ROUNDING_UNIT * running):
        return -running, omitted * geom, 2, [*terms, omitted]
    mf = float(m)
    y, m2 = mf / t, mf * mf
    k, last = 3, (order or _MAX_ORDER) + 1  # k is the order of the omitted term
    while k != last and (order or omitted * geom > _ROUNDING_UNIT * running):
        terms.append(omitted)
        running += omitted
        k += 1
        if m <= k:
            omitted = math.fsum((n / t) ** k for n in range(1, m + 1)) / k
            continue
        b, c, d = mf / (k + 1) + 0.5, k / mf, k - 1
        for coeff in _FAULHABER:  # while 2j <= k, that is while d = k - 2j + 1 >= 1
            x = coeff * c
            if d < 1 or b + x == b:
                break
            b += x
            c *= d * (d - 1) / m2
            d -= 2
        omitted = y**k * b / k
    value = -math.fsum(terms)
    terms.append(omitted)
    return value, omitted * geom, k - 1, terms


_AUTO_FACTORS_PER_ORDER, _AUTO_ORDER_OFFSET = 220, 6  # _pick's C and k0: tools/crossover.py fits them


def _pick(t: float, p: int) -> str:
    """Auto's route for 1 < p < t + 1, from t and p alone: the product at or above the series'
    wall; below it the series iff its predicted stop order k = 1 + ln(5e-11) / ln(p/t) is under
    the orders the product's p - 1 factors buy, k0 + (p - 1) / C, or p - 1 > C (k - k0): an
    order costs as much as C factors, and the product's larger fixed cost pays for k0 orders.
    So the series wherever k < k0 (p/t < ~8.7e-3), and at most C (512 - k0) ~ 1.11e5 factors
    below the wall.  k is where a scan's terms, ~x**k / (k (k + 1)) of the value at x = p/t,
    reach its 1e-13 stop share (x**(k - 1) = 5e-11): 4.4, 11.3, 30.7 and 463 at x = 1e-3, 0.1,
    0.45 and 0.95 against real stops 4, 12, 31 and 410.
    """
    ratio = p / t
    if ratio >= _SERIES_MAX_RATIO:
        return EXACT
    orders = _AUTO_ORDER_OFFSET + (p - 1) / _AUTO_FACTORS_PER_ORDER
    return SERIES if ratio ** (orders - 1) < _STOP else EXACT


def collision_probability(
    t, p, method: str = AUTO, *, order=None, exact_budget: int = DEFAULT_EXACT_BUDGET
) -> EvalResult:
    """Probability that p uniform draws over t values repeat at least once.

    ``method`` is "exact", "series", or "auto".  Auto reads t and p only: below the series'
    order-cap wall (p/t ~ 0.95464) it takes the series where its predicted orders cost less
    than the product's p - 1 factors, the product otherwise (see _pick).  ``exact_budget``
    caps the factors the product may walk, whichever method chose it; a product over it is
    refused, never rerouted.  The series grows its order until the truncation bound on
    ``log_survival`` is at most 1e-13 of it.

    Two short circuits need no iteration at all: p <= 1 gives probability
    exactly 0, and p >= t + 1 gives probability exactly 1 (some value must
    repeat once every value has been seen).
    """
    t = _as_space(t)
    p = _as_count(p)
    if exact_budget is not DEFAULT_EXACT_BUDGET:  # the default needs no reading
        exact_budget = _as_count(exact_budget, "exact budget")
    if method not in (EXACT, SERIES, AUTO):
        raise DomainError(f"method must be one of exact/series/auto, got {_shown(method)}")
    if order is not None:
        if method != SERIES:
            raise DomainError("order only applies to the series method")
        if (order := _as_count(order, "series order", 2)) > _MAX_ORDER:
            raise DomainError(f"series order must be at most {_MAX_ORDER}, got {_shown(order)}")

    # p draws over t values force a repeat once p - 1 >= t: Python compares an int with a
    # float exactly, at every size, where p >= t + 1.0 fails above 2**53 (t + 1.0 == t).
    if p <= 1 or p - 1 >= t:
        return _result_from_log(0.0 if p <= 1 else -math.inf, EXACT, 0.0)

    route = _pick(t, p) if method == AUTO else method
    if route == SERIES:
        if method == SERIES and (ratio := p / t) >= _SERIES_MAX_RATIO:  # auto picks no series here
            advice = ("use the exact method" if p - 1 <= exact_budget else f"the product's {p - 1} "
                      f"factors are over the budget of {exact_budget} too: neither route answers")
            raise SeriesBoundError(f"p/t = {ratio:.4g} is at least {_SERIES_MAX_RATIO:.4g}, where the "
                                   f"series would pass its order cap of {_MAX_ORDER}; {advice}")
        value, tail, order, _ = _series_scan(t, p, order)
        bound = _prob_bound(value, tail)
    else:
        if p - 1 > exact_budget:  # the one over-budget refusal, under auto too
            advice = ("so use the series method instead" if p / t < _SERIES_MAX_RATIO
                      else "too large for the series")
            raise IterationBudgetError(f"exact product needs {p - 1} factors, over the budget of "
                                       f"{exact_budget}; p/t = {p / t:.3g}, {advice}")
        value, bound = _survival_log_product(t, p), 0.0
    return _result_from_log(value, route, bound, order)

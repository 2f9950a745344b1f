"""Inverse collision problems.

Given the forward map (space size, population) -> collision probability,
answer the two reversed questions:

* how many draws does it take before a repeat is at least this likely
  (``solve_population``), and
* how large must the space be for a fixed population to stay below a
  given repeat probability (``solve_space``).

Both exploit strict monotonicity of the forward map: increasing in the
population, decreasing in the space size.  ``space_for_world_overlap``
specializes the second question to the whole world population.
"""

import math
import numbers
from dataclasses import dataclass

from .collision import (
    MAX_SPACE,
    DomainError,
    SpaceSize,
    as_space_size,
    _as_count,
    _shown,
    collision_probability,
    pair_count,
)

__all__ = [
    "SolveTarget",
    "DEFAULT_WORLD_POPULATION",
    "solve_population",
    "solve_space",
    "space_for_world_overlap",
]

# World population used by the world-scale uniqueness question (8.2 billion).
DEFAULT_WORLD_POPULATION = 8_200_000_000


def _as_share(value, what, whole=1.0) -> float:
    """Read a probability (``whole`` 1) or percent (100): a float or integral number (numpy's too, not
    bool) strictly between 0 and ``whole``, an int compared exactly, as the float ``value / whole``."""
    if isinstance(value, (float, numbers.Integral)) and not isinstance(value, bool) and 0 < value < whole:
        return float(value) / whole
    raise DomainError(f"{what} must be a number strictly between 0 and {whole:g}, got {_shown(value)}")


@dataclass(frozen=True)
class SolveTarget:
    """A collision probability to hit, with a solver tolerance.

    Both are read by ``_as_share`` as floats inside (0, 1).  ``tolerance`` is relative on the
    space size for space solves (the attained probability then sits well within it of the
    target); population solves return an exact integer threshold and only use the target.
    """

    target_prob: float
    tolerance: float = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "target_prob", _as_share(self.target_prob, "target probability"))
        object.__setattr__(self, "tolerance", _as_share(self.tolerance, "tolerance"))


def _goal(target) -> "tuple[float, float]":
    """A SolveTarget's probability and tolerance; a plain one is read as SolveTarget reads it."""
    if isinstance(target, SolveTarget):
        return target.target_prob, target.tolerance
    return _as_share(target, "target probability"), SolveTarget.tolerance


def _prob(t, p) -> float:
    return collision_probability(t, p).probability


def _secant(evaluate, goal, v, d, ends, step):
    """Up to 8 secant probes on (ln v, ln(log_survival / edge)), from v with inverse slope d,
    while v lies inside ends = [miss, hit], the nearest points known to miss and to reach goal;
    edge is the log-survival at which the float probability first rounds up to goal.  step(v, r)
    maps the root r to the next v.  Returns the last r, or nan."""
    edge = math.log((1.0 - goal) + math.ulp(goal) / 2) if goal >= 0.5 else math.log1p(-goal)
    d0, last, r = d, None, math.nan
    for _ in range(8):
        if not min(ends) < v < max(ends):
            break
        e = evaluate(v)
        ends[e.probability >= goal] = v
        # stops at log_survival 0 or -inf, and keeps ln from a ratio that underflows to 0
        if not 0.0 < (q := e.log_survival / edge) < math.inf:
            break
        g = math.log(q)
        # the secant's inverse slope; nan, which stops below, where the map is flat
        d = math.log(v / last[0]) / (g - last[1] or math.nan) if last else d
        if not 0.0 < d / d0 < math.inf:
            break
        # a root above the upper end is cut back to it, so exp cannot overflow
        last, r = (v, g), v * math.exp(min(-g * d, math.log(max(ends) / v)))
        v = step(v, r)
    return r


def solve_population(t, target) -> int:
    """Smallest population whose collision probability reaches the target.

    The pair-count seed p0 = sqrt(2 * t * -log(1 - target)), the same bound ``solve_space``
    starts from, proves the bracket [1, 2*p0]; secant probes narrow it, most often to adjacent
    integers in two or three evaluations, and integer bisection closes any gap.  Every decision
    is the forward evaluator's, so the result is exactly the first p with probability(t, p) >=
    target under that evaluator.
    """
    space = as_space_size(t)
    goal, _ = _goal(target)

    # The guaranteed-repeat cutoff bounds the search: probability is 1 there,
    # at the first p with p - 1 >= t.
    cap = math.ceil(space.value) + 1

    # pair_count(2*p0) >= p0**2 > 2 * t * -log(1 - goal) and log1p(-y) <= -y
    # give prob(2*p0) >= 1 - (1 - goal)**2 >= goal; prob(1) = 0.  Secant probes narrow
    # [1, 2*p0] to prob(lo) < goal <= prob(hi); an unprobed hi that misses falls back to the cap
    p0 = math.isqrt(math.ceil(2.0 * space.value * -math.log1p(-goal))) + 1
    ends = [1, min(2 * p0, cap)]
    _secant(lambda n: collision_probability(space, n), goal, p0, 0.5, ends,
            lambda n, r: min(max(math.ceil(r), ends[0] + 1), ends[1] - 1))
    lo, hi = ends
    if hi == min(2 * p0, cap) and _prob(space, hi) < goal:
        lo, hi = hi, cap
        if _prob(space, hi) < goal:
            raise AssertionError("guaranteed-repeat cutoff failed to reach the target")
    # invariant: prob(lo) < goal <= prob(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _prob(space, mid) >= goal:
            hi = mid
        else:
            lo = mid
    return hi


def solve_space(p, target) -> SpaceSize:
    """Space size at which the population's collision probability hits the target.

    A closed-form seed t0 = pair_count(p) / (-log(1 - target)) comes from the pair-counting
    approximation and brackets the root in [t0/4, max(4*t0, t0 + p - 1)], clamped to the
    supported maximum 1e30, by proof rather than by widening.  Bisection on log t then runs
    until the bracket is relatively tighter than the tolerance or holds no float inside.
    Secant probes first pin the root to tolerance/16, most often in two or three evaluations,
    so the bisection probes only midpoints between them and returns the float it would return
    probing every one.  Raises DomainError when even a space of 1e30 leaves the probability
    above the target.
    """
    p = _as_count(p, low=2)
    x, tolerance = _goal(target)

    # p - 1 >= 1e30 forces a repeat in every supported space; pair_count(p), and p
    # itself, may overflow a float there, so t0 = inf stands in
    t0 = pair_count(p) / -math.log1p(-x) if p - 1 < MAX_SPACE else math.inf
    # log1p(-y) <= -y gives prob(t) >= x for every t <= t0: t0 > 1e30 puts the root above
    # the domain with no probe, and prob(lo) >= x needs none: prob(t0/4) >= 1 - (1-x)**4 >= x
    # prob(hi) <= x needs none below 1e30: -log1p(-y) <= y/(1-y) gives, for t > p - 1,
    # -log S(t) <= pair_count(p) / (t - p + 1), which is -log(1-x) at t = t0 + p - 1
    lo = max(1.0, t0 / 4.0)
    hi = min(max(4.0 * t0, t0 + (p - 1)), MAX_SPACE) if t0 <= MAX_SPACE else MAX_SPACE
    if t0 > MAX_SPACE or hi == MAX_SPACE and _prob(hi, p) > x:
        raise DomainError(
            f"population {_shown(p)} repeats with probability above {x!r} even in a space "
            "of 1e30, the supported maximum"
        )
    # secant probes from t0, then two at r(1 -+ w) around their root r (w is an ulp at least,
    # so both differ from r), narrow the probed pair ends = [b, a], prob(a) >= x > prob(b);
    # monotonicity decides every midpoint outside (a, b)
    ends, w = [hi, lo], max(tolerance / 16, math.ulp(1.0))
    r = _secant(lambda t: collision_probability(t, p), x, t0, -1.0, ends,
                lambda t, r: r if abs(r - t) > w * t else math.nan)
    for c in (r * (1 - w), r * (1 + w)):
        if ends[1] < c < ends[0]:
            ends[_prob(c, p) >= x] = c
    # invariant: prob(lo) >= x >= prob(hi)  (probability falls as t grows); it stops
    # where no float lies strictly between lo and hi, whatever the tolerance
    while hi - lo > tolerance * lo and lo < (mid := math.sqrt(lo * hi)) < hi:
        if mid <= ends[1] or mid < ends[0] and _prob(mid, p) >= x:
            lo = mid
        else:
            hi = mid
    return as_space_size(math.sqrt(lo * hi))


def space_for_world_overlap(percent, world_population: int = DEFAULT_WORLD_POPULATION) -> SpaceSize:
    """Space size at which the whole world shares a value with the given
    percent probability.

    ``percent`` is in (0, 100).  Smaller percents demand larger spaces, so
    the result is strictly decreasing in ``percent``.
    """
    return solve_space(world_population, _as_share(percent, "percent", 100.0))

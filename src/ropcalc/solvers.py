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
from dataclasses import dataclass

from .collision import (
    MAX_SPACE,
    DomainError,
    SpaceSize,
    as_space_size,
    _as_count,
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

_MAX_BISECT = 400


@dataclass(frozen=True)
class SolveTarget:
    """A collision probability to hit, with a solver tolerance.

    ``tolerance`` is relative on the space size for space solves (the
    attained probability then sits well within the same tolerance of the
    target); population solves return an exact integer threshold and only
    use the target itself.
    """

    target_prob: float
    tolerance: float = 1e-9

    def __post_init__(self):
        x = self.target_prob
        if not isinstance(x, float) or not math.isfinite(x) or not 0.0 < x < 1.0:
            raise DomainError(f"target probability must be strictly inside (0, 1), got {x!r}")
        if not (isinstance(self.tolerance, float) and 0.0 < self.tolerance < 1.0):
            raise DomainError(f"tolerance must be a float in (0, 1), got {self.tolerance!r}")


def _as_target(target) -> SolveTarget:
    if isinstance(target, SolveTarget):
        return target
    if isinstance(target, (int, float)) and not isinstance(target, bool):
        return SolveTarget(float(target))
    raise DomainError(f"target must be a number or SolveTarget, got {type(target).__name__}")


def _prob(t, p) -> float:
    return collision_probability(t, p).probability


def solve_population(t, target) -> int:
    """Smallest population whose collision probability reaches the target.

    The pair-count seed p0 = sqrt(2 * t * -log(1 - target)), the same bound
    ``solve_space`` starts from, gives the bracket [p0/2, 2*p0]; integer
    bisection then narrows it.  Both phases reuse the forward evaluator, so
    the result is exactly the first p with probability(t, p) >= target under
    that evaluator.  Total evaluations stay within about log2(answer) + 3.
    """
    space = as_space_size(t)
    if space.value < 2:
        raise DomainError("population solves need a space of at least 2 values")
    goal = _as_target(target).target_prob

    # The guaranteed-repeat cutoff bounds the search: probability is 1 there,
    # at the first p with p - 1 >= t.
    cap = math.ceil(space.value) + 1

    # pair_count(2*p0) >= p0**2 > 2 * t * -log(1 - goal) and log1p(-y) <= -y
    # give prob(2*p0) >= 1 - (1 - goal)**2 >= goal.  A missed root falls back to
    # [1, lo] or [hi, cap]: probability is 0 at p = 1 and 1 at the cap.
    p0 = math.isqrt(math.ceil(2.0 * space.value * -math.log1p(-goal))) + 1
    lo = min(max(p0 // 2, 1), cap)
    hi = min(2 * p0, cap)
    if lo > 1 and _prob(space, lo) >= goal:
        lo, hi = 1, lo
    elif _prob(space, hi) < goal:
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

    A closed-form seed t0 = pair_count(p) / (-log(1 - target)) comes from
    the pair-counting approximation and brackets the root in
    [t0/4, max(4*t0, t0 + p - 1)], clamped to the supported maximum 1e30,
    by proof rather than by widening.  Bisection then proceeds on log t until
    the bracket is relatively tighter than the tolerance.  Raises DomainError
    when even a space of 1e30 leaves the probability above the target.
    """
    p = _as_count(p)
    if p < 2:
        raise DomainError(f"space solves need at least 2 draws, got {p}")
    goal = _as_target(target)
    x = goal.target_prob

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
            f"population {p} repeats with probability above {x!r} even in a space "
            "of 1e30, the supported maximum"
        )
    # invariant: prob(lo) >= x >= prob(hi)  (probability falls as t grows)
    for _ in range(_MAX_BISECT):
        if hi - lo <= goal.tolerance * lo:
            break
        mid = math.sqrt(lo * hi)
        if _prob(mid, p) >= x:
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
    if isinstance(percent, bool) or not isinstance(percent, (int, float)):
        raise DomainError(f"percent must be a number, got {type(percent).__name__}")
    if not 0.0 < float(percent) < 100.0:
        raise DomainError(f"percent must be strictly between 0 and 100, got {percent!r}")
    return solve_space(world_population, float(percent) / 100.0)

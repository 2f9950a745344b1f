"""Fit auto's cost rule: where the series stops costing more than the exact product.

Times both routes of ``collision_probability`` on a fixed grid of p/t from 1e-4 to
0.95 by p from 10 to 45,000, best of 15 passes over the whole grid.  Fits a line in
relative error to the product's time against its p - 1 factors, and to the series'
against its predicted stop order k = 1 + ln(5e-11) / ln(p/t) where p - 1 > k.  Auto
takes the series iff p - 1 > C (k - k0), with C = (cost per order) / (cost per factor)
and k0 = (the product's fixed cost - the series') / (cost per order); the last line
gives them as ``collision.py`` holds them, C to the nearest 10, k0 to the nearest 1:

    PYTHONPATH=src python tools/crossover.py

``--quick`` times a 2 x 2 grid once, only to check that the script runs.
"""

import argparse
import gc
import math
import sys
import time

from ropcalc import collision_probability

RATIOS = (1e-4, 1e-3, 1e-2, 0.05, 0.2, 0.45, 0.7, 0.9, 0.95)
POPULATIONS = (10, 30, 100, 300, 1000, 3000, 10_000, 45_000)


def _seconds(t, p, method) -> float:
    start = time.perf_counter()
    collision_probability(t, p, method)
    return time.perf_counter() - start


def _fit(points) -> tuple:
    """(intercept, slope) of the least-squares line through (x, y), each point weighed by 1/y**2."""
    w = x = y = xx = xy = 0.0
    for px, py in points:
        u = 1 / (py * py)
        w, x, y, xx, xy = w + u, x + u * px, y + u * py, xx + u * px * px, xy + u * px * py
    slope = (w * xy - x * y) / (w * xx - x * x)
    return (y - slope * x) / w, slope


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="a 2 x 2 grid timed once")
    quick = parser.parse_args(argv).quick
    ratios, populations, repeat = ((1e-3, 0.45), (1000, 10_000), 1) if quick else (RATIOS, POPULATIONS, 15)
    cells = [(x, p, 1 + math.log(5e-11) / math.log(x)) for x in ratios for p in populations]
    product, series = [math.inf] * len(cells), [math.inf] * len(cells)
    gc.disable()
    for _ in range(repeat):  # whole passes, so a burst of other work on the host slows no cell's best
        for i, (x, p, k) in enumerate(cells):
            product[i] = min(product[i], _seconds(p / x, p, "exact"))
            if p - 1 > k:
                series[i] = min(series[i], _seconds(p / x, p, "series"))
    gc.enable()
    product = [(p - 1, s) for (x, p, k), s in zip(cells, product)]
    series = [(k, s) for (x, p, k), s in zip(cells, series) if p - 1 > k]
    (a, b), (c, d) = _fit(product), _fit(series)
    print(f"product {a * 1e6:.3f} us + {b * 1e9:.3f} ns/factor, series {c * 1e6:.3f} us + "
          f"{d * 1e6:.4f} us/order: C = {d / b:.1f}, k0 = {(a - c) / d:.2f}")
    print(f"_AUTO_FACTORS_PER_ORDER, _AUTO_ORDER_OFFSET = {round(d / b, -1):.0f}, {round((a - c) / d)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

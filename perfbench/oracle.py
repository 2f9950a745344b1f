"""Independent answer checks.

Forward evaluations are compared with log-gamma in mpmath, never with the
library's own routes:

    log_survival(t, p) = lgamma(t + 1) - lgamma(t + 1 - p) - p * log(t)

The difference cancels most of the lgamma magnitude, so the working
precision is raised by the digits the cancellation loses; the result keeps
at least 50 significant digits.  mpmath runs only here, after the timed
window, and is never timed.

Every failed check has a kind.  Kinds in ``BROKEN_GUARANTEES`` break a
promise the library publishes (its probability bound, a typed refusal for
bad input, solver exactness, CLI output equal to the library's) and make
the run incorrect.  The others are counted as failed operations but leave
the run correct: ``refused`` is a documented typed refusal, and
``log_survival`` misses a tolerance the library does not promise yet (it
publishes no bound on log_survival).
"""

import math

from mpmath import libmp

# Allowance added to the reported abs_error_bound: four units in the last
# place of 1.0, for the final rounding of a probability the exact route
# reports with a zero bound.
PROB_SLACK = 2.0**-50

# Relative tolerance on log_survival.
LOG_RTOL = 1e-9

# Relative tolerance of solve_space on the space size (its default); the
# probability it reaches then sits within this share of the target.
SOLVE_RTOL = 1e-9

# Significant digits kept in the reference after cancellation.
_DIGITS = 50

_NEAR = libmp.round_nearest

# Bits for 1 - e^v once |v| >= 2^-20: at most 20 bits cancel, 76 remain.
_PROB_PREC = 96

BROKEN_GUARANTEES = frozenset(
    {"raised", "probability", "not_minimal", "off_target", "cli_mismatch", "parse"})


def _exact(x):
    """An int or a float as an exact mpmath number."""
    return libmp.from_int(x) if isinstance(x, int) else libmp.from_float(x)


class Oracle:
    """mpmath reference for log-survival, caching lgamma(t + 1) per space.

    Works on mpmath's raw numbers (``mpmath.libmp``): the same arithmetic
    as mpmath.loggamma without the object overhead, which matters at the
    hundreds of thousands of answers a rop_tables run returns.
    """

    def __init__(self):
        self._head = {}

    def _reference(self, t, p):
        """(log-survival, precision in bits); a float when it is exact."""
        if p <= 1:
            return 0.0, None
        if p >= t + 1:
            return -math.inf, None
        m = p - 1
        estimate = m * m / (2.0 * t) if m < t / 2 else float(m)
        lost = math.log10(t * math.log(t + 1.0) + 1.0) - math.log10(max(estimate, 1e-300))
        digits = _DIGITS + max(0, math.ceil(lost)) + 5
        prec = 32 * math.ceil(digits * 3.33 / 32)
        key = (t, prec)
        if key not in self._head:
            big_t = _exact(t)
            self._head[key] = (libmp.mpf_loggamma(libmp.mpf_add(big_t, libmp.fone), prec, _NEAR),
                               libmp.mpf_log(big_t, prec, _NEAR))
        head, log_t = self._head[key]
        rest = libmp.mpf_add(_exact(t), libmp.from_int(1 - p))  # exact
        value = libmp.mpf_sub(head, libmp.mpf_loggamma(rest, prec, _NEAR), prec, _NEAR)
        value = libmp.mpf_sub(value, libmp.mpf_mul(libmp.from_int(p), log_t, prec, _NEAR),
                              prec, _NEAR)
        return value, prec

    def reference(self, t, p):
        """(log_survival, probability) as correctly rounded floats, and
        whether they are exact (p <= 1 or a guaranteed repeat)."""
        value, prec = self._reference(t, p)
        if prec is None:
            return value, (0.0 if value == 0.0 else 1.0), True
        log_survival = libmp.to_float(value, rnd=_NEAR)
        if log_survival > -2.0**-20:
            # 1 - e^v would cancel; expm1 of the rounded v is within a few
            # ulps of a probability below 2^-20, far inside PROB_SLACK
            return log_survival, -math.expm1(log_survival), False
        survival = libmp.mpf_exp(value, _PROB_PREC, _NEAR)
        probability = libmp.mpf_sub(libmp.fone, survival, _PROB_PREC, _NEAR)
        return log_survival, libmp.to_float(probability, rnd=_NEAR), False

    def check_forward(self, t, p, result):
        """Failure kinds for one EvalResult-like list (probability,
        log_survival, method, abs_error_bound, order); empty when it passes."""
        probability, log_survival, _method, bound, _order = result
        ref_log, ref_prob, exact = self.reference(t, p)
        if exact:
            prob_ok, log_ok = probability == ref_prob, log_survival == ref_log
        else:
            prob_ok = abs(probability - ref_prob) <= bound + PROB_SLACK
            log_ok = abs(log_survival - ref_log) <= LOG_RTOL * abs(ref_log)
        return [kind for kind, ok in (("probability", prob_ok), ("log_survival", log_ok)) if not ok]

"""Repeat probabilities for uniform random draws from very large spaces.

The forward question (how likely is a shared value among p draws over t
possibilities), its two inverses (smallest population for a target
probability; space size holding a population at a target probability),
and report-style random overlap tables for named groups.
"""

from .collision import *
from .collision import __all__ as _collision_all
from .rop import *
from .rop import __all__ as _rop_all
from .solvers import *
from .solvers import __all__ as _solvers_all

__version__ = "0.1.0"

__all__ = [*_collision_all, *_rop_all, *_solvers_all, "__version__"]

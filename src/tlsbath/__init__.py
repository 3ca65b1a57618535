"""Relaxation of a two-level system coupled to a repeatedly measured spin bath.

Exact few-spin simulation engines plus the second-order analytic maps they
validate: thermal-like attractors, Zeno suppression, population inversion and
parameter points where the dynamics freezes.
"""

__version__ = "1.0.0"

from . import analytics, dynamics, experiments, model
from .analytics import *
from .dynamics import *
from .experiments import *
from .model import *

__all__ = [
    "__version__",
    *analytics.__all__,
    *dynamics.__all__,
    *experiments.__all__,
    *model.__all__,
]

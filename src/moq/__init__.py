"""Multi-parameter Marshall-Olkin extended survival distributions.

A baseline CDF is pushed through a q-parameter monotone distortion of the
unit interval, producing flexible hazard shapes while keeping exact
evaluation, series and closed-form moments, and three independent,
cross-checked samplers.
"""

from . import baselines, config, errors, extended, family, moments, oracle, sampling
from .baselines import *  # noqa: F403
from .config import *  # noqa: F403
from .errors import *  # noqa: F403
from .extended import *  # noqa: F403
from .family import *  # noqa: F403
from .moments import *  # noqa: F403
from .oracle import *  # noqa: F403
from .sampling import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (baselines, config, errors, extended, family, moments, oracle, sampling)
    for name in module.__all__
)

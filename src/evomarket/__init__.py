"""evomarket: simulation and calibration of a two-wave durable-goods market.

A durable good spreads first by word of mouth at fixed features
(spreading wave) and then through the competitive decline of its mean
price toward the affordability floor (evolutionary wave).  The package
provides the market-volume curve, both diffusion laws with their
oracles, the product life cycle with replacement echoes, the
replicator-based competition layer with its stochastic distributions,
and the calibration procedure that fits it all to empirical series.
"""

# each module's __all__ is the one list of its public names, so the
# package exports their union and a new name cannot be left out here
from .benchmarks import *  # noqa: F403
from .calibration import *  # noqa: F403
from .diffusion import *  # noqa: F403
from .errors import *  # noqa: F403
from .evodyn import *  # noqa: F403
from .lifecycle import *  # noqa: F403
from .market import *  # noqa: F403
from .series import *  # noqa: F403
from .stochastic import *  # noqa: F403

__version__ = "0.1.0"

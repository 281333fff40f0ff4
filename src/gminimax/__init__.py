"""Robust point estimation for one-parameter exponential families.

Bayes, posterior-regret box-minimax, and reparameterization-invariant
box-minimax actions under the intrinsic (Kullback-Leibler) information
loss, with conjugate prior classes, Bayesianity certificates, and
independent brute-force verification oracles.

The public names are each module's ``__all__``; every module is loaded
here, eagerly.
"""

from . import (bayesianity, errors, estimators, expressions, families, losses,
               oracle, priors, verify)
from .bayesianity import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .estimators import *  # noqa: F401,F403
from .expressions import *  # noqa: F401,F403
from .families import *  # noqa: F401,F403
from .losses import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .priors import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (bayesianity, errors, estimators, expressions,
                               families, losses, oracle, priors, verify)
           for name in module.__all__] + ["__version__"]

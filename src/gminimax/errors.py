"""Exception taxonomy shared by every module.

Validation problems (bad inputs, improper priors, out-of-support points)
are distinct from numerical failures (brackets that refuse to close,
quadratures that do not converge) because the command line maps them to
different exit codes.
"""

__all__ = ["GMinimaxError", "DomainError", "ProprietyError", "ConvergenceError",
           "SpecificationError"]


class GMinimaxError(Exception):
    """Base class for every error raised by this package."""


class DomainError(GMinimaxError):
    """A value lies outside the region where a mapping is defined."""


class ProprietyError(GMinimaxError):
    """Hyper-parameters would produce an improper prior or posterior."""


class ConvergenceError(GMinimaxError):
    """An iterative numeric routine failed to reach its tolerance."""


class SpecificationError(GMinimaxError):
    """A family or run configuration is malformed."""

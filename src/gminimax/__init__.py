"""Robust point estimation for one-parameter exponential families.

Bayes, posterior-regret box-minimax, and reparameterization-invariant
box-minimax actions under the intrinsic (Kullback-Leibler) information
loss, with conjugate prior classes, Bayesianity certificates, and
independent brute-force verification oracles.

The public names are each module's ``__all__``.  ``import gminimax``
loads no module of the package: the first read of a name it does not
hold yet loads all nine and binds their public names here, so later
reads are plain globals.  A command-line call loads only what its
subcommand runs.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("bayesianity", "errors", "estimators", "expressions", "families",
            "losses", "oracle", "priors", "verify")


def __getattr__(name: str):
    """Load every module, bind its public names and ``__all__``, then
    answer ``name`` as a plain global (PEP 562)."""
    namespace = globals()
    if "__all__" not in namespace:
        modules = [importlib.import_module(f".{m}", __name__) for m in _MODULES]
        public = [(n, getattr(module, n)) for module in modules for n in module.__all__]
        namespace.update(public)
        namespace["__all__"] = [n for n, _ in public] + ["__version__"]
    try:
        return namespace[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None

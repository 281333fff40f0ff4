"""A high-precision reference for the intrinsic loss and the equalizer.

Built on the stdlib ``decimal`` module from the log normalizer and mean
formulas of the four built-in families, and nothing else from the
package.  Arithmetic runs at 80 significant digits, so at least 50
survive the cancellation of the closed form next to the diagonal.

Floats enter through ``Decimal(x)``, which is exact.  ``Decimal(repr(x))``
would shift a bound by up to half an ulp, which on narrow bounds moves
the equalizer by several percent of the width.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

PRECISION = 80


def _normal(t):
    return -t * t / 2, -t


def _exponential(t):
    return t.ln(), 1 / t


def _poisson(t):
    r = (-t).exp()
    return -r, r


def _binomial(n: int):
    def formulas(t):
        return -n * (1 + (-t).exp()).ln(), n / (1 + t.exp())
    return formulas


FORMULAS = {
    "normal": _normal,
    "exponential": _exponential,
    "binomial_logit(5)": _binomial(5),
    "poisson": _poisson,
}


def _loss(formulas, theta: Decimal, delta: Decimal) -> Decimal:
    psi_t, mu_t = formulas(theta)
    psi_d, _ = formulas(delta)
    return psi_t - psi_d + (delta - theta) * mu_t


def loss(name: str, theta: float, delta: float) -> float:
    """KL divergence from the model at theta to the model at delta."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        return float(_loss(FORMULAS[name], Decimal(theta), Decimal(delta)))


def equalizer(name: str, d_lo: float, d_hi: float) -> float:
    """Root of the regret gap: d_lo + w * L(hi, lo) / (L(hi, lo) + L(lo, hi))."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        lo, hi = Decimal(d_lo), Decimal(d_hi)
        down = _loss(FORMULAS[name], hi, lo)
        up = _loss(FORMULAS[name], lo, hi)
        return float(lo + (hi - lo) * down / (down + up))

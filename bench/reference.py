"""Independent arithmetic the benchmark checks the program against.

Everything here is written from the sampling models themselves and uses
only the standard library: nothing is imported from ``gminimax``.  The
families are the four built-ins, keyed by the names the command line
accepts.

* Bayes action under KL loss: the parameter whose model mean equals the
  posterior predictive mean ``units*(lam + stat(x))/(alpha + units)``.
* Box-minimax action: the equalizer quotient of the paper,
  ``(d2*mu(d2) - d1*mu(d1) - (psi(d2) - psi(d1))) / (mu(d2) - mu(d1))``
  for extreme Bayes actions ``d1 < d2``, or their midpoint once the two
  have collapsed.
* KL divergence: textbook closed forms for each distribution, not the
  generic ``psi``/``mu`` expression the program uses.
"""

from __future__ import annotations

import math

# Relative width under which two extreme Bayes actions count as one point
# (the documented degenerate branch of the equalizer).
DEGENERATE_REL_WIDTH = 1e-10


def _softplus(z: float) -> float:
    """log(1 + exp(z)) without overflow."""
    return max(z, 0.0) + math.log1p(math.exp(-abs(z)))


class Family:
    """One sampling model: log normalizer ``psi``, mean ``mu`` and KL."""

    def __init__(self, key, units, shift, psi, mu, stat, inverse, kl, floor=1e-4):
        self.key = key
        self.units = units          # prior-base units one observation adds
        self.shift = shift          # sqrt-Fisher shift of (alpha, lambda)
        self.psi = psi
        self.mu = mu
        self.stat = stat
        self.inverse = inverse      # mean value -> parameter
        self.kl = kl                # KL(model(theta) || model(delta))
        # Magnitude below which parameter values are compared absolutely:
        # parameters that can cross zero carry absolute rounding there (a
        # bisected inverse stops at 1e-12 relative in the mean value).
        self.floor = floor

    def predictive_mean(self, alpha: float, lam: float, x: float) -> float:
        return self.units * (lam + self.stat(x)) / (alpha + self.units)

    def bayes(self, alpha: float, lam: float, x: float) -> float:
        return self.inverse(self.predictive_mean(alpha, lam, x))

    def corners(self, box, x: float, jcp: bool = False) -> list[float]:
        a_lo, a_hi, l_lo, l_hi = box
        da, dl = self.shift if jcp else (0.0, 0.0)
        return [self.bayes(a + da, l + dl, x)
                for a in (a_lo, a_hi) for l in (l_lo, l_hi)]

    def equalizer(self, d1: float, d2: float) -> float:
        if d2 - d1 < DEGENERATE_REL_WIDTH * max(1.0, abs(d1), abs(d2)):
            return 0.5 * (d1 + d2)
        m1, m2 = self.mu(d1), self.mu(d2)
        return (d2 * m2 - d1 * m1 - (self.psi(d2) - self.psi(d1))) / (m2 - m1)

    def box_minimax(self, box, x: float, jcp: bool = False):
        ests = self.corners(box, x, jcp)
        d1, d2 = min(ests), max(ests)
        return d1, d2, self.equalizer(d1, d2)


def _kl_normal(t, d):
    return 0.5 * (t - d) ** 2


def _kl_exponential(t, d):
    return math.log(t / d) + d / t - 1.0


def _kl_binomial(n):
    def kl(t, d):
        # success probability p = 1/(1+e^theta); work with log p, log(1-p)
        lp_t, lq_t = -_softplus(t), -_softplus(-t)
        lp_d, lq_d = -_softplus(d), -_softplus(-d)
        return n * (math.exp(lp_t) * (lp_t - lp_d) + math.exp(lq_t) * (lq_t - lq_d))
    return kl


def _kl_poisson(t, d):
    r, s = math.exp(-t), math.exp(-d)
    return r * (d - t) - r + s


def _binomial(n: int) -> Family:
    return Family(
        key=f"binomial_logit({n})", units=float(n), shift=(1.0, 0.5),
        psi=lambda t: -n * _softplus(-t),
        mu=lambda t: n / (1.0 + math.exp(t)),
        stat=lambda x: x,
        inverse=lambda m: math.log(n / m - 1.0),
        kl=_kl_binomial(n), floor=1e-2,
    )


FAMILIES = {
    "normal": Family(
        key="normal", units=1.0, shift=(0.0, 0.0),
        psi=lambda t: -0.5 * t * t, mu=lambda t: -t, stat=lambda x: -x,
        inverse=lambda m: -m, kl=_kl_normal,
    ),
    "exponential": Family(
        key="exponential", units=1.0, shift=(-1.0, 0.0),
        psi=math.log, mu=lambda t: 1.0 / t, stat=lambda x: x,
        inverse=lambda m: 1.0 / m, kl=_kl_exponential, floor=0.0,
    ),
    "binomial_logit(5)": _binomial(5),
    "poisson": Family(
        key="poisson", units=1.0, shift=(0.0, 0.5),
        psi=lambda t: -math.exp(-t), mu=lambda t: math.exp(-t),
        stat=lambda x: x, inverse=lambda m: -math.log(m), kl=_kl_poisson,
        floor=1e-2,
    ),
}

# Reparameterizations attached to the iprgm calls, with their forward maps.
TRANSFORMS = {
    "normal": ("affine(2,1)", lambda t: 2.0 * t + 1.0),
    "exponential": ("reciprocal", lambda t: 1.0 / t),
    "binomial_logit(5)": ("logit_to_p", lambda t: 1.0 / (1.0 + math.exp(t))),
    "poisson": ("affine(-1,0)", lambda t: -t),
}


def log_mean(u: float, v: float) -> float:
    """Logarithmic mean (v - u)/(log v - log u) of two positive numbers."""
    return u if u == v else (v - u) / (math.log(v) - math.log(u))


# Witness alphas for alpha-only boxes [a1, a2] that are the same for every
# observation.  Each follows from the equalizer above: the minimax action
# is the Bayes action of one alpha whatever x is.
def witness_alpha_normal(a1: float, a2: float) -> float:
    # equalizer of (theta - delta)^2/2 is the midpoint of (x-l)/(a+1)
    return 2.0 / (1.0 / (a1 + 1.0) + 1.0 / (a2 + 1.0)) - 1.0


def witness_alpha_exponential(a1: float, a2: float) -> float:
    return (a1 + 1.0) * (a2 + 1.0) / log_mean(a1 + 1.0, a2 + 1.0) - 1.0


def witness_alpha_exponential_jcp(a1: float, a2: float) -> float:
    return a1 * a2 / log_mean(a1, a2)


def close(got: float, want: float, rel: float, floor: float = 0.0) -> bool:
    """|got - want| <= rel * max(floor, |want|), false for non-finite got."""
    return math.isfinite(got) and abs(got - want) <= rel * max(floor, abs(want))

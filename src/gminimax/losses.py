r"""Intrinsic (Kullback-Leibler) loss and posterior regret.

For the families in :mod:`gminimax.families` the KL divergence between
the models labelled ``theta`` and ``delta`` collapses to

    L(theta, delta) = log_norm(theta) - log_norm(delta)
                      + (delta - theta) * mean(theta),

which needs only the log normalizer and the mean function.  Where those
terms cancel (near the diagonal) the loss integrates ``(delta - s) * I(s)``
from theta to delta instead, with ``I`` the Fisher information: a sum of
positive terms.  The same arithmetic with a Bayes estimate in the first
slot gives the posterior regret of an arbitrary action, because the
linear-in-delta terms of the posterior risk cancel in the difference.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .errors import DomainError, SpecificationError
from .families import FamilySpec, fisher_info, require_in_support

__all__ = ["intrinsic_loss", "posterior_regret"]

ROUNDOFF = 4.0 * float(np.finfo(float).eps)  # closed-form slack per unit of its terms
RESOLUTION = 2.0 ** -38  # slack above this share of the value: 38 bits lost
_TINY = float(np.finfo(float).tiny)


@cache
def _kl_rule() -> tuple[np.ndarray, np.ndarray]:
    """16-point Gauss-Legendre nodes u on [0, 1] and weights for the
    integral of (1 - u) f(u), by Newton's method on P_16 (no LAPACK)."""
    x = np.cos(np.pi * (np.arange(16) + 0.75) / 16.5)
    for _ in range(6):
        p0, p1 = np.ones(16), x
        for k in range(2, 17):  # Bonnet's recursion up to P_15, P_16
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = 16.0 * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    return 0.5 * (1.0 + x), 0.5 / ((1.0 + x) * dp * dp)


def intrinsic_loss(fam: FamilySpec, theta, delta):
    """KL divergence from the model at ``theta`` to the model at ``delta``.

    Vectorized in both arguments.  Nonnegative, zero exactly on the
    diagonal, and strictly convex in ``delta`` for fixed ``theta``.
    Where the closed form cancels, a 16-point Gauss-Legendre rule gives
    ``h^2 * integral_0^1 (1 - u) I(theta + h*u) du``, ``h = delta - theta``;
    where ``I`` underflows to 0 there, a DomainError says so.
    """
    require_in_support(fam, theta)
    require_in_support(fam, delta, what="delta")
    if isinstance(theta, float) and isinstance(delta, float):
        # Errors and near-diagonal pairs fall through to the array path.
        th, de = float(theta), float(delta)
        with np.errstate(all="ignore"):
            psi_th, psi_de = float(fam.log_norm(th)), float(fam.log_norm(de))
            lin = (de - th) * float(fam.mean(th))
        val = psi_th - psi_de + lin
        slack = ROUNDOFF * (abs(psi_th) + abs(psi_de) + abs(lin))
        if -slack <= val < math.inf and not slack > RESOLUTION * val:
            return val
    th = np.asarray(theta, dtype=float)
    de = np.asarray(delta, dtype=float)
    with np.errstate(all="ignore"):
        psi_th = np.asarray(fam.log_norm(th))
        psi_de = np.asarray(fam.log_norm(de))
        dh = de - th
        lin = dh * np.asarray(fam.mean(th))
        val = psi_th - psi_de + lin
        # Round-off bound of the sum; nan and +-inf fail the test too.
        slack = ROUNDOFF * (abs(psi_th) + abs(psi_de) + abs(lin))
        ok = (val >= -slack) & (val < np.inf)
        if not ok.all():  # name the first offending pair
            finite = np.isfinite(val)
            i = int(np.argmax(~finite if not finite.all() else ~ok))
            t, d = (float(np.broadcast_to(a, val.shape).flat[i]) for a in (th, de))
            if not finite.all():
                raise DomainError(f"intrinsic loss for {fam.name} at theta={t!r}, "
                                  f"delta={d!r} overflows the float range")
            raise DomainError(
                f"negative intrinsic loss for {fam.name} at theta={t!r}, "
                f"delta={d!r}: the mean function is inconsistent with log_norm, "
                "or log_norm loses precision there")
        near = slack > RESOLUTION * val
        if near.any():
            near &= dh != 0  # a zero-width integral is the closed form's 0
            (u, w), val, h = _kl_rule(), np.array(val), dh[near]
            th_near = np.broadcast_to(th, dh.shape)[near]
            nodes = th_near[:, None] + h[:, None] * u
            try:
                info = fisher_info(fam, nodes)
            except SpecificationError:
                _refuse_underflow(fam, th_near, np.broadcast_to(de, dh.shape)[near],
                                  nodes)
                raise
            val[near] = h * h * (info @ w)
    if np.ndim(val) == 0:
        return float(val)
    return val


def _refuse_underflow(fam: FamilySpec, theta, delta, nodes) -> None:
    """Raise DomainError for the first pair whose Fisher information is 0
    at a node while the mean moves between theta and delta by less than
    the smallest normal float times their distance: the information
    underflowed there, and the family is not at fault."""
    moved = np.abs(np.asarray(fam.mean(delta)) - np.asarray(fam.mean(theta)))
    lost = ((fam.mean_deriv(nodes) == 0.0).any(axis=1) & (moved > 0.0)
            & (moved < _TINY * np.abs(delta - theta)))
    if lost.any():
        i = int(np.argmax(lost))
        raise DomainError(
            f"the intrinsic loss of {fam.name} at theta={float(theta[i])!r}, "
            f"delta={float(delta[i])!r} is below what the closed form resolves, "
            "and the Fisher information that would resolve it underflows to 0 "
            "between them") from None


def posterior_regret(fam: FamilySpec, bayes_delta, delta):
    """Extra posterior risk of ``delta`` over the Bayes action.

    Subtracting the risks kills every expectation except those pinned at
    the Bayes action, leaving intrinsic_loss with the Bayes estimate in
    the theta slot:

        regret(b, d) = log_norm(b) - log_norm(d) + (d - b) * mean(b).

    Nonnegative for any delta, zero iff delta equals the Bayes action.
    """
    return intrinsic_loss(fam, bayes_delta, delta)

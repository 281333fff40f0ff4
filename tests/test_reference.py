"""The loss and the equalizer against a high-precision decimal reference.

Bounds and loss arguments are drawn from seeded generators over relative
widths from 1e-14 to 1e2, so narrow bounds, where closed forms cancel,
get as much weight as wide ones.
"""

import math
import random

import pytest

import decimal_reference as ref
from gminimax import (
    GMinimaxError,
    builtin_family,
    intrinsic_loss,
    prgm_conjugate_box,
    prgm_from_bounds,
    prior_box,
)

N_PAIRS = 1000
DEGENERATE_REL_WIDTH = 1e-10


def draw_theta(rng, name):
    if name == "normal":
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 4.0)
    if name == "exponential":
        return 10.0 ** rng.uniform(-6.0, 6.0)
    return rng.uniform(-20.0, 20.0)


def away(rng, name, theta, rel):
    """A second argument at relative distance ``rel`` from theta; the
    binomial and poisson ones stay inside [-20, 20]."""
    if name == "exponential":
        return theta * (1.0 + rel) if rng.random() < 0.5 else theta / (1.0 + rel)
    other = theta + rng.choice((-1.0, 1.0)) * rel * max(1.0, abs(theta))
    return other if name == "normal" else min(max(other, -20.0), 20.0)


@pytest.mark.parametrize("name", list(ref.FORMULAS))
def test_equalizer_matches_the_reference(name):
    fam = builtin_family(name)
    rng = random.Random(f"equalizer {name}")
    checked = 0
    for _ in range(N_PAIRS):
        theta = draw_theta(rng, name)
        other = away(rng, name, theta, 10.0 ** rng.uniform(-14.0, 2.0))
        lo, hi = min(theta, other), max(theta, other)
        got = prgm_from_bounds(fam, lo, hi).estimate
        assert lo <= got <= hi
        if hi - lo < DEGENERATE_REL_WIDTH * max(1.0, abs(lo), abs(hi)):
            assert got == 0.5 * (lo + hi)  # collapsed bounds: the midpoint
            continue
        want = ref.equalizer(name, lo, hi)
        assert abs(got - want) <= max(4 * math.ulp(want), 1e-12 * (hi - lo)), (
            lo, hi, got, want)
        checked += 1
    assert checked >= N_PAIRS // 2


@pytest.mark.parametrize("name", list(ref.FORMULAS))
def test_loss_matches_the_reference(name):
    fam = builtin_family(name)
    rng = random.Random(f"loss {name}")
    for _ in range(N_PAIRS):
        theta = draw_theta(rng, name)
        delta = away(rng, name, theta, 10.0 ** rng.uniform(-14.0, 1.0))
        got, want = intrinsic_loss(fam, theta, delta), ref.loss(name, theta, delta)
        assert abs(got - want) <= 1e-12 * want, (theta, delta, got, want)


@pytest.mark.parametrize("name", ["binomial_logit(5)", "poisson"])
def test_far_arguments_answer_or_raise(name):
    # Beyond [-20, 20] the mean of these families overflows or underflows
    # somewhere; every call still returns a finite value or says why not.
    fam = builtin_family(name)
    rng = random.Random(f"far {name}")
    for _ in range(300):
        theta = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(1.0, 3.5)
        other = theta + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, 3.0)
        lo, hi = min(theta, other), max(theta, other)
        for call in (lambda: intrinsic_loss(fam, theta, other),
                     lambda: prgm_from_bounds(fam, lo, hi).estimate):
            try:
                assert math.isfinite(call())
            except GMinimaxError:
                pass


class TestNarrowCases:
    """Narrow cases where the closed forms of the mean difference and of
    the loss cancel."""

    def test_exponential_bounds(self, exponential):
        got = prgm_from_bounds(exponential, 1.0, 1.0 + 1e-9).estimate
        assert abs(got - ref.equalizer("exponential", 1.0, 1.0 + 1e-9)) <= math.ulp(got)

    def test_exponential_box(self, exponential):
        box = prior_box(exponential, 1.0, 1.0000001, 1.0, 1.0)
        rep = prgm_conjugate_box(exponential, box, 2.0)
        want = ref.equalizer("exponential", rep.delta_lo, rep.delta_hi)
        assert abs(rep.estimate - want) <= math.ulp(want)

    def test_poisson_bounds_answer(self):
        lo, hi = -19.501386503486234, -19.501218031703168
        got = prgm_from_bounds(builtin_family("poisson"), lo, hi).estimate
        assert abs(got - ref.equalizer("poisson", lo, hi)) <= math.ulp(got)

    def test_exponential_loss(self, exponential):
        delta = 100.0 * (1.0 + 1e-7)
        got = intrinsic_loss(exponential, 100.0, delta)
        assert abs(got - ref.loss("exponential", 100.0, delta)) <= math.ulp(got)

    @pytest.mark.parametrize("name,theta", [
        ("normal", 1e4), ("exponential", 2.0), ("binomial_logit(5)", -1.1),
        ("poisson", 3.0),
    ])
    def test_loss_is_positive_next_to_the_diagonal(self, name, theta):
        delta = theta + 1e-8
        got = intrinsic_loss(builtin_family(name), theta, delta)
        assert 0.0 < got
        assert abs(got - ref.loss(name, theta, delta)) <= 1e-12 * got

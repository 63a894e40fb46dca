"""Seeded random source used by every stochastic component.

All randomness flows through one ``RandomSource`` per run, so an identical
seed reproduces the exact draw sequence and therefore a bit-identical
trajectory. Draws are made in a fixed, documented order by the callers;
nothing here depends on global state.
"""

import math

import numpy as np


def cumulative_wheels(weights):
    """Cumulative table of one roulette wheel, or of several along the last axis.

    Every weight must be finite and non-negative, and every wheel's total
    positive and finite; the check is made here, once per table, so that
    ``RandomSource.spin`` can spin a row as often as needed unchecked.
    """
    weights = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(weights) & (weights >= 0.0)):
        raise ValueError("wheel weights must be finite and non-negative")
    with np.errstate(over="ignore"):  # an overflowed total is rejected below
        cum = np.cumsum(weights, axis=-1)
    total = cum[..., -1]
    if not np.all((0.0 < total) & (total < math.inf)):
        raise ValueError("a wheel's weights must have a positive, finite total")
    return cum


class RandomSource:
    """Thin wrapper over ``numpy.random.Generator`` (PCG64).

    Provides exactly the draw kinds the optimizers need: uniforms on (0, 1],
    standard Gaussian and Cauchy vectors, uniform integers, subset selection
    and roulette-wheel selection over a discrete pmf.
    """

    def __init__(self, seed):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, size=None):
        """Uniform draws in [0, 1)."""
        return self._gen.random(size)

    def uniform_open(self, size=None):
        """Uniform draws in (0, 1]: zero is excluded, one is attainable."""
        return 1.0 - self._gen.random(size)

    def normal(self, size=None, out=None):
        """Standard Gaussian draws, written into the float array ``out`` when given.

        Filling ``out`` draws the same doubles as ``normal(out.size)``.
        """
        return self._gen.standard_normal(size, out=out)

    def cauchy(self, size=None):
        """Standard Cauchy draws."""
        return self._gen.standard_cauchy(size)

    def integer(self, low, high):
        """One uniform integer in [low, high)."""
        return int(self._gen.integers(low, high))

    def choice_without_replacement(self, n, k):
        """k distinct integers drawn uniformly from range(n)."""
        return self._gen.choice(n, size=k, replace=False)

    def roulette(self, pmf, size=None):
        """Roulette-wheel selection: index i with probability pmf[i] / sum(pmf).

        ``pmf`` must be finite and non-negative with a positive total (see
        ``cumulative_wheels``); its cumulative wheel is spun with one uniform
        per draw.
        """
        return self.spin(cumulative_wheels(pmf), size)

    def spin(self, cum, size=None):
        """Spin a cumulative wheel from ``cumulative_wheels``, unchecked.

        One uniform per draw, scaled by the wheel's own total ``cum[-1]``,
        selects the first index whose cumulative weight exceeds it.
        """
        u = self._gen.random(size) * cum[-1]
        idx = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
        return int(idx) if size is None else idx

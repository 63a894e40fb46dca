"""Seeded random source used by every stochastic component.

All randomness flows through one ``RandomSource`` per run, so an identical
seed reproduces the exact draw sequence and therefore a bit-identical
trajectory. Draws are made in a fixed, documented order by the callers;
nothing here depends on global state.
"""

import numpy as np


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

    def normal(self, size=None):
        """Standard Gaussian draws."""
        return self._gen.standard_normal(size)

    def cauchy(self, size=None):
        """Standard Cauchy draws."""
        return self._gen.standard_cauchy(size)

    def integer(self, low, high):
        """One uniform integer in [low, high)."""
        return int(self._gen.integers(low, high))

    def choice_without_replacement(self, candidates, k):
        """k distinct elements drawn uniformly from ``candidates``."""
        return self._gen.choice(np.asarray(candidates), size=k, replace=False)

    def roulette(self, pmf, size=None):
        """Roulette-wheel selection: index i with probability pmf[i].

        ``pmf`` must be non-negative and sum to ~1; a cumulative-sum wheel is
        spun with one uniform per draw.
        """
        cum = np.cumsum(np.asarray(pmf, dtype=float))
        if cum[-1] <= 0.0:
            raise ValueError("pmf must have positive total mass")
        u = self._gen.random(size) * cum[-1]
        idx = np.searchsorted(cum, u, side="right")
        idx = np.minimum(idx, len(cum) - 1)
        return int(idx) if size is None else idx

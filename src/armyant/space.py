"""Box-bounded search spaces and boundary handling."""

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SearchSpace:
    """A D-dimensional axis-aligned box.

    Coordinates that leave the box are clamped onto the nearest bound.
    """

    lower: np.ndarray
    upper: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ValueError("lower and upper must be 1-D arrays of equal length")
        if self.lower.size == 0:
            raise ValueError("search space must have at least one dimension")
        if not np.all(np.isfinite(self.lower)) or not np.all(np.isfinite(self.upper)):
            raise ValueError("bounds must be finite")
        if np.any(self.lower >= self.upper):
            raise ValueError("each lower bound must be strictly below its upper bound")
        self.dim = int(self.lower.size)

    @classmethod
    def cube(cls, dim, low, high):
        """Same (low, high) interval in every dimension."""
        return cls(np.full(dim, float(low)), np.full(dim, float(high)))

    @property
    def width(self):
        return self.upper - self.lower

    def apply_bounds(self, x):
        """Return a copy of ``x`` clamped into the box.

        A coordinate equal to a bound up to the sign of zero takes the
        bound's bits. ``np.maximum``/``np.minimum`` resolve that tie the
        same way for every array shape; ``np.clip`` does not.
        """
        return np.minimum(np.maximum(np.asarray(x, dtype=float), self.lower), self.upper)

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    def sample_uniform(self, rng, n=None):
        """Uniform points in the box; shape (dim,) or (n, dim)."""
        shape = (self.dim,) if n is None else (n, self.dim)
        u = rng.uniform(shape)
        return self.lower + u * self.width

"""Classic benchmark objectives, each with optimum value 0 at a known position.

Each function maps an ``(n, D)`` block of points to the ``(n,)`` vector of
their values, one row per point, reducing over the last axis. On a
C-contiguous block every row reduces exactly as the same row on its own
does, so a block's values equal the per-point values to the bit.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .space import SearchSpace

# Interior optimum of the schwefel sine term, refined so that evaluating the
# optimum position reproduces the additive offset to double precision.
_SCHWEFEL_X = 420.968746359982
_SCHWEFEL_OFFSET = _SCHWEFEL_X * math.sin(math.sqrt(_SCHWEFEL_X))


def sphere(x):
    return np.add.reduce(x * x, axis=-1)


def rosenbrock(x):
    head, tail = x[..., :-1], x[..., 1:]
    return np.add.reduce(100.0 * (tail - head**2) ** 2 + (1.0 - head) ** 2, axis=-1)


def rastrigin(x):
    return 10.0 * x.shape[-1] + np.add.reduce(x * x - 10.0 * np.cos(2.0 * np.pi * x), axis=-1)


def ackley(x):
    d = x.shape[-1]
    return (
        -20.0 * np.exp(-0.2 * np.sqrt(np.add.reduce(x * x, axis=-1) / d))
        - np.exp(np.add.reduce(np.cos(2.0 * np.pi * x), axis=-1) / d)
        + 20.0
        + math.e
    )


def griewank(x):
    i = np.arange(1, x.shape[-1] + 1)
    product = np.multiply.reduce(np.cos(x / np.sqrt(i)), axis=-1)
    return np.add.reduce(x * x, axis=-1) / 4000.0 - product + 1.0


def schwefel(x):
    return _SCHWEFEL_OFFSET * x.shape[-1] - np.add.reduce(x * np.sin(np.sqrt(np.abs(x))), axis=-1)


@dataclass
class BenchmarkFunction:
    name: str
    dim: int
    box: SearchSpace
    optimum_position: np.ndarray
    func: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x):
        """Values of an ``(n, D)`` block as an ``(n,)`` array; one point gives a float."""
        # C order: the row reductions of a strided block can visit the
        # elements in another order and round differently
        x = np.ascontiguousarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise ValueError(f"{self.name} has dimension {self.dim}; got points of shape {x.shape}")
        values = self.func(x)
        return float(values) if x.ndim == 1 else values


_CATALOG = {
    "sphere": (sphere, 100.0, 0.0),
    "rosenbrock": (rosenbrock, 30.0, 1.0),
    "rastrigin": (rastrigin, 5.12, 0.0),
    "ackley": (ackley, 32.768, 0.0),
    "griewank": (griewank, 600.0, 0.0),
    "schwefel": (schwefel, 500.0, _SCHWEFEL_X),
}

FUNCTION_NAMES = tuple(_CATALOG)


def get_benchmark(name, dim):
    """Benchmark by name on its standard symmetric box; optimum value is 0."""
    try:
        func, half_range, opt_coord = _CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown benchmark function {name!r}") from None
    return BenchmarkFunction(
        name=name,
        dim=dim,
        box=SearchSpace.cube(dim, -half_range, half_range),
        optimum_position=np.full(dim, float(opt_coord)),
        func=func,
    )

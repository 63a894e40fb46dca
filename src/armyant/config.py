"""Experiment configuration: line-oriented ``key = value`` files."""

import math
from dataclasses import dataclass

from .benchmarks import FUNCTION_NAMES

# the algorithms each experiment kind runs, also its default selection
ALGORITHMS = {"cover": ("aaso", "vfa", "pso"), "bench": ("aaso", "pso", "random")}


@dataclass
class ExperimentSpec:
    """Validated experiment description with table-default fallbacks."""

    kind: str = "cover"
    area_length_m: float = 500.0
    area_width_m: float = 500.0
    grid_interval_m: float = 5.0
    node_count: int = 110
    deployment_path: str | None = None
    radius_m: float = 60.0
    view_angle_deg: float = 90.0
    algorithms: tuple | None = None  # None: ALGORITHMS[kind]
    population: int = 50
    iterations: int = 100
    recruit_init: float | None = None
    attack_coeff: float = 2.0
    stagnation: int = 5
    seeds: tuple = (1,)
    output_dir: str = "out"
    # bench-only knobs
    functions: tuple = FUNCTION_NAMES
    dimension: int = 30
    runs: int = 50
    base_seed: int = 1

    def validate(self):
        if self.kind not in ALGORITHMS:
            raise ValueError(f"kind must be {' or '.join(ALGORITHMS)}, got {self.kind!r}")
        if self.algorithms is None:
            self.algorithms = ALGORITHMS[self.kind]
        if not (0 < self.area_length_m < math.inf and 0 < self.area_width_m < math.inf):
            raise ValueError("monitoring area dimensions must be positive and finite")
        if not 0 < self.grid_interval_m < math.inf:
            raise ValueError("grid_interval_m must be positive and finite")
        if self.node_count < 1:
            raise ValueError("node_count must be at least 1")
        if not 0 < self.radius_m < math.inf:
            raise ValueError("radius_m must be positive and finite")
        if not 0 < self.view_angle_deg <= 360:
            raise ValueError("view_angle_deg must lie in (0, 360]")
        if self.population < 4:
            raise ValueError("population must be at least 4")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if not 0 < self.attack_coeff < math.inf:
            raise ValueError("attack_coeff must be positive and finite")
        if self.recruit_init is not None and not 0 < self.recruit_init <= self.population:
            raise ValueError("recruit_init must lie in (0, population]")
        if self.stagnation < 1:
            raise ValueError("stagnation must be at least 1")
        if not self.seeds:
            raise ValueError("need at least one seed")
        allowed = ALGORITHMS[self.kind]
        if not self.algorithms:
            raise ValueError("need at least one algorithm")
        for a in self.algorithms:
            if a not in allowed:
                raise ValueError(
                    f"algorithm {a!r} not valid for kind {self.kind!r} "
                    f"(allowed: {', '.join(allowed)})"
                )
        if self.kind == "bench":
            for f_name in self.functions:
                if f_name not in FUNCTION_NAMES:
                    raise ValueError(f"unknown benchmark function {f_name!r}")
            if self.dimension < 1:
                raise ValueError("dimension must be at least 1")
            if self.runs < 2:
                raise ValueError("runs must be at least 2")
        return self


def parse_seed_list(text):
    """Seed syntax: ``1..10`` for a range or ``1,2,5`` for a list."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty seed range {text!r}")
        return tuple(range(lo, hi + 1))
    return tuple(int(part) for part in text.split(","))


def _parse_list(text):
    return tuple(part.strip() for part in text.split(",") if part.strip())


_PARSERS = {
    "kind": str,
    "area_length_m": float,
    "area_width_m": float,
    "grid_interval_m": float,
    "node_count": int,
    "deployment_path": str,
    "radius_m": float,
    "view_angle_deg": float,
    "algorithms": _parse_list,
    "population": int,
    "iterations": int,
    "recruit_init": float,
    "attack_coeff": float,
    "stagnation": int,
    "seeds": parse_seed_list,
    "output_dir": str,
    "functions": _parse_list,
    "dimension": int,
    "runs": int,
    "base_seed": int,
}


def parse_config(path):
    """Parse and validate a config file; missing keys take the defaults."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, raw_value = line.partition("=")
            key = key.strip()
            raw_value = raw_value.strip()
            if key not in _PARSERS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                values[key] = _PARSERS[key](raw_value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    try:
        return ExperimentSpec(**values).validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

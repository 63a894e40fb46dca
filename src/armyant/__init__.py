"""Army ant search optimization with a directional-sensor coverage simulator."""

__version__ = "0.1.0"

from .baselines import pso_run, random_search_run
from .benchmarks import BenchmarkFunction, get_benchmark
from .coverage import (
    CoverageEvaluator,
    CoverageField,
    CoverageResult,
    Sensor,
    coverage,
    expected_initial_coverage,
    random_deployment,
    required_nodes,
)
from .enhance import EnhancementRun, enhance_aaso, enhance_pso, enhance_vfa
from .harness import RunStatistics, compare, compare_cover
from .optimizer import OptimizerConfig, RunResult, rowwise, run
from .rng import RandomSource
from .space import SearchSpace

__all__ = [
    "BenchmarkFunction",
    "CoverageEvaluator",
    "CoverageField",
    "CoverageResult",
    "EnhancementRun",
    "OptimizerConfig",
    "RandomSource",
    "RunResult",
    "RunStatistics",
    "SearchSpace",
    "Sensor",
    "compare",
    "compare_cover",
    "coverage",
    "enhance_aaso",
    "enhance_pso",
    "enhance_vfa",
    "expected_initial_coverage",
    "get_benchmark",
    "pso_run",
    "random_deployment",
    "random_search_run",
    "required_nodes",
    "rowwise",
    "run",
]

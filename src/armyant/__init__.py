"""Army ant search optimization with a directional-sensor coverage simulator."""

__version__ = "0.1.0"

from .baselines import PSOParams, pso_run, random_search_run
from .benchmarks import BenchmarkFunction, eval_benchmark, get_benchmark
from .coverage import (
    CoverageEvaluator,
    CoverageField,
    CoverageResult,
    DeploymentScheme,
    Sensor,
    coverage,
    expected_initial_coverage,
    random_deployment,
    required_nodes,
)
from .enhance import EnhancementRun, VFAParams, enhance_aaso, enhance_pso, enhance_vfa
from .harness import RunStatistics, compare
from .optimizer import Ant, OptimizerConfig, PreyArchive, RunResult, run
from .rng import RandomSource
from .space import SearchSpace

__all__ = [
    "Ant",
    "BenchmarkFunction",
    "CoverageEvaluator",
    "CoverageField",
    "CoverageResult",
    "DeploymentScheme",
    "EnhancementRun",
    "OptimizerConfig",
    "PreyArchive",
    "PSOParams",
    "RandomSource",
    "RunResult",
    "RunStatistics",
    "SearchSpace",
    "Sensor",
    "VFAParams",
    "compare",
    "coverage",
    "enhance_aaso",
    "enhance_pso",
    "enhance_vfa",
    "eval_benchmark",
    "expected_initial_coverage",
    "get_benchmark",
    "pso_run",
    "random_deployment",
    "random_search_run",
    "required_nodes",
    "run",
]

"""Transformation-based instance generation for bi-objective benchmarks.

Builds Beta-CDF warped and sphered-rotated instances of ZDT/DTLZ/MMF
problems, runs standard multi-objective evolutionary algorithms on them, and
aggregates hypervolume-based analyses into plot-ready tables.
"""

__version__ = "0.3.0"

from .algorithms import AlgoConfig, RunResult, run_algorithm
from .indicators import (
    NormalizationBox,
    ParetoArchive,
    compute_normalization,
    density_change,
    hypervolume_2d,
    normalized_hv,
    relative_hv,
    wasserstein_1d,
)
from .instance import ProblemInstance, evaluate_instance_batch
from .problems import ProblemId, evaluate, list_problems, native_bounds
from .specfun import ShapeParams, inv_reg_inc_beta, reg_inc_beta
from .transforms import (
    RotationMatrix,
    TransformSpec,
    apply_forward,
    apply_inverse,
    random_rotation,
    rotation_matrix_2d,
)

__all__ = [
    "__version__",
    "AlgoConfig",
    "RunResult",
    "run_algorithm",
    "NormalizationBox",
    "ParetoArchive",
    "compute_normalization",
    "density_change",
    "hypervolume_2d",
    "normalized_hv",
    "relative_hv",
    "wasserstein_1d",
    "ProblemInstance",
    "evaluate_instance_batch",
    "ProblemId",
    "evaluate",
    "list_problems",
    "native_bounds",
    "ShapeParams",
    "inv_reg_inc_beta",
    "reg_inc_beta",
    "RotationMatrix",
    "TransformSpec",
    "apply_forward",
    "apply_inverse",
    "random_rotation",
    "rotation_matrix_2d",
]

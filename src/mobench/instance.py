"""Composition of a base problem with search- and objective-space transforms.

An instance evaluates a point the algorithm proposes (x_seen) by warping it
into the base problem's unit cube, evaluating there, and optionally warping
the objective values the algorithm gets to see. Both the warped and the
original objectives are recorded; all indicator computation downstream uses
the original ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericError, ParameterError
from .problems import ProblemId, batch_kernel, row_kernel
from .specfun import check_unit, inv_reg_inc_beta, reg_inc_beta
from .transforms import (
    _ROW_MAX_DIM,
    BETA_CDF,
    IDENTITY,
    SPHERED_ROTATION,
    TransformSpec,
    transform_batch,
    transform_row,
)

__all__ = [
    "ProblemInstance",
    "evaluate_instance_batch",
    "warp_objectives",
    "unwarp_objectives",
]


@dataclass(frozen=True)
class ProblemInstance:
    """A base problem plus one transform per space, evaluable on [0,1]^d."""

    problem: ProblemId
    search_t: TransformSpec
    objective_t: TransformSpec
    _kernel: object = field(init=False, compare=False, repr=False)  # batch_kernel(problem)
    _row_kernel: object = field(init=False, compare=False, repr=False)  # row_kernel(problem)

    def __post_init__(self):
        object.__setattr__(self, "_kernel", batch_kernel(self.problem))
        object.__setattr__(self, "_row_kernel", row_kernel(self.problem))
        if self.objective_t.kind not in (IDENTITY, BETA_CDF):
            raise ParameterError(
                f"objective transform must be identity or beta_cdf, got {self.objective_t.kind}"
            )
        if (
            self.search_t.kind == SPHERED_ROTATION
            and self.search_t.rotation.dim != self.problem.dim
        ):
            raise DimensionError(
                f"search rotation dim {self.search_t.rotation.dim} does not match "
                f"problem dim {self.problem.dim}"
            )

    @property
    def descriptor(self) -> str:
        return f"{self.problem}__s:{self.search_t.descriptor()}__o:{self.objective_t.descriptor()}"


def _warp_rows(t: TransformSpec, f: np.ndarray, inverse: bool) -> np.ndarray:
    """Apply the Beta CDF, or its inverse, to the components of the (n, 2)
    objective rows f that lie in [0, 1]; other components pass through.

    The warp runs on the whole block, with 0 in place of each outside
    component; a component's result depends on its value alone.
    """
    if not np.isfinite(f).all():
        raise NumericError("objective values must be finite")
    if t.kind == IDENTITY:
        return f
    if t.kind != BETA_CDF:
        raise ParameterError(f"objective transform must be identity or beta_cdf, got {t.kind}")
    warp = inv_reg_inc_beta if inverse else reg_inc_beta
    inside = (f >= 0.0) & (f <= 1.0)
    return np.where(inside, warp(np.where(inside, f, 0.0), t.shape), f)


def warp_objectives(t: TransformSpec, f) -> tuple[float, float]:
    """Warp an objective pair through a Beta CDF on the unit region.

    Components inside [0, 1] pass through the CDF; components outside pass
    through unchanged, which keeps the map continuous (the CDF fixes 0 and 1)
    and strictly increasing, so dominance relations are preserved.
    """
    a, b = _warp_rows(t, np.array([f], dtype=float), inverse=False)[0].tolist()
    return a, b


def unwarp_objectives(t: TransformSpec, f_seen) -> tuple[float, float]:
    """Invert warp_objectives (percent point function on the unit region)."""
    a, b = _warp_rows(t, np.array([f_seen], dtype=float), inverse=True)[0].tolist()
    return a, b


def _evaluate_row(inst: ProblemInstance, x: list[float]):
    """evaluate_instance_batch of the one-row batch [x] on Python floats, or
    None when the row must raise: a coordinate outside [0, 1] or NaN, or an
    objective that is not finite. The array route then raises the error."""
    for t in x:
        if not 0.0 <= t <= 1.0:  # false for NaN too
            return None
    f_orig = inst._row_kernel(transform_row(inst.search_t, x))
    f1, f2 = f_orig
    if not (math.isfinite(f1) and math.isfinite(f2)):
        return None
    shape = inst.objective_t.shape
    if shape is None:  # the identity
        f_seen = f_orig
    else:
        f_seen = [reg_inc_beta(v, shape) if 0.0 <= v <= 1.0 else v for v in f_orig]
    return np.array([f_seen]), np.array([f_orig])


def evaluate_instance_batch(inst: ProblemInstance, x_seen) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a batch of algorithm-space points.

    A batch of one row of at most transforms._ROW_MAX_DIM coordinates runs
    on Python floats (_evaluate_row), any other on numpy arrays; both give
    the same bits and raise the same errors.

    Args:
        inst: The composed instance.
        x_seen: Points of shape (n, d) in [0,1]^d as proposed by the algorithm.

    Returns:
        (f_seen, f_orig), each of shape (n, 2): the objectives the algorithm
        sees and the original ones.
    """
    pts = np.asarray(x_seen, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != inst.problem.dim:
        raise DimensionError(f"expected a (n, {inst.problem.dim}) batch, got shape {pts.shape}")
    if len(pts) == 1 and pts.shape[1] <= _ROW_MAX_DIM:
        out = _evaluate_row(inst, pts[0].tolist())
        if out is not None:
            return out
    if inst.search_t.kind != BETA_CDF:
        check_unit(pts)  # a Beta-CDF search warp checks pts in reg_inc_beta
    inner = transform_batch(inst.search_t, pts, inverse=False)
    f_orig = inst._kernel(inner)
    return _warp_rows(inst.objective_t, f_orig, inverse=False), f_orig

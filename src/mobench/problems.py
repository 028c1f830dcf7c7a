"""Bi-objective benchmark problems exposed uniformly on the unit cube.

Suites: ZDT (1,2,3,4,6), DTLZ (1-7, two objectives, k = d-1 distance
variables), and six 2-D problems from the CEC'19 multimodal multiobjective
collection (MMF). Evaluation maps unit-cube points affinely onto each
problem's native box before applying the published formula; both objectives
are minimized. Each formula is written once, over values: the columns of an
(n, d) batch for batch_kernel, one point's Python floats for row_kernel,
which gives the same bits on a point of at most 8 coordinates without
numpy's per-call cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace

import numpy as np

from .errors import DimensionError, UnknownProblemError
from .specfun import _libm, _pow, check_unit

__all__ = [
    "ProblemId",
    "NativeBounds",
    "batch_kernel",
    "row_kernel",
    "evaluate",
    "native_bounds",
    "list_problems",
    "parse_problem_id",
]

_VALID_INDICES = {"zdt": (1, 2, 3, 4, 6), "dtlz": (1, 2, 3, 4, 5, 6, 7), "mmf": (1, 2, 4, 5, 7, 8)}
_VALID_DIMS = {"zdt": (2, 10), "dtlz": (2, 10), "mmf": (2,)}


@dataclass(frozen=True)
class ProblemId:
    suite: str
    index: int
    dim: int

    def __post_init__(self):
        if self.suite not in _VALID_INDICES:
            raise UnknownProblemError(f"unknown suite {self.suite!r}")
        if self.index not in _VALID_INDICES[self.suite]:
            raise UnknownProblemError(f"unknown problem {self.suite}{self.index}")
        if self.dim not in _VALID_DIMS[self.suite]:
            raise UnknownProblemError(
                f"{self.suite}{self.index} does not support dim {self.dim}"
            )

    def __str__(self) -> str:
        return f"{self.suite}{self.index}-d{self.dim}"


@dataclass(frozen=True)
class NativeBounds:
    lower: np.ndarray
    upper: np.ndarray


def parse_problem_id(text: str) -> ProblemId:
    """Parse ids of the form 'zdt1-d2', 'dtlz3-d10', 'mmf4-d2'."""
    try:
        name, dim_part = text.strip().lower().split("-d")
        dim = int(dim_part)
        for suite in _VALID_INDICES:
            if name.startswith(suite):
                return ProblemId(suite, int(name[len(suite):]), dim)
    except (ValueError, UnknownProblemError):
        pass
    raise UnknownProblemError(f"cannot parse problem id {text!r}")


def list_problems() -> list[ProblemId]:
    """All valid problems in stable (suite, index, dim) order."""
    out = []
    for suite, indices in _VALID_INDICES.items():
        for index in indices:
            for dim in _VALID_DIMS[suite]:
                out.append(ProblemId(suite, index, dim))
    return out


# --- formulas -----------------------------------------------------------
#
# Each formula is written once, over x: the native point as a sequence of d
# coordinates. The array route passes the (d, n) transpose of an (n, d)
# batch, so x[k] is a column; the row route passes one point's d Python
# floats. The operations that differ between the two come from ops: _ARRAY
# (numpy) or _ROW (the math module). Where a formula applies sin, cos, exp
# or pow to one value, both call that libm function per value (_libm on a
# batch): numpy's own sin, cos, exp and power round differently on some
# hosts, and the bits must not depend on it. DTLZ6's ** stays numpy's in
# both routes (_pow on a row). tail_sum adds fn(x[k]) over k >= 1: on
# a batch numpy's sum along each row, which adds fewer than 8 terms from
# left to right and more pairwise; on a row a running sum from the left, so
# the two routes give the same bits while the tail has fewer than 8 terms.


def _array_tail_sum(x: np.ndarray, fn=None) -> np.ndarray:
    tail = x.T[:, 1:]  # the batch's own (n, d - 1) tail, summed along its rows
    return (tail if fn is None else fn(tail)).sum(axis=1)


def _row_tail_sum(x: list, fn=None) -> float:
    terms = iter(x[1:] if fn is None else map(fn, x[1:]))
    total = next(terms)
    for t in terms:
        total += t
    return total


_ARRAY = SimpleNamespace(
    sqrt=np.sqrt, sin=partial(_libm, math.sin), cos=partial(_libm, math.cos),
    exp=partial(_libm, math.exp), pow=partial(_libm, math.pow), numpy_pow=np.power,
    where=np.where, abs=np.abs, maximum=np.maximum, tail_sum=_array_tail_sum,
)
_ROW = SimpleNamespace(
    sqrt=math.sqrt, sin=math.sin, cos=math.cos, exp=math.exp, pow=math.pow,
    numpy_pow=lambda v, exponent: _pow([v], exponent)[0],
    where=lambda cond, a, b: a if cond else b,
    abs=abs,
    maximum=lambda a, b: a if a > b or a != a else b,  # np.maximum, signed zeros included
    tail_sum=_row_tail_sum,
)


# --- ZDT ---------------------------------------------------------------


def _zdt_g(ops, x):
    return 1.0 + 9.0 * ops.tail_sum(x) / (len(x) - 1)


def _zdt1(ops, x):
    f1, g = x[0], _zdt_g(ops, x)
    return f1, g * (1.0 - ops.sqrt(f1 / g))


def _zdt2(ops, x):
    f1, g = x[0], _zdt_g(ops, x)
    return f1, g * (1.0 - ops.pow(f1 / g, 2.0))


def _zdt3(ops, x):
    f1, g = x[0], _zdt_g(ops, x)
    r = f1 / g
    return f1, g * (1.0 - ops.sqrt(r) - r * ops.sin(10.0 * math.pi * f1))


def _zdt4(ops, x):
    f1 = x[0]
    g = 1.0 + 10.0 * (len(x) - 1) + ops.tail_sum(
        x, lambda t: t * t - 10.0 * ops.cos(4.0 * math.pi * t)
    )
    return f1, g * (1.0 - ops.sqrt(f1 / g))


def _zdt6(ops, x):
    x0 = x[0]
    s6 = ops.pow(ops.sin(6.0 * math.pi * x0), 6.0)
    f1 = 1.0 - ops.exp(-4.0 * x0) * s6
    g = 1.0 + 9.0 * ops.pow(ops.tail_sum(x) / (len(x) - 1), 0.25)
    return f1, g * (1.0 - ops.pow(f1 / g, 2.0))


# --- DTLZ with two objectives (k = d - 1 distance variables) -------------


def _dtlz_g1(ops, x):
    g = ops.tail_sum(x, lambda t: (t - 0.5) * (t - 0.5) - ops.cos(20.0 * math.pi * (t - 0.5)))
    return 100.0 * (len(x) - 1 + g)


def _dtlz_g2(ops, x):
    return ops.tail_sum(x, lambda t: (t - 0.5) * (t - 0.5))


def _dtlz1(ops, x):
    h = 1.0 + _dtlz_g1(ops, x)
    return 0.5 * x[0] * h, 0.5 * (1.0 - x[0]) * h


def _dtlz_arc(ops, g, angle):
    h = 1.0 + g
    return h * ops.cos(angle), h * ops.sin(angle)


def _dtlz2(ops, x):
    return _dtlz_arc(ops, _dtlz_g2(ops, x), 0.5 * math.pi * x[0])


def _dtlz3(ops, x):
    return _dtlz_arc(ops, _dtlz_g1(ops, x), 0.5 * math.pi * x[0])


def _dtlz4(ops, x, alpha=100.0):
    return _dtlz_arc(ops, _dtlz_g2(ops, x), 0.5 * math.pi * ops.pow(x[0], alpha))


def _dtlz6(ops, x):
    g = ops.tail_sum(x, lambda t: ops.numpy_pow(t, 0.1))
    return _dtlz_arc(ops, g, 0.5 * math.pi * x[0])


def _dtlz7(ops, x):
    g = 1.0 + 9.0 * (ops.tail_sum(x) / (len(x) - 1))  # the tail's mean, as numpy's mean divides
    f1 = x[0]
    h = 2.0 - f1 / (1.0 + g) * (1.0 + ops.sin(3.0 * math.pi * f1))
    return f1, (1.0 + g) * h


# --- MMF (CEC'19 multimodal multiobjective selection) ---------------------


def _mmf1(ops, x):
    f1 = ops.abs(x[0] - 2.0)
    s = ops.sin(6.0 * math.pi * f1 + math.pi)
    return f1, 1.0 - ops.sqrt(f1) + 2.0 * ops.pow(x[1] - s, 2.0)


def _mmf2(ops, x):
    f1, x2 = x[0], x[1]
    root = ops.sqrt(f1)
    y2 = ops.where(x2 < 1.0, x2 - root, x2 - 1.0 - root)
    return f1, 1.0 - root + 2.0 * (
        4.0 * y2 * y2 - 2.0 * ops.cos(20.0 * y2 * math.pi / math.sqrt(2.0)) + 2.0
    )


def _mmf4(ops, x):
    x1, x2 = x[0], x[1]
    f1 = ops.abs(x1)
    s = ops.sin(math.pi * f1)
    y2 = ops.where(x2 < 1.0, x2 - s, x2 - 1.0 - s)
    return f1, 1.0 - x1 * x1 + 2.0 * y2 * y2


def _mmf5(ops, x):
    f1, x2 = ops.abs(x[0] - 2.0), x[1]
    s = ops.sin(6.0 * math.pi * f1 + math.pi)
    y2 = ops.where(x2 < 1.0, x2 - s, x2 - 1.0 - s)
    return f1, 1.0 - ops.sqrt(f1) + 2.0 * y2 * y2


def _mmf7(ops, x):
    f1 = ops.abs(x[0] - 2.0)
    amp = 0.3 * f1 * f1 * ops.cos(24.0 * math.pi * f1 + 4.0 * math.pi) + 0.6 * f1
    s = ops.sin(6.0 * math.pi * f1 + math.pi)
    return f1, 1.0 - ops.sqrt(f1) + ops.pow(x[1] - amp * s, 2.0)


def _mmf8(ops, x):
    a, x2 = ops.abs(x[0]), x[1]
    s = ops.sin(a)
    base = s + a
    y2 = ops.where(x2 < 4.0, x2 - base, x2 - 4.0 - base)
    return s, ops.sqrt(ops.maximum(1.0 - s * s, 0.0)) + 2.0 * y2 * y2


_KERNELS = {
    ("zdt", 1): _zdt1, ("zdt", 2): _zdt2, ("zdt", 3): _zdt3, ("zdt", 4): _zdt4, ("zdt", 6): _zdt6,
    ("dtlz", 1): _dtlz1, ("dtlz", 2): _dtlz2, ("dtlz", 3): _dtlz3, ("dtlz", 4): _dtlz4,
    ("dtlz", 5): _dtlz2,  # with two objectives DTLZ5's theta map leaves the angle as it is
    ("dtlz", 6): _dtlz6, ("dtlz", 7): _dtlz7,
    ("mmf", 1): _mmf1, ("mmf", 2): _mmf2, ("mmf", 4): _mmf4, ("mmf", 5): _mmf5, ("mmf", 7): _mmf7,
    ("mmf", 8): _mmf8,
}

_MMF_BOUNDS = {
    1: ([1.0, -1.0], [3.0, 1.0]),
    2: ([0.0, 0.0], [1.0, 2.0]),
    4: ([-1.0, 0.0], [1.0, 2.0]),
    5: ([1.0, -1.0], [3.0, 3.0]),
    7: ([1.0, -1.0], [3.0, 1.0]),
    8: ([-math.pi, 0.0], [math.pi, 9.0]),
}


def native_bounds(pid: ProblemId) -> NativeBounds:
    """Published variable bounds of the problem's native search space."""
    if pid.suite == "mmf":
        lower, upper = _MMF_BOUNDS[pid.index]
        return NativeBounds(np.array(lower), np.array(upper))
    if pid.suite == "zdt" and pid.index == 4:
        lower = np.full(pid.dim, -5.0)
        upper = np.full(pid.dim, 5.0)
        lower[0], upper[0] = 0.0, 1.0
        return NativeBounds(lower, upper)
    return NativeBounds(np.zeros(pid.dim), np.ones(pid.dim))


def _evaluate_unit(formula, lower: np.ndarray, span: np.ndarray, x: np.ndarray) -> np.ndarray:
    f = np.empty((len(x), 2))
    f[:, 0], f[:, 1] = formula(_ARRAY, (lower + x * span).T)
    return f


def _evaluate_row(formula, lower: list, span: list, x: list) -> tuple[float, float]:
    return formula(_ROW, [lo + t * s for lo, t, s in zip(lower, x, span)])


def batch_kernel(pid: ProblemId):
    """The problem as one function of an (n, d) batch of unit-cube points.

    The function maps the batch onto the native box, applies the formula once
    and returns the (n, 2) objectives. It checks nothing: callers validate.
    """
    b = native_bounds(pid)
    formula = _KERNELS[(pid.suite, pid.index)]
    # a partial, not a closure: instances holding it pickle to worker processes
    return partial(_evaluate_unit, formula, b.lower[np.newaxis], (b.upper - b.lower)[np.newaxis])


def row_kernel(pid: ProblemId):
    """The problem as one function of a unit-cube point given as a list of
    Python floats, returning the objective pair as floats.

    On a point of at most 8 coordinates it gives batch_kernel's bits (see
    the formulas' notes). It checks nothing: callers validate.
    """
    b = native_bounds(pid)
    formula = _KERNELS[(pid.suite, pid.index)]
    return partial(_evaluate_row, formula, b.lower.tolist(), (b.upper - b.lower).tolist())


def evaluate(pid: ProblemId, x_unit) -> tuple[float, float]:
    """Evaluate a problem at a unit-cube point.

    Args:
        pid: Problem identity (suite, index, search dimension).
        x_unit: Point in [0,1]^dim.

    Returns:
        Objective pair (f1, f2), minimization convention.
    """
    x = np.asarray(x_unit, dtype=float)
    if x.shape != (pid.dim,):
        raise DimensionError(f"expected shape ({pid.dim},), got {x.shape}")
    check_unit(x)
    return tuple(batch_kernel(pid)(x[np.newaxis])[0].tolist())

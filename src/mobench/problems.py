"""Bi-objective benchmark problems exposed uniformly on the unit cube.

Suites: ZDT (1,2,3,4,6), DTLZ (1-7, two objectives, k = d-1 distance
variables), and six 2-D problems from the CEC'19 multimodal multiobjective
collection (MMF). Evaluation maps unit-cube points affinely onto each
problem's native box before applying the published formula; both objectives
are minimized. Each formula is written once, over an (n, d) array of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DimensionError, UnknownProblemError
from .specfun import check_unit

__all__ = [
    "ProblemId",
    "NativeBounds",
    "batch_kernel",
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
# Each formula maps an (n, d) array of native points to its (f1, f2) columns.
# Where the published formula applies sin, cos, exp or pow to one value, the
# kernel calls that libm function per element (_libm): numpy's own exp and
# power round differently on some hosts, and the bits must not depend on it.


def _libm(fn, a: np.ndarray, *args) -> np.ndarray:
    return np.array([fn(v, *args) for v in a.tolist()])


# --- ZDT ---------------------------------------------------------------


def _zdt1(x):
    f1 = x[:, 0]
    g = 1.0 + 9.0 * x[:, 1:].sum(axis=1) / (x.shape[1] - 1)
    return f1, g * (1.0 - np.sqrt(f1 / g))


def _zdt2(x):
    f1 = x[:, 0]
    g = 1.0 + 9.0 * x[:, 1:].sum(axis=1) / (x.shape[1] - 1)
    return f1, g * (1.0 - _libm(math.pow, f1 / g, 2.0))


def _zdt3(x):
    f1 = x[:, 0]
    g = 1.0 + 9.0 * x[:, 1:].sum(axis=1) / (x.shape[1] - 1)
    r = f1 / g
    return f1, g * (1.0 - np.sqrt(r) - r * _libm(math.sin, 10.0 * math.pi * f1))


def _zdt4(x):
    f1 = x[:, 0]
    tail = x[:, 1:]
    g = 1.0 + 10.0 * (x.shape[1] - 1) + (
        tail * tail - 10.0 * np.cos(4.0 * math.pi * tail)
    ).sum(axis=1)
    return f1, g * (1.0 - np.sqrt(f1 / g))


def _zdt6(x):
    x0 = x[:, 0]
    s6 = _libm(math.pow, _libm(math.sin, 6.0 * math.pi * x0), 6.0)
    f1 = 1.0 - _libm(math.exp, -4.0 * x0) * s6
    g = 1.0 + 9.0 * _libm(math.pow, x[:, 1:].sum(axis=1) / (x.shape[1] - 1), 0.25)
    return f1, g * (1.0 - _libm(math.pow, f1 / g, 2.0))


# --- DTLZ with two objectives (k = d - 1 distance variables) -------------


def _dtlz_g1(tail):
    c = tail - 0.5
    return 100.0 * (tail.shape[1] + (c**2 - np.cos(20.0 * math.pi * c)).sum(axis=1))


def _dtlz1(x):
    h = 1.0 + _dtlz_g1(x[:, 1:])
    return 0.5 * x[:, 0] * h, 0.5 * (1.0 - x[:, 0]) * h


def _dtlz_arc(g, angle):
    h = 1.0 + g
    return h * _libm(math.cos, angle), h * _libm(math.sin, angle)


def _dtlz2(x):
    return _dtlz_arc(((x[:, 1:] - 0.5) ** 2).sum(axis=1), 0.5 * math.pi * x[:, 0])


def _dtlz3(x):
    return _dtlz_arc(_dtlz_g1(x[:, 1:]), 0.5 * math.pi * x[:, 0])


def _dtlz4(x, alpha=100.0):
    angle = 0.5 * math.pi * _libm(math.pow, x[:, 0], alpha)
    return _dtlz_arc(((x[:, 1:] - 0.5) ** 2).sum(axis=1), angle)


def _dtlz6(x):
    return _dtlz_arc((x[:, 1:] ** 0.1).sum(axis=1), 0.5 * math.pi * x[:, 0])


def _dtlz7(x):
    g = 1.0 + 9.0 * x[:, 1:].mean(axis=1)
    f1 = x[:, 0]
    h = 2.0 - f1 / (1.0 + g) * (1.0 + _libm(math.sin, 3.0 * math.pi * f1))
    return f1, (1.0 + g) * h


# --- MMF (CEC'19 multimodal multiobjective selection) ---------------------


def _mmf1(x):
    f1 = np.abs(x[:, 0] - 2.0)
    s = _libm(math.sin, 6.0 * math.pi * f1 + math.pi)
    return f1, 1.0 - np.sqrt(f1) + 2.0 * _libm(math.pow, x[:, 1] - s, 2.0)


def _mmf2(x):
    f1, x2 = x[:, 0], x[:, 1]
    root = np.sqrt(f1)
    y2 = np.where(x2 < 1.0, x2 - root, x2 - 1.0 - root)
    return f1, 1.0 - root + 2.0 * (
        4.0 * y2 * y2 - 2.0 * _libm(math.cos, 20.0 * y2 * math.pi / math.sqrt(2.0)) + 2.0
    )


def _mmf4(x):
    x1, x2 = x[:, 0], x[:, 1]
    f1 = np.abs(x1)
    s = _libm(math.sin, math.pi * f1)
    y2 = np.where(x2 < 1.0, x2 - s, x2 - 1.0 - s)
    return f1, 1.0 - x1 * x1 + 2.0 * y2 * y2


def _mmf5(x):
    f1, x2 = np.abs(x[:, 0] - 2.0), x[:, 1]
    s = _libm(math.sin, 6.0 * math.pi * f1 + math.pi)
    y2 = np.where(x2 < 1.0, x2 - s, x2 - 1.0 - s)
    return f1, 1.0 - np.sqrt(f1) + 2.0 * y2 * y2


def _mmf7(x):
    f1 = np.abs(x[:, 0] - 2.0)
    amp = 0.3 * f1 * f1 * _libm(math.cos, 24.0 * math.pi * f1 + 4.0 * math.pi) + 0.6 * f1
    s = _libm(math.sin, 6.0 * math.pi * f1 + math.pi)
    return f1, 1.0 - np.sqrt(f1) + _libm(math.pow, x[:, 1] - amp * s, 2.0)


def _mmf8(x):
    a, x2 = np.abs(x[:, 0]), x[:, 1]
    s = _libm(math.sin, a)
    base = s + a
    y2 = np.where(x2 < 4.0, x2 - base, x2 - 4.0 - base)
    return s, np.sqrt(np.maximum(1.0 - s * s, 0.0)) + 2.0 * y2 * y2


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
    f[:, 0], f[:, 1] = formula(lower + x * span)
    return f


def batch_kernel(pid: ProblemId):
    """The problem as one function of an (n, d) batch of unit-cube points.

    The function maps the batch onto the native box, applies the formula once
    and returns the (n, 2) objectives. It checks nothing: callers validate.
    """
    b = native_bounds(pid)
    formula = _KERNELS[(pid.suite, pid.index)]
    # a partial, not a closure: instances holding it pickle to worker processes
    return partial(_evaluate_unit, formula, b.lower[np.newaxis], (b.upper - b.lower)[np.newaxis])


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

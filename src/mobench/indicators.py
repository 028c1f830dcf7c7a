"""Pareto archiving, exact bi-objective hypervolume, and density diagnostics.

The archive keeps every non-dominated original-space objective vector seen
during a run (no capacity bound); `accepted_history` feeds it a run's f_orig
column and is the one source of the points it accepts, with the evaluation
index of each. Hypervolume is the exact 2-D
sweep; normalization maps pooled objective extrema onto the unit box with
reference point (1, 1), and `normalized_hv_prefixes` scores every prefix a
run's checkpoints need in one archive pass.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    DegenerateBaseError,
    DegenerateNormalizationError,
    DimensionError,
    NumericError,
    ParameterError,
)
from .transforms import TransformSpec, apply_forward

__all__ = [
    "ParetoArchive",
    "accepted_history",
    "nondominated_rows",
    "NormalizationBox",
    "hypervolume_2d",
    "compute_normalization",
    "normalized_hv",
    "normalized_hv_prefixes",
    "relative_hv",
    "wasserstein_1d",
    "density_change",
]


class ParetoArchive:
    """Unbounded set of mutually non-dominated objective pairs.

    Entries are kept sorted by the first objective (second objective then
    strictly decreasing), which makes insertion O(log n + removed).
    """

    def __init__(self):
        self._f1: list[float] = []
        self._f2: list[float] = []

    def __len__(self) -> int:
        return len(self._f1)

    def insert(self, f_original) -> bool:
        """Insert an objective pair; returns True when accepted.

        Accepted iff no incumbent dominates (or equals) it; dominated
        incumbents are removed.
        """
        f1, f2 = float(f_original[0]), float(f_original[1])
        if not (math.isfinite(f1) and math.isfinite(f2)):
            raise NumericError(f"objective pair must be finite, got {f_original!r}")
        pos = bisect_left(self._f1, f1)
        if pos > 0 and self._f2[pos - 1] <= f2:
            return False
        if pos < len(self._f1) and self._f1[pos] == f1 and self._f2[pos] <= f2:
            return False
        j = pos
        while j < len(self._f1) and self._f2[j] >= f2:
            j += 1
        del self._f1[pos:j], self._f2[pos:j]
        self._f1.insert(pos, f1)
        self._f2.insert(pos, f2)
        return True

    def points(self) -> list[tuple[float, float]]:
        return list(zip(self._f1, self._f2))


def accepted_history(f_orig) -> list[tuple[int, float, float]]:
    """(eval_index, f1, f2) of every evaluation the run's archive accepts.

    Row i of the (n, 2) column is evaluation i + 1, fed to the archive in row
    order. The archive after evaluation c is the non-dominated subset of the
    points accepted up to c.
    """
    archive = ParetoArchive()
    rows = np.asarray(f_orig, dtype=float).reshape(-1, 2).tolist()
    return [(i, f1, f2) for i, (f1, f2) in enumerate(rows, 1) if archive.insert((f1, f2))]


def nondominated_rows(points) -> np.ndarray:
    """Row indices of the non-dominated points, in ascending (f1, f2) order.

    A stable lexicographic sort, then a strict running minimum of f2; of
    exact duplicates only the first row is kept.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    f2 = pts[order, 1]
    keep = np.empty(len(f2), dtype=bool)
    keep[:1] = True
    keep[1:] = f2[1:] < np.minimum.accumulate(f2)[:-1]
    return order[keep]


@dataclass(frozen=True)
class NormalizationBox:
    ideal: tuple[float, float]
    nadir: tuple[float, float]

    def __post_init__(self):
        if not (self.ideal[0] < self.nadir[0] and self.ideal[1] < self.nadir[1]):
            raise DegenerateNormalizationError(
                f"ideal {self.ideal} must be strictly below nadir {self.nadir}"
            )


def hypervolume_2d(points, ref) -> float:
    """Exact hypervolume of a 2-D minimization point set.

    Lebesgue measure of the union of boxes [f1, ref1] x [f2, ref2], by
    lexicographic sort and staircase sweep; points with any component at or
    beyond the reference contribute nothing.
    """
    r1, r2 = float(ref[0]), float(ref[1])
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    pts = pts[(pts[:, 0] < r1) & (pts[:, 1] < r2)]
    if not len(pts):
        return 0.0
    front = pts[nondominated_rows(pts)]
    return _staircase_area(front[:, 0], front[:, 1], r1, r2)


def _staircase_area(s1, s2, r1: float, r2: float) -> float:
    """Area under a front given in ascending f1 order, f2 strictly decreasing.

    The one summation of the staircase: every hypervolume in this module goes
    through it, so equal fronts give equal bits.
    """
    s1, s2 = np.asarray(s1), np.asarray(s2)
    widths = np.append(s1[1:], r1) - s1
    return float(np.sum(widths * (r2 - s2)))


def compute_normalization(fronts: Iterable[Iterable]) -> NormalizationBox:
    """Extrema of the globally non-dominated subset of all runs' fronts.

    Pooling re-filters the union, so the box spans the best front attained
    across every run rather than the spread of individual archives; without
    the re-filter the nadir blows up on problems with large objective ranges
    and normalized hypervolume saturates for every algorithm.

    The ideal is the pooled minimum of each objective. The nadir comes from
    the two ends of the non-dominated set: the lowest f2 among the points
    with the lowest f1, and the lowest f1 among those with the lowest f2.

    Args:
        fronts: One point collection per run; points dominated within or
            across runs do not change the box.

    Returns:
        Ideal/nadir box spanning the pooled non-dominated set.
    """
    pts = np.concatenate(
        [np.empty((0, 2))] + [np.asarray(front, dtype=float).reshape(-1, 2) for front in fronts]
    )
    if not len(pts):
        raise DegenerateNormalizationError("no points to normalize")
    if not np.isfinite(pts).all():
        bad = pts[~np.isfinite(pts).all(axis=1)][0]
        raise NumericError(f"objective pair must be finite, got {tuple(bad.tolist())!r}")
    f1, f2 = pts[:, 0], pts[:, 1]
    lo1, lo2 = f1.min(), f2.min()
    hi1, hi2 = f1[f2 == lo2].min(), f2[f1 == lo1].min()
    return NormalizationBox(ideal=(float(lo1), float(lo2)), nadir=(float(hi1), float(hi2)))


def normalized_hv(points, box: NormalizationBox) -> float:
    """Hypervolume after affine normalization into the unit box, ref (1, 1).

    Points with any normalized component at or above 1 are dropped;
    components are floored at 0 so the result always lies in [0, 1].
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    return normalized_hv_prefixes(pts, box, [len(pts)])[0]


def normalized_hv_prefixes(points, box: NormalizationBox, counts) -> list[float]:
    """`normalized_hv(points[:n], box)` for each n of the ascending `counts`.

    One pass: every point is normalized once and fed in row order to a
    `ParetoArchive`, which keeps the front in the ascending f1 order that
    `hypervolume_2d` sums, and the staircase is summed again only after an
    insert was accepted. The archive holds the non-dominated subset of a
    prefix with the first of exact duplicates, as `nondominated_rows` does,
    so each value is bit-equal to the sort-based one.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    ideal = np.array(box.ideal)
    scaled = (pts - ideal) / (np.array(box.nadir) - ideal)
    kept = np.flatnonzero((scaled < 1.0).all(axis=1))
    rows = np.maximum(scaled[kept], 0.0).tolist()
    archive = ParetoArchive()
    hvs: list[float] = []
    hv, fed = 0.0, 0
    for end in np.searchsorted(kept, counts).tolist():
        if end < fed:
            raise ParameterError(f"prefix lengths must ascend, got {list(counts)!r}")
        grew = False
        for f in rows[fed:end]:
            grew |= archive.insert(f)
        if grew:
            hv = min(1.0, _staircase_area(archive._f1, archive._f2, 1.0, 1.0))
        hvs.append(hv)
        fed = end
    return hvs


def relative_hv(transformed_hv: float, base_hv: float) -> float:
    """Ratio of an instance's hypervolume to its untransformed base value."""
    if not base_hv > 0.0:
        raise DegenerateBaseError(f"base hypervolume must be positive, got {base_hv}")
    return transformed_hv / base_hv


def wasserstein_1d(a, b) -> float:
    """W1 distance of two equal-size empirical samples (sorted mean |diff|)."""
    xa = np.sort(np.asarray(a, dtype=float))
    xb = np.sort(np.asarray(b, dtype=float))
    if xa.shape != xb.shape or xa.ndim != 1 or xa.size == 0:
        raise DimensionError(
            f"samples must be equal-size non-empty 1-D, got {np.shape(a)} and {np.shape(b)}"
        )
    return float(np.mean(np.abs(xa - xb)))


def _pairwise_distances(pts: np.ndarray) -> np.ndarray:
    diff = pts[:, np.newaxis, :] - pts[np.newaxis, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    iu = np.triu_indices(len(pts), k=1)
    return dist[iu]


def density_change(t: TransformSpec, n: int, dim: int, seed: int) -> float:
    """Wasserstein distance between pairwise distances before/after a warp.

    Samples n uniform points in [0,1]^dim, applies the transform, and
    compares the two pairwise-distance samples. Zero exactly for isometries
    of the construction (identity, right-angle sphered rotations).
    """
    if n < 2:
        raise ParameterError(f"need at least 2 points, got {n}")
    pts = np.random.default_rng(seed).random((n, dim))
    before = _pairwise_distances(pts)
    after = _pairwise_distances(apply_forward(t, pts))
    return wasserstein_1d(before, after)

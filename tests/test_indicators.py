"""Tests for archiving, hypervolume, normalization, and density diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobench.errors import (
    DegenerateBaseError,
    DegenerateNormalizationError,
    DimensionError,
    NumericError,
    ParameterError,
)
from mobench.indicators import (
    NormalizationBox,
    ParetoArchive,
    accepted_history,
    compute_normalization,
    density_change,
    hypervolume_2d,
    nondominated_rows,
    normalized_hv,
    normalized_hv_prefixes,
    relative_hv,
    wasserstein_1d,
)
from mobench.transforms import TransformSpec, rotation_matrix_2d


def brute_force_front(points):
    """O(n^2) non-dominated filter with first-attainment indices."""
    front = {}
    for i, p in enumerate(points, start=1):
        p = (float(p[0]), float(p[1]))
        dominated = any(
            q[0] <= p[0] and q[1] <= p[1] and q != p for q in front
        ) or p in front
        if dominated:
            continue
        for q in list(front):
            if p[0] <= q[0] and p[1] <= q[1] and p != q:
                del front[q]
        front[p] = i
    return front


def first_attainments(points, archive):
    """Each archive member with the evaluation index accepted_history gives it."""
    accepted = {(f1, f2): i for i, f1, f2 in accepted_history(points)}
    return {p: accepted[p] for p in archive.points()}


class TestArchive:
    def test_insert_into_empty(self):
        a = ParetoArchive()
        assert a.insert((1.0, 1.0))
        assert a.points() == [(1.0, 1.0)]

    def test_dominated_rejected(self):
        a = ParetoArchive()
        a.insert((1.0, 1.0))
        assert not a.insert((2.0, 2.0))
        assert a.points() == [(1.0, 1.0)]

    def test_dominating_removes_both(self):
        pts = [(0.0, 1.0), (1.0, 0.0), (0.0, 0.0)]
        a = ParetoArchive()
        a.insert(pts[0])
        a.insert(pts[1])
        assert a.insert(pts[2])
        assert a.points() == [(0.0, 0.0)]
        assert accepted_history(pts) == [(1, 0.0, 1.0), (2, 1.0, 0.0), (3, 0.0, 0.0)]
        assert first_attainments(pts, a) == {(0.0, 0.0): 3}

    def test_duplicates_not_duplicated(self):
        pts = [(0.5, 0.5), (0.5, 0.5)]
        a = ParetoArchive()
        assert a.insert(pts[0])
        assert not a.insert(pts[1])
        assert a.points() == [(0.5, 0.5)]
        assert accepted_history(pts) == [(1, 0.5, 0.5)]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            # quantized coordinates force duplicates and ties
            pts = np.round(rng.random((300, 2)) * 20) / 20
            a = ParetoArchive()
            for p in pts:
                a.insert(p)
            expected = brute_force_front(pts)
            assert first_attainments(pts, a) == expected

    def test_non_finite_rejected(self):
        a = ParetoArchive()
        with pytest.raises(NumericError):
            a.insert((float("nan"), 1.0))

    def test_history_replay(self):
        rng = np.random.default_rng(5)
        for pts in (rng.random((500, 2)), np.round(rng.random((500, 2)) * 20) / 20):
            history = accepted_history(pts)
            assert [(f1, f2) for i, f1, f2 in history] == [tuple(pts[i - 1]) for i, _, _ in history]
            # every prefix front is the front of the accepted points up to its cut
            for cut in (1, 10, 100, 500):
                prefix = [h for h in history if h[0] <= cut]
                front = brute_force_front([(f1, f2) for _, f1, f2 in prefix])
                got = {f: prefix[k - 1][0] for f, k in front.items()}
                assert got == brute_force_front(pts[:cut])

    def test_nondominated_rows_keep_first_duplicate(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            pts = np.round(rng.random((300, 2)) * 20) / 20
            rows = nondominated_rows(pts)
            expected = brute_force_front(pts)
            assert {tuple(pts[r]): r + 1 for r in rows.tolist()} == expected
            assert np.all(np.diff(pts[rows, 0]) > 0)
        assert nondominated_rows(np.empty((0, 2))).tolist() == []


class TestHypervolume:
    def test_single_box(self):
        assert hypervolume_2d([(1.0, 1.0)], (2.0, 2.0)) == 1.0

    def test_two_points(self):
        assert hypervolume_2d([(0.0, 1.0), (1.0, 0.0)], (2.0, 2.0)) == 3.0

    def test_three_points(self):
        pts = [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]
        assert hypervolume_2d(pts, (2.0, 2.0)) == 3.25

    def test_empty_and_outside(self):
        assert hypervolume_2d([], (1.0, 1.0)) == 0.0
        assert hypervolume_2d([(2.0, 0.5), (0.5, 1.0)], (1.0, 1.0)) == 0.0

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(7)
        ref = (1.5, 1.5)
        for _ in range(5):
            pts = rng.random((8, 2))
            hv = hypervolume_2d(pts, ref)
            samples = rng.random((200_000, 2)) * 1.5
            dominated = np.zeros(len(samples), dtype=bool)
            for f1, f2 in pts:
                dominated |= (samples[:, 0] >= f1) & (samples[:, 1] >= f2)
            p = dominated.mean()
            est = p * 1.5 * 1.5
            se = math.sqrt(p * (1 - p) / len(samples)) * 1.5 * 1.5
            assert abs(hv - est) <= 3 * se + 1e-12

    def test_monotone_under_insertion(self):
        rng = np.random.default_rng(9)
        ref = (2.0, 2.0)
        pts = list(map(tuple, rng.random((50, 2))))
        hv = 0.0
        for k in range(1, len(pts) + 1):
            new = hypervolume_2d(pts[:k], ref)
            assert new >= hv - 1e-15
            hv = new

    def test_dominated_points_do_not_matter(self):
        rng = np.random.default_rng(11)
        ref = (2.0, 2.0)
        pts = rng.random((40, 2))
        front = brute_force_front(pts)
        assert hypervolume_2d(pts, ref) == pytest.approx(
            hypervolume_2d(list(front), ref), abs=1e-14
        )


class TestNormalization:
    def test_single_run(self):
        box = compute_normalization([[(0.0, 1.0), (1.0, 0.0)]])
        assert box.ideal == (0.0, 0.0)
        assert box.nadir == (1.0, 1.0)

    def test_pooled_runs(self):
        box = compute_normalization([[(0.0, 2.0)], [(1.0, 0.0)]])
        assert box.ideal == (0.0, 0.0)
        assert box.nadir == (1.0, 2.0)

    def test_pooled_front_hv_in_unit(self):
        fronts = [[(0.0, 2.0)], [(1.0, 0.0)], [(0.5, 0.7)]]
        box = compute_normalization(fronts)
        hv = normalized_hv([f for fr in fronts for f in fr], box)
        assert 0.0 < hv <= 1.0

    def test_degenerate(self):
        with pytest.raises(DegenerateNormalizationError):
            compute_normalization([[(1.0, 0.0), (1.0, 1.0)]])
        with pytest.raises(DegenerateNormalizationError):
            compute_normalization([[]])

    def test_matches_pooled_archive(self):
        # the box spans the non-dominated set an archive of all points keeps
        rng = np.random.default_rng(21)
        for _ in range(50):
            fronts = [
                np.round(rng.random((rng.integers(1, 30), 2)) * 8) / 8
                for _ in range(rng.integers(1, 5))
            ]
            archive = ParetoArchive()
            for front in fronts:
                for f in front:
                    archive.insert(f)
            pts = np.asarray(archive.points())
            ideal, nadir = tuple(pts.min(axis=0).tolist()), tuple(pts.max(axis=0).tolist())
            if ideal[0] < nadir[0] and ideal[1] < nadir[1]:
                box = compute_normalization(fronts)
                assert (box.ideal, box.nadir) == (ideal, nadir)
            else:
                with pytest.raises(DegenerateNormalizationError):
                    compute_normalization(fronts)

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            compute_normalization([[(0.0, 1.0)], [(math.nan, 0.5)]])

    def test_normalized_hv_examples(self):
        box = NormalizationBox((0.0, 0.0), (2.0, 4.0))
        assert normalized_hv([(0.0, 0.0)], box) == 1.0
        assert normalized_hv([(5.0, 5.0)], box) == 0.0
        assert normalized_hv([(1.0, 2.0)], box) == pytest.approx(0.25, abs=1e-15)

    def test_bounds_always_unit(self):
        rng = np.random.default_rng(13)
        box = NormalizationBox((0.0, 0.0), (1.0, 1.0))
        for _ in range(50):
            pts = rng.uniform(-0.5, 1.5, size=(20, 2))
            v = normalized_hv(pts, box)
            assert 0.0 <= v <= 1.0


def sort_based_normalized_hv(points, box):
    """Reference: normalize, lexsort and sweep each prefix from scratch."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if not len(pts):
        return 0.0
    ideal = np.array(box.ideal)
    scaled = (pts - ideal) / (np.array(box.nadir) - ideal)
    scaled = scaled[(scaled <= 1.0).all(axis=1)]
    return min(1.0, hypervolume_2d(np.maximum(scaled, 0.0), (1.0, 1.0)))


# quarter-step lattices and power-of-two extents keep the scaling exact, so
# points land on scaled 1.0 (dropped) and below the ideal (floored, which
# makes duplicates); fractional offsets make the sums round, and points near
# the anti-diagonal make fronts long enough for the grouping of the sum to
# matter
fraction = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True))
lattice_points = st.lists(
    st.tuples(st.integers(0, 16), st.integers(-2, 2), fraction, fraction), max_size=60
).map(lambda cells: np.array(
    [(i + u, min(max(16 - i + d, 0), 16) + v) for i, d, u, v in cells], dtype=float
).reshape(-1, 2) / 4.0)
lattice_boxes = st.tuples(
    st.integers(0, 8), st.integers(0, 8), st.integers(-1, 2), st.integers(-1, 2)
).map(lambda t: NormalizationBox(
    (t[0] / 4, t[1] / 4), (t[0] / 4 + 2.0 ** t[2], t[1] / 4 + 2.0 ** t[3])
))


class TestNormalizedHvPrefixes:
    @settings(max_examples=300, deadline=None)
    @given(lattice_points, lattice_boxes, st.lists(st.integers(0, 60), max_size=12))
    def test_matches_sort_based(self, pts, box, cuts):
        counts = sorted([min(c, len(pts)) for c in cuts] + [0, len(pts)])
        expected = [sort_based_normalized_hv(pts[:n], box) for n in counts]
        assert normalized_hv_prefixes(pts, box, counts) == expected
        assert normalized_hv(pts, box) == expected[-1]

    def test_points_on_scaled_one_add_no_step(self):
        # a zero-area step at the reference would change how the staircase
        # sum is grouped, and with it the last bits
        rng = np.random.default_rng(5)
        box = NormalizationBox((0.0, 0.0), (1.0, 1.0))
        for _ in range(500):
            n = int(rng.integers(6, 16))
            front = np.column_stack([np.sort(rng.random(n)), np.sort(rng.random(n))[::-1]])
            edge = [(1.0, rng.random() * front[-1, 1]), (rng.random() * front[0, 0], 1.0)]
            pts = np.vstack([front, edge])
            expected = [sort_based_normalized_hv(pts[:k], box) for k in (n, n + 1, n + 2)]
            assert normalized_hv_prefixes(pts, box, [n, n + 1, n + 2]) == expected

    def test_edges(self):
        box = NormalizationBox((0.0, 0.0), (1.0, 1.0))
        # on scaled 1.0: dropped; below the ideal: floored onto one duplicate
        pts = [(1.0, 0.5), (-1.0, -2.0), (0.0, 0.0), (-3.0, 0.0)]
        assert normalized_hv_prefixes(pts, box, [0, 1, 2, 4]) == [0.0, 0.0, 1.0, 1.0]
        assert normalized_hv_prefixes([], box, [0, 0]) == [0.0, 0.0]
        with pytest.raises(ParameterError):
            normalized_hv_prefixes([(0.5, 0.5), (0.2, 0.2)], box, [2, 1])


class TestRelativeHv:
    def test_ratio(self):
        assert relative_hv(0.45, 0.5) == pytest.approx(0.9)
        assert relative_hv(0.5, 0.5) == 1.0

    def test_degenerate_base(self):
        with pytest.raises(DegenerateBaseError):
            relative_hv(0.5, 0.0)


class TestWasserstein:
    def test_identical(self):
        assert wasserstein_1d([1.0, 2.0, 3.0], [3.0, 1.0, 2.0]) == 0.0

    def test_hand_value(self):
        assert wasserstein_1d([0.0, 1.0], [0.0, 2.0]) == 0.5

    def test_translation(self):
        rng = np.random.default_rng(17)
        a = rng.random(100)
        c = 0.37
        assert wasserstein_1d(a, a + c) == pytest.approx(c, abs=1e-12)

    def test_metric_properties(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            a, b, c = rng.random((3, 50))
            dab = wasserstein_1d(a, b)
            dba = wasserstein_1d(b, a)
            dac = wasserstein_1d(a, c)
            dcb = wasserstein_1d(c, b)
            assert dab == pytest.approx(dba, abs=1e-12)
            assert dab <= dac + dcb + 1e-12

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            wasserstein_1d([1.0, 2.0], [1.0])


class TestDensityChange:
    def test_identity_zero(self):
        assert density_change(TransformSpec.identity(), 200, 2, seed=1) == 0.0

    def test_right_angle_zero(self):
        t = TransformSpec.sphered_rotation(rotation_matrix_2d(math.pi / 2))
        assert density_change(t, 500, 2, seed=1) <= 1e-12

    def test_beta_ordering(self):
        flat = density_change(TransformSpec.beta_cdf(1, 1), 300, 2, seed=5)
        peaked = density_change(TransformSpec.beta_cdf(5, 5), 300, 2, seed=5)
        assert peaked > flat
        assert flat <= 1e-12  # CDF path is identity only to rounding

    def test_deterministic(self):
        t = TransformSpec.beta_cdf(0.5, 2.0)
        assert density_change(t, 100, 2, seed=9) == density_change(t, 100, 2, seed=9)

    def test_small_n(self):
        with pytest.raises(ParameterError):
            density_change(TransformSpec.identity(), 1, 2, seed=0)

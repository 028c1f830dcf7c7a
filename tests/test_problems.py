"""Tests for the benchmark problem suites."""

import math

import numpy as np
import pytest

from mobench.errors import DimensionError, DomainError, UnknownProblemError
from mobench.problems import (
    ProblemId,
    batch_kernel,
    evaluate,
    list_problems,
    native_bounds,
    parse_problem_id,
    row_kernel,
)


class TestHandValues:
    def test_zdt1_origin(self):
        # f1 = x1, g = 1, f2 = g(1 - sqrt(f1/g))
        assert evaluate(ProblemId("zdt", 1, 2), [0.0, 0.0]) == (0.0, 1.0)

    def test_zdt1_ones(self):
        f1, f2 = evaluate(ProblemId("zdt", 1, 2), [1.0, 1.0])
        assert f1 == 1.0
        assert f2 == pytest.approx(10.0 - math.sqrt(10.0), abs=1e-12)

    def test_zdt1_quarter(self):
        # g = 1 + 9*0.25 = 3.25
        f1, f2 = evaluate(ProblemId("zdt", 1, 2), [0.25, 0.25])
        assert f1 == 0.25
        assert f2 == pytest.approx(3.25 * (1.0 - math.sqrt(0.25 / 3.25)), abs=1e-12)

    def test_dtlz1_center(self):
        # g = 0 at x_i = 0.5, f1 = 0.5 x1 (1+g)
        f1, f2 = evaluate(ProblemId("dtlz", 1, 2), [0.5, 0.5])
        assert f1 == pytest.approx(0.25, abs=1e-12)
        assert f2 == pytest.approx(0.25, abs=1e-12)

    def test_dtlz2_center(self):
        f1, f2 = evaluate(ProblemId("dtlz", 2, 2), [0.5, 0.5])
        assert f1 == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)
        assert f2 == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)

    def test_mmf1_center(self):
        # unit (0.5, 0.5) -> native (2, 0): f1 = |x1-2| = 0
        f1, f2 = evaluate(ProblemId("mmf", 1, 2), [0.5, 0.5])
        assert f1 == 0.0
        assert f2 == pytest.approx(1.0, abs=1e-12)

    def test_zdt4_native_mapping(self):
        # unit 0.5 in the tail maps to native 0, where the Rastrigin term
        # vanishes: g = 1 + 10(n-1) + sum(0 - 10) = 1
        f1, f2 = evaluate(ProblemId("zdt", 4, 10), [0.0] + [0.5] * 9)
        assert f1 == 0.0
        assert f2 == pytest.approx(1.0, abs=1e-12)

    def test_dtlz7_front_form(self):
        # tail at 0 gives g = 1
        f1, f2 = evaluate(ProblemId("dtlz", 7, 2), [0.25, 0.0])
        h = 2.0 - 0.25 / 2.0 * (1.0 + math.sin(3.0 * math.pi * 0.25))
        assert f1 == 0.25
        assert f2 == pytest.approx(2.0 * h, abs=1e-12)


class TestMmfParetoForms:
    """At published Pareto-set points the fronts take their closed forms."""

    def test_mmf1_front(self):
        pid = ProblemId("mmf", 1, 2)
        lo, hi = native_bounds(pid).lower, native_bounds(pid).upper
        for x1 in np.linspace(1.05, 2.95, 9):
            x2 = math.sin(6.0 * math.pi * abs(x1 - 2.0) + math.pi)
            unit = (np.array([x1, x2]) - lo) / (hi - lo)
            f1, f2 = evaluate(pid, unit)
            assert f2 == pytest.approx(1.0 - math.sqrt(f1), abs=1e-9)

    def test_mmf4_front_both_branches(self):
        pid = ProblemId("mmf", 4, 2)
        lo, hi = native_bounds(pid).lower, native_bounds(pid).upper
        for x1 in np.linspace(-0.95, 0.95, 7):
            for shift in (0.0, 1.0):
                x2 = shift + math.sin(math.pi * abs(x1))
                unit = (np.array([x1, x2]) - lo) / (hi - lo)
                if np.any(unit < 0) or np.any(unit > 1):
                    continue
                f1, f2 = evaluate(pid, unit)
                assert f2 == pytest.approx(1.0 - f1 * f1, abs=1e-9)

    def test_mmf8_front(self):
        pid = ProblemId("mmf", 8, 2)
        lo, hi = native_bounds(pid).lower, native_bounds(pid).upper
        for x1 in np.linspace(-3.0, 3.0, 9):
            x2 = math.sin(abs(x1)) + abs(x1)
            unit = (np.array([x1, x2]) - lo) / (hi - lo)
            f1, f2 = evaluate(pid, unit)
            assert f2 == pytest.approx(math.sqrt(1.0 - f1 * f1), abs=1e-9)


class TestBounds:
    def test_zdt1(self):
        b = native_bounds(ProblemId("zdt", 1, 2))
        np.testing.assert_array_equal(b.lower, [0.0, 0.0])
        np.testing.assert_array_equal(b.upper, [1.0, 1.0])

    def test_zdt4_d10(self):
        b = native_bounds(ProblemId("zdt", 4, 10))
        np.testing.assert_array_equal(b.lower, [0.0] + [-5.0] * 9)
        np.testing.assert_array_equal(b.upper, [1.0] + [5.0] * 9)

    def test_mmf1(self):
        b = native_bounds(ProblemId("mmf", 1, 2))
        np.testing.assert_array_equal(b.lower, [1.0, -1.0])
        np.testing.assert_array_equal(b.upper, [3.0, 1.0])

    def test_all_bounds_ordered(self):
        for pid in list_problems():
            b = native_bounds(pid)
            assert len(b.lower) == len(b.upper) == pid.dim
            assert np.all(b.lower < b.upper)


class TestEnumeration:
    def test_contains_both_dims(self):
        ids = list_problems()
        assert ProblemId("zdt", 1, 2) in ids
        assert ProblemId("zdt", 1, 10) in ids

    def test_excludes_zdt5(self):
        assert all(not (p.suite == "zdt" and p.index == 5) for p in list_problems())
        with pytest.raises(UnknownProblemError):
            ProblemId("zdt", 5, 10)

    def test_total_count(self):
        # 5 ZDT x 2 dims + 7 DTLZ x 2 dims + 6 MMF = 30
        assert len(list_problems()) == 30

    def test_stable_order(self):
        assert list_problems() == list_problems()

    def test_id_strings_roundtrip(self):
        for pid in list_problems():
            assert parse_problem_id(str(pid)) == pid
        assert str(ProblemId("dtlz", 3, 10)) == "dtlz3-d10"
        with pytest.raises(UnknownProblemError):
            parse_problem_id("wfg1-d2")
        with pytest.raises(UnknownProblemError):
            parse_problem_id("zdt1")


class TestProperties:
    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(0)
        for pid in list_problems():
            x = rng.random(pid.dim)
            assert evaluate(pid, x) == evaluate(pid, x.copy())

    def test_known_pareto_extremes(self):
        for index in (1, 2, 3):
            for dim in (2, 10):
                f1, f2 = evaluate(ProblemId("zdt", index, dim), [0.0] * dim)
                assert f1 == 0.0
                assert f2 == pytest.approx(1.0, abs=1e-12)
        rng = np.random.default_rng(1)
        for dim in (2, 10):
            pid = ProblemId("dtlz", 2, dim)
            for _ in range(20):
                x = np.concatenate([[rng.random()], np.full(dim - 1, 0.5)])
                f1, f2 = evaluate(pid, x)
                assert f1 * f1 + f2 * f2 == pytest.approx(1.0, abs=1e-12)

    def test_scale_sanity(self):
        rng = np.random.default_rng(2)
        for pid in list_problems():
            pts = rng.random((10_000, pid.dim))
            f = np.array([evaluate(pid, p) for p in pts])
            assert np.all(np.isfinite(f))
            ranges = f.max(axis=0) - f.min(axis=0)
            assert np.all(ranges > 0.0)

    def test_errors(self):
        pid = ProblemId("zdt", 1, 2)
        with pytest.raises(DimensionError):
            evaluate(pid, [0.1, 0.2, 0.3])
        with pytest.raises(DomainError):
            evaluate(pid, [1.2, 0.0])
        with pytest.raises(DomainError):
            evaluate(pid, [float("nan"), 0.0])


# --- reference: the one-point scalar formulas ------------------------------
#
# The array kernels must reproduce these bit for bit: libm's sin, cos, exp and
# pow where these apply them to a single value or to each value (_cos), numpy
# where these use numpy.

_cos = np.vectorize(math.cos, otypes=[float])  # libm's cos on each value


def _ref_zdt1(x):
    f1 = x[0]
    g = 1.0 + 9.0 * float(np.sum(x[1:])) / (len(x) - 1)
    return f1, g * (1.0 - math.sqrt(f1 / g))


def _ref_zdt2(x):
    f1 = x[0]
    g = 1.0 + 9.0 * float(np.sum(x[1:])) / (len(x) - 1)
    return f1, g * (1.0 - (f1 / g) ** 2)


def _ref_zdt3(x):
    f1 = x[0]
    g = 1.0 + 9.0 * float(np.sum(x[1:])) / (len(x) - 1)
    r = f1 / g
    return f1, g * (1.0 - math.sqrt(r) - r * math.sin(10.0 * math.pi * f1))


def _ref_zdt4(x):
    f1 = x[0]
    tail = x[1:]
    g = 1.0 + 10.0 * (len(x) - 1) + float(
        np.sum(tail * tail - 10.0 * _cos(4.0 * math.pi * tail))
    )
    return f1, g * (1.0 - math.sqrt(f1 / g))


def _ref_zdt6(x):
    f1 = 1.0 - math.exp(-4.0 * x[0]) * math.sin(6.0 * math.pi * x[0]) ** 6
    g = 1.0 + 9.0 * (float(np.sum(x[1:])) / (len(x) - 1)) ** 0.25
    return f1, g * (1.0 - (f1 / g) ** 2)


def _ref_dtlz_g1(tail):
    k = len(tail)
    return 100.0 * (
        k + float(np.sum((tail - 0.5) ** 2 - _cos(20.0 * math.pi * (tail - 0.5))))
    )


def _ref_dtlz1(x):
    g = _ref_dtlz_g1(x[1:])
    return 0.5 * x[0] * (1.0 + g), 0.5 * (1.0 - x[0]) * (1.0 + g)


def _ref_dtlz2(x):
    g = float(np.sum((x[1:] - 0.5) ** 2))
    angle = 0.5 * math.pi * x[0]
    return (1.0 + g) * math.cos(angle), (1.0 + g) * math.sin(angle)


def _ref_dtlz3(x):
    g = _ref_dtlz_g1(x[1:])
    angle = 0.5 * math.pi * x[0]
    return (1.0 + g) * math.cos(angle), (1.0 + g) * math.sin(angle)


def _ref_dtlz4(x, alpha=100.0):
    g = float(np.sum((x[1:] - 0.5) ** 2))
    angle = 0.5 * math.pi * x[0] ** alpha
    return (1.0 + g) * math.cos(angle), (1.0 + g) * math.sin(angle)


def _ref_dtlz6(x):
    g = float(np.sum(x[1:] ** 0.1))
    angle = 0.5 * math.pi * x[0]
    return (1.0 + g) * math.cos(angle), (1.0 + g) * math.sin(angle)


def _ref_dtlz7(x):
    g = 1.0 + 9.0 * float(np.mean(x[1:]))
    f1 = x[0]
    h = 2.0 - f1 / (1.0 + g) * (1.0 + math.sin(3.0 * math.pi * f1))
    return f1, (1.0 + g) * h


def _ref_mmf1(x):
    f1 = abs(x[0] - 2.0)
    return f1, 1.0 - math.sqrt(f1) + 2.0 * (x[1] - math.sin(6.0 * math.pi * f1 + math.pi)) ** 2


def _ref_mmf2(x):
    f1 = x[0]
    root = math.sqrt(x[0])
    y2 = x[1] - root if x[1] < 1.0 else x[1] - 1.0 - root
    return f1, 1.0 - root + 2.0 * (
        4.0 * y2 * y2 - 2.0 * math.cos(20.0 * y2 * math.pi / math.sqrt(2.0)) + 2.0
    )


def _ref_mmf4(x):
    f1 = abs(x[0])
    y2 = x[1] - math.sin(math.pi * f1) if x[1] < 1.0 else x[1] - 1.0 - math.sin(math.pi * f1)
    return f1, 1.0 - x[0] * x[0] + 2.0 * y2 * y2


def _ref_mmf5(x):
    f1 = abs(x[0] - 2.0)
    s = math.sin(6.0 * math.pi * f1 + math.pi)
    y2 = x[1] - s if x[1] < 1.0 else x[1] - 1.0 - s
    return f1, 1.0 - math.sqrt(f1) + 2.0 * y2 * y2


def _ref_mmf7(x):
    f1 = abs(x[0] - 2.0)
    amp = 0.3 * f1 * f1 * math.cos(24.0 * math.pi * f1 + 4.0 * math.pi) + 0.6 * f1
    return f1, 1.0 - math.sqrt(f1) + (x[1] - amp * math.sin(6.0 * math.pi * f1 + math.pi)) ** 2


def _ref_mmf8(x):
    s = math.sin(abs(x[0]))
    f1 = s
    base = s + abs(x[0])
    y2 = x[1] - base if x[1] < 4.0 else x[1] - 4.0 - base
    return f1, math.sqrt(max(1.0 - s * s, 0.0)) + 2.0 * y2 * y2


REFERENCE = {
    ("zdt", 1): _ref_zdt1,
    ("zdt", 2): _ref_zdt2,
    ("zdt", 3): _ref_zdt3,
    ("zdt", 4): _ref_zdt4,
    ("zdt", 6): _ref_zdt6,
    ("dtlz", 1): _ref_dtlz1,
    ("dtlz", 2): _ref_dtlz2,
    ("dtlz", 3): _ref_dtlz3,
    ("dtlz", 4): _ref_dtlz4,
    ("dtlz", 5): _ref_dtlz2,  # with two objectives DTLZ5 is DTLZ2
    ("dtlz", 6): _ref_dtlz6,
    ("dtlz", 7): _ref_dtlz7,
    ("mmf", 1): _ref_mmf1,
    ("mmf", 2): _ref_mmf2,
    ("mmf", 4): _ref_mmf4,
    ("mmf", 5): _ref_mmf5,
    ("mmf", 7): _ref_mmf7,
    ("mmf", 8): _ref_mmf8,
}

# native x2 where an MMF formula switches branch
_MMF_SWITCH = {2: 1.0, 4: 1.0, 5: 1.0, 8: 4.0}


def _test_points(pid: ProblemId) -> np.ndarray:
    """2000 seeded random unit points, every corner of the cube for d = 2 (the
    all-zero and all-one points otherwise), and for MMF points on both sides
    of each branch switch and on it."""
    rng = np.random.default_rng(1000 + 10 * pid.index + pid.dim)
    d = pid.dim
    if d == 2:
        corners = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
    else:
        corners = [[0.0] * d, [1.0] * d]
    pts = [rng.random((2000, d)), np.array(corners)]
    if pid.suite == "mmf" and pid.index in _MMF_SWITCH:
        b = native_bounds(pid)
        at = (_MMF_SWITCH[pid.index] - b.lower[1]) / (b.upper[1] - b.lower[1])
        x2 = np.array([at, np.nextafter(at, 0.0), np.nextafter(at, 1.0), at / 2, (1 + at) / 2])
        pts.append(np.column_stack([rng.random(len(x2)), x2]))
    return np.vstack(pts)


@pytest.mark.parametrize("pid", list_problems(), ids=str)
def test_kernel_matches_scalar_reference_exactly(pid):
    x = _test_points(pid)
    f = batch_kernel(pid)(x)
    b = native_bounds(pid)
    ref = REFERENCE[(pid.suite, pid.index)]
    expected = np.array([ref(b.lower + row * (b.upper - b.lower)) for row in x], dtype=float)
    assert f.shape == (len(x), 2)
    assert (f == expected).all(), np.argwhere(f != expected)[:5]
    for i in (*range(20), *range(2000, len(x))):
        out = evaluate(pid, x[i])
        assert type(out) is tuple and len(out) == 2
        assert all(type(v) is float for v in out)
        assert out == tuple(f[i].tolist())


@pytest.mark.parametrize("pid", [p for p in list_problems() if p.dim == 2], ids=str)
def test_row_kernel_matches_batch_kernel_exactly(pid):
    """The same formula on one point's Python floats gives the batch's bits,
    signed zeros included."""
    x = _test_points(pid)
    edge = np.random.default_rng(pid.index).random(x.shape) < 0.2
    x[edge] = np.random.default_rng(pid.index + 1).choice([0.0, -0.0, 1.0], int(edge.sum()))
    want = batch_kernel(pid)(x)
    got = np.array([row_kernel(pid)(row) for row in x.tolist()])
    assert got.tobytes() == want.tobytes()

"""Tests for problem-instance composition and objective warping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobench import instance, specfun, transforms
from mobench.errors import DimensionError, DomainError, NumericError, ParameterError
from mobench.instance import (
    ProblemInstance,
    _warp_rows,
    evaluate_instance_batch,
    unwarp_objectives,
    warp_objectives,
)
from mobench.problems import ProblemId, list_problems
from mobench.specfun import (
    _betainc_array,
    _betainc_scalar,
    _betaincinv_array,
    _betaincinv_scalar,
)
from mobench.transforms import TransformSpec


def make_instance(problem=("zdt", 1, 2), search=None, objective=None):
    return ProblemInstance(
        problem=ProblemId(*problem),
        search_t=search or TransformSpec.identity(),
        objective_t=objective or TransformSpec.identity(),
    )


def evaluate_one(inst, x):
    """Both objective pairs of one point, through a one-point batch."""
    f_seen, f_orig = evaluate_instance_batch(inst, [x])
    return tuple(f_seen[0].tolist()), tuple(f_orig[0].tolist())


class TestEvaluateInstance:
    def test_neutral_composition(self):
        f_seen, f_orig = evaluate_one(make_instance(), [0.0, 0.0])
        assert f_seen == f_orig == (0.0, 1.0)

    def test_search_warp_composition(self):
        # BetaCdf(2,1) maps 0.5 -> 0.25; ZDT1 at (0.25, 0.25): g = 3.25
        inst = make_instance(search=TransformSpec.beta_cdf(2, 1))
        f_seen, f_orig = evaluate_one(inst, [0.5, 0.5])
        assert f_orig[0] == pytest.approx(0.25, abs=1e-12)
        expected_f2 = 3.25 * (1.0 - math.sqrt(0.25 / 3.25))
        assert f_orig[1] == pytest.approx(expected_f2, abs=1e-9)
        assert f_seen == f_orig

    def test_objective_warp_leaves_original(self):
        inst = make_instance(
            problem=("dtlz", 1, 2), objective=TransformSpec.beta_cdf(1, 2)
        )
        f_seen, f_orig = evaluate_one(inst, [0.5, 0.5])
        assert f_orig == pytest.approx((0.25, 0.25), abs=1e-12)
        # 1 - (1 - 0.25)^2 = 0.4375
        assert f_seen == pytest.approx((0.4375, 0.4375), abs=1e-12)

    def test_batch_matches_single(self):
        inst = make_instance(
            problem=("dtlz", 3, 2),
            search=TransformSpec.sphered_rotation(dim=2, seed=3),
            objective=TransformSpec.beta_cdf(0.5, 2.0),
        )
        rng = np.random.default_rng(0)
        pts = rng.random((50, 2))
        f_seen, f_orig = evaluate_instance_batch(inst, pts)
        assert f_seen.shape == f_orig.shape == (50, 2)
        for i in range(len(pts)):
            single_seen, single_orig = evaluate_one(inst, pts[i])
            # one-point and larger batches warp objectives with different
            # kernels, and the problem's gradient amplifies an ulp slightly
            np.testing.assert_allclose(f_orig[i], single_orig, rtol=1e-9)
            np.testing.assert_allclose(f_seen[i], single_seen, rtol=1e-9, atol=1e-12)

    def test_one_point_batch_warps_like_warp_objectives(self):
        t = TransformSpec.beta_cdf(0.5, 2.0)
        inst = make_instance(problem=("zdt", 3, 2), objective=t)
        rng = np.random.default_rng(3)
        for x in rng.random((50, 2)):
            f_seen, f_orig = evaluate_one(inst, x)
            assert f_seen == warp_objectives(t, f_orig)

    def test_batch_shape_error(self):
        with pytest.raises(DimensionError):
            evaluate_instance_batch(make_instance(), [0.5, 0.5])

    @pytest.mark.parametrize(
        "search",
        [
            TransformSpec.identity(),
            TransformSpec.beta_cdf(0.5, 2.0),
            TransformSpec.sphered_rotation(dim=2, seed=1),
        ],
        ids=["identity", "beta", "rotation"],
    )
    def test_batch_error_contract(self, search):
        inst = make_instance(search=search)
        pts = np.random.default_rng(4).random((50, 2))
        pts[17] = np.nan
        with pytest.raises(DomainError, match="must be finite"):
            evaluate_instance_batch(inst, pts)
        with pytest.raises(DomainError, match=r"must lie in \[0, 1\]"):
            evaluate_instance_batch(inst, [[0.3, 1.2]])
        with pytest.raises(DimensionError):
            evaluate_instance_batch(inst, np.full((4, 3), 0.5))
        with pytest.raises(DimensionError):
            evaluate_instance_batch(inst, [0.5, 0.5])

    def test_descriptor(self):
        inst = make_instance(
            problem=("dtlz", 1, 2),
            search=TransformSpec.sphered_rotation(dim=2, seed=3),
        )
        assert inst.descriptor == "dtlz1-d2__s:rot-seed3__o:id"
        assert make_instance().descriptor == "zdt1-d2__s:id__o:id"

    def test_invariant_errors(self):
        with pytest.raises(ParameterError):
            make_instance(objective=TransformSpec.sphered_rotation(dim=2, seed=1))
        with pytest.raises(DimensionError):
            make_instance(
                problem=("zdt", 1, 10),
                search=TransformSpec.sphered_rotation(dim=2, seed=1),
            )


class TestWarpObjectives:
    def test_identity_passthrough(self):
        assert warp_objectives(TransformSpec.identity(), (0.3, 7.2)) == (0.3, 7.2)

    def test_beta_inside_outside(self):
        got = warp_objectives(TransformSpec.beta_cdf(1, 2), (0.5, 2.0))
        assert got[0] == pytest.approx(0.75, abs=1e-12)
        assert got[1] == 2.0

    def test_endpoints_fixed(self):
        assert warp_objectives(TransformSpec.beta_cdf(2, 1), (1.0, 0.0)) == (1.0, 0.0)

    def test_unwarp_examples(self):
        assert unwarp_objectives(TransformSpec.identity(), (0.3, 7.2)) == (0.3, 7.2)
        got = unwarp_objectives(TransformSpec.beta_cdf(1, 2), (0.75, 2.0))
        assert got[0] == pytest.approx(0.5, abs=1e-12)
        assert got[1] == 2.0

    def test_roundtrip_random_pairs(self):
        rng = np.random.default_rng(5)
        for shape in [(1.0, 2.0), (2.0, 1.0), (2.0, 2.0), (0.5, 2.0)]:
            t = TransformSpec.beta_cdf(*shape)
            for _ in range(250):
                f = tuple(rng.uniform(-0.5, 2.5, size=2))
                back = unwarp_objectives(t, warp_objectives(t, f))
                assert back == pytest.approx(f, abs=1e-9)

    def test_continuity_at_unit_edges(self):
        t = TransformSpec.beta_cdf(0.2, 5.0)
        just_in = warp_objectives(t, (1.0, 0.0))
        just_out = warp_objectives(t, (1.0 + 1e-12, -1e-12))
        assert just_in[0] == 1.0 and just_in[1] == 0.0
        assert just_out[0] == pytest.approx(1.0, abs=1e-11)
        assert just_out[1] == pytest.approx(0.0, abs=1e-11)

    def test_non_finite_errors(self):
        t = TransformSpec.beta_cdf(2, 2)
        with pytest.raises(NumericError):
            warp_objectives(t, (float("nan"), 0.5))
        with pytest.raises(NumericError):
            unwarp_objectives(t, (float("inf"), 0.5))


def inside_only_warp_rows(t, f, inverse):
    """Reference: the earlier _warp_rows, which warped only the components
    inside [0, 1], on the scalar kernel for one row and on the array kernel
    for any larger batch."""
    a, b = t.shape.alpha, t.shape.beta
    scalar, array = (
        (_betaincinv_scalar, _betaincinv_array) if inverse else (_betainc_scalar, _betainc_array)
    )
    out = f.copy()
    inside = (f >= 0.0) & (f <= 1.0)
    if len(f) == 1:
        for j in np.flatnonzero(inside[0]):
            out[0, j] = scalar(a, b, float(f[0, j]))
    elif inside.any():
        out[inside] = array(a, b, f[inside])
    return out


class TestWarpRowsMatchesInsideOnly:
    """The whole-block warp keeps the bits of the inside-only warp on one row
    and on blocks of 9 or more rows."""

    @staticmethod
    def mixed_block(rng, n, inside_share):
        f = rng.uniform(1.0, 3.0, (n, 2)) * rng.choice([-1.0, 1.0], (n, 2))
        f[f < 0.0] += 1.0  # outside values on both sides of the interval
        mask = rng.random((n, 2)) < inside_share
        f[mask] = rng.random(int(mask.sum()))
        edges = rng.random((n, 2)) < 0.05
        f[edges] = rng.choice([0.0, 1.0], int(edges.sum()))
        return f

    @pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
    @pytest.mark.parametrize("shape", [(0.5, 2.0), (2.5, 0.7), (0.2, 5.0)])
    def test_bit_equal_on_one_row_and_nine_or_more(self, shape, inverse):
        t = TransformSpec.beta_cdf(*shape)
        rng = np.random.default_rng(29)
        cases = [np.array([pair]) for pair in
                 [(0.3, 0.8), (0.3, 1.7), (-0.4, 0.6), (-0.4, 2.0), (0.0, 1.0), (1.0, 0.25)]]
        for n in (9, 10, 16, 17, 50, 200):
            for share in (0.05, 0.3, 0.7, 1.0):  # 0.05: a large block, few inside values
                cases.append(self.mixed_block(rng, n, share))
        cases += [rng.random((1, 2)) for _ in range(50)]
        for f in cases:
            np.testing.assert_array_equal(
                _warp_rows(t, f, inverse), inside_only_warp_rows(t, f, inverse)
            )


def dominates(a, b):
    return a[0] <= b[0] and a[1] <= b[1] and a != b


class TestDominancePreservation:
    def test_dominance_preserved_exactly(self):
        rng = np.random.default_rng(11)
        n = 100_000
        fa = rng.random((n, 2))
        fb = rng.random((n, 2))
        for shape in [(0.2, 5.0), (5.0, 0.2), (2.0, 2.0)]:
            t = TransformSpec.beta_cdf(*shape)
            from mobench.specfun import reg_inc_beta

            wa = reg_inc_beta(fa, t.shape)
            wb = reg_inc_beta(fb, t.shape)
            before = (fa[:, 0] <= fb[:, 0]) & (fa[:, 1] <= fb[:, 1]) & np.any(fa != fb, axis=1)
            after = (wa[:, 0] <= wb[:, 0]) & (wa[:, 1] <= wb[:, 1]) & np.any(wa != wb, axis=1)
            np.testing.assert_array_equal(before, after)

    def test_pareto_front_invariance(self):
        # the same x points yield the same original-space non-dominated set
        # whether or not the objective warp is applied
        rng = np.random.default_rng(13)
        pts = rng.random((200, 2))
        plain = make_instance(problem=("zdt", 3, 2))
        warped = make_instance(problem=("zdt", 3, 2), objective=TransformSpec.beta_cdf(0.2, 5.0))
        f_plain = [evaluate_one(plain, p)[1] for p in pts]
        f_warped = [evaluate_one(warped, p)[1] for p in pts]
        assert f_plain == f_warped
        np.testing.assert_array_equal(
            evaluate_instance_batch(plain, pts)[1], evaluate_instance_batch(warped, pts)[1]
        )

    def test_search_bijectivity_spot_check(self):
        rng = np.random.default_rng(17)
        pts = rng.random((100_000, 2))
        from mobench.transforms import apply_forward

        out = apply_forward(TransformSpec.beta_cdf(0.2, 5.0), pts)
        n_in = len(np.unique(pts, axis=0))
        n_out = len(np.unique(out, axis=0))
        assert n_out >= n_in - 5  # allow for float collisions only


SHAPES = (0.2, 0.5, 1.0, 2.0, 5.0)
SPLIT_TRANSFORMS = ("identity", "beta_search", "beta_objective", "rotation")


@st.composite
def split_batches(draw):
    """An instance, a batch of points for it and cut positions that split it."""
    pid = draw(st.sampled_from(list_problems()))
    kind = draw(st.sampled_from(SPLIT_TRANSFORMS))
    search = objective = TransformSpec.identity()
    if kind == "rotation":
        search = TransformSpec.sphered_rotation(dim=pid.dim, seed=draw(st.integers(0, 20)))
    elif kind != "identity":
        beta = TransformSpec.beta_cdf(draw(st.sampled_from(SHAPES)), draw(st.sampled_from(SHAPES)))
        search, objective = (beta, objective) if kind == "beta_search" else (search, beta)
    n = draw(st.integers(1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.random((n, pid.dim))
    special = rng.random(x.shape) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    x[special] = rng.choice([0.0, -0.0, 0.5, 1.0, 1e-300, 1.0 - 2.0**-53], int(special.sum()))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=8))) if n > 1 else []
    return ProblemInstance(pid, search, objective), x, cuts


@given(case=split_batches())
@settings(max_examples=250, deadline=None)
def test_any_split_of_a_batch_gives_the_same_bits(case):
    """A point's f_seen and f_orig depend on the point alone, not on the
    batch it is evaluated in."""
    inst, x, cuts = case
    f_seen, f_orig = evaluate_instance_batch(inst, x)
    parts = [evaluate_instance_batch(inst, part) for part in np.split(x, cuts)]
    assert np.concatenate([p[0] for p in parts]).tobytes() == f_seen.tobytes()
    assert np.concatenate([p[1] for p in parts]).tobytes() == f_orig.tobytes()


def test_beta_warps_check_each_batch_once(monkeypatch):
    """A Beta search warp and a Beta objective warp each check their block
    once, inside the public reg_inc_beta they call by name; the instance
    does not check x_seen a second time. A one-row batch runs on Python
    floats: reg_inc_beta sees each value alone and checks it without numpy."""
    checks, warps = [], []
    check_unit = specfun.check_unit

    def counting(x, what="point coordinates"):
        checks.append(x.shape)
        check_unit(x, what)

    for module in (specfun, transforms, instance):
        monkeypatch.setattr(module, "check_unit", counting)
    for module in (transforms, instance):
        warp = module.reg_inc_beta
        monkeypatch.setattr(
            module, "reg_inc_beta", lambda x, p, warp=warp: warps.append(np.shape(x)) or warp(x, p)
        )
    beta = TransformSpec.beta_cdf(0.5, 2.0)
    inst = make_instance(problem=("zdt", 1, 2), search=beta, objective=beta)
    for n in (1, 10, 100):
        checks.clear()
        warps.clear()
        evaluate_instance_batch(inst, np.tile([0.3, 0.0], (n, 1)))  # objectives in [0, 1]
        if n == 1:
            assert checks == [] and warps == [()] * 4
        else:
            assert checks == [(n, 2), (n, 2)]
            assert warps == [(n, 2), (n, 2)]


# --- the one-row route on Python floats --------------------------------------

EDGES = [0.0, -0.0, 5e-324, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0]
ROW_SEARCH = [
    TransformSpec.identity(),
    TransformSpec.sphered_rotation(dim=2, seed=1),
    TransformSpec.sphered_rotation(dim=2, seed=3),
    *(TransformSpec.beta_cdf(a, b) for a in (0.5, 2.0) for b in (0.5, 2.0)),
]
ROW_OBJECTIVE = [TransformSpec.identity(), TransformSpec.beta_cdf(0.5, 2.0)]


def edge_rows(seed: int) -> np.ndarray:
    """Every pair of coordinates from 0, -0.0, 1, the doubles next to them
    and 0.5, then random points with some edge coordinates."""
    rng = np.random.default_rng(seed)
    pairs = np.array([[a, b] for a in EDGES for b in EDGES])
    x = rng.random((60, 2))
    edge = rng.random(x.shape) < 0.3
    x[edge] = rng.choice(EDGES, int(edge.sum()))
    return np.vstack([pairs, x])


@pytest.mark.parametrize("pid", [p for p in list_problems() if p.dim == 2], ids=str)
def test_one_row_route_gives_the_batch_bits(pid):
    """Each row evaluated alone, on Python floats, gives the bits it gets in
    a batch of all 109 rows, which runs on numpy arrays."""
    x = edge_rows(pid.index)
    for search in ROW_SEARCH:
        for objective in ROW_OBJECTIVE:
            inst = ProblemInstance(pid, search, objective)
            f_seen, f_orig = evaluate_instance_batch(inst, x)
            for i, row in enumerate(x):
                seen, orig = evaluate_instance_batch(inst, row[np.newaxis])
                assert seen.shape == orig.shape == (1, 2)
                assert orig.tobytes() == f_orig[i].tobytes(), (search, objective, row)
                assert seen.tobytes() == f_seen[i].tobytes(), (search, objective, row)


@pytest.mark.parametrize("problem,routed", [(("zdt", 3, 2), True), (("zdt", 3, 10), False)])
def test_shape_picks_the_route(monkeypatch, problem, routed):
    """A one-row batch of at most _ROW_MAX_DIM coordinates runs on Python
    floats; a one-row d=10 batch and any larger batch take the array route."""
    rows = []
    row_route = instance._evaluate_row
    monkeypatch.setattr(
        instance, "_evaluate_row", lambda inst, x: rows.append(len(x)) or row_route(inst, x)
    )
    rotation = TransformSpec.sphered_rotation(dim=problem[2], seed=1)
    inst = make_instance(problem=problem, search=rotation)
    evaluate_instance_batch(inst, np.full((1, problem[2]), 0.3))
    evaluate_instance_batch(inst, np.full((2, problem[2]), 0.3))
    assert rows == ([problem[2]] if routed else [])


def _raised(inst, x):
    try:
        evaluate_instance_batch(inst, x)
    except Exception as exc:  # noqa: BLE001 - the class and message are compared
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("search", ROW_SEARCH[:4], ids=["identity", "rot1", "rot3", "beta"])
def test_both_routes_raise_the_same_errors(monkeypatch, search):
    inst = make_instance(search=search, objective=TransformSpec.beta_cdf(2.0, 0.5))
    nan = math.nan
    bad = [
        [[nan, 0.5]], [[0.5, nan]], [[1.5, 0.5]], [[0.5, -1e-300]], [[2.0, nan]], [[nan, 2.0]],
        [[-0.0, 1.0 + 2.0**-52]], [[math.inf, 0.5]], [[0.5, 0.5, 0.5]], [0.5, 0.5], [[0.5]],
    ]
    routed = [_raised(inst, x) for x in bad]
    monkeypatch.setattr(instance, "_ROW_MAX_DIM", 0)  # every batch takes the array route
    assert routed == [_raised(inst, x) for x in bad]
    assert all(r is not None for r in routed)


def test_both_routes_reject_a_non_finite_objective(monkeypatch):
    inst = make_instance(problem=("zdt", 1, 2))
    object.__setattr__(inst, "_kernel", lambda x: np.full((len(x), 2), math.inf))
    object.__setattr__(inst, "_row_kernel", lambda x: (math.inf, 0.0))
    routed = _raised(inst, [[0.5, 0.5]])
    assert routed == (NumericError, "objective values must be finite")
    monkeypatch.setattr(instance, "_ROW_MAX_DIM", 0)
    assert _raised(inst, [[0.5, 0.5]]) == routed

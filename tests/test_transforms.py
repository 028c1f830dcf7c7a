"""Tests for unit-cube transformations and rotation sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobench.errors import (
    ConfigError,
    DimensionError,
    DomainError,
    ParameterError,
)
from mobench.specfun import ShapeParams
from mobench.transforms import (
    RotationMatrix,
    TransformSpec,
    apply_forward,
    apply_inverse,
    _ACCUMULATE_ROWS,
    _ROW_MAX_DIM,
    _clamp_unit,
    _rotate,
    _rotate_row,
    random_rotation,
    rotation_matrix_2d,
    transform_batch,
    transform_row,
)

GRID = [0.2, 0.5, 1.0, 2.0, 5.0]


def beta_pdf(a, b, x):
    ln_b = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    with np.errstate(divide="ignore", over="ignore"):
        return np.exp((a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x) - ln_b)


class TestForwardExamples:
    def test_identity(self):
        np.testing.assert_array_equal(
            apply_forward(TransformSpec.identity(), [0.2, 0.9]), [0.2, 0.9]
        )

    def test_beta_closed_form(self):
        got = apply_forward(TransformSpec.beta_cdf(1, 2), [0.5, 0.5])
        np.testing.assert_allclose(got, [0.75, 0.75], atol=1e-14)

    def test_rotation_quarter_turn_hand_trace(self):
        # z=(1,-1), u=(1,-1)/sqrt2, v=(1,1)/sqrt2, z'=(1,1)
        t = TransformSpec.sphered_rotation(rotation_matrix_2d(math.pi / 2))
        np.testing.assert_allclose(apply_forward(t, [1.0, 0.0]), [1.0, 1.0], atol=1e-12)

    def test_rotation_eighth_turn_hand_trace(self):
        # z=(1,1), u=(1,1)/sqrt2, v=(0,1), z'=(0,1)
        t = TransformSpec.sphered_rotation(rotation_matrix_2d(math.pi / 4))
        np.testing.assert_allclose(apply_forward(t, [1.0, 1.0]), [0.5, 1.0], atol=1e-12)

    def test_center_is_fixed(self):
        for seed in range(5):
            t = TransformSpec.sphered_rotation(dim=2, seed=seed)
            np.testing.assert_array_equal(apply_forward(t, [0.5, 0.5]), [0.5, 0.5])

    def test_beta_endpoints_exact(self):
        for a in GRID:
            for b in GRID:
                t = TransformSpec.beta_cdf(a, b)
                np.testing.assert_array_equal(apply_forward(t, [0.0, 1.0]), [0.0, 1.0])


class TestInverseExamples:
    def test_identity(self):
        np.testing.assert_array_equal(
            apply_inverse(TransformSpec.identity(), [0.3, 0.4]), [0.3, 0.4]
        )

    def test_beta_closed_form(self):
        got = apply_inverse(TransformSpec.beta_cdf(2, 1), [0.25, 0.25])
        np.testing.assert_allclose(got, [0.5, 0.5], atol=1e-12)


def _transform_suite(dim):
    suite = [TransformSpec.identity()]
    suite += [TransformSpec.beta_cdf(0.5, 2.0), TransformSpec.beta_cdf(2.0, 0.5),
              TransformSpec.beta_cdf(2.0, 2.0)]
    suite += [TransformSpec.sphered_rotation(dim=dim, seed=s) for s in (3, 5, 7, 11)]
    return suite


class TestBijectivity:
    @pytest.mark.parametrize("dim", [2, 10])
    def test_roundtrip_random_points(self, dim):
        rng = np.random.default_rng(101)
        pts = rng.random((1000, dim))
        for t in _transform_suite(dim):
            back = apply_inverse(t, apply_forward(t, pts))
            np.testing.assert_allclose(back, pts, atol=1e-9, rtol=0)
            fwd = apply_forward(t, apply_inverse(t, pts))
            np.testing.assert_allclose(fwd, pts, atol=1e-9, rtol=0)

    def test_beta_grid_roundtrip_at_float64_floor(self):
        # Full paper grid; the tolerance is the float64 representation floor
        # near steep tails, 1e-9 elsewhere.
        rng = np.random.default_rng(7)
        pts = rng.random((500, 2))
        for a in GRID:
            for b in GRID:
                t = TransformSpec.beta_cdf(a, b)
                fwd = apply_forward(t, pts)
                back = apply_inverse(t, fwd)
                err = np.abs(back - pts)
                floor = np.spacing(np.maximum(fwd, 0.5)) / np.maximum(
                    beta_pdf(a, b, pts), 1e-300
                )
                assert np.all(err <= np.maximum(1e-9, 8.0 * floor)), (a, b, err.max())

    def test_single_point_roundtrip(self):
        t = TransformSpec.beta_cdf(2.0, 0.5)
        x = np.array([0.3, 0.8])
        np.testing.assert_allclose(
            apply_inverse(t, apply_forward(t, x)), x, atol=1e-9
        )


def _signed_permutation(dim, rng):
    perm = rng.permutation(dim)
    signs = rng.choice([-1.0, 1.0], size=dim)
    m = np.zeros((dim, dim))
    m[np.arange(dim), perm] = signs
    if np.linalg.det(m) < 0:
        m[0] = -m[0]
    return m


class TestRotationStructure:
    @pytest.mark.parametrize("dim", [2, 10])
    def test_shell_preservation(self, dim):
        rng = np.random.default_rng(13)
        pts = rng.random((500, dim))
        pts[:50, 0] = 1.0  # force some surface points
        t = TransformSpec.sphered_rotation(dim=dim, seed=4)
        out = apply_forward(t, pts)
        shell_in = np.max(np.abs(2.0 * pts - 1.0), axis=1)
        shell_out = np.max(np.abs(2.0 * out - 1.0), axis=1)
        np.testing.assert_allclose(shell_out, shell_in, atol=1e-12, rtol=0)

    def test_surface_maps_to_surface(self):
        rng = np.random.default_rng(19)
        pts = rng.random((200, 2))
        pts[:, 0] = np.where(rng.random(200) < 0.5, 0.0, 1.0)
        t = TransformSpec.sphered_rotation(rotation_matrix_2d(0.7))
        out = apply_forward(t, pts)
        np.testing.assert_allclose(
            np.max(np.abs(2.0 * out - 1.0), axis=1), 1.0, atol=1e-12
        )

    @pytest.mark.parametrize("dim", [2, 10])
    def test_right_angle_exactness(self, dim):
        rng = np.random.default_rng(23)
        pts = rng.random((300, dim))
        for _ in range(5):
            m = _signed_permutation(dim, rng)
            t = TransformSpec.sphered_rotation(RotationMatrix(dim, m))
            got = apply_forward(t, pts)
            expect = ((2.0 * pts - 1.0) @ m.T + 1.0) / 2.0
            np.testing.assert_allclose(got, expect, atol=1e-12, rtol=0)

    def test_beta_separability(self):
        rng = np.random.default_rng(29)
        pts = rng.random((100, 10))
        perm = rng.permutation(10)
        t = TransformSpec.beta_cdf(0.5, 2.0)
        np.testing.assert_array_equal(
            apply_forward(t, pts[:, perm]), apply_forward(t, pts)[:, perm]
        )

    def test_neutral_elements(self):
        rng = np.random.default_rng(31)
        pts = rng.random((200, 2))
        neutral_beta = TransformSpec.beta_cdf(1.0, 1.0)
        neutral_rot = TransformSpec.sphered_rotation(RotationMatrix(2, np.eye(2)))
        np.testing.assert_allclose(apply_forward(neutral_beta, pts), pts, atol=1e-12)
        np.testing.assert_allclose(apply_forward(neutral_rot, pts), pts, atol=1e-12)
        assert neutral_beta.is_neutral and neutral_rot.is_neutral
        assert TransformSpec.identity().is_neutral
        assert not TransformSpec.beta_cdf(0.5, 1.0).is_neutral

    @pytest.mark.parametrize("dim", [2, 3, 10])
    @pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
    def test_rows_alone_and_in_a_batch_give_the_same_bits(self, dim, inverse):
        # batches on both sides of _ACCUMULATE_ROWS run different numpy
        # calls that must add R u's products in the same order
        rng = np.random.default_rng(19)
        pts = rng.random((3 * _ACCUMULATE_ROWS, dim))
        special = rng.random(pts.shape) < 0.1
        pts[special] = rng.choice([0.0, -0.0, 0.5, 1.0], int(special.sum()))
        t = TransformSpec.sphered_rotation(dim=dim, seed=6)
        apply = apply_inverse if inverse else apply_forward
        alone = np.array([apply(t, p) for p in pts])
        for n in (_ACCUMULATE_ROWS, _ACCUMULATE_ROWS + 1, len(pts)):
            assert apply(t, pts[:n]).tobytes() == alone[:n].tobytes(), n

    @pytest.mark.parametrize("dim", range(2, _ROW_MAX_DIM + 1))
    @pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
    def test_one_row_on_python_floats_equals_rotate(self, dim, inverse):
        rng = np.random.default_rng(40 + dim)
        pts = rng.random((400, dim))
        special = rng.random(pts.shape) < 0.2
        pts[special] = rng.choice([0.0, -0.0, 0.5, 1.0], int(special.sum()))
        pts[0] = 0.5  # the centre, which the rotation fixes
        t = TransformSpec.sphered_rotation(dim=dim, seed=8)
        m = t.rotation.entries.T if inverse else t.rotation.entries
        for p in pts:
            want = _rotate(p[np.newaxis], m)
            assert np.array([_rotate_row(p.tolist(), m.tolist())]).tobytes() == want.tobytes()
            got = transform_batch(t, p[np.newaxis], inverse)
            assert got.tobytes() == _clamp_unit(want).tobytes()
            if not inverse:
                assert np.array([transform_row(t, p.tolist())]).tobytes() == got.tobytes()


class TestRandomRotation:
    def test_deterministic_in_seed(self):
        a = random_rotation(2, 42)
        b = random_rotation(2, 42)
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_invariants_dim10(self):
        for seed in range(20):
            r = random_rotation(10, seed)
            err = np.max(np.abs(r.entries.T @ r.entries - np.eye(10)))
            assert err <= 1e-12
            assert abs(np.linalg.det(r.entries) - 1.0) <= 1e-10

    def test_haar_column_means(self):
        # entries of a Haar rotation have zero mean; MC check over seeds
        acc = np.zeros((2, 2))
        n = 10_000
        for seed in range(n):
            acc += random_rotation(2, seed).entries
        assert np.max(np.abs(acc / n)) < 0.05

    def test_dim_error(self):
        with pytest.raises(ParameterError):
            random_rotation(1, 0)


class TestSpecPlumbing:
    def test_descriptors(self):
        assert TransformSpec.identity().descriptor() == "id"
        assert TransformSpec.beta_cdf(0.5, 2.0).descriptor() == "bcdf-a0.5-b2"
        assert TransformSpec.sphered_rotation(dim=2, seed=3).descriptor() == "rot-seed3"

    def test_config_roundtrip(self):
        specs = [
            TransformSpec.identity(),
            TransformSpec.beta_cdf(0.2, 5.0),
            TransformSpec.sphered_rotation(dim=2, seed=3),
        ]
        for t in specs:
            back = TransformSpec.from_config(t.to_config())
            assert back.kind == t.kind
            assert back.descriptor() == t.descriptor()
        rot = TransformSpec.from_config({"kind": "sphered_rotation", "seed": 5}, dim=10)
        assert rot.rotation.dim == 10

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            TransformSpec.from_config({"kind": "nope"})
        with pytest.raises(ConfigError):
            TransformSpec.from_config({"kind": "beta_cdf", "alpha": 1.0})
        with pytest.raises(ConfigError):
            TransformSpec.from_config({"kind": "sphered_rotation", "seed": 1})
        with pytest.raises(ConfigError):
            TransformSpec.from_config(
                {"kind": "sphered_rotation", "dim": 2, "seed": 1}, dim=10
            )
        with pytest.raises(ConfigError):
            TransformSpec.sphered_rotation(rotation_matrix_2d(0.3)).to_config()

    def test_kind_field_consistency(self):
        with pytest.raises(ParameterError):
            TransformSpec(kind="identity", shape=ShapeParams(1, 1))
        with pytest.raises(ParameterError):
            TransformSpec(kind="beta_cdf")
        with pytest.raises(ParameterError):
            TransformSpec(kind="wat")

    def test_domain_and_dimension_errors(self):
        t = TransformSpec.sphered_rotation(dim=2, seed=1)
        with pytest.raises(DomainError):
            apply_forward(t, [1.5, 0.0])
        with pytest.raises(DomainError):
            apply_forward(t, [float("nan"), 0.0])
        with pytest.raises(DimensionError):
            apply_forward(t, [0.1, 0.2, 0.3])
        bad = np.eye(2)
        bad[0, 0] = 2.0
        with pytest.raises(ParameterError):
            RotationMatrix(2, bad)
        with pytest.raises(ParameterError):
            # reflection: orthogonal but det -1
            RotationMatrix(2, np.array([[0.0, 1.0], [1.0, 0.0]]))


@given(
    x=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
    seed=st.integers(0, 50),
)
@settings(max_examples=200, deadline=None)
def test_rotation_roundtrip_property(x, seed):
    t = TransformSpec.sphered_rotation(dim=2, seed=seed)
    back = apply_inverse(t, apply_forward(t, np.array(x)))
    np.testing.assert_allclose(back, np.array(x), atol=1e-9)


@given(
    x=st.floats(0.0, 1.0),
    y=st.floats(0.0, 1.0),
    a=st.floats(0.5, 4.0),
    b=st.floats(0.5, 4.0),
)
@settings(max_examples=200, deadline=None)
def test_beta_transform_monotone_per_coordinate(x, y, a, b):
    t = TransformSpec.beta_cdf(a, b)
    fx = apply_forward(t, np.array([x, 0.5]))[0]
    fy = apply_forward(t, np.array([y, 0.5]))[0]
    if x < y:
        assert fx <= fy
    elif x > y:
        assert fx >= fy


@pytest.mark.parametrize("shape", [(0.5, 2.0), (2.0, 0.5), (0.2, 5.0)])
def test_one_beta_row_on_python_floats_equals_the_batch(shape):
    rng = np.random.default_rng(61)
    pts = rng.random((300, 3))
    special = rng.random(pts.shape) < 0.2
    pts[special] = rng.choice([0.0, -0.0, 5e-324, 1.0 - 2.0**-53, 1.0], int(special.sum()))
    t = TransformSpec.beta_cdf(*shape)
    want = transform_batch(t, pts, inverse=False)
    got = np.array([transform_row(t, p.tolist()) for p in pts])
    assert got.tobytes() == want.tobytes()

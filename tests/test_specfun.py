"""Tests for the regularized incomplete beta function and its inverse."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from mobench.errors import DomainError, NumericError, ParameterError
from mobench.specfun import (
    _CF_EPS,
    _CF_TINY,
    _MAX_ITER,
    ShapeParams,
    _betainc_array,
    _betainc_scalar,
    _betaincinv_array,
    _betaincinv_scalar,
    _SCALAR_MAX,
    _SCALAR_MAX_INV,
    inv_reg_inc_beta,
    reg_inc_beta,
)

# Frozen oracle values: adaptive quadrature of the Beta density
# (scipy.integrate.quad, epsabs=1e-14), independent of the continued fraction.
QUAD_FROZEN = [
    (0.2, 5.0, 0.1, 0.8754794623386303),
    (0.2, 5.0, 0.7, 0.9998187202094068),
    (5.0, 0.2, 0.9, 0.12452053766137658),
    (0.5, 0.5, 0.25, 0.33333333333334025),
    (2.0, 2.0, 0.3, 0.21600000000000008),
    (0.2, 0.2, 0.5, 0.5000000000000071),
    (5.0, 5.0, 0.62, 0.773776343757424),
    (1.0, 3.0, 0.41, 0.7946210000000005),
    (2.5, 0.7, 0.33, 0.038163928831798866),
    (0.7, 2.5, 0.85, 0.9949329287369812),
]

GRID = [0.2, 0.5, 1.0, 2.0, 5.0]


def beta_pdf(a, b, x):
    ln_b = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    with np.errstate(divide="ignore", over="ignore"):
        return np.exp((a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x) - ln_b)


def quad_cdf(a, b, x):
    ln_b = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    val, _ = integrate.quad(
        lambda t: math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - ln_b),
        0.0,
        x,
        epsabs=1e-14,
        epsrel=1e-13,
        limit=400,
    )
    return val


class TestRegIncBeta:
    def test_identity_distribution(self):
        assert reg_inc_beta(0.3, ShapeParams(1, 1)) == pytest.approx(0.3, abs=1e-15)

    def test_symmetric_midpoint(self):
        assert reg_inc_beta(0.5, ShapeParams(2, 2)) == pytest.approx(0.5, abs=1e-14)

    def test_closed_form_beta_one(self):
        assert reg_inc_beta(0.5, ShapeParams(2, 1)) == pytest.approx(0.25, abs=1e-14)

    def test_closed_form_alpha_one(self):
        assert reg_inc_beta(0.5, ShapeParams(1, 2)) == pytest.approx(0.75, abs=1e-14)

    def test_arcsine_law(self):
        # I_x(1/2, 1/2) = (2/pi) asin(sqrt(x))
        got = reg_inc_beta(0.25, ShapeParams(0.5, 0.5))
        assert got == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert got == pytest.approx(quad_cdf(0.5, 0.5, 0.25), abs=1e-12)

    @pytest.mark.parametrize("a,b,x,expected", QUAD_FROZEN)
    def test_against_quadrature(self, a, b, x, expected):
        assert reg_inc_beta(x, ShapeParams(a, b)) == pytest.approx(expected, abs=2e-12)

    def test_exact_endpoints(self):
        for a in GRID:
            for b in GRID:
                p = ShapeParams(a, b)
                assert reg_inc_beta(0.0, p) == 0.0
                assert reg_inc_beta(1.0, p) == 1.0

    def test_closed_forms_random(self):
        rng = np.random.default_rng(3)
        xs = rng.random(200)
        for a in GRID:
            np.testing.assert_allclose(
                reg_inc_beta(xs, ShapeParams(a, 1.0)), xs**a, atol=1e-12
            )
            np.testing.assert_allclose(
                reg_inc_beta(xs, ShapeParams(1.0, a)), 1.0 - (1.0 - xs) ** a, atol=1e-12
            )

    def test_reflection_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a, b = rng.uniform(0.2, 5.0, size=2)
            x = rng.random()
            lhs = reg_inc_beta(x, ShapeParams(a, b))
            rhs = 1.0 - reg_inc_beta(1.0 - x, ShapeParams(b, a))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_monotone_nondecreasing(self):
        rng = np.random.default_rng(5)
        for a in GRID:
            for b in GRID:
                xs = np.sort(rng.random(100))
                ys = reg_inc_beta(xs, ShapeParams(a, b))
                assert np.all(np.diff(ys) >= 0.0)
                # strict in the open interval
                interior = (xs > 0) & (xs < 1)
                assert np.all(np.diff(ys[interior]) > 0.0)

    def test_array_matches_scalar_to_ulp(self):
        # an array above the scalar cutoff gives each value's 0-d bits
        rng = np.random.default_rng(9)
        xs = rng.random(2 * _SCALAR_MAX)
        for a, b in [(0.2, 5.0), (5.0, 0.2), (1.0, 1.0), (2.5, 0.7)]:
            p = ShapeParams(a, b)
            batch = reg_inc_beta(xs, p)
            singles = np.array([reg_inc_beta(float(x), p) for x in xs])
            np.testing.assert_array_equal(batch, singles)

    def test_domain_errors(self):
        p = ShapeParams(2, 2)
        with pytest.raises(DomainError):
            reg_inc_beta(-0.1, p)
        with pytest.raises(DomainError):
            reg_inc_beta(1.1, p)
        with pytest.raises(DomainError):
            reg_inc_beta(float("nan"), p)
        with pytest.raises(DomainError):
            reg_inc_beta(np.array([0.5, 2.0]), p)

    def test_parameter_errors(self):
        for bad in [0.0, -1.0, float("nan"), float("inf")]:
            with pytest.raises(ParameterError):
                ShapeParams(bad, 1.0)
            with pytest.raises(ParameterError):
                ShapeParams(1.0, bad)


class TestInverse:
    def test_identity_distribution(self):
        assert inv_reg_inc_beta(0.3, ShapeParams(1, 1)) == pytest.approx(0.3, abs=1e-12)

    def test_closed_form_inverse(self):
        assert inv_reg_inc_beta(0.25, ShapeParams(2, 1)) == pytest.approx(0.5, abs=1e-12)

    def test_exact_endpoints(self):
        for a in GRID:
            for b in GRID:
                p = ShapeParams(a, b)
                assert inv_reg_inc_beta(0.0, p) == 0.0
                assert inv_reg_inc_beta(1.0, p) == 1.0

    def test_monotone_in_q(self):
        rng = np.random.default_rng(17)
        for a, b in [(0.2, 5.0), (5.0, 0.2), (0.2, 0.2), (5.0, 5.0), (2.0, 0.5)]:
            qs = np.sort(rng.random(100))
            xs = inv_reg_inc_beta(qs, ShapeParams(a, b))
            assert np.all(np.diff(xs) >= 0.0)

    def test_residual_at_float64_floor(self):
        # |I(x) - q| is bounded by the density at the returned abscissa times
        # a few float64 grid steps; away from the steep tails that floor is
        # far below 1e-12.
        rng = np.random.default_rng(23)
        for a in GRID:
            for b in GRID:
                p = ShapeParams(a, b)
                qs = rng.random(200)
                xs = inv_reg_inc_beta(qs, p)
                res = np.abs(reg_inc_beta(xs, p) - qs)
                floor = beta_pdf(a, b, xs) * np.spacing(np.maximum(xs, 0.5))
                assert np.all(res <= np.maximum(1e-12, 4.0 * floor))

    def test_roundtrip_well_conditioned_region(self):
        # x-space roundtrip at 1e-9, on the region where float64 can
        # represent it: the error floor is spacing(q)/pdf(x) and is only
        # breached within ~1e-3 of x=1 for small beta / large alpha tails.
        rng = np.random.default_rng(29)
        for a in GRID:
            for b in GRID:
                p = ShapeParams(a, b)
                xs = rng.uniform(0.0, 0.99, size=400)
                qs = reg_inc_beta(xs, p)
                back = inv_reg_inc_beta(qs, p)
                err = np.abs(back - xs)
                floor = np.spacing(np.maximum(qs, 0.5)) / np.maximum(
                    beta_pdf(a, b, xs), 1e-300
                )
                assert np.all(err <= np.maximum(1e-9, 8.0 * floor)), (a, b, err.max())

    def test_roundtrip_spec_sample(self):
        # sampled roundtrip: 1000 random (x, alpha, beta) draws
        rng = np.random.default_rng(0)
        bad = 0
        for _ in range(1000):
            a, b = rng.uniform(0.2, 5.0, size=2)
            x = rng.random()
            p = ShapeParams(a, b)
            back = inv_reg_inc_beta(reg_inc_beta(x, p), p)
            floor = np.spacing(max(reg_inc_beta(x, p), 0.5)) / max(
                beta_pdf(a, b, x), 1e-300
            )
            if abs(back - x) > max(1e-9, 8.0 * floor):
                bad += 1
        assert bad == 0

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(31)
        # an array above the scalar cutoff gives each value's 0-d bits
        qs = rng.random(2 * _SCALAR_MAX_INV)
        for a, b in [(0.2, 5.0), (5.0, 0.2), (2.0, 2.0)]:
            p = ShapeParams(a, b)
            batch = inv_reg_inc_beta(qs, p)
            singles = np.array([inv_reg_inc_beta(float(q), p) for q in qs])
            np.testing.assert_array_equal(batch, singles)

    def test_tiny_q_on_the_grid(self):
        # q = 10^-U(1, 300): the answer can be subnormal when alpha < 1, and
        # Newton steps alone leave some brackets open after _MAX_ITER steps
        rng = np.random.default_rng(53)
        for a in GRID:
            for b in GRID:
                q = 10.0 ** -rng.uniform(1.0, 300.0, 200)
                want = np.array([_betaincinv_scalar(a, b, v) for v in q.tolist()])
                assert _betaincinv_array(a, b, q).tobytes() == want.tobytes(), (a, b)
                assert np.all((want >= 0.0) & (want < 1.0))
        for a, b, q in [(0.2, 0.5, 3.03e-65), (1.0, 0.2, 1.4780097655371344e-251),
                        (5.0, 0.2, 1.389293456520836e-202)]:
            x = inv_reg_inc_beta(q, ShapeParams(a, b))
            below, above = math.nextafter(x, 0.0), math.nextafter(x, 1.0)
            assert _betainc_scalar(a, b, below) <= q <= _betainc_scalar(a, b, above), (a, b)
        assert inv_reg_inc_beta(3.03e-65, ShapeParams(0.2, 0.5)) < 2.2250738585072014e-308

    def test_domain_errors(self):
        p = ShapeParams(2, 2)
        with pytest.raises(DomainError):
            inv_reg_inc_beta(-0.5, p)
        with pytest.raises(DomainError):
            inv_reg_inc_beta(2.0, p)


KERNELS = {  # public function, scalar kernel, array kernel, scalar cutoff
    "forward": (reg_inc_beta, _betainc_scalar, _betainc_array, _SCALAR_MAX),
    "inverse": (inv_reg_inc_beta, _betaincinv_scalar, _betaincinv_array, _SCALAR_MAX_INV),
}


def edge_packed(rng, n):
    """n values in [0, 1]: uniform ones, ones packed near 0 and near 1, and
    the endpoints, 0 with either sign."""
    v = rng.random(n)
    third = n // 3
    v[:third] = 10.0 ** -rng.uniform(1.0, 40.0, third)
    v[third : 2 * third] = 1.0 - 10.0 ** -rng.uniform(1.0, 16.0, third)
    ends = rng.random(n) < 0.02
    v[ends] = rng.choice([0.0, -0.0, 1.0], int(ends.sum()))
    return rng.permutation(v)


class TestKernelRule:
    """The size of an array picks the kernel, for speed alone: every size
    gives the per-value scalar kernel's bits."""

    @pytest.mark.parametrize("direction", sorted(KERNELS))
    @pytest.mark.parametrize("a,b", [(0.5, 2.0), (2.5, 0.7)])
    def test_size_alone_picks_the_kernel(self, direction, a, b):
        fn, scalar, _, n = KERNELS[direction]
        p = ShapeParams(a, b)
        rng = np.random.default_rng(43)
        half = n // 2
        shapes = [(1,), (n,), (n + 1,), (half, 2), (half + 1, 2), (5000,)]
        for shape in shapes:
            x = edge_packed(rng, int(np.prod(shape))).reshape(shape)
            got = fn(x, p)
            assert got.shape == shape and got.dtype == np.float64
            want = np.reshape([scalar(a, b, v) for v in x.ravel().tolist()], shape)
            assert got.tobytes() == want.tobytes(), shape

    @pytest.mark.parametrize("direction", sorted(KERNELS))
    def test_array_kernel_equals_scalar_kernel_on_the_grid(self, direction):
        _, scalar, array, _ = KERNELS[direction]
        rng = np.random.default_rng(47)
        for a in GRID:
            for b in GRID:
                x = edge_packed(rng, 400)
                want = np.array([scalar(a, b, v) for v in x.tolist()])
                assert array(a, b, x).tobytes() == want.tobytes(), (a, b)

    @pytest.mark.parametrize("direction", sorted(KERNELS))
    def test_zero_d_gives_a_float_and_empty_gives_an_array(self, direction):
        fn, scalar, _, _ = KERNELS[direction]
        p = ShapeParams(0.5, 2.0)
        got = fn(np.float64(0.37), p)
        assert type(got) is float and got == scalar(0.5, 2.0, 0.37)
        empty = fn(np.empty((0, 2)), p)
        assert empty.shape == (0, 2) and empty.dtype == np.float64

    @pytest.mark.parametrize("direction", sorted(KERNELS))
    def test_unit_check_on_both_kernels(self, direction):
        fn, _, _, n_max = KERNELS[direction]
        p = ShapeParams(2.0, 2.0)
        for n in (1, n_max, n_max + 1, 2 * n_max):
            bad = np.full(n, 0.5)
            bad[-1] = np.nan
            with pytest.raises(DomainError, match="must be finite"):
                fn(bad, p)
            bad[-1] = 1.5
            with pytest.raises(DomainError, match=r"must lie in \[0, 1\]"):
                fn(bad, p)


@given(
    x=st.floats(0.0, 1.0),
    a=st.floats(0.2, 5.0),
    b=st.floats(0.2, 5.0),
)
@settings(max_examples=300, deadline=None)
def test_cdf_bounds_property(x, a, b):
    v = reg_inc_beta(x, ShapeParams(a, b))
    assert 0.0 <= v <= 1.0


@given(
    x1=st.floats(0.001, 0.999),
    x2=st.floats(0.001, 0.999),
    a=st.floats(0.2, 5.0),
    b=st.floats(0.2, 5.0),
)
@settings(max_examples=300, deadline=None)
def test_strict_monotonicity_property(x1, x2, a, b):
    if x1 == x2:
        return
    lo, hi = (x1, x2) if x1 < x2 else (x2, x1)
    p = ShapeParams(a, b)
    assert reg_inc_beta(lo, p) <= reg_inc_beta(hi, p)
    if hi - lo > 1e-9:
        assert reg_inc_beta(lo, p) < reg_inc_beta(hi, p)


# --- the scalar kernel against its untabulated form --------------------------


def _reference_lentz_cf(a, b, x):
    """The continued fraction with every coefficient computed in the loop."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise NumericError("no convergence")


def _reference_betainc_scalar(a, b, x):
    """I_x(a, b) with log B(a, b) computed for each value."""
    if x == 0.0 or x == 1.0:
        return x
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    if x < (a + 1.0) / (a + b + 2.0):
        lbt = -log_beta + a * math.log(x) + b * math.log1p(-x)
        return min(1.0, math.exp(lbt) * _reference_lentz_cf(a, b, x) / a)
    xc = 1.0 - x
    lbt = -log_beta + b * math.log(xc) + a * math.log1p(-xc)
    return max(0.0, 1.0 - math.exp(lbt) * _reference_lentz_cf(b, a, xc) / b)


def test_tabulated_scalar_kernel_equals_the_reference_on_the_grid():
    """Per-shape coefficient tables and log B(a, b) give the bits of the
    loop that computes them for every value, near 0 and 1 too."""
    rng = np.random.default_rng(53)
    for a in GRID:
        for b in GRID:
            x = edge_packed(rng, 900).tolist()
            want = np.array([_reference_betainc_scalar(a, b, v) for v in x])
            assert np.array([_betainc_scalar(a, b, v) for v in x]).tobytes() == want.tobytes()


@pytest.mark.parametrize("direction", sorted(KERNELS))
def test_python_float_takes_the_scalar_kernel_without_numpy(direction):
    fn, scalar, _, _ = KERNELS[direction]
    p = ShapeParams(0.5, 2.0)
    for v in (0.0, -0.0, 5e-324, 0.37, 1.0 - 2.0**-53, 1.0):
        got = fn(v, p)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(scalar(0.5, 2.0, v)).tobytes()
        assert np.float64(got).tobytes() == fn(np.array([v]), p).tobytes()
    for v in (math.nan, math.inf, -1e-300, 1.0 + 2.0**-52):
        with pytest.raises(DomainError) as from_float:
            fn(v, p)
        with pytest.raises(DomainError) as from_array:
            fn(np.float64(v), p)
        assert str(from_float.value) == str(from_array.value)

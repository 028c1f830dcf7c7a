"""Regularized incomplete beta function I_x(a, b) and its inverse.

Evaluation uses the continued-fraction expansion with a modified Lentz
iteration and the usual symmetry switch at x > (a+1)/(a+b+2); the inverse is
a bracketed Newton iteration that falls back to bisection. Each has a scalar
kernel and a numpy array kernel that implement the same algorithm and give
the same bits on every value, signed zeros included: the array kernels run
the same sequence of IEEE operations and call the C library's log, log1p
and exp once per element, as the scalar kernels do. This module alone
chooses between them, for speed only: a 0-d input or a small array runs the
scalar kernel value by value, where it beats numpy's per-call dispatch; a
larger array runs the array kernel. The module also holds the one [0, 1]
input check (`check_unit`) that the transform, problem and instance layers
share, and the per-value helpers of the problem and operator layers: `_libm`
applies a math-module function to each value of an array, and `_pow` is
numpy's ** on Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

import numpy as np

from .errors import DomainError, NumericError, ParameterError

__all__ = ["ShapeParams", "reg_inc_beta", "inv_reg_inc_beta"]

_CF_EPS = 1e-14  # relative convergence target for the continued fraction
_CF_TINY = 1e-300  # Lentz underflow guard
_MAX_ITER = 200
# Arrays of at most this many values run the scalar kernel value by value,
# forward and inverse: the crossovers of bench/specfun_kernels.py (BENCH_11.json).
_SCALAR_MAX = 80
_SCALAR_MAX_INV = 320


@dataclass(frozen=True)
class ShapeParams:
    """Shape parameters of a Beta distribution; both must be positive."""

    alpha: float
    beta: float

    def __post_init__(self):
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ParameterError(f"{name} must be a positive real, got {value!r}")
            if not math.isfinite(value) or value <= 0.0:
                raise ParameterError(f"{name} must be a positive real, got {value!r}")


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _cf_table(a: float, b: float) -> tuple[float, float, tuple]:
    """(a + b, a + 1, steps) for _lentz_cf: step m - 1 holds the parts of
    iteration m's two coefficients that do not depend on x, computed as the
    iteration's formula computes them."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    steps = []
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        steps.append((m * (b - m), (qam + m2) * (a + m2), -(a + m) * (qab + m), (a + m2) * (qap + m2)))
    return qab, qap, tuple(steps)


@lru_cache(maxsize=256)
def _shape_tables(a: float, b: float) -> tuple[float, tuple, tuple]:
    """-log B(a, b) and the continued fraction's tables for (a, b) and (b, a)."""
    return -_log_beta(a, b), _cf_table(a, b), _cf_table(b, a)


def _lentz_cf(table: tuple, x: float, a: float, b: float) -> float:
    """Continued fraction of the incomplete beta integral (NR 6.4 form), with
    the coefficients' x-free parts from table = _cf_table(a, b)."""
    qab, qap, steps = table
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for even_num, even_den, odd_num, odd_den in steps:
        aa = even_num * x / even_den
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        aa = odd_num * x / odd_den
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
    raise NumericError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def _betainc_scalar(a: float, b: float, x: float) -> float:
    if x == 0.0 or x == 1.0:
        return x
    neg_log_beta, cf_ab, cf_ba = _shape_tables(a, b)
    if x < (a + 1.0) / (a + b + 2.0):
        lbt = neg_log_beta + a * math.log(x) + b * math.log1p(-x)
        return min(1.0, math.exp(lbt) * _lentz_cf(cf_ab, x, a, b) / a)
    xc = 1.0 - x
    lbt = neg_log_beta + b * math.log(xc) + a * math.log1p(-xc)
    return max(0.0, 1.0 - math.exp(lbt) * _lentz_cf(cf_ba, xc, b, a) / b)


def _libm(fn, a: np.ndarray, *args) -> np.ndarray:
    """fn, a function of the math module, applied to each value of a; args are its further arguments."""
    values = a.ravel().tolist()
    out = map(fn, values, *(repeat(arg, len(values)) for arg in args))
    return np.fromiter(out, float, len(values)).reshape(a.shape)


def _pow(values: list[float], exponent: float) -> list[float]:
    """numpy's ** on Python floats; it gives the same bits at every array length."""
    return (np.array(values) ** exponent).tolist()


def _lentz_cf_array(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    np.copyto(d, _CF_TINY, where=np.abs(d) < _CF_TINY)
    d = 1.0 / d
    h = d.copy()
    active = np.ones(x.shape, dtype=bool)
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        np.copyto(d, _CF_TINY, where=np.abs(d) < _CF_TINY)
        c = 1.0 + aa / c
        np.copyto(c, _CF_TINY, where=np.abs(c) < _CF_TINY)
        d = 1.0 / d
        h = np.where(active, h * (d * c), h)
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        np.copyto(d, _CF_TINY, where=np.abs(d) < _CF_TINY)
        c = 1.0 + aa / c
        np.copyto(c, _CF_TINY, where=np.abs(c) < _CF_TINY)
        d = 1.0 / d
        delta = d * c
        h = np.where(active, h * delta, h)
        active &= np.abs(delta - 1.0) >= _CF_EPS
        if not active.any():
            return h
    raise NumericError(
        f"incomplete beta continued fraction did not converge for a={a!r}, b={b!r}"
    )


def _betainc_array(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Vectorized I_x(a, b) with scalar shape parameters; equals
    _betainc_scalar on every value."""
    x = np.ascontiguousarray(x, dtype=float)
    out = np.empty(x.shape, dtype=float)
    ends = (x <= 0.0) | (x >= 1.0)
    np.copyto(out, x, where=ends)  # I_0 = 0 and I_1 = 1, keeping the sign of a zero
    inner = np.flatnonzero(~ends)
    if inner.size == 0:
        return out
    xs = x.ravel()[inner]
    switch = xs >= (a + 1.0) / (a + b + 2.0)
    xx = np.where(switch, 1.0 - xs, xs)
    aa = np.where(switch, b, a)
    bb = np.where(switch, a, b)
    lbt = -_log_beta(a, b) + aa * _libm(math.log, xx) + bb * _libm(math.log1p, -xx)
    res = _libm(math.exp, lbt) * _lentz_cf_array(aa, bb, xx) / aa
    out.ravel()[inner] = np.where(switch, np.maximum(0.0, 1.0 - res), np.minimum(1.0, res))
    return out


def check_unit(x: np.ndarray, what: str = "point coordinates") -> None:
    """Raise DomainError unless every value of the array x lies in [0, 1]."""
    if x.size and not (x.min() >= 0.0 and x.max() <= 1.0):  # false for NaN too
        if not np.isfinite(x).all():
            raise DomainError(f"{what} must be finite")
        raise DomainError(f"{what} must lie in [0, 1]")


def _run_kernel(v, what: str, params: ShapeParams, scalar, array, scalar_max: int):
    """Check v against [0, 1] and apply the kernels to it: the array kernel
    to an array of more than scalar_max values, else the scalar kernel to
    each value."""
    a, b = params.alpha, params.beta
    if type(v) is float:  # one Python float, as the one-row routes pass: no numpy call
        if not 0.0 <= v <= 1.0:  # false for NaN too
            check_unit(np.array(v), what)
        return scalar(a, b, v)
    arr = np.asarray(v, dtype=float)
    check_unit(arr, what)
    if arr.ndim == 0:
        return scalar(a, b, float(arr))
    if arr.size > scalar_max:
        return array(a, b, arr)
    out = [scalar(a, b, t) for t in arr.ravel().tolist()]
    return np.array(out, dtype=float).reshape(arr.shape)


def reg_inc_beta(x, params: ShapeParams):
    """Regularized incomplete beta function I_x(alpha, beta).

    Equals the CDF of the Beta(alpha, beta) distribution; maps 0 to 0 and 1
    to 1 exactly and is strictly increasing on (0, 1).

    Args:
        x: Scalar or ndarray with values in [0, 1].
        params: Positive shape parameters.

    Returns:
        Value(s) of I_x in [0, 1]: a float for a 0-d input, else an array of
        the input's shape. Each value's result depends on the value alone,
        not on the array it came in or on the kernel that ran.
    """
    return _run_kernel(x, "x", params, _betainc_scalar, _betainc_array, _SCALAR_MAX)


def _pdf_scalar(a: float, b: float, ln_b: float, x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return math.inf if (a < 1.0 and x <= 0.0) or (b < 1.0 and x >= 1.0) else 0.0
    lpdf = (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - ln_b
    if lpdf > 700.0:
        return math.inf
    return math.exp(lpdf)


def _initial_guess(a: float, b: float, ln_b: float, q: float) -> float:
    # Power-law tail inversion: I_x ~ x^a / (a B) near 0, mirrored near 1.
    if q <= 0.5:
        lx = (math.log(q) + math.log(a) + ln_b) / a
        x0 = math.exp(lx) if lx > -745.0 else 5e-324
        return min(x0, 0.5)
    lt = (math.log1p(-q) + math.log(b) + ln_b) / b
    t0 = math.exp(lt) if lt > -745.0 else 5e-324
    return max(1.0 - t0, 0.5)


def _betaincinv_scalar(a: float, b: float, q: float) -> float:
    if q == 0.0 or q == 1.0:
        return q
    ln_b = _log_beta(a, b)
    lo, hi = 0.0, 1.0
    x = _initial_guess(a, b, ln_b, q)
    if not (0.0 < x < 1.0):
        x = a / (a + b)
    for _ in range(_MAX_ITER):
        f = _betainc_scalar(a, b, x) - q
        if f == 0.0:
            return x
        if f > 0.0:
            hi = x
        else:
            lo = x
        if math.nextafter(lo, 1.0) >= hi:
            return x
        pdf = _pdf_scalar(a, b, ln_b, x)
        xn = x - f / pdf if 0.0 < pdf < math.inf else math.nan
        if not (lo < xn < hi):
            # Geometric shrink keeps tail brackets converging fast.
            if lo == 0.0:
                xn = hi * 1e-3
            elif hi == 1.0:
                xn = 1.0 - (1.0 - lo) * 1e-3
            else:
                xn = 0.5 * (lo + hi)
        if xn == x:
            return x
        x = xn
    return _bisect_bracket(a, b, q, lo, hi)


def _bisect_bracket(a: float, b: float, q: float, lo: float, hi: float) -> float:
    """Close a bracket [lo, hi] of I_x = q that _MAX_ITER Newton steps left
    open, as a tiny q can: a step below x's spacing sends the fallback to the
    far end of [0, 1], and near 0 the computed I_x is flat over many doubles,
    which Newton crosses an ulp or two per step. Bisection at the geometric
    midpoint, while hi > 2 lo, then at the arithmetic one, closes any bracket
    in about 64 steps and returns the last point, which for alpha < 1 may be
    an underflowed, subnormal answer."""
    for _ in range(_MAX_ITER):
        x = math.sqrt(max(lo, 5e-324)) * math.sqrt(hi) if hi > 2.0 * lo else 0.5 * (lo + hi)
        f = _betainc_scalar(a, b, x) - q
        if f == 0.0:
            return x
        if f > 0.0:
            hi = x
        else:
            lo = x
        if math.nextafter(lo, 1.0) >= hi:
            return x
    raise NumericError(f"inverse incomplete beta did not converge for a={a}, b={b}, q={q}")


def _betaincinv_array(a: float, b: float, q: np.ndarray) -> np.ndarray:
    """Vectorized inverse with scalar shape parameters; equals
    _betaincinv_scalar on every value. Its initial guess and density are the
    scalar kernel's, called per element, and the Newton step runs the same
    IEEE operations lane by lane."""
    q = np.ascontiguousarray(q, dtype=float)
    out = np.empty(q.shape, dtype=float)
    ends = (q <= 0.0) | (q >= 1.0)
    np.copyto(out, q, where=ends)  # 0 and 1 map to themselves, keeping the sign of a zero
    idx = np.flatnonzero(~ends)
    if idx.size == 0:
        return out
    ln_b = _log_beta(a, b)
    qa = q.ravel()[idx]
    lo = np.zeros_like(qa)
    hi = np.ones_like(qa)
    x = np.array([_initial_guess(a, b, ln_b, v) for v in qa.tolist()])
    np.copyto(x, a / (a + b), where=~((x > 0.0) & (x < 1.0)))
    for _ in range(_MAX_ITER):
        f = _betainc_array(a, b, x) - qa
        pos = f > 0.0
        np.copyto(hi, x, where=pos)
        np.copyto(lo, x, where=~pos & (f != 0.0))
        closed = (f == 0.0) | (np.nextafter(lo, 1.0) >= hi)
        pdf = np.array([_pdf_scalar(a, b, ln_b, v) for v in x.tolist()])
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = np.where((pdf > 0.0) & (pdf < math.inf), x - f / pdf, math.nan)
        bad = ~((lo < xn) & (xn < hi))
        fallback = np.where(
            lo == 0.0,
            hi * 1e-3,
            np.where(hi == 1.0, 1.0 - (1.0 - lo) * 1e-3, 0.5 * (lo + hi)),
        )
        xn = np.where(bad, fallback, xn)
        done = closed | (xn == x)
        x = np.where(closed, x, xn)
        if done.all():
            out.ravel()[idx] = x
            return out
        if done.any():
            # Retire converged lanes so late iterations shrink.
            out.ravel()[idx[done]] = x[done]
            keep = ~done
            idx, qa, lo, hi, x = idx[keep], qa[keep], lo[keep], hi[keep], x[keep]
    # lanes still open finish as the scalar kernel does, from the same bracket
    for k, qk, lo_k, hi_k in zip(idx.tolist(), qa.tolist(), lo.tolist(), hi.tolist()):
        out.ravel()[k] = _bisect_bracket(a, b, qk, lo_k, hi_k)
    return out


def inv_reg_inc_beta(q, params: ShapeParams):
    """Inverse of reg_inc_beta in its first argument (Beta percent point).

    Returns x with I_x(alpha, beta) = q, resolved to the limit of float64:
    the iteration converges the bracket to adjacent doubles, so the residual
    is bounded by the local density times one unit in the last place.

    Args:
        q: Scalar or ndarray with values in [0, 1].
        params: Positive shape parameters.

    Returns:
        Abscissa value(s) in [0, 1]; exactly 0 at q=0 and 1 at q=1 (a zero
        keeps its sign). Shapes, and the rule that a value's result depends
        on the value alone, follow reg_inc_beta.
    """
    return _run_kernel(q, "q", params, _betaincinv_scalar, _betaincinv_array, _SCALAR_MAX_INV)

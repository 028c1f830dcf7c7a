"""Bijective unit-cube transformations: Beta-CDF warping and sphered rotation.

All maps send [0,1]^d onto itself. The Beta-CDF warp applies the same
(alpha, beta) CDF to every coordinate. The sphered rotation routes a rotation
through a cube-to-ball radial change of coordinates so the box stays
invariant: with z = 2x - 1,

    u  = z * ||z||_inf / ||z||_2      (cube onto the unit ball)
    v  = R u                          (rotate)
    z' = v * ||v||_2 / ||v||_inf      (ball back onto the cube)

which preserves infinity-norm shells and reduces to an exact signed
permutation of the centered coordinates whenever R is one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, NumericError, ParameterError
from .specfun import ShapeParams, check_unit, inv_reg_inc_beta, reg_inc_beta

__all__ = [
    "RotationMatrix",
    "TransformSpec",
    "apply_forward",
    "apply_inverse",
    "random_rotation",
    "rotation_matrix_2d",
]

_ORTHO_TOL = 1e-12  # per entry of R^T R - I
_DET_TOL = 1e-10
_CLAMP_TOL = 1e-12  # max out-of-box excursion tolerated after a transform
_ACCUMULATE_ROWS = 32  # batches of at most this many rows rotate in one accumulate call
_ROW_MAX_DIM = 7  # one row of at most this many coordinates may run on Python floats

IDENTITY = "identity"
BETA_CDF = "beta_cdf"
SPHERED_ROTATION = "sphered_rotation"
_CONFIG_KEYS = {  # the keys each kind's JSON form may hold
    IDENTITY: {"kind"},
    BETA_CDF: {"kind", "alpha", "beta"},
    SPHERED_ROTATION: {"kind", "dim", "seed"},
}


def _integer(value, name: str) -> int:
    """A config value that must be a JSON integer: an int that is not a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _number(value, name: str) -> float:
    """A config value that must be a JSON number: an int or a float, not a
    bool. It is stored as a float, so 2 and 2.0 name the same transform."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range
        raise ConfigError(f"{name} is too large for a float") from None


@dataclass(frozen=True)
class RotationMatrix:
    """A proper rotation: orthogonal with determinant +1."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.shape != (self.dim, self.dim):
            raise DimensionError(
                f"rotation entries must be {self.dim}x{self.dim}, got {m.shape}"
            )
        err = np.max(np.abs(m.T @ m - np.eye(self.dim)))
        if err > _ORTHO_TOL:
            raise ParameterError(f"matrix is not orthogonal (|R^T R - I| = {err:.2e})")
        det = float(np.linalg.det(m))
        if abs(det - 1.0) > _DET_TOL:
            raise ParameterError(f"matrix is not a proper rotation (det = {det!r})")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)


@dataclass(frozen=True)
class TransformSpec:
    """Declarative description of one unit-cube transformation.

    Exactly the fields belonging to `kind` are populated. `seed` is carried
    for sphered rotations built from a seed so the transform can be serialized
    and named in run descriptors.
    """

    kind: str
    shape: ShapeParams | None = None
    rotation: RotationMatrix | None = None
    seed: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind == IDENTITY:
            ok = self.shape is None and self.rotation is None
        elif self.kind == BETA_CDF:
            ok = self.shape is not None and self.rotation is None
        elif self.kind == SPHERED_ROTATION:
            ok = self.shape is None and self.rotation is not None
        else:
            raise ParameterError(f"unknown transform kind {self.kind!r}")
        if not ok:
            raise ParameterError(f"fields do not match transform kind {self.kind!r}")

    @staticmethod
    def identity() -> "TransformSpec":
        return TransformSpec(kind=IDENTITY)

    @staticmethod
    def beta_cdf(alpha: float, beta: float) -> "TransformSpec":
        return TransformSpec(kind=BETA_CDF, shape=ShapeParams(alpha, beta))

    @staticmethod
    def sphered_rotation(
        rotation: RotationMatrix | None = None,
        *,
        dim: int | None = None,
        seed: int | None = None,
    ) -> "TransformSpec":
        if rotation is None:
            if dim is None or seed is None:
                raise ParameterError("sphered_rotation needs a matrix or (dim, seed)")
            rotation = random_rotation(dim, seed)
        return TransformSpec(kind=SPHERED_ROTATION, rotation=rotation, seed=seed)

    @property
    def is_neutral(self) -> bool:
        """True when the transform acts as the identity map."""
        if self.kind == IDENTITY:
            return True
        if self.kind == BETA_CDF:
            return self.shape.alpha == 1.0 and self.shape.beta == 1.0
        return bool(np.array_equal(self.rotation.entries, np.eye(self.rotation.dim)))

    def descriptor(self) -> str:
        """Short name used in instance descriptors and CSV columns."""
        if self.kind == IDENTITY:
            return "id"
        if self.kind == BETA_CDF:
            return f"bcdf-a{self.shape.alpha:g}-b{self.shape.beta:g}"
        if self.seed is not None:
            return f"rot-seed{self.seed}"
        return "rot-custom"

    def to_config(self) -> dict:
        """JSON-ready form. Custom rotation matrices cannot be serialized."""
        if self.kind == IDENTITY:
            return {"kind": IDENTITY}
        if self.kind == BETA_CDF:
            return {"kind": BETA_CDF, "alpha": self.shape.alpha, "beta": self.shape.beta}
        if self.seed is None:
            raise ConfigError("sphered rotation without a seed is not serializable")
        return {"kind": SPHERED_ROTATION, "dim": self.rotation.dim, "seed": self.seed}

    @staticmethod
    def from_config(cfg: dict, dim: int | None = None) -> "TransformSpec":
        """Build a spec from its JSON form.

        `dim` supplies the dimensionality for sphered rotations whose config
        omits it (the harness instantiates one matrix per problem dimension).
        """
        kind = cfg.get("kind") if isinstance(cfg, dict) else None
        if not isinstance(kind, str) or kind not in _CONFIG_KEYS:
            raise ConfigError(f"transform config must be a dict with a known kind: {cfg!r}")
        if not set(cfg) <= _CONFIG_KEYS[kind]:
            raise ConfigError(f"unknown keys in {kind} config: {cfg!r}")
        if kind == IDENTITY:
            return TransformSpec.identity()
        if kind == BETA_CDF:
            if "alpha" not in cfg or "beta" not in cfg:
                raise ConfigError(f"beta_cdf config needs alpha and beta: {cfg!r}")
            alpha, beta = _number(cfg["alpha"], "alpha"), _number(cfg["beta"], "beta")
            return TransformSpec.beta_cdf(alpha, beta)
        if cfg.get("dim", dim) is None or "seed" not in cfg:  # a sphered rotation
            raise ConfigError(f"sphered_rotation config needs a seed and a dim: {cfg!r}")
        cfg_dim = _integer(cfg.get("dim", dim), "sphered_rotation dim")
        if dim is not None and cfg_dim != dim:
            raise ConfigError(f"sphered_rotation dim {cfg_dim} does not match problem dim {dim}")
        return TransformSpec.sphered_rotation(dim=cfg_dim, seed=_integer(cfg["seed"], "seed"))


def random_rotation(dim: int, seed: int) -> RotationMatrix:
    """Haar-uniform sample from SO(dim), deterministic in the seed.

    QR-orthonormalizes a standard Gaussian matrix, fixes the factorization
    sign so the distribution is Haar over O(dim), then flips one column if
    needed to land in SO(dim).
    """
    if dim < 2:
        raise ParameterError(f"rotation dimension must be at least 2, got {dim}")
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    q = q * signs
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return RotationMatrix(dim=dim, entries=q)


def rotation_matrix_2d(angle: float) -> RotationMatrix:
    """Planar rotation by `angle` radians (counter-clockwise)."""
    c, s = math.cos(angle), math.sin(angle)
    return RotationMatrix(dim=2, entries=np.array([[c, -s], [s, c]]))


def _as_points(x) -> tuple[np.ndarray, bool]:
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[np.newaxis, :]
    elif pts.ndim != 2:
        raise DimensionError(f"expected a point or a batch of points, got shape {pts.shape}")
    if pts.shape[1] == 0:
        raise DimensionError("points must have at least one coordinate")
    check_unit(pts)
    return pts, single


def _needs_clip(lo: float, hi: float) -> bool:
    """Whether values from lo to hi need clipping to [0, 1]; values inside
    (0, 1] need none. Raises NumericError when they leave [0, 1] by more
    than _CLAMP_TOL."""
    if lo > 0.0 and hi <= 1.0:
        return False
    excess = max(hi - 1.0, -lo)  # NaN when the values hold NaN, which clip keeps
    if excess > _CLAMP_TOL:
        raise NumericError(f"transform left the unit cube by {excess:.3e}")
    return True


def _clamp_unit(pts: np.ndarray) -> np.ndarray:
    """Clip a freshly computed batch to [0, 1]; a batch inside (0, 1] needs
    no clipping and is returned as it is."""
    if pts.size and _needs_clip(float(pts.min()), float(pts.max())):
        return np.clip(pts, 0.0, 1.0)
    return pts


def _clamp_row(row: list[float]) -> list[float]:
    """_clamp_unit of one row of finite Python floats."""
    if _needs_clip(min(row), max(row)):
        return [0.0 if v < 0.0 else 1.0 if v > 1.0 else v for v in row]  # np.clip's bits
    return row


def _rotate(pts: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    z = 2.0 * pts - 1.0
    ninf = np.abs(z).max(axis=1)
    nonzero = ninf > 0.0
    out = pts.copy()
    if not nonzero.any():
        return out
    z = z[nonzero]
    n2 = np.sqrt((z * z).sum(axis=1))
    u = z * (ninf[nonzero] / n2)[:, np.newaxis]
    # v = u @ matrix.T as a running sum over k of u[:, k] * matrix.T[k], in
    # that order: a matmul's rounding depends on the batch size, the running
    # sum's does not. Both forms below add in that order and give the same
    # bits; one accumulate call is faster for a few rows, the loop's 2d - 1
    # calls for many (BENCH_11.json).
    mt = matrix.T
    if len(u) <= _ACCUMULATE_ROWS:
        v = np.add.accumulate(u[:, :, np.newaxis] * mt, axis=1)[:, -1]
    else:
        v = u[:, :1] * mt[0]
        for k in range(1, len(mt)):
            v += u[:, k : k + 1] * mt[k]
    v2 = np.sqrt((v * v).sum(axis=1))
    vinf = np.abs(v).max(axis=1)
    zp = v * (v2 / vinf)[:, np.newaxis]
    out[nonzero] = (zp + 1.0) / 2.0
    return out


def _rotate_row(x: list[float], matrix: list[list[float]]) -> list[float]:
    """_rotate of one row of at most _ROW_MAX_DIM coordinates, on Python floats.

    It runs _rotate's IEEE operations in _rotate's order, so it gives the
    same bits at a fraction of numpy's per-call cost: numpy sums fewer than 8
    terms along a row from left to right, as the loops here do, but 8 or more
    pairwise. matrix lists the rows of R, so v[j] adds u[k] * R[j][k] over k.
    """
    z = [2.0 * t - 1.0 for t in x]
    ninf = max(map(abs, z))
    if ninf == 0.0:
        return x
    n2 = 0.0
    for t in z:
        n2 += t * t
    s = ninf / math.sqrt(n2)
    u = [t * s for t in z]
    v = []
    for row in matrix:
        acc = u[0] * row[0]
        for k in range(1, len(u)):
            acc += u[k] * row[k]
        v.append(acc)
    v2 = 0.0
    for t in v:
        v2 += t * t
    s = math.sqrt(v2) / max(map(abs, v))
    return [(t * s + 1.0) / 2.0 for t in v]


def transform_batch(t: TransformSpec, pts: np.ndarray, inverse: bool) -> np.ndarray:
    """Apply t, or its inverse, to an (n, d) batch. A Beta-CDF warp checks
    that pts lie in [0, 1]^d; the identity and the rotation expect a batch
    already checked, and the identity returns pts itself."""
    if t.kind == IDENTITY:
        return pts
    if t.kind == BETA_CDF:
        warp = inv_reg_inc_beta if inverse else reg_inc_beta
        return _clamp_unit(warp(pts, t.shape))
    if pts.shape[1] != t.rotation.dim:
        raise DimensionError(
            f"point dimension {pts.shape[1]} does not match rotation dim {t.rotation.dim}"
        )
    m = t.rotation.entries.T if inverse else t.rotation.entries
    return _clamp_unit(_rotate(pts, m))


def transform_row(t: TransformSpec, x: list[float]) -> list[float]:
    """The forward transform_batch of one row of at most _ROW_MAX_DIM
    coordinates, given and returned as Python floats: the same bits without
    numpy's per-call cost. x must lie in [0, 1]^d already and match a
    rotation's dimension. A Beta-CDF warp calls reg_inc_beta on each value."""
    if t.kind == IDENTITY:
        return x
    if t.kind == BETA_CDF:
        return _clamp_row([reg_inc_beta(v, t.shape) for v in x])
    return _clamp_row(_rotate_row(x, t.rotation.entries.tolist()))


def _apply(t: TransformSpec, x, inverse: bool):
    pts, single = _as_points(x)
    out = transform_batch(t, pts, inverse)
    out = out.copy() if out is pts else out  # the identity hands back its input
    return out[0] if single else out


def apply_forward(t: TransformSpec, x) -> np.ndarray:
    """Apply the transform to a point in [0,1]^d or a batch of shape (n, d).

    Args:
        t: Transform description.
        x: Point (d,) or batch (n, d) with coordinates in [0, 1].

    Returns:
        Transformed point(s), same shape, inside [0, 1].
    """
    return _apply(t, x, inverse=False)


def apply_inverse(t: TransformSpec, y) -> np.ndarray:
    """Invert the transform; see apply_forward for shapes and domains."""
    return _apply(t, y, inverse=True)

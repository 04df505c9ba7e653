"""Hadamard model spaces with exact metric, geodesic and boundary operations.

Two models ship: Euclidean space E^n and real hyperbolic space H^n in the
upper half-space chart ``(x_1, ..., x_{n-1}, z)`` with ``z > 0`` and metric
``(dx^2 + dz^2) / z^2``. Everything here is closed form; no ODE solves. All
operations are pure functions of immutable values, so concurrent use needs
no synchronization.

The array-level geometry lives on :class:`ModelSpace` (vectorized over a
leading batch axis); the typed layer (:class:`Point`, :class:`TangentVec`
and the module-level functions) validates inputs and is the public contract
surface.

Validation happens once per public call. Each public method that takes chart
points (``inner``, ``distance``, ``exp``, ...) runs :meth:`ModelSpace.check_coords`
on them before computing, and ``exp`` also checks the points it returns.
Methods prefixed with ``_`` (``ModelSpace._inner``, ``ModelSpace._exp``,
``BusemannField._grad`` and ``BusemannField._value``) are the array kernels
behind them: they trust coordinates that a caller already validated, and are
for in-package callers that hold such arrays, such as ``PairFlow.vector``
evaluating both gradients on one batch, or ``VolumePreservingMap.apply_coords``
moving a validated batch along its gradients. ``_exp`` still checks the
half-space endpoints it returns.

Every dot product and squared length over the coordinate axis goes through
one row reduction, :func:`_rowdot`. Chart rows hold only 2 to 8 entries, and
on such rows ``np.linalg.norm(v, axis=-1)`` and ``(u * v).sum(axis=-1)`` take
1.5 to 3 times as long, both on the (20, n) batches of the ODE oracle and on
the (3072, n) node grids of the level-slice integrals.

The chart oracles take an (n,) point or a (P, n) batch and return one result
per point, with no loop over points: ``frame_volume`` takes (P, n) bases
with (P, k, n) frames, and ``BusemannField.hessian_matrix`` gives one (n, n)
matrix per point. A scalar result for one point is a Python float
(:func:`_native`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EUCLIDEAN = "euclidean"
HYPERBOLIC = "hyperbolic-halfspace"

# Chart points with z below this raise instead of producing infinities.
MIN_CHART_HEIGHT = 1e-300


class GeometryError(ValueError):
    """Base class for invalid geometric input."""


class ModelMismatchError(GeometryError):
    """Operands belong to different model spaces."""


class ChartDomainError(GeometryError):
    """Coordinates left the valid chart (z <= 0 in the half-space)."""


class BoundaryConfigError(GeometryError):
    """Invalid ideal-boundary configuration (e.g. coincident points)."""


def _rowdot(u, v) -> np.ndarray:
    """Dot product of u and v over the last axis (broadcasting the others);
    ``_rowdot(v, v)`` is the squared Euclidean length of each row."""
    return np.vecdot(u, v)


def _normal(values):
    """Where values are positive normal floats: not 0, subnormal, inf or nan."""
    return (values >= np.finfo(float).tiny) & (values <= np.finfo(float).max)


def _native(values):
    """A Python float for a 0-d result, so scalar callers keep float types; the
    array otherwise."""
    return float(values) if np.ndim(values) == 0 else values


def _as_coords(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        raise GeometryError("coordinates must be a vector, got a scalar")
    return a


@dataclass(frozen=True)
class ModelSpace:
    """A Hadamard model: ``euclidean`` (curvature 0) or ``hyperbolic-halfspace``
    (curvature -1), with runtime dimension ``2 <= dim <= 8``."""

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in (EUCLIDEAN, HYPERBOLIC):
            raise GeometryError(f"unknown model kind {self.kind!r}")
        if not (2 <= int(self.dim) <= 8):
            raise GeometryError(f"dimension must be in [2, 8], got {self.dim}")

    @property
    def is_hyperbolic(self) -> bool:
        return self.kind == HYPERBOLIC

    # -- chart validation -------------------------------------------------

    def check_coords(self, x) -> np.ndarray:
        x = _as_coords(x)
        if x.shape[-1] != self.dim:
            raise GeometryError(
                f"coordinate length {x.shape[-1]} != model dimension {self.dim}"
            )
        if not np.isfinite(x).all():
            raise ChartDomainError("non-finite coordinates")
        if self.is_hyperbolic and (x[..., -1] < MIN_CHART_HEIGHT).any():
            raise ChartDomainError(
                "half-space chart requires z >= 1e-300; point left the chart"
            )
        return x

    # -- metric ------------------------------------------------------------

    def inner(self, base, u, v):
        """Riemannian inner product of chart vectors u, v at base."""
        return self._inner(self.check_coords(base), u, v)

    def _inner(self, base: np.ndarray, u, v):
        """:meth:`inner` at chart points that are already validated."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        dot = _rowdot(u, v)
        if self.is_hyperbolic:
            return dot / base[..., -1] ** 2
        return dot

    def norm(self, base, u):
        return np.sqrt(self.inner(base, u, u))

    def unit(self, base, u):
        """Rescale a chart vector to unit Riemannian length."""
        n = self.norm(base, u)
        if np.any(n == 0.0):
            raise GeometryError("cannot normalize a zero tangent vector")
        return u / np.expand_dims(np.asarray(n), -1) if np.ndim(n) else u / n

    def frame_volume(self, base, vectors):
        """Riemannian k-volume of the parallelepiped spanned by the k rows of
        ``vectors`` at base: the square root of their metric Gram determinant.
        For (P, n) bases and (P, k, n) frames, one volume per frame. Raises
        :class:`GeometryError` when any Gram determinant is not positive."""
        vectors = np.asarray(vectors, dtype=float)
        base = np.asarray(base, dtype=float)[..., None, None, :]
        det = np.linalg.det(self.inner(base, vectors[..., :, None, :], vectors[..., None, :, :]))
        if not np.all(det > 0.0):
            raise GeometryError(f"degenerate frame: Gram determinant {np.min(det):.3g}")
        return _native(np.sqrt(det))

    def volume_density(self, x):
        """sqrt(det g) in chart coordinates: z^-n in H^n, 1 in E^n. Raises
        :class:`GeometryError` where z^-n overflows float64."""
        x = self.check_coords(x)
        if self.is_hyperbolic:
            with np.errstate(over="ignore"):
                density = x[..., -1] ** (-self.dim)
            if not np.isfinite(density).all():
                raise GeometryError(f"volume density z^-{self.dim} overflows float64 "
                                    f"at height {np.min(x[..., -1]):.3g}")
            return density
        return np.ones(x.shape[:-1]) if x.ndim > 1 else 1.0

    # -- distance and geodesics --------------------------------------------

    def distance(self, p, q):
        p = self.check_coords(p)
        q = self.check_coords(q)
        with np.errstate(over="ignore"):  # E^n gives inf only where the distance exceeds float64
            d = q - p
            squared = _rowdot(d, d)
            half, odd = 0.5 * np.sqrt(squared), ~_normal(squared)
            if odd.any():  # q - p or its sum of squares over- or underflowed: halve, then scale as hypot does
                half = np.where(odd, np.hypot.reduce(0.5 * q - 0.5 * p, axis=-1), half)
            if not self.is_hyperbolic:
                return 2.0 * half
            heights = p[..., -1] * q[..., -1]
            root, odd = np.sqrt(heights), ~_normal(heights)
            if odd.any():  # the product of the two heights over- or underflowed
                root = np.where(odd, np.sqrt(p[..., -1]) * np.sqrt(q[..., -1]), root)
        return 2.0 * np.arcsinh(half / root)

    def exp(self, p, w):
        """Exponential map: endpoint of the geodesic from p with initial
        chart velocity w, run for unit time (closed form in both models).

        In the half-space the geodesic runs in the vertical plane of w.
        With Riemannian length t = |w|/z and unit direction (a, b) =
        (|w_bar|, w_z)/|w|, the endpoint is

            x_bar + w_bar * sinh(t)/t / D,    z / D,
            D = cosh t - b sinh t = (1-b)/2 e^t + (1+b)/2 e^-t.

        The smaller of (1 -+ b)/2 is |w_bar|^2 / (2|w| (|w| + |w_z|)), which
        has no cancellation even for nearly vertical w, and the larger is 1
        minus it (at least 1/2). Both terms of D are non-negative. For w = 0
        the weights are (1, 0) and t = 0, so D = 1. The endpoint array has
        the layout of p, so a column-major batch stays column-major.
        """
        return self._exp(self.check_coords(p), w)

    def _exp(self, p: np.ndarray, w):
        """:meth:`exp` from chart points that are already validated; in the
        half-space the endpoint is still checked, since it can leave the chart."""
        w = np.asarray(w, dtype=float)
        if not self.is_hyperbolic:
            return p + w

        z = p[..., -1]
        wbar, wz = w[..., :-1], w[..., -1]
        hlen2 = _rowdot(wbar, wbar)
        wlen = np.sqrt(hlen2 + wz * wz)
        t = wlen / z  # Riemannian length of w
        out = np.empty_like(p, shape=np.broadcast_shapes(p.shape, w.shape))
        # a length at which D over- or underflows ends off the chart, and
        # check_coords raises ChartDomainError for it
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # the smaller weight; where its denominator underflows, so has
            # |w_bar|^2 <= |w|^2, and the weight is 0
            small = hlen2 / np.maximum(2.0 * wlen * (wlen + np.abs(wz)), np.finfo(float).tiny)
            rise = np.where(wz > 0.0, small, 1.0 - small)  # (1 - b)/2
            # 1 - rise is off by up to eps/2 where (1 + b)/2 is the small
            # weight; that moves D, at least e^t/2 there, by under eps D
            denom = rise * np.exp(t) + (1.0 - rise) * np.exp(-t)
            sinhc = np.divide(np.sinh(t), t, out=np.ones_like(t), where=t > 0.0)
            out[..., :-1] = p[..., :-1] + wbar * (sinhc / denom)[..., None]
            out[..., -1] = z / denom
        return self.check_coords(out)

    def log(self, p, q):
        """Inverse of exp: chart velocity w at p with exp(p, w) = q.

        In the half-space, with d = distance(p, q), horizontal offset
        d_bar = q_bar - p_bar and A = |d_bar|^2 + (z2 - z1)(z2 + z1),

            w = d z1 (2 z1 d_bar, A) / hypot(A, 2 |d_bar| z1),

        the tangent of the geodesic circle through p and q scaled to length
        d. The formula never divides by |d_bar|, so it stays accurate on
        nearly vertical geodesics and needs no vertical branch.
        """
        p = self.check_coords(p)
        q = self.check_coords(q)
        if not self.is_hyperbolic:
            return q - p

        z1, z2 = p[..., -1], q[..., -1]
        dbar = q[..., :-1] - p[..., :-1]
        hsep2 = _rowdot(dbar, dbar)
        hsep = np.sqrt(hsep2)
        lift = hsep2 + (z2 - z1) * (z2 + z1)
        tangent_len = np.hypot(lift, 2.0 * hsep * z1)  # zero only when p = q
        d = self.distance(p, q)
        scale = np.divide(d * z1, tangent_len, out=np.zeros_like(tangent_len),
                          where=tangent_len > 0.0)
        out = np.empty(np.broadcast_shapes(p.shape, q.shape))
        out[..., :-1] = (2.0 * z1 * scale)[..., None] * dbar
        out[..., -1] = scale * lift
        return out

    def geodesic(self, p, v, t):
        """Unit-speed geodesic from p with initial unit chart velocity v."""
        w = np.asarray(t, dtype=float)[..., None] * np.asarray(v, dtype=float)
        return self.exp(p, w)

    # -- sampling helpers ----------------------------------------------------

    def random_points(self, rng: np.random.Generator, count: int, spread: float = 1.0) -> np.ndarray:
        """Random chart points in a moderate region (z in roughly [e^-spread, e^spread])."""
        pts = rng.normal(scale=spread, size=(count, self.dim))
        if self.is_hyperbolic:
            pts[:, -1] = np.exp(np.clip(pts[:, -1], -2.5 * spread, 2.5 * spread))
        return pts

    def random_unit_vectors(self, base: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        raw = rng.normal(size=base.shape)
        norms = self.norm(base, raw)
        return raw / np.expand_dims(norms, -1)


@dataclass(frozen=True)
class Point:
    """A point of a model space, held as chart coordinates."""

    model: ModelSpace
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", self.model.check_coords(np.array(self.coords, dtype=float)))
        if self.coords.ndim != 1:
            raise GeometryError("Point holds a single coordinate vector")

    def __repr__(self):
        return f"Point({self.model.kind}, {np.array2string(self.coords, precision=6)})"


@dataclass(frozen=True)
class TangentVec:
    """A tangent vector at a base point, in chart components."""

    base: Point
    components: np.ndarray

    def __post_init__(self):
        comp = np.array(self.components, dtype=float)
        if comp.shape != self.base.coords.shape:
            raise GeometryError("tangent components must match the base dimension")
        object.__setattr__(self, "components", comp)

    @property
    def model(self) -> ModelSpace:
        return self.base.model

    def norm(self) -> float:
        return float(self.model.norm(self.base.coords, self.components))


def _same_model(*objs) -> ModelSpace:
    models = {o.model for o in objs}
    if len(models) != 1:
        raise ModelMismatchError(f"mixed model spaces: {models}")
    return models.pop()


def distance(p: Point, q: Point) -> float:
    m = _same_model(p, q)
    return float(m.distance(p.coords, q.coords))


def volume_density(p: Point) -> float:
    return float(p.model.volume_density(p.coords))


UNIT_SPEED_TOL = 1e-12


def geodesic(p: Point, v: TangentVec, t: float) -> Point:
    """Point at arc length t along the unit-speed geodesic from p with velocity v."""
    _same_model(p, v.base)
    if abs(v.norm() - 1.0) > UNIT_SPEED_TOL:
        raise GeometryError(f"geodesic requires a unit tangent vector, |v| = {v.norm()}")
    return Point(p.model, p.model.exp(p.coords, float(t) * v.components))


# --------------------------------------------------------------------------
# Ideal boundary
# --------------------------------------------------------------------------

BOUNDARY_FINITE = "finite"
BOUNDARY_INFINITY = "infinity"
BOUNDARY_DIRECTION = "direction"


@dataclass(frozen=True)
class BoundaryPoint:
    """A point at infinity.

    Half-space chart: either a finite point of R^{n-1} on the z=0 boundary or
    the symbol infinity. Euclidean space: a unit direction vector.
    """

    model: ModelSpace
    kind: str
    data: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == BOUNDARY_FINITE:
            if not self.model.is_hyperbolic:
                raise BoundaryConfigError("finite boundary points live on the half-space boundary")
            d = np.array(self.data, dtype=float)
            if d.shape != (self.model.dim - 1,):
                raise BoundaryConfigError("finite boundary point must have n-1 coordinates")
            object.__setattr__(self, "data", d)
        elif self.kind == BOUNDARY_INFINITY:
            if not self.model.is_hyperbolic:
                raise BoundaryConfigError("the infinity symbol belongs to the half-space chart")
            object.__setattr__(self, "data", None)
        elif self.kind == BOUNDARY_DIRECTION:
            if self.model.is_hyperbolic:
                raise BoundaryConfigError("direction boundary points belong to the Euclidean model")
            d = np.array(self.data, dtype=float)
            if d.shape != (self.model.dim,):
                raise BoundaryConfigError("direction must have n coordinates")
            nrm = np.linalg.norm(d)
            if nrm == 0.0:
                raise BoundaryConfigError("direction must be nonzero")
            object.__setattr__(self, "data", d / nrm)
        else:
            raise BoundaryConfigError(f"unknown boundary kind {self.kind!r}")

    @property
    def is_infinity(self) -> bool:
        return self.kind == BOUNDARY_INFINITY

    def same_as(self, other: "BoundaryPoint", tol: float = 1e-12) -> bool:
        if self.model != other.model or self.kind != other.kind:
            return False
        if self.kind == BOUNDARY_INFINITY:
            return True
        return bool(np.max(np.abs(self.data - other.data)) <= tol)

    def __repr__(self):
        if self.kind == BOUNDARY_INFINITY:
            return "BoundaryPoint(inf)"
        return f"BoundaryPoint({self.kind}, {np.array2string(self.data, precision=6)})"


def boundary_finite(model: ModelSpace, xbar) -> BoundaryPoint:
    return BoundaryPoint(model, BOUNDARY_FINITE, np.asarray(xbar, dtype=float))


def boundary_infinity(model: ModelSpace) -> BoundaryPoint:
    return BoundaryPoint(model, BOUNDARY_INFINITY)


def boundary_direction(model: ModelSpace, u) -> BoundaryPoint:
    return BoundaryPoint(model, BOUNDARY_DIRECTION, np.asarray(u, dtype=float))


def boundary_from_direction(v: TangentVec) -> BoundaryPoint:
    """Endpoint at infinity of the geodesic ray with initial velocity v."""
    m = v.model
    if not m.is_hyperbolic:
        return boundary_direction(m, v.components)
    p = v.base.coords
    z = p[-1]
    comp = m.unit(p, v.components)  # |comp|_chart = z
    hbar = comp[:-1]
    hlen = float(np.linalg.norm(hbar))
    if hlen <= 1e-14 * z:
        if comp[-1] > 0:
            return boundary_infinity(m)
        return boundary_finite(m, p[:-1])
    u = hbar / hlen
    xi_c = z * comp[-1] / hlen
    r = float(np.hypot(xi_c, z))
    return boundary_finite(m, p[:-1] + (xi_c + r) * u)


def direction_to_boundary(p: Point, xi: BoundaryPoint) -> TangentVec:
    """Unit tangent vector at p pointing along the geodesic ray toward xi."""
    m = _same_model(p, xi)
    x = p.coords
    if not m.is_hyperbolic:
        return TangentVec(p, xi.data.copy())
    z = x[-1]
    if xi.is_infinity:
        comp = np.zeros(m.dim)
        comp[-1] = z
        return TangentVec(p, comp)
    dbar = xi.data - x[:-1]
    sep = float(np.linalg.norm(dbar))
    comp = np.zeros(m.dim)
    if sep <= 1e-14 * z:
        comp[-1] = -z
        return TangentVec(p, comp)
    u = dbar / sep
    c = (sep * sep - z * z) / (2.0 * sep)
    scale = z / np.hypot(z, c)
    comp[:-1] = scale * z * u
    comp[-1] = scale * c
    return TangentVec(p, comp)

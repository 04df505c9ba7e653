"""Busemann functions, their derivatives, and horosphere geometry.

A Busemann function is the limit of ``d(x, ray(t)) - t`` along a geodesic
ray; its level sets are the horospheres. Values here are closed form:

* half-space, boundary point at infinity: ``b = ln(z_base) - ln(z)``
* half-space, finite boundary point xi: ``b = ln((|xbar - xi|^2 + z^2)/z)``
  minus the same expression at the basepoint
* Euclidean, direction u: ``b = -(x - base) . u``

Every field stores an explicit basepoint where its value is zero; all level
constants are relative to it. ``b`` decreases at unit rate along the ray
toward the field's boundary point, and the gradient has unit length.

Sign convention: the mean curvature constant of the horospheres is
``h = trace(covariant Hessian of b) >= 0`` (the Laplace-Beltrami operator
``div grad``), which gives h = n-1 in H^n and 0 in E^n. With this sign the
normal-flow volume expansion is exactly e^{h t}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .manifold import (
    BoundaryPoint,
    GeometryError,
    ModelMismatchError,
    ModelSpace,
    Point,
    TangentVec,
    _same_model,
    direction_to_boundary,
)
from .numerics import gauss_legendre, orthonormal_complement, tensor_rule

__all__ = [
    "BusemannField",
    "HessianOperator",
    "busemann_value",
    "busemann_value_truncated",
    "busemann_grad",
    "busemann_hessian",
    "mean_curvature_h",
    "estimate_h",
    "beta",
    "horosphere_sphere",
    "BoundednessReport",
    "sublevel_bounded_probe",
    "coarea_slice_integral",
]


def mean_curvature_h(model: ModelSpace) -> float:
    """Constant mean curvature of horospheres: n-1 in H^n, 0 in E^n."""
    return float(model.dim - 1) if model.is_hyperbolic else 0.0


@dataclass(frozen=True)
class BusemannField:
    """A direction at infinity together with the basepoint normalizing b to 0.

    The basepoint defaults to the chart point (0, ..., 0, 1) in the
    half-space and the origin in Euclidean space.
    """

    model: ModelSpace
    xi: BoundaryPoint
    basepoint: Point | None = None

    def __post_init__(self):
        if self.basepoint is None:
            coords = np.zeros(self.model.dim)
            if self.model.is_hyperbolic:
                coords[-1] = 1.0
            object.__setattr__(self, "basepoint", Point(self.model, coords))
        if self.xi.model != self.model or self.basepoint.model != self.model:
            raise ModelMismatchError("field components belong to different models")

    # -- closed-form value ---------------------------------------------------

    def _raw_value(self, coords: np.ndarray) -> np.ndarray:
        """Unnormalized closed form (no basepoint offset)."""
        if not self.model.is_hyperbolic:
            return -coords @ self.xi.data
        z = coords[..., -1]
        if self.xi.is_infinity:
            return -np.log(z)
        w = coords[..., :-1] - self.xi.data
        q = np.sum(w * w, axis=-1) + z * z
        return np.log(q / z)

    def value(self, coords) -> np.ndarray:
        coords = self.model.check_coords(np.asarray(coords, dtype=float))
        return self._raw_value(coords) - self._raw_value(self.basepoint.coords)

    def value_truncated(self, coords, T: float) -> np.ndarray:
        """Pre-limit quantity d(x, ray(T)) - T along the ray from the basepoint.

        Non-increasing in T and converging to :meth:`value` as T grows."""
        if T <= 0:
            raise GeometryError("truncation parameter must be positive")
        v = direction_to_boundary(self.basepoint, self.xi)
        ray_pt = self.model.geodesic(self.basepoint.coords, v.components, float(T))
        coords = self.model.check_coords(np.asarray(coords, dtype=float))
        return self.model.distance(coords, ray_pt) - float(T)

    # -- derivatives -----------------------------------------------------------

    def grad_chart(self, coords) -> np.ndarray:
        """Riemannian gradient in chart components (unit length in g)."""
        coords = self.model.check_coords(np.asarray(coords, dtype=float))
        if not self.model.is_hyperbolic:
            return np.broadcast_to(-self.xi.data, coords.shape).copy()
        z = coords[..., -1]
        out = np.empty_like(coords)
        if self.xi.is_infinity:
            out[..., :-1] = 0.0
            out[..., -1] = -z
            return out
        w = coords[..., :-1] - self.xi.data
        q = np.sum(w * w, axis=-1) + z * z
        out[..., :-1] = (2.0 * z * z / q)[..., None] * w
        out[..., -1] = 2.0 * z * z * z / q - z
        return out

    def hessian_matrix(self, coords) -> np.ndarray:
        """Chart matrix of the shape operator w -> nabla_w grad b (a single point).

        Symmetric, positive semi-definite, annihilates the gradient, and has
        trace h. In the conformal half-space chart the (1,1) operator equals
        z^2 times the covariant Hessian matrix, which is symmetric as written.
        """
        x = self.model.check_coords(np.asarray(coords, dtype=float))
        if x.ndim != 1:
            raise GeometryError("hessian_matrix expects a single point")
        n = self.model.dim
        if not self.model.is_hyperbolic:
            return np.zeros((n, n))
        z = x[-1]
        if self.xi.is_infinity:
            U = np.eye(n)
            U[-1, -1] = 0.0
            return U
        w = x[:-1] - self.xi.data
        q = float(np.dot(w, w) + z * z)
        # chart partials of b = ln((|w|^2 + z^2)/z)
        db = np.empty(n)
        db[:-1] = 2.0 * w / q
        db[-1] = 2.0 * z / q - 1.0 / z
        d2 = np.empty((n, n))
        d2[:-1, :-1] = (2.0 / q) * np.eye(n - 1) - (4.0 / (q * q)) * np.outer(w, w)
        d2[:-1, -1] = d2[-1, :-1] = -4.0 * w * z / (q * q)
        d2[-1, -1] = 2.0 / q - 4.0 * z * z / (q * q) + 1.0 / (z * z)
        # Christoffel correction of the half-space metric
        hess = d2.copy()
        hess[-1, :] += db / z
        hess[:, -1] += db / z
        hess -= np.eye(n) * (db[-1] / z)
        return z * z * hess

    def laplacian(self, coords) -> float:
        """Trace of the covariant Hessian (equals h in both models)."""
        return float(np.trace(self.hessian_matrix(coords)))


@dataclass(frozen=True)
class HessianOperator:
    """Shape operator of the horosphere through a point, as a chart matrix."""

    at: Point
    field: BusemannField
    matrix: np.ndarray

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.T))

    def trace(self) -> float:
        return float(np.trace(self.matrix))

    def apply(self, w: TangentVec) -> TangentVec:
        return TangentVec(w.base, self.matrix @ w.components)


# -- spec operation surface ---------------------------------------------------


def busemann_value(f: BusemannField, x: Point) -> float:
    _same_model(f, x)
    return float(f.value(x.coords))


def busemann_value_truncated(f: BusemannField, x: Point, T: float) -> float:
    _same_model(f, x)
    return float(f.value_truncated(x.coords, T))


def busemann_grad(f: BusemannField, x: Point) -> TangentVec:
    _same_model(f, x)
    return TangentVec(x, f.grad_chart(x.coords))


def busemann_hessian(f: BusemannField, x: Point) -> HessianOperator:
    _same_model(f, x)
    return HessianOperator(at=x, field=f, matrix=f.hessian_matrix(x.coords))


def estimate_h(f: BusemannField, sample_coords) -> tuple[float, float]:
    """Trace of the horosphere shape operator over sample points: (mean, stddev).

    The standard deviation certifies that the mean curvature is constant."""
    pts = np.atleast_2d(np.asarray(sample_coords, dtype=float))
    traces = np.array([np.trace(f.hessian_matrix(p)) for p in pts])
    return float(np.mean(traces)), float(np.std(traces))


def beta(f1: BusemannField, f2: BusemannField, x: Point | np.ndarray):
    """Gradient correlation g(grad b1, grad b2), in [-1, 1].

    Equals -1 exactly on the set D where the gradients cancel, and +1 only
    when the fields share a boundary point."""
    if f1.model != f2.model:
        raise ModelMismatchError("fields belong to different models")
    coords = x.coords if isinstance(x, Point) else np.asarray(x, dtype=float)
    g1 = f1.grad_chart(coords)
    g2 = f2.grad_chart(coords)
    val = f1.model.inner(coords, g1, g2)
    if isinstance(x, Point):
        return float(val)
    return val


def horosphere_sphere(f: BusemannField, level: float):
    """Chart description of the horosphere {b = level}.

    Finite boundary point: returns ("sphere", center, radius) for the
    Euclidean sphere tangent to the boundary at xi. Point at infinity:
    returns ("plane", z_height). Euclidean model: ("plane", offset) for the
    hyperplane -(x - base) . u = level.
    """
    if not f.model.is_hyperbolic:
        return ("plane", float(level))
    offset = float(f._raw_value(f.basepoint.coords))
    if f.xi.is_infinity:
        return ("plane", math.exp(-(float(level) + offset)))
    diameter = math.exp(float(level) + offset)
    center = np.concatenate([f.xi.data, [diameter / 2.0]])
    return ("sphere", center, diameter / 2.0)


# -- visibility probe -----------------------------------------------------------


@dataclass(frozen=True)
class BoundednessReport:
    bounded: bool
    rays_probed: int
    max_exit_time: float
    escaping_direction: np.ndarray | None = None


def sublevel_bounded_probe(f1: BusemannField, f2: BusemannField, c1: float, c2: float,
                           *, rays: int = 64, t_max: float = 60.0,
                           rng: np.random.Generator | None = None) -> BoundednessReport:
    """Probe whether {b1 <= c1} intersect {b2 <= c2} is bounded.

    Curvature -1 forces every geodesic ray to leave the intersection of two
    horoballs (visibility); flat space does not. The probe shoots random
    geodesic rays from a point of the region and reports the first ray that
    fails to exit by ``t_max``, if any.
    """
    if f1.model != f2.model:
        raise ModelMismatchError("fields belong to different models")
    m = f1.model
    rng = rng or np.random.default_rng(0)

    # find a start point inside the region: walk down both fields from the basepoint
    x = np.array(f1.basepoint.coords, copy=True)
    for _ in range(200):
        if f1.value(x) <= c1 and f2.value(x) <= c2:
            break
        g = f1.grad_chart(x) if f1.value(x) > c1 else f2.grad_chart(x)
        x = m.exp(x, -0.25 * g)
    else:
        raise GeometryError("could not locate a point in the sublevel region")

    max_exit = 0.0
    ts = np.linspace(0.05, t_max, 400)
    for _ in range(rays):
        v = m.random_unit_vectors(x, rng)
        path = m.geodesic(np.broadcast_to(x, (ts.size, m.dim)), v, ts)
        inside = (f1.value(path) <= c1) & (f2.value(path) <= c2)
        if inside[-1]:
            return BoundednessReport(False, rays, float("inf"), v)
        exit_idx = int(np.argmin(inside))  # first False
        max_exit = max(max_exit, float(ts[exit_idx]))
    return BoundednessReport(True, rays, max_exit, None)


# -- coarea slicing ---------------------------------------------------------------


def coarea_slice_integral(f, field: BusemannField, *, t_nodes: int = 80,
                          x_nodes: int = 64) -> float:
    """Integrate a compactly supported function by slicing along Busemann levels.

    Realizes the identity  integral_M f dmu = integral_R ( integral_{b=t} f dmu_t ) dt,
    valid because |grad b| = 1. The field must have flat level sets in the
    chart (point at infinity in the half-space, any direction in E^n) so the
    slice integrals reduce to planar quadrature.
    """
    m = field.model
    if m.is_hyperbolic and not field.xi.is_infinity:
        raise GeometryError("slicing is implemented along fields with flat chart levels")
    center_level = float(field.value(f.center.coords))
    t_rule = gauss_legendre(t_nodes, center_level - f.radius, center_level + f.radius)

    if m.is_hyperbolic:
        lo, hi = f.support_chart_box(margin=0.02)
        rules = [gauss_legendre(x_nodes, float(a), float(b)) for a, b in zip(lo[:-1], hi[:-1])]
    else:
        half = f.radius * 1.02
        rules = [gauss_legendre(x_nodes, -half, half) for _ in range(m.dim - 1)]
    plane = tensor_rule(rules)

    base_offset = float(field._raw_value(field.basepoint.coords))
    total = 0.0
    for t, wt in zip(t_rule.nodes, t_rule.weights):
        if m.is_hyperbolic:
            # level b = t is the plane z = exp(-(t + offset)); induced density z^-(n-1)
            z = math.exp(-(t + base_offset))
            pts = np.concatenate([plane.nodes, np.full((plane.weights.size, 1), z)], axis=-1)
            slice_val = plane.integrate(f(pts)) * z ** (-(m.dim - 1))
        else:
            # the level set is the hyperplane -(x - base).u = t; quadrature
            # runs in an orthonormal frame of it around the projected center
            u = field.xi.data
            basis = orthonormal_complement(u)
            origin = f.center.coords + (center_level - t) * u
            slice_val = plane.integrate(f(origin + plane.nodes @ basis))
        total += wt * slice_val
    return total


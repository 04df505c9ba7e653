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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .manifold import (
    BoundaryPoint,
    GeometryError,
    ModelMismatchError,
    ModelSpace,
    Point,
    _rowdot,
    _same_model,
    direction_to_boundary,
)
from .numerics import gauss_legendre, orthonormal_complement, unit_sphere_area

__all__ = [
    "BusemannField",
    "busemann_value",
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
        q = _rowdot(w, w) + z * z
        return np.log(q / z)

    @functools.cached_property
    def _offset(self) -> float:
        """Unnormalized value at the basepoint, where b is 0."""
        return float(self._raw_value(self.basepoint.coords))

    def value(self, coords) -> np.ndarray:
        return self._value(self.model.check_coords(coords))

    def _value(self, coords: np.ndarray) -> np.ndarray:
        """:meth:`value` at chart points that are already validated."""
        return self._raw_value(coords) - self._offset

    def value_truncated(self, coords, T) -> np.ndarray:
        """Pre-limit quantity d(x, ray(T)) - T along the ray from the basepoint,
        for one T or an array of them: the result has shape T.shape + coords.shape[:-1].

        Non-increasing in T and converging to :meth:`value` as T grows."""
        T = np.asarray(T, dtype=float)
        if np.any(T <= 0):
            raise GeometryError("truncation parameter must be positive")
        v = direction_to_boundary(self.basepoint, self.xi)
        coords = self.model.check_coords(np.asarray(coords, dtype=float))
        T = T.reshape(T.shape + (1,) * (coords.ndim - 1))  # the ray points broadcast over the points
        ray_pt = self.model.geodesic(self.basepoint.coords, v.components, T)
        return self.model.distance(coords, ray_pt) - T

    # -- derivatives -----------------------------------------------------------

    def grad_chart(self, coords) -> np.ndarray:
        """Riemannian gradient in chart components (unit length in g)."""
        return self._grad(self.model.check_coords(coords))

    def _grad(self, coords: np.ndarray) -> np.ndarray:
        """:meth:`grad_chart` at chart points that are already validated.

        Half-space, finite xi: with d = x - (xi, 0), grad b = (2 z^2/|d|^2) d - z e_n.
        Half-space, xi = infinity: -z e_n. Euclidean: the constant -u."""
        out = np.empty_like(coords)
        if not self.model.is_hyperbolic:
            out[...] = self._neg_direction
            return out
        z = coords[..., -1]
        if self.xi.is_infinity:
            out[..., :-1] = 0.0
            out[..., -1] = -z
            return out
        d = np.subtract(coords, self._pole, out=out)
        d *= (2.0 * z * z / _rowdot(d, d))[..., None]
        d[..., -1] -= z
        return d

    @functools.cached_property
    def _pole(self) -> np.ndarray:
        """The finite boundary point (xi, 0) in chart coordinates."""
        return np.append(self.xi.data, 0.0)

    @functools.cached_property
    def _neg_direction(self) -> np.ndarray:
        """The constant Euclidean gradient -u."""
        return -self.xi.data

    def hessian_matrix(self, coords) -> np.ndarray:
        """Chart matrix of the shape operator w -> nabla_w grad b, one (n, n)
        matrix per point of a (..., n) batch: z^2 times the covariant Hessian.
        Horospheres of H^n are umbilic (Heintze and Im Hof, J. Diff. Geom. 12,
        1977), so it is I - g g^T / z^2 with g = grad b: symmetric, positive
        semi-definite, trace h, and it annihilates g. In E^n it vanishes."""
        x = self.model.check_coords(coords)
        n = self.model.dim
        if not self.model.is_hyperbolic:
            return np.zeros(x.shape + (n,))
        g = self._grad(x) / x[..., -1:]
        return np.eye(n) - g[..., :, None] * g[..., None, :]


# -- spec operation surface ---------------------------------------------------


def busemann_value(f: BusemannField, x: Point) -> float:
    _same_model(f, x)
    return float(f.value(x.coords))


def estimate_h(f: BusemannField, sample_coords) -> tuple[float, float]:
    """Trace of the horosphere shape operator over sample points: (mean, stddev).

    The standard deviation certifies that the mean curvature is constant."""
    traces = np.trace(f.hessian_matrix(np.atleast_2d(sample_coords)), axis1=-2, axis2=-1)
    return float(np.mean(traces)), float(np.std(traces))


def beta(f1: BusemannField, f2: BusemannField, x: Point | np.ndarray):
    """Gradient correlation g(grad b1, grad b2), in [-1, 1].

    Equals -1 exactly on the set D where the gradients cancel, and +1 only
    when the fields share a boundary point."""
    coords = _same_model(f1, f2).check_coords(x.coords if isinstance(x, Point) else x)
    val = f1.model._inner(coords, f1._grad(coords), f2._grad(coords))
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
    if f.xi.is_infinity:
        return ("plane", math.exp(-(float(level) + f._offset)))
    diameter = math.exp(float(level) + f._offset)
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
                           *, rays: int = 48, t_max: float = 50.0,
                           rng: np.random.Generator | None = None) -> BoundednessReport:
    """Probe whether {b1 <= c1} intersect {b2 <= c2} is bounded.

    Curvature -1 forces every geodesic ray to leave the intersection of two
    horoballs (visibility); flat space does not. The probe draws ``rays``
    random geodesic rays from a point of the region in one batch and reports
    the first, in draw order, that is still inside at ``t_max``, if any.
    """
    m = _same_model(f1, f2)
    rng = rng or np.random.default_rng(0)

    def inside(path):
        return (f1.value(path) <= c1) & (f2.value(path) <= c2)

    # find a start point inside the region: walk down both fields from the basepoint
    x = np.array(f1.basepoint.coords, copy=True)
    for _ in range(200):
        if inside(x):
            break
        g = f1.grad_chart(x) if f1.value(x) > c1 else f2.grad_chart(x)
        x = m.exp(x, -0.25 * g)
    else:
        raise GeometryError("could not locate a point in the sublevel region")

    ts = np.linspace(0.05, t_max, 400)
    v = m.random_unit_vectors(np.broadcast_to(x, (rays, m.dim)), rng)
    stuck = inside(m.geodesic(x, v, ts[-1]))  # the endpoints alone settle an unbounded region
    if stuck.any():
        return BoundednessReport(False, rays, float("inf"), v[np.argmax(stuck)])
    # horoballs, and so their intersections, are convex (Bridson and Haefliger, II.8)
    exits = _first_outside(lambda t: inside(m.geodesic(x, v, t)), ts, rays)
    return BoundednessReport(True, rays, float(np.max(ts[exits], initial=0.0)), None)


def _first_outside(inside_at, ts: np.ndarray, rays: int) -> np.ndarray:
    """For each of ``rays`` rays from a point of a convex region, the first index into ts at
    which the ray is outside it: ``inside_at`` maps one time per ray to one bool per ray, and
    every ray is outside at ts[-1]. Convexity makes inside True and then False along a ray,
    so a bisection between lo (inside, or -1) and hi (outside) gives the dense
    argmin(inside, axis=1) in about log2(ts.size) calls, each on all the rays."""
    lo, hi = np.full(rays, -1), np.full(rays, ts.size - 1)
    while (wide := hi - lo > 1).any():
        mid = np.where(wide, (lo + hi) // 2, hi)
        ins = inside_at(ts[mid])
        lo, hi = np.where(wide & ins, mid, lo), np.where(wide & ~ins, mid, hi)
    return hi


# -- coarea slicing ---------------------------------------------------------------


def coarea_slice_integral(f, field: BusemannField, *, pull=None, t_nodes: int = 64,
                          x_nodes: int = 48) -> float:
    """Integrate a radial bump, or its pullback by a map, by slicing along Busemann levels.

    Realizes the identity  integral_M f dmu = integral_R ( integral_{b=t} f dmu_t ) dt,
    valid because |grad b| = 1. The field must have flat level sets in the
    chart (point at infinity in the half-space, any direction in E^n).

    ``f`` is radial about ``f.center`` with support in the metric ball of
    radius ``f.radius`` (as :class:`TestFunction` is), so each level slice
    of the support is a round (n-1)-ball in the chart about the slice point
    nearest the center, and its integral is
    |S^{n-2}| integral_0^{r_max} f(r) r^{n-2} dr, times the induced density
    z^{-(n-1)} in H^n. The t-rule has ``t_nodes`` Gauss-Legendre nodes over
    the support, each slice a Gauss-Legendre rule of ``x_nodes`` radial
    nodes on [0, r_max]; f is evaluated once on all t_nodes * x_nodes points.

    ``pull``, a :class:`~horoflow.transport.VolumePreservingMap` that moves
    points along the normals of ``field`` (the vertical map (xbar, z) ->
    (xbar, g(z)) of a field at infinity, a translation in E^n), makes the
    integrand f o pull: the t-rule then covers the levels between the
    preimages of the support's two poles on the normal through the center,
    and the slice at level t is f's round slice at the level of its image.
    ``pull.apply_coords`` runs on every node. Raises :class:`GeometryError`
    where the levels of the node column or of its image are not strictly
    increasing in float64, and where a node does not move with its slice's
    center (the map does not keep xbar).
    """
    m = field.model
    n = m.dim
    if m.is_hyperbolic and not field.xi.is_infinity:
        raise GeometryError("slicing is implemented along fields with flat chart levels")
    c = f.center.coords
    R = f.radius
    center_level = float(field.value(c))

    if m.is_hyperbolic:
        # level b = t is the plane z = exp(-(t + offset)); the support ball is
        # the Euclidean ball about (cbar, z0 cosh R) of radius z0 sinh R
        def column(levels):
            out = np.tile(c, (levels.size, 1))
            out[:, -1] = np.exp(-(levels + field._offset))
            return out

        axis = np.zeros(n)
        axis[0] = 1.0
    else:
        # the level set is the hyperplane -(x - base).u = t, whose point
        # nearest the center lies at distance |center_level - t|
        u = field.xi.data

        def column(levels):
            return c + (center_level - levels)[:, None] * u

        axis = orthonormal_complement(u)[0]

    lo, hi = center_level - R, center_level + R
    if pull is not None:
        # the preimages of the support's two poles on the normal through the center
        ends = pull.inverse_coords(column(np.array([lo, hi])))
        lo, hi = field.value(ends)
    t_rule = gauss_legendre(t_nodes, lo, hi)
    t = t_rule.nodes
    origins = image = column(t)
    levels = t
    if pull is not None:
        image = pull.apply_coords(origins)
        levels = field.value(image)
        if not (np.all(np.diff(t) > 0.0) and np.all(np.diff(levels) > 0.0)):
            raise GeometryError(f"degenerate integration box: lo = {ends[0].tolist()}, "
                                f"hi = {ends[1].tolist()}: the levels of the pulled node column "
                                f"are not strictly increasing in float64 at t0 = {pull.t0}")
    if m.is_hyperbolic:
        z0 = c[-1]
        r_sq = (z0 * math.sinh(R)) ** 2 - (image[:, -1] - z0 * math.cosh(R)) ** 2
        density = origins[:, -1] ** (-(n - 1))
    else:
        r_sq = R * R - (center_level - levels) ** 2
        density = 1.0
    r_max = np.sqrt(np.clip(r_sq, 0.0, None))

    radial = gauss_legendre(x_nodes, 0.0, 1.0)
    radii = r_max[:, None] * radial.nodes  # (t_nodes, x_nodes)
    offsets = radii[..., None] * axis
    pts = (origins[:, None, :] + offsets).reshape(-1, n)
    if pull is not None:
        pts = pull.apply_coords(pts)
        gap = float(np.max(np.abs(pts.reshape(offsets.shape) - image[:, None, :] - offsets)))
        if gap > 1e-12 * float(np.max(r_max)):
            raise GeometryError(f"the pulling map moves slice nodes off their slice, by up to {gap:.3g}")
    values = np.asarray(f(pts), dtype=float).reshape(radii.shape)
    # |S^0| = 2 and r^0 = 1 cover both halves of a one-dimensional slice
    slices = unit_sphere_area(n - 2) * r_max * ((values * radii ** (n - 2)) @ radial.weights)
    return t_rule.integrate(slices * density)

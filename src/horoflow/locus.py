"""Horosphere-intersection loci and their weighted volume integrals.

For two Busemann fields with distinct boundary points, the locus

    S(s, t) = {b1 = (s + c0 + t)/2} intersect {b2 = (s + c0 - t)/2}

is an (n-2)-sphere for s > 0 (a point pair in H^2). Here c0 is the constant
value of b1 + b2 on the set D where the gradients cancel (the bi-asymptotic
geodesic), s = b1 + b2 - c0 measures the separation from D and t = b1 - b2
slides the locus along D without changing the weighted integrals

    V = integral of sqrt((1-beta)/(1+beta)) dmu',
    W = integral of sqrt((1+beta)/(1-beta)) dmu',

where beta = g(grad b1, grad b2) and dmu' is the induced measure.

All quadrature runs in normalized coordinates (boundary points moved to the
origin and infinity), where the locus is a round chart sphere of radius rho
at height a with rho/a = sqrt(e^s - 1). The un-normalized path recomputes
the induced measure from finite-difference tangent frames and serves as an
independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .busemann import BusemannField, beta, mean_curvature_h
from .manifold import (
    BoundaryConfigError,
    GeometryError,
    Isometry,
    ModelMismatchError,
    Point,
    boundary_finite,
    boundary_infinity,
    normalize_pair,
)
from .numerics import (ConvergenceError, MCEstimate, gauss_legendre, mc_integrate_box,
                       orthonormal_complement, sphere_rule)

__all__ = [
    "VisibilityError",
    "EmptyLocusError",
    "PairConfig",
    "make_pair_config",
    "IntersectionLocus",
    "parametrize_locus",
    "volume_locus",
    "integral_v",
    "integral_w",
    "dw_ds_check",
    "volume_upper_bound",
    "beta_bound_check",
    "strip_volume",
    "strip_volume_mc",
]


class VisibilityError(GeometryError):
    """The model does not satisfy the visibility condition (Euclidean pair)."""


class EmptyLocusError(GeometryError):
    """Requested intersection lies below the axis level (s < 0), or a strip
    region reaches the axis level (c1 + c2 <= c0)."""


# default quadrature sizes: trapezoid nodes on the circle for n=3,
# Gauss-Legendre nodes per spherical angle for n >= 4
CIRCLE_NODES = 512
ANGLE_NODES = 64


@dataclass(frozen=True)
class PairConfig:
    """A normalized pair of Busemann fields with the constants of their axis.

    ``normalizer`` maps the configuration onto (origin, infinity); in those
    coordinates b1 = ln((rho^2+z^2)/z) + k1 and b2 = -ln z + k2, and
    c0 = k1 + k2 is the value of b1 + b2 on the axis D (the z-axis image).
    """

    f1: BusemannField
    f2: BusemannField
    c0: float
    normalizer: Isometry
    k1: float
    k2: float

    @property
    def model(self):
        return self.f1.model

    @property
    def h(self) -> float:
        return mean_curvature_h(self.model)

    def axis_point(self, z: float = 1.0) -> Point:
        """Point of D at normalized height z."""
        y = np.zeros(self.model.dim)
        y[-1] = float(z)
        return Point(self.model, self.normalizer.inverse().apply_coords(y))

    def on_axis(self, x: Point, tol: float = 1e-9) -> bool:
        return float(beta(self.f1, self.f2, x)) <= -1.0 + tol

    def separation(self, x: Point) -> float:
        """s-coordinate b1(x) + b2(x) - c0 (>= 0 everywhere)."""
        from .busemann import busemann_value

        return busemann_value(self.f1, x) + busemann_value(self.f2, x) - self.c0

    def locus_geometry(self, s: float, t: float) -> tuple[float, float]:
        """Normalized chart height a and sphere radius rho of S(s, t)."""
        l1 = 0.5 * (s + self.c0 + t)
        l2 = 0.5 * (s + self.c0 - t)
        a = math.exp(self.k2 - l2)
        diameter = math.exp(l1 - self.k1)
        rho_sq = a * (diameter - a)
        if rho_sq < 0:
            raise EmptyLocusError("no intersection below the axis level")
        return a, math.sqrt(rho_sq)

    def point_on_locus(self, s: float, t: float) -> Point:
        """One point of S(s, t), in original coordinates."""
        a, rho = self.locus_geometry(s, t)
        y = np.zeros(self.model.dim)
        y[0] = rho
        y[-1] = a
        return Point(self.model, self.normalizer.inverse().apply_coords(y))


def make_pair_config(f1: BusemannField, f2: BusemannField) -> PairConfig:
    """Build the normalized configuration of two fields with distinct boundary points.

    Rejects the Euclidean model: its horoball intersections are unbounded, so
    no axis constant c0 exists (no visibility).
    """
    if f1.model != f2.model:
        raise ModelMismatchError("fields belong to different models")
    if not f1.model.is_hyperbolic:
        raise VisibilityError("Euclidean space is not a visibility manifold; no pair configuration")
    if f1.xi.same_as(f2.xi):
        raise BoundaryConfigError("pair configuration needs distinct boundary points")
    m = f1.model
    norm = normalize_pair(f1.xi, f2.xi)
    inv = norm.inverse()

    def pulled(coords):
        return inv.apply_coords(np.asarray(coords, dtype=float))

    axis = np.zeros(m.dim)
    axis[-1] = 1.0
    k1 = float(f1.value(pulled(axis)))  # ln(Q/z) vanishes on the axis at z=1
    k2 = float(f2.value(pulled(axis)))
    c0 = k1 + k2

    # constancy of b1 + b2 along the axis certifies the normalization
    for z in (0.5, 2.0, 4.0):
        probe = np.zeros(m.dim)
        probe[-1] = z
        val = float(f1.value(pulled(probe)) + f2.value(pulled(probe)))
        if abs(val - c0) > 1e-10:
            raise GeometryError(f"axis value of b1+b2 drifts: {val} vs {c0}")
    return PairConfig(f1=f1, f2=f2, c0=c0, normalizer=norm, k1=k1, k2=k2)


@dataclass(frozen=True)
class IntersectionLocus:
    """Quadrature-ready parametrization of S(s, t) by the unit (n-2)-sphere."""

    config: PairConfig
    s: float
    t: float
    height: float          # normalized chart height a
    radius: float          # normalized chart sphere radius rho
    sphere_nodes: np.ndarray   # (K, n-1) unit vectors
    sphere_weights: np.ndarray  # (K,) weights summing to the unit-sphere volume

    @property
    def degenerate(self) -> bool:
        return self.radius == 0.0

    @property
    def levels(self) -> tuple[float, float]:
        c0 = self.config.c0
        return 0.5 * (self.s + c0 + self.t), 0.5 * (self.s + c0 - self.t)

    def normalized_points(self) -> np.ndarray:
        pts = np.empty((self.sphere_nodes.shape[0], self.config.model.dim))
        pts[:, :-1] = self.radius * self.sphere_nodes
        pts[:, -1] = self.height
        return pts

    def points(self) -> np.ndarray:
        """Locus points in the original (un-normalized) coordinates."""
        return self.config.normalizer.inverse().apply_coords(self.normalized_points())

    def measure_factor(self) -> float:
        """Constant induced (n-2)-density against the unit-sphere weights."""
        if self.degenerate:
            return 0.0
        return (self.radius / self.height) ** (self.config.model.dim - 2)

    def beta_values(self) -> np.ndarray:
        """beta at the quadrature nodes, evaluated with the original fields."""
        return np.asarray(beta(self.config.f1, self.config.f2, self.points()))

    def membership_residual(self) -> float:
        """Worst deviation of the node Busemann values from the two levels."""
        pts = self.points()
        l1, l2 = self.levels
        r1 = np.max(np.abs(self.config.f1.value(pts) - l1))
        r2 = np.max(np.abs(self.config.f2.value(pts) - l2))
        return float(max(r1, r2))

    # -- independent general-coordinates measure ---------------------------------

    def measure_factors_fd(self, step: float = 1e-6) -> np.ndarray:
        """Induced density recomputed in original coordinates per node.

        Pushes a finite-difference tangent frame of the sphere through the
        inverse normalizer and takes the Gram determinant in the metric;
        cross-checks :meth:`measure_factor` (they agree by isometry
        invariance).
        """
        m = self.config.model
        dim_sphere = m.dim - 2
        if dim_sphere == 0 or self.degenerate:
            return np.full(self.sphere_nodes.shape[0], self.measure_factor())
        inv = self.config.normalizer.inverse()

        def embed(omega):
            y = np.concatenate([self.radius * omega, [self.height]])
            return inv.apply_coords(y)

        out = np.empty(self.sphere_nodes.shape[0])
        for i, omega in enumerate(self.sphere_nodes):
            base = embed(omega)
            vecs = []
            for tau in orthonormal_complement(omega):
                plus = embed(np.cos(step) * omega + np.sin(step) * tau)
                minus = embed(np.cos(step) * omega - np.sin(step) * tau)
                vecs.append((plus - minus) / (2.0 * step))
            gram = np.array([[m.inner(base, a, b) for b in vecs] for a in vecs])
            out[i] = math.sqrt(max(float(np.linalg.det(gram)), 0.0))
        return out


def parametrize_locus(cfg: PairConfig, s: float, t: float, *, nodes: int | None = None) -> IntersectionLocus:
    """Parametrize S(s, t) by the standard (n-2)-sphere.

    s > 0 gives the genuine locus; s = 0 degenerates to the single axis
    point; s < 0 raises :class:`EmptyLocusError` (the sum of the Busemann
    values never drops below c0).
    """
    if s < 0:
        raise EmptyLocusError(f"s = {s} < 0: empty intersection")
    a, rho = cfg.locus_geometry(s, t)
    m = cfg.model
    if nodes is None:
        nodes = CIRCLE_NODES if m.dim == 3 else ANGLE_NODES
    rule = sphere_rule(m.dim - 2, nodes)
    return IntersectionLocus(config=cfg, s=float(s), t=float(t), height=a, radius=rho,
                             sphere_nodes=np.atleast_2d(rule.nodes), sphere_weights=rule.weights)


def _weighted_integral(L: IntersectionLocus, weight_fn, path: str = "normalized") -> float:
    b = L.beta_values()
    if np.any(np.abs(b) >= 1.0 - 1e-12):
        raise GeometryError("weight singularity: |beta| reached 1 on the locus")
    if path == "normalized":
        density = L.measure_factor()
        return float(np.dot(L.sphere_weights, weight_fn(b)) * density)
    if path == "general":
        density = L.measure_factors_fd()
        return float(np.dot(L.sphere_weights * density, weight_fn(b)))
    raise ValueError(f"unknown quadrature path {path!r}")


def volume_locus(L: IntersectionLocus, path: str = "normalized", *,
                 check_convergence: bool = False) -> float:
    """(n-2)-dimensional Riemannian volume of the locus.

    With ``check_convergence`` the quadrature reruns at half the node count
    and a mismatch beyond 1e-9 raises :class:`ConvergenceError`.
    """
    if L.degenerate:
        return 0.0
    val = _weighted_integral(L, lambda b: np.ones_like(b), path)
    if check_convergence:
        half = parametrize_locus(L.config, L.s, L.t,
                                 nodes=max(8, L.sphere_weights.size // 2))
        ref = _weighted_integral(half, lambda b: np.ones_like(b), path)
        if abs(val - ref) > 1e-9 * max(1.0, abs(val)):
            raise ConvergenceError(f"locus quadrature has not converged: {val} vs {ref}")
    return val


def integral_v(L: IntersectionLocus, path: str = "normalized") -> float:
    """Integral of sqrt((1-beta)/(1+beta)) over the locus (t-invariant).

    Undefined (nan) on the degenerate s = 0 locus, where beta = -1; the
    continuity limit appears only in reports, never in assertions."""
    if L.degenerate:
        return math.nan
    return _weighted_integral(L, lambda b: np.sqrt((1.0 - b) / (1.0 + b)), path)


def integral_w(L: IntersectionLocus, path: str = "normalized") -> float:
    """Integral of sqrt((1+beta)/(1-beta)) over the locus (t-invariant).

    Undefined (nan) on the degenerate s = 0 locus."""
    if L.degenerate:
        return math.nan
    return _weighted_integral(L, lambda b: np.sqrt((1.0 + b) / (1.0 - b)), path)


def _mean_inverse_weight(L: IntersectionLocus) -> float:
    """Integral of (1 - beta^2)^(-1/2) over the locus: (V + W)/2."""
    return _weighted_integral(L, lambda b: 1.0 / np.sqrt(1.0 - b * b))


def dw_ds_check(cfg: PairConfig, s: float, t: float, *, step: float = 1e-3,
                nodes: int | None = None) -> tuple[float, float]:
    """Central difference of W in s against (h/2)(W + V) at (s, t)."""
    if s <= step:
        raise GeometryError("s must exceed the differencing step")
    w_plus = integral_w(parametrize_locus(cfg, s + step, t, nodes=nodes))
    w_minus = integral_w(parametrize_locus(cfg, s - step, t, nodes=nodes))
    lhs = (w_plus - w_minus) / (2.0 * step)
    L = parametrize_locus(cfg, s, t, nodes=nodes)
    rhs = 0.5 * cfg.h * (integral_w(L) + integral_v(L))
    return lhs, rhs


def volume_upper_bound(cfg: PairConfig, s: float, t: float, *, nodes: int | None = None) -> tuple[float, float]:
    """Locus volume and its t-invariant upper bound (V + W)/2."""
    L = parametrize_locus(cfg, s, t, nodes=nodes)
    return volume_locus(L), _mean_inverse_weight(L)


def beta_bound_check(L: IntersectionLocus, margin: float = 1e-9) -> bool:
    """max beta on the locus <= 1 - 2 e^{-h s} (+ margin)."""
    if L.degenerate:
        return True
    bound = 1.0 - 2.0 * math.exp(-L.config.h * L.s)
    return bool(np.max(L.beta_values()) <= bound + margin)


# --------------------------------------------------------------------------
# Strip volumes
# --------------------------------------------------------------------------


def _strip_geometry(cfg: PairConfig, c1: float, c2: float, r: float) -> float:
    """Lowest separation s = c1 + c2 - c0 of a valid strip region."""
    if r <= 0:
        raise GeometryError("strip width must be positive")
    s_lo = c1 + c2 - cfg.c0
    if s_lo <= 0:
        raise EmptyLocusError(
            f"strip region reaches the axis level: c1 + c2 - c0 = {s_lo} <= 0"
        )
    return s_lo


def strip_volume(cfg: PairConfig, c1: float, c2: float, r: float, *,
                 s_nodes: int = 80, locus_nodes: int | None = None) -> float:
    """n-volume of {c1 <= b1 <= c1+r} intersect {c2 <= b2 <= c2+r} by slicing.

    In (s, t) = (b1+b2-c0, b1-b2) coordinates the square becomes a diamond
    whose t-sections have length 2*min(sigma, 2r-sigma); since the section
    integral I(s) of (1-beta^2)^{-1/2} is t-invariant, the volume reduces to
    a single quadrature of min(sigma, 2r-sigma) * I(s) over sigma in [0, 2r].
    I(s) is evaluated on S(s, c1-c2), so shifting c1-c2 at fixed c1+c2
    genuinely re-tests the t-invariance.

    The domain is r > 0 and c1 + c2 > c0, so the whole region lies above
    the axis level and every section S(s, t) has s > 0. A region that
    reaches the axis level raises EmptyLocusError, as strip_volume_mc
    does: V and W are undefined on the degenerate s = 0 locus, and in H^2
    I(s) grows like s^(-1/2) there, which the Gauss-Legendre rule would
    integrate to a wrong value without any error signal.
    """
    s_lo = _strip_geometry(cfg, c1, c2, r)
    t_ref = c1 - c2

    def integrand(sigma: float) -> float:
        L = parametrize_locus(cfg, s_lo + sigma, t_ref, nodes=locus_nodes)
        return min(sigma, 2.0 * r - sigma) * _mean_inverse_weight(L)

    # the section weight has a kink at sigma = r; integrate each piece smoothly
    total = 0.0
    for a, b in ((0.0, r), (r, 2.0 * r)):
        rule = gauss_legendre(s_nodes // 2, a, b)
        total += float(np.dot(rule.weights, [integrand(x) for x in rule.nodes]))
    return total


def strip_volume_mc(cfg: PairConfig, c1: float, c2: float, r: float, *,
                    n_samples: int = 200_000, seed: int = 0) -> MCEstimate:
    """Direct Monte Carlo volume of the same strip region (in normalized chart).

    Accepts the same inputs as strip_volume and raises the same errors."""
    _strip_geometry(cfg, c1, c2, r)
    m = cfg.model
    z_lo = math.exp(cfg.k2 - (c2 + r))
    z_hi = math.exp(cfg.k2 - c2)
    diam_hi = math.exp(c1 + r - cfg.k1)
    rho_max = math.sqrt(z_hi * diam_hi)
    lo = np.full(m.dim, -rho_max)
    hi = np.full(m.dim, rho_max)
    lo[-1], hi[-1] = z_lo, z_hi

    # normalized-coordinate closed forms of the two Busemann values
    def integrand(pts):
        z = pts[:, -1]
        q = np.sum(pts[:, :-1] ** 2, axis=-1) + z * z
        b1 = np.log(q / z) + cfg.k1
        b2 = -np.log(z) + cfg.k2
        inside = (b1 >= c1) & (b1 <= c1 + r) & (b2 >= c2) & (b2 <= c2 + r)
        return inside * z ** (-float(m.dim))

    return mc_integrate_box(integrand, lo, hi, n_samples, seed)

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

The product path is closed form: in normalized coordinates (boundary points
moved to the origin and infinity) the locus is a round chart sphere with
radius/height = sqrt(e^s - 1), and beta = 1 - 2 e^{-s} on it, which
:func:`locus_values` turns into vol, V, W and (V + W)/2 in O(1). The oracle
is :func:`locus_quadrature`: beta from the original fields and the induced
density (in normalized coordinates, or from finite-difference tangent frames
in the original ones) at the 4(n-1) nodes of a degree-3 spherical design
(the two points of S^0 in H^2). Both are constant on the locus, so a rule
that integrates constants exactly is all the oracle needs: its nodes test
the constancy, and its weighted sums the closed forms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .busemann import BusemannField, beta, mean_curvature_h
from .manifold import BoundaryConfigError, GeometryError, ModelMismatchError, Point, _rowdot
from .numerics import (MCEstimate, QuadratureRule, fd_jacobian, gauss_legendre,
                       mc_integrate_box, orthonormal_complement, sphere_rule, unit_sphere_area)

__all__ = [
    "VisibilityError",
    "EmptyLocusError",
    "PairConfig",
    "make_pair_config",
    "IntersectionLocus",
    "parametrize_locus",
    "LocusValues",
    "locus_values",
    "locus_quadrature",
    "dw_ds_check",
    "strip_volume",
    "strip_volume_mc",
]


class VisibilityError(GeometryError):
    """The model does not satisfy the visibility condition (Euclidean pair)."""


class EmptyLocusError(GeometryError):
    """Requested intersection lies below the axis level (s < 0), or a strip
    region reaches the axis level (c1 + c2 <= c0)."""


def _native(values: np.ndarray):
    """A Python float for a 0-d result, so scalar callers keep float types; the
    array otherwise."""
    return float(values) if np.ndim(values) == 0 else values


@dataclass(frozen=True)
class PairConfig:
    """A normalized pair of Busemann fields with the constants of their axis.

    :meth:`normalize` moves xi1 to the boundary origin and xi2 to infinity and
    :meth:`denormalize` moves back; in normalized coordinates
    b1 = ln((rho^2+z^2)/z) + k1 and b2 = -ln z + k2, and c0 = k1 + k2 is the
    value of b1 + b2 on the axis D (the z-axis image). ``steps`` is that move
    as half-space isometries applied in order: an offset a translates
    xbar -> xbar + a, and ``None`` is the inversion x -> x/|x|^2 through the
    unit sphere.
    """

    f1: BusemannField
    f2: BusemannField
    c0: float
    steps: tuple
    k1: float
    k2: float

    def normalize(self, coords) -> np.ndarray:
        """Chart points in normalized coordinates."""
        return self._move(coords, self.steps)

    def denormalize(self, coords) -> np.ndarray:
        """Normalized chart points back in original coordinates."""
        return self._move(coords, tuple(None if a is None else -a for a in reversed(self.steps)))

    def _move(self, coords, steps) -> np.ndarray:
        y = self.model.check_coords(np.asarray(coords, dtype=float))
        for a in steps:
            if a is None:
                y = y / _rowdot(y, y)[..., None]
            else:
                y = np.array(y, copy=True)
                y[..., :-1] += a
        return y

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
        return Point(self.model, self.denormalize(y))

    def separation(self, x: Point) -> float:
        """s-coordinate b1(x) + b2(x) - c0 (>= 0 everywhere)."""
        from .busemann import busemann_value

        return busemann_value(self.f1, x) + busemann_value(self.f2, x) - self.c0

    def locus_geometry(self, s, t):
        """Normalized chart height a and sphere radius rho of S(s, t).

        a = e^(k2 - l2) for the b2 level l2 = (s + c0 - t)/2, and
        rho = a sqrt(e^s - 1), so the locus is exactly the axis point at s = 0.
        Broadcasts over arrays of s and t and returns two arrays of their
        broadcast shape; scalar s and t give Python floats. Raises
        :class:`EmptyLocusError`, naming the first s < 0 (below the axis level).
        """
        s = np.asarray(s, dtype=float)
        below = s < 0
        if below.any():
            raise EmptyLocusError(f"s = {float(s[below][0])} < 0: empty intersection")
        with np.errstate(over="ignore", invalid="ignore"):
            a = np.exp(self.k2 - 0.5 * (s + self.c0 - t))
            rho = a * np.sqrt(np.expm1(s))
        return _native(a), _native(rho)

    def point_on_locus(self, s: float, t: float) -> Point:
        """One point of S(s, t), in original coordinates."""
        a, rho = self.locus_geometry(s, t)
        y = np.zeros(self.model.dim)
        y[0] = rho
        y[-1] = a
        return Point(self.model, self.denormalize(y))


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
    xi1, xi2 = f1.xi, f2.xi
    if xi2.is_infinity:
        steps = () if np.allclose(xi1.data, 0.0) else (-xi1.data,)
    elif xi1.is_infinity:
        steps = (-xi2.data, None)  # send xi2 to the origin, then swap 0 and infinity
    else:
        d = xi2.data - xi1.data
        steps = (-xi1.data, None, -d / float(np.dot(d, d)), None)
    cfg = PairConfig(f1=f1, f2=f2, c0=0.0, steps=steps, k1=0.0, k2=0.0)  # constants read below

    axis = np.zeros(m.dim)
    axis[-1] = 1.0
    k1 = float(f1.value(cfg.denormalize(axis)))  # ln(Q/z) vanishes on the axis at z=1
    k2 = float(f2.value(cfg.denormalize(axis)))
    c0 = k1 + k2

    # constancy of b1 + b2 along the axis certifies the normalization
    for z in (0.5, 2.0, 4.0):
        probe = np.zeros(m.dim)
        probe[-1] = z
        val = float(f1.value(cfg.denormalize(probe)) + f2.value(cfg.denormalize(probe)))
        if abs(val - c0) > 1e-10:
            raise GeometryError(f"axis value of b1+b2 drifts: {val} vs {c0}")
    return replace(cfg, c0=c0, k1=k1, k2=k2)


@dataclass(frozen=True)
class IntersectionLocus:
    """S(s, t) as a round chart sphere in normalized coordinates; the oracle's
    degree-3 spherical design on S^{n-2} is built on first use of its nodes or
    weights."""

    config: PairConfig
    s: float
    t: float
    height: float          # normalized chart height a
    radius: float          # normalized chart sphere radius rho

    @functools.cached_property
    def _rule(self) -> QuadratureRule:
        return sphere_rule(self.config.model.dim - 2)

    @property
    def sphere_nodes(self) -> np.ndarray:
        """(K, n-1) unit vectors of the sphere rule."""
        return np.atleast_2d(self._rule.nodes)

    @property
    def sphere_weights(self) -> np.ndarray:
        """(K,) weights summing to the unit-sphere volume."""
        return self._rule.weights

    @property
    def degenerate(self) -> bool:
        return self.radius == 0.0

    def points(self) -> np.ndarray:
        """Locus points in the original (un-normalized) coordinates."""
        pts = np.empty((self.sphere_nodes.shape[0], self.config.model.dim))
        pts[:, :-1] = self.radius * self.sphere_nodes
        pts[:, -1] = self.height
        return self.config.denormalize(pts)

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
        c0 = self.config.c0
        r1 = np.max(np.abs(self.config.f1.value(pts) - 0.5 * (self.s + c0 + self.t)))
        r2 = np.max(np.abs(self.config.f2.value(pts) - 0.5 * (self.s + c0 - self.t)))
        return float(max(r1, r2))

    # -- independent general-coordinates measure ---------------------------------

    def measure_factors_fd(self, step: float = 1e-3) -> np.ndarray:
        """Induced density recomputed in original coordinates per node.

        Maps the tangent plane of the unit sphere at each node onto the
        sphere by normalizing, then into original coordinates through
        :meth:`PairConfig.denormalize`; :func:`fd_jacobian` pushes the
        orthonormal tangent frame through that map, and the density is the
        pushed frame's :meth:`~horoflow.manifold.ModelSpace.frame_volume`.
        Cross-checks :meth:`measure_factor` (they agree by isometry invariance).
        """
        m = self.config.model
        if m.dim == 2 or self.degenerate:
            return np.full(self.sphere_nodes.shape[0], self.measure_factor())
        out = []
        for omega in self.sphere_nodes:
            frame = orthonormal_complement(omega)

            def chart(u):
                y = omega + u @ frame
                y = self.radius * y / np.sqrt(_rowdot(y, y))[..., None]
                return self.config.denormalize(np.column_stack([y, np.full(len(y), self.height)]))

            jac, base = fd_jacobian(chart, np.zeros(len(frame)), step)
            out.append(m.frame_volume(base, jac.T))
        return np.array(out)


def parametrize_locus(cfg: PairConfig, s: float, t: float) -> IntersectionLocus:
    """S(s, t), for the closed forms and the quadrature oracle.

    s > 0 gives the genuine locus; s = 0 degenerates to the single axis
    point; s < 0 raises :class:`EmptyLocusError` (the sum of the Busemann
    values never drops below c0), and :class:`GeometryError` names an (s, t)
    whose height or radius leaves the float64 range. The oracle's sphere
    rule is not built here.
    """
    a, rho = cfg.locus_geometry(s, t)
    if not (0.0 < a < math.inf and math.isfinite(rho)):
        raise GeometryError(f"locus geometry leaves float64 at s = {float(s)}, t = {float(t)}")
    return IntersectionLocus(config=cfg, s=float(s), t=float(t), height=a, radius=rho)


class LocusValues(NamedTuple):
    """The locus quantities of one S(s, t), in the column order of a sweep."""

    vol: float        # (n-2)-dimensional volume
    V: float          # integral of sqrt((1-beta)/(1+beta))
    W: float          # integral of sqrt((1+beta)/(1-beta))
    bound: float      # integral of (1-beta^2)^(-1/2), which is (V + W)/2
    beta_max: float   # largest beta on the locus


def locus_values(cfg: PairConfig, s, t) -> LocusValues:
    """Closed forms of the locus quantities on S(s, t), in O(1) per cell.

    With x = e^s - 1 = (rho/a)^2, beta = 1 - 2 e^{-s} at every point of the
    locus, so the V and W weights are x^(-1/2) and x^(1/2), and
    vol, V, W = |S^{n-2}| x^{k/2} for k = n-2, n-3, n-1. On the degenerate
    s = 0 locus vol = 0 and beta = -1, and V, W and the bound are undefined
    (nan).

    Broadcasts over arrays of s and t: every field is an array of their
    broadcast shape, so s[:, None] and t[None, :] give one (len s, len t)
    table per quantity; scalar s and t give Python floats. Raises
    :class:`EmptyLocusError` where :func:`parametrize_locus` does, and
    :class:`GeometryError` naming the first (s, t) with s > 0 where a value
    overflows float64.
    """
    cfg.locus_geometry(s, t)  # rejects s < 0; the values depend on s alone
    s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    n = cfg.model.dim
    degenerate = s == 0.0
    with np.errstate(all="ignore"):
        x = np.expm1(s)
        vol = unit_sphere_area(n - 2) * x ** (0.5 * (n - 2))
        root = np.sqrt(x)
        v, w = vol / root, vol * root
        bound = 0.5 * (v + w)
        beta_max = 1.0 - 2.0 * np.exp(-s)
    finite = np.isfinite(vol) & np.isfinite(v) & np.isfinite(w) & np.isfinite(bound)
    overflow = ~(degenerate | finite)
    if overflow.any():
        i = np.flatnonzero(overflow)[0]
        raise GeometryError(f"locus quantities overflow float64 at s = {float(s.flat[i])}, "
                            f"t = {float(t.flat[i])}")
    vol = np.where(degenerate, 0.0, vol)
    v, w, bound = (np.where(degenerate, np.nan, q) for q in (v, w, bound))
    return LocusValues(*(_native(q) for q in (vol, v, w, bound, beta_max)))


def locus_quadrature(L: IntersectionLocus, *, general: bool = False) -> LocusValues:
    """Oracle of :func:`locus_values`: the same quantities by the sphere rule,
    with beta evaluated at the nodes from the original fields.

    The induced density is the constant (rho/a)^(n-2) of normalized
    coordinates, or with ``general`` the per-node density of
    :meth:`IntersectionLocus.measure_factors_fd`. Raises
    :class:`GeometryError` where |beta| reaches 1 and the weights are singular.
    """
    if L.degenerate:
        return LocusValues(0.0, math.nan, math.nan, math.nan, -1.0)
    b = L.beta_values()
    if np.any(np.abs(b) >= 1.0 - 1e-12):
        raise GeometryError("weight singularity: |beta| reached 1 on the locus")
    if general:
        weights, density = L.sphere_weights * L.measure_factors_fd(), 1.0
    else:
        weights, density = L.sphere_weights, L.measure_factor()

    def integral(values) -> float:
        return float(np.dot(weights, values) * density)

    return LocusValues(integral(np.ones_like(b)), integral(np.sqrt((1.0 - b) / (1.0 + b))),
                       integral(np.sqrt((1.0 + b) / (1.0 - b))), integral(1.0 / np.sqrt(1.0 - b * b)),
                       float(np.max(b)))


def dw_ds_check(cfg: PairConfig, s: float, t: float, *, step: float = 1e-3) -> tuple[float, float]:
    """Central difference in s of the quadrature W against the closed form
    (h/2)(W + V) at (s, t)."""
    if s <= step:
        raise GeometryError("s must exceed the differencing step")
    w_plus = locus_quadrature(parametrize_locus(cfg, s + step, t)).W
    w_minus = locus_quadrature(parametrize_locus(cfg, s - step, t)).W
    lhs = (w_plus - w_minus) / (2.0 * step)
    closed = locus_values(cfg, s, t)
    rhs = 0.5 * cfg.h * (closed.W + closed.V)
    return lhs, rhs


# --------------------------------------------------------------------------
# Strip volumes
# --------------------------------------------------------------------------


# Gauss-Legendre nodes on each side of the kink of a strip's section weight
STRIP_NODES = 40


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


def strip_volume(cfg: PairConfig, c1: float, c2: float, r: float, *, section=None) -> float:
    """n-volume of {c1 <= b1 <= c1+r} intersect {c2 <= b2 <= c2+r} by slicing.

    In (s, t) = (b1+b2-c0, b1-b2) coordinates the square becomes a diamond
    whose t-sections have length 2*min(sigma, 2r-sigma); since the section
    integral I(s) of (1-beta^2)^{-1/2} is t-invariant, the volume reduces to
    a single quadrature of min(sigma, 2r-sigma) * I(s) over sigma in [0, 2r].
    I(s) is the closed-form bound of S(s, c1-c2), evaluated in one broadcast
    call on every node. ``section(s, t)``, which maps an array of s to an
    array of sections, replaces it, say by the quadrature oracle; then
    shifting c1-c2 at fixed c1+c2 genuinely re-tests the t-invariance.

    The domain is r > 0 and c1 + c2 > c0, so the whole region lies above
    the axis level and every section S(s, t) has s > 0. A region that
    reaches the axis level raises EmptyLocusError, as strip_volume_mc
    does: V and W are undefined on the degenerate s = 0 locus, and in H^2
    I(s) grows like s^(-1/2) there, which the Gauss-Legendre rule would
    integrate to a wrong value without any error signal.
    """
    s_lo = _strip_geometry(cfg, c1, c2, r)
    if section is None:
        def section(s, t):
            return locus_values(cfg, s, t).bound

    # the section weight has a kink at sigma = r; integrate each piece smoothly
    pieces = [gauss_legendre(STRIP_NODES, a, b) for a, b in ((0.0, r), (r, 2.0 * r))]
    sigma = np.concatenate([rule.nodes for rule in pieces])
    values = np.minimum(sigma, 2.0 * r - sigma) * section(s_lo + sigma, c1 - c2)
    return sum(float(np.dot(rule.weights, part))
               for rule, part in zip(pieces, np.split(values, len(pieces))))


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
        ybar, z = pts[:, :-1], pts[:, -1]
        q = _rowdot(ybar, ybar) + z * z
        b1 = np.log(q / z) + cfg.k1
        b2 = -np.log(z) + cfg.k2
        inside = (b1 >= c1) & (b1 <= c1 + r) & (b2 >= c2) & (b2 <= c2 + r)
        return inside * z ** (-float(m.dim))

    return mc_integrate_box(integrand, lo, hi, n_samples, seed)

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

Both paths broadcast over arrays of s and t: s[:, None] and t[None, :] give
one (len s, len t) table per quantity, of closed forms from
:func:`locus_values` or of quadratures from :func:`parametrize_locus` and
:func:`locus_quadrature`, and scalar s and t give Python floats.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .busemann import BusemannField, beta, busemann_value, mean_curvature_h
from .manifold import BoundaryConfigError, GeometryError, Point, _native, _rowdot, _same_model
from .numerics import (QuadratureRule, fd_jacobian, gauss_legendre, orthonormal_complement,
                       sphere_rule, unit_sphere_area)

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
    "strip_volume_sliced",
]


class VisibilityError(GeometryError):
    """The model does not satisfy the visibility condition (Euclidean pair)."""


class EmptyLocusError(GeometryError):
    """Requested intersection lies below the axis level (s < 0), or a strip
    region reaches the axis level (c1 + c2 <= c0)."""


def _reject_below_axis(s: np.ndarray) -> None:
    """Raise :class:`EmptyLocusError`, naming the first s < 0 (below the axis level)."""
    if np.any(s < 0):
        raise EmptyLocusError(f"s = {float(s[s < 0][0])} < 0: empty intersection")


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
        _reject_below_axis(s)
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
    m = _same_model(f1, f2)
    if not m.is_hyperbolic:
        raise VisibilityError("Euclidean space is not a visibility manifold; no pair configuration")
    if f1.xi.same_as(f2.xi):
        raise BoundaryConfigError("pair configuration needs distinct boundary points")
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


# central-difference step of the locus oracles: in s for dw_ds_check, in the
# chart for measure_factors_fd
LOCUS_FD_STEP = 1e-3


@dataclass(frozen=True)
class IntersectionLocus:
    """The loci S(s, t) of a broadcast grid of cells, each a round chart sphere
    in normalized coordinates.

    ``s``, ``t``, ``height`` and ``radius`` share the broadcast shape of the s
    and t given to :func:`parametrize_locus`, written (...) below; for scalar
    s and t they are Python floats and (...) is empty. Every cell carries the
    oracle's degree-3 spherical design on S^{n-2}, which is built on first use
    of its nodes or weights."""

    config: PairConfig
    s: float | np.ndarray
    t: float | np.ndarray
    height: float | np.ndarray  # normalized chart height a
    radius: float | np.ndarray  # normalized chart sphere radius rho

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
    def degenerate(self):
        """Per cell: the s = 0 locus, the single axis point."""
        return np.equal(self.radius, 0.0)

    def points(self) -> np.ndarray:
        """(..., K, n) locus points in the original (un-normalized) coordinates."""
        nodes = self.sphere_nodes
        pts = np.empty(np.shape(self.radius) + (nodes.shape[0], self.config.model.dim))
        pts[..., :-1] = np.asarray(self.radius)[..., None, None] * nodes
        pts[..., -1] = np.asarray(self.height)[..., None]
        return self.config.denormalize(pts)

    def measure_factor(self):
        """Per cell, the constant induced (n-2)-density against the unit-sphere
        weights; 0 on a degenerate cell."""
        ratio = np.asarray(self.radius) / self.height
        return _native(np.where(self.degenerate, 0.0, ratio ** (self.config.model.dim - 2)))

    def beta_values(self) -> np.ndarray:
        """(..., K) beta at the quadrature nodes, evaluated with the original fields."""
        return np.asarray(beta(self.config.f1, self.config.f2, self.points()))

    def membership_residual(self) -> float:
        """Worst deviation, over all nodes of all cells, of the node Busemann
        values from the two levels."""
        pts = self.points()
        s, t, c0 = np.asarray(self.s)[..., None], np.asarray(self.t)[..., None], self.config.c0
        r1 = np.abs(self.config.f1.value(pts) - 0.5 * (s + c0 + t))
        r2 = np.abs(self.config.f2.value(pts) - 0.5 * (s + c0 - t))
        return float(np.max(np.maximum(r1, r2)))

    # -- independent general-coordinates measure ---------------------------------

    def measure_factors_fd(self) -> np.ndarray:
        """Induced density recomputed in original coordinates per node, on a
        locus of one cell (scalar s and t).

        The radial projection y -> rho y/|y| of R^(n-1) onto the sphere,
        placed at height a and taken into original coordinates by
        :meth:`PairConfig.denormalize`, has its Jacobian at all nodes from one
        :func:`fd_jacobian` call; it pushes each node's orthonormal tangent
        frame, and the density is the pushed frame's
        :meth:`~horoflow.manifold.ModelSpace.frame_volume`.
        Cross-checks :meth:`measure_factor` (they agree by isometry invariance).
        """
        m = self.config.model
        if m.dim == 2 or self.degenerate:
            return np.full(self.sphere_nodes.shape[0], self.measure_factor())

        def chart(y):
            y = self.radius * y / np.sqrt(_rowdot(y, y))[..., None]
            return self.config.denormalize(np.column_stack([y, np.full(len(y), self.height)]))

        jac, base = fd_jacobian(chart, self.sphere_nodes, LOCUS_FD_STEP)
        return m.frame_volume(base, orthonormal_complement(self.sphere_nodes) @ jac.mT)


def _require_cells(ok, s, t, failure: str) -> None:
    """Raise :class:`GeometryError` with ``failure`` naming the first (s, t) cell
    of the broadcast arrays s and t where ``ok`` is false."""
    if not np.all(ok):
        i = np.flatnonzero(~np.asarray(ok))[0]
        raise GeometryError(f"{failure} at s = {float(s.flat[i])}, t = {float(t.flat[i])}")


def parametrize_locus(cfg: PairConfig, s, t) -> IntersectionLocus:
    """S(s, t) for every cell of the broadcast grid of s and t, for the closed
    forms and the quadrature oracle.

    s > 0 gives the genuine locus; s = 0 degenerates to the single axis
    point; s < 0 raises :class:`EmptyLocusError` (the sum of the Busemann
    values never drops below c0), and :class:`GeometryError` names the first
    (s, t) whose height or radius leaves the float64 range. The oracle's
    sphere rule is not built here.
    """
    a, rho = cfg.locus_geometry(s, t)
    s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    _require_cells((a > 0.0) & np.isfinite(a) & np.isfinite(rho), s, t, "locus geometry leaves float64")
    return IntersectionLocus(config=cfg, s=_native(s), t=_native(t), height=a, radius=rho)


class LocusValues(NamedTuple):
    """The locus quantities of S(s, t), one per cell, in the column order of a sweep."""

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
    _reject_below_axis(np.asarray(s, dtype=float))  # the values depend on s alone
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
    _require_cells(degenerate | finite, s, t, "locus quantities overflow float64")
    vol = np.where(degenerate, 0.0, vol)
    v, w, bound = (np.where(degenerate, np.nan, q) for q in (v, w, bound))
    return LocusValues(*(_native(q) for q in (vol, v, w, bound, beta_max)))


def locus_quadrature(L: IntersectionLocus, *, general: bool = False) -> LocusValues:
    """Oracle of :func:`locus_values`: the same quantities by the sphere rule,
    with beta evaluated at the nodes from the original fields, one entry per
    cell of L. A degenerate s = 0 cell gives (0, nan, nan, nan, -1).

    The weights take 1 -+ beta as |g1 -+ g2|^2 / 2 from the unit gradients g1, g2
    at the nodes, which keeps their digits where |beta| nears 1 (1 - beta =
    2 e^-s on S(s, t)). The induced density is the constant (rho/a)^(n-2) of
    normalized coordinates, or with ``general`` the per-node density of
    :meth:`IntersectionLocus.measure_factors_fd`, which takes a locus of one
    cell. Raises :class:`GeometryError` where 1 - beta or 1 + beta reaches 0 on
    a genuine cell and the weights are singular.
    """
    cfg, pts, degenerate = L.config, L.points(), L.degenerate
    live = ~degenerate[..., None]
    g1, g2 = cfg.f1.grad_chart(pts), cfg.f2.grad_chart(pts)
    b = cfg.model._inner(pts, g1, g2)  # beta_values, from the gradients in hand
    # finite weights on degenerate cells, whose density is 0
    om, op = (np.where(live, 0.5 * cfg.model._inner(pts, g, g), 1.0) for g in (g1 - g2, g1 + g2))
    if np.any(np.minimum(om, op) <= 0.0):
        raise GeometryError("weight singularity: |beta| reached 1 on the locus")
    if general:
        weights, density = L.sphere_weights * L.measure_factors_fd(), 1.0
    else:
        weights, density = L.sphere_weights, L.measure_factor()
    beta_max = np.where(degenerate, -1.0, np.max(b, axis=-1))
    integrands = [np.ones_like(b), np.sqrt(om / op), np.sqrt(op / om), 1.0 / np.sqrt(om * op)]
    vol, v, w, bound = (np.stack(integrands) @ weights) * density
    v, w, bound = np.where(degenerate, np.nan, [v, w, bound])
    return LocusValues(*(_native(q) for q in (vol, v, w, bound, beta_max)))


def dw_ds_check(cfg: PairConfig, s, t) -> tuple:
    """Central difference in s of the quadrature W against the closed form
    (h/2)(W + V), at every cell of the broadcast grid of s and t."""
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    if np.any(s <= LOCUS_FD_STEP):
        raise GeometryError("s must exceed the differencing step")
    w = locus_quadrature(parametrize_locus(cfg, s[..., None] + [-LOCUS_FD_STEP, LOCUS_FD_STEP],
                                           t[..., None])).W
    lhs = (w[..., 1] - w[..., 0]) / (2.0 * LOCUS_FD_STEP)
    closed = locus_values(cfg, s, t)
    rhs = 0.5 * cfg.h * (closed.W + closed.V)
    return _native(lhs), _native(rhs)


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
    reaches the axis level raises EmptyLocusError, as strip_volume_sliced
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


def strip_volume_sliced(cfg: PairConfig, c1: float, c2: float, r: float) -> float:
    """Oracle of :func:`strip_volume`: the same region sliced along the heights z
    of the normalized chart, from the closed forms of b1 and b2 alone.

    b2 = k2 - ln z puts z in [e^(k2-c2-r), e^(k2-c2)], and
    b1 = ln((rho^2 + z^2)/z) + k1 in [c1, c1+r] makes the slice at height z the
    (n-1)-annulus of squared radii z e^(c1-k1) - z^2 and z e^(c1+r-k1) - z^2. With
    dmu = z^-n dxbar dz = z^(1-n) dxbar d(ln z), the volume is the integral over
    ln z of |B^(n-1)| ((rho_out/z)^(n-1) - (rho_in/z)^(n-1)), one Gauss-Legendre
    rule. Both squared radii stay positive on the whole range (c1 + c2 > c0 gives
    z e^(c1-k1) > z^2 there), so the integrand is smooth and needs no split.
    Accepts the same inputs as strip_volume and raises the same errors.
    """
    _strip_geometry(cfg, c1, c2, r)
    n = cfg.model.dim
    rule = gauss_legendre(STRIP_NODES, cfg.k2 - c2 - r, cfg.k2 - c2)
    z = np.exp(rule.nodes)
    inner = np.exp(c1 - cfg.k1) / z - 1.0       # (rho_in / z)^2
    outer = np.exp(c1 + r - cfg.k1) / z - 1.0   # (rho_out / z)^2
    ball = unit_sphere_area(n - 2) / (n - 1)
    return ball * rule.integrate(outer ** (0.5 * (n - 1)) - inner ** (0.5 * (n - 1)))

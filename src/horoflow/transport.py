"""Normal flows of Busemann fields and the volume-preserving machinery.

Contents:

* the unit-speed normal flow ``phi_t(x) = exp_x(t grad b(x))``, which raises
  the Busemann value by exactly t and expands horosphere volume by e^{h t};
* the reparametrization ``alpha`` solving ``alpha'(t) e^{h(alpha(t)-t)} = 1``
  and the map ``F(phi(t,x)) = phi(alpha(t),x)`` with unit Jacobian
  determinant sending a chosen point p to a chosen point q;
* the pair flows driven by two Busemann fields: the difference flow X
  (raises b1 by t/2, lowers b2 by t/2) and the sum flow Y (raises both by
  s/2), with their closed-form flow maps and volume densities;
* the oracles that verify all of the above from first principles:
  Chebyshev-Picard flow maps, finite-difference divergences and Jacobians. A
  :class:`FlowRun` integrates named blocks of starts, each of one pair flow, as
  one recorded batch, so one run serves the flows suite.

For h > 0 the range of alpha is (m, infinity) with
``m = (1/h) ln(e^{h t0} - 1)``, so the image of F is the open horoball
complement {b > m} rather than all of M; see ``VolumePreservingMap.image_threshold``.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field as dc_field

import numpy as np

from .busemann import BusemannField, beta, mean_curvature_h
from .manifold import (
    GeometryError,
    ModelMismatchError,
    ModelSpace,
    Point,
    TangentVec,
    boundary_from_direction,
    _native,
    _rowdot,
    _same_model,
)
from .locus import PairConfig, make_pair_config
from .numerics import (FD_STEP_GRAD, _stencil_points, fd_directional, fd_jacobian, ode_integrate,
                       orthonormal_complement)

__all__ = [
    "SingularFlowError",
    "NormalFlow",
    "horosphere_jacobian",
    "AlphaMap",
    "VolumePreservingMap",
    "PairFlow",
    "FlowRun",
    "flow_stencil",
    "flow_density",
    "flow_density_fd",
    "divergence_fd",
    "div_identity",
    "transport_gaps",
    "riemannian_jacobian_det",
]


class SingularFlowError(GeometryError):
    """A sum-flow trajectory reached the singular set D."""


# --------------------------------------------------------------------------
# Normal flow
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalFlow:
    """Flow along the unit gradient of a Busemann field: b(phi(t,x)) = b(x)+t."""

    field: BusemannField

    def __call__(self, t: float, coords) -> np.ndarray:
        m = self.field.model
        coords = m.check_coords(coords)
        return m._exp(coords, float(t) * self.field._grad(coords))


def horosphere_jacobian(f: BusemannField, t: float, x: Point | np.ndarray):
    """Volume expansion e^{h t} of the normal flow restricted to the horosphere
    through x, at one point or at each row of a (P, n) batch.

    Finite-difference pushforward, with the step FD_STEP_GRAD in chart-scale units, of the
    frame |g|_chart orthonormal_complement(g / |g|_chart), g = grad b, which
    the conformal metric makes orthonormal; then its
    :meth:`~horoflow.manifold.ModelSpace.frame_volume` at the image point.
    """
    m = _same_model(f, x) if isinstance(x, Point) else f.model
    coords = m.check_coords(x.coords if isinstance(x, Point) else x)
    g = f._grad(coords)
    length = np.sqrt(_rowdot(g, g))[..., None]
    frame = length[..., None] * orthonormal_complement(g / length)
    J, image = _chart_jacobian(m, lambda c: NormalFlow(f)(t, c), coords, FD_STEP_GRAD)
    return m.frame_volume(image, frame @ J.mT)


# --------------------------------------------------------------------------
# The reparametrization alpha and the map F
# --------------------------------------------------------------------------


# the largest h*t0 whose e^(h t0) - 1 is a finite float64
LOG_FLOAT_MAX = math.log(sys.float_info.max)
# the finite-difference step of VolumePreservingMap.jacobian_det, in chart-scale units:
# near eps^(1/5), where the O(step^4) truncation error of the stencil meets its roundoff
MAP_FD_STEP = 1e-3


@dataclass(frozen=True)
class AlphaMap:
    """Strictly increasing solution of alpha'(t) e^{h(alpha(t)-t)} = 1, alpha(0) = t0.

    Closed forms: alpha(t) = (1/h) ln(e^{h t} + e^{h t0} - 1) for h > 0 and
    alpha(t) = t + t0 for h = 0.
    """

    h: float
    t0: float

    def __post_init__(self):
        if self.h < 0:
            raise GeometryError("mean curvature must be nonnegative")
        if self.t0 <= 0:
            raise GeometryError("t0 must be positive")
        if self.h * self.t0 > LOG_FLOAT_MAX:
            raise GeometryError(f"e^(h t0) overflows float64 at h = {self.h}, t0 = {self.t0}")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return _native(t + self.gap(t))

    def gap(self, t):
        """alpha(t) - t = (1/h) log1p((e^{h t0} - 1) e^{-h t}), or t0 when h = 0.

        Computed without the subtraction, so it stays accurate (and strictly
        decreasing for h > 0) where it is far smaller than t.
        """
        t = np.asarray(t, dtype=float)
        if self.h == 0.0:
            out = np.full_like(t, self.t0)
        else:
            h = self.h
            with np.errstate(over="ignore"):
                scaled = np.expm1(h * self.t0) * np.exp(-h * t)
            if not np.isfinite(scaled).all():
                raise GeometryError(f"(e^(h t0) - 1) e^(-h t) overflows float64 at h = {h}, "
                                    f"t0 = {self.t0}, t = {np.min(t):.6g}")
            out = np.log1p(scaled) / h
        return _native(out)

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        if self.h == 0.0:
            out = np.ones_like(t)
        else:
            eht = np.exp(self.h * t)
            out = eht / (eht + math.expm1(self.h * self.t0))
        return _native(out)

    @property
    def range_infimum(self) -> float:
        """Infimum m of the range; alpha maps R onto (m, inf) when h > 0."""
        if self.h == 0.0:
            return -math.inf
        return math.log(math.expm1(self.h * self.t0)) / self.h

    def inverse(self, u):
        u = np.asarray(u, dtype=float)
        if self.h == 0.0:
            out = u - self.t0
        else:
            with np.errstate(over="ignore"):
                grown = np.exp(self.h * u)
            if not np.isfinite(grown).all():
                raise GeometryError(f"e^(h u) overflows float64 at h = {self.h}, u = {np.max(u):.6g}")
            arg = grown - math.expm1(self.h * self.t0)
            if np.any(arg <= 0.0):
                raise GeometryError(
                    f"alpha inverse undefined at or below the range infimum m = {self.range_infimum}"
                )
            out = np.log(arg) / self.h
        return _native(out)

    def residual(self, t) -> float:
        """|alpha'(t) e^{h(alpha(t)-t)} - 1| with the analytic derivative."""
        t = np.asarray(t, dtype=float)
        vals = self.derivative(t) * np.exp(self.h * (self(t) - t))
        return float(np.max(np.abs(vals - 1.0)))


@dataclass(frozen=True)
class VolumePreservingMap:
    """The diffeomorphism F with F(p) = q and unit Jacobian determinant.

    F moves every point along the normal geodesics of the Busemann field whose
    boundary point sits behind p (so the field gradient at p points toward q),
    taking the horosphere at level t to the one at level alpha(t). For h = 0
    this is the translation by q - p.
    """

    model: ModelSpace
    p: Point
    q: Point
    field: BusemannField = dc_field(init=False)
    alpha: AlphaMap = dc_field(init=False)

    def __post_init__(self):
        if not (self.p.model == self.model == self.q.model):
            raise ModelMismatchError("map endpoints must live in the stated model")
        with np.errstate(over="ignore"):
            t0 = float(self.model.distance(self.p.coords, self.q.coords))
        if t0 == 0.0:
            raise GeometryError("map construction requires p != q")
        if not math.isfinite(t0):
            raise GeometryError("the distance t0 between the map endpoints overflows float64")
        v = self.model.log(self.p.coords, self.q.coords) / t0
        # boundary point of the ray leaving p away from q: grad b(p) = +v there
        xi = boundary_from_direction(TangentVec(self.p, -v))
        object.__setattr__(self, "field", BusemannField(self.model, xi, self.p))
        object.__setattr__(self, "alpha", AlphaMap(mean_curvature_h(self.model), t0))

    @property
    def t0(self) -> float:
        return self.alpha.t0

    @property
    def image_threshold(self) -> float:
        """m such that image(F) = {b > m}; -inf when h = 0 (F surjective)."""
        return self.alpha.range_infimum

    def apply_coords(self, coords) -> np.ndarray:
        m = self.model
        coords = m.check_coords(coords)
        shift = np.asarray(self.alpha.gap(self.field._value(coords)))
        return m._exp(coords, shift[..., None] * self.field._grad(coords))

    def __call__(self, x: Point) -> Point:
        return Point(self.model, self.apply_coords(x.coords))

    def inverse_coords(self, coords) -> np.ndarray:
        m = self.model
        coords = m.check_coords(coords)
        b = self.field._value(coords)
        shift = np.asarray(self.alpha.inverse(b) - b)
        return m._exp(coords, shift[..., None] * self.field._grad(coords))

    def jacobian_det(self, coords):
        """Riemannian Jacobian determinant by central differences (expect 1),
        at one point or at each row of a (P, n) batch, with the step MAP_FD_STEP."""
        return riemannian_jacobian_det(self.model, self.apply_coords, coords, step=MAP_FD_STEP)


def _chart_step(model: ModelSpace, coords, step: float):
    """Validated coords (one point or a batch) and their finite-difference step
    at the local chart scale: times z in the half-space, so the stencil stays
    inside the chart and the result does not depend on z."""
    coords = model.check_coords(np.asarray(coords, dtype=float))
    return coords, step * coords[..., -1] if model.is_hyperbolic else step


def _chart_jacobian(model: ModelSpace, chart_map, coords, step: float):
    """:func:`fd_jacobian` of a vectorized chart map at one point or each row
    of a batch, with the step of :func:`_chart_step`."""
    coords, step = _chart_step(model, coords, step)
    return fd_jacobian(chart_map, coords, step=step)


def riemannian_jacobian_det(model: ModelSpace, chart_map, coords: np.ndarray, *, step: float = 1e-5):
    """|det d(chart_map)| corrected by the volume-density ratio at source and
    image, at one point or at each row of a (P, n) batch."""
    J, image = _chart_jacobian(model, chart_map, coords, step)
    return _native(np.abs(np.linalg.det(J)) * (model.volume_density(image) / model.volume_density(coords)))


# --------------------------------------------------------------------------
# Pair flows X and Y
# --------------------------------------------------------------------------

DIFFERENCE = "difference"
SUM = "sum"
# the sign of grad b2 in each pair flow's field
SIGN = {DIFFERENCE: -1.0, SUM: 1.0}

# treat beta <= -1 + this as membership in the singular set D
D_MEMBERSHIP_TOL = 1e-9


def _pair_vector(f1: BusemannField, f2: BusemannField, coords: np.ndarray, sign) -> np.ndarray:
    """(g1 + sign g2) / (2 + 2 sign beta), beta = g1 . g2 / z^2 (z = 1 in E^n), at validated
    chart points, for sign -1 (the difference flow, rounding exactly as (g1 - g2) / (2 - 2 beta)),
    +1 (the sum flow) or one of them per row of a (P, n) batch. Raises on D in sum rows.

    A pole at infinity has the gradient (0, ..., 0, -z), so beta z^2 = -(g_n z) for the other
    field's gradient g, and every other product of the general formula is an exact zero: the
    branch for f2's pole at infinity (the canonical pair's) adds only the +-0 it contributes,
    and so rounds bit for bit as the general one, which takes a pole at infinity in f1."""
    sign, z = np.asarray(sign), coords[..., -1] if f1.model.is_hyperbolic else 1.0
    if f2.xi.is_infinity:
        g = f1._grad(coords)
        b = -(g[..., -1] * z) / (z * z)
        g += sign[..., None] * 0.0  # g1 + sign (0, ..., 0)
        g[..., -1] -= sign * z
    else:
        g1, g2 = f1._grad(coords), f2._grad(coords)
        b, g = _rowdot(g1, g2) / (z * z), g1 + sign[..., None] * g2
    denom = 2.0 + 2.0 * sign * b
    if ((denom <= 2.0 * D_MEMBERSHIP_TOL) & (sign > 0.0)).any():
        raise SingularFlowError("sum flow evaluated on the singular set D")
    return g / denom[..., None]


@dataclass(frozen=True)
class PairFlow:
    """Flow field of a pair of Busemann fields with distinct boundary points.

    kind="difference": X = (grad b1 - grad b2) / |grad b1 - grad b2|^2, which
    moves b1 up and b2 down at rate 1/2 each and is defined wherever the
    fields differ. kind="sum": Y = (grad b1 + grad b2) / |grad b1 + grad b2|^2,
    defined off the set D where the gradients cancel, raising both values at
    rate 1/2. ``config`` is the pair's :class:`PairConfig` when the caller has
    built it; otherwise the closed forms build their own at first use.
    """

    f1: BusemannField
    f2: BusemannField
    kind: str
    config: PairConfig | None = dc_field(default=None, compare=False, repr=False)

    def __post_init__(self):
        _same_model(self.f1, self.f2)
        if self.kind not in SIGN:
            raise GeometryError(f"unknown pair-flow kind {self.kind!r}")
        if self.f1.xi.same_as(self.f2.xi):
            raise GeometryError("pair flows need distinct boundary points")

    @property
    def model(self) -> ModelSpace:
        return self.f1.model

    def vector(self, coords) -> np.ndarray:
        """Chart components of the flow field at coords, validated once per call:
        :func:`_pair_vector` with the kind's sign, a constant in E^n."""
        return _pair_vector(self.f1, self.f2, self.model.check_coords(coords), SIGN[self.kind])

    @functools.cached_property
    def _config(self) -> PairConfig:
        """The pair normalized to (origin, infinity), ``config`` when given; half-space only."""
        return make_pair_config(self.f1, self.f2) if self.config is None else self.config

    def flow(self, coords, duration: float) -> np.ndarray:
        """Closed-form time-``duration`` flow map on chart points.

        In normalized coordinates y = (ybar, z), with xi1 at the origin and
        xi2 at infinity, the difference flow is the dilation
        y -> e^{duration/2} y. The sum flow keeps |ybar|^2 + z^2 and the
        direction of ybar and sends z -> z e^{-duration/2}; it raises
        :class:`SingularFlowError` for a start on the axis D (ybar = 0) or a
        backward duration that would cross it. In E^n both fields are
        constant, so the flow is a translation.
        """
        coords = np.asarray(coords, dtype=float)
        if not self.model.is_hyperbolic:
            return coords + duration * self.vector(coords)
        cfg = self._config
        y = cfg.normalize(coords)
        if self.kind == DIFFERENCE:
            return cfg.denormalize(y * math.exp(0.5 * duration))
        ybar, z = y[..., :-1], y[..., -1:]
        rho_sq = _rowdot(ybar, ybar)[..., None]
        end_sq = rho_sq - z * z * math.expm1(-duration)
        if np.any(rho_sq == 0.0) or np.any(end_sq <= 0.0):
            raise SingularFlowError("sum flow started on or driven across the singular set D")
        end = np.concatenate([ybar * np.sqrt(end_sq / rho_sq), z * math.exp(-0.5 * duration)], axis=-1)
        return cfg.denormalize(end)


def flow_density(pf: PairFlow, x: Point, duration: float) -> float:
    """Closed-form Riemannian volume density of the time-``duration`` flow map at x.

    Difference flow: (1 - beta(x)) / (1 - beta(end)). Sum flow:
    e^E (1 + beta(x)) / (1 + beta(end)) with E = integral_0^duration h/(1+beta) dk.
    Along the flow beta = 1 - 2e^{-s} at separation s = s0 + k, so
    E = (h/2) ln((e^{s0+duration} - 1)/(e^{s0} - 1)), and E = 0 when h = 0.
    ``end`` is the closed-form image :meth:`PairFlow.flow` of x.
    """
    if duration == 0.0:
        return 1.0
    expansion = 0.0
    if pf.kind == SUM and pf.model.is_hyperbolic:
        # b1 + b2 advances at unit rate along the flow and never drops below
        # its axis value, so a start on D or a crossing of D is known up front
        s0 = pf._config.separation(x)
        if s0 <= D_MEMBERSHIP_TOL or s0 + duration <= D_MEMBERSHIP_TOL:
            raise SingularFlowError(f"sum flow from separation {s0:.6g} starts on or reaches "
                                    f"the singular set D within duration {duration:.6g}")
        expansion = 0.5 * pf._config.h * math.log(math.expm1(s0 + duration) / math.expm1(s0))
    b0 = float(beta(pf.f1, pf.f2, x.coords))
    b1 = float(beta(pf.f1, pf.f2, pf.flow(x.coords, duration)))
    return math.exp(expansion) * (1.0 + SIGN[pf.kind] * b0) / (1.0 + SIGN[pf.kind] * b1)


def flow_stencil(model: ModelSpace, coords) -> np.ndarray:
    """The (1 + 4n, n) finite-difference stencil about coords, coords first,
    whose flow :func:`flow_density_fd` and :func:`transport_gaps` difference;
    all three take the step FD_STEP_GRAD."""
    coords, step = _chart_step(model, coords, FD_STEP_GRAD)
    return _stencil_points(coords[None], np.eye(model.dim), step)[0]


class FlowRun:
    """Chebyshev-Picard trajectories of the pair flows of (f1, f2), independent of
    :meth:`PairFlow.flow`, of ``blocks``: name -> (kind, (N, n) starts or one point,
    horizon), the last time a reader needs the block's states. All rows integrate as
    one recorded :func:`ode_integrate` batch of :func:`_pair_vector`, each with its
    kind's sign and its block's horizon as its end time, in blocks of non-increasing
    horizon. Rows do not interact, so a block's states up to its horizon are bitwise
    those of a separate run of its kind's flow, and one run serves every duration on
    its step grid up to each block's horizon; a sum row on D raises. ``flows`` maps
    each kind to its :class:`PairFlow` with the given ``config``; ``kind``, ``starts``
    and ``horizon`` map each name to its kind, (N, n) starts and horizon;
    ``correction`` is the oracle's error estimate, its largest last Picard correction
    while rows are integrated, and ``field_calls`` its field evaluations."""

    def __init__(self, f1: BusemannField, f2: BusemannField, blocks: dict, config: PairConfig | None = None):
        self.kind = {name: kind for name, (kind, _, _) in blocks.items()}
        self.starts = {name: np.asarray(s, dtype=float).reshape(-1, f1.model.dim) for name, (_, s, _) in blocks.items()}
        self.horizon = {name: float(horizon) for name, (_, _, horizon) in blocks.items()}
        if not all(0.0 < horizon < math.inf for horizon in self.horizon.values()):
            raise ValueError(f"a flow-run block needs a positive finite horizon, got {self.horizon}")
        self.flows = {kind: PairFlow(f1, f2, kind, config) for kind in self.kind.values()}
        order = sorted(blocks, key=self.horizon.get, reverse=True)  # stable: ties keep the block order
        lengths = [len(self.starts[name]) for name in order]
        sign, stats = np.repeat([SIGN[self.kind[name]] for name in order], lengths), {}
        # the rows still integrated are a prefix of the batch, and so are their signs
        times, states = ode_integrate(lambda c: _pair_vector(f1, f2, f1.model.check_coords(c), sign[: c.shape[1]]),
                                      np.concatenate([self.starts[name] for name in order]),
                                      np.repeat([self.horizon[name] for name in order], lengths),
                                      record=True, stats=stats)
        self.correction, self.field_calls = stats["correction"], stats["field_calls"]
        self.step = times[-1] / (len(times) - 1)
        # each block's recorded states up to its horizon, where its NaN rows begin
        self._states = {name: block[: np.count_nonzero(~np.isnan(block[:, 0, 0]))]
                        for name, block in zip(order, np.split(states, np.cumsum(lengths)[:-1], axis=1))}

    def trajectories(self, name: str, duration: float) -> np.ndarray:
        """The (k + 1, N, n) states of the block ``name`` at 0, step, ..., duration
        = k steps; k must be within 1e-9 of a whole number, as in :func:`ode_integrate`,
        and duration at most the block's horizon."""
        states, k = self._states[name], float(duration) / self.step
        whole = np.rint(k)
        if not (abs(k - whole) <= 1e-9 and 0 <= whole):
            raise ValueError(f"duration {duration} is not a whole number of the run's steps of {self.step}")
        if whole >= len(states):
            raise ValueError(f"duration {duration} is past the horizon {self.horizon[name]} of block {name!r}")
        return states[: int(whole) + 1]

    def flow_map(self, name: str, duration: float):
        """The recorded time-``duration`` flow map of the block ``name``, defined
        on its starts alone: other points raise ``ValueError``."""
        ends = self.trajectories(name, duration)[-1]

        def recorded(points):
            if not np.array_equal(points, self.starts[name]):
                raise ValueError(f"the run did not integrate these points of block {name!r}")
            return ends
        return recorded


def flow_density_fd(run: FlowRun, name: str, duration: float) -> float:
    """Independent check of :func:`flow_density`: finite-difference Jacobian
    determinant of the Chebyshev-Picard flow map, with the volume-density
    correction, at the centre of the :func:`flow_stencil` block ``name`` of ``run``."""
    model = run.flows[run.kind[name]].model
    return riemannian_jacobian_det(model, run.flow_map(name, duration), run.starts[name][0], step=FD_STEP_GRAD)


# --------------------------------------------------------------------------
# Divergence checks
# --------------------------------------------------------------------------


def divergence_fd(model: ModelSpace, vector_fn, x: Point | np.ndarray):
    """Riemannian divergence (1/sqrt g) d_i (sqrt g V^i) by central differences,
    at one point or at each row of an (P, n) batch, whose stencils are
    evaluated in one call.

    ``vector_fn`` maps an (N, n) batch of chart points to their chart vectors."""
    coords = x.coords if isinstance(x, Point) else x

    def weighted(c):
        return np.asarray(vector_fn(c), dtype=float) * model.volume_density(c)[:, None]

    J, _ = _chart_jacobian(model, weighted, coords, FD_STEP_GRAD)
    return _native(np.trace(J, axis1=-2, axis2=-1) / model.volume_density(coords))


def div_identity(pf: PairFlow, x: Point | np.ndarray):
    """Both sides of the divergence identity of pf by finite differences, at
    one point or at each row of an (P, n) batch:
    div X = X[ln(1/(1-beta))] for the difference flow and
    div Y = Y[ln(1/(1+beta))] + h/(1+beta) for the sum flow."""
    coords = x.coords if isinstance(x, Point) else x
    sign = SIGN[pf.kind]
    lhs = divergence_fd(pf.model, pf.vector, coords)
    rhs = fd_directional(lambda c: -np.log(1.0 + sign * beta(pf.f1, pf.f2, c)), coords, pf.vector(coords))
    if pf.kind == SUM:
        rhs = rhs + mean_curvature_h(pf.model) / (1.0 + beta(pf.f1, pf.f2, coords))
    return lhs, _native(rhs)


def transport_gaps(run: FlowRun, name: str, duration: float) -> tuple[float, float]:
    """How far the time-``duration`` flow Phi of the pair flow of ``run``'s block
    ``name`` fails to transport the Busemann gradients and their 1-forms, from the
    Chebyshev-Picard flow Jacobian at x, the centre of that :func:`flow_stencil` block.

    Returns ``(push_gap, form_gap)``, each the worst over i = 1, 2 of:

    * push_gap: the Riemannian norm of dPhi(grad b_i(x)) - grad b_i(Phi x).
      The difference flow X commutes with both gradient fields, so this
      vanishes for it; the sum flow does NOT satisfy this vector identity.
    * form_gap: the largest chart component of db_i(Phi x) dPhi - db_i(x),
      the differentiated level-tracking statement db_i(dPhi w) = db_i(w),
      which holds for both pair flows.
    """
    pf, x = run.flows[run.kind[name]], run.starts[name][0]
    m = pf.model
    J, y = _chart_jacobian(m, run.flow_map(name, duration), x, FD_STEP_GRAD)
    # chart components of db: the gradient with its index lowered by the metric
    lower_x, lower_y = (x[-1] ** -2, y[-1] ** -2) if m.is_hyperbolic else (1.0, 1.0)
    gaps = []
    for f in (pf.f1, pf.f2):
        g_x, g_y = f.grad_chart(x), f.grad_chart(y)
        gaps.append((m.norm(y, J @ g_x - g_y), np.max(np.abs((lower_y * g_y) @ J - lower_x * g_x))))
    return tuple(np.max(gaps, axis=0).tolist())

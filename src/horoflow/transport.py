"""Normal flows of Busemann fields and the volume-preserving machinery.

Contents:

* the unit-speed normal flow ``phi_t(x) = exp_x(t grad b(x))``, which raises
  the Busemann value by exactly t and expands horosphere volume by e^{h t};
* the reparametrization ``alpha`` solving ``alpha'(t) e^{h(alpha(t)-t)} = 1``
  and the map ``F(phi(t,x)) = phi(alpha(t),x)`` with unit Jacobian
  determinant sending a chosen point p to a chosen point q;
* the pair flows driven by two Busemann fields: the difference flow X
  (raises b1 by t/2, lowers b2 by t/2) and the sum flow Y (raises both by
  s/2), with their closed-form volume densities;
* finite-difference divergence and Jacobian routines used to verify all of
  the above from first principles.

For h > 0 the range of alpha is (m, infinity) with
``m = (1/h) ln(e^{h t0} - 1)``, so the image of F is the open horoball
complement {b > m} rather than all of M; see ``VolumePreservingMap.image_threshold``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .busemann import BusemannField, beta, mean_curvature_h
from .manifold import (
    BoundaryPoint,
    GeometryError,
    ModelMismatchError,
    ModelSpace,
    Point,
    TangentVec,
    boundary_from_direction,
    _same_model,
)
from .locus import make_pair_config
from .numerics import ConvergenceError, fd_directional, fd_jacobian, ode_integrate, orthonormal_complement

__all__ = [
    "SingularFlowError",
    "NormalFlow",
    "normal_flow",
    "horosphere_jacobian",
    "AlphaMap",
    "VolumePreservingMap",
    "map_f",
    "PairFlow",
    "pair_flow_step",
    "pair_flow_trajectory",
    "flow_density",
    "flow_density_fd",
    "divergence_fd",
    "div_identity_difference",
    "div_identity_sum",
    "raw_pair_field",
    "gradient_pushforward_gap",
    "form_pullback_gap",
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
        coords = m.check_coords(np.asarray(coords, dtype=float))
        return m.exp(coords, float(t) * self.field.grad_chart(coords))


def normal_flow(f: BusemannField, t: float, x: Point) -> Point:
    _same_model(f, x)
    return Point(f.model, NormalFlow(f)(t, x.coords))


def horosphere_jacobian(f: BusemannField, t: float, x: Point, *, step: float = 1e-5) -> float:
    """Volume expansion of the normal flow restricted to the horosphere through x.

    Finite-difference pushforward of an orthonormal horosphere frame, then the
    square root of its Gram determinant at the image point. Equals e^{h t}.
    """
    _same_model(f, x)
    m = f.model
    x0 = x.coords
    frame = orthonormal_complement(f.grad_chart(x0), lambda a, b: m.inner(x0, a, b))
    flow = NormalFlow(f)
    J, y0 = fd_jacobian(lambda c: flow(t, c), x0, step=step)
    pushed = frame @ J.T
    gram = m.inner(y0, pushed[:, None, :], pushed[None, :, :])
    det = float(np.linalg.det(gram))
    if det <= 0:
        raise ConvergenceError("degenerate pushforward frame")
    return math.sqrt(det)


# --------------------------------------------------------------------------
# The reparametrization alpha and the map F
# --------------------------------------------------------------------------


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

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = t + self.gap(t)
        return float(out) if out.ndim == 0 else out

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
            out = np.log1p(np.expm1(h * self.t0) * np.exp(-h * t)) / h
        return float(out) if out.ndim == 0 else out

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        if self.h == 0.0:
            out = np.ones_like(t)
        else:
            eht = np.exp(self.h * t)
            out = eht / (eht + math.expm1(self.h * self.t0))
        return float(out) if out.ndim == 0 else out

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
            arg = np.exp(self.h * u) - math.expm1(self.h * self.t0)
            if np.any(arg <= 0.0):
                raise GeometryError(
                    f"alpha inverse undefined at or below the range infimum m = {self.range_infimum}"
                )
            out = np.log(arg) / self.h
        return float(out) if out.ndim == 0 else out

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
        t0 = float(self.model.distance(self.p.coords, self.q.coords))
        if t0 == 0.0:
            raise GeometryError("map construction requires p != q")
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
        coords = m.check_coords(np.asarray(coords, dtype=float))
        shift = np.asarray(self.alpha.gap(self.field.value(coords)))
        return m.exp(coords, shift[..., None] * self.field.grad_chart(coords))

    def __call__(self, x: Point) -> Point:
        return Point(self.model, self.apply_coords(x.coords))

    def inverse_coords(self, coords) -> np.ndarray:
        m = self.model
        coords = m.check_coords(np.asarray(coords, dtype=float))
        b = self.field.value(coords)
        shift = np.asarray(self.alpha.inverse(b) - b)
        return m.exp(coords, shift[..., None] * self.field.grad_chart(coords))

    def jacobian_det(self, coords, *, step: float = 1e-3) -> float:
        """Riemannian Jacobian determinant by central differences (expect 1).

        The default step, in chart-scale units, is near eps^(1/5), where the
        O(step^4) truncation error of the stencil meets its roundoff."""
        return riemannian_jacobian_det(self.model, self.apply_coords, np.asarray(coords, dtype=float), step=step)


def map_f(model: ModelSpace, p: Point, q: Point, x: Point) -> Point:
    """Evaluate the volume-preserving map sending p to q at the point x."""
    return VolumePreservingMap(model, p, q)(x)


def _chart_step(model: ModelSpace, coords: np.ndarray, step: float) -> float:
    """Finite-difference step at the local chart scale (z in the half-space)."""
    if model.is_hyperbolic:
        return step * float(coords[-1])
    return step


def riemannian_jacobian_det(model: ModelSpace, chart_map, coords: np.ndarray, *, step: float = 1e-5) -> float:
    """|det d(chart_map)| corrected by the volume-density ratio at source and image."""
    coords = model.check_coords(np.asarray(coords, dtype=float))
    J, image = fd_jacobian(chart_map, coords, step=_chart_step(model, coords, step))
    det_chart = abs(float(np.linalg.det(J)))
    ratio = float(model.volume_density(image) / model.volume_density(coords))
    return det_chart * ratio


# --------------------------------------------------------------------------
# Pair flows X and Y
# --------------------------------------------------------------------------

DIFFERENCE = "difference"
SUM = "sum"

# treat beta <= -1 + this as membership in the singular set D
D_MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True)
class PairFlow:
    """Flow field of a pair of Busemann fields with distinct boundary points.

    kind="difference": X = (grad b1 - grad b2) / |grad b1 - grad b2|^2, which
    moves b1 up and b2 down at rate 1/2 each and is defined wherever the
    fields differ. kind="sum": Y = (grad b1 + grad b2) / |grad b1 + grad b2|^2,
    defined off the set D where the gradients cancel, raising both values at
    rate 1/2.
    """

    f1: BusemannField
    f2: BusemannField
    kind: str

    def __post_init__(self):
        if self.f1.model != self.f2.model:
            raise ModelMismatchError("fields belong to different models")
        if self.kind not in (DIFFERENCE, SUM):
            raise GeometryError(f"unknown pair-flow kind {self.kind!r}")
        if self.f1.xi.same_as(self.f2.xi):
            raise GeometryError("pair flows need distinct boundary points")

    @property
    def model(self) -> ModelSpace:
        return self.f1.model

    def vector(self, coords) -> np.ndarray:
        """Chart components of the flow field at coords."""
        coords = np.asarray(coords, dtype=float)
        g1 = self.f1.grad_chart(coords)
        g2 = self.f2.grad_chart(coords)
        b = np.asarray(self.model.inner(coords, g1, g2))
        if self.kind == DIFFERENCE:
            denom = 2.0 - 2.0 * b
        else:
            denom = 2.0 + 2.0 * b
            if np.any(denom <= 2.0 * D_MEMBERSHIP_TOL):
                raise SingularFlowError("sum flow evaluated on the singular set D")
        raw = g1 - g2 if self.kind == DIFFERENCE else g1 + g2
        return raw / denom[..., None]


def raw_pair_field(f1: BusemannField, f2: BusemannField, kind: str = DIFFERENCE):
    """Chart field grad b1 -+ grad b2 without normalization (for divergence checks)."""
    sign = -1.0 if kind == DIFFERENCE else 1.0

    def vec(coords):
        coords = np.asarray(coords, dtype=float)
        return f1.grad_chart(coords) + sign * f2.grad_chart(coords)

    return vec


def _guard_sum_flow(pf: PairFlow, x: Point, duration: float) -> None:
    """Reject sum-flow requests that start on or would cross the singular set.

    The sum of the Busemann values advances at exactly unit rate along the
    flow and is bounded below by its axis value, so the crossing time is
    known before integrating.
    """
    if pf.kind != SUM or not pf.model.is_hyperbolic:
        return
    cfg = make_pair_config(pf.f1, pf.f2)
    separation = cfg.separation(x)
    if separation <= D_MEMBERSHIP_TOL:
        raise SingularFlowError("sum flow started on the singular set D")
    if duration < 0 and separation + duration <= D_MEMBERSHIP_TOL:
        raise SingularFlowError(
            f"sum flow reaches the singular set D after duration {-separation:.6g}"
        )


def pair_flow_trajectory(pf: PairFlow, x: Point, duration: float, *, step: float = 1e-3,
                         adaptive: bool = False, min_step: float = 1e-12):
    """Integrate the pair flow, returning (times, states) chart arrays."""
    _same_model(pf.f1, x)
    _guard_sum_flow(pf, x, duration)
    return ode_integrate(pf.vector, x.coords, duration, step=step,
                         adaptive=adaptive, min_step=min_step, record=True)


def pair_flow_step(pf: PairFlow, x: Point, duration: float, *, step: float = 1e-3,
                   adaptive: bool = False, min_step: float = 1e-12) -> Point:
    """Endpoint of the pair-flow trajectory from x after the signed duration.

    Raises :class:`SingularFlowError` when a sum flow is started on or driven
    into the singular set D, and :class:`ConvergenceError` when adaptive step
    control underflows ``min_step``.
    """
    _same_model(pf.f1, x)
    _guard_sum_flow(pf, x, duration)
    end = ode_integrate(pf.vector, x.coords, duration, step=step,
                        adaptive=adaptive, min_step=min_step)
    return Point(pf.model, end)


def flow_density(pf: PairFlow, x: Point, duration: float, *, step: float = 1e-3) -> float:
    """Closed-form Riemannian volume density of the time-``duration`` flow map at x.

    Difference flow: (1 - beta(x)) / (1 - beta(end)). Sum flow:
    exp(integral_0^s h/(1+beta) dk) * (1 + beta(x)) / (1 + beta(end)), with
    the exponent accumulated along the integrated trajectory (the quadrature
    rides the RK4 steps as an extra state, so its error matches the flow's).
    """
    if duration == 0.0:
        return 1.0
    if pf.kind == DIFFERENCE:
        end = ode_integrate(pf.vector, x.coords, duration, step=step)
        b0 = float(beta(pf.f1, pf.f2, x.coords))
        b1 = float(beta(pf.f1, pf.f2, end))
        return (1.0 - b0) / (1.0 - b1)

    h = mean_curvature_h(pf.model)

    def augmented(state):
        c = state[:-1]
        vel = pf.vector(c)
        rate = h / (1.0 + float(beta(pf.f1, pf.f2, c)))
        return np.concatenate([vel, [rate]])

    state0 = np.concatenate([x.coords, [0.0]])
    state = ode_integrate(augmented, state0, duration, step=step)
    b0 = float(beta(pf.f1, pf.f2, x.coords))
    b1 = float(beta(pf.f1, pf.f2, state[:-1]))
    if 1.0 + b1 <= D_MEMBERSHIP_TOL or 1.0 + b0 <= D_MEMBERSHIP_TOL:
        raise SingularFlowError("sum-flow density undefined on D")
    return math.exp(float(state[-1])) * (1.0 + b0) / (1.0 + b1)


def _flow_map(pf: PairFlow, duration: float, step: float):
    """The time-``duration`` flow map on a batch of chart points (fixed-step RK4)."""
    return lambda pts: ode_integrate(pf.vector, pts, duration, step=step)


def flow_density_fd(pf: PairFlow, x: Point, duration: float, *, step: float = 1e-3,
                    fd_step: float = 1e-5) -> float:
    """Independent check of :func:`flow_density`: finite-difference Jacobian
    determinant of the integrated flow map, with the volume-density correction.
    The whole stencil integrates as one batch."""
    return riemannian_jacobian_det(pf.model, _flow_map(pf, duration, step), x.coords, step=fd_step)


# --------------------------------------------------------------------------
# Divergence checks
# --------------------------------------------------------------------------


def divergence_fd(model: ModelSpace, vector_fn, x: Point | np.ndarray, *, step: float = 1e-5) -> float:
    """Riemannian divergence (1/sqrt g) d_i (sqrt g V^i) by central differences.

    ``vector_fn`` maps an (N, n) batch of chart points to their chart vectors."""
    coords = x.coords if isinstance(x, Point) else np.asarray(x, dtype=float)
    coords = model.check_coords(coords)

    def weighted(c):
        return np.asarray(vector_fn(c), dtype=float) * model.volume_density(c)[:, None]

    J, _ = fd_jacobian(weighted, coords, step=_chart_step(model, coords, step))
    return float(np.trace(J) / model.volume_density(coords))


def div_identity_difference(pf: PairFlow, x: Point, *, step: float = 1e-5) -> tuple[float, float]:
    """Both sides of div X = X[ln(1/(1-beta))] at x (finite differences)."""
    if pf.kind != DIFFERENCE:
        raise GeometryError("difference-flow identity requested for a sum flow")
    lhs = divergence_fd(pf.model, pf.vector, x, step=step)

    def log_weight(c):
        return -math.log(1.0 - float(beta(pf.f1, pf.f2, c)))

    rhs = fd_directional(log_weight, x.coords, pf.vector(x.coords), step=step)
    return lhs, float(rhs)


def div_identity_sum(pf: PairFlow, x: Point, *, step: float = 1e-5) -> tuple[float, float]:
    """Both sides of div Y = Y[ln(1/(1+beta))] + h/(1+beta) at x."""
    if pf.kind != SUM:
        raise GeometryError("sum-flow identity requested for a difference flow")
    lhs = divergence_fd(pf.model, pf.vector, x, step=step)
    b = float(beta(pf.f1, pf.f2, x.coords))

    def log_weight(c):
        return -math.log(1.0 + float(beta(pf.f1, pf.f2, c)))

    rhs = fd_directional(log_weight, x.coords, pf.vector(x.coords), step=step)
    rhs += mean_curvature_h(pf.model) / (1.0 + b)
    return lhs, float(rhs)


def gradient_pushforward_gap(pf: PairFlow, x: Point, duration: float, *, step: float = 1e-3,
                             fd_step: float = 1e-5) -> float:
    """How far the flow differential fails to carry grad b_i to grad b_i at the image.

    Returns the worst Riemannian norm of (dPhi_t(grad b_i(x)) - grad b_i(Phi_t x))
    over i = 1, 2. The difference flow X commutes with both gradient fields,
    so this vanishes for it; the sum flow does NOT satisfy this vector
    identity (only the weaker 1-form identity of
    :func:`form_pullback_gap` holds there).
    """
    m = pf.model
    J, y = fd_jacobian(_flow_map(pf, duration, step), x.coords,
                       step=_chart_step(pf.model, x.coords, fd_step))
    worst = 0.0
    for f in (pf.f1, pf.f2):
        pushed = J @ f.grad_chart(x.coords)
        gap = pushed - f.grad_chart(y)
        worst = max(worst, float(m.norm(y, gap)))
    return worst


def form_pullback_gap(pf: PairFlow, x: Point, duration: float, *, step: float = 1e-3,
                      fd_step: float = 1e-5) -> float:
    """How far the flow fails to pull the 1-forms db_i back to themselves.

    This is the differentiated level-tracking statement
    ``db_i(dPhi_t w) = db_i(w)`` and holds for both pair flows. Returns the
    worst chart-component gap over i = 1, 2.
    """

    J, y = fd_jacobian(_flow_map(pf, duration, step), x.coords,
                       step=_chart_step(pf.model, x.coords, fd_step))

    def chart_form(f, c):
        # chart components of db: lower the gradient index with the metric
        g = f.grad_chart(c)
        if pf.model.is_hyperbolic:
            return g / c[-1] ** 2
        return g

    worst = 0.0
    for f in (pf.f1, pf.f2):
        gap = chart_form(f, y) @ J - chart_form(f, x.coords)
        worst = max(worst, float(np.max(np.abs(gap))))
    return worst

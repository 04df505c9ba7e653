"""Verification suites: every identity the package asserts, as runnable checks.

Each check produces a :class:`CheckReport` with the computed quantities, the
expected value with its provenance (exact / closed-form / cross-check /
counterexample), the tolerance, and a status. Status ``paper-discrepancy``
marks the one documented deviation (the global-surjectivity claim for the
volume-preserving map) and does not fail a suite. Status ``error`` marks a
check that raised :class:`GeometryError` or :class:`ConvergenceError` before
it finished.

Suites: ``busemann``, ``map-f``, ``flows``, ``intersections``, ``coarea``,
and ``all`` (their union in declaration order).

Adding a check: register its body with :func:`check`, which takes the
report's ``name``, ``statement``, ``expected`` (a value, or a function of the
context when it depends on the model), ``provenance``, ``tol``, ``tol_kind``
and the ``suite`` it joins, in declaration order, in :data:`SUITES`. The body
receives the context and ``tol`` and returns ``(quantities, verdict)``: a dict
of what it computed and whether the claim holds. The decorator builds the
report: status ``pass`` or ``fail`` from the verdict, or ``paper-discrepancy``
for a holding verdict when the provenance is ``counterexample``; an ``error``
record when the body raises :class:`GeometryError` or
:class:`ConvergenceError`; and, for a check given ``skip=<reason>``, a passing
record with quantities ``{"skipped": reason}`` on the Euclidean models, where
the body does not run. Keep the body's ``__name__``: it keys the check's
random generator.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
import zlib
from dataclasses import dataclass, field as dc_field
from types import SimpleNamespace

import numpy as np

from . import busemann as bu
from . import locus as lc
from . import transport as tr
from .manifold import (
    HYPERBOLIC,
    GeometryError,
    ModelSpace,
    Point,
    boundary_direction,
    boundary_finite,
    boundary_infinity,
    _rowdot,
)
from .numerics import ConvergenceError, TestFunction, _richardson, _stencil_points

__all__ = ["CheckReport", "ConfigError", "VerifyContext", "canonical_pair", "SUITES", "run_suite",
           "poincare_example_checks", "sweep_rows"]

PASS = "pass"
FAIL = "fail"
DISCREPANCY = "paper-discrepancy"
ERROR = "error"
# the marker the CLI prints for each status
MARKERS = {PASS: "PASS", FAIL: "FAIL", DISCREPANCY: "DISCREPANCY", ERROR: "ERROR"}


@dataclass
class CheckReport:
    """One verification record; its fields in the order of the report's keys."""

    name: str
    statement: str
    quantities: dict
    expected: object
    provenance: str
    tolerance: float
    tol_kind: str = "abs"
    status: str = PASS
    wall_time_s: float = 0.0

    def to_json_dict(self) -> dict:
        return _jsonable(vars(self))


def _jsonable(obj):
    """obj as plain JSON values; a non-finite float becomes "inf", "-inf" or "nan"."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return repr(obj)


def canonical_pair(m: ModelSpace) -> tuple[bu.BusemannField, bu.BusemannField]:
    """The Busemann pair of every verify run and sweep: poles at the origin and infinity
    (two orthogonal directions in the Euclidean model), with the default basepoint at unit
    height (the origin in the Euclidean model)."""
    if m.is_hyperbolic:
        xi1, xi2 = boundary_finite(m, np.zeros(m.dim - 1)), boundary_infinity(m)
    else:
        u1, u2 = np.zeros(m.dim), np.zeros(m.dim)
        u1[0], u2[1] = 1.0, 1.0
        xi1, xi2 = boundary_direction(m, u1), boundary_direction(m, u2)
    return bu.BusemannField(m, xi1), bu.BusemannField(m, xi2)


class ConfigError(ValueError):
    """A run input of the wrong type or out of range."""


def _is_finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


@dataclass
class VerifyContext:
    """Inputs of one run, and what its checks share.

    Construction validates the inputs: it raises :class:`ConfigError` for a seed
    that is not a nonnegative 64-bit integer, a grid that is empty or holds a
    non-finite number, an s <= 0, a t0 that is not finite and positive, or a
    non-bool ``probe_outside_image``, and keeps the grids as tuples, t0 as a float.

    The Busemann pair is :func:`canonical_pair`, the basepoint is the pair's, and
    the map target t0 below it (t0 along the first axis in the Euclidean model).
    The pair, its configuration, the map F and the one Chebyshev-Picard run of both
    pair flows that serves the flows suite (:func:`_flow_run`) are built once, by
    the first check that reads them; a build that raises is not kept, so every
    check that reads it records the error. ``rng`` is ``default_rng(seed)`` for a
    check called directly; under :func:`run_suite` it is :meth:`rng_for` of the
    running check, built at its first draw.
    """

    model: ModelSpace
    seed: int = 42
    s_grid: tuple = (0.5, math.log(2.0), 2.0)
    t_grid: tuple = (-3.0, -1.0, 0.0, 1.0, 3.0)
    t0: float = 1.0
    probe_outside_image: bool = False
    _rng: np.random.Generator | None = dc_field(default=None, init=False, repr=False)
    _drawer: object = dc_field(default=None, init=False, repr=False)  # the check run_suite runs

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must be a nonnegative 64-bit integer")
        for key in ("s_grid", "t_grid"):
            grid = getattr(self, key)
            if not isinstance(grid, (list, tuple)) or not grid or not all(map(_is_finite, grid)):
                raise ConfigError(f"{key} must be a nonempty list of finite numbers")
            setattr(self, key, tuple(grid))
        if min(self.s_grid) <= 0:
            raise ConfigError("s_grid values must be positive: V and W are undefined on the s = 0 locus")
        if not _is_finite(self.t0) or self.t0 <= 0:
            raise ConfigError("t0 must be a finite positive number")
        self.t0 = float(self.t0)
        if not isinstance(self.probe_outside_image, bool):
            raise ConfigError("probe_outside_image must be true or false")
        self._rng = np.random.default_rng(self.seed)

    def rng_for(self, check) -> np.random.Generator:
        """A generator keyed by the check's name, so a check reports the same
        numbers in every suite that runs it."""
        return np.random.default_rng([self.seed, zlib.crc32(check.__name__.encode())])

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            self._rng = self.rng_for(self._drawer)
        return self._rng

    @property
    def h(self) -> float:
        return bu.mean_curvature_h(self.model)

    @functools.cached_property
    def field_pair(self) -> tuple[bu.BusemannField, bu.BusemannField]:
        return canonical_pair(self.model)

    @functools.cached_property
    def pair_config(self) -> lc.PairConfig:
        return lc.make_pair_config(*self.field_pair)

    @property
    def basepoint(self) -> Point:
        return self.field_pair[0].basepoint

    @functools.cached_property
    def volume_map(self) -> tr.VolumePreservingMap:
        """The map F from the basepoint p to the target q at distance t0."""
        p = self.basepoint
        qc = np.array(p.coords, copy=True)
        if self.model.is_hyperbolic:
            qc[-1] *= math.exp(-self.t0)
        else:
            qc[0] += self.t0
        return tr.VolumePreservingMap(self.model, p, Point(self.model, qc))

    @functools.cached_property
    def flows(self) -> tr.FlowRun:
        return _flow_run(self)

    def random_points(self, count: int, spread: float = 0.8) -> np.ndarray:
        return self.model.random_points(self.rng, count, spread)


# each suite's checks in declaration order, appended by @check; "all" is their union
SUITES: dict[str, list] = {name: [] for name in ("busemann", "map-f", "flows", "intersections", "coarea", "all")}


def check(name: str, statement: str, expected, provenance: str, *, tol: float = 0.0,
          tol_kind: str = "abs", skip: str | None = None, suite: str | None = None):
    """Register a check body ``(ctx, tol) -> (quantities, verdict)``; the
    wrapper builds its named and timed report (see the module docstring) and,
    given a suite, joins it and ``all``."""
    def decorate(body):
        @functools.wraps(body)
        def run(ctx) -> CheckReport:
            start = time.perf_counter()
            if skip is not None and not ctx.model.is_hyperbolic:
                rep = CheckReport(name, statement, {"skipped": skip}, None, "exact", 0.0)
            else:
                try:
                    quantities, ok = body(ctx, tol)
                except (GeometryError, ConvergenceError) as exc:
                    rep = CheckReport(name, "the check stopped with an error", {"error": str(exc)},
                                      None, "none", 0.0, status=ERROR)
                else:
                    status = (DISCREPANCY if provenance == "counterexample" else PASS) if ok else FAIL
                    rep = CheckReport(name, statement, quantities,
                                      expected(ctx) if callable(expected) else expected,
                                      provenance, tol, tol_kind, status)
            rep.wall_time_s = time.perf_counter() - start
            return rep

        if suite is not None:
            SUITES[suite].append(run)
            SUITES["all"].append(run)
        return run

    return decorate


NO_AXIS = "Euclidean pair has no axis constant"
LOCUS_SKIP = "intersection loci require the visibility model"


# --------------------------------------------------------------------------
# busemann suite
# --------------------------------------------------------------------------


@check("busemann-gradient-unit-norm", "the Busemann gradient has unit Riemannian length everywhere",
       0.0, "exact", tol=1e-9, suite="busemann")
def check_gradient_norm(ctx, tol):
    pts = ctx.random_points(200)
    norms = ctx.model.norm(pts, np.array([f.grad_chart(pts) for f in ctx.field_pair]))
    worst = float(np.max(np.abs(norms - 1.0)))
    return {"max_norm_error": worst, "points": pts.shape[0]}, worst <= tol


@check("busemann-laplacian-constant", "trace of the horosphere shape operator is the constant h",
       lambda ctx: ctx.h, "closed-form", tol=1e-6, suite="busemann")
def check_laplacian_constancy(ctx, tol):
    f1, _ = ctx.field_pair
    mean, std = bu.estimate_h(f1, ctx.random_points(100))
    ok = abs(mean - ctx.h) <= 1e-8 and std <= tol
    return {"mean": mean, "stddev": std, "h": ctx.h}, ok


@check("busemann-hessian-psd-and-bounded", "shape-operator eigenvalues lie in [0, h]",
       lambda ctx: f"[0, {ctx.h}]", "closed-form", tol=1e-9, suite="busemann")
def check_hessian_bounds(ctx, tol):
    pts = ctx.random_points(50)
    ev = np.linalg.eigvalsh([f.hessian_matrix(pts) for f in ctx.field_pair])
    lo, hi = float(np.min(ev[..., 0])), float(np.max(ev[..., -1]))
    return {"min_eigenvalue": lo, "max_eigenvalue": hi, "h": ctx.h}, lo >= -tol and hi <= ctx.h + tol


@check("busemann-hessian-fd-crosscheck",
       "closed-form shape operator matches second derivatives of b along geodesics",
       0.0, "cross-check", tol=1e-6, suite="busemann")
def check_hessian_fd(ctx, tol):
    m = ctx.model
    f1, _ = ctx.field_pair
    eye = np.eye(m.dim)
    directions = np.array(list(eye) + [a + b for a, b in itertools.combinations(eye, 2)])
    pts = ctx.random_points(5)
    v = directions / m.norm(pts[:, None, :], directions)[..., None]  # unit, per point in H^n
    # Hess b(v, v) is the second derivative of b along the unit-speed geodesic:
    # every (point, direction) pair on one Richardson stencil in one call
    step = 1e-3
    ts = _stencil_points(np.zeros((1, 1)), np.ones((1, 1)), step)[0]
    values = f1.value(m.exp(pts[:, None, None, :], ts * v[..., None, :]))  # (point, direction, stencil)
    along = _richardson(values.reshape(-1, ts.shape[0]), step, second=True).reshape(values.shape[:-1])
    Hv = (f1.hessian_matrix(pts)[:, None] @ v[..., None])[..., 0]
    worst = float(np.max(np.abs(along - m.inner(pts[:, None, :], Hv, v))))
    return {"max_hessian_gap": worst, "directions": len(directions)}, worst <= tol


@check("busemann-truncation-monotone",
       "d(x, ray(T)) - T is non-increasing in T and converges to the Busemann value",
       0.0, "exact", tol=1e-6, suite="busemann")
def check_truncation_monotone(ctx, tol):
    f1, _ = ctx.field_pair
    ts = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 24.0])
    pts = ctx.random_points(20, spread=0.5)
    vals = f1.value_truncated(pts, ts)
    worst_increase = float(np.max(np.diff(vals, axis=0)))
    gap = vals[-1] - f1.value(pts)
    worst_gap = float(np.max(np.abs(gap)))
    worst_excess = None
    if ctx.model.is_hyperbolic:
        converged = worst_gap <= tol  # exponential tail
    else:
        # flat-space tail: gap = sqrt((T-s)^2 + rho^2) - (T-s) <= rho^2 / (2 (T-s))
        w = pts - f1.basepoint.coords
        along = _rowdot(w, f1.xi.data)
        rho_sq = _rowdot(w, w) - along * along
        worst_excess = float(np.maximum(0.0, np.max(gap - rho_sq / (2.0 * (ts[-1] - along)))))
        converged = worst_excess <= 1e-12  # algebraic tail, within its envelope
    return ({"max_increase": worst_increase, "final_gap": worst_gap, "envelope_excess": worst_excess},
            worst_increase <= 1e-12 and converged)


@check("busemann-axis-gradient-cancellation", "gradients of the pair cancel on the axis, where beta = -1",
       0.0, "exact", tol=1e-10, skip="no bi-asymptotic geodesic in the Euclidean model", suite="busemann")
def check_axis_gradient_cancellation(ctx, tol):
    cfg = ctx.pair_config
    x = np.array([cfg.axis_point(z).coords for z in (0.25, 0.5, 1.0, 2.0, 4.0)])
    worst = float(np.max(ctx.model.norm(x, cfg.f1.grad_chart(x) + cfg.f2.grad_chart(x))))
    worst_beta = float(np.max(bu.beta(cfg.f1, cfg.f2, x)))
    return ({"max_gradient_sum_norm": worst, "max_beta_on_axis": worst_beta},
            worst <= tol and worst_beta <= -1.0 + 1e-9)


@check("busemann-sublevel-boundedness",
       "two-horoball intersections are bounded exactly when the space is negatively curved",
       lambda ctx: ctx.model.is_hyperbolic, "exact", suite="busemann")
def check_visibility_probe(ctx, tol):
    f1, f2 = ctx.field_pair
    rep = bu.sublevel_bounded_probe(f1, f2, 0.5, 0.5, rng=np.random.default_rng(ctx.seed + 1))
    return ({"bounded": rep.bounded, "rays": rep.rays_probed,
             "max_exit_time": rep.max_exit_time},
            rep.bounded == ctx.model.is_hyperbolic)


# --------------------------------------------------------------------------
# map-f suite
# --------------------------------------------------------------------------


@check("alpha-defining-equation", "alpha'(t) e^{h(alpha(t)-t)} = 1 with the analytic derivative",
       0.0, "exact", tol=1e-10, suite="map-f")
def check_alpha_residual(ctx, tol):
    a = tr.AlphaMap(ctx.h, ctx.t0)
    res = a.residual(np.linspace(-30.0, 30.0, 121))
    return ({"max_residual": res, "h": ctx.h, "t0": ctx.t0,
             "range_infimum": a.range_infimum}, res <= tol)


@check("alpha-gap-monotone",
       "alpha(t) - t is strictly decreasing when h > 0 and the constant t0 when h = 0",
       lambda ctx: "decreasing" if ctx.h > 0 else ctx.t0, "closed-form", suite="map-f")
def check_alpha_gap_monotone(ctx, tol):
    gaps = tr.AlphaMap(ctx.h, ctx.t0).gap(np.linspace(-10.0, 10.0, 201))
    diffs = np.diff(gaps)
    if ctx.h > 0:
        ok = bool(np.all(diffs < 0))
    else:
        ok = bool(np.max(np.abs(gaps - ctx.t0)) <= 1e-12)
    return {"max_diff": float(np.max(diffs)), "min_diff": float(np.min(diffs))}, ok


@check("map-sends-p-to-q", "the volume-preserving map sends the chosen source point to the target",
       0.0, "exact", tol=1e-10, suite="map-f")
def check_map_endpoint(ctx, tol):
    F = ctx.volume_map
    gap = float(np.max(np.abs(F(F.p).coords - F.q.coords)))
    return {"chart_gap": gap, "t0": F.t0}, gap <= tol


@check("map-unit-jacobian", "the Riemannian Jacobian determinant of the map is 1 everywhere",
       1.0, "cross-check", tol=1e-7, suite="map-f")
def check_map_unit_jacobian(ctx, tol):
    F = ctx.volume_map
    worst = float(np.max(np.abs(F.jacobian_det(ctx.random_points(100)) - 1.0)))
    return {"max_det_error": worst, "points": 100}, worst <= tol


@check("horosphere-volume-expansion", "the normal flow expands horosphere volume by exactly e^{h t}",
       1.0, "closed-form", tol=1e-6, tol_kind="rel", suite="map-f")
def check_horosphere_expansion(ctx, tol):
    f1, _ = ctx.field_pair
    ratios = [tr.horosphere_jacobian(f1, t, ctx.random_points(20, spread=0.5)) / math.exp(ctx.h * t)
              for t in (0.5, 1.0, 2.0)]
    worst = float(np.max(np.abs(np.array(ratios) - 1.0)))
    return {"max_ratio_error": worst, "h": ctx.h}, worst <= tol


def _bump_levels(ctx: VerifyContext, F: tr.VolumePreservingMap, radius: float):
    if ctx.h > 0:
        m = F.image_threshold
        return [m + radius + off for off in (0.3, 0.6, 1.0, 1.5, 2.0)]
    return [-1.0, -0.5, 0.0, 0.5, 1.0]


@check("map-integral-invariance",
       ("integrals of bumps supported in the image agree with their pullbacks: each "
        "level-slice integral of the pulled bump matches the bump's exact polar integral"),
       0.0, "cross-check", tol=1e-10, tol_kind="rel", suite="map-f")
def check_map_integral_invariance(ctx, tol):
    F = ctx.volume_map
    flow = tr.NormalFlow(F.field)
    radius = 0.3
    rows = []
    for level in _bump_levels(ctx, F, radius):
        bump = TestFunction(Point(ctx.model, flow(level, F.p.coords)), radius)
        exact = bump.integral()
        pulled = bu.coarea_slice_integral(bump, F.field, pull=F)
        rows.append({"level": level, "exact": exact, "pulled": pulled,
                     "relative_gap": abs(pulled / exact - 1.0)})
    worst = float(np.max([row["relative_gap"] for row in rows]))
    return {"bumps": rows, "worst_relative_gap": worst}, worst <= tol


@check("map-out-of-image-probe",
       ("the integral identity fails for mass below the image threshold m: "
        "the map is a diffeomorphism onto {b > m}, not onto the whole space"),
       0.0, "counterexample", tol=0.0, skip="the h = 0 map is onto")
def check_map_out_of_image(ctx, tol):
    """Documented deviation: the map is not onto, so mass below the image
    threshold is invisible to the pullback integral."""
    F = ctx.volume_map
    flow = tr.NormalFlow(F.field)
    radius = 0.3
    level = F.image_threshold - radius - 0.5
    bump = TestFunction(Point(ctx.model, flow(level, F.p.coords)), radius)

    class Pulled:  # bump o F, integrated on the slice nodes of the bump's own support
        center, radius = bump.center, bump.radius

        def __call__(self, coords):
            return bump(F.apply_coords(coords))

    pulled = bu.coarea_slice_integral(Pulled(), F.field)
    exact = bump.integral()
    ratio = pulled / exact
    return ({"image_threshold": F.image_threshold, "bump_level": level,
             "exact": exact, "pulled": pulled, "ratio": ratio}, ratio <= tol)


# --------------------------------------------------------------------------
# flows suite
# --------------------------------------------------------------------------


# the times at which the flows checks read the shared run: each of its blocks is
# integrated to its time here and no further
TRACKING_TIME, TRANSPORT_TIME, DENSITY_TIME, BETA_TIME = 2.0, 0.8, 0.9, 1.5


def _flow_run(ctx: VerifyContext) -> tr.FlowRun:
    """The one Chebyshev-Picard run of both pair flows (the difference flow alone in
    E^n) that :attr:`VerifyContext.flows` keeps, of the blocks "<kind>-tracking",
    "<kind>-transport" and "<kind>-densities" (starts, and the stencils about a random and
    a locus point) and "beta-monotone", each to the time its check reads, whose random
    points each check draws from its generator :meth:`VerifyContext.rng_for`. Its pair
    flows share the context's pair configuration. A run that raises is not kept, so every
    reader of either kind records the error: a sum row on D is an error in the
    difference-flow checks too."""
    m = ctx.model
    cfg = ctx.pair_config if m.is_hyperbolic else None
    tracking = _off_axis_points(m, ctx.rng_for(check_difference_flow_tracking), None, 20, 0.05)
    transport = tr.flow_stencil(m, _off_axis_points(m, ctx.rng_for(check_gradient_transport), cfg, 1, 0.1)[0])
    blocks = {"difference-tracking": (tr.DIFFERENCE, tracking, TRACKING_TIME),
              "difference-transport": (tr.DIFFERENCE, transport, TRANSPORT_TIME)}
    if cfg is not None:
        densities = tr.flow_stencil(m, cfg.point_on_locus(0.7, 0.2).coords)
        # keep sum-flow starts off the axis
        tracking = _off_axis_points(m, ctx.rng_for(check_sum_flow_tracking), cfg, 20, 0.05)
        blocks.update({"difference-densities": (tr.DIFFERENCE, densities, DENSITY_TIME),
                       "sum-tracking": (tr.SUM, tracking, TRACKING_TIME),
                       "sum-transport": (tr.SUM, transport, TRANSPORT_TIME),
                       "sum-densities": (tr.SUM, densities, DENSITY_TIME),
                       "beta-monotone": (tr.SUM, cfg.point_on_locus(0.2, 0.3).coords, BETA_TIME)})
    return tr.FlowRun(*ctx.field_pair, blocks, cfg)


def _tracking_check(ctx, kind: str, tol: float, duration: float = TRACKING_TIME):
    """Chebyshev-Picard trajectories of the pair flow: how far they miss the Busemann
    level changes (duration/2, sign*duration/2) and the closed-form flow map, with
    the shared run's error estimate and field calls."""
    run, name = ctx.flows, f"{kind}-tracking"
    pf, starts = run.flows[kind], run.starts[name]
    ends = run.trajectories(name, duration)[-1]
    e1 = np.abs(pf.f1.value(ends) - pf.f1.value(starts) - duration / 2.0)
    e2 = np.abs(pf.f2.value(ends) - pf.f2.value(starts) - tr.SIGN[kind] * duration / 2.0)
    tracking = float(np.max([e1, e2]))
    closed_form_gap = float(np.max(np.abs(pf.flow(starts, duration) - ends)))
    return ({"max_tracking_error": tracking, "max_closed_form_gap": closed_form_gap,
             "trajectories": len(starts), "duration": duration,
             "oracle_correction": run.correction, "oracle_field_calls": run.field_calls},
            tracking <= tol and closed_form_gap <= tol)


@check("difference-flow-level-tracking",
       ("the difference flow raises b1 by t/2 and lowers b2 by t/2; "
        "its Chebyshev-Picard trajectories end on the closed-form flow map"),
       0.0, "exact", tol=1e-8, suite="flows")
def check_difference_flow_tracking(ctx, tol):
    return _tracking_check(ctx, tr.DIFFERENCE, tol)


@check("sum-flow-level-tracking",
       ("the sum flow raises both Busemann values by s/2; "
        "its Chebyshev-Picard trajectories end on the closed-form flow map"),
       0.0, "exact", tol=1e-8, skip=NO_AXIS, suite="flows")
def check_sum_flow_tracking(ctx, tol):
    return _tracking_check(ctx, tr.SUM, tol)


def _off_axis_points(model: ModelSpace, rng: np.random.Generator, cfg, count: int,
                     min_separation: float) -> np.ndarray:
    """The count random points at separation at least min_separation from the
    axis D of cfg (any point when cfg is None) that draws of one point at a time
    from rng accept. Candidates come count per draw, so rng ends past the last
    accepted one: no caller may draw from it after (each :func:`_flow_run` block
    draws from a generator of its own; flow-divergence-identities draws no more)."""
    pts = np.empty((0, model.dim))
    while len(pts) < count:
        c = model.random_points(rng, count, 0.8)
        if cfg is not None:  # PairConfig.separation, in its float order
            c = c[cfg.f1.value(c) + cfg.f2.value(c) - cfg.c0 >= min_separation]
        pts = np.concatenate([pts, c])
    return pts[:count]


@check("flow-divergence-identities",
       ("the raw difference field is divergence free; the normalized flows "
        "satisfy their logarithmic divergence identities"),
       0.0, "cross-check", tol=1e-5, suite="flows")
def check_divergence_identities(ctx, tol):
    f1, f2 = ctx.field_pair
    cfg = ctx.pair_config if ctx.model.is_hyperbolic else None
    pts = _off_axis_points(ctx.model, ctx.rng, cfg, 50, 0.1)
    # each field evaluates the stencils of all points in one call
    raw = tr.divergence_fd(ctx.model, lambda y: f1.grad_chart(y) - f2.grad_chart(y), pts)
    worst_raw = float(np.max(np.abs(raw)))
    lx, rx = tr.div_identity(tr.PairFlow(f1, f2, tr.DIFFERENCE), pts)
    worst_x = float(np.max(np.abs(lx - rx)))
    worst_y = 0.0
    if ctx.model.is_hyperbolic:
        ly, ry = tr.div_identity(tr.PairFlow(f1, f2, tr.SUM), pts)
        worst_y = float(np.max(np.abs(ly - ry)))
    return ({"max_raw_divergence": worst_raw, "max_difference_gap": worst_x,
             "max_sum_gap": worst_y, "points": 50},
            worst_raw <= 1e-6 and worst_x <= tol and worst_y <= tol)


@check("flow-volume-densities",
       ("flow-map volume densities match their closed forms: "
        "(1-beta)/(1-beta(end)) for the difference flow, the exponential "
        "expansion times (1+beta)/(1+beta(end)) for the sum flow"),
       0.0, "cross-check", tol=1e-5, skip=NO_AXIS, suite="flows")
def check_flow_densities(ctx, tol):
    cfg = ctx.pair_config
    run, dur = ctx.flows, DENSITY_TIME
    x = Point(ctx.model, run.starts["difference-densities"][0])
    dens_x, dens_y = (tr.flow_density(run.flows[kind], x, dur) for kind in (tr.DIFFERENCE, tr.SUM))
    fd_x, fd_y = (tr.flow_density_fd(run, f"{kind}-densities", dur) for kind in (tr.DIFFERENCE, tr.SUM))
    # symbolic antiderivative of the sum-flow expansion in the model pair
    s0 = cfg.separation(x)
    exact_y = ((math.exp(s0 + dur) - 1.0) / (math.exp(s0) - 1.0)) ** (ctx.h / 2.0 - 1.0) * math.exp(dur)
    gaps = {
        "difference_vs_one": abs(dens_x - 1.0),
        "difference_fd_gap": abs(fd_x - dens_x),
        "sum_fd_gap": abs(fd_y - dens_y),
        "sum_symbolic_gap": abs(dens_y / exact_y - 1.0),
    }
    ok = (gaps["difference_vs_one"] <= 1e-8 and gaps["difference_fd_gap"] <= tol
          and gaps["sum_fd_gap"] <= tol and gaps["sum_symbolic_gap"] <= 1e-6)
    return {**gaps, "sum_density": dens_y, "sum_symbolic": exact_y}, ok


@check("flow-gradient-transport",
       ("the difference flow carries both gradient fields to themselves; "
        "both flows pull the level 1-forms back to themselves"),
       0.0, "cross-check", tol=1e-6, suite="flows")
def check_gradient_transport(ctx, tol):
    push_x, form_x = tr.transport_gaps(ctx.flows, "difference-transport", TRANSPORT_TIME)
    quantities = {"difference_gradient_gap": push_x, "difference_form_gap": form_x}
    ok = push_x <= tol and form_x <= tol
    if ctx.model.is_hyperbolic:
        # the sum flow carries the 1-forms but not the gradients
        _, form_y = tr.transport_gaps(ctx.flows, "sum-transport", TRANSPORT_TIME)
        quantities["sum_form_gap"] = form_y
        ok = ok and form_y <= tol
    return quantities, ok


@check("pair-sum-floor", "b1 + b2 never drops below its axis value c0",
       0.0, "exact", tol=1e-9, skip=NO_AXIS, suite="flows")
def check_axis_floor(ctx, tol):
    cfg = ctx.pair_config
    pts = ctx.random_points(4000, spread=1.5)
    floor = float(np.min(cfg.f1.value(pts) + cfg.f2.value(pts) - cfg.c0))
    return {"min_separation": floor, "c0": cfg.c0, "points": pts.shape[0]}, floor >= -tol


@check("beta-monotone-along-sum-flow",
       ("beta is non-decreasing along sum-flow trajectories; starts regularized "
        "at separation epsilon approach beta = -1 linearly in epsilon"),
       ">= 0", "exact", skip=NO_AXIS, suite="flows")
def check_beta_monotone_along_sum_flow(ctx, tol):
    cfg = ctx.pair_config
    eps_rows = []
    for eps in (1e-3, 1e-4, 1e-5, 1e-6):
        start = cfg.point_on_locus(eps, 0.0)
        b_start = float(bu.beta(cfg.f1, cfg.f2, start))
        eps_rows.append({"epsilon": eps, "beta_at_start": b_start, "gap_to_minus_one": b_start + 1.0})
    states = ctx.flows.trajectories("beta-monotone", BETA_TIME)[:, 0]
    bs = np.asarray(bu.beta(cfg.f1, cfg.f2, states))
    worst = float(np.min(np.diff(bs)))
    ok = worst >= -1e-12 and all(row["gap_to_minus_one"] <= 3.0 * row["epsilon"] for row in eps_rows)
    return {"min_beta_increment": worst, "regularized_starts": eps_rows}, ok


# --------------------------------------------------------------------------
# intersections suite
# --------------------------------------------------------------------------


@check("locus-membership", "every quadrature node satisfies both horosphere level equations",
       0.0, "exact", tol=1e-10, skip=LOCUS_SKIP, suite="intersections")
def check_locus_membership(ctx, tol):
    s, t = np.asarray(ctx.s_grid, dtype=float), np.asarray(ctx.t_grid, dtype=float)
    worst = lc.parametrize_locus(ctx.pair_config, s[:, None], t).membership_residual()
    return {"max_residual": worst}, worst <= tol


@check("weighted-integrals-t-invariance",
       "V and W are independent of the level difference and match their closed forms",
       "constant in t", "closed-form", tol=1e-8, tol_kind="rel", skip=LOCUS_SKIP, suite="intersections")
def check_vw_t_invariance(ctx, tol):
    cfg = ctx.pair_config
    s, t = np.asarray(ctx.s_grid, dtype=float), np.asarray(ctx.t_grid, dtype=float)
    q = lc.locus_quadrature(lc.parametrize_locus(cfg, s[:, None], t))
    closed = lc.locus_values(cfg, s, t[0])
    spread_v, spread_w = np.ptp(q.V, axis=1) / np.abs(closed.V), np.ptp(q.W, axis=1) / np.abs(closed.W)
    worst_spread = float(np.max([spread_v, spread_w]))
    worst_closed = float(np.max(np.abs([q.V[:, 0] / closed.V - 1.0, q.W[:, 0] / closed.W - 1.0])))
    columns = {"V": q.V[:, 0], "W": q.W[:, 0], "V_expected": closed.V, "W_expected": closed.W,
               "spread_V": spread_v, "spread_W": spread_w}
    rows = [{"s": si, **{key: float(c[i]) for key, c in columns.items()}} for i, si in enumerate(ctx.s_grid)]
    return ({"rows": rows, "worst_relative_spread": worst_spread,
             "worst_closed_form_gap": worst_closed},
            worst_spread <= tol and worst_closed <= tol)


@check("w-growth-rate", "the s-derivative of W equals (h/2)(W + V)",
       0.0, "cross-check", tol=1e-4, tol_kind="rel", skip=LOCUS_SKIP, suite="intersections")
def check_dw_ds(ctx, tol):
    s = np.array([0.5, 1.0, 2.0])
    lhs, rhs = lc.dw_ds_check(ctx.pair_config, s, 0.4)
    rel = np.abs(lhs - rhs) / np.abs(rhs)
    rows = [{"s": si, "lhs": l, "rhs": r, "relative_gap": g}
            for si, l, r, g in zip(s.tolist(), lhs.tolist(), rhs.tolist(), rel.tolist())]
    worst = float(np.max(rel))
    return {"rows": rows, "worst_relative_gap": worst}, worst <= tol


@check("locus-volume-bound",
       ("the locus volume never exceeds (V+W)/2; the bound is level-difference "
        "invariant and is attained at s = ln 2 in H^3"),
       "vol <= bound", "closed-form", tol=1e-9, skip=LOCUS_SKIP, suite="intersections")
def check_volume_bound(ctx, tol):
    cfg = ctx.pair_config
    s_vals = np.concatenate([[math.log(2.0)], np.linspace(0.2, 2.6, 9)])
    t_vals = np.linspace(-3.0, 3.0, 10)
    q = lc.locus_quadrature(lc.parametrize_locus(cfg, s_vals[:, None], t_vals))
    worst_violation = float(np.max(q.vol - q.bound))
    equality_gap = float(np.min(np.abs(q.vol[0] - q.bound[0])))  # the row s = ln 2
    # the spread covers the closed-form bound too
    closed = lc.locus_values(cfg, s_vals, 0.0).bound
    bound_spread = float(np.max(np.ptp(np.column_stack([q.bound, closed]), axis=1) / np.abs(closed)))
    return ({"worst_violation": worst_violation, "equality_gap_at_ln2": equality_gap,
             "bound_relative_spread": bound_spread, "grid": [len(s_vals), len(t_vals)]},
            worst_violation <= tol and equality_gap <= 1e-8 and bound_spread <= 1e-8)


@check("locus-beta-bound",
       ("beta on the locus stays below 1 - 2 e^{-h s} and equals its closed form, the "
        "gradients never cancel there, and the locus volume is non-decreasing in s"),
       "beta <= bound", "closed-form", tol=1e-9, skip=LOCUS_SKIP, suite="intersections")
def check_beta_bound_and_monotone_volume(ctx, tol):
    cfg = ctx.pair_config
    s = np.array([0.1, 0.5, 1.0, 2.0, 3.0])
    max_beta = np.max(lc.parametrize_locus(cfg, s, 0.7).beta_values(), axis=-1)
    bound = 1.0 - 2.0 * np.exp(-ctx.h * s)
    ok_beta = bool(np.all(max_beta <= bound + 1e-9)
                   and np.all(np.abs(max_beta - lc.locus_values(cfg, s, 0.7).beta_max) <= tol))
    margins = [{"s": si, "max_beta": mb, "bound": b}
               for si, mb, b in zip(s.tolist(), max_beta.tolist(), bound.tolist())]
    vols = lc.locus_quadrature(lc.parametrize_locus(cfg, np.linspace(0.3, 2.7, 9), 0.0)).vol
    if ctx.model.dim == 2:
        # point-pair loci have constant counting volume 2
        monotone = bool(np.all(np.diff(vols) >= -1e-12))
    else:
        monotone = bool(np.all(np.diff(vols) > 0))
    # hypothesis of the t-invariance theorem: gradients never cancel on the locus
    hyp = bool(np.all((-1.0 + 1e-12 < max_beta) & (max_beta < 1.0 - 1e-12)))
    return ({"margins": margins, "volumes": vols.tolist(), "monotone": monotone},
            ok_beta and monotone and hyp)


@check("locus-isometry-invariance",
       ("the closed-form volume, V and W equal the general-coordinates "
        "quadrature built from finite-difference tangent frames"),
       0.0, "cross-check", tol=1e-8, skip=LOCUS_SKIP, suite="intersections")
def check_isometry_invariance(ctx, tol):
    m = ctx.model
    a, b = np.zeros(m.dim - 1), np.zeros(m.dim - 1)
    a[0], b[0] = 1.0, -1.0
    f1 = bu.BusemannField(m, boundary_finite(m, a), ctx.basepoint)
    f2 = bu.BusemannField(m, boundary_finite(m, b), ctx.basepoint)
    cfg = lc.make_pair_config(f1, f2)
    L = lc.parametrize_locus(cfg, 1.3, 0.7)
    closed = lc.locus_values(cfg, L.s, L.t)
    general = lc.locus_quadrature(L, general=True)
    worst = float(np.max(np.abs(np.subtract(closed[:3], general[:3]))))
    return {"max_gap": worst, "nodes": L.sphere_weights.size}, worst <= tol


@check("strip-volume",
       ("the volume of a two-sided horosphere slab, sliced in s through the closed-form "
        "sections, matches its slicing along the heights of b2 and is invariant under "
        "shifting the level difference"),
       0.0, "cross-check", tol=1e-10, tol_kind="rel", skip=LOCUS_SKIP, suite="intersections")
def check_strip_volume(ctx, tol):
    cfg = ctx.pair_config
    c1 = c2 = 0.5 * (math.log(2.0) + cfg.c0)
    r = 0.5
    quad = lc.strip_volume(cfg, c1, c2, r)
    sliced = lc.strip_volume_sliced(cfg, c1, c2, r)
    gap = abs(sliced / quad - 1.0)

    def section(s, t):
        return lc.locus_quadrature(lc.parametrize_locus(cfg, s, t)).bound

    shifted = lc.strip_volume(cfg, c1 + 1.0, c2 - 1.0, r, section=section)
    shift_gap = abs(shifted - quad) / quad
    return ({"quadrature": quad, "sliced": sliced, "relative_gap": gap,
             "shift_relative_gap": shift_gap},
            gap <= tol and shift_gap <= 1e-8)


# --------------------------------------------------------------------------
# coarea suite
# --------------------------------------------------------------------------


@check("coarea-slicing",
       ("integrating a bump by Busemann-level slices (unit gradient makes the "
        "coarea weight 1) agrees with its exact integral in geodesic polar coordinates"),
       0.0, "cross-check", tol=1e-10, tol_kind="rel", suite="coarea")
def check_coarea_identity(ctx, tol):
    m = ctx.model
    xi = boundary_infinity(m) if m.is_hyperbolic else boundary_direction(m, np.eye(m.dim)[0])
    bump = TestFunction(ctx.basepoint, 0.5)
    sliced = bu.coarea_slice_integral(bump, bu.BusemannField(m, xi, ctx.basepoint))
    polar = bump.integral()
    gap = abs(sliced / polar - 1.0)
    return {"sliced": sliced, "polar": polar, "relative_gap": gap}, gap <= tol


# --------------------------------------------------------------------------
# the worked half-space example
# --------------------------------------------------------------------------


@check("example-horosphere-spheres",
       "both horospheres through (0,0,2) are chart spheres of radius 5/4 tangent at (+-1, 0)",
       math.log(1.25), "closed-form", tol=1e-12)
def check_example_spheres(ex, tol):
    kind1, center1, radius1 = bu.horosphere_sphere(ex.f1, ex.c1)
    sphere_gap = max(
        float(np.max(np.abs(center1 - np.array([1.0, 0.0, 1.25])))),
        abs(radius1 - 1.25),
    )
    err = max(sphere_gap, abs(ex.c1 - math.log(1.25)), abs(ex.c2 - math.log(1.25)))
    return ({"c1": ex.c1, "c2": ex.c2, "level_expected": math.log(1.25),
             "sphere_gap": sphere_gap, "kind": kind1}, err <= tol)


@check("example-intersection-circle",
       "the horosphere intersection is the circle {x = 0, y^2 + (z - 5/4)^2 = 9/16}",
       0.0, "closed-form", tol=1e-10)
def check_example_circle(ex, tol):
    pts = ex.L.points()
    circle_residual = max(
        float(np.max(np.abs(pts[:, 0]))),
        float(np.max(np.abs(pts[:, 1] ** 2 + (pts[:, 2] - 1.25) ** 2 - 9.0 / 16.0))),
    )
    return {"circle_residual": circle_residual, "s": ex.L.s}, circle_residual <= tol


@check("example-circle-length",
       "the intersection circle has hyperbolic length 3 pi / 2, below the stated 3 pi bound",
       1.5 * math.pi, "closed-form", tol=1e-9)
def check_example_length(ex, tol):
    length = lc.locus_values(ex.L.config, ex.L.s, ex.L.t).vol
    exact = 1.5 * math.pi
    # the same number as the circle's own line integral, on its chart parametrization
    theta = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
    param_length = float(np.mean(3.0 / (3.0 * np.sin(theta) + 5.0)) * 2.0 * math.pi)
    gap = max(abs(length - exact), abs(param_length - exact))
    below_bound = length < 3.0 * math.pi
    return ({"length": length, "parametrized_length": param_length,
             "exact": exact, "below_3pi": below_bound}, gap <= tol and below_bound)


def poincare_example_checks() -> list[CheckReport]:
    """Reproduce the worked upper half-space example: two horospheres through
    (0,0,2) from opposite unit directions at (0,0,1) intersect in the circle
    {x = 0, y^2 + (z - 5/4)^2 = 9/16} of length 3 pi / 2 < 3 pi."""
    m = ModelSpace(HYPERBOLIC, 3)
    base = Point(m, [0.0, 0.0, 1.0])
    f1 = bu.BusemannField(m, boundary_finite(m, [1.0, 0.0]), base)
    f2 = bu.BusemannField(m, boundary_finite(m, [-1.0, 0.0]), base)
    through = Point(m, [0.0, 0.0, 2.0])
    c1 = bu.busemann_value(f1, through)
    c2 = bu.busemann_value(f2, through)
    cfg = lc.make_pair_config(f1, f2)
    ex = SimpleNamespace(f1=f1, c1=c1, c2=c2, L=lc.parametrize_locus(cfg, c1 + c2 - cfg.c0, c1 - c2))
    return [fn(ex) for fn in (check_example_spheres, check_example_circle, check_example_length)]


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

SWEEP_COLUMNS = ("s", "t") + lc.LocusValues._fields


def sweep_rows(cfg: lc.PairConfig, s_grid, t_grid):
    """Closed-form locus quantities over the (s, t) grid, as an s-table.

    They depend on s alone, so one :func:`locus.locus_values` call on the s
    axis gives ``(ts, rows)``: the t values, and one tuple (s_i, vol, V, W,
    bound, beta_max) of Python floats per s_i in grid order. The cell
    (s_i, t_j) in ``SWEEP_COLUMNS`` order is (s_i, t_j, *rows[i][1:]).
    Raises what ``locus_values`` raises, naming (s, t_grid[0]).
    """
    s, t = np.asarray(s_grid, dtype=float), np.asarray(t_grid, dtype=float)
    values = lc.locus_values(cfg, s[:, None], t[:1])
    return t.tolist(), list(zip(s.tolist(), *(q.ravel().tolist() for q in values)))


# --------------------------------------------------------------------------
# runner
# --------------------------------------------------------------------------


def run_suite(suite: str, ctx: VerifyContext) -> list[CheckReport]:
    """Run every check of a suite in declaration order.

    A check that raises :class:`GeometryError` or :class:`ConvergenceError`
    becomes a record with status ``error`` that carries the message; the checks after it still run. With
    ``ctx.probe_outside_image``, a run that includes the map-f checks ends
    with the out-of-image probe. Each check draws from ``ctx.rng_for(check)``,
    built only if it draws.
    """
    if suite not in SUITES:
        raise GeometryError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    checks = list(SUITES[suite])
    if ctx.probe_outside_image and set(SUITES["map-f"]) <= set(checks):
        checks.append(check_map_out_of_image)
    reports = []
    for fn in checks:
        ctx._drawer, ctx._rng = fn, None
        reports.append(fn(ctx))
    return reports

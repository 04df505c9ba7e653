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
context when it depends on the model), ``provenance``, ``tol`` and
``tol_kind``. The body receives the context and ``tol`` and returns
``(quantities, verdict)``: a dict of what it computed and whether the claim
holds. The decorator builds the report: status ``pass`` or ``fail`` from the
verdict, or ``paper-discrepancy`` for a holding verdict when the provenance is
``counterexample``; an ``error`` record when the body raises
:class:`GeometryError` or :class:`ConvergenceError`; and, for a check given
``skip=<reason>``, a passing record with quantities ``{"skipped": reason}`` on
the Euclidean models, where the body does not run. Keep the body's
``__name__``: it keys the check's random generator. Then list the check in a
suite of :data:`SUITES`.
"""

from __future__ import annotations

import copy
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
)
from .numerics import ConvergenceError, TestFunction, fd_hessian, mc_integrate_box, ode_integrate

__all__ = ["CheckReport", "VerifyContext", "SUITES", "run_suite", "poincare_example_checks", "sweep_rows"]

PASS = "pass"
FAIL = "fail"
DISCREPANCY = "paper-discrepancy"
ERROR = "error"
# the marker the CLI prints for each status
MARKERS = {PASS: "PASS", FAIL: "FAIL", DISCREPANCY: "DISCREPANCY", ERROR: "ERROR"}


@dataclass
class CheckReport:
    """One verification record."""

    statement: str
    quantities: dict
    expected: object
    provenance: str
    tolerance: float
    tol_kind: str = "abs"
    status: str = PASS
    wall_time_s: float = 0.0
    name: str = ""  # set by @check

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "statement": self.statement,
            "quantities": _jsonable(self.quantities),
            "expected": _jsonable(self.expected),
            "provenance": self.provenance,
            "tolerance": self.tolerance,
            "tol_kind": self.tol_kind,
            "status": self.status,
            "wall_time_s": self.wall_time_s,
        }


def _jsonable(obj):
    """obj as plain JSON values; a non-finite float becomes "inf", "-inf" or "nan"."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return repr(obj)


@dataclass
class VerifyContext:
    """Resolved inputs shared by the checks of one run.

    The Busemann pair sits at the origin and infinity (two orthogonal
    directions in the Euclidean model), the basepoint at unit height, and the
    map target t0 below it (t0 along the first axis in the Euclidean model).
    """

    model: ModelSpace
    seed: int = 42
    samples: int = 150_000
    s_grid: tuple = (0.5, math.log(2.0), 2.0)
    t_grid: tuple = (-3.0, -1.0, 0.0, 1.0, 3.0)
    t0: float = 1.0
    probe_outside_image: bool = False
    basepoint: Point = dc_field(init=False)
    rng: np.random.Generator = dc_field(init=False)

    def __post_init__(self):
        coords = np.zeros(self.model.dim)
        if self.model.is_hyperbolic:
            coords[-1] = 1.0
        self.basepoint = Point(self.model, coords)
        self.rng = np.random.default_rng(self.seed)

    @property
    def h(self) -> float:
        return bu.mean_curvature_h(self.model)

    def field_pair(self) -> tuple[bu.BusemannField, bu.BusemannField]:
        m = self.model
        if m.is_hyperbolic:
            xi1 = boundary_finite(m, np.zeros(m.dim - 1))
            xi2 = boundary_infinity(m)
        else:
            u1, u2 = np.zeros(m.dim), np.zeros(m.dim)
            u1[0], u2[1] = 1.0, 1.0
            xi1, xi2 = boundary_direction(m, u1), boundary_direction(m, u2)
        return (bu.BusemannField(m, xi1, self.basepoint),
                bu.BusemannField(m, xi2, self.basepoint))

    def pair_config(self) -> lc.PairConfig:
        f1, f2 = self.field_pair()
        return lc.make_pair_config(f1, f2)

    def map_endpoints(self) -> tuple[Point, Point]:
        p = self.basepoint
        qc = np.array(p.coords, copy=True)
        if self.model.is_hyperbolic:
            qc[-1] *= math.exp(-self.t0)
        else:
            qc[0] += self.t0
        return p, Point(self.model, qc)

    def random_points(self, count: int, spread: float = 0.8) -> np.ndarray:
        return self.model.random_points(self.rng, count, spread)


def check(name: str, statement: str, expected, provenance: str, *, tol: float = 0.0,
          tol_kind: str = "abs", skip: str | None = None):
    """Register a check body ``(ctx, tol) -> (quantities, verdict)``; the
    wrapper builds its named and timed report (see the module docstring)."""
    def decorate(body):
        @functools.wraps(body)
        def run(ctx) -> CheckReport:
            start = time.perf_counter()
            if skip is not None and not ctx.model.is_hyperbolic:
                rep = CheckReport(statement, {"skipped": skip}, None, "exact", 0.0)
            else:
                try:
                    quantities, ok = body(ctx, tol)
                except (GeometryError, ConvergenceError) as exc:
                    rep = CheckReport("the check stopped with an error", {"error": str(exc)},
                                      None, "none", 0.0, status=ERROR)
                else:
                    status = (DISCREPANCY if provenance == "counterexample" else PASS) if ok else FAIL
                    rep = CheckReport(statement, quantities,
                                      expected(ctx) if callable(expected) else expected,
                                      provenance, tol, tol_kind, status)
            rep.name = name
            rep.wall_time_s = time.perf_counter() - start
            return rep

        return run

    return decorate


NO_AXIS = "Euclidean pair has no axis constant"
LOCUS_SKIP = "intersection loci require the visibility model"


# --------------------------------------------------------------------------
# busemann suite
# --------------------------------------------------------------------------


@check("busemann-gradient-unit-norm", "the Busemann gradient has unit Riemannian length everywhere",
       0.0, "exact", tol=1e-9)
def check_gradient_norm(ctx, tol):
    f1, f2 = ctx.field_pair()
    pts = ctx.random_points(200)
    worst = 0.0
    for f in (f1, f2):
        norms = ctx.model.norm(pts, f.grad_chart(pts))
        worst = max(worst, float(np.max(np.abs(norms - 1.0))))
    return {"max_norm_error": worst, "points": pts.shape[0]}, worst <= tol


@check("busemann-laplacian-constant", "trace of the horosphere shape operator is the constant h",
       lambda ctx: ctx.h, "closed-form", tol=1e-6)
def check_laplacian_constancy(ctx, tol):
    f1, _ = ctx.field_pair()
    mean, std = bu.estimate_h(f1, ctx.random_points(100))
    ok = abs(mean - ctx.h) <= 1e-8 and std <= tol
    return {"mean": mean, "stddev": std, "h": ctx.h}, ok


@check("busemann-hessian-psd-and-bounded", "shape-operator eigenvalues lie in [0, h]",
       lambda ctx: f"[0, {ctx.h}]", "closed-form", tol=1e-9)
def check_hessian_bounds(ctx, tol):
    f1, f2 = ctx.field_pair()
    lo, hi = math.inf, -math.inf
    for c in ctx.random_points(50):
        for f in (f1, f2):
            ev = np.linalg.eigvalsh(f.hessian_matrix(c))
            lo = min(lo, float(ev[0]))
            hi = max(hi, float(ev[-1]))
    return {"min_eigenvalue": lo, "max_eigenvalue": hi, "h": ctx.h}, lo >= -tol and hi <= ctx.h + tol


@check("busemann-hessian-fd-crosscheck",
       "closed-form shape operator matches second derivatives of b along geodesics",
       0.0, "cross-check", tol=1e-6)
def check_hessian_fd(ctx, tol):
    m = ctx.model
    f1, _ = ctx.field_pair()
    eye = np.eye(m.dim)
    directions = list(eye) + [a + b for a, b in itertools.combinations(eye, 2)]
    worst = 0.0
    for c in ctx.random_points(5):
        H = f1.hessian_matrix(c)
        for d in directions:
            # Hess b(v, v) is the second derivative of b along the unit-speed geodesic
            v = d / float(m.norm(c, d))
            along = fd_hessian(lambda t: float(f1.value(m.exp(c, t[0] * v))), np.zeros(1), step=1e-3)
            worst = max(worst, abs(float(along[0, 0]) - float(m.inner(c, H @ v, v))))
    return {"max_hessian_gap": worst, "directions": len(directions)}, worst <= tol


@check("busemann-truncation-monotone",
       "d(x, ray(T)) - T is non-increasing in T and converges to the Busemann value",
       0.0, "exact", tol=1e-6)
def check_truncation_monotone(ctx, tol):
    f1, _ = ctx.field_pair()
    ts = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 24.0])
    worst_increase = -math.inf
    worst_gap = 0.0
    worst_excess = 0.0
    for c in ctx.random_points(20, spread=0.5):
        vals = np.array([float(f1.value_truncated(c, T)) for T in ts])
        worst_increase = max(worst_increase, float(np.max(np.diff(vals))))
        gap = vals[-1] - float(f1.value(c))
        worst_gap = max(worst_gap, abs(gap))
        if not ctx.model.is_hyperbolic:
            # flat-space tail: gap = sqrt((T-s)^2 + rho^2) - (T-s) <= rho^2 / (2 (T-s))
            w = c - f1.basepoint.coords
            along = float(np.dot(w, f1.xi.data))
            rho_sq = float(np.dot(w, w)) - along * along
            worst_excess = max(worst_excess, gap - rho_sq / (2.0 * (ts[-1] - along)))
    if ctx.model.is_hyperbolic:
        converged = worst_gap <= tol  # exponential tail
    else:
        converged = worst_excess <= 1e-12  # algebraic tail, within its envelope
    return ({"max_increase": worst_increase, "final_gap": worst_gap,
             "envelope_excess": worst_excess if not ctx.model.is_hyperbolic else None},
            worst_increase <= 1e-12 and converged)


@check("busemann-axis-gradient-cancellation", "gradients of the pair cancel on the axis, where beta = -1",
       0.0, "exact", tol=1e-10, skip="no bi-asymptotic geodesic in the Euclidean model")
def check_axis_gradient_cancellation(ctx, tol):
    cfg = ctx.pair_config()
    worst = 0.0
    worst_beta = -1.0
    for z in (0.25, 0.5, 1.0, 2.0, 4.0):
        x = cfg.axis_point(z)
        gsum = cfg.f1.grad_chart(x.coords) + cfg.f2.grad_chart(x.coords)
        worst = max(worst, float(ctx.model.norm(x.coords, gsum)))
        worst_beta = max(worst_beta, float(bu.beta(cfg.f1, cfg.f2, x)))
    return ({"max_gradient_sum_norm": worst, "max_beta_on_axis": worst_beta},
            worst <= tol and worst_beta <= -1.0 + 1e-9)


@check("busemann-sublevel-boundedness",
       "two-horoball intersections are bounded exactly when the space is negatively curved",
       lambda ctx: ctx.model.is_hyperbolic, "exact")
def check_visibility_probe(ctx, tol):
    f1, f2 = ctx.field_pair()
    rep = bu.sublevel_bounded_probe(f1, f2, 0.5, 0.5, rays=48, t_max=50.0,
                                    rng=np.random.default_rng(ctx.seed + 1))
    return ({"bounded": rep.bounded, "rays": rep.rays_probed,
             "max_exit_time": rep.max_exit_time},
            rep.bounded == ctx.model.is_hyperbolic)


# --------------------------------------------------------------------------
# map-f suite
# --------------------------------------------------------------------------


@check("alpha-defining-equation", "alpha'(t) e^{h(alpha(t)-t)} = 1 with the analytic derivative",
       0.0, "exact", tol=1e-10)
def check_alpha_residual(ctx, tol):
    a = tr.AlphaMap(ctx.h, ctx.t0)
    res = a.residual(np.linspace(-30.0, 30.0, 121))
    return ({"max_residual": res, "h": ctx.h, "t0": ctx.t0,
             "range_infimum": a.range_infimum}, res <= tol)


@check("alpha-gap-monotone",
       "alpha(t) - t is strictly decreasing when h > 0 and the constant t0 when h = 0",
       lambda ctx: "decreasing" if ctx.h > 0 else ctx.t0, "closed-form")
def check_alpha_gap_monotone(ctx, tol):
    gaps = tr.AlphaMap(ctx.h, ctx.t0).gap(np.linspace(-10.0, 10.0, 201))
    diffs = np.diff(gaps)
    if ctx.h > 0:
        ok = bool(np.all(diffs < 0))
    else:
        ok = bool(np.max(np.abs(gaps - ctx.t0)) <= 1e-12)
    return {"max_diff": float(np.max(diffs)), "min_diff": float(np.min(diffs))}, ok


@check("map-sends-p-to-q", "the volume-preserving map sends the chosen source point to the target",
       0.0, "exact", tol=1e-10)
def check_map_endpoint(ctx, tol):
    p, q = ctx.map_endpoints()
    F = tr.VolumePreservingMap(ctx.model, p, q)
    gap = float(np.max(np.abs(F(p).coords - q.coords)))
    return {"chart_gap": gap, "t0": F.t0}, gap <= tol


@check("map-unit-jacobian", "the Riemannian Jacobian determinant of the map is 1 everywhere",
       1.0, "cross-check", tol=1e-7)
def check_map_unit_jacobian(ctx, tol):
    p, q = ctx.map_endpoints()
    F = tr.VolumePreservingMap(ctx.model, p, q)
    worst = 0.0
    for c in ctx.random_points(100):
        worst = max(worst, abs(F.jacobian_det(c) - 1.0))
    return {"max_det_error": worst, "points": 100}, worst <= tol


@check("horosphere-volume-expansion", "the normal flow expands horosphere volume by exactly e^{h t}",
       1.0, "closed-form", tol=1e-6, tol_kind="rel")
def check_horosphere_expansion(ctx, tol):
    f1, _ = ctx.field_pair()
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        for c in ctx.random_points(20, spread=0.5):
            j = tr.horosphere_jacobian(f1, t, Point(ctx.model, c))
            worst = max(worst, abs(j / math.exp(ctx.h * t) - 1.0))
    return {"max_ratio_error": worst, "h": ctx.h}, worst <= tol


def _bump_levels(ctx: VerifyContext, F: tr.VolumePreservingMap, radius: float):
    if ctx.h > 0:
        m = F.image_threshold
        return [m + radius + off for off in (0.3, 0.6, 1.0, 1.5, 2.0)]
    return [-1.0, -0.5, 0.0, 0.5, 1.0]


def _pulled_integral(ctx: VerifyContext, F: tr.VolumePreservingMap, bump: TestFunction, seed: int):
    """Monte Carlo integral of bump o F. Its support, the preimage of the
    bump's, lies in the metric ball about F^-1(center) of radius r + (spread
    of the backward shift over the levels b_c -+ r): the backward normal flow
    is 1-Lipschitz, and the shift delta(u) = gap(alpha^-1(u)) decreases in u."""
    def shift(u):
        return F.alpha.gap(F.alpha.inverse(u))

    b_c = float(F.field.value(bump.center.coords))
    spread = shift(b_c - bump.radius) - shift(b_c + bump.radius)
    shell = TestFunction(Point(ctx.model, F.inverse_coords(bump.center.coords)),
                         bump.radius + spread + 1e-9)
    lo, hi = shell.support_chart_box()
    return mc_integrate_box(lambda pts: bump(F.apply_coords(pts)) * ctx.model.volume_density(pts),
                            lo, hi, ctx.samples, seed)


@check("map-integral-invariance",
       ("integrals of bumps supported in the image agree with their pullbacks: each "
        "Monte Carlo integral of the pulled bump matches the bump's exact polar integral"),
       0.0, "cross-check", tol=3.0, tol_kind="sigma")
def check_map_integral_invariance(ctx, tol):
    p, q = ctx.map_endpoints()
    F = tr.VolumePreservingMap(ctx.model, p, q)
    flow = tr.NormalFlow(F.field)
    radius = 0.3
    worst_pull = 0.0
    rows = []
    for k, level in enumerate(_bump_levels(ctx, F, radius)):
        bump = TestFunction(Point(ctx.model, flow(level, p.coords)), radius)
        exact = bump.integral()
        pulled = _pulled_integral(ctx, F, bump, ctx.seed + 10 * k + 1)
        pull = pulled.pull(exact)
        worst_pull = max(worst_pull, pull)
        rows.append({"level": level, "exact": exact, "pulled": pulled.mean,
                     "sigma": pulled.standard_error, "pull": pull})
    return {"bumps": rows, "worst_pull_sigmas": worst_pull}, worst_pull <= tol


@check("map-out-of-image-probe",
       ("the integral identity fails for mass below the image threshold m: "
        "the map is a diffeomorphism onto {b > m}, not onto the whole space"),
       "pulled integral ~ 0", "counterexample", tol=0.01, skip="the h = 0 map is onto")
def check_map_out_of_image(ctx, tol):
    """Documented deviation: the map is not onto, so mass below the image
    threshold is invisible to the pullback integral."""
    p, q = ctx.map_endpoints()
    F = tr.VolumePreservingMap(ctx.model, p, q)
    flow = tr.NormalFlow(F.field)
    radius = 0.3
    level = F.image_threshold - radius - 0.5
    bump = TestFunction(Point(ctx.model, flow(level, p.coords)), radius)
    lo, hi = bump.support_chart_box()
    pulled = mc_integrate_box(lambda pts: bump(F.apply_coords(pts)) * ctx.model.volume_density(pts),
                              lo, hi, ctx.samples, ctx.seed + 78)
    exact = bump.integral()
    ratio = pulled.mean / exact
    return ({"image_threshold": F.image_threshold, "bump_level": level,
             "exact": exact, "pulled": pulled.mean, "ratio": ratio}, ratio <= tol)


# --------------------------------------------------------------------------
# flows suite
# --------------------------------------------------------------------------


def _tracking_check(ctx, pf, sign2: float, tol: float, count: int = 20, duration: float = 2.0):
    """RK4 trajectories of the pair flow: how far they miss the Busemann level
    changes (duration/2, sign2*duration/2) and the closed-form flow map."""
    cfg = None
    if pf.kind == tr.SUM:
        cfg = lc.make_pair_config(pf.f1, pf.f2)
    starts = []
    while len(starts) < count:
        c = ctx.random_points(1, spread=0.8)[0]
        if cfg is not None and cfg.separation(Point(ctx.model, c)) < 0.05:
            continue  # keep sum-flow starts off the axis
        starts.append(c)
    starts = np.array(starts)
    # the flow field is vectorized, so all trajectories integrate in one batch
    ends = ode_integrate(pf.vector, starts, duration, step=1e-3)
    e1 = np.abs(pf.f1.value(ends) - pf.f1.value(starts) - duration / 2.0)
    e2 = np.abs(pf.f2.value(ends) - pf.f2.value(starts) - sign2 * duration / 2.0)
    tracking = float(max(np.max(e1), np.max(e2)))
    closed_form_gap = float(np.max(np.abs(pf.flow(starts, duration) - ends)))
    return ({"max_tracking_error": tracking, "max_closed_form_gap": closed_form_gap,
             "trajectories": count, "duration": duration},
            tracking <= tol and closed_form_gap <= tol)


@check("difference-flow-level-tracking",
       ("the difference flow raises b1 by t/2 and lowers b2 by t/2; "
        "its RK4 trajectories end on the closed-form flow map"),
       0.0, "exact", tol=1e-8)
def check_difference_flow_tracking(ctx, tol):
    f1, f2 = ctx.field_pair()
    return _tracking_check(ctx, tr.PairFlow(f1, f2, tr.DIFFERENCE), -1.0, tol)


@check("sum-flow-level-tracking",
       ("the sum flow raises both Busemann values by s/2; "
        "its RK4 trajectories end on the closed-form flow map"),
       0.0, "exact", tol=1e-8, skip=NO_AXIS)
def check_sum_flow_tracking(ctx, tol):
    f1, f2 = ctx.field_pair()
    return _tracking_check(ctx, tr.PairFlow(f1, f2, tr.SUM), +1.0, tol)


def _off_axis_points(ctx: VerifyContext, cfg, count: int):
    pts = []
    while len(pts) < count:
        c = ctx.random_points(1, spread=0.8)[0]
        if cfg is None or cfg.separation(Point(ctx.model, c)) >= 0.1:
            pts.append(c)
    return pts


@check("flow-divergence-identities",
       ("the raw difference field is divergence free; the normalized flows "
        "satisfy their logarithmic divergence identities"),
       0.0, "cross-check", tol=1e-5)
def check_divergence_identities(ctx, tol):
    f1, f2 = ctx.field_pair()
    cfg = lc.make_pair_config(f1, f2) if ctx.model.is_hyperbolic else None
    raw = tr.raw_pair_field(f1, f2, tr.DIFFERENCE)
    pf_x = tr.PairFlow(f1, f2, tr.DIFFERENCE)
    pf_y = tr.PairFlow(f1, f2, tr.SUM) if ctx.model.is_hyperbolic else None
    worst_raw, worst_x, worst_y = 0.0, 0.0, 0.0
    for c in _off_axis_points(ctx, cfg, 50):
        x = Point(ctx.model, c)
        worst_raw = max(worst_raw, abs(tr.divergence_fd(ctx.model, raw, x)))
        lx, rx = tr.div_identity_difference(pf_x, x)
        worst_x = max(worst_x, abs(lx - rx))
        if pf_y is not None:
            ly, ry = tr.div_identity_sum(pf_y, x)
            worst_y = max(worst_y, abs(ly - ry))
    return ({"max_raw_divergence": worst_raw, "max_difference_gap": worst_x,
             "max_sum_gap": worst_y, "points": 50},
            worst_raw <= 1e-6 and worst_x <= tol and worst_y <= tol)


@check("flow-volume-densities",
       ("flow-map volume densities match their closed forms: "
        "(1-beta)/(1-beta(end)) for the difference flow, the exponential "
        "expansion times (1+beta)/(1+beta(end)) for the sum flow"),
       0.0, "cross-check", tol=1e-5, skip=NO_AXIS)
def check_flow_densities(ctx, tol):
    f1, f2 = ctx.field_pair()
    cfg = lc.make_pair_config(f1, f2)
    pf_x = tr.PairFlow(f1, f2, tr.DIFFERENCE)
    pf_y = tr.PairFlow(f1, f2, tr.SUM)
    x = cfg.point_on_locus(0.7, 0.2)
    dur = 0.9
    dens_x = tr.flow_density(pf_x, x, dur)
    fd_x = tr.flow_density_fd(pf_x, x, dur, step=5e-3)
    dens_y = tr.flow_density(pf_y, x, dur)
    fd_y = tr.flow_density_fd(pf_y, x, dur, step=5e-3)
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
       0.0, "cross-check", tol=1e-6)
def check_gradient_transport(ctx, tol):
    f1, f2 = ctx.field_pair()
    pf_x = tr.PairFlow(f1, f2, tr.DIFFERENCE)
    cfg = lc.make_pair_config(f1, f2) if ctx.model.is_hyperbolic else None
    c = _off_axis_points(ctx, cfg, 1)[0]
    x = Point(ctx.model, c)
    push_x, form_x = tr.transport_gaps(pf_x, x, 0.8)
    quantities = {"difference_gradient_gap": push_x, "difference_form_gap": form_x}
    ok = push_x <= tol and form_x <= tol
    if ctx.model.is_hyperbolic:
        # the sum flow carries the 1-forms but not the gradients
        _, form_y = tr.transport_gaps(tr.PairFlow(f1, f2, tr.SUM), x, 0.8)
        quantities["sum_form_gap"] = form_y
        ok = ok and form_y <= tol
    return quantities, ok


@check("pair-sum-floor", "b1 + b2 never drops below its axis value c0",
       0.0, "exact", tol=1e-9, skip=NO_AXIS)
def check_axis_floor(ctx, tol):
    cfg = ctx.pair_config()
    pts = ctx.random_points(4000, spread=1.5)
    floor = float(np.min(cfg.f1.value(pts) + cfg.f2.value(pts) - cfg.c0))
    return {"min_separation": floor, "c0": cfg.c0, "points": pts.shape[0]}, floor >= -tol


@check("beta-monotone-along-sum-flow",
       ("beta is non-decreasing along sum-flow trajectories; starts regularized "
        "at separation epsilon approach beta = -1 linearly in epsilon"),
       ">= 0", "exact", skip=NO_AXIS)
def check_beta_monotone_along_sum_flow(ctx, tol):
    cfg = ctx.pair_config()
    pf_y = tr.PairFlow(cfg.f1, cfg.f2, tr.SUM)
    eps_rows = []
    for eps in (1e-3, 1e-4, 1e-5, 1e-6):
        start = cfg.point_on_locus(eps, 0.0)
        b_start = float(bu.beta(cfg.f1, cfg.f2, start))
        eps_rows.append({"epsilon": eps, "beta_at_start": b_start, "gap_to_minus_one": b_start + 1.0})
    start = cfg.point_on_locus(0.2, 0.3)
    _, states = ode_integrate(pf_y.vector, start.coords, 1.5, step=1e-3, record=True)
    bs = np.asarray(bu.beta(cfg.f1, cfg.f2, states))
    worst = float(np.min(np.diff(bs)))
    ok = worst >= -1e-12 and all(row["gap_to_minus_one"] <= 3.0 * row["epsilon"] for row in eps_rows)
    return {"min_beta_increment": worst, "regularized_starts": eps_rows}, ok


# --------------------------------------------------------------------------
# intersections suite
# --------------------------------------------------------------------------


@check("locus-membership", "every quadrature node satisfies both horosphere level equations",
       0.0, "exact", tol=1e-10, skip=LOCUS_SKIP)
def check_locus_membership(ctx, tol):
    cfg = ctx.pair_config()
    worst = 0.0
    for s in ctx.s_grid:
        for t in ctx.t_grid:
            L = lc.parametrize_locus(cfg, s, t)
            worst = max(worst, L.membership_residual())
    return {"max_residual": worst}, worst <= tol


@check("weighted-integrals-t-invariance",
       "V and W are independent of the level difference and match their closed forms",
       "constant in t", "closed-form", tol=1e-8, tol_kind="rel", skip=LOCUS_SKIP)
def check_vw_t_invariance(ctx, tol):
    cfg = ctx.pair_config()
    worst_spread = 0.0
    worst_closed = 0.0
    rows = []
    for s in ctx.s_grid:
        vs, ws = [], []
        for t in ctx.t_grid:
            q = lc.locus_quadrature(lc.parametrize_locus(cfg, s, t))
            vs.append(q.V)
            ws.append(q.W)
        closed = lc.locus_values(cfg, s, ctx.t_grid[0])
        v_exp, w_exp = closed.V, closed.W
        spread_v = (max(vs) - min(vs)) / abs(v_exp)
        spread_w = (max(ws) - min(ws)) / abs(w_exp)
        worst_spread = max(worst_spread, spread_v, spread_w)
        worst_closed = max(worst_closed, abs(vs[0] / v_exp - 1.0), abs(ws[0] / w_exp - 1.0))
        rows.append({"s": s, "V": vs[0], "W": ws[0], "V_expected": v_exp, "W_expected": w_exp,
                     "spread_V": spread_v, "spread_W": spread_w})
    return ({"rows": rows, "worst_relative_spread": worst_spread,
             "worst_closed_form_gap": worst_closed},
            worst_spread <= tol and worst_closed <= tol)


@check("w-growth-rate", "the s-derivative of W equals (h/2)(W + V)",
       0.0, "cross-check", tol=1e-4, tol_kind="rel", skip=LOCUS_SKIP)
def check_dw_ds(ctx, tol):
    cfg = ctx.pair_config()
    worst = 0.0
    rows = []
    for s in (0.5, 1.0, 2.0):
        lhs, rhs = lc.dw_ds_check(cfg, s, 0.4)
        rel = abs(lhs - rhs) / abs(rhs)
        worst = max(worst, rel)
        rows.append({"s": s, "lhs": lhs, "rhs": rhs, "relative_gap": rel})
    return {"rows": rows, "worst_relative_gap": worst}, worst <= tol


@check("locus-volume-bound",
       ("the locus volume never exceeds (V+W)/2; the bound is level-difference "
        "invariant and is attained at s = ln 2 in H^3"),
       "vol <= bound", "closed-form", tol=1e-9, skip=LOCUS_SKIP)
def check_volume_bound(ctx, tol):
    cfg = ctx.pair_config()
    s_vals = np.concatenate([[math.log(2.0)], np.linspace(0.2, 2.6, 9)])
    t_vals = np.linspace(-3.0, 3.0, 10)
    worst_violation = -math.inf
    equality_gap = math.inf
    bound_spread = 0.0
    for s in s_vals:
        bounds_this_s = []
        for t in t_vals:
            q = lc.locus_quadrature(lc.parametrize_locus(cfg, float(s), float(t)))
            worst_violation = max(worst_violation, q.vol - q.bound)
            bounds_this_s.append(q.bound)
            if abs(s - math.log(2.0)) < 1e-12:
                equality_gap = min(equality_gap, abs(q.vol - q.bound))
        # the spread covers the closed-form bound too
        _, closed = lc.volume_upper_bound(cfg, float(s), 0.0)
        bounds_this_s.append(closed)
        bound_spread = max(bound_spread, (max(bounds_this_s) - min(bounds_this_s)) / abs(closed))
    return ({"worst_violation": worst_violation, "equality_gap_at_ln2": equality_gap,
             "bound_relative_spread": bound_spread, "grid": [len(s_vals), len(t_vals)]},
            worst_violation <= tol and equality_gap <= 1e-8 and bound_spread <= 1e-8)


@check("locus-beta-bound",
       ("beta on the locus stays below 1 - 2 e^{-h s} and equals its closed form, the "
        "gradients never cancel there, and the locus volume is non-decreasing in s"),
       "beta <= bound", "closed-form", tol=1e-9, skip=LOCUS_SKIP)
def check_beta_bound_and_monotone_volume(ctx, tol):
    cfg = ctx.pair_config()
    ok_beta = True
    margins = []
    for s in (0.1, 0.5, 1.0, 2.0, 3.0):
        L = lc.parametrize_locus(cfg, s, 0.7)
        max_beta = float(np.max(L.beta_values()))
        ok_beta = (ok_beta and lc.beta_bound_check(L)
                   and abs(max_beta - lc.locus_values(cfg, s, 0.7).beta_max) <= tol)
        margins.append({"s": s, "max_beta": max_beta, "bound": 1.0 - 2.0 * math.exp(-ctx.h * s)})
    grid = np.linspace(0.3, 2.7, 9)
    vols = [lc.locus_quadrature(lc.parametrize_locus(cfg, float(s), 0.0)).vol for s in grid]
    if ctx.model.dim == 2:
        # point-pair loci have constant counting volume 2
        monotone = bool(np.all(np.diff(vols) >= -1e-12))
    else:
        monotone = bool(np.all(np.diff(vols) > 0))
    # hypothesis of the t-invariance theorem: gradients never cancel on the locus
    hyp = all(-1.0 + 1e-12 < row["max_beta"] < 1.0 - 1e-12 for row in margins)
    return {"margins": margins, "volumes": vols, "monotone": monotone}, ok_beta and monotone and hyp


@check("locus-isometry-invariance",
       ("the closed-form volume, V and W equal the general-coordinates "
        "quadrature built from finite-difference tangent frames"),
       0.0, "cross-check", tol=1e-8, skip=LOCUS_SKIP)
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
    worst = max(abs(a - b) for a, b in zip(closed[:3], general[:3]))
    return {"max_gap": worst, "nodes": L.sphere_weights.size}, worst <= tol


@check("strip-volume",
       ("the volume of a two-sided horosphere slab matches its sliced quadrature "
        "and is invariant under shifting the level difference"),
       0.0, "cross-check", tol=3.0, tol_kind="sigma", skip=LOCUS_SKIP)
def check_strip_volume(ctx, tol):
    cfg = ctx.pair_config()
    c1 = c2 = 0.5 * (math.log(2.0) + cfg.c0)
    r = 0.5
    quad = lc.strip_volume(cfg, c1, c2, r)
    mc = lc.strip_volume_mc(cfg, c1, c2, r, n_samples=2 * ctx.samples, seed=ctx.seed + 5)
    pull = mc.pull(quad)

    def section(s, t):
        return lc.locus_quadrature(lc.parametrize_locus(cfg, s, t)).bound

    shifted = lc.strip_volume(cfg, c1 + 1.0, c2 - 1.0, r, section=section)
    shift_gap = abs(shifted - quad) / quad
    return ({"quadrature": quad, "mc_mean": mc.mean, "mc_se": mc.standard_error,
             "pull_sigmas": pull, "shift_relative_gap": shift_gap},
            pull <= tol and shift_gap <= 1e-8)


# --------------------------------------------------------------------------
# coarea suite
# --------------------------------------------------------------------------


@check("coarea-slicing",
       ("integrating a bump by Busemann-level slices (unit gradient makes the "
        "coarea weight 1) agrees with its exact integral in geodesic polar coordinates"),
       0.0, "cross-check", tol=1e-10, tol_kind="rel")
def check_coarea_identity(ctx, tol):
    m = ctx.model
    xi = boundary_infinity(m) if m.is_hyperbolic else boundary_direction(m, np.eye(m.dim)[0])
    bump = TestFunction(ctx.basepoint, 0.5)
    sliced = bu.coarea_slice_integral(bump, bu.BusemannField(m, xi, ctx.basepoint), t_nodes=64, x_nodes=48)
    polar = bump.integral()
    gap = abs(sliced / polar - 1.0)
    return {"sliced": sliced, "polar": polar, "relative_gap": gap}, gap <= tol


@check("mc-error-scaling",
       ("doubling the sample count shrinks the standard error by sqrt(2); "
        "a fixed seed reproduces the estimate bit for bit"),
       math.sqrt(2.0), "exact", tol=0.2, tol_kind="rel")
def check_mc_error_scaling(ctx, tol):
    m = ctx.model
    bump = TestFunction(ctx.basepoint, 0.5)
    lo, hi = bump.support_chart_box()

    def integrand(pts):
        return bump(pts) * m.volume_density(pts)

    n = ctx.samples
    e1 = mc_integrate_box(integrand, lo, hi, n, ctx.seed + 31)
    e2 = mc_integrate_box(integrand, lo, hi, 2 * n, ctx.seed + 31)
    # a zero second error (one or two samples) records a failing ratio
    ratio = e1.standard_error / e2.standard_error if e2.standard_error > 0.0 else math.inf
    e1_again = mc_integrate_box(integrand, lo, hi, n, ctx.seed + 31)
    reproducible = e1.mean == e1_again.mean and e1.standard_error == e1_again.standard_error
    return ({"se_ratio": ratio, "expected_ratio": math.sqrt(2.0), "reproducible": reproducible},
            abs(ratio - math.sqrt(2.0)) <= tol * math.sqrt(2.0) and reproducible)


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
    length = lc.volume_locus(ex.L)
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
    """Closed-form locus quantities, one row per (s, t) cell."""
    return [{"s": float(s), "t": float(t), **lc.locus_values(cfg, float(s), float(t))._asdict()}
            for s in s_grid for t in t_grid]


# --------------------------------------------------------------------------
# suite registry and runner
# --------------------------------------------------------------------------

SUITES: dict[str, list] = {
    "busemann": [
        check_gradient_norm,
        check_laplacian_constancy,
        check_hessian_bounds,
        check_hessian_fd,
        check_truncation_monotone,
        check_axis_gradient_cancellation,
        check_visibility_probe,
    ],
    "map-f": [
        check_alpha_residual,
        check_alpha_gap_monotone,
        check_map_endpoint,
        check_map_unit_jacobian,
        check_horosphere_expansion,
        check_map_integral_invariance,
    ],
    "flows": [
        check_difference_flow_tracking,
        check_sum_flow_tracking,
        check_divergence_identities,
        check_flow_densities,
        check_gradient_transport,
        check_axis_floor,
        check_beta_monotone_along_sum_flow,
    ],
    "intersections": [
        check_locus_membership,
        check_vw_t_invariance,
        check_dw_ds,
        check_volume_bound,
        check_beta_bound_and_monotone_volume,
        check_isometry_invariance,
        check_strip_volume,
    ],
    "coarea": [
        check_coarea_identity,
        check_mc_error_scaling,
    ],
}
SUITES["all"] = [fn for name in ("busemann", "map-f", "flows", "intersections", "coarea")
                 for fn in SUITES[name]]


def _isolated_context(ctx: VerifyContext, fn) -> VerifyContext:
    """Per-check context clone with a generator keyed by the check's name, so
    a check reports the same numbers in every suite that runs it."""
    clone = copy.copy(ctx)
    clone.rng = np.random.default_rng([ctx.seed, zlib.crc32(fn.__name__.encode())])
    return clone


def run_suite(suite: str, ctx: VerifyContext) -> list[CheckReport]:
    """Run every check of a suite in declaration order.

    A check that raises :class:`GeometryError` or :class:`ConvergenceError`
    becomes a record with status ``error`` that carries the message; the checks after it still run. With
    ``ctx.probe_outside_image``, a run that includes the map-f checks ends
    with the out-of-image probe.
    """
    if suite not in SUITES:
        raise GeometryError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    checks = list(SUITES[suite])
    if ctx.probe_outside_image and set(SUITES["map-f"]) <= set(checks):
        checks.append(check_map_out_of_image)
    return [fn(_isolated_context(ctx, fn)) for fn in checks]

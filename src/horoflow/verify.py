"""Verification suites: every identity the package asserts, as runnable checks.

Each check produces a :class:`CheckReport` with the computed quantities, the
expected value with its provenance (exact / closed-form / cross-check /
counterexample), the tolerance, and a status. Status ``paper-discrepancy``
marks the one documented deviation (the global-surjectivity claim for the
volume-preserving map) and does not fail a suite.

Suites: ``busemann``, ``map-f``, ``flows``, ``intersections``, ``coarea``,
and ``all`` (their union in declaration order).
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import time
import zlib
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import busemann as bu
from . import locus as lc
from . import transport as tr
from .manifold import (
    EUCLIDEAN,
    HYPERBOLIC,
    GeometryError,
    ModelSpace,
    Point,
    boundary_direction,
    boundary_finite,
    boundary_infinity,
)
from .numerics import TestFunction, fd_hessian, mc_integrate_box, unit_sphere_area

__all__ = ["CheckReport", "VerifyContext", "SUITES", "run_suite", "poincare_example_checks", "sweep_rows"]

PASS = "pass"
FAIL = "fail"
DISCREPANCY = "paper-discrepancy"


@dataclass
class CheckReport:
    """One verification record."""

    name: str
    statement: str
    quantities: dict
    expected: object
    provenance: str
    tolerance: float
    tol_kind: str = "abs"
    status: str = PASS
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status != FAIL

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
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return repr(obj)


def _verdict(err: float, tol: float) -> str:
    return PASS if err <= tol else FAIL


def _parse_boundary(model: ModelSpace, token) -> "object":
    """Boundary-point spec: "inf", a chart point of the z=0 boundary, or a
    direction vector (Euclidean)."""
    if isinstance(token, str):
        if token.lower() in ("inf", "infinity"):
            return boundary_infinity(model)
        raise GeometryError(f"unknown boundary token {token!r}")
    if model.is_hyperbolic:
        return boundary_finite(model, np.asarray(token, dtype=float))
    return boundary_direction(model, np.asarray(token, dtype=float))


@dataclass
class VerifyContext:
    """Resolved inputs shared by the checks of one run.

    ``boundary_pair``, ``basepoint_coords`` and the map endpoints ``p_coords``
    / ``q_coords`` default to the canonical configuration (pair at the origin
    and infinity, basepoint at unit height, target one unit below). The
    ``tolerances`` map overrides individual check tolerances by check name.
    """

    model: ModelSpace
    seed: int = 42
    samples: int = 150_000
    locus_nodes: int | None = None
    s_grid: tuple = (0.5, math.log(2.0), 2.0)
    t_grid: tuple = (-3.0, -1.0, 0.0, 1.0, 3.0)
    t0: float = 1.0
    probe_outside_image: bool = False
    boundary_pair: tuple | None = None
    basepoint_coords: tuple | None = None
    p_coords: tuple | None = None
    q_coords: tuple | None = None
    tolerances: dict = dc_field(default_factory=dict)
    basepoint: Point = dc_field(init=False)
    rng: np.random.Generator = dc_field(init=False)

    def __post_init__(self):
        if self.basepoint_coords is not None:
            self.basepoint = Point(self.model, np.asarray(self.basepoint_coords, dtype=float))
        else:
            coords = np.zeros(self.model.dim)
            if self.model.is_hyperbolic:
                coords[-1] = 1.0
            self.basepoint = Point(self.model, coords)
        self.rng = np.random.default_rng(self.seed)

    @property
    def h(self) -> float:
        return bu.mean_curvature_h(self.model)

    def tol(self, name: str, default: float) -> float:
        return float(self.tolerances.get(name, default))

    def field_pair(self) -> tuple[bu.BusemannField, bu.BusemannField]:
        m = self.model
        if self.boundary_pair is not None:
            xi1 = _parse_boundary(m, self.boundary_pair[0])
            xi2 = _parse_boundary(m, self.boundary_pair[1])
        elif m.is_hyperbolic:
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
        if self.p_coords is not None and self.q_coords is not None:
            return (Point(self.model, np.asarray(self.p_coords, dtype=float)),
                    Point(self.model, np.asarray(self.q_coords, dtype=float)))
        p = self.basepoint
        if self.model.is_hyperbolic:
            qc = np.array(p.coords, copy=True)
            qc[-1] *= math.exp(-self.t0)
        else:
            qc = np.array(p.coords, copy=True)
            qc[0] += self.t0
        return p, Point(self.model, qc)

    def random_points(self, count: int, spread: float = 0.8) -> np.ndarray:
        return self.model.random_points(self.rng, count, spread)


def _skipped(name: str, statement: str, reason: str) -> CheckReport:
    """Passing report of a check that does not apply to the model."""
    return CheckReport(name=name, statement=statement, quantities={"skipped": reason},
                       expected=None, provenance="exact", tolerance=0.0, status=PASS)


def _timed(fn):
    @functools.wraps(fn)
    def wrapper(ctx: VerifyContext) -> CheckReport:
        start = time.perf_counter()
        rep = fn(ctx)
        rep.wall_time_s = time.perf_counter() - start
        return rep

    return wrapper


# --------------------------------------------------------------------------
# busemann suite
# --------------------------------------------------------------------------


@_timed
def check_gradient_norm(ctx: VerifyContext) -> CheckReport:
    f1, f2 = ctx.field_pair()
    pts = ctx.random_points(200)
    worst = 0.0
    for f in (f1, f2):
        norms = ctx.model.norm(pts, f.grad_chart(pts))
        worst = max(worst, float(np.max(np.abs(norms - 1.0))))
    tol = ctx.tol("busemann-gradient-unit-norm", 1e-9)
    return CheckReport(
        name="busemann-gradient-unit-norm",
        statement="the Busemann gradient has unit Riemannian length everywhere",
        quantities={"max_norm_error": worst, "points": pts.shape[0]},
        expected=0.0, provenance="exact", tolerance=tol,
        status=_verdict(worst, tol),
    )


@_timed
def check_laplacian_constancy(ctx: VerifyContext) -> CheckReport:
    f1, _ = ctx.field_pair()
    mean, std = bu.estimate_h(f1, ctx.random_points(100))
    err = abs(mean - ctx.h)
    tol = ctx.tol("busemann-laplacian-constant", 1e-6)
    ok = err <= 1e-8 and std <= tol
    return CheckReport(
        name="busemann-laplacian-constant",
        statement="trace of the horosphere shape operator is the constant h",
        quantities={"mean": mean, "stddev": std, "h": ctx.h},
        expected=ctx.h, provenance="closed-form", tolerance=tol,
        status=PASS if ok else FAIL,
    )


@_timed
def check_hessian_bounds(ctx: VerifyContext) -> CheckReport:
    f1, f2 = ctx.field_pair()
    lo, hi = math.inf, -math.inf
    for c in ctx.random_points(50):
        for f in (f1, f2):
            ev = np.linalg.eigvalsh(f.hessian_matrix(c))
            lo = min(lo, float(ev[0]))
            hi = max(hi, float(ev[-1]))
    tol = ctx.tol("busemann-hessian-psd-and-bounded", 1e-9)
    ok = lo >= -tol and hi <= ctx.h + tol
    return CheckReport(
        name="busemann-hessian-psd-and-bounded",
        statement="shape-operator eigenvalues lie in [0, h]",
        quantities={"min_eigenvalue": lo, "max_eigenvalue": hi, "h": ctx.h},
        expected=f"[0, {ctx.h}]", provenance="closed-form", tolerance=tol,
        status=PASS if ok else FAIL,
    )


@_timed
def check_hessian_fd(ctx: VerifyContext) -> CheckReport:
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
    tol = ctx.tol("busemann-hessian-fd-crosscheck", 1e-6)
    return CheckReport(
        name="busemann-hessian-fd-crosscheck",
        statement="closed-form shape operator matches second derivatives of b along geodesics",
        quantities={"max_hessian_gap": worst, "directions": len(directions)},
        expected=0.0, provenance="cross-check", tolerance=tol,
        status=_verdict(worst, tol),
    )


@_timed
def check_truncation_monotone(ctx: VerifyContext) -> CheckReport:
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
        converged = worst_gap <= 1e-6  # exponential tail
    else:
        converged = worst_excess <= 1e-12  # algebraic tail, within its envelope
    ok = worst_increase <= 1e-12 and converged
    return CheckReport(
        name="busemann-truncation-monotone",
        statement="d(x, ray(T)) - T is non-increasing in T and converges to the Busemann value",
        quantities={"max_increase": worst_increase, "final_gap": worst_gap,
                    "envelope_excess": worst_excess if not ctx.model.is_hyperbolic else None},
        expected=0.0, provenance="exact", tolerance=1e-6,
        status=PASS if ok else FAIL,
    )


@_timed
def check_axis_gradient_cancellation(ctx: VerifyContext) -> CheckReport:
    if not ctx.model.is_hyperbolic:
        return _skipped("busemann-axis-gradient-cancellation",
                        "gradients of the opposite fields cancel on the bi-asymptotic geodesic",
                        "no bi-asymptotic geodesic in the Euclidean model")
    cfg = ctx.pair_config()
    worst = 0.0
    worst_beta = -1.0
    for z in (0.25, 0.5, 1.0, 2.0, 4.0):
        x = cfg.axis_point(z)
        gsum = cfg.f1.grad_chart(x.coords) + cfg.f2.grad_chart(x.coords)
        worst = max(worst, float(ctx.model.norm(x.coords, gsum)))
        worst_beta = max(worst_beta, float(bu.beta(cfg.f1, cfg.f2, x)))
    tol = ctx.tol("busemann-axis-gradient-cancellation", 1e-10)
    ok = worst <= tol and worst_beta <= -1.0 + 1e-9
    return CheckReport(
        name="busemann-axis-gradient-cancellation",
        statement="gradients of the pair cancel on the axis, where beta = -1",
        quantities={"max_gradient_sum_norm": worst, "max_beta_on_axis": worst_beta},
        expected=0.0, provenance="exact", tolerance=tol,
        status=PASS if ok else FAIL,
    )


@_timed
def check_visibility_probe(ctx: VerifyContext) -> CheckReport:
    f1, f2 = ctx.field_pair()
    rep = bu.sublevel_bounded_probe(f1, f2, 0.5, 0.5, rays=48, t_max=50.0,
                                    rng=np.random.default_rng(ctx.seed + 1))
    want_bounded = ctx.model.is_hyperbolic
    ok = rep.bounded == want_bounded
    return CheckReport(
        name="busemann-sublevel-boundedness",
        statement="two-horoball intersections are bounded exactly when the space is negatively curved",
        quantities={"bounded": rep.bounded, "rays": rep.rays_probed,
                    "max_exit_time": rep.max_exit_time if math.isfinite(rep.max_exit_time) else "inf"},
        expected=want_bounded, provenance="exact", tolerance=0.0,
        status=PASS if ok else FAIL,
    )


# --------------------------------------------------------------------------
# map-f suite
# --------------------------------------------------------------------------


@_timed
def check_alpha_residual(ctx: VerifyContext) -> CheckReport:
    a = tr.AlphaMap(ctx.h, ctx.t0) if ctx.h > 0 else tr.AlphaMap(0.0, ctx.t0)
    grid = np.linspace(-30.0, 30.0, 121)
    res = a.residual(grid)
    tol = ctx.tol("alpha-defining-equation", 1e-10)
    return CheckReport(
        name="alpha-defining-equation",
        statement="alpha'(t) e^{h(alpha(t)-t)} = 1 with the analytic derivative",
        quantities={"max_residual": res, "h": ctx.h, "t0": ctx.t0,
                    "range_infimum": a.range_infimum if ctx.h > 0 else "-inf"},
        expected=0.0, provenance="exact", tolerance=tol,
        status=_verdict(res, tol),
    )


@_timed
def check_alpha_gap_monotone(ctx: VerifyContext) -> CheckReport:
    a = tr.AlphaMap(ctx.h, ctx.t0)
    grid = np.linspace(-10.0, 10.0, 201)
    gaps = a.gap(grid)
    diffs = np.diff(gaps)
    if ctx.h > 0:
        ok = bool(np.all(diffs < 0))
        stmt = "alpha(t) - t is strictly decreasing (h > 0)"
    else:
        ok = bool(np.max(np.abs(gaps - ctx.t0)) <= 1e-12)
        stmt = "alpha(t) - t is the constant t0 (h = 0)"
    return CheckReport(
        name="alpha-gap-monotone",
        statement=stmt,
        quantities={"max_diff": float(np.max(diffs)), "min_diff": float(np.min(diffs))},
        expected="decreasing" if ctx.h > 0 else ctx.t0,
        provenance="closed-form", tolerance=0.0,
        status=PASS if ok else FAIL,
    )


@_timed
def check_map_endpoint(ctx: VerifyContext) -> CheckReport:
    p, q = ctx.map_endpoints()
    F = tr.VolumePreservingMap(ctx.model, p, q)
    gap = float(np.max(np.abs(F(p).coords - q.coords)))
    tol = ctx.tol("map-sends-p-to-q", 1e-10)
    return CheckReport(
        name="map-sends-p-to-q",
        statement="the volume-preserving map sends the chosen source point to the target",
        quantities={"chart_gap": gap, "t0": F.t0},
        expected=0.0, provenance="exact", tolerance=tol,
        status=_verdict(gap, tol),
    )


@_timed
def check_map_unit_jacobian(ctx: VerifyContext) -> CheckReport:
    p, q = ctx.map_endpoints()
    F = tr.VolumePreservingMap(ctx.model, p, q)
    worst = 0.0
    for c in ctx.random_points(100):
        worst = max(worst, abs(F.jacobian_det(c) - 1.0))
    tol = ctx.tol("map-unit-jacobian", 1e-7)
    return CheckReport(
        name="map-unit-jacobian",
        statement="the Riemannian Jacobian determinant of the map is 1 everywhere",
        quantities={"max_det_error": worst, "points": 100},
        expected=1.0, provenance="cross-check", tolerance=tol,
        status=_verdict(worst, tol),
    )


@_timed
def check_horosphere_expansion(ctx: VerifyContext) -> CheckReport:
    f1, _ = ctx.field_pair()
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        for c in ctx.random_points(20, spread=0.5):
            j = tr.horosphere_jacobian(f1, t, Point(ctx.model, c))
            worst = max(worst, abs(j / math.exp(ctx.h * t) - 1.0))
    tol = ctx.tol("horosphere-volume-expansion", 1e-6)
    return CheckReport(
        name="horosphere-volume-expansion",
        statement="the normal flow expands horosphere volume by exactly e^{h t}",
        quantities={"max_ratio_error": worst, "h": ctx.h},
        expected=1.0, provenance="closed-form", tolerance=tol, tol_kind="rel",
        status=_verdict(worst, tol),
    )


def _bump_levels(ctx: VerifyContext, F: tr.VolumePreservingMap, radius: float):
    if ctx.h > 0:
        m = F.image_threshold
        return [m + radius + off for off in (0.3, 0.6, 1.0, 1.5, 2.0)]
    return [-1.0, -0.5, 0.0, 0.5, 1.0]


def _pushforward_integral_pair(ctx: VerifyContext, F: tr.VolumePreservingMap,
                               bump: TestFunction, seed: int):
    model = ctx.model
    density = model.volume_density

    lo, hi = bump.support_chart_box()
    direct = mc_integrate_box(lambda pts: bump(pts) * density(pts), lo, hi,
                              ctx.samples, seed)

    # enclose the preimage of the support in a metric ball, then a chart box
    b_c = float(F.field.value(bump.center.coords))
    t_lo = F.alpha.inverse(b_c - bump.radius)
    delta_max = F.alpha.gap(t_lo)
    shell = TestFunction(bump.center, bump.radius + delta_max + 1e-9)
    plo, phi = shell.support_chart_box()
    pulled = mc_integrate_box(lambda pts: bump(F.apply_coords(pts)) * density(pts),
                              plo, phi, ctx.samples, seed + 1)
    return direct, pulled


@_timed
def check_map_integral_invariance(ctx: VerifyContext) -> CheckReport:
    p, q = ctx.map_endpoints()
    F = tr.VolumePreservingMap(ctx.model, p, q)
    flow = tr.NormalFlow(F.field)
    radius = 0.3
    worst_pull = 0.0
    rows = []
    for k, level in enumerate(_bump_levels(ctx, F, radius)):
        center = Point(ctx.model, flow(level, p.coords))
        bump = TestFunction(center, radius)
        direct, pulled = _pushforward_integral_pair(ctx, F, bump, ctx.seed + 10 * k)
        sigma = math.hypot(direct.standard_error, pulled.standard_error)
        pull = abs(direct.mean - pulled.mean) / sigma if sigma > 0 else math.inf
        worst_pull = max(worst_pull, pull)
        rows.append({"level": level, "direct": direct.mean, "pulled": pulled.mean,
                     "sigma": sigma, "pull": pull})
    tol = ctx.tol("map-integral-invariance", 3.0)
    return CheckReport(
        name="map-integral-invariance",
        statement="integrals of bumps supported in the image agree with their pullbacks",
        quantities={"bumps": rows, "worst_pull_sigmas": worst_pull},
        expected=0.0, provenance="cross-check", tolerance=tol, tol_kind="sigma",
        status=_verdict(worst_pull, tol),
    )


@_timed
def check_map_out_of_image(ctx: VerifyContext) -> CheckReport:
    """Documented deviation: the map is not onto, so mass below the image
    threshold is invisible to the pullback integral."""
    if ctx.h == 0:
        return _skipped("map-out-of-image-probe",
                        "h = 0 maps are translations (onto); no discrepancy to probe",
                        "the h = 0 map is onto")
    p, q = ctx.map_endpoints()
    F = tr.VolumePreservingMap(ctx.model, p, q)
    flow = tr.NormalFlow(F.field)
    radius = 0.3
    level = F.image_threshold - radius - 0.5
    center = Point(ctx.model, flow(level, p.coords))
    bump = TestFunction(center, radius)
    lo, hi = bump.support_chart_box()
    density = ctx.model.volume_density
    direct = mc_integrate_box(lambda pts: bump(pts) * density(pts), lo, hi, ctx.samples, ctx.seed + 77)
    pulled = mc_integrate_box(lambda pts: bump(F.apply_coords(pts)) * density(pts),
                              lo, hi, ctx.samples, ctx.seed + 78)
    ratio = pulled.mean / direct.mean if direct.mean > 0 else math.inf
    ok = ratio <= 0.01
    return CheckReport(
        name="map-out-of-image-probe",
        statement=("the integral identity fails for mass below the image threshold m: "
                   "the map is a diffeomorphism onto {b > m}, not onto the whole space"),
        quantities={"image_threshold": F.image_threshold, "bump_level": level,
                    "direct": direct.mean, "pulled": pulled.mean, "ratio": ratio},
        expected="pulled integral ~ 0", provenance="counterexample", tolerance=0.01,
        status=DISCREPANCY if ok else FAIL,
    )


# --------------------------------------------------------------------------
# flows suite
# --------------------------------------------------------------------------


def _tracking_errors(ctx, pf, sign2: float, count: int = 20, duration: float = 2.0):
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
    ends = tr.ode_integrate(pf.vector, starts, duration, step=1e-3)
    e1 = np.abs(pf.f1.value(ends) - pf.f1.value(starts) - duration / 2.0)
    e2 = np.abs(pf.f2.value(ends) - pf.f2.value(starts) - sign2 * duration / 2.0)
    return float(max(np.max(e1), np.max(e2)))


@_timed
def check_difference_flow_tracking(ctx: VerifyContext) -> CheckReport:
    f1, f2 = ctx.field_pair()
    pf = tr.PairFlow(f1, f2, tr.DIFFERENCE)
    worst = _tracking_errors(ctx, pf, sign2=-1.0)
    tol = ctx.tol("difference-flow-level-tracking", 1e-8)
    return CheckReport(
        name="difference-flow-level-tracking",
        statement="the difference flow raises b1 by t/2 and lowers b2 by t/2",
        quantities={"max_tracking_error": worst, "trajectories": 20, "duration": 2.0},
        expected=0.0, provenance="exact", tolerance=tol,
        status=_verdict(worst, tol),
    )


@_timed
def check_sum_flow_tracking(ctx: VerifyContext) -> CheckReport:
    if not ctx.model.is_hyperbolic:
        return _skipped("sum-flow-level-tracking", "sum-flow tracking is a visibility-model check",
                        "Euclidean pair has no axis constant")
    f1, f2 = ctx.field_pair()
    pf = tr.PairFlow(f1, f2, tr.SUM)
    worst = _tracking_errors(ctx, pf, sign2=+1.0)
    tol = ctx.tol("sum-flow-level-tracking", 1e-8)
    return CheckReport(
        name="sum-flow-level-tracking",
        statement="the sum flow raises both Busemann values by s/2",
        quantities={"max_tracking_error": worst, "trajectories": 20, "duration": 2.0},
        expected=0.0, provenance="exact", tolerance=tol,
        status=_verdict(worst, tol),
    )


def _off_axis_points(ctx: VerifyContext, cfg, count: int):
    pts = []
    while len(pts) < count:
        c = ctx.random_points(1, spread=0.8)[0]
        if cfg is None or cfg.separation(Point(ctx.model, c)) >= 0.1:
            pts.append(c)
    return pts


@_timed
def check_divergence_identities(ctx: VerifyContext) -> CheckReport:
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
    tol = ctx.tol("flow-divergence-identities", 1e-5)
    ok = worst_raw <= 1e-6 and worst_x <= tol and worst_y <= tol
    return CheckReport(
        name="flow-divergence-identities",
        statement=("the raw difference field is divergence free; the normalized flows "
                   "satisfy their logarithmic divergence identities"),
        quantities={"max_raw_divergence": worst_raw, "max_difference_gap": worst_x,
                    "max_sum_gap": worst_y, "points": 50},
        expected=0.0, provenance="cross-check", tolerance=tol,
        status=PASS if ok else FAIL,
    )


@_timed
def check_flow_densities(ctx: VerifyContext) -> CheckReport:
    if not ctx.model.is_hyperbolic:
        return _skipped("flow-volume-densities", "pair-flow densities are a visibility-model check",
                        "Euclidean pair has no axis constant")
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
    tol = ctx.tol("flow-volume-densities", 1e-5)
    ok = (gaps["difference_vs_one"] <= 1e-8 and gaps["difference_fd_gap"] <= tol
          and gaps["sum_fd_gap"] <= tol and gaps["sum_symbolic_gap"] <= 1e-6)
    return CheckReport(
        name="flow-volume-densities",
        statement=("flow-map volume densities match their closed forms: "
                   "(1-beta)/(1-beta(end)) for the difference flow, the exponential "
                   "expansion times (1+beta)/(1+beta(end)) for the sum flow"),
        quantities={**gaps, "sum_density": dens_y, "sum_symbolic": exact_y},
        expected=0.0, provenance="cross-check", tolerance=tol,
        status=PASS if ok else FAIL,
    )


@_timed
def check_gradient_transport(ctx: VerifyContext) -> CheckReport:
    f1, f2 = ctx.field_pair()
    pf_x = tr.PairFlow(f1, f2, tr.DIFFERENCE)
    cfg = lc.make_pair_config(f1, f2) if ctx.model.is_hyperbolic else None
    c = _off_axis_points(ctx, cfg, 1)[0]
    x = Point(ctx.model, c)
    push_x = tr.gradient_pushforward_gap(pf_x, x, 0.8)
    form_x = tr.form_pullback_gap(pf_x, x, 0.8)
    quantities = {"difference_gradient_gap": push_x, "difference_form_gap": form_x}
    tol = ctx.tol("flow-gradient-transport", 1e-6)
    ok = push_x <= tol and form_x <= tol
    if ctx.model.is_hyperbolic:
        pf_y = tr.PairFlow(f1, f2, tr.SUM)
        form_y = tr.form_pullback_gap(pf_y, x, 0.8)
        quantities["sum_form_gap"] = form_y
        ok = ok and form_y <= tol
    return CheckReport(
        name="flow-gradient-transport",
        statement=("the difference flow carries both gradient fields to themselves; "
                   "both flows pull the level 1-forms back to themselves"),
        quantities=quantities,
        expected=0.0, provenance="cross-check", tolerance=tol,
        status=PASS if ok else FAIL,
    )


@_timed
def check_axis_floor(ctx: VerifyContext) -> CheckReport:
    if not ctx.model.is_hyperbolic:
        return _skipped("pair-sum-floor",
                        "b1 + b2 is unbounded below in the Euclidean model (no floor)",
                        "Euclidean pair has no axis constant")
    cfg = ctx.pair_config()
    pts = ctx.random_points(4000, spread=1.5)
    vals = cfg.f1.value(pts) + cfg.f2.value(pts) - cfg.c0
    floor = float(np.min(vals))
    tol = ctx.tol("pair-sum-floor", 1e-9)
    ok = floor >= -tol
    return CheckReport(
        name="pair-sum-floor",
        statement="b1 + b2 never drops below its axis value c0",
        quantities={"min_separation": floor, "c0": cfg.c0, "points": pts.shape[0]},
        expected=0.0, provenance="exact", tolerance=tol,
        status=PASS if ok else FAIL,
    )


@_timed
def check_beta_monotone_along_sum_flow(ctx: VerifyContext) -> CheckReport:
    if not ctx.model.is_hyperbolic:
        return _skipped("beta-monotone-along-sum-flow",
                        "sum-flow monotonicity is a visibility-model check",
                        "Euclidean pair has no axis constant")
    cfg = ctx.pair_config()
    pf_y = tr.PairFlow(cfg.f1, cfg.f2, tr.SUM)
    worst = math.inf
    eps_rows = []
    for eps in (1e-3, 1e-4, 1e-5, 1e-6):
        start = cfg.point_on_locus(eps, 0.0)
        b_start = float(bu.beta(cfg.f1, cfg.f2, start))
        eps_rows.append({"epsilon": eps, "beta_at_start": b_start, "gap_to_minus_one": b_start + 1.0})
    start = cfg.point_on_locus(0.2, 0.3)
    ts, states = tr.pair_flow_trajectory(pf_y, start, 1.5)
    bs = np.asarray(bu.beta(cfg.f1, cfg.f2, states))
    worst = float(np.min(np.diff(bs)))
    ok = worst >= -1e-12 and all(row["gap_to_minus_one"] <= 3.0 * row["epsilon"] for row in eps_rows)
    return CheckReport(
        name="beta-monotone-along-sum-flow",
        statement=("beta is non-decreasing along sum-flow trajectories; starts regularized "
                   "at separation epsilon approach beta = -1 linearly in epsilon"),
        quantities={"min_beta_increment": worst, "regularized_starts": eps_rows},
        expected=">= 0", provenance="exact", tolerance=0.0,
        status=PASS if ok else FAIL,
    )


# --------------------------------------------------------------------------
# intersections suite
# --------------------------------------------------------------------------


LOCUS_SKIP = "intersection loci require the visibility model"


def _closed_form_vw(ctx: VerifyContext, s: float) -> tuple[float, float, float]:
    n = ctx.model.dim
    area = unit_sphere_area(n - 2)
    e = math.exp(s) - 1.0
    return (area * e ** ((n - 3) / 2.0), area * e ** ((n - 1) / 2.0), area * e ** ((n - 2) / 2.0))


@_timed
def check_locus_membership(ctx: VerifyContext) -> CheckReport:
    if not ctx.model.is_hyperbolic:
        return _skipped("locus-membership", "locus nodes solve both level equations", LOCUS_SKIP)
    cfg = ctx.pair_config()
    worst = 0.0
    for s in ctx.s_grid:
        for t in ctx.t_grid:
            L = lc.parametrize_locus(cfg, s, t, nodes=ctx.locus_nodes)
            worst = max(worst, L.membership_residual())
    tol = ctx.tol("locus-membership", 1e-10)
    return CheckReport(
        name="locus-membership",
        statement="every quadrature node satisfies both horosphere level equations",
        quantities={"max_residual": worst},
        expected=0.0, provenance="exact", tolerance=tol,
        status=_verdict(worst, tol),
    )


@_timed
def check_vw_t_invariance(ctx: VerifyContext) -> CheckReport:
    if not ctx.model.is_hyperbolic:
        return _skipped("weighted-integrals-t-invariance",
                        "V and W do not depend on the level difference", LOCUS_SKIP)
    cfg = ctx.pair_config()
    worst_spread = 0.0
    worst_closed = 0.0
    rows = []
    for s in ctx.s_grid:
        vs, ws = [], []
        for t in ctx.t_grid:
            L = lc.parametrize_locus(cfg, s, t, nodes=ctx.locus_nodes)
            vs.append(lc.integral_v(L))
            ws.append(lc.integral_w(L))
        v_exp, w_exp, _ = _closed_form_vw(ctx, s)
        spread_v = (max(vs) - min(vs)) / abs(v_exp)
        spread_w = (max(ws) - min(ws)) / abs(w_exp)
        worst_spread = max(worst_spread, spread_v, spread_w)
        worst_closed = max(worst_closed, abs(vs[0] / v_exp - 1.0), abs(ws[0] / w_exp - 1.0))
        rows.append({"s": s, "V": vs[0], "W": ws[0], "V_expected": v_exp, "W_expected": w_exp,
                     "spread_V": spread_v, "spread_W": spread_w})
    tol = ctx.tol("weighted-integrals-t-invariance", 1e-8)
    ok = worst_spread <= tol and worst_closed <= tol
    return CheckReport(
        name="weighted-integrals-t-invariance",
        statement="V and W are independent of the level difference and match their closed forms",
        quantities={"rows": rows, "worst_relative_spread": worst_spread,
                    "worst_closed_form_gap": worst_closed},
        expected="constant in t", provenance="closed-form", tolerance=tol, tol_kind="rel",
        status=PASS if ok else FAIL,
    )


@_timed
def check_dw_ds(ctx: VerifyContext) -> CheckReport:
    if not ctx.model.is_hyperbolic:
        return _skipped("w-growth-rate", "dW/ds equals (h/2)(W+V)", LOCUS_SKIP)
    cfg = ctx.pair_config()
    worst = 0.0
    rows = []
    for s in (0.5, 1.0, 2.0):
        lhs, rhs = lc.dw_ds_check(cfg, s, 0.4, nodes=ctx.locus_nodes)
        rel = abs(lhs - rhs) / abs(rhs)
        worst = max(worst, rel)
        rows.append({"s": s, "lhs": lhs, "rhs": rhs, "relative_gap": rel})
    tol = ctx.tol("w-growth-rate", 1e-4)
    return CheckReport(
        name="w-growth-rate",
        statement="the s-derivative of W equals (h/2)(W + V)",
        quantities={"rows": rows, "worst_relative_gap": worst},
        expected=0.0, provenance="cross-check", tolerance=tol, tol_kind="rel",
        status=_verdict(worst, tol),
    )


@_timed
def check_volume_bound(ctx: VerifyContext) -> CheckReport:
    if not ctx.model.is_hyperbolic:
        return _skipped("locus-volume-bound", "vol <= (V+W)/2 with t-invariant bound", LOCUS_SKIP)
    cfg = ctx.pair_config()
    s_vals = np.concatenate([[math.log(2.0)], np.linspace(0.2, 2.6, 9)])
    t_vals = np.linspace(-3.0, 3.0, 10)
    worst_violation = -math.inf
    equality_gap = math.inf
    bound_spread = 0.0
    for s in s_vals:
        bounds_this_s = []
        for t in t_vals:
            vol, bound = lc.volume_upper_bound(cfg, float(s), float(t), nodes=ctx.locus_nodes)
            worst_violation = max(worst_violation, vol - bound)
            bounds_this_s.append(bound)
            if abs(s - math.log(2.0)) < 1e-12:
                equality_gap = min(equality_gap, abs(vol - bound))
        bound_spread = max(bound_spread, (max(bounds_this_s) - min(bounds_this_s)) / abs(bounds_this_s[0]))
    tol = ctx.tol("locus-volume-bound", 1e-9)
    ok = worst_violation <= tol and equality_gap <= 1e-8 and bound_spread <= 1e-8
    return CheckReport(
        name="locus-volume-bound",
        statement=("the locus volume never exceeds (V+W)/2; the bound is level-difference "
                   "invariant and is attained at s = ln 2 in H^3"),
        quantities={"worst_violation": worst_violation, "equality_gap_at_ln2": equality_gap,
                    "bound_relative_spread": bound_spread, "grid": [len(s_vals), len(t_vals)]},
        expected="vol <= bound", provenance="closed-form", tolerance=tol,
        status=PASS if ok else FAIL,
    )


@_timed
def check_beta_bound_and_monotone_volume(ctx: VerifyContext) -> CheckReport:
    if not ctx.model.is_hyperbolic:
        return _skipped("locus-beta-bound", "beta <= 1 - 2 e^{-h s} and volume grows in s", LOCUS_SKIP)
    cfg = ctx.pair_config()
    ok_beta = True
    margins = []
    for s in (0.1, 0.5, 1.0, 2.0, 3.0):
        L = lc.parametrize_locus(cfg, s, 0.7, nodes=ctx.locus_nodes)
        ok_beta = ok_beta and lc.beta_bound_check(L)
        margins.append({"s": s, "max_beta": float(np.max(L.beta_values())),
                        "bound": 1.0 - 2.0 * math.exp(-ctx.h * s)})
    grid = np.linspace(0.3, 2.7, 9)
    vols = [lc.volume_locus(lc.parametrize_locus(cfg, float(s), 0.0, nodes=ctx.locus_nodes)) for s in grid]
    if ctx.model.dim == 2:
        # point-pair loci have constant counting volume 2
        monotone = bool(np.all(np.diff(vols) >= -1e-12))
    else:
        monotone = bool(np.all(np.diff(vols) > 0))
    # hypothesis of the t-invariance theorem: gradients never cancel on the locus
    hyp = all(row["max_beta"] < 1.0 - 1e-12 for row in margins) and all(
        -1.0 + 1e-12 < row["max_beta"] for row in margins)
    ok = ok_beta and monotone and hyp
    return CheckReport(
        name="locus-beta-bound",
        statement=("beta on the locus stays below 1 - 2 e^{-h s}, the gradients never cancel "
                   "there, and the locus volume is non-decreasing in s"),
        quantities={"margins": margins, "volumes": vols, "monotone": monotone},
        expected="beta <= bound", provenance="closed-form", tolerance=1e-9,
        status=PASS if ok else FAIL,
    )


@_timed
def check_isometry_invariance(ctx: VerifyContext) -> CheckReport:
    if not ctx.model.is_hyperbolic:
        return _skipped("locus-isometry-invariance",
                        "normalized and general-coordinates quadrature agree", LOCUS_SKIP)
    m = ctx.model
    if m.dim == 2:
        xi1, xi2 = boundary_finite(m, [1.0]), boundary_finite(m, [-1.0])
    else:
        a = np.zeros(m.dim - 1)
        b = np.zeros(m.dim - 1)
        a[0], b[0] = 1.0, -1.0
        xi1, xi2 = boundary_finite(m, a), boundary_finite(m, b)
    f1 = bu.BusemannField(m, xi1, ctx.basepoint)
    f2 = bu.BusemannField(m, xi2, ctx.basepoint)
    cfg = lc.make_pair_config(f1, f2)
    nodes = ctx.locus_nodes or (128 if m.dim == 3 else 24)
    L = lc.parametrize_locus(cfg, 1.3, 0.7, nodes=nodes)
    worst = max(
        abs(lc.volume_locus(L) - lc.volume_locus(L, "general")),
        abs(lc.integral_v(L) - lc.integral_v(L, "general")),
        abs(lc.integral_w(L) - lc.integral_w(L, "general")),
    )
    tol = ctx.tol("locus-isometry-invariance", 1e-8)
    return CheckReport(
        name="locus-isometry-invariance",
        statement=("quadrature in normalized coordinates equals the general-coordinates "
                   "quadrature built from finite-difference tangent frames"),
        quantities={"max_gap": worst, "nodes": nodes},
        expected=0.0, provenance="cross-check", tolerance=tol,
        status=_verdict(worst, tol),
    )


@_timed
def check_strip_volume(ctx: VerifyContext) -> CheckReport:
    if not ctx.model.is_hyperbolic:
        return _skipped("strip-volume", "slab intersections have level-difference invariant volume", LOCUS_SKIP)
    cfg = ctx.pair_config()
    c1 = c2 = 0.5 * (math.log(2.0) + cfg.c0)
    r = 0.5
    quad = lc.strip_volume(cfg, c1, c2, r, locus_nodes=ctx.locus_nodes)
    mc = lc.strip_volume_mc(cfg, c1, c2, r, n_samples=2 * ctx.samples, seed=ctx.seed + 5)
    pull = abs(mc.mean - quad) / mc.standard_error
    shifted = lc.strip_volume(cfg, c1 + 1.0, c2 - 1.0, r, locus_nodes=ctx.locus_nodes)
    shift_gap = abs(shifted - quad) / quad
    tol = ctx.tol("strip-volume", 3.0)
    ok = pull <= tol and shift_gap <= 1e-8
    return CheckReport(
        name="strip-volume",
        statement=("the volume of a two-sided horosphere slab matches its sliced quadrature "
                   "and is invariant under shifting the level difference"),
        quantities={"quadrature": quad, "mc_mean": mc.mean, "mc_se": mc.standard_error,
                    "pull_sigmas": pull, "shift_relative_gap": shift_gap},
        expected=0.0, provenance="cross-check", tolerance=tol, tol_kind="sigma",
        status=PASS if ok else FAIL,
    )


# --------------------------------------------------------------------------
# coarea suite
# --------------------------------------------------------------------------


@_timed
def check_coarea_identity(ctx: VerifyContext) -> CheckReport:
    m = ctx.model
    if m.is_hyperbolic:
        field = bu.BusemannField(m, boundary_infinity(m), ctx.basepoint)
    else:
        u = np.zeros(m.dim)
        u[0] = 1.0
        field = bu.BusemannField(m, boundary_direction(m, u), ctx.basepoint)
    bump = TestFunction(ctx.basepoint, 0.5)
    sliced = bu.coarea_slice_integral(bump, field, t_nodes=64, x_nodes=48)
    lo, hi = bump.support_chart_box()
    mc = mc_integrate_box(lambda pts: bump(pts) * m.volume_density(pts), lo, hi,
                          2 * ctx.samples, ctx.seed + 21)
    pull = abs(mc.mean - sliced) / mc.standard_error
    quantities = {"sliced": sliced, "mc_mean": mc.mean, "mc_se": mc.standard_error, "pull_sigmas": pull}
    tol = ctx.tol("coarea-slicing", 3.0)
    ok = pull <= tol
    if not m.is_hyperbolic:
        exact = bump.exact_euclidean_integral()
        quantities["exact"] = exact
        quantities["sliced_vs_exact"] = abs(sliced - exact)
        ok = ok and abs(sliced - exact) <= 1e-6
    return CheckReport(
        name="coarea-slicing",
        statement=("integrating a bump by Busemann-level slices (unit gradient makes the "
                   "coarea weight 1) agrees with direct Monte Carlo"),
        quantities=quantities,
        expected=0.0, provenance="cross-check", tolerance=tol, tol_kind="sigma",
        status=PASS if ok else FAIL,
    )


@_timed
def check_mc_error_scaling(ctx: VerifyContext) -> CheckReport:
    m = ctx.model
    bump = TestFunction(ctx.basepoint, 0.5)
    lo, hi = bump.support_chart_box()

    def integrand(pts):
        return bump(pts) * m.volume_density(pts)

    n = ctx.samples
    e1 = mc_integrate_box(integrand, lo, hi, n, ctx.seed + 31)
    e2 = mc_integrate_box(integrand, lo, hi, 2 * n, ctx.seed + 31)
    ratio = e1.standard_error / e2.standard_error
    gap = abs(ratio - math.sqrt(2.0))
    e1_again = mc_integrate_box(integrand, lo, hi, n, ctx.seed + 31)
    reproducible = e1.mean == e1_again.mean and e1.standard_error == e1_again.standard_error
    ok = gap <= 0.2 * math.sqrt(2.0) and reproducible
    return CheckReport(
        name="mc-error-scaling",
        statement=("doubling the sample count shrinks the standard error by sqrt(2); "
                   "a fixed seed reproduces the estimate bit for bit"),
        quantities={"se_ratio": ratio, "expected_ratio": math.sqrt(2.0),
                    "reproducible": reproducible},
        expected=math.sqrt(2.0), provenance="exact", tolerance=0.2, tol_kind="rel",
        status=PASS if ok else FAIL,
    )


# --------------------------------------------------------------------------
# the worked half-space example
# --------------------------------------------------------------------------


def poincare_example_checks() -> list[CheckReport]:
    """Reproduce the worked upper half-space example: two horospheres through
    (0,0,2) from opposite unit directions at (0,0,1) intersect in the circle
    {x = 0, y^2 + (z - 5/4)^2 = 9/16} of length 3 pi / 2 < 3 pi."""
    start = time.perf_counter()
    m = ModelSpace(HYPERBOLIC, 3)
    base = Point(m, [0.0, 0.0, 1.0])
    f1 = bu.BusemannField(m, boundary_finite(m, [1.0, 0.0]), base)
    f2 = bu.BusemannField(m, boundary_finite(m, [-1.0, 0.0]), base)
    through = Point(m, [0.0, 0.0, 2.0])
    c1 = bu.busemann_value(f1, through)
    c2 = bu.busemann_value(f2, through)

    kind1, center1, radius1 = bu.horosphere_sphere(f1, c1)
    sphere_gap = max(
        float(np.max(np.abs(center1 - np.array([1.0, 0.0, 1.25])))),
        abs(radius1 - 1.25),
    )
    rep_levels = CheckReport(
        name="example-horosphere-spheres",
        statement="both horospheres through (0,0,2) are chart spheres of radius 5/4 tangent at (+-1, 0)",
        quantities={"c1": c1, "c2": c2, "level_expected": math.log(1.25),
                    "sphere_gap": sphere_gap, "kind": kind1},
        expected=math.log(1.25), provenance="closed-form", tolerance=1e-12,
        status=_verdict(max(sphere_gap, abs(c1 - math.log(1.25)), abs(c2 - math.log(1.25))), 1e-12),
        wall_time_s=time.perf_counter() - start,
    )

    start = time.perf_counter()
    cfg = lc.make_pair_config(f1, f2)
    s = c1 + c2 - cfg.c0
    L = lc.parametrize_locus(cfg, s, c1 - c2)
    pts = L.points()
    circle_residual = max(
        float(np.max(np.abs(pts[:, 0]))),
        float(np.max(np.abs(pts[:, 1] ** 2 + (pts[:, 2] - 1.25) ** 2 - 9.0 / 16.0))),
    )
    rep_circle = CheckReport(
        name="example-intersection-circle",
        statement="the horosphere intersection is the circle {x = 0, y^2 + (z - 5/4)^2 = 9/16}",
        quantities={"circle_residual": circle_residual, "s": s},
        expected=0.0, provenance="closed-form", tolerance=1e-10,
        status=_verdict(circle_residual, 1e-10),
        wall_time_s=time.perf_counter() - start,
    )

    start = time.perf_counter()
    length = lc.volume_locus(L)
    exact = 1.5 * math.pi
    # the same number as the circle's own line integral, on its chart parametrization
    theta = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
    param_length = float(np.mean(3.0 / (3.0 * np.sin(theta) + 5.0)) * 2.0 * math.pi)
    gap = max(abs(length - exact), abs(param_length - exact))
    below_bound = length < 3.0 * math.pi
    rep_length = CheckReport(
        name="example-circle-length",
        statement="the intersection circle has hyperbolic length 3 pi / 2, below the stated 3 pi bound",
        quantities={"length": length, "parametrized_length": param_length,
                    "exact": exact, "below_3pi": below_bound},
        expected=exact, provenance="closed-form", tolerance=1e-9,
        status=PASS if (gap <= 1e-9 and below_bound) else FAIL,
        wall_time_s=time.perf_counter() - start,
    )
    return [rep_levels, rep_circle, rep_length]


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

SWEEP_COLUMNS = ("s", "t", "vol", "V", "W", "bound", "beta_max")


def sweep_rows(cfg: lc.PairConfig, s_grid, t_grid, nodes: int | None = None):
    """Grid evaluation of the locus quantities, one row per (s, t) cell."""
    rows = []
    for s in s_grid:
        for t in t_grid:
            L = lc.parametrize_locus(cfg, float(s), float(t), nodes=nodes)
            v = lc.integral_v(L)
            w = lc.integral_w(L)
            rows.append({
                "s": float(s),
                "t": float(t),
                "vol": lc.volume_locus(L),
                "V": v,
                "W": w,
                "bound": 0.5 * (v + w),
                "beta_max": float(np.max(L.beta_values())) if not L.degenerate else -1.0,
            })
    return rows


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


def _isolated_context(ctx: VerifyContext, check) -> VerifyContext:
    """Per-check context clone with a generator keyed by the check's name, so
    a check reports the same numbers in every suite that runs it."""
    clone = copy.copy(ctx)
    clone.rng = np.random.default_rng([ctx.seed, zlib.crc32(check.__name__.encode())])
    return clone


def run_suite(suite: str, ctx: VerifyContext) -> list[CheckReport]:
    """Run every check of a suite in declaration order."""
    if suite not in SUITES:
        raise GeometryError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    checks = list(SUITES[suite])
    if suite == "map-f" and ctx.probe_outside_image:
        checks.append(check_map_out_of_image)
    return [fn(_isolated_context(ctx, fn)) for fn in checks]

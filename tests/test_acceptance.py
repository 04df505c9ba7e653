"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints a single PASS line (visible under ``pytest -s`` or in the
captured output of a failure) after asserting the criterion at its stated
tolerance. Everything here runs against fixed seeds, so results are exact
reruns.
"""

import math

import numpy as np
import pytest

from horoflow.busemann import (
    BusemannField,
    busemann_value,
    estimate_h,
    mean_curvature_h,
)
from horoflow.locus import (
    dw_ds_check,
    locus_values,
    make_pair_config,
    parametrize_locus,
    strip_volume,
    strip_volume_sliced,
)
from horoflow.manifold import (
    EUCLIDEAN,
    HYPERBOLIC,
    ModelSpace,
    Point,
    boundary_direction,
    boundary_finite,
    boundary_infinity,
)
from horoflow.transport import (
    DIFFERENCE,
    SUM,
    PairFlow,
    VolumePreservingMap,
    div_identity,
    divergence_fd,
    horosphere_jacobian,
    ode_integrate,
)
from horoflow.verify import (
    DISCREPANCY,
    VerifyContext,
    check_map_integral_invariance,
    check_map_out_of_image,
)

H2 = ModelSpace(HYPERBOLIC, 2)
H3 = ModelSpace(HYPERBOLIC, 3)
E3 = ModelSpace(EUCLIDEAN, 3)
ALL_MODELS = (H2, H3, E3)


def _passed(num: int, message: str) -> None:
    print(f"PASS criterion {num}: {message}")


def _basepoint(model: ModelSpace) -> Point:
    coords = np.zeros(model.dim)
    if model.is_hyperbolic:
        coords[-1] = 1.0
    return Point(model, coords)


def _model_pair(model: ModelSpace):
    base = _basepoint(model)
    if model.is_hyperbolic:
        f1 = BusemannField(model, boundary_finite(model, np.zeros(model.dim - 1)), base)
        f2 = BusemannField(model, boundary_infinity(model), base)
    else:
        u1, u2 = np.zeros(model.dim), np.zeros(model.dim)
        u1[0], u2[1] = 1.0, 1.0
        f1 = BusemannField(model, boundary_direction(model, u1), base)
        f2 = BusemannField(model, boundary_direction(model, u2), base)
    return f1, f2


@pytest.fixture(scope="module")
def cfg_h3():
    return make_pair_config(*_model_pair(H3))


def test_criterion_1_worked_example_reproduction():
    base = _basepoint(H3)
    f1 = BusemannField(H3, boundary_finite(H3, [1.0, 0.0]), base)
    f2 = BusemannField(H3, boundary_finite(H3, [-1.0, 0.0]), base)
    through = Point(H3, [0.0, 0.0, 2.0])
    c1, c2 = busemann_value(f1, through), busemann_value(f2, through)
    cfg = make_pair_config(f1, f2)
    locus = parametrize_locus(cfg, c1 + c2 - cfg.c0, c1 - c2)
    pts = locus.points()
    residual = max(
        float(np.max(np.abs(pts[:, 0]))),
        float(np.max(np.abs(pts[:, 1] ** 2 + (pts[:, 2] - 1.25) ** 2 - 9.0 / 16.0))),
    )
    assert residual <= 1e-10
    length = locus_values(cfg, locus.s, locus.t).vol
    assert length == pytest.approx(1.5 * math.pi, abs=1e-9)
    assert length < 3.0 * math.pi
    _passed(1, f"circle residual {residual:.2e}, length 3*pi/2 within 1e-9, below 3*pi")


def test_criterion_2_horosphere_volume_expansion():
    worst = 0.0
    for model in ALL_MODELS:
        f1, _ = _model_pair(model)
        h = mean_curvature_h(model)
        rng = np.random.default_rng(101)
        pts = model.random_points(rng, 20, 0.5)
        for t in (0.5, 1.0, 2.0):
            for c in pts:
                ratio = horosphere_jacobian(f1, t, Point(model, c)) / math.exp(h * t)
                worst = max(worst, abs(ratio - 1.0))
    assert worst <= 1e-6
    _passed(2, f"normal-flow volume ratio within {worst:.2e} of e^(h t) in H2, H3, E3")


def _map_endpoints(model: ModelSpace):
    p = _basepoint(model)
    q_coords = np.array(p.coords, copy=True)
    if model.is_hyperbolic:
        q_coords[-1] *= math.exp(-1.0)
    else:
        q_coords[0] += 1.0
    return p, Point(model, q_coords)


def test_criterion_3_volume_preserving_map():
    worst_det = 0.0
    for model in ALL_MODELS:
        F = VolumePreservingMap(model, *_map_endpoints(model))
        rng = np.random.default_rng(202)
        for c in model.random_points(rng, 100, 0.8):
            worst_det = max(worst_det, abs(F.jacobian_det(c) - 1.0))
    assert worst_det <= 1e-7

    worst_gap = 0.0
    for model in ALL_MODELS:
        rep = check_map_integral_invariance(VerifyContext(model=model, seed=42))
        assert rep.status == "pass", rep.quantities
        worst_gap = max(worst_gap, rep.quantities["worst_relative_gap"])
    assert worst_gap <= 1e-10

    probe = check_map_out_of_image(VerifyContext(model=H2, seed=42))
    assert probe.status == DISCREPANCY
    assert probe.quantities["pulled"] == probe.quantities["ratio"] == 0.0
    _passed(3, f"det dF within {worst_det:.2e} of 1; integrals agree within "
               f"{worst_gap:.2e} relative; out-of-image mass ratio {probe.quantities['ratio']:.3f}")


@pytest.mark.parametrize("dim", [6, 7, 8])
def test_map_integral_invariance_in_high_flat_dimensions(dim):
    # the pulled integral slices the preimage of the bump's support, which F
    # translates by t0
    rep = check_map_integral_invariance(VerifyContext(model=ModelSpace(EUCLIDEAN, dim)))
    assert rep.status == "pass", rep.quantities


def test_criterion_4_weighted_integrals(cfg_h3):
    worst_spread = 0.0
    worst_value = 0.0
    for s in (0.5, math.log(2.0), 2.0):
        vs, ws = [], []
        for t in (-3.0, -1.0, 0.0, 1.0, 3.0):
            vals = locus_values(cfg_h3, s, t)
            vs.append(vals.V)
            ws.append(vals.W)
        v_exact = 2.0 * math.pi
        w_exact = 2.0 * math.pi * (math.exp(s) - 1.0)
        worst_spread = max(worst_spread, (max(vs) - min(vs)) / v_exact,
                           (max(ws) - min(ws)) / w_exact)
        worst_value = max(worst_value, abs(vs[0] / v_exact - 1.0), abs(ws[0] / w_exact - 1.0))
    assert worst_spread <= 1e-8
    assert worst_value <= 1e-8
    _passed(4, f"V, W spread over t {worst_spread:.2e}; closed-form gap {worst_value:.2e}")


def test_criterion_5_w_growth_rate(cfg_h3):
    worst = 0.0
    for s in (0.5, 1.0, 2.0):
        lhs, rhs = dw_ds_check(cfg_h3, s, 0.4)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    assert worst <= 1e-4
    _passed(5, f"dW/ds matches (h/2)(W+V) within relative {worst:.2e}")


def test_criterion_6_volume_bound(cfg_h3):
    s_grid = np.concatenate([[math.log(2.0)], np.linspace(0.2, 2.6, 9)])
    t_grid = np.linspace(-3.0, 3.0, 10)
    worst_violation = -math.inf
    equality_gap = math.inf
    for s in s_grid:
        for t in t_grid:
            vals = locus_values(cfg_h3, float(s), float(t))
            vol, bound = vals.vol, vals.bound
            worst_violation = max(worst_violation, vol - bound)
            if s == math.log(2.0):
                equality_gap = min(equality_gap, abs(vol - bound))
    assert worst_violation <= 1e-9
    assert equality_gap <= 1e-8
    _passed(6, f"vol <= (V+W)/2 on the 10x10 grid (worst slack {-worst_violation:.2e}); "
               f"equality at s = ln 2 within {equality_gap:.2e}")


def test_criterion_7_beta_bound_and_monotone_volume(cfg_h3):
    h = mean_curvature_h(H3)
    s_grid = np.linspace(0.3, 2.7, 9)
    for s in s_grid:
        L = parametrize_locus(cfg_h3, float(s), 0.7)
        assert float(np.max(L.beta_values())) <= 1.0 - 2.0 * math.exp(-h * s) + 1e-9
    vols = [locus_values(cfg_h3, float(s), 0.0).vol for s in s_grid]
    assert all(b > a for a, b in zip(vols, vols[1:]))
    _passed(7, "beta bounded by 1 - 2 e^(-h s) on every locus; volume strictly increasing in s")


def test_criterion_8_flow_level_tracking(cfg_h3):
    f1, f2 = cfg_h3.f1, cfg_h3.f2
    rng = np.random.default_rng(303)
    starts = []
    while len(starts) < 20:
        c = H3.random_points(rng, 1, 0.8)[0]
        if cfg_h3.separation(Point(H3, c)) >= 0.05:
            starts.append(c)
    starts = np.array(starts)
    duration = 2.0
    worst = 0.0
    for kind, sign2 in ((DIFFERENCE, -1.0), (SUM, +1.0)):
        pf = PairFlow(f1, f2, kind)
        ends = ode_integrate(pf.vector, starts, duration)
        e1 = np.abs(f1.value(ends) - f1.value(starts) - duration / 2.0)
        e2 = np.abs(f2.value(ends) - f2.value(starts) - sign2 * duration / 2.0)
        worst = max(worst, float(np.max(e1)), float(np.max(e2)))
    assert worst <= 1e-8
    _passed(8, f"all four level-tracking identities within {worst:.2e} over 20 trajectories")


def test_criterion_9_divergence_identities(cfg_h3):
    f1, f2 = cfg_h3.f1, cfg_h3.f2
    pf_x = PairFlow(f1, f2, DIFFERENCE)
    pf_y = PairFlow(f1, f2, SUM)
    rng = np.random.default_rng(404)
    worst_raw, worst_x, worst_y = 0.0, 0.0, 0.0
    kept = 0
    while kept < 50:
        c = H3.random_points(rng, 1, 0.8)[0]
        x = Point(H3, c)
        if cfg_h3.separation(x) < 0.1:
            continue
        kept += 1
        raw = divergence_fd(H3, lambda y: f1.grad_chart(y) - f2.grad_chart(y), x)
        worst_raw = max(worst_raw, abs(raw))
        lx, rx = div_identity(pf_x, x)
        worst_x = max(worst_x, abs(lx - rx))
        ly, ry = div_identity(pf_y, x)
        worst_y = max(worst_y, abs(ly - ry))
    assert worst_raw <= 1e-6
    assert worst_x <= 1e-5 and worst_y <= 1e-5
    _passed(9, f"raw divergence {worst_raw:.2e}; identity gaps {worst_x:.2e} (difference), "
               f"{worst_y:.2e} (sum) at 50 points off the axis")


def test_criterion_10_asymptotic_harmonicity():
    rng = np.random.default_rng(505)
    worst_std = 0.0
    for model in (H2, H3, ModelSpace(HYPERBOLIC, 5), E3, ModelSpace(EUCLIDEAN, 5)):
        f1, _ = _model_pair(model)
        h = mean_curvature_h(model)
        pts = model.random_points(rng, 60, 1.0)
        mean, std = estimate_h(f1, pts)
        assert mean == pytest.approx(h, abs=1e-8)
        assert std <= 1e-6
        worst_std = max(worst_std, std)
        for c in pts[:15]:
            ev = np.linalg.eigvalsh(f1.hessian_matrix(c))
            assert ev[0] >= -1e-9
            assert ev[-1] <= h + 1e-9
    _passed(10, f"mean curvature constant across samples (max stddev {worst_std:.2e}); "
                "shape-operator spectrum inside [0, h]")


def test_criterion_11_strip_volume(cfg_h3):
    c1 = c2 = 0.5 * math.log(2.0)
    r = 0.5
    quad = strip_volume(cfg_h3, c1, c2, r)
    gap = abs(strip_volume_sliced(cfg_h3, c1, c2, r) / quad - 1.0)
    assert gap <= 1e-10
    shifted = strip_volume(cfg_h3, c1 + 1.0, c2 - 1.0, r)
    shift_gap = abs(shifted - quad) / quad
    assert shift_gap <= 1e-8
    _passed(11, f"slab volume: height slicing within {gap:.2e} relative of the (s, t) quadrature; "
                f"level-shift relative change {shift_gap:.2e}")

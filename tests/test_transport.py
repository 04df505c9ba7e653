"""Normal flows, the reparametrized volume-preserving map, and pair flows."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from horoflow import numerics, transport
from horoflow.busemann import BusemannField, beta, busemann_value, mean_curvature_h
from horoflow.locus import make_pair_config
from horoflow.manifold import (
    EUCLIDEAN,
    HYPERBOLIC,
    ChartDomainError,
    GeometryError,
    ModelSpace,
    Point,
    boundary_direction,
    boundary_finite,
    boundary_infinity,
)
from horoflow.numerics import ode_integrate
from horoflow.transport import (
    DIFFERENCE,
    SUM,
    AlphaMap,
    FlowRun,
    NormalFlow,
    PairFlow,
    SingularFlowError,
    VolumePreservingMap,
    div_identity,
    divergence_fd,
    flow_density,
    flow_density_fd,
    flow_stencil,
    horosphere_jacobian,
    transport_gaps,
)


@pytest.fixture
def f_inf(h3, base3):
    return BusemannField(h3, boundary_infinity(h3), base3)


@pytest.fixture
def f_origin(h3, base3):
    return BusemannField(h3, boundary_finite(h3, [0.0, 0.0]), base3)


@pytest.fixture
def pair_x(f_origin, f_inf):
    return PairFlow(f_origin, f_inf, DIFFERENCE)


@pytest.fixture
def pair_y(f_origin, f_inf):
    return PairFlow(f_origin, f_inf, SUM)


class TestNormalFlow:
    def test_vertical_descent(self, h3, base3, f_inf):
        out = NormalFlow(f_inf)(1.0, base3.coords)
        assert np.allclose(out, [0, 0, math.exp(-1.0)], atol=1e-15)

    def test_zero_time(self, h3, f_origin):
        x = Point(h3, [0.4, -0.2, 0.7])
        assert np.array_equal(NormalFlow(f_origin)(0.0, x.coords), x.coords)

    def test_euclidean_straight_line(self, e3):
        f = BusemannField(e3, boundary_direction(e3, [1, 0, 0]), Point(e3, [0, 0, 0]))
        out = NormalFlow(f)(2.0, [0, 0, 0])
        assert np.allclose(out, [-2, 0, 0], atol=0)

    def test_level_tracking(self, h3, f_origin, f_inf, rng):
        for f in (f_origin, f_inf):
            for c in h3.random_points(rng, 10, 1.0):
                x = Point(h3, c)
                for t in (-1.3, 0.4, 2.0):
                    y = Point(h3, NormalFlow(f)(t, x.coords))
                    assert busemann_value(f, y) - busemann_value(f, x) == pytest.approx(t, abs=1e-10)

    def test_flow_rides_gradient_geodesic(self, h3, f_origin, rng):
        from horoflow.manifold import TangentVec, geodesic

        c = h3.random_points(rng, 1, 0.8)[0]
        x = Point(h3, c)
        v = TangentVec(x, f_origin.grad_chart(c))
        t = 0.9
        assert np.max(np.abs(NormalFlow(f_origin)(t, c)
                             - geodesic(x, v, t).coords)) <= 1e-12

    def test_group_property(self, h3, f_origin, rng):
        c = h3.random_points(rng, 1, 0.8)[0]
        flow = NormalFlow(f_origin)
        a = flow(0.7, flow(0.5, c))
        b = flow(1.2, c)
        assert np.max(np.abs(a - b)) <= 1e-12


class TestHorosphereJacobian:
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_h3_expansion(self, h3, f_inf, f_origin, rng, t):
        for f in (f_inf, f_origin):
            for c in h3.random_points(rng, 5, 0.6):
                j = horosphere_jacobian(f, t, Point(h3, c))
                assert j / math.exp(2.0 * t) == pytest.approx(1.0, abs=1e-6)

    def test_h2_expansion(self, h2):
        f = BusemannField(h2, boundary_infinity(h2), Point(h2, [0, 1]))
        j = horosphere_jacobian(f, 1.0, Point(h2, [0.3, 0.8]))
        assert j / math.e == pytest.approx(1.0, abs=1e-9)

    def test_euclidean_unity(self, e3):
        f = BusemannField(e3, boundary_direction(e3, [0, 0, 1]), Point(e3, [0, 0, 0]))
        for t in (0.5, 2.0):
            assert horosphere_jacobian(f, t, Point(e3, [1.0, -2.0, 0.3])) == pytest.approx(1.0, abs=1e-9)

    def test_zero_time_identity(self, h3, f_inf, base3):
        assert horosphere_jacobian(f_inf, 0.0, base3) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("z", [1e-6, 1e-4, 1.0, 1e4])
    def test_expansion_does_not_depend_on_chart_height(self, n, z):
        # H^n is homogeneous: the dilation by z carries the unit-height set-up
        # here, so the finite-difference step must scale with z too
        m = ModelSpace(HYPERBOLIC, n)
        base = Point(m, np.r_[np.zeros(n - 1), 1.0])
        c = z * np.r_[np.linspace(0.3, -0.2, n - 1), 0.9]
        for xi in (boundary_infinity(m), boundary_finite(m, np.zeros(n - 1))):
            j = horosphere_jacobian(BusemannField(m, xi, base), 1.0, Point(m, c))
            assert j / math.exp(n - 1.0) == pytest.approx(1.0, abs=1e-6)


class TestAlpha:
    def test_anchor(self):
        assert AlphaMap(2.0, 1.0)(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_closed_form_vs_ode_oracle(self):
        # independent oracle: integrate alpha' = e^{-h (alpha - t)} from alpha(0) = t0
        h, t0 = 2.0, 1.0
        a = AlphaMap(h, t0)
        field = lambda s: np.stack([np.ones(s.shape[:-1]), np.exp(-h * (s[..., 1] - s[..., 0]))], axis=-1)
        end = ode_integrate(field, np.array([0.0, t0]), 1.0)
        assert a(1.0) == pytest.approx(end[1], abs=1e-11)
        assert a(1.0) == pytest.approx(0.5 * math.log(2.0 * math.e ** 2 - 1.0), abs=1e-15)

    def test_flat_case(self):
        a = AlphaMap(0.0, 3.0)
        assert a(5.0) == 8.0
        assert a.derivative(5.0) == 1.0
        assert a.inverse(8.0) == 5.0

    def test_defining_equation_residual(self):
        grid = np.linspace(-35.0, 35.0, 141)
        for h, t0 in ((1.0, 1.0), (2.0, 1.0), (2.0, 0.2), (4.0, 2.5)):
            assert AlphaMap(h, t0).residual(grid) <= 1e-10

    def test_derivative_below_one(self):
        a = AlphaMap(2.0, 1.0)
        ts = np.linspace(-10, 10, 101)
        assert np.all(a.derivative(ts) < 1.0)

    def test_gap_strictly_decreasing(self):
        a = AlphaMap(2.0, 1.0)
        ts = np.linspace(-10, 10, 201)
        assert np.all(np.diff(a(ts) - ts) < 0)
        # from h = 4 on, alpha(t) - t loses the gap to rounding near t = 10
        for h in range(1, 8):
            assert np.all(np.diff(AlphaMap(float(h), 1.0).gap(ts)) < 0)

    def test_range_infimum(self):
        a = AlphaMap(2.0, 1.0)
        m = 0.5 * math.log(math.e ** 2 - 1.0)
        assert a.range_infimum == pytest.approx(m, abs=1e-15)
        # oracle: alpha at very negative times approaches the infimum
        assert a(-40.0) == pytest.approx(m, abs=1e-13)

    def test_inverse_roundtrip_and_domain(self):
        a = AlphaMap(2.0, 1.0)
        for t in (-3.0, 0.0, 2.7):
            assert a.inverse(a(t)) == pytest.approx(t, abs=1e-10)
        with pytest.raises(GeometryError):
            a.inverse(a.range_infimum)
        with pytest.raises(GeometryError):
            a.inverse(a.range_infimum - 0.5)

    def test_invalid_parameters(self):
        with pytest.raises(GeometryError):
            AlphaMap(-1.0, 1.0)
        with pytest.raises(GeometryError):
            AlphaMap(2.0, 0.0)

    def test_overflowing_t0_rejected(self):
        # e^(h t0) - 1 is finite up to h t0 = ln(DBL_MAX) ~ 709.78
        a = AlphaMap(7.0, 101.0)
        assert math.isfinite(a.range_infimum) and math.isfinite(a.derivative(0.0))
        for h, t0 in ((7.0, 102.0), (2.0, 400.0)):
            with pytest.raises(GeometryError, match="overflows float64"):
                AlphaMap(h, t0)

    def test_overflowing_gap_and_inverse_raise(self):
        # h t0 = 708 is below ln(DBL_MAX), but the gap at t = -1 and the
        # inverse at u = 355 need e^710
        a = AlphaMap(2.0, 354.0)
        assert math.isfinite(a.gap(0.0)) and math.isfinite(a.inverse(354.5))
        with pytest.raises(GeometryError, match=r"\(e\^\(h t0\) - 1\) e\^\(-h t\) overflows float64"):
            a.gap(np.array([0.0, -1.0]))
        with pytest.raises(GeometryError, match=r"e\^\(h u\) overflows float64"):
            a.inverse(355.0)


@settings(max_examples=50, deadline=None)
@given(h=st.floats(0.5, 4.0), t0=st.floats(0.1, 3.0), t=st.floats(-20.0, 20.0))
def test_alpha_equation_property(h, t0, t):
    assert AlphaMap(h, t0).residual(t) <= 1e-10


class TestVolumePreservingMap:
    def test_h2_closed_form(self, h2):
        p, q = Point(h2, [0.0, 1.0]), Point(h2, [0.0, math.exp(-1.0)])
        F = VolumePreservingMap(h2, p, q)
        assert F.field.xi.is_infinity
        assert np.max(np.abs(F(p).coords - q.coords)) <= 1e-15
        c = math.e - 1.0
        rng = np.random.default_rng(7)
        for xy in h2.random_points(rng, 10, 1.0):
            closed = np.array([xy[0], xy[1] / (1.0 + c * xy[1])])
            assert np.max(np.abs(F.apply_coords(xy) - closed)) <= 1e-13

    def test_euclidean_translation(self, e3, rng):
        p, q = Point(e3, [0, 0, 0]), Point(e3, [1.0, 2.0, -0.5])
        F = VolumePreservingMap(e3, p, q)
        for c in e3.random_points(rng, 10, 2.0):
            assert np.max(np.abs(F.apply_coords(c) - (c + q.coords))) <= 1e-14

    def test_sends_p_to_q_generic(self, h3, rng):
        for _ in range(5):
            pc, qc = h3.random_points(rng, 2, 0.8)
            F = VolumePreservingMap(h3, Point(h3, pc), Point(h3, qc))
            assert np.max(np.abs(F.apply_coords(pc) - qc)) <= 1e-10

    def test_unit_jacobian(self, h3, h2, e3, rng):
        h5 = ModelSpace(HYPERBOLIC, 5)
        cases = [
            (h3, [0, 0, 1], [0.3, 0.2, 0.6]),
            (h2, [0, 1], [0, math.exp(-1.0)]),
            (e3, [0, 0, 0], [1, 1, 1]),
            (h5, [0, 0, 0, 0, 1], [0, 0, 0, 0, math.exp(-1.0)]),
        ]
        for m, pc, qc in cases:
            F = VolumePreservingMap(m, Point(m, pc), Point(m, qc))
            for c in m.random_points(rng, 20, 0.8):
                assert F.jacobian_det(c) == pytest.approx(1.0, abs=1e-7)

    def test_inverse(self, h3, rng):
        F = VolumePreservingMap(h3, Point(h3, [0, 0, 1]), Point(h3, [0.4, 0.0, 0.5]))
        for c in h3.random_points(rng, 10, 0.6):
            y = F.apply_coords(c)
            assert np.max(np.abs(F.inverse_coords(y) - c)) <= 1e-10

    def test_image_threshold(self, h3):
        F = VolumePreservingMap(h3, Point(h3, [0, 0, 1]), Point(h3, [0, 0, math.exp(-1.0)]))
        m = F.image_threshold
        assert m == pytest.approx(0.5 * math.log(math.e ** 2 - 1.0), abs=1e-14)
        # image levels always exceed m
        pts = h3.random_points(np.random.default_rng(3), 200, 1.5)
        levels = F.field.value(F.apply_coords(pts))
        assert np.min(levels) > m

    def test_identical_endpoints_rejected(self, h3, base3):
        with pytest.raises(GeometryError):
            VolumePreservingMap(h3, base3, base3)

    def test_euclidean_map_is_translation(self, e3):
        out = VolumePreservingMap(e3, Point(e3, [0, 0, 0]), Point(e3, [1, 0, 0]))(Point(e3, [5, 5, 5]))
        assert np.allclose(out.coords, [6, 5, 5], atol=0)


class TestPairFlowTracking:
    def test_difference_flow_closed_form_field(self, h3, pair_x, rng):
        # for the (origin, infinity) pair the difference field is the scaled
        # Euler field x/2, whose flow is a dilation
        pts = h3.random_points(rng, 50, 1.0)
        assert np.max(np.abs(pair_x.vector(pts) - pts / 2.0)) <= 1e-13

    def test_difference_tracking(self, h3, pair_x, f_origin, f_inf, rng):
        for c in h3.random_points(rng, 5, 0.8):
            x = Point(h3, c)
            end = Point(h3, pair_x.flow(x.coords, 2.0))
            assert busemann_value(f_origin, end) - busemann_value(f_origin, x) == pytest.approx(1.0, abs=1e-8)
            assert busemann_value(f_inf, end) - busemann_value(f_inf, x) == pytest.approx(-1.0, abs=1e-8)

    def test_sum_tracking(self, h3, pair_y, f_origin, f_inf):
        x = Point(h3, [0.5, -0.2, 0.9])
        for s in (0.7, 2.0):
            end = Point(h3, pair_y.flow(x.coords, s))
            assert busemann_value(f_origin, end) - busemann_value(f_origin, x) == pytest.approx(s / 2, abs=1e-8)
            assert busemann_value(f_inf, end) - busemann_value(f_inf, x) == pytest.approx(s / 2, abs=1e-8)

    def test_zero_duration(self, h3, pair_x):
        x = Point(h3, [0.5, -0.2, 0.9])
        assert np.array_equal(pair_x.flow(x.coords, 0.0), x.coords)

    def test_sum_flow_singular_on_axis(self, h3, pair_y):
        with pytest.raises(SingularFlowError):
            pair_y.flow(np.array([0.0, 0.0, 1.3]), 0.5)

    def test_sum_flow_backward_into_axis_fails(self, h3, pair_y, f_origin, f_inf):
        x = Point(h3, [0.1, 0.0, 1.0])
        s = busemann_value(f_origin, x) + busemann_value(f_inf, x)
        with pytest.raises(SingularFlowError):
            pair_y.flow(x.coords, -(s + 0.5))

    def test_distinct_boundary_points_required(self, h3, f_origin):
        with pytest.raises(GeometryError):
            PairFlow(f_origin, f_origin, DIFFERENCE)


def _generic_pair(model):
    """Two Busemann fields with finite poles, so that in H^n the closed-form
    flow moves through both inversions and both translations of
    ``PairConfig.steps``."""
    n = model.dim
    if model.is_hyperbolic:
        a = np.linspace(-0.4, 0.3, n - 1)
        xi1, xi2 = boundary_finite(model, a), boundary_finite(model, a[::-1] + 0.9)
        base = Point(model, np.r_[np.zeros(n - 1), 1.0])
    else:
        u1, u2 = np.zeros(n), np.zeros(n)
        u1[0], u1[-1] = 1.0, 0.5
        u2[0], u2[1] = -0.3, 1.0
        xi1, xi2 = boundary_direction(model, u1), boundary_direction(model, u2)
        base = Point(model, np.zeros(n))
    return BusemannField(model, xi1, base), BusemannField(model, xi2, base)


def _off_axis_starts(model, f1, f2, count=6, min_separation=0.3):
    pts = model.random_points(np.random.default_rng(7), 40, 0.8)
    if model.is_hyperbolic:
        cfg = make_pair_config(f1, f2)
        pts = np.array([c for c in pts if cfg.separation(Point(model, c)) >= min_separation])
    assert len(pts) >= count
    return pts[:count]


class TestClosedFormFlow:
    @pytest.mark.parametrize("model", [ModelSpace(kind, n) for kind in (HYPERBOLIC, EUCLIDEAN)
                                       for n in range(2, 9)],
                             ids=lambda m: f"{m.kind[0]}{m.dim}")
    @pytest.mark.parametrize("kind", [DIFFERENCE, SUM])
    def test_flow_matches_rk4(self, model, kind):
        f1, f2 = _generic_pair(model)
        pf = PairFlow(f1, f2, kind)
        starts = _off_axis_starts(model, f1, f2)
        for duration in (0.5, -0.1):
            oracle = ode_integrate(pf.vector, starts, duration)
            assert np.max(np.abs(pf.flow(starts, duration) - oracle)) <= 1e-10

    @pytest.mark.parametrize("model", [ModelSpace(HYPERBOLIC, 3), ModelSpace(EUCLIDEAN, 3)],
                             ids=lambda m: f"{m.kind[0]}{m.dim}")
    def test_product_path_never_integrates(self, model, monkeypatch):
        def no_ode(*args, **kwargs):
            raise AssertionError("the product path reached ode_integrate")

        monkeypatch.setattr(numerics, "ode_integrate", no_ode)
        monkeypatch.setattr(transport, "ode_integrate", no_ode)
        f1, f2 = _generic_pair(model)
        x = Point(model, _off_axis_starts(model, f1, f2, count=1)[0])
        for kind in (DIFFERENCE, SUM):
            pf = PairFlow(f1, f2, kind)
            assert Point(model, pf.flow(x.coords, 0.7)).model == model
            assert math.isfinite(flow_density(pf, x, 0.7))

    def test_sum_density_backward_into_axis_fails(self, h3, pair_y, f_origin, f_inf):
        x = Point(h3, [0.1, 0.0, 1.0])
        s = busemann_value(f_origin, x) + busemann_value(f_inf, x)
        with pytest.raises(SingularFlowError):
            flow_density(pair_y, x, -(s + 0.5))

    def test_sum_flow_map_rejects_the_axis(self, h3, pair_y, f_origin, f_inf):
        with pytest.raises(SingularFlowError):
            pair_y.flow(np.array([[0.3, 0.0, 1.0], [0.0, 0.0, 1.3]]), 0.5)
        x = Point(h3, [0.1, 0.0, 1.0])
        s = busemann_value(f_origin, x) + busemann_value(f_inf, x)
        with pytest.raises(SingularFlowError):
            pair_y.flow(x.coords, -(s + 0.5))


class TestDivergence:
    def test_raw_difference_divergence_free(self, h3, f_origin, f_inf, rng):
        def raw(c):
            return f_origin.grad_chart(c) - f_inf.grad_chart(c)

        for c in h3.random_points(rng, 20, 0.8):
            assert abs(divergence_fd(h3, raw, Point(h3, c))) <= 1e-6

    def test_raw_sum_divergence_2h(self, h3, f_origin, f_inf, rng):
        def raw(c):
            return f_origin.grad_chart(c) + f_inf.grad_chart(c)

        for c in h3.random_points(rng, 10, 0.8):
            assert divergence_fd(h3, raw, Point(h3, c)) == pytest.approx(4.0, abs=1e-6)

    def test_difference_identity(self, h3, pair_x, rng):
        for c in h3.random_points(rng, 10, 0.8):
            lhs, rhs = div_identity(pair_x, Point(h3, c))
            assert abs(lhs - rhs) <= 1e-5
            assert abs(lhs) <= 1e-5  # beta depends only on the separation here

    def test_sum_identity(self, h3, pair_y, f_origin, f_inf, rng):
        kept = 0
        while kept < 10:
            c = h3.random_points(rng, 1, 0.8)[0]
            x = Point(h3, c)
            s = busemann_value(f_origin, x) + busemann_value(f_inf, x)
            if s < 0.1:
                continue
            kept += 1
            lhs, rhs = div_identity(pair_y, x)
            assert abs(lhs - rhs) <= 1e-5

    def test_batch_equals_one_point_at_a_time(self, h3, pair_y, rng):
        pts = _off_axis_starts(h3, pair_y.f1, pair_y.f2, count=8, min_separation=0.1)
        lhs, rhs = div_identity(pair_y, pts)
        raw = divergence_fd(h3, pair_y.vector, pts)
        for c, left, right, div in zip(pts, lhs, rhs, raw):
            assert (left, right) == div_identity(pair_y, Point(h3, c))
            assert div == divergence_fd(h3, pair_y.vector, Point(h3, c)) == left

    def test_euclidean_difference(self, e3, rng):
        f1 = BusemannField(e3, boundary_direction(e3, [1, 0, 0]), Point(e3, [0, 0, 0]))
        f2 = BusemannField(e3, boundary_direction(e3, [0, 1, 0]), Point(e3, [0, 0, 0]))
        pf = PairFlow(f1, f2, DIFFERENCE)
        for c in e3.random_points(rng, 5, 1.0):
            lhs, rhs = div_identity(pf, Point(e3, c))
            assert abs(lhs) <= 1e-8 and abs(rhs) <= 1e-8


def _stencil_run(pf, x, duration):
    """A run of pf's kind whose block "stencil" is the flow-Jacobian stencil about x."""
    return FlowRun(pf.f1, pf.f2, {"stencil": (pf.kind, flow_stencil(pf.model, x.coords))}, duration)


MODELS_H3_H8_E5 = pytest.mark.parametrize("model_name", ["h3", "h8", "e5"])


def _model(name):
    return ModelSpace(HYPERBOLIC if name[0] == "h" else EUCLIDEAN, int(name[1:]))


def _assert_rows_equal_separate_integrations(run, blocks):
    """At 80, 90, 150 and 200 steps, every block of ``blocks`` (name -> (kind,
    starts)) in ``run`` is bitwise the states of its own recorded integration by
    its kind's pair flow over the run's duration; at 150 and 200 steps, ends of
    the run's segments, it is also bitwise the end of its own integration to that
    duration."""
    for name, (kind, block) in blocks.items():
        pf = run.flows[kind]
        assert run.kind[name] == kind and np.array_equal(run.starts[name], np.atleast_2d(block))
        vector = PairFlow(pf.f1, pf.f2, kind).vector
        _, separate = ode_integrate(vector, block, 2.0, record=True)
        separate = separate.reshape(len(separate), -1, pf.model.dim)
        for steps, duration in ((80, 0.8), (90, 0.9), (150, 1.5), (200, 2.0)):
            path = run.trajectories(name, duration)
            assert path.shape == (steps + 1, len(np.atleast_2d(block)), pf.model.dim)
            assert np.array_equal(path, separate[: steps + 1])
            if duration in (1.5, 2.0):
                assert np.array_equal(path[-1], np.atleast_2d(ode_integrate(vector, block, duration)))


class TestFlowRun:
    """One recorded batch serves every duration on its step grid."""

    @MODELS_H3_H8_E5
    @pytest.mark.parametrize("kind", [DIFFERENCE, SUM])
    def test_recorded_rows_equal_separate_integrations(self, model_name, kind):
        model = _model(model_name)
        f1, f2 = _generic_pair(model)
        starts = _off_axis_starts(model, f1, f2, count=5)
        stencil = flow_stencil(model, starts[0])
        single = starts[1]
        blocks = {"starts": (kind, starts), "stencil": (kind, stencil), "single": (kind, single)}
        run = FlowRun(f1, f2, blocks, 2.0)
        assert run.step == 0.01 and list(run.flows) == [kind]
        _assert_rows_equal_separate_integrations(run, blocks)
        _, recorded = ode_integrate(run.flows[kind].vector, single, 1.5, record=True)
        assert np.array_equal(run.trajectories("single", 1.5)[:, 0], recorded)

    @MODELS_H3_H8_E5
    def test_both_kinds_in_one_batch_equal_separate_integrations(self, monkeypatch, model_name):
        model = _model(model_name)
        f1, f2 = _generic_pair(model)
        starts = _off_axis_starts(model, f1, f2, count=6)
        shared = flow_stencil(model, starts[0])
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return ode_integrate(*args, **kwargs)

        monkeypatch.setattr(transport, "ode_integrate", counted)
        blocks = {"difference-starts": (DIFFERENCE, starts[:3]), "difference-shared": (DIFFERENCE, shared),
                  "sum-shared": (SUM, shared), "sum-starts": (SUM, starts[3:]), "single": (SUM, starts[5])}
        run = FlowRun(f1, f2, blocks, 2.0)
        assert calls == [2.0]
        monkeypatch.undo()
        _assert_rows_equal_separate_integrations(run, blocks)
        # the same starts in two blocks of two kinds follow each kind's own flow
        assert not np.array_equal(run.trajectories("difference-shared", 1.0), run.trajectories("sum-shared", 1.0))
        with pytest.raises(ValueError, match="did not integrate"):
            run.flow_map("sum-starts", 1.0)(starts[:3])

    def test_every_duration_on_the_step_grid_is_accepted(self, pair_x):
        start = np.array([0.2, 0.1, 1.0])
        run = FlowRun(pair_x.f1, pair_x.f2, {"start": (DIFFERENCE, start)}, 2.0)
        # 0.29 / 0.01 is 28.999999999999996 in float64
        for k in range(201):
            assert run.trajectories("start", k * 0.01).shape == (k + 1, 1, 3)

    @pytest.mark.parametrize("duration", [0.805, 1.0 / 3.0, 2.01, -0.1])
    def test_duration_off_the_step_grid_raises(self, h3, pair_x, duration):
        starts = np.array([[0.2, 0.1, 1.0], [0.4, -0.3, 0.7]])
        run = FlowRun(pair_x.f1, pair_x.f2, {"starts": (DIFFERENCE, starts)}, 2.0)
        with pytest.raises(ValueError, match="whole number"):
            run.trajectories("starts", duration)
        with pytest.raises(ValueError, match="whole number"):
            run.flow_map("starts", duration)

    @pytest.mark.parametrize("duration", [0.0, -1.0, math.nan])
    def test_a_run_needs_a_positive_duration(self, pair_x, duration):
        with pytest.raises(ValueError, match="positive duration"):
            FlowRun(pair_x.f1, pair_x.f2, {"start": (DIFFERENCE, np.array([0.2, 0.1, 1.0]))}, duration)

    def test_starts_the_run_did_not_integrate_raise(self, h3, pair_x):
        starts = np.array([[0.2, 0.1, 1.0], [0.4, -0.3, 0.7]])
        run = FlowRun(pair_x.f1, pair_x.f2, {"starts": (DIFFERENCE, starts)}, 1.0)
        flow_map = run.flow_map("starts", 0.5)
        assert np.array_equal(flow_map(starts.copy()), run.trajectories("starts", 0.5)[-1])
        for other in (starts[:1], starts[::-1], starts + 1e-12):
            with pytest.raises(ValueError, match="did not integrate"):
                flow_map(other)

    def test_an_unknown_block_name_raises(self, h3, pair_x):
        run = FlowRun(pair_x.f1, pair_x.f2, {"starts": (DIFFERENCE, np.array([0.2, 0.1, 1.0]))}, 1.0)
        for read in (run.trajectories, run.flow_map, lambda *a: flow_density_fd(run, *a),
                     lambda *a: transport_gaps(run, *a)):
            with pytest.raises(KeyError):
                read("tracking", 0.5)

    def test_sum_run_through_the_axis_raises(self, h3, pair_x):
        blocks = {"off the axis": (DIFFERENCE, np.array([0.2, 0.1, 1.0])),
                  "on the axis": (SUM, np.array([0.0, 0.0, 1.3]))}
        with pytest.raises(SingularFlowError, match="sum flow evaluated on the singular set D"):
            FlowRun(pair_x.f1, pair_x.f2, blocks, 0.5)


class TestFlowDensities:
    def test_difference_flow_preserves_volume(self, h3, pair_x):
        x = Point(h3, [0.6, -0.4, 0.9])
        assert flow_density(pair_x, x, 1.3) == pytest.approx(1.0, abs=1e-10)
        assert flow_density_fd(_stencil_run(pair_x, x, 1.3), "stencil", 1.3) == pytest.approx(1.0, abs=1e-6)

    def test_sum_flow_density_closed_form(self, h3, pair_y, f_origin, f_inf):
        # symbolic oracle: integral of h/(1+beta) along the flow collapses to
        # (h/2) ln((e^{s0+s}-1)/(e^{s0}-1)) for this pair
        x = Point(h3, [0.6, -0.4, 0.9])
        s0 = busemann_value(f_origin, x) + busemann_value(f_inf, x)
        s, h = 0.9, 2.0
        expected = ((math.exp(s0 + s) - 1.0) / (math.exp(s0) - 1.0)) ** (h / 2.0 - 1.0) * math.exp(s)
        assert flow_density(pair_y, x, s) == pytest.approx(expected, rel=1e-6)
        assert flow_density_fd(_stencil_run(pair_y, x, s), "stencil", s) == pytest.approx(expected, rel=1e-5)

    def test_zero_duration(self, h3, pair_y):
        assert flow_density(pair_y, Point(h3, [0.5, 0, 1.0]), 0.0) == 1.0

    def test_h2_sum_density(self, h2):
        f1 = BusemannField(h2, boundary_finite(h2, [0.0]), Point(h2, [0, 1]))
        f2 = BusemannField(h2, boundary_infinity(h2), Point(h2, [0, 1]))
        pf = PairFlow(f1, f2, SUM)
        x = Point(h2, [0.5, 0.8])
        s0 = float(f1.value(x.coords) + f2.value(x.coords))
        s, h = 0.7, 1.0
        expected = ((math.exp(s0 + s) - 1.0) / (math.exp(s0) - 1.0)) ** (h / 2.0 - 1.0) * math.exp(s)
        assert flow_density(pf, x, s) == pytest.approx(expected, rel=1e-6)


class TestGradientTransport:
    def test_difference_flow_carries_gradients(self, h3, pair_x):
        x = Point(h3, [0.6, -0.4, 0.9])
        push_gap, _ = transport_gaps(_stencil_run(pair_x, x, 0.8), "stencil", 0.8)
        assert push_gap <= 1e-6

    def test_both_flows_preserve_level_forms(self, h3, pair_x, pair_y):
        x = Point(h3, [0.6, -0.4, 0.9])
        for pf in (pair_x, pair_y):
            _, form_gap = transport_gaps(_stencil_run(pf, x, 0.8), "stencil", 0.8)
            assert form_gap <= 1e-6

    def test_sum_flow_does_not_carry_gradients(self, h3, pair_y):
        # the vector pushforward identity genuinely fails for the sum flow
        x = Point(h3, [0.6, -0.4, 0.9])
        push_gap, _ = transport_gaps(_stencil_run(pair_y, x, 0.8), "stencil", 0.8)
        assert push_gap > 1e-2


class TestAxisFloorAndMonotonicity:
    def test_separation_floor(self, h3, f_origin, f_inf, rng):
        pts = h3.random_points(rng, 4000, 1.5)
        vals = f_origin.value(pts) + f_inf.value(pts)
        assert float(np.min(vals)) >= -1e-9

    def test_beta_monotone_along_sum_flow(self, h3, pair_y, f_origin, f_inf):
        x = Point(h3, [0.3, 0.1, 1.1])
        _, states = ode_integrate(pair_y.vector, x.coords, 1.5, record=True)
        bs = np.asarray(beta(f_origin, f_inf, states))
        assert np.all(np.diff(bs) >= -1e-12)

    def test_epsilon_regularized_starts_approach_axis(self, h3, f_origin, f_inf):
        from horoflow.locus import make_pair_config

        cfg = make_pair_config(f_origin, f_inf)
        gaps = []
        for eps in (1e-3, 1e-4, 1e-5, 1e-6):
            x = cfg.point_on_locus(eps, 0.0)
            gaps.append(float(beta(f_origin, f_inf, x)) + 1.0)
        # gap to beta = -1 shrinks linearly with the regularization
        assert all(g <= 3.0 * e for g, e in zip(gaps, (1e-3, 1e-4, 1e-5, 1e-6)))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


@pytest.fixture
def check_calls(monkeypatch):
    """Shapes of the batches passed to ModelSpace.check_coords, in call order."""
    calls = []
    original = ModelSpace.check_coords

    def counted(self, x):
        calls.append(np.shape(x))
        return original(self, x)

    monkeypatch.setattr(ModelSpace, "check_coords", counted)
    return calls


def _bad_batches(model: ModelSpace, rng) -> list:
    """A valid (5, n) batch with one row made NaN, and the same with one row at z = 0."""
    pts = model.random_points(rng, 5, 0.8)
    with_nan, on_boundary = pts.copy(), pts.copy()
    with_nan[2] = np.nan
    on_boundary[3, -1] = 0.0
    return [with_nan, on_boundary]


class TestChartValidation:
    """Each public method validates its batch once; the kernels behind it trust it."""

    @pytest.mark.parametrize("kind", [DIFFERENCE, SUM])
    def test_pair_flow_vector_rejects_off_chart_rows(self, h3, f_origin, f_inf, rng, kind):
        pf = PairFlow(f_origin, f_inf, kind)
        for bad in _bad_batches(h3, rng):
            with pytest.raises(ChartDomainError):
                pf.vector(bad)

    def test_busemann_and_metric_reject_off_chart_rows(self, h3, f_origin, f_inf, rng):
        for bad in _bad_batches(h3, rng):
            for f in (f_origin, f_inf):
                with pytest.raises(ChartDomainError):
                    f.grad_chart(bad)
                with pytest.raises(ChartDomainError):
                    f.value(bad)
            with pytest.raises(ChartDomainError):
                h3.inner(bad, np.ones_like(bad), np.ones_like(bad))

    def test_pair_flow_vector_validates_once(self, h3, pair_x, rng, check_calls):
        pts = h3.random_points(rng, 20, 0.8)
        pair_x.vector(pts)
        assert check_calls == [pts.shape]

    @pytest.mark.parametrize("caller", ["apply_coords", "inverse_coords", "normal_flow"])
    def test_exp_callers_validate_entry_and_endpoint(self, h3, base3, rng, check_calls, caller):
        # the batch is checked on entry and exp's endpoint once more; the
        # kernel ModelSpace._exp does not re-check the validated batch
        F = VolumePreservingMap(h3, base3, Point(h3, [0.0, 0.0, math.exp(-1.0)]))
        run = {"apply_coords": F.apply_coords, "inverse_coords": F.inverse_coords,
               "normal_flow": lambda pts: NormalFlow(F.field)(0.3, pts)}[caller]
        pts = F.apply_coords(h3.random_points(rng, 20, 0.8))  # in the image of F
        check_calls.clear()
        run(pts)
        assert check_calls == [pts.shape, pts.shape]

    def test_picard_iterate_driven_off_the_chart_raises(self, h3, pair_x, rng):
        # the (origin, infinity) difference field is x/2; less 10 e_z it sends
        # the first Picard iterate of a 0.5 segment from z = 1 to 1.25 - 5 < 0
        # at the segment's end, and the field validates every node it is given
        pts = h3.random_points(rng, 4, 0.8)
        pts[:, -1] = 1.0
        with pytest.raises(ChartDomainError):
            ode_integrate(lambda c: pair_x.vector(c) - [0.0, 0.0, 10.0], pts, 0.5)


def _euclidean_pair(model: ModelSpace, u1, u2) -> tuple[BusemannField, BusemannField]:
    return (BusemannField(model, boundary_direction(model, u1)),
            BusemannField(model, boundary_direction(model, u2)))


class TestPairFlowOracle:
    """The ODE oracle's field: PairFlow.vector against its definition."""

    @pytest.mark.parametrize("kind", [DIFFERENCE, SUM])
    def test_euclidean_vector_rejects_nan_row(self, e3, rng, kind):
        pf = PairFlow(*_euclidean_pair(e3, [1, 0, 0], [0, 1, 0]), kind)
        pts = e3.random_points(rng, 5, 0.8)
        pts[2] = np.nan
        with pytest.raises(ChartDomainError):
            pf.vector(pts)

    def test_euclidean_vector_is_a_fresh_array(self, e3, rng):
        pf = PairFlow(*_euclidean_pair(e3, [1, 0, 0], [0.6, 0.8, 0]), DIFFERENCE)
        pts = e3.random_points(rng, 4, 0.8)
        first = pf.vector(pts)
        expected = first.copy()
        first[...] = 7.0
        assert np.array_equal(pf.vector(pts), expected)
        assert pf.vector(pts[0]).shape == (3,)

    def test_euclidean_cancelling_sum_raises_on_every_call(self, e3, rng):
        pf = PairFlow(*_euclidean_pair(e3, [1, 0, 0], [-1, 0, 0]), SUM)
        pts = e3.random_points(rng, 3, 0.8)
        for _ in range(2):
            with pytest.raises(SingularFlowError):
                pf.vector(pts)

    @pytest.mark.parametrize("model_name", ["h3", "e3"])
    @pytest.mark.parametrize("kind", [DIFFERENCE, SUM])
    def test_vector_matches_public_gradients(self, request, rng, model_name, kind):
        model = request.getfixturevalue(model_name)
        if model.is_hyperbolic:
            f1 = BusemannField(model, boundary_finite(model, [0.3, -0.2]))
            f2 = BusemannField(model, boundary_finite(model, [-0.5, 0.4]))
        else:
            f1, f2 = _euclidean_pair(model, [1, 0, 0], [0.6, 0.8, 0])
        pf = PairFlow(f1, f2, kind)
        pts = model.random_points(rng, 50, 0.8)
        g1, g2 = f1.grad_chart(pts), f2.grad_chart(pts)
        b = beta(f1, f2, pts)
        sign = -1.0 if kind == DIFFERENCE else 1.0
        expected = (g1 + sign * g2) / (2.0 + sign * 2.0 * b)[:, None]
        assert np.max(np.abs(pf.vector(pts) - expected)) <= 1e-15 * max(1.0, np.max(np.abs(expected)))

    @pytest.mark.parametrize("model_name, kinds", [("h3", 2), ("e3", 1)])
    def test_gradient_transport_integrates_each_flow_once(self, request, monkeypatch, model_name, kinds):
        from horoflow import verify

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return ode_integrate(*args, **kwargs)

        monkeypatch.setattr(transport, "ode_integrate", counted)
        ctx = verify.VerifyContext(model=request.getfixturevalue(model_name))
        rep = verify.check_gradient_transport(ctx)
        assert rep.status == "pass", rep.quantities
        # one integration carries both pair flows in H^n, the difference flow alone in E^n
        assert len(ctx.flows.flows) == kinds and len(calls) == 1  # the run the check built, not a second

    @pytest.mark.parametrize("model_name, kinds", [("h3", 2), ("h8", 2), ("e5", 1)])
    def test_flows_suite_integrates_each_pair_flow_once(self, monkeypatch, model_name, kinds):
        from horoflow import verify
        from horoflow.cli import parse_model

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return ode_integrate(*args, **kwargs)

        monkeypatch.setattr(transport, "ode_integrate", counted)
        ctx = verify.VerifyContext(model=parse_model(model_name))
        reports = verify.run_suite("flows", ctx)
        assert {r.status for r in reports} == {"pass"}
        assert len(ctx.flows.flows) == kinds and calls == [2.0]
        calls.clear()
        verify.run_suite("all", verify.VerifyContext(model=parse_model(model_name)))
        assert calls == [2.0]

    @pytest.mark.parametrize("model_name, seed", [("h6", 49), ("h8", 49), ("h8", 76)])
    def test_flows_suite_passes_where_a_row_sits_at_its_roundoff_floor(self, model_name, seed):
        # one row's relative Picard correction cycles between 5 and 10 eps there;
        # a 4 eps stop rule never stopped it, and the five readers of the run recorded errors
        from horoflow import verify
        from horoflow.cli import parse_model

        reports = verify.run_suite("flows", verify.VerifyContext(model=parse_model(model_name), seed=seed))
        assert {r.name: r.status for r in reports if r.status != "pass"} == {}

    def test_a_failing_run_is_an_error_in_every_check_that_reads_it(self, monkeypatch):
        from horoflow import verify

        exact = transport._pair_vector

        def on_the_axis(f1, f2, coords, sign):
            # every sum row is evaluated at the axis point (0, 0, 1) of D
            axis = np.asarray(sign)[..., None] > 0.0
            return exact(f1, f2, np.where(axis, [0.0, 0.0, 1.0], coords), sign)

        monkeypatch.setattr(transport, "_pair_vector", on_the_axis)
        reports = verify.run_suite("flows", verify.VerifyContext(model=ModelSpace(HYPERBOLIC, 3)))
        errors = {r.name for r in reports if r.status == "error"}
        # every reader of the shared run, of either kind, and the divergence
        # check, which evaluates the sum field itself
        assert errors == {"difference-flow-level-tracking", "sum-flow-level-tracking",
                          "flow-divergence-identities", "flow-volume-densities",
                          "flow-gradient-transport", "beta-monotone-along-sum-flow"}
        assert {r.quantities["error"] for r in reports if r.status == "error"} == {
            "sum flow evaluated on the singular set D"}
        assert {r.status for r in reports if r.name not in errors} == {"pass"}


def _batch_setup(m, rng):
    """A field with an off-origin pole (a direction in E^n), a map F, and
    seven random chart points."""
    n = m.dim
    if m.is_hyperbolic:
        base = np.r_[np.zeros(n - 1), 1.0]
        xi, target = boundary_finite(m, np.linspace(0.4, -0.3, n - 1)), np.r_[np.full(n - 1, 0.2), 0.6]
    else:
        base = np.zeros(n)
        xi, target = boundary_direction(m, np.arange(1.0, n + 1.0)), np.full(n, 0.7)
    f = BusemannField(m, xi, Point(m, base))
    F = VolumePreservingMap(m, Point(m, base), Point(m, target))
    return f, F, m.random_points(rng, 7, 0.6)


@pytest.mark.parametrize("m", [ModelSpace(HYPERBOLIC, 2), ModelSpace(HYPERBOLIC, 3),
                               ModelSpace(HYPERBOLIC, 8), ModelSpace(EUCLIDEAN, 3)],
                         ids=["h2", "h3", "h8", "e3"])
class TestBatchedOracles:
    """A (P, n) batch gives one value per row, equal to the row's own call
    (bitwise for the map's Jacobian, whose reports must not move)."""

    def test_jacobian_det_is_bitwise_the_per_row_value(self, m, rng):
        _, F, pts = _batch_setup(m, rng)
        batch = F.jacobian_det(pts)
        assert batch.shape == (7,)
        rows = [F.jacobian_det(c) for c in pts]
        assert all(isinstance(r, float) for r in rows)
        assert np.array_equal(batch, rows)

    def test_riemannian_jacobian_det(self, m, rng):
        f, _, pts = _batch_setup(m, rng)
        flow = NormalFlow(f)
        batch = transport.riemannian_jacobian_det(m, lambda c: flow(0.7, c), pts)
        rows = [transport.riemannian_jacobian_det(m, lambda c: flow(0.7, c), c) for c in pts]
        assert batch.shape == (7,)
        np.testing.assert_allclose(batch, rows, rtol=1e-14, atol=0.0)

    def test_horosphere_jacobian(self, m, rng):
        f, _, pts = _batch_setup(m, rng)
        batch = horosphere_jacobian(f, 0.8, pts)
        rows = [horosphere_jacobian(f, 0.8, Point(m, c)) for c in pts]
        assert batch.shape == (7,)
        np.testing.assert_allclose(batch, rows, rtol=1e-14, atol=0.0)
        assert np.allclose(batch, math.exp(mean_curvature_h(m) * 0.8), rtol=1e-8, atol=0.0)

    def test_frame_volume(self, m, rng):
        _, _, pts = _batch_setup(m, rng)
        frames = rng.normal(size=(7, m.dim - 1, m.dim))
        batch = m.frame_volume(pts, frames)
        assert batch.shape == (7,)
        rows = [m.frame_volume(c, frame) for c, frame in zip(pts, frames)]
        np.testing.assert_allclose(batch, rows, rtol=1e-14, atol=0.0)

    def test_frame_volume_raises_on_one_degenerate_frame_in_a_batch(self, m, rng):
        _, _, pts = _batch_setup(m, rng)
        frames = rng.normal(size=(7, m.dim - 1, m.dim))
        frames[4, -1] = 0.0
        with pytest.raises(GeometryError, match="degenerate frame"):
            m.frame_volume(pts, frames)

"""Busemann fields: values, derivatives, curvature constants, visibility."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from horoflow.busemann import (
    BusemannField,
    beta,
    busemann_value,
    coarea_slice_integral,
    estimate_h,
    horosphere_sphere,
    mean_curvature_h,
    sublevel_bounded_probe,
)
from horoflow.locus import make_pair_config
from horoflow.manifold import (
    EUCLIDEAN,
    HYPERBOLIC,
    GeometryError,
    ModelMismatchError,
    ModelSpace,
    Point,
    boundary_direction,
    boundary_finite,
    boundary_infinity,
)
from horoflow.numerics import TestFunction, fd_hessian, fd_jacobian
from horoflow.transport import NormalFlow, PairFlow, VolumePreservingMap

from conftest import exact_euclidean_integral


@pytest.fixture
def f_inf(h3, base3):
    return BusemannField(h3, boundary_infinity(h3), base3)


@pytest.fixture
def f_origin(h3, base3):
    return BusemannField(h3, boundary_finite(h3, [0.0, 0.0]), base3)


@pytest.fixture
def f_e1(e3):
    return BusemannField(e3, boundary_direction(e3, [1.0, 0.0, 0.0]), Point(e3, [0, 0, 0]))


class TestValues:
    def test_toward_infinity(self, h3, f_inf):
        assert busemann_value(f_inf, Point(h3, [0, 0, 2])) == pytest.approx(-math.log(2), abs=0)

    def test_finite_point_closed_form(self, h3, base3):
        # ln(5/2) - ln 2 with the basepoint normalization; oracle below
        f = BusemannField(h3, boundary_finite(h3, [1.0, 0.0]), base3)
        val = busemann_value(f, Point(h3, [0, 0, 2]))
        assert val == pytest.approx(math.log(5.0 / 4.0), abs=1e-15)
        # truncation estimator at T=30 as the independent oracle
        oracle = float(f.value_truncated([0, 0, 2], 30.0))
        assert val == pytest.approx(oracle, abs=1e-12)

    def test_basepoint_normalization(self, f_inf, f_origin, f_e1):
        for f in (f_inf, f_origin, f_e1):
            assert busemann_value(f, f.basepoint) == 0.0

    def test_decreases_at_unit_rate_toward_boundary_point(self, h3, f_origin):
        from horoflow.manifold import direction_to_boundary, geodesic

        p = f_origin.basepoint
        v = direction_to_boundary(p, f_origin.xi)
        for t in (0.5, 1.0, 2.5):
            assert busemann_value(f_origin, geodesic(p, v, t)) == pytest.approx(-t, abs=1e-12)

    def test_euclidean_linear(self, e3, f_e1):
        assert busemann_value(f_e1, Point(e3, [2.0, 3.0, -4.0])) == -2.0


class TestTruncation:
    def test_monotone_and_convergent(self, h3, f_origin, rng):
        x = Point(h3, [0.7, -0.3, 1.4])
        ts = [1.0, 2.0, 5.0, 10.0, 20.0]
        vals = [float(f_origin.value_truncated(x.coords, T)) for T in ts]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(busemann_value(f_origin, x), abs=1e-8)

    def test_basepoint_gap_vanishes(self, f_origin):
        for T in (2.0, 8.0, 20.0):
            v = float(f_origin.value_truncated(f_origin.basepoint.coords, T))
            assert 0.0 <= v <= 1e-8 or abs(v) <= 1e-8

    def test_euclidean_on_axis_exact_off_axis_bounded(self, e3, f_e1):
        # on the ray axis the pre-limit value is already exact
        on_axis = Point(e3, [2.0, 0.0, 0.0])
        for T in (5.0, 9.0):
            assert f_e1.value_truncated(on_axis.coords, T) == pytest.approx(-2.0, abs=1e-12)
        # off the axis the gap obeys sqrt((T-s)^2+rho^2) - (T-s) <= rho^2/(2(T-s))
        off = Point(e3, [1.0, 2.0, 0.0])
        for T in (10.0, 40.0):
            gap = float(f_e1.value_truncated(off.coords, T)) - busemann_value(f_e1, off)
            assert 0.0 < gap <= 4.0 / (2.0 * (T - 1.0)) + 1e-12

    def test_nonpositive_horizon_rejected(self, f_inf, base3):
        with pytest.raises(GeometryError):
            f_inf.value_truncated(base3.coords, 0.0)


class TestGradients:
    def test_toward_infinity_chart_form(self, h3, f_inf):
        for z in (0.5, 1.0, 3.0):
            g = f_inf.grad_chart([0, 0, z])
            assert np.allclose(g, [0, 0, -z], atol=1e-14)

    def test_opposite_fields_cancel_on_axis(self, h3, f_inf, f_origin):
        for z in (0.5, 1.0, 3.0):
            g_up = f_origin.grad_chart([0, 0, z])
            g_dn = f_inf.grad_chart([0, 0, z])
            assert np.allclose(g_up + g_dn, 0.0, atol=1e-14)

    def test_euclidean_constant(self, e3, f_e1, rng):
        for c in e3.random_points(rng, 5, 2.0):
            assert np.allclose(f_e1.grad_chart(c), [-1, 0, 0], atol=0)

    def test_unit_norm_everywhere(self, h3, f_origin, f_inf, rng):
        pts = h3.random_points(rng, 400, 1.2)
        for f in (f_origin, f_inf):
            norms = h3.norm(pts, f.grad_chart(pts))
            assert np.max(np.abs(norms - 1.0)) <= 1e-9

    def test_matches_finite_differences(self, h3, f_origin, rng):
        for c in h3.random_points(rng, 10, 0.8):
            z = c[-1]
            chart_grad = fd_jacobian(f_origin.value, c, step=1e-5 * z)[0]
            assert np.max(np.abs(z * z * chart_grad - f_origin.grad_chart(c))) <= 1e-8

    @pytest.mark.parametrize("model", [ModelSpace(kind, n) for kind in (HYPERBOLIC, EUCLIDEAN)
                                       for n in range(2, 9)], ids=lambda m: f"{m.kind[0]}{m.dim}")
    def test_gradient_is_the_raised_differential_of_the_value(self, model):
        for f in _finite_and_infinite_poles(model):
            assert _raised_gradient_gap(f, model.random_points(np.random.default_rng(5), 20, 0.8)) <= 1e-8

    @pytest.mark.parametrize("model", [ModelSpace(HYPERBOLIC, 3), ModelSpace(EUCLIDEAN, 3)],
                             ids=lambda m: f"{m.kind[0]}{m.dim}")
    def test_reversed_gradient_fails_the_raised_differential(self, model, monkeypatch):
        exact = BusemannField._grad
        monkeypatch.setattr(BusemannField, "_grad", lambda f, coords: -exact(f, coords))
        for f in _finite_and_infinite_poles(model):
            assert _raised_gradient_gap(f, model.random_points(np.random.default_rng(5), 20, 0.8)) >= 1.0

    def test_directional_derivative_along_gradient_is_one(self, h3, f_origin, rng):
        from horoflow.numerics import fd_directional

        for c in h3.random_points(rng, 5, 0.8):
            g = f_origin.grad_chart(c)
            val = fd_directional(f_origin.value, c, g)
            # df(grad b) = |grad b|^2 = 1
            assert val == pytest.approx(1.0, abs=1e-8)


def _finite_and_infinite_poles(model):
    """Busemann fields of a finite pole and of infinity in H^n; of two directions in E^n."""
    if model.is_hyperbolic:
        return (BusemannField(model, boundary_finite(model, np.linspace(0.4, -0.3, model.dim - 1))),
                BusemannField(model, boundary_infinity(model)))
    u = np.linspace(1.0, 0.2, model.dim)
    return (BusemannField(model, boundary_direction(model, u)),
            BusemannField(model, boundary_direction(model, np.roll(u, 1))))


def _raised_gradient_gap(f, pts):
    """Largest Riemannian length of grad_chart minus the finite-difference
    differential of ``value`` with its index raised by the metric (z^2 I in the
    half-space), the step scaled by z."""
    z = pts[:, -1] if f.model.is_hyperbolic else np.ones(len(pts))
    db, _ = fd_jacobian(f.value, pts, step=1e-5 * z)
    gap = f.grad_chart(pts) - (z * z)[:, None] * db
    return float(np.max(f.model.norm(pts, gap)))


def _fd_shape_operator(f, c):
    """Independent oracle: chart second differences plus the metric correction."""
    z = c[-1]
    n = c.size
    d2 = fd_hessian(f.value, c, step=1e-4 * z)
    db = fd_jacobian(f.value, c, step=1e-5 * z)[0]
    hess = d2.copy()
    hess[-1, :] += db / z
    hess[:, -1] += db / z
    hess -= np.eye(n) * (db[-1] / z)
    return z * z * hess


class TestHessians:
    def test_eigenvalues_h3(self, h3, f_origin, f_inf, rng):
        for f in (f_origin, f_inf):
            for c in h3.random_points(rng, 10, 1.0):
                H = f.hessian_matrix(c)
                assert np.allclose(np.linalg.eigvalsh(H), [0.0, 1.0, 1.0], atol=1e-12)
                assert np.trace(H) == pytest.approx(2.0, abs=1e-12)
                g = f.grad_chart(c)
                assert np.max(np.abs(H @ g)) <= 1e-12

    def test_eigenvalues_h2(self, h2, rng):
        f = BusemannField(h2, boundary_finite(h2, [0.3]), Point(h2, [0, 1]))
        for c in h2.random_points(rng, 10, 1.0):
            ev = np.linalg.eigvalsh(f.hessian_matrix(c))
            assert np.allclose(ev, [0.0, 1.0], atol=1e-12)

    def test_euclidean_zero(self, e3, f_e1):
        H = f_e1.hessian_matrix([1.0, 2.0, 3.0])
        assert np.array_equal(H, np.zeros((3, 3)))
        assert np.array_equal(f_e1.hessian_matrix(np.ones((4, 3))), np.zeros((4, 3, 3)))

    @pytest.mark.parametrize("n", range(2, 9), ids=lambda n: f"h{n}")
    def test_matches_fd_oracle(self, n, rng):
        m = ModelSpace(HYPERBOLIC, n)
        base = Point(m, np.r_[np.zeros(n - 1), 1.0])
        for xi in (boundary_finite(m, np.linspace(0.4, -0.3, n - 1)), boundary_infinity(m)):
            f = BusemannField(m, xi, base)
            pts = m.random_points(rng, 5, 0.8)
            batch = f.hessian_matrix(pts)
            assert batch.shape == (5, n, n)
            for c, H in zip(pts, batch):
                assert np.array_equal(H, f.hessian_matrix(c))
                assert np.max(np.abs(_fd_shape_operator(f, c) - H)) <= 1e-6

    def test_symmetric_psd(self, h3, f_origin, rng):
        for c in h3.random_points(rng, 20, 1.0):
            U = f_origin.hessian_matrix(c)
            assert np.max(np.abs(U - U.T)) <= 1e-12
            assert np.linalg.eigvalsh(U)[0] >= -1e-12


class TestMeanCurvature:
    def test_exact_values(self, h2, h3, e3):
        assert mean_curvature_h(h3) == 2.0
        assert mean_curvature_h(h2) == 1.0
        assert mean_curvature_h(e3) == 0.0
        assert mean_curvature_h(ModelSpace("euclidean", 5)) == 0.0
        assert mean_curvature_h(ModelSpace(HYPERBOLIC, 5)) == 4.0

    def test_estimator_constancy(self, h3, f_origin, rng):
        mean, std = estimate_h(f_origin, h3.random_points(rng, 100, 1.0))
        assert mean == pytest.approx(2.0, abs=1e-9)
        assert std <= 1e-6

    def test_estimator_h2(self, h2, rng):
        f = BusemannField(h2, boundary_infinity(h2), Point(h2, [0, 1]))
        mean, std = estimate_h(f, h2.random_points(rng, 100, 1.0))
        assert mean == pytest.approx(1.0, abs=1e-9)
        assert std <= 1e-6


class TestBeta:
    def test_axis_value(self, h3, f_origin, f_inf):
        for z in (0.3, 1.0, 4.0):
            assert beta(f_origin, f_inf, Point(h3, [0, 0, z])) == pytest.approx(-1.0, abs=1e-14)

    def test_same_field(self, h3, f_origin):
        assert beta(f_origin, f_origin, Point(h3, [0.4, 0.1, 0.8])) == pytest.approx(1.0, abs=1e-12)

    def test_separation_closed_form(self, h3, f_origin, f_inf, rng):
        # beta = 1 - 2 e^{-s} where s = b1 + b2 (c0 = 0 for this pair)
        for c in h3.random_points(rng, 25, 1.0):
            x = Point(h3, c)
            s = busemann_value(f_origin, x) + busemann_value(f_inf, x)
            assert beta(f_origin, f_inf, x) == pytest.approx(1.0 - 2.0 * math.exp(-s), abs=1e-12)

    def test_matches_fd_gradients(self, h3, f_origin, f_inf, rng):
        for c in h3.random_points(rng, 5, 0.8):
            z = c[-1]
            g1 = z * z * fd_jacobian(f_origin.value, c, step=1e-5 * z)[0]
            g2 = z * z * fd_jacobian(f_inf.value, c, step=1e-5 * z)[0]
            fd_beta = float(h3.inner(c, g1, g2))
            assert beta(f_origin, f_inf, Point(h3, c)) == pytest.approx(fd_beta, abs=1e-8)

    def test_range(self, h3, f_origin, f_inf, rng):
        vals = beta(f_origin, f_inf, h3.random_points(rng, 500, 1.5))
        assert np.all(vals >= -1.0) and np.all(vals < 1.0)


@pytest.mark.parametrize("pair_op", [
    lambda f1, f2: PairFlow(f1, f2, "difference"),
    make_pair_config,
    lambda f1, f2: beta(f1, f2, np.array([[0.0, 0.0, 1.0]])),
    lambda f1, f2: sublevel_bounded_probe(f1, f2, 0.5, 0.5),
], ids=["PairFlow", "make_pair_config", "beta", "sublevel_bounded_probe"])
def test_fields_of_two_models_are_rejected(pair_op):
    h3, h4 = ModelSpace(HYPERBOLIC, 3), ModelSpace(HYPERBOLIC, 4)
    f3 = BusemannField(h3, boundary_finite(h3, np.zeros(2)))
    f4 = BusemannField(h4, boundary_infinity(h4))
    for f1, f2 in ((f3, f4), (f4, f3)):
        with pytest.raises(ModelMismatchError):
            pair_op(f1, f2)


@settings(max_examples=40, deadline=None)
@given(x=st.floats(-2, 2), y=st.floats(-2, 2), z=st.floats(0.1, 5),
       t1=st.floats(1, 10), t2=st.floats(10, 25))
def test_truncation_monotone_property(x, y, z, t1, t2):
    h3 = ModelSpace(HYPERBOLIC, 3)
    base = Point(h3, [0.0, 0.0, 1.0])
    f = BusemannField(h3, boundary_finite(h3, [1.0, 0.0]), base)
    pt = Point(h3, [x, y, z])
    assert f.value_truncated(pt.coords, t1 + t2) <= f.value_truncated(pt.coords, t1) + 1e-12


class TestHorosphereSpheres:
    def test_finite_point_sphere(self, h3, base3):
        f = BusemannField(h3, boundary_finite(h3, [1.0, 0.0]), base3)
        kind, center, radius = horosphere_sphere(f, math.log(5.0 / 4.0))
        assert kind == "sphere"
        assert np.allclose(center, [1.0, 0.0, 1.25], atol=1e-14)
        assert radius == pytest.approx(1.25, abs=1e-14)

    def test_infinity_plane(self, h3, base3):
        f = BusemannField(h3, boundary_infinity(h3), base3)
        kind, height = horosphere_sphere(f, math.log(2.0))
        assert kind == "plane"
        assert height == pytest.approx(0.5, abs=1e-15)

    def test_sphere_points_lie_on_level(self, h3, base3, rng):
        f = BusemannField(h3, boundary_finite(h3, [0.5, -0.7]), base3)
        level = 0.37
        kind, center, radius = horosphere_sphere(f, level)
        thetas = rng.uniform(0, 2 * math.pi, 20)
        phis = rng.uniform(0.1, math.pi - 0.1, 20)
        pts = center + radius * np.stack(
            [np.sin(phis) * np.cos(thetas), np.sin(phis) * np.sin(thetas), np.cos(phis)], axis=-1)
        assert np.max(np.abs(f.value(pts) - level)) <= 1e-10


class TestVisibility:
    def test_hyperbolic_bounded(self, h3, f_origin, f_inf):
        rep = sublevel_bounded_probe(f_origin, f_inf, 0.5, 0.5, rays=48, t_max=50.0,
                                     rng=np.random.default_rng(4))
        assert rep.bounded
        assert math.isfinite(rep.max_exit_time)

    def test_euclidean_unbounded(self, e3, f_e1):
        f2 = BusemannField(e3, boundary_direction(e3, [0.0, 1.0, 0.0]), Point(e3, [0, 0, 0]))
        rep = sublevel_bounded_probe(f_e1, f2, 0.5, 0.5, rays=48, t_max=50.0,
                                     rng=np.random.default_rng(4))
        assert not rep.bounded
        assert rep.escaping_direction is not None

    def test_euclidean_opposite_directions_unbounded(self, e3, f_e1):
        f2 = BusemannField(e3, boundary_direction(e3, [-1.0, 0.0, 0.0]), Point(e3, [0, 0, 0]))
        rep = sublevel_bounded_probe(f_e1, f2, 0.5, 0.5, rays=48, t_max=50.0,
                                     rng=np.random.default_rng(4))
        assert not rep.bounded


class TestCoareaSlicing:
    def test_euclidean_exact(self, e3):
        f_dir = BusemannField(e3, boundary_direction(e3, [1.0, 0.0, 0.0]), Point(e3, [0, 0, 0]))
        bump = TestFunction(Point(e3, [0.3, 0.2, -0.1]), 0.7)
        val = coarea_slice_integral(bump, f_dir, t_nodes=60, x_nodes=48)
        assert val == pytest.approx(exact_euclidean_integral(bump), abs=1e-6)

    def test_hyperbolic_against_mc(self, h3, base3, f_inf):
        # against the bump's integral in geodesic polar coordinates
        bump = TestFunction(base3, 0.5)
        sliced = coarea_slice_integral(bump, f_inf, t_nodes=64, x_nodes=48)
        assert sliced == pytest.approx(bump.integral(), rel=1e-10, abs=0)

    def test_oblique_slicing_direction(self, e3):
        u = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        f_dir = BusemannField(e3, boundary_direction(e3, u), Point(e3, [0, 0, 0]))
        bump = TestFunction(Point(e3, [0.1, -0.2, 0.3]), 0.6)
        val = coarea_slice_integral(bump, f_dir, t_nodes=60, x_nodes=48)
        assert val == pytest.approx(exact_euclidean_integral(bump), abs=1e-6)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_euclidean_closed_form_all_dimensions(self, n):
        e = ModelSpace(EUCLIDEAN, n)
        u = np.arange(1.0, n + 1.0)
        f_dir = BusemannField(e, boundary_direction(e, u / np.linalg.norm(u)), Point(e, np.zeros(n)))
        bump = TestFunction(Point(e, np.linspace(-0.3, 0.4, n)), 0.7)
        val = coarea_slice_integral(bump, f_dir, t_nodes=64, x_nodes=48)
        assert val == pytest.approx(exact_euclidean_integral(bump), rel=1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_hyperbolic_polar_integral_all_dimensions(self, n):
        h = ModelSpace(HYPERBOLIC, n)
        f_inf = BusemannField(h, boundary_infinity(h), Point(h, np.r_[np.zeros(n - 1), 1.0]))
        R = 0.7
        bump = TestFunction(Point(h, np.r_[np.full(n - 1, 0.2), 1.3]), R)
        val = coarea_slice_integral(bump, f_inf, t_nodes=64, x_nodes=48)
        # geodesic polar coordinates: |S^{n-1}| int_0^R (1 - (rho/R)^2)^3 sinh^{n-1}(rho) drho
        assert val == pytest.approx(bump.integral(), rel=1e-12)

    @pytest.mark.parametrize("kind", [HYPERBOLIC, EUCLIDEAN])
    def test_bump_evaluated_once_on_every_node(self, kind):
        n = 4
        m = ModelSpace(kind, n)
        xi = boundary_infinity(m) if m.is_hyperbolic else boundary_direction(m, np.eye(n)[0])
        field = BusemannField(m, xi, Point(m, np.r_[np.zeros(n - 1), 1.0]))
        bump = TestFunction(Point(m, np.r_[np.zeros(n - 1), 1.0]), 0.5)
        shapes = []

        class CountingBump:
            center, radius = bump.center, bump.radius

            def __call__(self, coords):
                shapes.append(np.shape(coords))
                return bump(coords)

        coarea_slice_integral(CountingBump(), field, t_nodes=20, x_nodes=12)
        assert shapes == [(20 * 12, n)]

    @staticmethod
    def _map_and_bump(kind, n, t0=1.0):
        """The map F from (0, ..., 0, 1) a distance t0 down (along e_0 in E^n), and a
        bump of radius 0.3 on its normal above the image threshold."""
        m = ModelSpace(kind, n)
        p = np.r_[np.zeros(n - 1), 1.0]
        q = p * np.r_[np.ones(n - 1), math.exp(-t0)] if m.is_hyperbolic else p + t0 * np.eye(n)[0]
        F = VolumePreservingMap(m, Point(m, p), Point(m, q))
        level = F.image_threshold + 1.0 if m.is_hyperbolic else 0.5
        return F, TestFunction(Point(m, NormalFlow(F.field)(level, p)), 0.3)

    @pytest.mark.parametrize("kind, n", [(HYPERBOLIC, 2), (HYPERBOLIC, 5), (EUCLIDEAN, 3), (EUCLIDEAN, 8)])
    def test_pulled_bump_keeps_its_integral(self, kind, n):
        # F preserves volume, so the bump pulled back by F keeps its polar integral
        F, bump = self._map_and_bump(kind, n)
        val = coarea_slice_integral(bump, F.field, pull=F, t_nodes=64, x_nodes=48)
        assert val == pytest.approx(bump.integral(), rel=1e-10, abs=0)

    @pytest.mark.parametrize("kind", [HYPERBOLIC, EUCLIDEAN])
    def test_map_that_moves_xbar_raises(self, kind):
        F, bump = self._map_and_bump(kind, 3)

        class Sheared:
            t0, inverse_coords = F.t0, F.inverse_coords

            def apply_coords(self, coords):
                out = F.apply_coords(coords)
                out[..., :2] *= 1.0 + 1e-9
                return out

        with pytest.raises(GeometryError, match="moves slice nodes off their slice"):
            coarea_slice_integral(bump, F.field, pull=Sheared(), t_nodes=16, x_nodes=8)

    def test_collapsed_node_column_names_t0(self):
        # F translates by t0 = 1e16, where the preimage column has no room in float64
        F, bump = self._map_and_bump(EUCLIDEAN, 3, t0=1e16)
        with pytest.raises(GeometryError, match=r"not strictly increasing in float64 at t0 = 1e\+16"):
            coarea_slice_integral(bump, F.field, pull=F, t_nodes=64, x_nodes=48)

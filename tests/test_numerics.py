"""Numerical engines: finite differences, quadrature, Monte Carlo, ODE."""

import math

import numpy as np
import pytest

from horoflow.manifold import EUCLIDEAN, HYPERBOLIC, ModelSpace, Point
from horoflow.numerics import (
    ConvergenceError,
    TestFunction,
    fd_directional,
    fd_gradient,
    fd_hessian,
    fd_jacobian,
    gauss_legendre,
    integrate_region,
    mc_integrate_box,
    ode_integrate,
    periodic_trapezoid,
    sphere_rule,
    unit_sphere_area,
)


class TestFiniteDifferences:
    def test_gradient_of_log_height(self):
        g = fd_gradient(lambda x: -math.log(x[-1]), np.array([0.0, 0.0, 2.0]))
        assert np.max(np.abs(g - [0, 0, -0.5])) <= 1e-8

    def test_jacobian_of_identity(self):
        batches = []

        def identity(pts):
            batches.append(pts.shape)
            return pts.copy()

        J, center = fd_jacobian(identity, np.array([1.0, 2.0, 3.0]))
        assert np.max(np.abs(J - np.eye(3))) <= 1e-9
        assert np.all(center == [1.0, 2.0, 3.0])
        assert batches == [(13, 3)]  # the whole stencil, center included, in one call

    def test_hessian_quadratic_exact_structure(self):
        A = np.array([[2.0, 0.5, 0.0], [0.5, -1.0, 0.3], [0.0, 0.3, 0.7]])
        H = fd_hessian(lambda x: 0.5 * x @ A @ x, np.array([0.3, -0.2, 1.1]))
        assert np.max(np.abs(H - A)) <= 1e-7

    def test_richardson_improves_order(self):
        fn = lambda x: math.sin(x[0]) * math.exp(x[1])
        x0 = np.array([0.7, -0.3])
        exact = np.array([math.cos(0.7) * math.exp(-0.3), math.sin(0.7) * math.exp(-0.3)])
        h = 1e-3
        coarse = np.array([(fn(x0 + h * e) - fn(x0 - h * e)) / (2.0 * h) for e in np.eye(2)])
        fine = fd_gradient(fn, x0, step=h)
        assert np.max(np.abs(fine - exact)) < np.max(np.abs(coarse - exact))

    def test_directional(self):
        fn = lambda x: x[0] ** 2 + 3.0 * x[1]
        val = fd_directional(fn, np.array([1.0, 2.0]), np.array([2.0, 1.0]))
        assert val == pytest.approx(2 * 1 * 2 + 3 * 1, abs=1e-8)


class TestQuadrature:
    def test_periodic_trapezoid_smooth_integrand(self):
        # smooth periodic integrand: spectral accuracy at 64 nodes
        rule = periodic_trapezoid(64)
        val = rule.integrate(3.0 / (3.0 * np.sin(rule.nodes) + 5.0))
        assert abs(val - 1.5 * math.pi) <= 1e-12

    def test_gauss_legendre_polynomial_exact(self):
        rule = gauss_legendre(8, -1.0, 3.0)
        val = rule.integrate(rule.nodes ** 7 - 2.0 * rule.nodes ** 3)
        exact = (3.0 ** 8 - 1.0) / 8.0 - 2.0 * (3.0 ** 4 - 1.0) / 4.0
        assert val == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_sphere_rule_total_measure(self, m):
        rule = sphere_rule(m, 24)
        assert np.all(rule.weights > 0)
        assert rule.weights.sum() == pytest.approx(unit_sphere_area(m), rel=1e-12)
        assert np.max(np.abs(np.linalg.norm(np.atleast_2d(rule.nodes), axis=-1) - 1.0)) <= 1e-14

    def test_sphere_rule_linear_functional_vanishes(self):
        rule = sphere_rule(2, 32)
        moments = rule.nodes.T @ rule.weights
        assert np.max(np.abs(moments)) <= 1e-12


class TestODE:
    def test_rk4_exponential(self):
        end = ode_integrate(lambda x: -x, np.array([1.0]), 2.0, step=1e-3)
        assert end[0] == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_batch_states(self):
        starts = np.array([[1.0], [2.0], [-0.5]])
        ends = ode_integrate(lambda x: -x, starts, 1.0, step=1e-3)
        assert np.max(np.abs(ends - starts * math.exp(-1.0))) <= 1e-11

    def test_negative_duration(self):
        end = ode_integrate(lambda x: -x, np.array([1.0]), -1.0, step=1e-3)
        assert end[0] == pytest.approx(math.e, abs=1e-11)

    def test_adaptive_matches_fixed(self):
        field = lambda x: np.array([x[1], -x[0]])
        x0 = np.array([1.0, 0.0])
        fixed = ode_integrate(field, x0, 3.0, step=1e-3)
        adaptive = ode_integrate(field, x0, 3.0, adaptive=True, rtol=1e-12)
        assert np.max(np.abs(fixed - adaptive)) <= 1e-9
        assert np.max(np.abs(adaptive - [math.cos(3.0), -math.sin(3.0)])) <= 1e-10

    def test_adaptive_underflow_raises(self):
        # field blows up in finite time; the step controller must give up
        field = lambda x: np.array([1.0 / max(1.0 - x[0], 1e-300) ** 2])
        with pytest.raises(ConvergenceError):
            ode_integrate(field, np.array([0.0]), 5.0, adaptive=True, rtol=1e-12, min_step=1e-9)

    def test_record_trajectory(self):
        ts, xs = ode_integrate(lambda x: -x, np.array([1.0]), 0.01, step=1e-3, record=True)
        assert len(ts) == len(xs) == 11
        assert ts[0] == 0.0 and ts[-1] == pytest.approx(0.01)


class TestMonteCarlo:
    def test_euclidean_bump_value(self, e3):
        bump = TestFunction(Point(e3, [0.2, -0.1, 0.4]), 0.8)
        lo, hi = bump.support_chart_box()
        est = mc_integrate_box(lambda p: bump(p), lo, hi, 200_000, seed=123)
        assert est.agrees_with(bump.exact_euclidean_integral(), sigmas=3.0)

    def test_error_scaling_sqrt2(self, e3):
        bump = TestFunction(Point(e3, [0.0, 0.0, 0.0]), 0.6)
        lo, hi = bump.support_chart_box()
        e1 = mc_integrate_box(lambda p: bump(p), lo, hi, 100_000, seed=5)
        e2 = mc_integrate_box(lambda p: bump(p), lo, hi, 200_000, seed=5)
        ratio = e1.standard_error / e2.standard_error
        assert abs(ratio - math.sqrt(2.0)) <= 0.2 * math.sqrt(2.0)

    def test_different_seeds_differ(self, e3):
        bump = TestFunction(Point(e3, [0.0, 0.0, 0.0]), 0.6)
        lo, hi = bump.support_chart_box()
        a = mc_integrate_box(lambda p: bump(p), lo, hi, 50_000, seed=1)
        b = mc_integrate_box(lambda p: bump(p), lo, hi, 50_000, seed=2)
        assert a.mean != b.mean

    def test_zero_function(self, e3):
        est = mc_integrate_box(lambda p: np.zeros(p.shape[0]), [0, 0, 0], [1, 1, 1], 10_000, seed=0)
        assert est.mean == 0.0 and est.standard_error == 0.0

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            mc_integrate_box(lambda p: 1.0, [0, 0], [1, 0], 100, seed=0)


class TestIntegrateRegion:
    def test_quadrature_matches_exact(self, e3):
        bump = TestFunction(Point(e3, [0.3, 0.2, -0.1]), 0.7)
        lo, hi = bump.support_chart_box()
        ones = lambda p: np.ones(p.shape[0])
        val = integrate_region(bump, lo, hi, ones, method="quadrature", nodes_per_axis=40)
        assert val == pytest.approx(bump.exact_euclidean_integral(), abs=1e-6)

    def test_mc_and_quadrature_agree(self, h3):
        bump = TestFunction(Point(h3, [0.0, 0.0, 1.0]), 0.5)
        lo, hi = bump.support_chart_box()
        est = integrate_region(bump, lo, hi, h3.volume_density, method="mc",
                               n_samples=150_000, seed=3)
        quad = integrate_region(bump, lo, hi, h3.volume_density, method="quadrature",
                                nodes_per_axis=48)
        assert est.agrees_with(quad, sigmas=3.0)

    def test_support_box_contains_ball(self, h3, rng):
        bump = TestFunction(Point(h3, [0.4, -0.2, 1.5]), 0.8)
        lo, hi = bump.support_chart_box()
        pts = h3.random_points(rng, 2000, 1.0)
        inside_support = bump(pts) > 0
        in_box = np.all((pts >= lo) & (pts <= hi), axis=-1)
        assert np.all(~inside_support | in_box)

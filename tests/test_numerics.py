"""Numerical engines: finite differences, quadrature, Monte Carlo, ODE."""

import itertools
import math

import numpy as np
import pytest

from horoflow.manifold import EUCLIDEAN, HYPERBOLIC, GeometryError, ModelSpace, Point
from horoflow.numerics import (
    MC_BLOCK,
    MCEstimate,
    TestFunction,
    _RK_A,
    _RK_B,
    _philox,
    fd_directional,
    fd_hessian,
    fd_jacobian,
    gauss_legendre,
    mc_integrate_box,
    ode_integrate,
    sphere_rule,
    unit_sphere_area,
)
from horoflow.transport import VolumePreservingMap


class TestFiniteDifferences:
    def test_gradient_of_log_height(self):
        g = fd_jacobian(lambda x: -np.log(x[:, -1]), np.array([0.0, 0.0, 2.0]))[0]
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
        H = fd_hessian(lambda x: 0.5 * np.einsum("...i,ij,...j->...", x, A, x), np.array([0.3, -0.2, 1.1]))
        assert np.max(np.abs(H - A)) <= 1e-7

    def test_hessian_evaluates_its_stencil_in_one_call(self):
        batches = []

        def square_norm(pts):
            batches.append(pts.shape)
            return np.sum(pts * pts, axis=-1)

        H = fd_hessian(square_norm, np.array([1.0, 2.0, 3.0]))
        assert np.max(np.abs(H - 2.0 * np.eye(3))) <= 1e-6
        # center plus 4 points along each of the 3 axes and the 3 pair sums
        assert batches == [(25, 3)]

    def test_directional_evaluates_its_stencil_in_one_call(self):
        batches = []

        def first_coordinate(pts):
            batches.append(pts.shape)
            return pts[:, 0]

        val = fd_directional(first_coordinate, np.array([1.0, 2.0]), np.array([2.0, 1.0]))
        assert val == pytest.approx(2.0, abs=1e-9)
        assert batches == [(5, 2)]

    def test_richardson_improves_order(self):
        fn = lambda x: np.sin(x[..., 0]) * np.exp(x[..., 1])
        x0 = np.array([0.7, -0.3])
        exact = np.array([math.cos(0.7) * math.exp(-0.3), math.sin(0.7) * math.exp(-0.3)])
        h = 1e-3
        coarse = np.array([(fn(x0 + h * e) - fn(x0 - h * e)) / (2.0 * h) for e in np.eye(2)])
        fine = fd_jacobian(fn, x0, step=h)[0]
        assert np.max(np.abs(fine - exact)) < np.max(np.abs(coarse - exact))

    def test_directional(self):
        fn = lambda x: x[..., 0] ** 2 + 3.0 * x[..., 1]
        val = fd_directional(fn, np.array([1.0, 2.0]), np.array([2.0, 1.0]))
        assert val == pytest.approx(2 * 1 * 2 + 3 * 1, abs=1e-8)


class TestQuadrature:
    def test_gauss_legendre_polynomial_exact(self):
        rule = gauss_legendre(8, -1.0, 3.0)
        val = rule.integrate(rule.nodes ** 7 - 2.0 * rule.nodes ** 3)
        exact = (3.0 ** 8 - 1.0) / 8.0 - 2.0 * (3.0 ** 4 - 1.0) / 4.0
        assert val == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_sphere_rule_total_measure(self, m):
        rule = sphere_rule(m)
        assert np.all(rule.weights > 0)
        assert rule.weights.sum() == pytest.approx(unit_sphere_area(m), rel=1e-12)
        assert np.max(np.abs(np.linalg.norm(np.atleast_2d(rule.nodes), axis=-1) - 1.0)) <= 1e-14

    def test_sphere_rule_linear_functional_vanishes(self):
        rule = sphere_rule(2)
        moments = rule.nodes.T @ rule.weights
        assert np.max(np.abs(moments)) <= 1e-12

    @pytest.mark.parametrize("m", range(7))
    def test_sphere_rule_is_a_degree_3_design(self, m):
        rule = sphere_rule(m)
        nodes = np.atleast_2d(rule.nodes)
        area = unit_sphere_area(m)
        assert nodes.shape[0] <= 4 * (m + 1)
        assert np.max(np.abs(np.linalg.norm(nodes, axis=-1) - 1.0)) <= 1e-14
        assert rule.weights.sum() == pytest.approx(area, rel=1e-14)
        # every monomial of degree <= 3; odd ones vanish, the second moments
        # are |S^m|/(m+1) delta_ij
        for degree in range(4):
            for idx in itertools.combinations_with_replacement(range(m + 1), degree):
                exponents = np.bincount(np.array(idx, dtype=int), minlength=m + 1)
                value = rule.integrate(np.prod(nodes ** exponents, axis=-1))
                expected = _sphere_monomial_integral(exponents)
                assert value == pytest.approx(expected, abs=1e-13 * area), exponents
        second = (nodes * rule.weights[:, None]).T @ nodes
        assert np.max(np.abs(second - area / (m + 1) * np.eye(m + 1))) <= 1e-13 * area


def _sphere_monomial_integral(exponents) -> float:
    """Integral of prod x_i^a_i over S^m (Folland 2001): 0 if some a_i is odd,
    else 2 prod Gamma((a_i + 1)/2) / Gamma(sum (a_i + 1)/2)."""
    if any(a % 2 for a in exponents):
        return 0.0
    halves = [(a + 1) / 2.0 for a in exponents]
    return 2.0 * math.prod(math.gamma(h) for h in halves) / math.gamma(sum(halves))


class TestODE:
    def test_tableau_consistent_and_of_order_six_on_quadrature(self):
        # the nodes c_i are the row sums of A; the weights sum to 1 and
        # integrate c^(k-1) exactly for k = 1..6
        c = [math.fsum(row) for row in _RK_A]
        assert c == pytest.approx([0.0, 1 / 3, 2 / 3, 1 / 3, 0.5, 0.5, 1.0], abs=1e-15)
        assert math.fsum(_RK_B) == pytest.approx(1.0, abs=1e-15)
        for k in range(1, 7):
            assert math.fsum(b * ci ** (k - 1) for b, ci in zip(_RK_B, c)) == pytest.approx(1.0 / k, abs=1e-15)
        assert [len(row) for row in _RK_A] == list(range(7)) and len(_RK_B) == 7

    def test_observed_order_is_six(self):
        # halving the step divides the global error by about 2^6 = 64
        errors = [abs(ode_integrate(lambda x: -x, np.array([1.0]), 1.0, step=h)[0] - math.exp(-1.0))
                  for h in (0.1, 0.05)]
        assert 48.0 <= errors[0] / errors[1] <= 80.0

    def test_constant_field_is_exact_to_roundoff(self):
        c = np.array([0.3, -1.7, 2.5])
        x0 = np.array([1.0, 2.0, 3.0])
        for duration in (1.3, -0.7):
            end = ode_integrate(lambda x: np.broadcast_to(c, x.shape), x0, duration)
            assert np.max(np.abs(end - (x0 + duration * c))) <= 1e-12

    def test_exponential_decay(self):
        end = ode_integrate(lambda x: -x, np.array([1.0]), 2.0)
        assert end[0] == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_batch_states(self):
        starts = np.array([[1.0], [2.0], [-0.5]])
        ends = ode_integrate(lambda x: -x, starts, 1.0)
        assert np.max(np.abs(ends - starts * math.exp(-1.0))) <= 1e-11

    def test_negative_duration(self):
        end = ode_integrate(lambda x: -x, np.array([1.0]), -1.0)
        assert end[0] == pytest.approx(math.e, abs=1e-11)

    def test_record_trajectory(self):
        ts, xs = ode_integrate(lambda x: -x, np.array([1.0]), 0.01, step=1e-3, record=True)
        assert len(ts) == len(xs) == 11
        assert ts[0] == 0.0 and ts[-1] == pytest.approx(0.01)

    def test_duration_split_into_whole_steps(self):
        # 2000 steps of 1e-3 do not sum to 2.0 exactly in floating point;
        # the count must still be 2000, with no remainder step (7 field
        # evaluations per step)
        evals = [0]

        def field(x):
            evals[0] += 1
            return -x

        ts, xs = ode_integrate(field, np.array([1.0]), 2.0, step=1e-3, record=True)
        assert len(ts) == len(xs) == 2001
        assert ts[-1] == 2.0
        assert evals[0] == 14000
        assert np.max(np.diff(ts)) <= 1e-3 * (1.0 + 1e-9)
        ts, _ = ode_integrate(lambda x: -x, np.array([1.0]), -1.5, step=1e-3, record=True)
        assert len(ts) == 1501 and ts[-1] == -1.5

    def test_step_longer_than_duration(self):
        ts, _ = ode_integrate(lambda x: -x, np.array([1.0]), 1e-13, step=1e-3, record=True)
        assert len(ts) == 2 and ts[-1] == 1e-13

    def test_nonpositive_step_rejected(self):
        for step in (0.0, -1e-3):
            with pytest.raises(ValueError):
                ode_integrate(lambda x: -x, np.array([1.0]), 1.0, step=step)


class TestMonteCarlo:
    def test_euclidean_bump_value(self, e3):
        bump = TestFunction(Point(e3, [0.2, -0.1, 0.4]), 0.8)
        lo, hi = bump.support_chart_box()
        est = mc_integrate_box(lambda p: bump(p), lo, hi, 200_000, seed=123)
        assert est.pull(bump.exact_euclidean_integral()) <= 3.0

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
        with pytest.raises(GeometryError, match=r"box: lo = \[0.0, 0.0\], hi = \[1.0, 0.0\]"):
            mc_integrate_box(lambda p: 1.0, [0, 0], [1, 0], 100, seed=0)

    def test_empty_sample_rejected(self):
        for n_samples in (0, -1):
            with pytest.raises(ValueError):
                mc_integrate_box(lambda p: p[:, 0], [0, 0], [1, 1], n_samples, seed=0)

    def test_overflowing_square_sum_raises(self):
        with pytest.raises(GeometryError, match="sum of squared integrand values in Monte Carlo block 0"):
            mc_integrate_box(lambda p: np.full(p.shape[0], 1e200), [0, 0], [1, 1], 100, seed=0)

    def test_sample_stream_is_pinned(self):
        # two full blocks and a partial one, against the (seed, block)
        # Philox stream drawn and summed by hand
        lo, hi = np.array([-0.5, 0.2, 1.0]), np.array([0.7, 0.9, 3.5])
        w = np.array([1.5, -2.0, 0.25])
        n, seed = 10_000, 8
        sums, squares, mapped = [], [], []
        for b, count in enumerate((MC_BLOCK, MC_BLOCK, n - 2 * MC_BLOCK)):
            u = _philox(seed, b).random((count, 3))
            mapped.append(lo + u * (hi - lo))
            vals = mapped[-1] @ w
            sums.append(float(np.sum(vals)))
            squares.append(float(np.sum(vals * vals)))
        vol = float(np.prod(hi - lo))
        mean_f = (sums[0] + sums[1] + sums[2]) / n
        var_f = (squares[0] + squares[1] + squares[2]) / n - mean_f * mean_f
        received = []

        def integrand(p):
            received.append(p.copy(order="K"))
            return p @ w

        est = mc_integrate_box(integrand, lo, hi, n, seed)
        assert est.mean == vol * mean_f
        assert est.standard_error == vol * math.sqrt(var_f / n)
        assert est.samples == n and est.seed == seed
        # each block arrives column-major, bit for bit the row-major draw mapped into the box
        assert len(received) == len(mapped)
        for got, want in zip(received, mapped):
            assert got.flags.f_contiguous and np.array_equal(got, want)

    @pytest.mark.parametrize("kind, dim", [(HYPERBOLIC, 3), (EUCLIDEAN, 5)])
    def test_integrands_ignore_block_layout(self, kind, dim):
        # the pieces of the Monte Carlo integrands of verify, on one block
        # and on its column-major copy
        model = ModelSpace(kind, dim)
        p = np.r_[np.zeros(dim - 1), 1.0]
        q = p * np.r_[np.ones(dim - 1), math.exp(-1.0)] if model.is_hyperbolic else p + np.eye(dim)[0]
        F = VolumePreservingMap(model, Point(model, p), Point(model, q))
        bump = TestFunction(Point(model, p), 0.5)
        lo, hi = bump.support_chart_box()
        rows = lo + _philox(3, 0).random((MC_BLOCK, dim)) * (hi - lo)
        cols = np.asfortranarray(rows)
        assert np.array_equal(model.volume_density(cols), model.volume_density(rows))
        moved = F.apply_coords(cols)
        assert moved.flags.f_contiguous and np.array_equal(moved, F.apply_coords(rows))
        if dim < 4:
            assert np.array_equal(bump(cols), bump(rows))
        else:
            # np.vecdot sums a strided row of four or more entries in another
            # order (BLAS), so the squared distance may move by a few ulp
            assert np.max(np.abs(bump(cols) - bump(rows))) <= 8.0 * np.finfo(float).eps


class TestMCPull:
    def test_gap_over_combined_error(self):
        a = MCEstimate(mean=1.0, standard_error=0.3, samples=10, seed=0)
        b = MCEstimate(mean=2.0, standard_error=0.4, samples=10, seed=1)
        assert a.pull(b) == pytest.approx(2.0, abs=1e-15)
        assert a.pull(2.5) == pytest.approx(5.0, abs=1e-15)

    def test_zero_error(self):
        exact = MCEstimate(mean=1.0, standard_error=0.0, samples=1, seed=0)
        assert exact.pull(1.0) == 0.0
        assert exact.pull(exact) == 0.0
        assert exact.pull(1.5) == math.inf


class TestBump:
    def test_one_point_is_a_scalar(self, h3, rng):
        bump = TestFunction(Point(h3, [0.1, -0.2, 1.3]), 0.9)
        pts = bump.center.coords + 0.3 * rng.normal(size=(50, 3))
        batch = bump(pts)
        for p, value in zip(pts, batch):
            single = bump(p)
            assert np.ndim(single) == 0 and single == value

    def test_zero_at_and_beyond_radius(self, e3):
        bump = TestFunction(Point(e3, [0.0, 0.0, 0.0]), 0.5)
        pts = np.array([[0.5, 0.0, 0.0], [0.0, -0.5, 0.0], [0.5000001, 0.0, 0.0], [3.0, 4.0, 0.0]])
        values = bump(pts)
        assert np.all(values == 0.0) and not np.signbit(values).any()
        assert bump(pts[0]) == 0.0

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_integral_matches_mpmath_polar_quadrature(self, dim):
        mp = pytest.importorskip("mpmath")
        h = ModelSpace(HYPERBOLIC, dim)
        center = Point(h, np.r_[np.full(dim - 1, 0.1), 1.2])
        for radius in (0.3, 0.5, 0.7, 2.0):
            with mp.workdps(30):
                R = mp.mpf(radius)
                radial = mp.quad(lambda r: (1 - (r / R) ** 2) ** 3 * mp.sinh(r) ** (dim - 1), [0, R])
                expected = float(2 * mp.pi ** (mp.mpf(dim) / 2) / mp.gamma(mp.mpf(dim) / 2) * radial)
            assert TestFunction(center, radius).integral() == pytest.approx(expected, rel=1e-13, abs=0)

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_integral_matches_euclidean_closed_form(self, dim):
        e = ModelSpace(EUCLIDEAN, dim)
        center = Point(e, np.linspace(-0.4, 0.3, dim))
        for radius in (0.3, 0.5, 0.7, 2.0):
            bump = TestFunction(center, radius)
            assert bump.integral() == pytest.approx(bump.exact_euclidean_integral(), rel=1e-13, abs=0)

    def test_matches_polynomial(self, h3, rng):
        bump = TestFunction(Point(h3, [0.1, -0.2, 1.3]), 0.9)
        pts = bump.center.coords + 0.3 * rng.normal(size=(2000, 3))
        pts[:, -1] = np.abs(pts[:, -1])
        ratio = h3.distance(pts, bump.center.coords) / bump.radius
        inside = ratio < 1.0
        assert inside.sum() > 500
        expected = (1.0 - ratio[inside] ** 2) ** 3
        got = bump(pts)[inside]
        assert np.all(np.abs(got - expected) <= 4.0 * np.spacing(expected))


class TestIntegrateRegion:
    """The chart box that bounds a bump's support: the integration region of
    every Monte Carlo oracle that integrates a bump."""

    def test_support_box_contains_ball(self, h3, rng):
        bump = TestFunction(Point(h3, [0.4, -0.2, 1.5]), 0.8)
        lo, hi = bump.support_chart_box()
        pts = h3.random_points(rng, 2000, 1.0)
        inside_support = bump(pts) > 0
        in_box = np.all((pts >= lo) & (pts <= hi), axis=-1)
        assert np.all(~inside_support | in_box)

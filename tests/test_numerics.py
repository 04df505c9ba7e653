"""Numerical engines: finite differences, quadrature, ODE."""

import itertools
import math
import warnings

import numpy as np
import pytest

from horoflow.manifold import EUCLIDEAN, HYPERBOLIC, ModelSpace, Point
from horoflow.numerics import (
    PICARD_MAX_ITERATIONS,
    PICARD_NODES,
    ConvergenceError,
    TestFunction,
    fd_directional,
    fd_hessian,
    fd_jacobian,
    gauss_legendre,
    ode_integrate,
    orthonormal_complement,
    sphere_rule,
    unit_sphere_area,
    _legendre,
    _picard_nodes,
)

from conftest import exact_euclidean_integral


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

    def test_batched_stencils_equal_one_point_at_a_time(self, rng):
        # P base points with a step each: one call of fn, and bitwise the
        # results of P single-point calls
        fn = lambda x: np.stack([np.sin(x[:, 0]) * x[:, 2], np.exp(x[:, 1]) + x[:, 0] ** 2], axis=-1)
        pts = rng.normal(size=(6, 3))
        steps = rng.uniform(1e-5, 1e-3, size=6)
        directions = rng.normal(size=(6, 3))
        batches = []

        def counted(x):
            batches.append(x.shape)
            return fn(x)

        J, center = fd_jacobian(counted, pts, step=steps)
        assert batches == [(6 * 13, 3)]
        scalar = lambda x: fn(x)[:, 1]
        derivative = fd_directional(scalar, pts, directions, step=1e-4)
        for p, h, d, Jp, cp, dp in zip(pts, steps, directions, J, center, derivative):
            one_J, one_center = fd_jacobian(fn, p, step=h)
            assert np.array_equal(Jp, one_J) and np.array_equal(cp, one_center)
            assert dp == fd_directional(scalar, p, d, step=1e-4)

    def test_directional_along_zero_is_zero(self):
        fn = lambda x: x[..., 0] ** 2
        assert fd_directional(fn, np.array([[1.0, 2.0], [0.5, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]]),
                              step=1e-3) == pytest.approx([0.0, 1.0], abs=1e-9)


class TestOrthonormalComplement:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_rows_are_orthonormal_and_orthogonal_to_u(self, n, rng):
        eye = np.eye(n)
        nearly = eye + 1e-9 * rng.normal(size=(n, n))
        u = np.concatenate([eye, -eye, nearly, -nearly, rng.normal(size=(20, n))])
        u /= np.sqrt(np.einsum("pi,pi->p", u, u))[:, None]
        frames = orthonormal_complement(u)
        assert frames.shape == (u.shape[0], n - 1, n)
        gram = frames @ frames.mT
        assert np.max(np.abs(gram - np.eye(n - 1))) <= 1e-15
        assert np.max(np.abs(frames @ u[:, :, None])) <= 1e-15
        for one, frame in zip(u, frames):
            assert np.array_equal(orthonormal_complement(one), frame)

    def test_axis_vectors_give_the_other_axes(self):
        assert np.array_equal(orthonormal_complement([0.0, 1.0, 0.0]), [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(orthonormal_complement([0.0, -1.0]), [[1.0, 0.0]])


class TestQuadrature:
    def test_gauss_legendre_polynomial_exact(self):
        rule = gauss_legendre(8, -1.0, 3.0)
        val = rule.integrate(rule.nodes ** 7 - 2.0 * rule.nodes ** 3)
        exact = (3.0 ** 8 - 1.0) / 8.0 - 2.0 * (3.0 ** 4 - 1.0) / 4.0
        assert val == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("n", [40, 48, 64])
    def test_legendre_rule_matches_mpmath(self, n):
        # 40-digit rule: Newton on the three-term recurrence from the
        # asymptotic nodes cos(pi (i - 1/4) / (n + 1/2)), weights 2 / ((1 - x^2) P_n'^2)
        mp = pytest.importorskip("mpmath")

        def p_and_dp(x):
            p, q = x, mp.mpf(1)
            for k in range(1, n):
                p, q = ((2 * k + 1) * x * p - k * q) / (k + 1), p
            return p, n * (q - x * p) / (1 - x * x)

        x, w = _legendre(n)
        with mp.workdps(40):
            node_error = weight_error = mp.mpf(0)
            for i, a, b in zip(range(n, 0, -1), x, w):
                ref = mp.cos(mp.pi * (i - mp.mpf(1) / 4) / (n + mp.mpf(1) / 2))
                for _ in range(50):
                    p, dp = p_and_dp(ref)
                    ref -= p / dp
                    if abs(p / dp) < mp.mpf(10) ** -38:
                        break
                ref_w = 2 / ((1 - ref * ref) * p_and_dp(ref)[1] ** 2)
                node_error = max(node_error, abs(mp.mpf(float(a)) - ref))
                weight_error = max(weight_error, abs(mp.mpf(float(b)) / ref_w - 1))
        assert node_error <= 2.3e-16
        assert weight_error <= 5e-13
        assert not x.flags.writeable and not w.flags.writeable

    def test_picard_matrix_equals_numpy_chebyshev_construction(self):
        # the Picard stop rule is sensitive to the last bit of S
        from numpy.polynomial import chebyshev as cheb

        tau, S = _picard_nodes()
        want = cheb.chebvander(tau, PICARD_NODES + 1) @ cheb.chebint(np.eye(PICARD_NODES + 1), lbnd=-1.0) \
            @ np.linalg.inv(cheb.chebvander(tau, PICARD_NODES))
        want[0] = 0.0
        assert np.array_equal(S, want)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_sphere_rule_total_measure(self, m):
        rule = sphere_rule(m)
        assert np.all(rule.weights > 0)
        assert rule.weights.sum() == pytest.approx(unit_sphere_area(m), rel=1e-12)
        assert np.max(np.abs(np.linalg.norm(np.atleast_2d(rule.nodes), axis=-1) - 1.0)) <= 1e-14

    def test_sphere_rule_is_built_once_and_read_only(self):
        rule = sphere_rule(3)
        assert sphere_rule(3) is rule
        assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable
        assert not sphere_rule(0).nodes.flags.writeable
        with pytest.raises(ValueError):
            rule.nodes[0, 0] = 2.0

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
    def test_exponential_decay(self):
        for duration in (0.3, 1.0, 2.0, 3.7):
            end = ode_integrate(lambda x: -x, np.array([1.0]), duration)
            assert end[0] == pytest.approx(math.exp(-duration), rel=1e-14, abs=0.0)

    def test_constant_field_is_exact_to_roundoff(self):
        c = np.array([0.3, -1.7, 2.5])
        x0 = np.array([1.0, 2.0, 3.0])
        for duration in (1.3, -0.7):
            end = ode_integrate(lambda x: np.broadcast_to(c, x.shape), x0, duration)
            assert np.max(np.abs(end - (x0 + duration * c))) <= 1e-14

    def test_quadratic_field_up_to_its_pole(self):
        # x' = x^2 from 1 is 1/(1 - t): 10 at t = 0.9, a pole 0.1 away; on the
        # second of the two 0.45-long segments N = 24 nodes give about 1e-11
        end = ode_integrate(lambda x: x * x, np.array([1.0]), 0.9)
        assert end[0] == pytest.approx(10.0, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("duration", [1.01, 1.2, 2.0])
    def test_blow_up_raises_without_warnings(self, duration):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError):
                ode_integrate(lambda x: x * x, np.array([1.0]), duration)

    def test_iteration_cap_raises(self):
        # every correction of a field that changes with each call is large
        calls = []

        def restless(x):
            calls.append(1)
            return np.full_like(x, float(len(calls)))

        with pytest.raises(ConvergenceError, match="did not converge"):
            ode_integrate(restless, np.array([1.0]), 0.5)
        assert len(calls) == PICARD_MAX_ITERATIONS

    def test_batch_states(self):
        starts = np.array([[1.0], [2.0], [-0.5]])
        ends = ode_integrate(lambda x: -x, starts, 1.0)
        assert np.max(np.abs(ends - starts * math.exp(-1.0))) <= 1e-14

    @pytest.mark.parametrize("field, starts", [
        (lambda x: np.stack([x[..., 1], -np.sin(x[..., 0])], axis=-1),
         [[0.1, 0.0], [1.0, 0.5], [2.5, -0.3], [3.0, 0.0]]),
        # x' = -x^3 stiffens with |x|: these rows stop after very different numbers of iterations
        (lambda x: -x ** 3, [[0.1], [1.5], [-0.7], [1.0]]),
    ])
    def test_rows_do_not_depend_on_the_batch(self, field, starts):
        # a row's states are bitwise those of its own integration, on the
        # record grid as well
        starts = np.array(starts)
        _, together = ode_integrate(field, starts, 2.0, record=True)
        for i, start in enumerate(starts):
            _, alone = ode_integrate(field, start, 2.0, record=True)
            assert np.array_equal(together[:, i], alone)

    def test_rows_leave_after_their_end_times(self):
        # each row's states are bitwise those of its own run over the whole span up to
        # its end time, NaN after it, and the field sees only the rows still integrated
        starts, ends = np.array([[0.1], [1.5], [-0.7], [1.0]]), np.array([2.0, 1.5, 0.8, 0.8])
        seen = []

        def field(x):
            seen.append(x.shape[1])
            return -x ** 3

        ts, together = ode_integrate(field, starts, ends, record=True)
        assert len(ts) == 201 and ts[-1] == 2.0
        assert [rows for rows, _ in itertools.groupby(seen)] == [4, 2, 1]
        for i, (start, end) in enumerate(zip(starts, ends)):
            _, alone = ode_integrate(lambda x: -x ** 3, start, 2.0, record=True)
            k = round(end * 100)
            assert np.array_equal(together[: k + 1, i], alone[: k + 1])
            assert np.isnan(together[k + 1:, i]).all()

    def test_negative_end_times(self):
        starts = np.array([[1.0], [2.0]])
        ts, states = ode_integrate(lambda x: -x, starts, np.array([-1.0, -0.5]), record=True)
        assert ts[-1] == -1.0 and np.isnan(states[51:, 1]).all()
        assert states[100, 0, 0] == pytest.approx(math.e, rel=1e-14)
        assert states[50, 1, 0] == pytest.approx(2.0 * math.exp(0.5), rel=1e-14)

    @pytest.mark.parametrize("ends, record, match", [
        ([0.8, 2.0], True, "non-increasing"),
        ([1.0, -0.5], True, "one sign"),
        ([1.0, math.nan], True, "finite"),
        ([2.0, 1.0], False, "record=True"),
        ([2.0, 1.0, 0.5], True, "one end time per row"),
    ])
    def test_bad_end_times_raise(self, ends, record, match):
        with pytest.raises(ValueError, match=match):
            ode_integrate(lambda x: -x, np.array([[1.0], [2.0]]), np.array(ends), record=record)

    def test_negative_duration(self):
        end = ode_integrate(lambda x: -x, np.array([1.0]), -1.0)
        assert end[0] == pytest.approx(math.e, rel=1e-14)

    def test_record_trajectory(self):
        ts, xs = ode_integrate(lambda x: -x, np.array([1.0]), 0.01, step=1e-3, record=True)
        assert len(ts) == len(xs) == 11
        assert ts[0] == 0.0 and ts[-1] == pytest.approx(0.01)

    def test_duration_split_into_whole_steps(self):
        # 2000 steps of 1e-3 do not sum to 2.0 exactly in floating point;
        # the grid must still have 2000 steps, with no remainder step; four
        # segments of 0.5 take a few Picard iterations each, far fewer than
        # the grid has points
        evals = [0]

        def field(x):
            evals[0] += 1
            return -x

        ts, xs = ode_integrate(field, np.array([1.0]), 2.0, step=1e-3, record=True)
        assert len(ts) == len(xs) == 2001
        assert ts[-1] == 2.0
        assert evals[0] <= 4 * 16
        assert np.max(np.abs(xs[:, 0] - np.exp(-ts))) <= 1e-14
        assert xs[-1, 0] == ode_integrate(lambda x: -x, np.array([1.0]), 2.0)[0]
        assert np.max(np.diff(ts)) <= 1e-3 * (1.0 + 1e-9)
        ts, _ = ode_integrate(lambda x: -x, np.array([1.0]), -1.5, step=1e-3, record=True)
        assert len(ts) == 1501 and ts[-1] == -1.5

    def test_stats_report_correction_and_field_calls(self):
        stats = {}
        ode_integrate(lambda x: -x, np.array([1.0, 2.0]), 1.0, stats=stats)
        assert 0.0 < stats["correction"] <= 4.0 * 2.0 * np.finfo(float).eps
        assert 2 <= stats["field_calls"] <= 2 * 16

    def test_step_longer_than_duration(self):
        ts, _ = ode_integrate(lambda x: -x, np.array([1.0]), 1e-13, step=1e-3, record=True)
        assert len(ts) == 2 and ts[-1] == 1e-13

    def test_nonpositive_step_rejected(self):
        for step in (0.0, -1e-3):
            with pytest.raises(ValueError):
                ode_integrate(lambda x: -x, np.array([1.0]), 1.0, step=step)


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
            assert bump.integral() == pytest.approx(exact_euclidean_integral(bump), rel=1e-13, abs=0)

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

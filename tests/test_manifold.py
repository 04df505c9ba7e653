"""Model-space geometry: metric, distance, geodesics, the pair normalization."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from horoflow.busemann import BusemannField
from horoflow.locus import make_pair_config
from horoflow.manifold import (
    EUCLIDEAN,
    HYPERBOLIC,
    BoundaryConfigError,
    ChartDomainError,
    GeometryError,
    ModelSpace,
    Point,
    TangentVec,
    _rowdot,
    boundary_finite,
    boundary_from_direction,
    boundary_infinity,
    direction_to_boundary,
    distance,
    geodesic,
    volume_density,
)


class TestMetric:
    def test_halfspace_orthonormal_at_unit_height(self, h3):
        u = np.array([1.0, 0.0, 0.0])
        assert h3.inner([0, 0, 1], u, u) == 1.0

    def test_halfspace_scaling(self, h3):
        p = [0, 0, 2]
        u = np.array([1.0, 0.0, 0.0])
        assert h3.inner(p, u, u) == pytest.approx(0.25, abs=0)
        # polarization identity cross-check: <u,v> = (|u+v|^2 - |u-v|^2)/4
        v = np.array([0.3, -1.2, 0.7])
        polarized = 0.25 * (h3.inner(p, u + v, u + v) - h3.inner(p, u - v, u - v))
        assert h3.inner(p, u, v) == pytest.approx(polarized, abs=1e-14)

    def test_euclidean_dot(self, e3):
        assert e3.inner([5, 5, 5], [1, 2, 0], [3, 0, 0]) == 3.0

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("z", [1e-6, 1.0, 1e4])
    def test_frame_volume_of_orthonormal_frame(self, n, z):
        m = ModelSpace(HYPERBOLIC, n)
        base = np.r_[np.linspace(-1.0, 1.0, n - 1), z]
        assert m.frame_volume(base, z * np.eye(n)) == pytest.approx(1.0, abs=1e-12)
        # a sub-frame, as the horosphere and locus oracles push forward
        assert m.frame_volume(base, z * np.eye(n)[1:]) == pytest.approx(1.0, abs=1e-12)

    def test_frame_volume_scales_with_the_spanned_volume(self, e3):
        frame = np.array([[2.0, 0.0, 0.0], [1.0, 3.0, 0.0]])
        assert e3.frame_volume([0, 0, 0], frame) == pytest.approx(6.0, abs=1e-12)

    @pytest.mark.parametrize("model", [ModelSpace(HYPERBOLIC, 3), ModelSpace(EUCLIDEAN, 3)])
    def test_frame_volume_rejects_a_rank_deficient_frame(self, model):
        frame = np.array([[1.0, 2.0, 0.5], [2.0, 4.0, 1.0]])
        with pytest.raises(GeometryError, match="degenerate frame"):
            model.frame_volume([0.0, 0.0, 1.0], frame)
        with pytest.raises(GeometryError, match="degenerate frame"):
            model.frame_volume([0.0, 0.0, 1.0], np.zeros((1, 3)))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_row_reduction_matches_norm(self, n):
        # the one row reduction behind every chart length and inner product
        rng = np.random.default_rng(n)
        for shape in ((n,), (1, n), (20, n), (4096, n)):
            v = rng.normal(size=shape) * np.exp(rng.normal(size=shape))
            reference = np.linalg.norm(v, axis=-1)
            length = np.sqrt(_rowdot(v, v))
            assert np.shape(length) == np.shape(reference)
            assert np.all(np.abs(length - reference) <= 2.0 * np.spacing(reference))


class TestDistance:
    def test_vertical_log_ratio(self, h3):
        assert distance(Point(h3, [0, 0, 1]), Point(h3, [0, 0, math.e])) == pytest.approx(1.0, abs=1e-14)

    def test_arcsinh_formula_matches_log_ratio(self, h3):
        # 2 arcsinh(1/(2 sqrt 2)) collapses to ln 2 on the vertical ray
        d = distance(Point(h3, [0, 0, 1]), Point(h3, [0, 0, 2]))
        assert d == pytest.approx(2.0 * math.asinh(1.0 / (2.0 * math.sqrt(2.0))), abs=1e-15)
        assert d == pytest.approx(math.log(2.0), abs=1e-15)

    def test_euclidean(self, e3):
        assert distance(Point(e3, [0, 0, 0]), Point(e3, [3, 4, 0])) == 5.0

    def test_euclidean_separation_past_the_sum_of_squares(self, e3):
        # 1e155^2 overflows float64; the distance itself does not
        p = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0], [-5e154, 0.0, 0.0]])
        q = np.array([[1e155, 0.0, 0.0], [1.0, 5.0, 6.0], [5e154, 1e155, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = e3.distance(p, q)
        assert d[0] == 1e155 and d[1] == 5.0
        assert d[2] == pytest.approx(math.sqrt(2.0) * 1e155, rel=1e-15)

    def test_euclidean_difference_past_float64_is_inf(self, e3):
        # q - p overflows; the distance 2e308 does too, and the other row is exact
        p = np.array([[-1e308, 0.0, 0.0], [0.0, 0.0, 0.0]])
        q = np.array([[1e308, 0.0, 0.0], [3.0, 4.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert e3.distance(p, q).tolist() == [math.inf, 5.0]

    def test_euclidean_hypot_past_float64_is_inf(self, e3):
        # q - p is finite, but its sum of squares and its hypot overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert e3.distance([0.0, 0.0, 0.0], [1.5e308, 1.5e308, 0.0]) == math.inf

    def test_hyperbolic_separation_past_float64(self, h3):
        # the chart separation overflows; the distance 2 arcsinh(|q - p| / 2) does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = h3.distance([0.0, 0.0, 1.0], [1.5e308, 1.5e308, 1.0])
            wide = h3.distance([-1e308, 0.0, 1.0], [1e308, 0.0, 1.0])
        assert d == pytest.approx(2.0 * math.asinh(math.hypot(7.5e307, 7.5e307)), rel=1e-15)
        assert d == pytest.approx(1419.8964946811084, rel=1e-15)
        assert wide == pytest.approx(2.0 * math.asinh(1e308), rel=1e-15)

    @pytest.mark.parametrize("p, q, expected", [
        # the product of the heights overflows
        ([0.0, 0.0, 1e200], [1e200, 0.0, 1e200], 2.0 * math.asinh(0.5)),
        # the product of the heights and the sum of squares underflow
        ([0.0, 0.0, 1e-200], [1e-200, 0.0, 1e-200], 2.0 * math.asinh(0.5)),
        ([0.0, 0.0, 1e-200], [0.0, 0.0, 1e-200], 0.0),
    ], ids=["heights-overflow", "heights-underflow", "same-point-underflow"])
    def test_hyperbolic_heights_past_float64(self, h3, p, q, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = h3.distance(p, q)
        assert d == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_normal_heights_keep_their_bits_beside_extreme_ones(self, h3, rng):
        # the rescued rows do not move the others: each row equals its own call
        p = np.vstack([h3.random_points(rng, 20, 1.0), [[0.0, 0.0, 1e200], [0.0, 0.0, 1e-200]]])
        q = np.vstack([h3.random_points(rng, 20, 1.0), [[1e200, 0.0, 1e200], [1e-200, 0.0, 1e-200]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = h3.distance(p, q)
            rows = [float(h3.distance(a, b)) for a, b in zip(p, q)]
        assert batch.tolist() == rows
        p, q = p[:20], q[:20]
        assert batch[:20].tolist() == (2.0 * np.arcsinh(0.5 * np.sqrt(_rowdot(q - p, q - p))
                                                        / np.sqrt(p[:, -1] * q[:, -1]))).tolist()

    def test_symmetry_and_triangle(self, h3, rng):
        pts = h3.random_points(rng, 300, 1.0)
        a, b, c = pts[:100], pts[100:200], pts[200:]
        dab, dba = h3.distance(a, b), h3.distance(b, a)
        assert np.max(np.abs(dab - dba)) <= 1e-10
        viol = h3.distance(a, c) - (dab + h3.distance(b, c))
        assert np.max(viol) <= 1e-10


class TestGeodesics:
    def test_vertical_ray(self, h3):
        p = Point(h3, [0, 0, 1])
        out = geodesic(p, TangentVec(p, [0, 0, 1]), 1.0)
        assert np.allclose(out.coords, [0, 0, math.e], atol=1e-14)

    def test_zero_time_identity(self, h3):
        p = Point(h3, [0.3, -0.2, 0.8])
        v = TangentVec(p, [0.8, 0, 0])
        out = geodesic(p, TangentVec(p, h3.unit(p.coords, v.components)), 0.0)
        assert np.array_equal(out.coords, p.coords)

    def test_euclidean_line(self, e3):
        p = Point(e3, [0, 0, 0])
        out = geodesic(p, TangentVec(p, [0, 1, 0]), 7.0)
        assert np.allclose(out.coords, [0, 7, 0], atol=0)

    def test_unit_speed(self, h3, rng):
        p = Point(h3, [0.1, 0.4, 0.9])
        v = TangentVec(p, h3.unit(p.coords, rng.normal(size=3)))
        for t in [0.1, 1.0, 5.0, 10.0]:
            assert distance(p, geodesic(p, v, t)) == pytest.approx(t, abs=1e-10)

    def test_non_unit_velocity_rejected(self, h3):
        p = Point(h3, [0, 0, 1])
        with pytest.raises(GeometryError):
            geodesic(p, TangentVec(p, [2, 0, 0]), 1.0)

    def test_halfcircle_against_ode_oracle(self, h3):
        # independent oracle: integrate the geodesic equation
        # x'' = -Gamma(x)(x', x') of the half-space metric with RK4
        p = np.array([0.0, 0.0, 1.0])
        v = np.array([1.0, 0.0, 0.0])

        def accel(x, xd):
            z = x[-1]
            a = np.empty_like(x)
            a[:-1] = 2.0 * xd[:-1] * xd[-1] / z
            a[-1] = (xd[-1] ** 2 - np.sum(xd[:-1] ** 2)) / z
            return a

        state = np.concatenate([p, v])

        def field(s):
            x, xd = s[:3], s[3:]
            return np.concatenate([xd, accel(x, xd)])

        dt = 1e-4
        t = 0.0
        checkpoints = {round(tc, 6): None for tc in (0.5, 1.0, 2.0)}
        while t < 2.0 - 1e-12:
            k1 = field(state)
            k2 = field(state + 0.5 * dt * k1)
            k3 = field(state + 0.5 * dt * k2)
            k4 = field(state + dt * k3)
            state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += dt
            key = round(t, 6)
            if key in checkpoints:
                checkpoints[key] = state[:3].copy()

        pt = Point(h3, p)
        vv = TangentVec(pt, v)
        for tc, ode_point in checkpoints.items():
            closed = geodesic(pt, vv, tc).coords
            assert np.max(np.abs(closed - ode_point)) <= 1e-8

        # the ray converges to the boundary point (1, 0)
        far = geodesic(pt, vv, 40.0).coords
        assert np.allclose(far[:2], [1.0, 0.0], atol=1e-12)
        endpoint = boundary_from_direction(vv)
        assert endpoint.kind == "finite"
        assert np.allclose(endpoint.data, [1.0, 0.0], atol=1e-14)

    def test_exp_log_roundtrip(self, h3, rng):
        pts = h3.random_points(rng, 200, 1.0)
        w = rng.normal(size=(200, 3)) * pts[:, -1:]
        w *= (5.0 / np.maximum(h3.norm(pts, w), 1e-12))[:, None] * rng.uniform(0.01, 1.0, size=(200, 1))
        q = h3.exp(pts, w)
        back = h3.log(pts, q)
        assert np.max(np.abs(back - w)) <= 1e-9

    def test_log_matches_distance(self, h3, rng):
        p = h3.random_points(rng, 50, 1.0)
        q = h3.random_points(rng, 50, 1.0)
        w = h3.log(p, q)
        assert np.max(np.abs(h3.norm(p, w) - h3.distance(p, q))) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    x1=st.floats(-3, 3), y1=st.floats(-3, 3), z1=st.floats(0.05, 8),
    x2=st.floats(-3, 3), y2=st.floats(-3, 3), z2=st.floats(0.05, 8),
)
# nearly vertical geodesics: the horizontal offset is far below the heights
@example(x1=0.3, y1=0.2, z1=0.5, x2=0.3 + 1e-8, y2=0.2, z2=4.0)
@example(x1=0.3, y1=0.2, z1=0.5, x2=0.3 + 1e-10, y2=0.2, z2=4.0)
@example(x1=0.3, y1=0.2, z1=0.5, x2=0.3 + 1e-12, y2=0.2, z2=4.0)
def test_exp_log_roundtrip_property(x1, y1, z1, x2, y2, z2):
    h3 = ModelSpace(HYPERBOLIC, 3)
    p = np.array([x1, y1, z1])
    q = np.array([x2, y2, z2])
    w = h3.log(p, q)
    assert np.max(np.abs(h3.exp(p, w) - q)) <= 1e-9 * max(1.0, float(np.max(np.abs(q))))



def _log_reference(p, q):
    """Half-space log at 60 digits via the geodesic circle's centre and angles."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        p = [mp.mpf(float(v)) for v in p]
        q = [mp.mpf(float(v)) for v in q]
        dbar = [b - a for a, b in zip(p[:-1], q[:-1])]
        xq = mp.sqrt(sum(d * d for d in dbar))
        z1, z2 = p[-1], q[-1]
        c = (xq * xq + z2 * z2 - z1 * z1) / (2 * xq)
        r = mp.hypot(c, z1)
        th_p, th_q = mp.atan2(z1, -c), mp.atan2(z2, xq - c)
        t = mp.log(mp.tan(th_p / 2) / mp.tan(th_q / 2))
        w = [t * r * mp.sin(th_p) ** 2 * d / xq for d in dbar]
        w.append(-t * r * mp.sin(th_p) * mp.cos(th_p))
        return np.array([float(v) for v in w])


def _exp_reference(p, w):
    """Half-space exp at 60 digits: x_bar + w_bar sinh(t)/t / D and z / D with
    t = |w|/z and D = cosh t - (w_z/|w|) sinh t."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        p = [mp.mpf(float(v)) for v in p]
        w = [mp.mpf(float(v)) for v in w]
        length = mp.sqrt(sum(v * v for v in w))
        if length == 0:
            return np.array([float(v) for v in p])
        t = length / p[-1]
        denom = mp.cosh(t) - w[-1] / length * mp.sinh(t)
        scale = mp.sinh(t) / t / denom
        out = [a + v * scale for a, v in zip(p[:-1], w[:-1])]
        out.append(p[-1] / denom)
        return np.array([float(v) for v in out])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lean, sign", [(1e-3, 1.0), (1e-3, -1.0), (1.0, 1.0), (1.0, -1.0)],
                         ids=["up", "down", "oblique-up", "oblique-down"])
def test_exp_matches_mpmath(lean, sign, rng):
    # 100 geodesics per case, lengths t from 1e-8 to 20, and w = 0, in H^2,
    # H^3, H^5 and H^8; the nearly vertical ones lean by 1e-3 to 1e-12 of their length
    worst = 0.0
    for dim in (2, 3, 5, 8):
        model = ModelSpace(HYPERBOLIC, dim)
        for k, t in enumerate(np.r_[np.geomspace(1e-8, 20.0, 25), 0.0]):
            p = np.r_[rng.uniform(0.2, 0.9, dim - 1), rng.uniform(0.5, 2.0)]
            # w_bar points away from the origin, so no endpoint coordinate nears 0
            direction = np.r_[lean * 10.0 ** (-3 * (k % 4)) * rng.uniform(0.2, 1.0, dim - 1), sign]
            w = t * p[-1] * direction / np.linalg.norm(direction)
            ref = _exp_reference(p, w)
            worst = max(worst, float(np.max(np.abs(model.exp(p, w) - ref) / np.abs(ref))))
    assert worst <= 1e-13


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("hsep", [1e-6, 1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("z_q", [4.0, 0.05])
def test_nearly_vertical_log_matches_mpmath(hsep, z_q):
    h3 = ModelSpace(HYPERBOLIC, 3)
    p = np.array([0.3, 0.2, 0.5])
    q = np.array([0.3 + hsep, 0.2, z_q])
    ref = _log_reference(p, q)
    w = h3.log(p, q)
    assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(np.abs(ref))
    # the horizontal component is tiny; it must be relatively accurate too
    assert abs(w[0] - ref[0]) <= 1e-12 * abs(ref[0])
    assert np.max(np.abs(h3.exp(p, ref) - q)) <= 1e-9 * max(1.0, float(np.max(np.abs(q))))


class TestChartValidation:
    def test_boundary_height_rejected(self, h3):
        with pytest.raises(ChartDomainError):
            Point(h3, [0, 0, 0])
        with pytest.raises(ChartDomainError):
            Point(h3, [0, 0, -1])

    def test_dimension_mismatch(self, h3):
        with pytest.raises(GeometryError):
            Point(h3, [0, 0, 1, 1])

    def test_dimension_bounds(self):
        with pytest.raises(GeometryError):
            ModelSpace(HYPERBOLIC, 1)
        with pytest.raises(GeometryError):
            ModelSpace(EUCLIDEAN, 9)

    def test_exp_endpoint_leaving_chart_raises(self, h3):
        # a steep downward geodesic of length 1000 ends below z = 1e-300;
        # both exp and the kernel behind it check the endpoint
        p, w = np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1000.0])
        with pytest.raises(ChartDomainError):
            h3.exp(p, w)
        with pytest.raises(ChartDomainError):
            h3._exp(p, w)

    def test_volume_density(self, h3, e3):
        assert volume_density(Point(h3, [0, 0, 2])) == pytest.approx(1 / 8, abs=0)
        assert volume_density(Point(h3, [0, 0, 1])) == 1.0
        assert volume_density(Point(e3, [4, 5, 6])) == 1.0

    def test_volume_density_overflow_raises(self, h3):
        # z^-3 is finite down to z ~ 1.8e-103 (DBL_MAX^(-1/3))
        assert math.isfinite(h3.volume_density(np.array([0.0, 0.0, 1e-100])))
        with pytest.raises(GeometryError, match=r"volume density z\^-3 overflows float64"):
            h3.volume_density(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1e-110]]))


def _pole_cases(model):
    """One pair configuration per branch of the normalization, keyed by the
    poles: xi1 = 0 with xi2 = inf, xi1 != 0 with xi2 = inf, xi1 = inf, and
    both finite."""
    n = model.dim
    a = np.linspace(-0.4, 0.3, n - 1)
    b = a[::-1] + 0.9
    origin, inf = boundary_finite(model, np.zeros(n - 1)), boundary_infinity(model)
    base = Point(model, np.r_[np.full(n - 1, 0.2), 1.3])
    pairs = {"origin-inf": (origin, inf), "finite-inf": (boundary_finite(model, a), inf),
             "inf-finite": (inf, boundary_finite(model, b)),
             "finite-finite": (boundary_finite(model, a), boundary_finite(model, b))}
    return {name: make_pair_config(BusemannField(model, xi1, base), BusemannField(model, xi2, base))
            for name, (xi1, xi2) in pairs.items()}


NORMALIZED_MODELS = [ModelSpace(HYPERBOLIC, n) for n in (2, 3, 5, 8)]


def _assert_closed_forms(cfg, rng):
    """b1 and b2 of the original fields take their normalized closed forms."""
    y = cfg.model.random_points(rng, 50, 1.0)
    x = cfg.denormalize(y)
    ybar, z = y[:, :-1], y[:, -1]
    b1 = np.log((_rowdot(ybar, ybar) + z * z) / z) + cfg.k1
    assert np.max(np.abs(cfg.f1.value(x) - b1)) <= 1e-12
    assert np.max(np.abs(cfg.f2.value(x) - (-np.log(z) + cfg.k2))) <= 1e-12


class TestIsometries:
    def test_translation_to_origin_infinity(self, rng):
        for m in NORMALIZED_MODELS:
            cfg = _pole_cases(m)["finite-inf"]
            assert len(cfg.steps) == 1
            _assert_closed_forms(cfg, rng)

    def test_origin_infinity_is_identity(self, rng):
        for m in NORMALIZED_MODELS:
            cfg = _pole_cases(m)["origin-inf"]
            assert cfg.steps == ()
            pts = m.random_points(rng, 20, 1.0)
            assert np.array_equal(cfg.normalize(pts), pts) and np.array_equal(cfg.denormalize(pts), pts)
            _assert_closed_forms(cfg, rng)

    def test_two_finite_points(self, h3, rng):
        for m in NORMALIZED_MODELS:
            cfg = _pole_cases(m)["finite-finite"]
            assert len(cfg.steps) == 4
            _assert_closed_forms(cfg, rng)
        # the bi-asymptotic geodesic of +-e1 (unit half-circle) maps onto the z-axis
        f1, f2 = (BusemannField(h3, boundary_finite(h3, [x, 0]), Point(h3, [0, 0, 1])) for x in (1, -1))
        thetas = np.linspace(0.1, math.pi - 0.1, 17)
        arc = np.stack([np.cos(thetas), np.zeros_like(thetas), np.sin(thetas)], axis=-1)
        assert np.max(np.abs(make_pair_config(f1, f2).normalize(arc)[:, :2])) <= 1e-12

    def test_infinity_first(self, rng):
        for m in NORMALIZED_MODELS:
            cfg = _pole_cases(m)["inf-finite"]
            assert len(cfg.steps) == 2
            _assert_closed_forms(cfg, rng)

    def test_inverse_roundtrip(self, rng):
        for m in NORMALIZED_MODELS:
            pts = m.random_points(rng, 100, 1.0)
            for cfg in _pole_cases(m).values():
                assert np.max(np.abs(cfg.denormalize(cfg.normalize(pts)) - pts)) <= 1e-12

    def test_distances_preserved(self, rng):
        for m in NORMALIZED_MODELS:
            pts, qts = m.random_points(rng, 100, 1.0), m.random_points(rng, 100, 1.0)
            for cfg in _pole_cases(m).values():
                moved = m.distance(cfg.normalize(pts), cfg.normalize(qts))
                assert np.max(np.abs(moved - m.distance(pts, qts))) <= 1e-10

    def test_coincident_rejected(self, h3):
        base = Point(h3, [0, 0, 1])
        for xi in (boundary_finite(h3, [1, 0]), boundary_infinity(h3)):
            with pytest.raises(BoundaryConfigError):
                make_pair_config(BusemannField(h3, xi, base), BusemannField(h3, xi, base))

    def test_volume_density_preserved(self, rng):
        from horoflow.transport import riemannian_jacobian_det

        for m in NORMALIZED_MODELS:
            pts = m.random_points(rng, 5, 0.8)
            for cfg in _pole_cases(m).values():
                for c in pts:
                    for move in (cfg.normalize, cfg.denormalize):
                        assert riemannian_jacobian_det(m, move, c) == pytest.approx(1.0, abs=1e-8)


class TestBoundaryDirections:
    def test_vertical_up_hits_infinity(self, h3, base3):
        assert boundary_from_direction(TangentVec(base3, [0, 0, 1])).is_infinity

    def test_vertical_down_hits_footpoint(self, h3):
        p = Point(h3, [0.7, -0.4, 2.0])
        bp = boundary_from_direction(TangentVec(p, [0, 0, -1]))
        assert np.allclose(bp.data, [0.7, -0.4], atol=0)

    def test_direction_roundtrip(self, h3, rng):
        for c in h3.random_points(rng, 20, 1.0):
            p = Point(h3, c)
            v = TangentVec(p, h3.unit(c, rng.normal(size=3)))
            xi = boundary_from_direction(v)
            v_back = direction_to_boundary(p, xi)
            assert np.max(np.abs(v_back.components - h3.unit(c, v.components))) <= 1e-10

    def test_dimension_checked(self, h3):
        with pytest.raises(BoundaryConfigError):
            boundary_finite(h3, [1, 2, 3])

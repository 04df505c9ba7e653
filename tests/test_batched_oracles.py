"""The batched oracles against their one-item-at-a-time references.

The visibility probe draws all its rays at once and bisects for their exits,
the Hessian cross-check evaluates every (point, direction) pair on one stencil,
the off-axis draws take their candidates in blocks, the truncated Busemann
value takes all its horizons in one call, and the pair field skips the zero
components of a pole at infinity. Each reference below is the loop or the dense
form it replaced, kept here to show the new code gives the same numbers.
"""

import itertools

import numpy as np
import pytest

from horoflow import verify
from horoflow.busemann import BoundednessReport, BusemannField, _first_outside, sublevel_bounded_probe
from horoflow.cli import parse_model
from horoflow.manifold import (HYPERBOLIC as HALF_SPACE, GeometryError, ModelSpace, Point, _rowdot,
                               boundary_finite, boundary_infinity, direction_to_boundary)
from horoflow.numerics import fd_hessian
from horoflow.transport import _pair_vector

HYPERBOLIC = [f"h{n}" for n in range(2, 9)]
EUCLIDEAN = [f"e{n}" for n in range(2, 9)]


def _start_point(f1, f2, c1, c2):
    """The probe's walk from the basepoint into {b1 <= c1} and {b2 <= c2}."""
    m = f1.model
    x = np.array(f1.basepoint.coords, copy=True)
    for _ in range(200):
        if f1.value(x) <= c1 and f2.value(x) <= c2:
            return x
        g = f1.grad_chart(x) if f1.value(x) > c1 else f2.grad_chart(x)
        x = m.exp(x, -0.25 * g)
    raise GeometryError("could not locate a point in the sublevel region")


def _reference_probe(f1, f2, c1, c2, rays, t_max, rng):
    """One ray at a time: (report, index of the first ray still inside at t_max)."""
    m = f1.model
    x = _start_point(f1, f2, c1, c2)
    max_exit = 0.0
    ts = np.linspace(0.05, t_max, 400)
    for i in range(rays):
        v = m.random_unit_vectors(x, rng)
        path = m.geodesic(np.broadcast_to(x, (ts.size, m.dim)), v, ts)
        inside = (f1.value(path) <= c1) & (f2.value(path) <= c2)
        if inside[-1]:
            return BoundednessReport(False, rays, float("inf"), v), i
        max_exit = max(max_exit, float(ts[int(np.argmin(inside))]))
    return BoundednessReport(True, rays, max_exit, None), None


def _reference_value_truncated(f, coords, T):
    """d(x, ray(T)) - T for one horizon T, as the truncation check took it per T."""
    v = direction_to_boundary(f.basepoint, f.xi)
    ray_pt = f.model.geodesic(f.basepoint.coords, v.components, float(T))
    return f.model.distance(f.model.check_coords(np.asarray(coords, dtype=float)), ray_pt) - float(T)


def _dense_pair_vector(f1, f2, coords, sign):
    """(g1 + sign g2) / (2 + 2 sign beta) with both gradients built in full, as
    transport._pair_vector took it for every pair."""
    g1, g2 = f1._grad(coords), f2._grad(coords)
    z = coords[..., -1]
    sign, b = np.asarray(sign), _rowdot(g1, g2) / (z * z)
    return (g1 + sign[..., None] * g2) / (2.0 + 2.0 * sign * b)[..., None]


def _reference_off_axis_points(ctx, cfg, count, min_separation):
    """One candidate per draw: (points, candidates drawn)."""
    pts, drawn = [], 0
    while len(pts) < count:
        c = ctx.random_points(1, spread=0.8)[0]
        drawn += 1
        if cfg is None or cfg.separation(Point(ctx.model, c)) >= min_separation:
            pts.append(c)
    return np.array(pts), drawn


def _probe_cases(model):
    fields = verify.VerifyContext(model=parse_model(model)).field_pair()
    # the probe of busemann-sublevel-boundedness at seeds 42 and 7, and wider regions
    return [(fields, c, seed) for c in (0.5, 2.0) for seed in (43, 8)]


class TestVisibilityProbe:
    @pytest.mark.parametrize("model", HYPERBOLIC)
    def test_bounded_with_the_same_exit_time(self, model):
        for (f1, f2), c, seed in _probe_cases(model):
            rep = sublevel_bounded_probe(f1, f2, c, c, rays=48, t_max=50.0, rng=np.random.default_rng(seed))
            ref, _ = _reference_probe(f1, f2, c, c, 48, 50.0, np.random.default_rng(seed))
            assert rep.bounded and ref.bounded
            assert rep.rays_probed == ref.rays_probed == 48
            assert rep.max_exit_time == ref.max_exit_time
            assert rep.escaping_direction is None

    @pytest.mark.parametrize("model", EUCLIDEAN)
    def test_unbounded_on_the_same_first_ray(self, model):
        firsts = []
        for (f1, f2), c, seed in _probe_cases(model):
            rep = sublevel_bounded_probe(f1, f2, c, c, rays=48, t_max=50.0, rng=np.random.default_rng(seed))
            ref, first = _reference_probe(f1, f2, c, c, 48, 50.0, np.random.default_rng(seed))
            assert not rep.bounded and not ref.bounded
            assert rep.rays_probed == ref.rays_probed and rep.max_exit_time == ref.max_exit_time
            assert rep.escaping_direction.tobytes() == ref.escaping_direction.tobytes()
            firsts.append(first)
        # the region is a quadrant cone, so the first ray inside is not always the first drawn
        assert max(firsts) > 0

    def test_no_rays_report_bounded_as_the_loop_did(self):
        f1, f2 = verify.VerifyContext(model=parse_model("h3")).field_pair()
        rep = sublevel_bounded_probe(f1, f2, 0.5, 0.5, rays=0, rng=np.random.default_rng(1))
        assert rep == _reference_probe(f1, f2, 0.5, 0.5, 0, 60.0, np.random.default_rng(1))[0]

    @pytest.mark.parametrize("model", HYPERBOLIC)
    def test_bisected_exits_are_the_dense_first_exits(self, model):
        f1, f2 = verify.canonical_pair(parse_model(model))
        m, ts = f1.model, np.linspace(0.05, 50.0, 400)
        for c1, c2 in [(0.5, 0.5), (2.0, 0.5), (0.5, 2.0), (-0.3, 1.0)]:
            def inside(path):
                return (f1.value(path) <= c1) & (f2.value(path) <= c2)

            x = _start_point(f1, f2, c1, c2)
            for seed in range(50):
                v = m.random_unit_vectors(np.broadcast_to(x, (48, m.dim)), np.random.default_rng(seed))
                assert not inside(m.geodesic(x, v, ts[-1])).any()
                exits = _first_outside(lambda t: inside(m.geodesic(x, v, t)), ts, 48)
                # the dense grid up to the last exit holds every ray's first False
                dense = inside(m.geodesic(x, v[:, None, :], ts[: exits.max() + 1]))
                assert not dense[np.arange(48), exits].any()
                assert np.array_equal(exits, np.argmin(dense, axis=1))
            rep = sublevel_bounded_probe(f1, f2, c1, c2, rays=48, t_max=50.0, rng=np.random.default_rng(seed))
            assert rep.bounded and rep.max_exit_time == ts[exits].max()

    def test_bisection_finds_exits_at_either_end_and_takes_no_rays(self):
        ts = np.linspace(0.05, 50.0, 400)
        # a ray outside from ts[0] on, one inside up to ts[-2], and rays between
        limits = np.concatenate([[0.0, 0.05, ts[-2] + 1e-9], np.random.default_rng(5).uniform(0.0, 50.0, 61)])
        exits = _first_outside(lambda t: t < limits, ts, limits.size)
        assert np.array_equal(exits, np.argmin(ts < limits[:, None], axis=1))
        assert exits[:3].tolist() == [0, 0, 399]

        def never(t):
            raise AssertionError("no ray to probe")

        assert _first_outside(never, ts, 0).size == 0


class TestHessianCrossCheck:
    @pytest.mark.parametrize("model", ["h2", "h3", "h8", "e3"])
    def test_second_derivatives_match_fd_hessian_along_each_direction(self, model, monkeypatch):
        seen = []
        exact = verify._richardson

        def spy(values, step, second=False):
            out = exact(values, step, second)
            seen.append(out)
            return out

        monkeypatch.setattr(verify, "_richardson", spy)
        ctx = verify.VerifyContext(model=parse_model(model))
        assert verify.check_hessian_fd(ctx).status == "pass"
        (batched,) = seen
        # the same five points, from a fresh generator of the same seed
        pts = verify.VerifyContext(model=parse_model(model)).random_points(5)
        m, (f1, _) = ctx.model, ctx.field_pair()
        eye = np.eye(m.dim)
        directions = list(eye) + [a + b for a, b in itertools.combinations(eye, 2)]
        reference = np.array([[fd_hessian(lambda t: f1.value(m.exp(c, t * v)), np.zeros(1), step=1e-3)[0, 0]
                               for v in (d / float(m.norm(c, d)) for d in directions)] for c in pts])
        assert batched.shape == (len(pts) * len(directions), 1)
        assert np.max(np.abs(batched.reshape(reference.shape) - reference)) <= 1e-12


class TestOffAxisPoints:
    @pytest.mark.parametrize("model, with_config", [("h2", True), ("h3", True), ("h8", True),
                                                     ("h3", False), ("e3", False)])
    @pytest.mark.parametrize("count, min_separation", [(1, 0.1), (20, 0.05), (50, 0.1), (20, 2.0)])
    def test_same_points_as_one_draw_at_a_time(self, model, with_config, count, min_separation):
        m = parse_model(model)
        ctx, ref_ctx = (verify.VerifyContext(model=m, seed=11) for _ in range(2))
        cfg = ctx.pair_config() if with_config else None
        pts = verify._off_axis_points(ctx, cfg, count, min_separation)
        ref, drawn = _reference_off_axis_points(ref_ctx, cfg, count, min_separation)
        assert pts.shape == (count, m.dim) and pts.tobytes() == ref.tobytes()
        if with_config and min_separation == 2.0:
            assert drawn > count  # rejections make the batch draw again


class TestTruncatedValue:
    @pytest.mark.parametrize("model", ["h2", "h3", "h8", "e3", "e5"])
    def test_array_of_horizons_equals_one_call_per_horizon(self, model):
        f1, _ = verify.canonical_pair(parse_model(model))
        ts = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 24.0])
        pts = verify.VerifyContext(model=parse_model(model)).random_points(20, spread=0.5)
        vals = f1.value_truncated(pts, ts)
        assert vals.shape == (6, 20)
        assert vals.tobytes() == np.array([_reference_value_truncated(f1, pts, T) for T in ts]).tobytes()
        one = f1.value_truncated(pts[0], ts)
        assert one.shape == (6,) and one.tobytes() == vals[:, 0].tobytes()
        scalar = f1.value_truncated(pts[0], 4.0)
        assert np.ndim(scalar) == 0 and scalar == _reference_value_truncated(f1, pts[0], 4.0)

    @pytest.mark.parametrize("horizons", [[1.0, 0.0], [-1.0], [[2.0], [1e-300 * -1.0]]])
    def test_a_nonpositive_horizon_anywhere_raises(self, horizons):
        f1, _ = verify.canonical_pair(parse_model("h3"))
        with pytest.raises(GeometryError):
            f1.value_truncated([[0.1, 0.2, 1.0]], horizons)


class TestPairVectorWithAPoleAtInfinity:
    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("infinity_first", [False, True])
    def test_bitwise_the_general_formula(self, n, infinity_first):
        m = ModelSpace(HALF_SPACE, n)
        rng = np.random.default_rng(n)
        pole = np.concatenate([[0.0], rng.normal(size=n - 2)])
        base = Point(m, m.random_points(rng, 1)[0])
        finite = BusemannField(m, boundary_finite(m, pole), base)
        at_infinity = BusemannField(m, boundary_infinity(m))
        f1, f2 = (at_infinity, finite) if infinity_first else (finite, at_infinity)
        pts = m.random_points(rng, 64, 1.0)
        pts[::4, 0], pts[1::4, 0] = 0.0, -0.0  # zero gradient components of either sign
        # sum rows stay off the axis above the finite pole, where the sum field is singular
        off_axis = ~np.all(pts[:, :-1] == pole, axis=1)
        mixed = np.where(off_axis & (rng.random(64) < 0.5), 1.0, -1.0)
        for rows, sign in [(pts, -1.0), (pts[off_axis], 1.0), (pts, mixed)]:
            want = _dense_pair_vector(f1, f2, rows, sign)
            assert _pair_vector(f1, f2, rows, sign).tobytes() == want.tobytes()
        assert (np.signbit(want) & (want == 0.0)).any() != infinity_first  # -0 only without the +0 of g1

"""The batched oracles against their one-item-at-a-time references.

The visibility probe draws all its rays at once, the Hessian cross-check
evaluates every (point, direction) pair on one stencil, and the off-axis
draws take their candidates in blocks. Each reference below is the loop it
replaced, kept here to show the batch gives the same numbers.
"""

import itertools

import numpy as np
import pytest

from horoflow import verify
from horoflow.busemann import BoundednessReport, sublevel_bounded_probe
from horoflow.cli import parse_model
from horoflow.manifold import GeometryError, Point
from horoflow.numerics import fd_hessian

HYPERBOLIC = [f"h{n}" for n in range(2, 9)]
EUCLIDEAN = [f"e{n}" for n in range(2, 9)]


def _reference_probe(f1, f2, c1, c2, rays, t_max, rng):
    """One ray at a time: (report, index of the first ray still inside at t_max)."""
    m = f1.model
    x = np.array(f1.basepoint.coords, copy=True)
    for _ in range(200):
        if f1.value(x) <= c1 and f2.value(x) <= c2:
            break
        g = f1.grad_chart(x) if f1.value(x) > c1 else f2.grad_chart(x)
        x = m.exp(x, -0.25 * g)
    else:
        raise GeometryError("could not locate a point in the sublevel region")
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

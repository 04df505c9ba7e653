"""Intersection loci, weighted volume integrals, bounds, strip volumes."""

import math
import re

import numpy as np
import pytest

from horoflow.busemann import BusemannField, beta, busemann_value
from horoflow.locus import (
    EmptyLocusError,
    LocusValues,
    VisibilityError,
    dw_ds_check,
    locus_quadrature,
    locus_values,
    make_pair_config,
    parametrize_locus,
    strip_volume,
    strip_volume_sliced,
)
from horoflow.manifold import (
    HYPERBOLIC,
    BoundaryConfigError,
    GeometryError,
    ModelSpace,
    Point,
    boundary_direction,
    boundary_finite,
    boundary_infinity,
)
from horoflow.numerics import unit_sphere_area
from horoflow.verify import SWEEP_COLUMNS, VerifyContext, run_suite, sweep_rows

from conftest import sweep_cells


def _default_config(dim):
    """The pair configuration a sweep uses on h<dim>."""
    return VerifyContext(model=ModelSpace(HYPERBOLIC, dim)).pair_config


def _random_pair_configs(dim, count, seed):
    """Pairs with random finite or infinite poles and a random basepoint."""
    m = ModelSpace(HYPERBOLIC, dim)
    rng = np.random.default_rng(seed)
    configs = []
    while len(configs) < count:
        poles = [boundary_finite(m, rng.uniform(-2.0, 2.0, dim - 1)) if rng.random() < 0.75
                 else boundary_infinity(m) for _ in range(2)]
        if poles[0].same_as(poles[1]):
            continue
        base = Point(m, np.append(rng.uniform(-1.0, 1.0, dim - 1), rng.uniform(0.5, 2.0)))
        configs.append(make_pair_config(BusemannField(m, poles[0], base),
                                        BusemannField(m, poles[1], base)))
    return configs


@pytest.fixture
def cfg_normalized(h3, base3):
    f1 = BusemannField(h3, boundary_finite(h3, [0.0, 0.0]), base3)
    f2 = BusemannField(h3, boundary_infinity(h3), base3)
    return make_pair_config(f1, f2)


@pytest.fixture
def cfg_example(h3, base3):
    f1 = BusemannField(h3, boundary_finite(h3, [1.0, 0.0]), base3)
    f2 = BusemannField(h3, boundary_finite(h3, [-1.0, 0.0]), base3)
    return make_pair_config(f1, f2)


@pytest.fixture
def cfg_h2(h2):
    base = Point(h2, [0.0, 1.0])
    f1 = BusemannField(h2, boundary_finite(h2, [0.0]), base)
    f2 = BusemannField(h2, boundary_infinity(h2), base)
    return make_pair_config(f1, f2)


class TestPairConfig:
    def test_normalized_axis_constant(self, cfg_normalized):
        assert cfg_normalized.c0 == pytest.approx(0.0, abs=1e-12)
        # b1 + b2 computed along the axis stays at c0
        for z in (0.2, 0.7, 3.0):
            x = cfg_normalized.axis_point(z)
            total = (busemann_value(cfg_normalized.f1, x)
                     + busemann_value(cfg_normalized.f2, x))
            assert total == pytest.approx(cfg_normalized.c0, abs=1e-10)

    def test_example_pair_symmetric(self, cfg_example, base3):
        # the basepoint sits on the bi-asymptotic geodesic, so c0 = 0
        assert cfg_example.c0 == pytest.approx(0.0, abs=1e-12)
        assert float(beta(cfg_example.f1, cfg_example.f2, base3)) <= -1.0 + 1e-9

    def test_euclidean_rejected(self, e3):
        f1 = BusemannField(e3, boundary_direction(e3, [1, 0, 0]), Point(e3, [0, 0, 0]))
        f2 = BusemannField(e3, boundary_direction(e3, [0, 1, 0]), Point(e3, [0, 0, 0]))
        with pytest.raises(VisibilityError):
            make_pair_config(f1, f2)

    def test_coincident_points_rejected(self, h3, base3):
        f = BusemannField(h3, boundary_finite(h3, [1.0, 0.0]), base3)
        with pytest.raises(BoundaryConfigError):
            make_pair_config(f, f)

    def test_offset_basepoints_shift_c0(self, h3):
        # moving a basepoint changes the value normalization, hence c0
        f1 = BusemannField(h3, boundary_finite(h3, [0.0, 0.0]), Point(h3, [0, 0, 2]))
        f2 = BusemannField(h3, boundary_infinity(h3), Point(h3, [0, 0, 1]))
        cfg = make_pair_config(f1, f2)
        assert cfg.c0 == pytest.approx(-math.log(2.0), abs=1e-12)

    def test_separation_nonnegative(self, cfg_normalized, h3, rng):
        pts = h3.random_points(rng, 500, 1.2)
        for c in pts[:20]:
            assert cfg_normalized.separation(Point(h3, c)) >= -1e-12


class TestLocusGeometry:
    def test_membership_residuals(self, cfg_normalized):
        for s in (0.5, math.log(2.0), 2.0):
            for t in (-3.0, 0.0, 3.0):
                L = parametrize_locus(cfg_normalized, s, t)
                assert L.membership_residual() <= 1e-10

    def test_normalized_radius_height(self, cfg_normalized):
        # ln(2r/a) = s and ln(2ra) = t in normalized coordinates
        L = parametrize_locus(cfg_normalized, math.log(2.0), math.log(2.0))
        assert L.height == pytest.approx(1.0, abs=1e-14)
        assert L.radius == pytest.approx(1.0, abs=1e-14)

    def test_rho_over_height_invariant(self, cfg_normalized):
        for s in (0.3, 1.0, 2.5):
            for t in (-2.0, 0.0, 2.0):
                L = parametrize_locus(cfg_normalized, s, t)
                assert L.radius / L.height == pytest.approx(math.sqrt(math.exp(s) - 1.0), rel=1e-13)

    def test_degenerate_and_empty(self, cfg_normalized):
        L0 = parametrize_locus(cfg_normalized, 0.0, 0.4)
        assert L0.degenerate
        vals = locus_values(cfg_normalized, L0.s, L0.t)
        assert vals.vol == 0.0 and math.isnan(vals.V) and math.isnan(vals.W)
        with pytest.raises(EmptyLocusError):
            parametrize_locus(cfg_normalized, -0.2, 0.0)

    def test_axis_point_on_a_general_pair(self, h3):
        # rho = a (diameter - a) cancelled to 1e-8 here, and V divided 0 by 0
        base = Point(h3, [0.2, -0.1, 1.3])
        cfg = make_pair_config(BusemannField(h3, boundary_finite(h3, [0.7, -0.4]), base),
                               BusemannField(h3, boundary_finite(h3, [-1.1, 0.9]), base))
        assert cfg.locus_geometry(0.0, -1.0)[1] == 0.0
        vals = locus_values(cfg, 0.0, -1.0)
        assert vals.vol == 0.0 and vals.beta_max == -1.0
        assert math.isnan(vals.V) and math.isnan(vals.W) and math.isnan(vals.bound)

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_random_pairs_reach_the_axis_at_s_zero(self, dim):
        for cfg in _random_pair_configs(dim, 6, seed=dim):
            for t in np.linspace(-2.0, 2.0, 5):
                L = parametrize_locus(cfg, 0.0, float(t))
                assert L.degenerate
                vals = locus_values(cfg, 0.0, float(t))
                assert vals.vol == 0.0 and vals.beta_max == -1.0 and math.isnan(vals.V)
            for s in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2):
                a, rho = cfg.locus_geometry(s, 0.3)
                assert abs(rho / (a * math.sqrt(math.expm1(s))) - 1.0) <= 1e-15

    @pytest.mark.parametrize("s, t", [(800.0, 0.0), (0.5, 1e308), (0.5, -1e308)])
    def test_overflowing_geometry_is_named(self, cfg_normalized, s, t):
        with pytest.raises(GeometryError, match=re.escape(f"s = {s}, t = {t}")):
            parametrize_locus(cfg_normalized, s, t)

    def test_beta_constant_on_locus(self, cfg_normalized):
        L = parametrize_locus(cfg_normalized, 1.2, -0.8)
        b = L.beta_values()
        assert np.max(np.abs(b - (1.0 - 2.0 * math.exp(-1.2)))) <= 1e-12


class TestWeightedIntegrals:
    def test_h3_closed_forms(self, cfg_normalized):
        for s in (0.5, math.log(2.0), 2.0):
            vals = locus_values(cfg_normalized, s, 0.7)
            e = math.exp(s) - 1.0
            assert vals.vol == pytest.approx(2.0 * math.pi * math.sqrt(e), rel=1e-12)
            assert vals.V == pytest.approx(2.0 * math.pi, rel=1e-12)
            assert vals.W == pytest.approx(2.0 * math.pi * e, rel=1e-12)

    def test_t_invariance(self, cfg_normalized):
        for s in (0.5, math.log(2.0), 2.0):
            vs = [locus_values(cfg_normalized, s, t).V for t in (-3, -1, 0, 1, 3)]
            ws = [locus_values(cfg_normalized, s, t).W for t in (-3, -1, 0, 1, 3)]
            assert (max(vs) - min(vs)) / vs[0] <= 1e-8
            assert (max(ws) - min(ws)) / ws[0] <= 1e-8

    @pytest.mark.parametrize("dim", [3, 4, 5, 6, 7, 8])
    def test_general_coordinates_crosscheck(self, dim):
        # the pair of the worked example, at +-e_1 on the boundary of H^dim
        m = ModelSpace(HYPERBOLIC, dim)
        base = Point(m, [0.0] * (dim - 1) + [1.0])
        a = np.zeros(dim - 1)
        a[0] = 1.0
        cfg = make_pair_config(BusemannField(m, boundary_finite(m, a), base),
                               BusemannField(m, boundary_finite(m, -a), base))
        L = parametrize_locus(cfg, 1.3, 0.7)
        general = locus_quadrature(L, general=True)
        closed = locus_values(cfg, L.s, L.t)
        assert general.vol == pytest.approx(closed.vol, abs=1e-8)
        assert general.V == pytest.approx(closed.V, abs=1e-8)
        assert general.W == pytest.approx(closed.W, abs=1e-8)

    @pytest.mark.parametrize("dim", [3, 8])
    def test_oracle_keeps_its_digits_at_large_s(self, dim):
        # on S(s, t) 1 - beta = 2 e^-s: weights formed from beta itself kept about
        # 8 digits at s = 20 and were singular at s = 40, where beta rounds to 1
        cfg = _default_config(dim)
        for s in (20.0, 40.0, 80.0):
            oracle, closed = locus_quadrature(parametrize_locus(cfg, s, 0.7)), locus_values(cfg, s, 0.7)
            assert all(q == pytest.approx(c, rel=1e-13) for q, c in zip(oracle[:4], closed[:4]))

    @pytest.mark.parametrize("dim", [3, 8])
    @pytest.mark.parametrize("s", [20.0, 40.0])
    def test_intersections_suite_passes_at_large_s(self, dim, s):
        # with weights formed from beta, s = 20 failed weighted-integrals-t-invariance and s = 40 stopped it
        reports = run_suite("intersections", VerifyContext(model=ModelSpace(HYPERBOLIC, dim), s_grid=[s]))
        assert {r.name: r.status for r in reports if r.status != "pass"} == {}

    def test_h2_two_point_sums(self, cfg_h2):
        s = 0.8
        L = parametrize_locus(cfg_h2, s, 0.4)
        assert L.points().shape == (2, 2)
        e = math.exp(s) - 1.0
        vals = locus_values(cfg_h2, s, 0.4)
        assert vals.vol == pytest.approx(2.0, abs=1e-14)
        assert vals.V == pytest.approx(2.0 / math.sqrt(e), rel=1e-12)
        assert vals.W == pytest.approx(2.0 * math.sqrt(e), rel=1e-12)
        # the two-point rule counts the same volume
        assert locus_quadrature(L).vol == pytest.approx(2.0, abs=1e-14)
        # t-invariance survives in the degenerate counting case
        vs = [locus_values(cfg_h2, s, t).V for t in (-2, 0, 2)]
        assert max(vs) - min(vs) <= 1e-12

    def test_h5_closed_forms(self):
        h5 = ModelSpace(HYPERBOLIC, 5)
        base = Point(h5, [0, 0, 0, 0, 1])
        f1 = BusemannField(h5, boundary_finite(h5, [0, 0, 0, 0]), base)
        f2 = BusemannField(h5, boundary_infinity(h5), base)
        cfg = make_pair_config(f1, f2)
        s = 1.1
        vals = locus_values(cfg, s, -0.6)
        e = math.exp(s) - 1.0
        area = unit_sphere_area(3)
        assert vals.vol == pytest.approx(area * e ** 1.5, rel=1e-9)
        assert vals.V == pytest.approx(area * e, rel=1e-9)
        assert vals.W == pytest.approx(area * e ** 2, rel=1e-9)


class TestGrowthAndBounds:
    def test_dw_ds(self, cfg_normalized):
        for s, expected in ((math.log(2.0), 4.0 * math.pi), (1.0, 2.0 * math.pi * math.e)):
            lhs, rhs = dw_ds_check(cfg_normalized, s, 0.3)
            assert rhs == pytest.approx(expected, rel=1e-10)
            assert lhs == pytest.approx(rhs, rel=1e-4)

    def test_dw_ds_step_guard(self, cfg_normalized):
        with pytest.raises(GeometryError):
            dw_ds_check(cfg_normalized, 1e-4, 0.0)

    def test_volume_bound_and_equality_point(self, cfg_normalized):
        vals = locus_values(cfg_normalized, math.log(2.0), 1.3)
        assert vals.vol <= vals.bound + 1e-9
        assert vals.vol == pytest.approx(vals.bound, abs=1e-8)  # equality exactly at s = ln 2
        vol2, _, _, bound2, _ = locus_values(cfg_normalized, 3.0, -2.0)
        assert vol2 == pytest.approx(2.0 * math.pi * math.sqrt(math.e ** 3 - 1.0), rel=1e-10)
        assert bound2 == pytest.approx(math.pi * math.e ** 3, rel=1e-10)
        assert vol2 < bound2

    def test_beta_bound(self, cfg_normalized, cfg_h2):
        for s in (0.1, 1.0, 3.0):
            # h = 1 in the plane, where the bound is attained exactly
            for cfg in (cfg_normalized, cfg_h2):
                max_beta = float(np.max(parametrize_locus(cfg, s, 0.0).beta_values()))
                assert max_beta <= 1.0 - 2.0 * math.exp(-cfg.h * s) + 1e-9

    def test_volume_monotone(self, cfg_normalized):
        vols = [locus_values(cfg_normalized, s, 0.0).vol for s in (0.5, 1.0, 1.5, 2.0)]
        assert all(b > a for a, b in zip(vols, vols[1:]))


class TestWorkedExample:
    def test_circle_equation(self, cfg_example):
        s = 2.0 * math.log(5.0 / 4.0)
        L = parametrize_locus(cfg_example, s, 0.0)
        pts = L.points()
        assert np.max(np.abs(pts[:, 0])) <= 1e-10
        assert np.max(np.abs(pts[:, 1] ** 2 + (pts[:, 2] - 1.25) ** 2 - 9.0 / 16.0)) <= 1e-10

    def test_length_and_bound(self, cfg_example):
        s = 2.0 * math.log(5.0 / 4.0)
        length, _, _, bound, _ = locus_values(cfg_example, s, 0.0)
        assert length == pytest.approx(1.5 * math.pi, abs=1e-9)
        assert length < 3.0 * math.pi
        assert bound == pytest.approx(25.0 * math.pi / 16.0, rel=1e-12)
        assert length <= bound

    def test_parametrized_line_integral_oracle(self):
        # the circle y = (3/4) cos t, z = (3/4) sin t + 5/4 has the length
        # integral of 3/(3 sin t + 5); closed form 2 pi a / sqrt(a^2 - b^2)
        theta = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
        quad = float(np.mean(3.0 / (3.0 * np.sin(theta) + 5.0))) * 2.0 * math.pi
        residue = 3.0 * 2.0 * math.pi / math.sqrt(25.0 - 9.0)
        assert quad == pytest.approx(residue, abs=1e-13)
        assert quad == pytest.approx(1.5 * math.pi, abs=1e-13)


class TestStripVolume:
    def test_quadrature_matches_section_integral(self, cfg_normalized):
        # in this model I(s) = pi e^s, so the sliced volume integrates
        # min(sigma, 2r - sigma) pi e^{s1 + sigma}
        c1 = c2 = 0.5 * math.log(2.0)
        r = 0.5
        val = strip_volume(cfg_normalized, c1, c2, r)
        s1 = math.log(2.0)
        xs = np.linspace(0.0, 2.0 * r, 40001)
        ys = np.minimum(xs, 2.0 * r - xs) * math.pi * np.exp(s1 + xs)
        reference = float(np.trapezoid(ys, xs))
        assert val == pytest.approx(reference, rel=1e-8)

    def test_mc_crosscheck(self, cfg_normalized):
        # the oracle slices along the heights of b2, not along s
        c1 = c2 = 0.5 * math.log(2.0)
        r = 0.5
        quad = strip_volume(cfg_normalized, c1, c2, r)
        assert strip_volume_sliced(cfg_normalized, c1, c2, r) == pytest.approx(quad, rel=1e-10, abs=0)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_sliced_oracle_matches_in_every_dimension(self, n):
        # a pair with two finite poles, so k1, k2 and c0 are not zero
        m = ModelSpace(HYPERBOLIC, n)
        base = Point(m, np.r_[np.zeros(n - 1), 1.0])
        f1 = BusemannField(m, boundary_finite(m, np.r_[0.5, np.zeros(n - 2)]), base)
        f2 = BusemannField(m, boundary_finite(m, np.r_[-0.7, np.zeros(n - 2)]), base)
        cfg = make_pair_config(f1, f2)
        for c1, c2, r in ((0.4, 0.3, 0.5), (1.5, -0.2, 0.2), (2.0, 2.0, 3.0)):
            c1, c2 = c1 + cfg.k1, c2 + cfg.k2
            quad = strip_volume(cfg, c1, c2, r)
            assert strip_volume_sliced(cfg, c1, c2, r) == pytest.approx(quad, rel=1e-10, abs=0)

    def test_level_difference_invariance(self, cfg_normalized):
        c1 = c2 = 0.5 * math.log(2.0)
        r = 0.5
        base = strip_volume(cfg_normalized, c1, c2, r)
        for shift in (0.5, 1.0, -1.0):
            moved = strip_volume(cfg_normalized, c1 + shift, c2 - shift, r)
            assert abs(moved - base) / base <= 1e-8

    def test_small_width_quadratic_scaling(self, cfg_normalized):
        c1 = c2 = 0.5 * math.log(2.0)
        v1 = strip_volume(cfg_normalized, c1, c2, 0.02)
        v2 = strip_volume(cfg_normalized, c1, c2, 0.01)
        # volume ~ r^2 I(s1) for small widths
        assert v1 / v2 == pytest.approx(4.0, rel=5e-2)

    def test_axis_touching_rejected(self, cfg_normalized):
        with pytest.raises(GeometryError):
            strip_volume(cfg_normalized, 0.0, 0.0, 0.5)
        with pytest.raises(GeometryError):
            strip_volume(cfg_normalized, 0.3, 0.3, -1.0)

    @pytest.mark.parametrize("c1, c2", [(0.0, 0.0), (-0.2, -0.2), (1.0, -1.5)])
    def test_quadrature_and_mc_share_the_domain(self, cfg_normalized, c1, c2):
        # c1 + c2 - c0 <= 0: the region reaches the axis level
        with pytest.raises(EmptyLocusError):
            strip_volume(cfg_normalized, c1, c2, 0.5)
        with pytest.raises(EmptyLocusError):
            strip_volume_sliced(cfg_normalized, c1, c2, 0.5)


class TestClosedFormProductPath:
    def test_sweep_builds_no_rule_and_evaluates_no_beta(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the product path must not reach the quadrature oracle")

        cfg = _default_config(4)
        monkeypatch.setattr("horoflow.locus.sphere_rule", forbidden)
        monkeypatch.setattr("horoflow.locus.beta", forbidden)
        monkeypatch.setattr("horoflow.busemann.beta", forbidden)
        s_grid, t_grid = np.linspace(0.1, 3.0, 20), np.linspace(-3.0, 3.0, 20)
        rows = sweep_cells(sweep_rows(cfg, s_grid, t_grid))
        assert [row[:2] for row in rows] == [(s, t) for s in s_grid for t in t_grid]
        assert all(row[2] > 0.0 for row in rows)
        L = parametrize_locus(cfg, 1.0, 0.5)
        assert all(value > 0.0 for value in locus_values(cfg, L.s, L.t)[:3])

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_sweep_matches_quadrature_oracle(self, dim):
        cfg = _default_config(dim)
        s_grid, t_grid = (0.0, 0.3, 2.0), (-1.5, 0.4)
        for row in sweep_cells(sweep_rows(cfg, s_grid, t_grid)):
            row = dict(zip(SWEEP_COLUMNS, row))
            oracle = locus_quadrature(parametrize_locus(cfg, row["s"], row["t"]))
            if row["s"] == 0.0:
                assert row["vol"] == oracle.vol == 0.0
                assert all(math.isnan(row[k]) and math.isnan(getattr(oracle, k))
                           for k in ("V", "W", "bound"))
                assert row["beta_max"] == oracle.beta_max == -1.0
                continue
            for key in ("vol", "V", "W", "bound", "beta_max"):
                assert row[key] == pytest.approx(getattr(oracle, key), rel=1e-12, abs=0.0), key
        with pytest.raises(EmptyLocusError):
            sweep_rows(cfg, [-0.1], [0.0])
        with pytest.raises(EmptyLocusError):
            locus_quadrature(parametrize_locus(cfg, -0.1, 0.0))


def _reference_geometry(cfg, s, t):
    """Scalar reference of PairConfig.locus_geometry, one cell at a time."""
    a = math.exp(cfg.k2 - 0.5 * (s + cfg.c0 - t))
    return a, a * math.sqrt(math.expm1(s))


def _reference_values(cfg, s, t):
    """Scalar reference of locus_values, one cell at a time with math."""
    beta_max = 1.0 - 2.0 * math.exp(-s)
    if s == 0.0:
        return LocusValues(0.0, math.nan, math.nan, math.nan, beta_max)
    x = math.expm1(s)
    n = cfg.model.dim
    vol = unit_sphere_area(n - 2) * x ** (0.5 * (n - 2))
    root = math.sqrt(x)
    v, w = vol / root, vol * root
    return LocusValues(vol, v, w, 0.5 * (v + w), beta_max)


# np.exp and math.exp differ by 1 ulp on a few percent of arguments, and a
# value takes a handful of roundings; fixed before comparing.
BROADCAST_REL = 1e-14


def _agree(value, reference):
    if math.isnan(reference):
        return math.isnan(value)
    return abs(value - reference) <= BROADCAST_REL * abs(reference)


class TestBroadcastClosedForms:
    S_GRID = np.array([0.0, 1e-9, 0.05, 0.4, 1.0, 2.7, 6.0, 25.0])
    T_GRID = np.array([-3.0, -0.6, 0.0, 1.1, 3.0])

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_grid_matches_scalar_reference(self, dim):
        cfg = _default_config(dim)
        s, t = self.S_GRID[:, None], self.T_GRID[None, :]
        vals = locus_values(cfg, s, t)
        a, rho = cfg.locus_geometry(s, t)
        shape = (len(self.S_GRID), len(self.T_GRID))
        assert all(np.shape(q) == shape for q in (*vals, a, rho))
        for i, si in enumerate(self.S_GRID):
            for j, tj in enumerate(self.T_GRID):
                ref = _reference_values(cfg, float(si), float(tj))
                for key, value in zip(LocusValues._fields, ref):
                    assert _agree(getattr(vals, key)[i, j], value), (key, si, tj)
                ref_a, ref_rho = _reference_geometry(cfg, float(si), float(tj))
                assert _agree(a[i, j], ref_a) and _agree(rho[i, j], ref_rho)
        # the s = 0 row is the degenerate axis locus
        assert np.all(vals.vol[0] == 0.0) and np.all(rho[0] == 0.0)
        assert np.all(np.isnan(vals.V[0]) & np.isnan(vals.W[0]) & np.isnan(vals.bound[0]))
        assert np.all(vals.beta_max[0] == -1.0)

    @pytest.mark.parametrize("s", [0.0, 0.8])
    def test_scalar_inputs_return_python_floats(self, s):
        cfg = _default_config(4)
        for args in ((s, -0.5), (np.float64(s), np.float64(-0.5)), (s, 1)):
            assert all(type(q) is float for q in locus_values(cfg, *args))
            assert all(type(q) is float for q in cfg.locus_geometry(*args))

    def test_sweep_rows_keep_order_and_keys(self):
        cfg = _default_config(5)
        table = sweep_rows(cfg, list(self.S_GRID), list(self.T_GRID))
        # lists, whose truth values are defined, not ndarrays
        assert type(table) is tuple and all(type(part) is list for part in table)
        rows = sweep_cells(table)
        cells = [(float(s), float(t)) for s in self.S_GRID for t in self.T_GRID]
        assert [row[:2] for row in rows] == cells
        for row, (s, t) in zip(rows, cells):
            assert len(row) == len(SWEEP_COLUMNS)
            assert all(type(v) is float for v in row)
            ref = _reference_values(cfg, s, t)
            assert all(_agree(value, expected) for value, expected in zip(row[2:], ref))

    def test_negative_s_is_named(self):
        cfg = _default_config(3)
        s = np.array([0.5, -0.25, -1.0])
        for call in (lambda: locus_values(cfg, s[:, None], self.T_GRID[None, :]),
                     lambda: cfg.locus_geometry(s, 0.0),
                     lambda: locus_values(cfg, -0.25, 0.0),
                     lambda: sweep_rows(cfg, s, self.T_GRID)):
            with pytest.raises(EmptyLocusError, match=r"s = -0\.25 < 0"):
                call()

    def test_values_reject_negative_s_without_the_geometry(self, monkeypatch):
        # the s < 0 check of locus_values evaluates no height or radius
        cfg = _default_config(3)
        s, t = np.array([0.5, -0.25, -1.0])[:, None], self.T_GRID[None, :]
        with pytest.raises(EmptyLocusError) as geometry:
            cfg.locus_geometry(s, t)

        def forbidden(*args):
            raise AssertionError("locus_values must not evaluate the locus geometry")

        monkeypatch.setattr(type(cfg), "locus_geometry", forbidden)
        with pytest.raises(EmptyLocusError) as values:
            locus_values(cfg, s, t)
        assert str(values.value) == str(geometry.value) == "s = -0.25 < 0: empty intersection"
        assert len(sweep_cells(sweep_rows(cfg, [0.0, 0.5], [-1.0, 1.0]))) == 4

    @pytest.mark.parametrize("dim, s_grid, first", [
        (4, [1.0, 700.0, 710.0], 700.0),
        (2, [1.0, 1500.0], 1500.0),
        (8, [0.0, 100.0, 300.0], 300.0),
    ])
    def test_overflow_names_the_first_cell(self, dim, s_grid, first):
        cfg = _default_config(dim)
        with pytest.raises(GeometryError, match=rf"s = {first}, t = -3\.0"):
            sweep_rows(cfg, s_grid, self.T_GRID)


class TestBroadcastOracle:
    """The quadrature oracle on a grid of cells against the same calls one cell at a time."""

    S_GRID = np.array([0.0, 0.05, 0.4, 1.0, 2.7])
    T_GRID = np.array([-3.0, 0.0, 1.1])

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_grid_matches_scalar_cells(self, dim):
        cfg = _default_config(dim)
        L = parametrize_locus(cfg, self.S_GRID[:, None], self.T_GRID)
        shape, nodes = (len(self.S_GRID), len(self.T_GRID)), L.sphere_weights.size
        points, betas, grid = L.points(), L.beta_values(), locus_quadrature(L)
        assert points.shape == shape + (nodes, dim) and betas.shape == shape + (nodes,)
        assert np.shape(L.measure_factor()) == shape and all(np.shape(q) == shape for q in grid)
        residuals = []
        for i, s in enumerate(self.S_GRID):
            for j, t in enumerate(self.T_GRID):
                cell = parametrize_locus(cfg, float(s), float(t))
                assert np.array_equal(points[i, j], cell.points())
                assert np.array_equal(betas[i, j], cell.beta_values())
                assert all(_agree(q[i, j], value) for q, value in zip(grid, locus_quadrature(cell)))
                residuals.append(cell.membership_residual())
        assert L.membership_residual() == max(residuals)
        # the s = 0 row is the degenerate axis locus
        assert np.all(grid.vol[0] == 0.0) and np.all(grid.beta_max[0] == -1.0)
        assert np.all(np.isnan(grid.V[0]) & np.isnan(grid.W[0]) & np.isnan(grid.bound[0]))

    def test_scalar_cell_gives_python_floats(self):
        cfg = _default_config(4)
        L = parametrize_locus(cfg, 0.8, -0.5)
        assert all(type(q) is float for q in (L.s, L.t, L.height, L.radius, L.measure_factor()))
        assert all(type(q) is float for q in locus_quadrature(L))
        assert all(type(q) is float for q in locus_quadrature(parametrize_locus(cfg, 0.0, 0.5)))

    def test_dw_ds_grid_matches_scalar_cells(self):
        cfg = _default_config(5)
        s = np.array([0.5, 1.0, 2.0])
        lhs, rhs = dw_ds_check(cfg, s, 0.4)
        for i, si in enumerate(s):
            one_lhs, one_rhs = dw_ds_check(cfg, float(si), 0.4)
            assert lhs[i] == pytest.approx(one_lhs, rel=1e-12) and rhs[i] == pytest.approx(one_rhs, rel=1e-14)

    def test_first_overflowing_cell_is_named(self):
        cfg = _default_config(3)
        with pytest.raises(GeometryError, match=r"locus geometry leaves float64 at s = 800\.0, t = 0\.0"):
            parametrize_locus(cfg, np.array([1.0, 800.0, 900.0])[:, None], np.array([0.0, 1.0]))

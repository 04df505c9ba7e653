"""Mutant table: the power of the verify checks against perturbed closed forms.

Mutation analysis (DeMillo, Lipton and Sayward, "Hints on test data
selection", IEEE Computer 11, 1978) applied to the closed forms. Each row
monkeypatches one formula, runs only the checks it names on the models it
names, and asserts that every one of them reports ``fail``. Unpatched, the
same checks pass, so a row fails when its check loses the power to see the
mutant, not when the check breaks for another reason.
"""

import math

import numpy as np
import pytest

from horoflow import busemann as bu
from horoflow import locus as lc
from horoflow import transport as tr
from horoflow import verify
from horoflow.cli import parse_model


def alpha_h_plus_one(monkeypatch):
    """AlphaMap solves alpha' e^{(h+1)(alpha - t)} = 1: F still sends p to q
    but no longer preserves volume."""
    exact = tr.AlphaMap
    monkeypatch.setattr(tr, "AlphaMap", lambda h, t0: exact(h + 1.0, t0))


def bound_is_max_v_w(monkeypatch):
    """The closed-form volume bound (V + W)/2 becomes max(V, W)."""
    exact = lc.locus_values

    def mutant(cfg, s, t):
        q = exact(cfg, s, t)
        return q._replace(bound=np.maximum(q.V, q.W))

    monkeypatch.setattr(lc, "locus_values", mutant)


def flow_off_by_1e_7(monkeypatch):
    """The closed-form pair-flow map is off by a factor 1 + 1e-7, ten times
    the 1e-8 tolerance of the tracking checks."""
    exact = tr.PairFlow.flow
    monkeypatch.setattr(tr.PairFlow, "flow", lambda pf, pts, duration: exact(pf, pts, duration) * (1.0 + 1e-7))


def sum_exponent_doubled(monkeypatch):
    """The sum-flow density's expansion exponent (h/2) ln(x'/x), with
    x = e^{s0} - 1 and x' = e^{s0 + duration} - 1, becomes h ln(x'/x)."""
    exact = tr.flow_density

    def mutant(pf, x, duration):
        density = exact(pf, x, duration)
        if pf.kind != tr.SUM:
            return density
        s0 = pf._config.separation(x)
        return density * (math.expm1(s0 + duration) / math.expm1(s0)) ** (0.5 * pf._config.h)

    monkeypatch.setattr(tr, "flow_density", mutant)


def shared_run_sum_rows_as_difference(monkeypatch):
    """The shared Chebyshev-Picard run integrates its sum rows with sign -1, the
    difference field, in place of +1."""
    exact = tr._pair_vector

    def mutant(f1, f2, coords, sign):
        return exact(f1, f2, coords, -np.abs(sign) if np.ndim(sign) else sign)

    monkeypatch.setattr(tr, "_pair_vector", mutant)


def shape_operator_without_z_squared(monkeypatch):
    """The umbilic shape operator I - g g^T / z^2 loses its 1/z^2."""
    def mutant(f, coords):
        g = f._grad(f.model.check_coords(coords))
        return np.eye(f.model.dim) - g[..., :, None] * g[..., None, :]

    monkeypatch.setattr(bu.BusemannField, "hessian_matrix", mutant)


def w_times_root_x(monkeypatch):
    """The closed-form W gains a factor sqrt(x), x = e^s - 1."""
    exact = lc.locus_values

    def mutant(cfg, s, t):
        q = exact(cfg, s, t)
        return q._replace(W=q.W * np.sqrt(np.expm1(s)))

    monkeypatch.setattr(lc, "locus_values", mutant)


def horosphere_expansion_nan_at_half(monkeypatch):
    """The horosphere volume expansion is NaN at flow time t = 0.5."""
    exact = tr.horosphere_jacobian

    def mutant(f, t, x):
        j = exact(f, t, x)
        return j * np.nan if t == 0.5 else j

    monkeypatch.setattr(tr, "horosphere_jacobian", mutant)


def gradient_at_infinity_nan(monkeypatch):
    """The Busemann gradient of a pole at infinity is NaN."""
    exact = bu.BusemannField.grad_chart
    monkeypatch.setattr(bu.BusemannField, "grad_chart",
                        lambda f, coords: exact(f, coords) * (np.nan if f.xi.is_infinity else 1.0))


def beta_nan(monkeypatch):
    """The gradient correlation beta is NaN everywhere."""
    exact = bu.beta
    monkeypatch.setattr(bu, "beta", lambda f1, f2, x: exact(f1, f2, x) * np.nan)


def busemann_value_negated(monkeypatch):
    """The Busemann value changes sign, so the probe's two-horoball region
    becomes the outside of both horoballs, which holds whole cones of rays.
    (A probe that drops one horoball is not caught: almost every geodesic ray
    leaves a single horoball too.)"""
    exact = bu.BusemannField.value
    monkeypatch.setattr(bu.BusemannField, "value", lambda f, coords: -exact(f, coords))


HYPERBOLIC_MODELS = [f"h{n}" for n in range(2, 9)]

# mutant -> (models, checks that must fail on each)
MUTANTS = {
    alpha_h_plus_one: (HYPERBOLIC_MODELS, [verify.check_map_integral_invariance]),
    bound_is_max_v_w: (["h3", "h5"], [verify.check_strip_volume]),
    flow_off_by_1e_7: (["h3", "h8"], [verify.check_difference_flow_tracking, verify.check_sum_flow_tracking]),
    sum_exponent_doubled: (["h3", "h5"], [verify.check_flow_densities]),
    shared_run_sum_rows_as_difference: (["h3", "h8"], [verify.check_sum_flow_tracking]),
    shape_operator_without_z_squared: (["h2", "h3", "h8"], [verify.check_laplacian_constancy,
                                                            verify.check_hessian_bounds,
                                                            verify.check_hessian_fd]),
    busemann_value_negated: (["h2", "h3", "h8"], [verify.check_visibility_probe]),
    w_times_root_x: (["h3", "h5"], [verify.check_vw_t_invariance, verify.check_dw_ds,
                                    verify.check_isometry_invariance]),
    # a NaN among the values a check takes the worst of fails the check
    horosphere_expansion_nan_at_half: (["h3", "e3"], [verify.check_horosphere_expansion]),
    gradient_at_infinity_nan: (["h3", "h8"], [verify.check_gradient_norm]),
    beta_nan: (["h3", "h8"], [verify.check_axis_gradient_cancellation]),
}


@pytest.mark.parametrize("mutant, model", [(mutant, model) for mutant, (models, _) in MUTANTS.items()
                                           for model in models],
                         ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_mutant_is_caught(mutant, model, monkeypatch):
    checks = MUTANTS[mutant][1]
    ctx = verify.VerifyContext(model=parse_model(model))
    for check in checks:
        assert check(ctx).status == "pass"
    mutant(monkeypatch)
    # a fresh context, so nothing the unpatched checks memoized is reused
    ctx = verify.VerifyContext(model=parse_model(model))
    for check in checks:
        rep = check(ctx)
        assert rep.status == "fail", rep.quantities

"""Tests of the benchmark's output checkers (not part of the Tier-1 run).

    python3 -m pytest -q perfbench/test_checks.py

Each checker must accept output built from the closed forms and reject the
same output with one value perturbed, so that no check passes vacuously.
"""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest

import checks

S_GRID = [0.5, math.log(2.0), 2.0]


def verify_report(model: str) -> dict:
    """A passing `verify all` report whose checked values are the closed forms."""
    dim = int(model[1:])
    names = [f"other-{i}" for i in range(26)]
    report = {"model": model, "checks": [
        {"name": n, "status": "pass", "quantities": {}} for n in names]}
    rows = [{"s": s, **{k: checks.locus_closed_forms(dim, s)[k] for k in ("V", "W")}}
            for s in S_GRID]
    report["checks"].append({"name": "weighted-integrals-t-invariance", "status": "pass",
                             "quantities": {"rows": rows}})
    report["checks"].append({"name": "strip-volume", "status": "pass",
                             "quantities": {"quadrature": checks.strip_volume_h3(math.log(2.0), 0.5)}})
    report["checks"].append({"name": "coarea-slicing", "status": "pass",
                             "quantities": {"sliced": checks.euclidean_bump_integral(dim, 0.5)}})
    return report


@pytest.mark.parametrize("model", ["h3", "e5"])
def test_verify_checker_accepts_closed_forms(model):
    verdict = checks.check_verify_report(verify_report(model), 0, model, S_GRID)
    assert (verdict.attempted, verdict.failed, verdict.problems) == (29, 0, [])


@pytest.mark.parametrize("model, name, path, factor", [
    ("h3", "weighted-integrals-t-invariance", ("rows", 1, "V"), 1 + 1e-7),
    ("h3", "weighted-integrals-t-invariance", ("rows", 2, "W"), 1 - 1e-7),
    ("h3", "weighted-integrals-t-invariance", ("rows", 0, "s"), 1 + 1e-3),
    ("h3", "strip-volume", ("quadrature",), 1 + 1e-11),
    ("e5", "coarea-slicing", ("sliced",), 1 + 1e-3),  # the value is 0.0114; 1e-6 absolute
])
def test_verify_checker_rejects_a_perturbed_value(model, name, path, factor):
    report = copy.deepcopy(verify_report(model))
    target = next(c for c in report["checks"] if c["name"] == name)["quantities"]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] *= factor
    verdict = checks.check_verify_report(report, 0, model, S_GRID)
    assert verdict.problems and verdict.failed == 0


def test_verify_checker_counts_failed_checks_and_their_exit_code():
    report = verify_report("h3")
    report["checks"][3]["status"] = "fail"
    verdict = checks.check_verify_report(report, 1, "h3", S_GRID)
    assert (verdict.attempted, verdict.failed, verdict.problems) == (29, 1, [])
    assert checks.check_verify_report(report, 0, "h3", S_GRID).problems
    assert checks.check_verify_report(verify_report("h3"), 1, "h3", S_GRID).problems


def test_verify_checker_rejects_a_missing_check_or_model_mismatch():
    report = verify_report("h3")
    report["checks"] = [c for c in report["checks"] if c["name"] != "strip-volume"]
    assert checks.check_verify_report(report, 0, "h3", S_GRID).problems
    assert checks.check_verify_report(verify_report("h3"), 0, "h4", S_GRID).problems


def test_closed_forms_match_quadrature():
    # the strip volume is the integral of pi e^(s_lo + sigma) min(sigma, 2r - sigma)
    s_lo, r = math.log(2.0), 0.5
    x, w = np.polynomial.legendre.leggauss(40)
    total = 0.0
    for a, b in ((0.0, r), (r, 2 * r)):
        sigma = a + 0.5 * (b - a) * (x + 1.0)
        total += 0.5 * (b - a) * np.dot(w, math.pi * np.exp(s_lo + sigma) * np.minimum(sigma, 2 * r - sigma))
    assert checks.strip_volume_h3(s_lo, r) == pytest.approx(total, rel=1e-13)
    # the bump integral against its radial quadrature and the Gamma-function form
    u = 0.5 * (x + 1.0)
    radial = 0.5 * np.dot(w, (1 - u * u) ** 3 * u ** 4)
    expected = checks.sphere_area(4) * 0.5 ** 5 * radial
    assert checks.euclidean_bump_integral(5, 0.5) == pytest.approx(expected, rel=1e-13)
    assert checks.euclidean_bump_integral(5, 0.5) == pytest.approx(
        0.5 ** 5 * math.pi ** 2.5 * 6.0 / math.gamma(6.5), rel=1e-13)
    # vol = (V+W)/2 exactly where e^s - 1 = 1 in H^3
    closed = checks.locus_closed_forms(3, math.log(2.0))
    assert closed["vol"] == pytest.approx(closed["bound"], rel=1e-15)


def sweep_csv(dim, s_grid, t_grid, edit=None) -> str:
    lines = [",".join(checks.SWEEP_COLUMNS)]
    for s in s_grid:
        for t in t_grid:
            row = {"s": s, "t": t, **checks.locus_closed_forms(dim, s)}
            if edit:
                edit(row)
            lines.append(",".join(f"{row[c]:.17g}" for c in checks.SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


S_SWEEP = checks.grid(0.1, 3.0, 5)
T_SWEEP = checks.grid(-3.0, 3.0, 4)


def test_grid_matches_linspace():
    assert np.allclose(S_SWEEP, np.linspace(0.1, 3.0, 5), rtol=0, atol=1e-15)
    assert checks.grid(0.5, 2.0, 1) == [0.5]


def test_sweep_checker_accepts_closed_forms():
    verdict = checks.check_sweep_csv(sweep_csv(4, S_SWEEP, T_SWEEP), 0, 4, S_SWEEP, T_SWEEP)
    assert (verdict.attempted, verdict.failed, verdict.problems) == (20, 0, [])


@pytest.mark.parametrize("column, delta", [
    ("vol", 1e-7), ("V", -1e-7), ("W", 1e-7), ("bound", 1e-7), ("beta_max", 1e-8)])
def test_sweep_checker_fails_a_perturbed_cell(column, delta):
    def edit(row):
        if row["s"] == S_SWEEP[2] and row["t"] == T_SWEEP[1]:
            row[column] += delta * max(1.0, abs(row[column]))

    verdict = checks.check_sweep_csv(sweep_csv(4, S_SWEEP, T_SWEEP, edit), 0, 4, S_SWEEP, T_SWEEP)
    assert (verdict.attempted, verdict.failed, verdict.problems) == (20, 1, [])


def test_sweep_checker_fails_a_cell_above_its_bound():
    # at s = ln 2 in H^3 vol equals the bound; nudge vol above it within 1e-9
    s_grid = [math.log(2.0)]

    def edit(row):
        row["vol"] = row["bound"] * (1 + 1e-10)

    verdict = checks.check_sweep_csv(sweep_csv(3, s_grid, T_SWEEP, edit), 0, 3, s_grid, T_SWEEP)
    assert verdict.failed == len(T_SWEEP)


def test_sweep_checker_rejects_wrong_structure():
    good = sweep_csv(4, S_SWEEP, T_SWEEP)
    assert checks.check_sweep_csv(good, 1, 4, S_SWEEP, T_SWEEP).problems
    assert checks.check_sweep_csv(good.replace("beta_max", "beta"), 0, 4, S_SWEEP, T_SWEEP).problems
    missing = "\n".join(good.splitlines()[:-1]) + "\n"
    assert checks.check_sweep_csv(missing, 0, 4, S_SWEEP, T_SWEEP).problems
    shifted = sweep_csv(4, [s + 1e-6 for s in S_SWEEP], T_SWEEP)
    assert checks.check_sweep_csv(shifted, 0, 4, S_SWEEP, T_SWEEP).problems

"""Output checkers of the benchmark, written apart from horoflow.

Each checker compares what one round of a workload wrote with values this
module computes from the paper's closed forms, and returns a
:class:`Verdict`: how many operations the round attempted, how many failed,
and the problems that make the round's output wrong. An operation is one
verify check (failed when its status is ``fail``) or one sweep cell (failed
when any of its values misses its closed form). Nothing here imports
horoflow, so a fault in the package cannot also hide in its checker.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from fractions import Fraction

SWEEP_COLUMNS = ["s", "t", "vol", "V", "W", "bound", "beta_max"]
# Relative tolerance of sweep and V/W values: the quadrature sums a constant
# over a rule whose weights add up to the sphere area, so its error is roundoff.
REL_TOL = 1e-9


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def sphere_area(m: int) -> float:
    """Volume of the unit sphere S^m in R^(m+1); S^0 counts 2 points."""
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


def locus_closed_forms(dim: int, s: float) -> dict:
    """vol, V, W, the bound (V+W)/2 and beta on S(s, t) in H^dim.

    With x = e^s - 1 the locus is a round (dim-2)-sphere with
    vol = |S^(dim-2)| x^((dim-2)/2), V = |S^(dim-2)| x^((dim-3)/2) and
    W = |S^(dim-2)| x^((dim-1)/2); beta is 1 - 2 e^(-s) all over it.
    """
    area = sphere_area(dim - 2)
    x = math.expm1(s)
    v = area * x ** ((dim - 3) / 2.0)
    w = area * x ** ((dim - 1) / 2.0)
    return {"vol": area * x ** ((dim - 2) / 2.0), "V": v, "W": w,
            "bound": 0.5 * (v + w), "beta_max": 1.0 - 2.0 * math.exp(-s)}


def strip_volume_h3(s_lo: float, r: float) -> float:
    """Volume of the H^3 slab pair {c1 <= b1 <= c1+r} and {c2 <= b2 <= c2+r}.

    Its sections have (V+W)/2 = pi e^s, and the section weight is
    min(sigma, 2r - sigma) over sigma in [0, 2r], so the volume is
    pi e^(s_lo) (e^r - 1)^2.
    """
    return math.pi * math.exp(s_lo) * math.expm1(r) ** 2


def euclidean_bump_integral(dim: int, radius: float) -> float:
    """Integral over E^dim of the bump (1 - (|x|/R)^2)^3 on |x| <= R.

    |S^(dim-1)| R^dim times the integral of (1 - u^2)^3 u^(dim-1) over
    [0, 1], which is computed in exact rational arithmetic.
    """
    radial = sum(Fraction(math.comb(3, k) * (-1) ** k, 2 * k + dim) for k in range(4))
    return sphere_area(dim - 1) * radius ** dim * float(radial)


def _rel_gap(value: float, expected: float) -> float:
    return abs(value - expected) / abs(expected)


def check_verify_report(report: dict, exit_code, model: str, s_grid) -> Verdict:
    """Check a ``verify all`` JSON report of one round.

    Every check is an operation. The closed forms checked on top of the
    statuses: each s-row of ``weighted-integrals-t-invariance`` on
    hyperbolic models, the ``strip-volume`` quadrature on h3 and the
    ``coarea-slicing`` value on Euclidean models (to the 1e-6 the program
    itself allows).
    """
    out = Verdict()
    checks = {c["name"]: c for c in report.get("checks", [])}
    if not checks or len(checks) != len(report["checks"]):
        out.problems.append("report has no checks or repeats a check name")
        return out
    out.attempted = len(checks)
    out.failed = sum(c["status"] == "fail" for c in checks.values())
    if exit_code != (1 if out.failed else 0):
        out.problems.append(f"exit code {exit_code} with {out.failed} failed checks")
    if report.get("model") != model:
        out.problems.append(f"report is for model {report.get('model')!r}, not {model!r}")
    dim = int(model[1:])

    def quantities(name):
        check = checks.get(name)
        if check is None:
            out.problems.append(f"check {name} missing")
            return None
        return check["quantities"] if check["status"] != "fail" else None

    if model.startswith("h"):
        q = quantities("weighted-integrals-t-invariance")
        if q is not None:
            rows = q.get("rows", [])
            if [row["s"] for row in rows] != list(s_grid):
                out.problems.append("weighted-integrals rows do not follow the s grid")
            for row in rows:
                closed = locus_closed_forms(dim, row["s"])
                for key in ("V", "W"):
                    if _rel_gap(row[key], closed[key]) > REL_TOL:
                        out.problems.append(f"{key}({row['s']}) = {row[key]!r}, expected {closed[key]!r}")
        if dim == 3:
            q = quantities("strip-volume")
            expected = strip_volume_h3(math.log(2.0), 0.5)
            if q is not None and _rel_gap(q["quadrature"], expected) > 1e-12:
                out.problems.append(f"strip volume {q['quadrature']!r}, expected {expected!r}")
    else:
        q = quantities("coarea-slicing")
        expected = euclidean_bump_integral(dim, 0.5)
        if q is not None and abs(q["sliced"] - expected) > 1e-6:
            out.problems.append(f"coarea slicing {q['sliced']!r}, expected {expected!r}")
    return out


def grid(a: float, b: float, k: int) -> list:
    """The CLI grid a:b:k: k evenly spaced values from a to b."""
    return [a] if k == 1 else [a + (b - a) * i / (k - 1) for i in range(k)]


def check_sweep_csv(text: str, exit_code, dim: int, s_grid, t_grid) -> Verdict:
    """Check the CSV of one ``sweep`` round; each (s, t) cell is an operation."""
    out = Verdict()
    if exit_code != 0:
        out.problems.append(f"sweep exited with {exit_code}")
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != SWEEP_COLUMNS:
        out.problems.append(f"sweep header {header}, expected {SWEEP_COLUMNS}")
        return out
    rows = [[float(v) for v in row] for row in reader]
    cells = [(s, t) for s in s_grid for t in t_grid]
    if len(rows) != len(cells):
        out.problems.append(f"{len(rows)} sweep rows for {len(cells)} cells")
        return out
    out.attempted = len(cells)
    for (s, t), row in zip(cells, rows):
        got = dict(zip(SWEEP_COLUMNS, row))
        if abs(got["s"] - s) > 1e-12 or abs(got["t"] - t) > 1e-12:
            out.problems.append(f"row ({got['s']}, {got['t']}) where the grid has ({s}, {t})")
            continue
        if not cell_ok(got, dim):
            out.failed += 1
    return out


def cell_ok(row: dict, dim: int) -> bool:
    """One sweep cell against the closed forms, and vol <= (V+W)/2."""
    closed = locus_closed_forms(dim, row["s"])
    return (all(_rel_gap(row[k], closed[k]) <= REL_TOL for k in ("vol", "V", "W", "bound"))
            and abs(row["beta_max"] - closed["beta_max"]) <= REL_TOL
            and row["vol"] <= row["bound"] * (1.0 + 1e-12))

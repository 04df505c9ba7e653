"""Shared numerical engines: finite differences, quadrature, Monte Carlo, ODE.

These are the independent oracles of the package: the finite-difference
operators check closed-form derivatives, Monte Carlo checks quadrature, and
the ODE integrators realize flows whose conserved quantities are asserted
elsewhere. They deliberately avoid the closed forms they are used to verify.

Every finite-difference operator (``fd_jacobian``, ``fd_hessian``,
``fd_directional``) evaluates its whole Richardson stencil, center included,
in one call of ``fn``, so ``fn`` must be vectorized over a leading axis: it
maps an (N, n) array of points to (N,) values or (N, m) vectors.

Monte Carlo reproducibility: samples come from a counter-based generator
(Philox) keyed by (seed, block index) with a fixed block size, so sample i is
a pure function of (seed, i). Partial sums are combined with a fixed-order
pairwise tree, which makes results bit-identical across runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .manifold import GeometryError, ModelSpace, Point

__all__ = [
    "ConvergenceError",
    "fd_hessian",
    "fd_jacobian",
    "fd_directional",
    "orthonormal_complement",
    "ode_integrate",
    "QuadratureRule",
    "gauss_legendre",
    "sphere_rule",
    "unit_sphere_area",
    "MCEstimate",
    "mc_integrate_box",
    "TestFunction",
]


class ConvergenceError(RuntimeError):
    """An iterative scheme failed to reach its tolerance."""


# --------------------------------------------------------------------------
# Finite differences
# --------------------------------------------------------------------------

# Default steps: 1e-5 for first-order quantities, 1e-4 for second-order.
# Every operator below uses the same Richardson-extrapolated central-difference
# stencil, whose error is O(step^4), and evaluates it in one call of a ``fn``
# vectorized over a leading axis of points.
FD_STEP_GRAD = 1e-5
FD_STEP_HESS = 1e-4

# offsets of the stencil along each direction, in units of the step
_STENCIL_SCALES = np.array([1.0, -1.0, 0.5, -0.5])


def _on_stencil(fn, x, directions, step: float) -> np.ndarray:
    """fn at the center x, then at x + c*step*d for c in _STENCIL_SCALES and
    each row d of directions, in one call on the (1 + 4k, n) batch."""
    offsets = (_STENCIL_SCALES[:, None, None] * step) * directions[None, :, :]
    points = np.concatenate([x[None, :], (x + offsets).reshape(-1, x.size)])
    return np.asarray(fn(points), dtype=float)


def _richardson_first(values, step: float) -> np.ndarray:
    """First derivatives along each stencil direction (leading axis)."""
    plus, minus, half_plus, half_minus = values[1:].reshape(4, -1, *values.shape[1:])
    return (4.0 * (half_plus - half_minus) / step - (plus - minus) / (2.0 * step)) / 3.0


def _richardson_second(values, step: float) -> np.ndarray:
    """Second derivatives along each stencil direction (leading axis)."""
    plus, minus, half_plus, half_minus = values[1:].reshape(4, -1, *values.shape[1:])
    center = values[0]
    coarse = (plus - 2.0 * center + minus) / (step * step)
    fine = (half_plus - 2.0 * center + half_minus) / (0.25 * step * step)
    return (4.0 * fine - coarse) / 3.0


def fd_jacobian(fn, x, step: float = FD_STEP_GRAD):
    """Central-difference Jacobian of a vectorized map R^n -> R^m.

    ``fn`` maps an (N, n) array to (N, m). Returns ``(J, fn(x))`` with J of
    shape (m, n); for a scalar ``fn``, mapping (N, n) to (N,), J is the
    gradient, of shape (n,).
    """
    x = np.asarray(x, dtype=float)
    values = _on_stencil(fn, x, np.eye(x.size), step)
    return _richardson_first(values, step).T, values[0]


def fd_hessian(fn, x, step: float = FD_STEP_HESS):
    """Central-difference Hessian of a vectorized scalar function (symmetric (n, n)).

    Second derivatives along e_i and e_i + e_j give the entries by
    polarization: H_ij = (D(e_i + e_j) - D(e_i) - D(e_j)) / 2.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    eye = np.eye(n)
    pairs = list(itertools.combinations(range(n), 2))
    directions = np.array(list(eye) + [eye[i] + eye[j] for i, j in pairs])
    second = _richardson_second(_on_stencil(fn, x, directions, step), step)
    out = np.diag(second[:n])
    for (i, j), d in zip(pairs, second[n:]):
        out[i, j] = out[j, i] = 0.5 * (d - second[i] - second[j])
    return out


def fd_directional(fn, x, direction, step: float = FD_STEP_GRAD):
    """Directional derivative of a vectorized scalar function along a chart vector."""
    x = np.asarray(x, dtype=float)
    d = np.asarray(direction, dtype=float)
    scale = np.linalg.norm(d)
    if scale == 0.0:
        return 0.0
    values = _on_stencil(fn, x, (d / scale)[None, :], step)
    return scale * float(_richardson_first(values, step)[0])


def orthonormal_complement(u, inner=np.dot) -> np.ndarray:
    """Rows orthonormal in ``inner`` spanning the complement of the unit vector u.

    Gram-Schmidt of the coordinate axes against u, skipping an axis whose
    remainder is too short to normalize accurately.
    """
    u = np.asarray(u, dtype=float)
    n = u.size
    frame = []
    for e in np.eye(n):
        w = e - inner(e, u) * u
        for b in frame:
            w = w - inner(w, b) * b
        nrm = math.sqrt(float(inner(w, w)))
        if nrm > 1e-8:
            frame.append(w / nrm)
        if len(frame) == n - 1:
            break
    return np.array(frame).reshape(n - 1, n)


# --------------------------------------------------------------------------
# ODE integration
# --------------------------------------------------------------------------


# Butcher's seven-stage sixth-order explicit Runge-Kutta method (J. C. Butcher,
# "On Runge-Kutta processes of high order", J. Austral. Math. Soc. 4, 1964):
# stage i evaluates the field at x + dt * sum_j _RK_A[i][j] k_j, and the step
# ends at x + dt * sum_i _RK_B[i] k_i.
_RK_A = ((), (1 / 3,), (0.0, 2 / 3), (1 / 12, 1 / 3, -1 / 12),
         (-1 / 16, 9 / 8, -3 / 16, -3 / 8), (0.0, 9 / 8, -3 / 8, -3 / 4, 1 / 2),
         (9 / 44, -9 / 11, 63 / 44, 18 / 11, 0.0, -16 / 11))
_RK_B = (11 / 120, 0.0, 27 / 40, 27 / 40, -4 / 15, -4 / 15, 11 / 120)


def _rk_step(field, x, dt):
    """One step of the tableau above; the stage values the field returns are
    never written to."""
    ks = []
    for row in _RK_A:
        stage = x
        for a, k in zip(row, ks):
            if a:
                stage = stage + (a * dt) * k
        ks.append(field(stage))
    for b, k in zip(_RK_B, ks):
        if b:
            x = x + (b * dt) * k
    return x


def ode_integrate(field, x0, duration, *, step: float = 1e-2, record: bool = False):
    """Integrate dx/dt = field(x) for the signed duration by fixed-step
    sixth-order Runge-Kutta (seven field evaluations per step). With
    ``record=True`` returns ``(times, states)`` arrays instead of the final state.

    The duration is split into ``ceil(|duration|/step)`` equal steps, none
    longer than ``step`` (a ratio within 1e-9 of an integer counts as that
    integer, so roundoff in ``duration/step`` adds no extra step).
    """
    if not step > 0.0:
        raise ValueError(f"ODE step must be positive, got {step}")
    x = np.array(x0, dtype=float)
    T = float(duration)
    if T == 0.0:
        return (np.zeros(1), x[None]) if record else x

    count = max(1, math.ceil(abs(T) / step - 1e-9))
    dt = T / count
    xs = [x]
    for _ in range(count):
        x = _rk_step(field, x, dt)
        if record:
            xs.append(x)
    if record:
        return np.linspace(0.0, T, count + 1), np.array(xs)
    return x


# --------------------------------------------------------------------------
# Quadrature
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights summing to the measure of the domain."""

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, values) -> float:
        return float(np.dot(self.weights, np.asarray(values, dtype=float)))


def gauss_legendre(n: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Legendre rule transplanted to [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return QuadratureRule(a + half * (x + 1.0), half * w)


def unit_sphere_area(m: int) -> float:
    """(m)-dimensional volume of the unit sphere S^m in R^{m+1}; S^0 counts 2."""
    if m < 0:
        raise ValueError("sphere dimension must be >= 0")
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


# Philox key of the rotation that turns sphere_rule's second cross-polytope
SPHERE_RULE_KEY = 2022


def sphere_rule(m: int) -> QuadratureRule:
    """Degree-3 spherical design on the unit sphere S^m in R^{m+1}.

    The nodes are the cross-polytope vertices +-e_i and the same polytope
    turned by one fixed rotation (the Q factor of a Gaussian matrix drawn
    from a keyed Philox generator), 4(m+1) nodes of equal weight
    |S^m| / (4(m+1)). Each polytope integrates every polynomial of degree
    <= 3 exactly (Stroud 1971), so the union does too. S^0 is the two-point
    counting rule.
    """
    if m == 0:
        return QuadratureRule(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
    gaussian = _philox(SPHERE_RULE_KEY, m).standard_normal((m + 1, m + 1))
    rotation, _ = np.linalg.qr(gaussian)
    cross = np.concatenate([np.eye(m + 1), -np.eye(m + 1)])
    nodes = np.concatenate([cross, cross @ rotation.T])
    weights = np.full(nodes.shape[0], unit_sphere_area(m) / nodes.shape[0])
    return QuadratureRule(nodes, weights)


# --------------------------------------------------------------------------
# Monte Carlo
# --------------------------------------------------------------------------

MC_BLOCK = 4096


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    standard_error: float
    samples: int
    seed: int

    def pull(self, other: "MCEstimate | float") -> float:
        """Gap to other in units of the combined standard error: 0 when the
        gap is 0, infinite when the error is 0 and the gap is not."""
        if isinstance(other, MCEstimate):
            gap = abs(self.mean - other.mean)
            combined = math.hypot(self.standard_error, other.standard_error)
        else:
            gap = abs(self.mean - float(other))
            combined = self.standard_error
        if gap == 0.0:
            return 0.0
        return gap / combined if combined > 0.0 else math.inf


def _philox(seed: int, block: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(block)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _pairwise_sum(parts: list[float]) -> float:
    vals = list(parts)
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def mc_integrate_box(fn, lo, hi, n_samples: int, seed: int) -> MCEstimate:
    """Monte Carlo integral of a vectorized integrand over a chart box.

    ``fn`` maps an (N, n) array of chart points to (N,) integrand values; the
    integrand must already include any volume density. ``n_samples >= 1``.

    The samples are the Philox stream keyed by (seed, block): block b holds
    samples b * MC_BLOCK onward, drawn as ``_philox(seed, b).random((count, n))``
    and mapped to ``lo + u * (hi - lo)``. ``fn`` receives each block in
    column-major (Fortran) order, so an elementwise kernel runs one long loop
    per coordinate rather than one short loop per sample. A dot product over
    4 to 8 strided coordinates (``np.vecdot``, BLAS) sums in another order
    than over a contiguous row, so such values can differ in the last bit.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(hi <= lo):
        raise GeometryError(f"degenerate integration box: lo = {lo.tolist()}, hi = {hi.tolist()}")
    if n_samples < 1:
        raise ValueError(f"Monte Carlo needs at least one sample, got {n_samples}")
    vol = float(np.prod(hi - lo))
    nblocks = (n_samples + MC_BLOCK - 1) // MC_BLOCK
    span = (hi - lo)[:, None]
    shift = lo[:, None]

    def one_block(b: int):
        count = min(MC_BLOCK, n_samples - b * MC_BLOCK)
        pts = np.asfortranarray(_philox(seed, b).random((count, lo.size)))
        cols = pts.T  # C-contiguous view: one row per coordinate
        cols *= span
        cols += shift
        vals = np.asarray(fn(pts), dtype=float)
        with np.errstate(over="ignore"):
            total_sq = float(np.sum(vals * vals))
        if not math.isfinite(total_sq):
            raise GeometryError(f"the sum of squared integrand values in Monte Carlo block {b} "
                                f"is not a finite float64")
        return float(np.sum(vals)), total_sq

    results = [one_block(b) for b in range(nblocks)]
    total = _pairwise_sum([r[0] for r in results])
    total_sq = _pairwise_sum([r[1] for r in results])
    mean_f = total / n_samples
    var_f = max(total_sq / n_samples - mean_f * mean_f, 0.0)
    se = vol * math.sqrt(var_f / n_samples)
    return MCEstimate(mean=vol * mean_f, standard_error=se, samples=n_samples, seed=seed)


# --------------------------------------------------------------------------
# Smooth compactly supported test functions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """Smooth bump (1 - (d/radius)^2)^3 (clipped at 0) of geodesic distance
    to a center point; compactly supported in the metric ball of the given
    radius."""

    __test__ = False  # not a pytest class, despite the name

    center: Point
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("bump radius must be positive")

    @property
    def model(self) -> ModelSpace:
        return self.center.model

    def __call__(self, coords) -> np.ndarray:
        d = self.model.distance(np.asarray(coords, dtype=float), self.center.coords)
        u = np.asarray(d / self.radius)  # 0-d for one point, which returns a scalar
        u *= u
        np.subtract(1.0, u, out=u)
        np.maximum(u, 0.0, out=u)
        cube = u * u
        cube *= u
        return cube

    def support_chart_box(self, margin: float = 0.05):
        """Chart bounding box of the support ball (exact ball, then margin)."""
        c = self.center.coords
        R = self.radius
        if self.model.is_hyperbolic:
            # metric ball = Euclidean ball centered (xbar, z cosh R), radius z sinh R
            ec = np.array(c, copy=True)
            ec[-1] = c[-1] * math.cosh(R)
            er = c[-1] * math.sinh(R)
        else:
            ec, er = np.array(c, copy=True), R
        lo = ec - er * (1.0 + margin)
        hi = ec + er * (1.0 + margin)
        if self.model.is_hyperbolic:
            lo[-1] = max(lo[-1], c[-1] * math.exp(-R) * (1.0 - margin))
        return lo, hi

    def integral(self) -> float:
        """Integral in geodesic polar coordinates about the center on one 64-node
        Gauss-Legendre rule: |S^{n-1}| int_0^R (1 - (r/R)^2)^3 A(r) dr, where
        A(r) = sinh^{n-1} r in H^n and r^{n-1} in E^n (exact to roundoff)."""
        n = self.model.dim
        rule = gauss_legendre(64, 0.0, self.radius)
        r = rule.nodes
        area = np.sinh(r) if self.model.is_hyperbolic else r
        return unit_sphere_area(n - 1) * rule.integrate((1.0 - (r / self.radius) ** 2) ** 3 * area ** (n - 1))

    def exact_euclidean_integral(self) -> float:
        """Closed-form integral over E^n of the polynomial bump."""
        if self.model.is_hyperbolic:
            raise ValueError("closed form applies to the Euclidean model")
        n = self.model.dim
        return self.radius ** n * math.pi ** (n / 2.0) * 6.0 / math.gamma(n / 2.0 + 4.0)


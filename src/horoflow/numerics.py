"""Shared numerical engines: finite differences, quadrature, Monte Carlo, ODE.

These are the independent oracles of the package: the finite-difference
operators check closed-form derivatives, Monte Carlo checks quadrature, and
the ODE integrators realize flows whose conserved quantities are asserted
elsewhere. They deliberately avoid the closed forms they are used to verify.

Monte Carlo reproducibility: samples come from a counter-based generator
(Philox) keyed by (seed, block index) with a fixed block size, so sample i is
a pure function of (seed, i). Partial sums are combined with a fixed-order
pairwise tree, which makes results bit-identical across runs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .manifold import GeometryError, ModelSpace, Point

__all__ = [
    "ConvergenceError",
    "fd_gradient",
    "fd_hessian",
    "fd_jacobian",
    "fd_directional",
    "orthonormal_complement",
    "ode_integrate",
    "QuadratureRule",
    "periodic_trapezoid",
    "gauss_legendre",
    "tensor_rule",
    "sphere_rule",
    "unit_sphere_area",
    "MCEstimate",
    "mc_integrate_box",
    "TestFunction",
    "integrate_region",
]


class ConvergenceError(RuntimeError):
    """An iterative scheme failed to reach its tolerance."""


# --------------------------------------------------------------------------
# Finite differences
# --------------------------------------------------------------------------

# Default steps: 1e-5 for first-order quantities, 1e-4 for second-order.
# Every operator below uses the same Richardson-extrapolated central-difference
# stencil, whose error is O(step^4).
FD_STEP_GRAD = 1e-5
FD_STEP_HESS = 1e-4

# offsets of the stencil along each direction, in units of the step
_STENCIL_SCALES = np.array([1.0, -1.0, 0.5, -0.5])


def _stencil(x, directions, step: float) -> np.ndarray:
    """The center x, then x + c*step*d for c in _STENCIL_SCALES and each row d
    of directions: shape (1 + 4k, n)."""
    offsets = (_STENCIL_SCALES[:, None, None] * step) * directions[None, :, :]
    return np.concatenate([x[None, :], (x + offsets).reshape(-1, x.size)])


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


def _scalar_on_stencil(fn, x, directions, step: float) -> np.ndarray:
    return np.array([fn(p) for p in _stencil(x, directions, step)], dtype=float)


def fd_gradient(fn, x, step: float = FD_STEP_GRAD):
    """Central-difference gradient of a scalar function on R^n."""
    x = np.asarray(x, dtype=float)
    return _richardson_first(_scalar_on_stencil(fn, x, np.eye(x.size), step), step)


def fd_jacobian(fn, x, step: float = FD_STEP_GRAD):
    """Central-difference Jacobian of a vectorized map R^n -> R^m.

    ``fn`` maps an (N, n) array to (N, m); the whole stencil, center
    included, is one call. Returns ``(J, fn(x))`` with J of shape (m, n).
    """
    x = np.asarray(x, dtype=float)
    values = np.asarray(fn(_stencil(x, np.eye(x.size), step)), dtype=float)
    return _richardson_first(values, step).T, values[0]


def fd_hessian(fn, x, step: float = FD_STEP_HESS):
    """Central-difference Hessian of a scalar function (symmetric (n, n)).

    Second derivatives along e_i and e_i + e_j give the entries by
    polarization: H_ij = (D(e_i + e_j) - D(e_i) - D(e_j)) / 2.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    eye = np.eye(n)
    pairs = list(itertools.combinations(range(n), 2))
    directions = np.array(list(eye) + [eye[i] + eye[j] for i, j in pairs])
    second = _richardson_second(_scalar_on_stencil(fn, x, directions, step), step)
    out = np.diag(second[:n])
    for (i, j), d in zip(pairs, second[n:]):
        out[i, j] = out[j, i] = 0.5 * (d - second[i] - second[j])
    return out


def fd_directional(fn, x, direction, step: float = FD_STEP_GRAD):
    """Directional derivative of a scalar function along a chart vector."""
    x = np.asarray(x, dtype=float)
    d = np.asarray(direction, dtype=float)
    scale = np.linalg.norm(d)
    if scale == 0.0:
        return 0.0
    values = _scalar_on_stencil(fn, x, (d / scale)[None, :], step)
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


def _rk4_step(field, x, dt):
    k1 = field(x)
    k2 = field(x + 0.5 * dt * k1)
    k3 = field(x + 0.5 * dt * k2)
    k4 = field(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

# Dormand-Prince 5(4) embedded pair for the adaptive variant.
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _dopri_step(field, x, dt):
    ks = [field(x)]
    for row in _DP_A[1:]:
        xi = x + dt * sum(a * k for a, k in zip(row, ks))
        ks.append(field(xi))
    x5 = x + dt * sum(b * k for b, k in zip(_DP_B5, ks))
    x4 = x + dt * sum(b * k for b, k in zip(_DP_B4, ks))
    return x5, float(np.max(np.abs(x5 - x4)))


def ode_integrate(field, x0, duration, *, step: float = 1e-3, adaptive: bool = False,
                  rtol: float = 1e-10, min_step: float = 1e-12, record: bool = False):
    """Integrate dx/dt = field(x) for the signed duration.

    Fixed-step classical RK4 by default; ``adaptive=True`` switches to an
    embedded Dormand-Prince pair with step rejection (raises
    :class:`ConvergenceError` when the accepted step underflows ``min_step``,
    e.g. for flows approaching a singular set). With ``record=True`` returns
    ``(times, states)`` arrays instead of the final state.
    """
    x = np.array(x0, dtype=float)
    T = float(duration)
    ts, xs = [0.0], [x.copy()]
    if T == 0.0:
        return (np.array(ts), np.array(xs)) if record else x

    sgn = 1.0 if T > 0 else -1.0
    remaining = abs(T)
    dt = min(step, remaining)
    t = 0.0
    while remaining > 1e-15 * abs(T):
        dt = min(dt, remaining)
        if adaptive:
            xn, err = _dopri_step(field, x, sgn * dt)
            scale = rtol * max(1.0, float(np.max(np.abs(x))))
            if err > scale and dt > min_step:
                dt = max(min_step, 0.5 * dt)
                if dt <= min_step:
                    raise ConvergenceError("adaptive step underflow; field too stiff or singular")
                continue
            if err < 0.03 * scale:
                dt = min(step, 2.0 * dt)
        else:
            xn = _rk4_step(field, x, sgn * dt)
        x = xn
        t += sgn * dt
        remaining -= dt
        if record:
            ts.append(t)
            xs.append(x.copy())
    if record:
        return np.array(ts), np.array(xs)
    return x


# --------------------------------------------------------------------------
# Quadrature
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights summing to the measure of the domain."""

    kind: str
    nodes: np.ndarray
    weights: np.ndarray
    domain: str = ""

    def integrate(self, values) -> float:
        return float(np.dot(self.weights, np.asarray(values, dtype=float)))


def periodic_trapezoid(n: int, period: float = 2.0 * math.pi) -> QuadratureRule:
    """Equispaced rule on [0, period); spectrally accurate for smooth periodic
    integrands."""
    if n < 1:
        raise ValueError("need at least one node")
    nodes = np.arange(n) * (period / n)
    weights = np.full(n, period / n)
    return QuadratureRule("periodic-trapezoid", nodes, weights, f"[0, {period})")


def gauss_legendre(n: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Legendre rule transplanted to [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return QuadratureRule("gauss-legendre", a + half * (x + 1.0), half * w, f"[{a}, {b}]")


def unit_sphere_area(m: int) -> float:
    """(m)-dimensional volume of the unit sphere S^m in R^{m+1}; S^0 counts 2."""
    if m < 0:
        raise ValueError("sphere dimension must be >= 0")
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


# Largest product grid tensor_rule builds: above the 48^4-node plane of the
# five-dimensional coarea slices, below the 64^4-node locus rule of H^6.
TENSOR_RULE_MAX_NODES = 2 ** 23


def tensor_rule(rules) -> QuadratureRule:
    """Product of one-dimensional rules: nodes (N, d) in row-major order of the
    factors, weights the products of the factor weights.

    Raises :class:`GeometryError` when N exceeds ``TENSOR_RULE_MAX_NODES``,
    before anything is allocated.
    """
    count = math.prod(r.nodes.size for r in rules)
    if count > TENSOR_RULE_MAX_NODES:
        sizes = "x".join(str(r.nodes.size) for r in rules)
        raise GeometryError(
            f"product rule of {sizes} = {count} nodes exceeds the cap of {TENSOR_RULE_MAX_NODES}"
        )
    grids = np.meshgrid(*[r.nodes for r in rules], indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    weights = functools.reduce(np.multiply.outer, [r.weights for r in rules]).ravel()
    return QuadratureRule("tensor-product", nodes, weights)


def sphere_rule(m: int, nodes_per_axis: int = 64) -> QuadratureRule:
    """Quadrature on the unit sphere S^m in R^{m+1}.

    S^0 is the two-point counting rule; S^1 uses the periodic trapezoid on
    the angle; higher spheres use a product Gauss-Legendre rule on the
    spherical angles. Weights sum to the sphere volume.
    """
    if m == 0:
        nodes = np.array([[1.0], [-1.0]])
        return QuadratureRule("counting", nodes, np.array([1.0, 1.0]), "S^0")
    if m == 1:
        angle = periodic_trapezoid(nodes_per_axis)
        nodes = np.stack([np.cos(angle.nodes), np.sin(angle.nodes)], axis=-1)
        return QuadratureRule("periodic-trapezoid", nodes, angle.weights.copy(), "S^1")

    polar = [gauss_legendre(nodes_per_axis, 0.0, math.pi) for _ in range(m - 1)]
    azimuth = gauss_legendre(nodes_per_axis, 0.0, 2.0 * math.pi)
    grid = tensor_rule(polar + [azimuth])
    angles = grid.nodes.T
    weights = grid.weights
    # spherical volume element: prod_k sin^{m-1-k}(theta_k), k = 0..m-2
    for k in range(m - 1):
        weights = weights * np.sin(angles[k]) ** (m - 1 - k)
    # embed: x_1 = cos t1, x_2 = sin t1 cos t2, ..., x_{m+1} = sin t1 ... sin tm
    count = weights.size
    coords = np.empty((count, m + 1))
    sin_prod = np.ones(count)
    for k in range(m):
        coords[:, k] = sin_prod * np.cos(angles[k])
        sin_prod = sin_prod * np.sin(angles[k])
    coords[:, m] = sin_prod
    return QuadratureRule("gauss-legendre-product", coords, weights, f"S^{m}")


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

    def agrees_with(self, other: "MCEstimate | float", sigmas: float = 3.0) -> bool:
        if isinstance(other, MCEstimate):
            gap = abs(self.mean - other.mean)
            combined = math.hypot(self.standard_error, other.standard_error)
        else:
            gap = abs(self.mean - float(other))
            combined = self.standard_error
        return gap <= sigmas * combined


def _philox_uniform(seed: int, block: int, shape) -> np.ndarray:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(block)], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.random(shape)


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
    integrand must already include any volume density.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(hi <= lo):
        raise ValueError("degenerate integration box")
    vol = float(np.prod(hi - lo))
    nblocks = (n_samples + MC_BLOCK - 1) // MC_BLOCK

    def one_block(b: int):
        count = min(MC_BLOCK, n_samples - b * MC_BLOCK)
        u = _philox_uniform(seed, b, (count, lo.size))
        pts = lo + u * (hi - lo)
        vals = np.asarray(fn(pts), dtype=float)
        return float(np.sum(vals)), float(np.sum(vals * vals))

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
        u = np.clip(1.0 - (d / self.radius) ** 2, 0.0, None)
        return u ** 3

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

    def exact_euclidean_integral(self) -> float:
        """Closed-form integral over E^n of the polynomial bump."""
        if self.model.is_hyperbolic:
            raise ValueError("closed form applies to the Euclidean model")
        n = self.model.dim
        return self.radius ** n * math.pi ** (n / 2.0) * 6.0 / math.gamma(n / 2.0 + 4.0)


def integrate_region(f, lo, hi, density_fn, *, method: str = "mc",
                     n_samples: int = 200_000, seed: int = 0,
                     nodes_per_axis: int = 48):
    """Integrate f against a density over a chart box.

    ``method="mc"`` returns an :class:`MCEstimate`; ``method="quadrature"``
    returns a float from a product Gauss-Legendre rule. The region must
    contain the support of f; when f can report its support box (as
    :class:`TestFunction` does), escape is detected and rejected.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if hasattr(f, "support_chart_box"):
        slo, shi = f.support_chart_box(margin=0.0)
        if np.any(slo < lo) or np.any(shi > hi):
            raise ValueError("support of the integrand escapes the integration region")

    def integrand(pts):
        return np.asarray(f(pts), dtype=float) * np.asarray(density_fn(pts), dtype=float)

    if method == "mc":
        return mc_integrate_box(integrand, lo, hi, n_samples, seed)
    if method == "quadrature":
        box = tensor_rule([gauss_legendre(nodes_per_axis, float(a), float(b)) for a, b in zip(lo, hi)])
        return box.integrate(integrand(box.nodes))
    raise ValueError(f"unknown integration method {method!r}")

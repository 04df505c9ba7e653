"""Shared numerical engines: finite differences, quadrature, ODE.

These are the independent oracles of the package: the finite-difference
operators check closed-form derivatives, Gauss-Legendre rules integrate over
Busemann-level slices and geodesic polar coordinates, and the
Chebyshev-Picard integrator realizes flows whose conserved quantities are
asserted elsewhere. They deliberately avoid the closed forms they are used to
verify.

Every finite-difference operator (``fd_jacobian``, ``fd_hessian``,
``fd_directional``) evaluates its whole Richardson stencil, center included,
in one call of ``fn``, so ``fn`` must be vectorized over a leading axis: it
maps an (N, n) array of points to (N,) values or (N, m) vectors.
``fd_jacobian`` and ``fd_directional`` also take a batch of P base points,
with a step per point, and evaluate all P stencils in that one call.

``ode_integrate`` splits a duration into equal segments of at most 0.5, each
with 25 Chebyshev-Lobatto nodes, and calls ``field`` once per Picard iteration
on every node of every row still integrated, an (N + 1, *x0.shape) array. A row
stops once its last correction is within 16 eps of its state, so no row depends
on another; with per-row end times a row leaves the batch after the segment
that reaches its end.

The chart oracles built on them (``orthonormal_complement`` here, the
Jacobians of :mod:`horoflow.transport`, the locus frames) take an (n,) point
or a (P, n) batch and give one result per point, a batch from one call.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .manifold import ModelSpace, Point, _rowdot

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


def _stencil_points(x, directions, step) -> np.ndarray:
    """The Richardson stencils of the (P, n) base points x, shape (P, 1 + 4k, n):
    each point, then x + c*step*d for c in _STENCIL_SCALES and each direction
    d. ``step`` is one for all points or one per point; ``directions`` is
    (k, n), shared by all points, or (P, k, n)."""
    # a step per point broadcasts as (P, 1, 1, 1); one step for all stays a
    # scalar, which keeps single-point calls cheap
    step = np.reshape(step, (-1, 1, 1, 1)) if getattr(step, "ndim", 0) else step
    offsets = (_STENCIL_SCALES[:, None, None] * step) * directions[..., None, :, :]
    moved = (x[:, None, None, :] + offsets).reshape(x.shape[0], -1, x.shape[-1])
    return np.concatenate([x[:, None, :], moved], axis=1)


def _on_stencil(fn, x, directions, step) -> np.ndarray:
    """fn on the stencils of all base points in one call: (P, 1 + 4k, ...) values."""
    points = _stencil_points(x, directions, step)
    values = np.asarray(fn(points.reshape(-1, x.shape[-1])), dtype=float)
    return values.reshape(*points.shape[:2], *values.shape[1:])


def _richardson(values, step, second: bool = False) -> np.ndarray:
    """First (or second) derivatives along each stencil direction from the
    (P, 1 + 4k, ...) values on :func:`_stencil_points`: shape (P, k, ...)."""
    blocks = values[:, 1:].reshape(values.shape[0], 4, -1, *values.shape[2:])
    plus, minus, half_plus, half_minus = blocks.swapaxes(0, 1)
    step = np.reshape(step, (-1,) + (1,) * (plus.ndim - 1)) if getattr(step, "ndim", 0) else step
    if not second:
        return (4.0 * (half_plus - half_minus) / step - (plus - minus) / (2.0 * step)) / 3.0
    center = values[:, :1]
    coarse = (plus - 2.0 * center + minus) / (step * step)
    fine = (half_plus - 2.0 * center + half_minus) / (0.25 * step * step)
    return (4.0 * fine - coarse) / 3.0


def fd_jacobian(fn, x, step=FD_STEP_GRAD):
    """Central-difference Jacobian of a vectorized map R^n -> R^m.

    ``fn`` maps an (N, n) array to (N, m). Returns ``(J, fn(x))`` with J of
    shape (m, n); for a scalar ``fn``, mapping (N, n) to (N,), J is the
    gradient, of shape (n,). For base points x of shape (P, n), with one step
    or a step per point, all P stencils are evaluated in one call of ``fn``
    and both results gain a leading axis of length P.
    """
    x = np.asarray(x, dtype=float)
    base = x if x.ndim == 2 else x[None]
    values = _on_stencil(fn, base, np.eye(x.shape[-1]), step)
    J = _richardson(values, step).swapaxes(1, -1)
    return (J, values[:, 0]) if x.ndim == 2 else (J[0], values[0, 0])


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
    second = _richardson(_on_stencil(fn, x[None], directions, step), step, second=True)[0]
    out = np.diag(second[:n])
    for (i, j), d in zip(pairs, second[n:]):
        out[i, j] = out[j, i] = 0.5 * (d - second[i] - second[j])
    return out


def fd_directional(fn, x, direction, step: float = FD_STEP_GRAD):
    """Directional derivative of a vectorized scalar function along a chart
    vector. For base points and directions of shape (P, n), one derivative per
    point, with all P stencils evaluated in one call of ``fn``."""
    x = np.asarray(x, dtype=float)
    d = np.asarray(direction, dtype=float).reshape(-1, x.shape[-1])
    scale = np.sqrt(_rowdot(d, d))
    unit = d / (scale + (scale == 0.0))[:, None]  # a zero direction stays zero
    values = _on_stencil(fn, x if x.ndim == 2 else x[None], unit[:, None, :], step)
    out = scale * _richardson(values, step)[:, 0]
    return out if x.ndim == 2 else float(out[0])


def orthonormal_complement(u) -> np.ndarray:
    """Orthonormal rows spanning the complement of the unit vector u, (n,) ->
    (n - 1, n), or one frame per row of a (P, n) batch: the Householder
    reflection I - v v^T / (1 + |u_k|), v = u + sign(u_k) e_k, that swaps u
    with -sign(u_k) e_k (Householder, J. ACM 5, 1958), without its row k.
    k = argmax |u_k| keeps 1 + |u_k| >= 1 + 1/sqrt(n), so nothing cancels."""
    u = np.asarray(u, dtype=float)
    n = u.shape[-1]
    k = np.argmax(np.abs(u), axis=-1)[..., None]
    u_k = np.take_along_axis(u, k, -1)
    v = u.copy()
    np.put_along_axis(v, k, u_k + np.copysign(1.0, u_k), -1)
    H = np.eye(n) - v[..., :, None] * (v / (1.0 + np.abs(u_k)))[..., None, :]
    return H[np.arange(n) != k].reshape(*u.shape[:-1], n - 1, n)


# --------------------------------------------------------------------------
# ODE integration
# --------------------------------------------------------------------------


# Chebyshev-Picard iteration (C. W. Clenshaw and H. J. Norton, Comput. J. 6,
# 1963; X. Bai and J. L. Junkins, J. Astronaut. Sci. 59, 2011). Segments: the
# duration splits into ceil(|duration| / PICARD_SEGMENT) equal segments, taken
# in turn. On a segment of signed length h each row's state is the polynomial
# through its values at the PICARD_NODES + 1 Chebyshev-Lobatto nodes, and an
# iteration evaluates the field once at every node of every row the segment
# carries and sets the node values to x0 + (h/2) S F, S the node-to-node
# integration matrix. Stop rule: a row stops once its last correction is within
# PICARD_TOL of its largest node value and is frozen from then on, so no row
# depends on another.
# A converged row's relative correction can cycle at its roundoff floor, up to
# 10 eps, without ever falling further, so the rule sits above that floor.
PICARD_NODES, PICARD_SEGMENT, PICARD_MAX_ITERATIONS = 24, 0.5, 64
PICARD_TOL = 16.0 * np.finfo(float).eps


@functools.cache
def _picard_nodes() -> tuple[np.ndarray, np.ndarray]:
    """The ascending Chebyshev-Lobatto nodes on [-1, 1], both ends exact, and S:
    S[i, j] integrates the j-th Lagrange polynomial from -1 to node i."""
    N = PICARD_NODES
    tau = np.sin(np.pi * np.arange(-N, N + 1, 2) / (2 * N))
    # S = V_{N+1} C V_N^-1: V_d[i, k] = T_k(tau_i), k <= d, by T_{k+1} = 2x T_k - T_{k-1};
    # column j of C holds the Chebyshev coefficients of the integral of T_j
    # from -1, its constant row by Clenshaw summation at -1. Both follow
    # numpy.polynomial.chebyshev's chebvander and chebint operation for
    # operation, so S is theirs bit for bit without importing that package:
    # the stop rule is sensitive to S's last bits (T_k = cos(k arccos x) in
    # the Vandermonde matrices moves the h3 flows run from 50 to 51 field calls).
    T = np.empty((N + 2, N + 1))
    T[0], T[1] = 1.0, tau
    for k in range(1, N + 1):
        T[k + 1] = T[k] * (2 * tau) - T[k - 1]
    C, j = np.zeros((N + 2, N + 1)), np.arange(2, N + 1)
    C[1, 0], C[2, 1], C[j + 1, j], C[j - 1, j] = 1.0, 0.25, 1.0 / (2 * (j + 1)), -1.0 / (2 * (j - 1))
    b0, b1 = C[-2], C[-1]
    for row in C[-3::-1]:
        b0, b1 = row - b1, b0 - 2.0 * b1
    C[0] = -(b0 - b1)
    S = T.T @ C @ np.linalg.inv(T[:-1].T)
    S[0] = 0.0  # the first node is the segment's start
    tau.flags.writeable = S.flags.writeable = False
    return tau, S


@functools.cache
def _interpolation(r: tuple, count: int) -> np.ndarray:
    """Barycentric weights (Berrut and Trefethen, SIAM Rev. 46, 2004) of the node
    values at the positions 2 r / count - 1; a position on a node reads it exactly."""
    tau = _picard_nodes()[0]
    u = ((2 * np.array(r) - count) / count)[:, None]
    w = (-1.0) ** np.arange(len(tau)) * np.where(np.abs(tau) == 1.0, 0.5, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = w / (u - tau)
        terms /= terms.sum(axis=1, keepdims=True)
    weights = np.where((u == tau).any(axis=1, keepdims=True), u == tau, terms)
    weights.flags.writeable = False
    return weights


def _rowwise(matrix, values) -> np.ndarray:
    """matrix @ values over the node axis of (N + 1, rows, n) values, one small
    product per row, so that no row's result depends on the batch."""
    out = np.empty((len(matrix),) + values.shape[1:])
    np.matmul(matrix, values.swapaxes(0, 1), out=out.swapaxes(0, 1))
    return out


def _picard_segment(field, x0, slope, h, shape, stats):
    """The (N + 1, rows, n) node values of one segment of length h from the
    (rows, n) states x0, first iterate x0 + (t - t0) slope, and each row's
    field at the end node in the iteration that stopped it."""
    tau, S = _picard_nodes()
    x, hS = x0 + (0.5 * h) * (tau + 1.0)[:, None, None] * slope, (0.5 * h) * S
    active = np.ones(len(x0), dtype=bool)
    for _ in range(PICARD_MAX_ITERATIONS):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            f = np.asarray(field(x.reshape((len(S),) + shape)), dtype=float).reshape(x.shape)
            new = _rowwise(hS, f) + x0
            change = np.abs(new - x).max(axis=0).max(axis=1)
        stats["field_calls"] += 1
        if not np.isfinite(change).all():
            raise ConvergenceError("Chebyshev-Picard iterate is not finite")
        stops = active & (change <= PICARD_TOL * np.abs(new).max(axis=0).max(axis=1))
        stats["correction"] = max(stats["correction"], float(np.max(change, where=stops, initial=0.0)))
        x = new if active.all() else np.where(active[:, None], new, x)
        slope = np.where(stops[:, None], f[-1], slope)
        active &= ~stops
        if not active.any():
            return x, slope
    raise ConvergenceError(f"Chebyshev-Picard iteration did not converge in {PICARD_MAX_ITERATIONS} iterations")


def ode_integrate(field, x0, duration, *, step: float = 1e-2, record: bool = False, stats: dict | None = None):
    """Integrate dx/dt = field(x) for the signed duration by Chebyshev-Picard
    iteration; ``field`` maps an (N + 1, *x0.shape) array of node states to
    their derivatives. With ``record=True`` returns ``(times, states)`` on a grid
    of ``ceil(|duration|/step)`` equal steps (a ratio within 1e-9 of an integer
    counts as that integer), read from the segments' polynomials, a grid time on
    a segment boundary from the segment that ends there; otherwise the final state.

    With ``record=True`` and (rows, n) states, ``duration`` may instead be a
    (rows,) array of per-row end times of one sign, non-increasing in size; the
    largest spans the grid. A row leaves the batch after the segment that
    reaches its last grid time within its end, so ``field`` then sees the
    (N + 1, rows', n) states of the rows still integrated, always a prefix of the
    batch, and a row's states past its end are NaN. ``stats`` receives the
    oracle's error estimate, the largest last correction (``"correction"``), and
    ``"field_calls"``. Raises :class:`ConvergenceError` on a non-finite iterate or
    past the iteration cap.
    """
    if not step > 0.0:
        raise ValueError(f"ODE step must be positive, got {step}")
    x, ends = np.array(x0, dtype=float), np.array(duration, dtype=float)
    if ends.ndim and not (record and x.ndim == 2 and ends.shape == x.shape[:1] and ends.size):
        raise ValueError("per-row end times need record=True and one end time per row of (rows, n) states")
    T = float(ends.flat[0])
    if ends.ndim and not (np.isfinite(ends).all() and (ends * T >= 0.0).all() and (np.diff(np.abs(ends)) <= 0.0).all()):
        raise ValueError("per-row end times must be finite, of one sign and non-increasing in size")
    stats = {} if stats is None else stats
    stats.update(correction=0.0, field_calls=0)
    if T == 0.0:
        return (np.zeros(1), x[None]) if record else x
    segments = max(1, math.ceil(abs(T) / PICARD_SEGMENT - 1e-9))
    rows = x.reshape(-1, x.shape[-1])
    batch, reach = len(rows), np.full(len(rows), segments)  # reach: the segments each row is carried through
    if record:
        # grid point j lies in segment k = ceil(j segments / count) - 1 at r = j segments - k count
        count = max(1, math.ceil(abs(T) / step - 1e-9))
        j = np.arange(count + 1)
        k = np.maximum(j * segments - 1, 0) // count
        last = np.broadcast_to(np.minimum(np.floor(np.abs(ends) * (count / abs(T)) + 1e-9), count).astype(int), batch)
        reach = k[last] + 1
    slope, nodes = np.zeros_like(rows), []
    for seg in range(segments):
        alive = np.count_nonzero(reach > seg)
        shape = x.shape if alive == batch else (alive,) + x.shape[1:]
        values, slope = _picard_segment(field, rows[:alive], slope[:alive], T / segments, shape, stats)
        nodes.append(values)
        rows = values[-1]
    if not record:
        return rows.reshape(x.shape)
    states = np.full((count + 1, batch, x.shape[-1]), np.nan)
    for seg, values in enumerate(nodes):
        at = np.flatnonzero(k == seg)
        states[at, : values.shape[1]] = _rowwise(_interpolation(tuple((at * segments - seg * count).tolist()), count),
                                                  values)
    states[j[:, None] > last] = np.nan
    return np.linspace(0.0, T, count + 1), states.reshape((count + 1,) + x.shape)


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


@functools.cache
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n-node Gauss-Legendre nodes and weights on [-1, 1], computed
    once per n (G. H. Golub and J. H. Welsch, Math. Comp. 23, 1969): the nodes
    are the eigenvalues of the symmetric Jacobi matrix, off-diagonal
    k / sqrt(4k^2 - 1), and one pass of the three-term recurrence for P_n and
    P_{n-1} gives a Newton step and the weights 2 / ((1 - x^2) P_n'(x)^2).
    Eigenvalues only: an eigenvector solve costs more than the whole rule."""
    k = np.arange(1.0, n)
    x = np.linalg.eigvalsh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    p, q = x, np.ones_like(x)  # P_k, P_{k-1}
    for k in range(1, n):
        p, q = ((2 * k + 1) * x * p - k * q) / (k + 1), p
    one_minus_x2 = (1.0 - x) * (1.0 + x)
    dp = n * (q - x * p) / one_minus_x2  # P_n'(x)
    x, w = x - p / dp, 2.0 / (one_minus_x2 * dp * dp)
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(n: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Legendre rule transplanted to [a, b]."""
    x, w = _legendre(n)
    half = 0.5 * (b - a)
    return QuadratureRule(a + half * (x + 1.0), half * w)


def unit_sphere_area(m: int) -> float:
    """(m)-dimensional volume of the unit sphere S^m in R^{m+1}; S^0 counts 2."""
    if m < 0:
        raise ValueError("sphere dimension must be >= 0")
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


# Philox key of the rotation that turns sphere_rule's second cross-polytope
SPHERE_RULE_KEY = 2022


def _philox(seed: int, block: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(block)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sphere_rule(m: int) -> QuadratureRule:
    """Degree-3 spherical design on the unit sphere S^m in R^{m+1}.

    The nodes are the cross-polytope vertices +-e_i and the same polytope
    turned by one fixed rotation (the Q factor of a Gaussian matrix drawn
    from a keyed Philox generator), 4(m+1) nodes of equal weight
    |S^m| / (4(m+1)). Each polytope integrates every polynomial of degree
    <= 3 exactly (Stroud 1971), so the union does too. S^0 is the two-point
    counting rule. The rule is built once per m and its arrays are read-only.
    """
    return _sphere_rule(m)


# cached behind the plain sphere_rule, as _legendre is behind gauss_legendre,
# so tracers that wrap the module's functions still see every call
@functools.cache
def _sphere_rule(m: int) -> QuadratureRule:
    if m == 0:
        nodes, weights = np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    else:
        gaussian = _philox(SPHERE_RULE_KEY, m).standard_normal((m + 1, m + 1))
        rotation, _ = np.linalg.qr(gaussian)
        cross = np.concatenate([np.eye(m + 1), -np.eye(m + 1)])
        nodes = np.concatenate([cross, cross @ rotation.T])
        weights = np.full(nodes.shape[0], unit_sphere_area(m) / nodes.shape[0])
    nodes.flags.writeable = weights.flags.writeable = False
    return QuadratureRule(nodes, weights)


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

    def integral(self) -> float:
        """Integral in geodesic polar coordinates about the center on one 64-node
        Gauss-Legendre rule: |S^{n-1}| int_0^R (1 - (r/R)^2)^3 A(r) dr, where
        A(r) = sinh^{n-1} r in H^n and r^{n-1} in E^n (exact to roundoff)."""
        n = self.model.dim
        rule = gauss_legendre(64, 0.0, self.radius)
        r = rule.nodes
        area = np.sinh(r) if self.model.is_hyperbolic else r
        return unit_sphere_area(n - 1) * rule.integrate((1.0 - (r / self.radius) ** 2) ** 3 * area ** (n - 1))

"""horoflow: horosphere geometry and volume-preserving flows in model Hadamard spaces.

The package constructs Busemann fields on Euclidean space and real
hyperbolic half-space, the volume-preserving point-transport map built from
their normal flows, the difference/sum pair flows, and the
horosphere-intersection loci with their weighted volume integrals - and
verifies every closed form against independent numerical oracles.

Importing the package first loads NumPy with a BLAS thread pool of one
thread, when NumPy is not loaded yet: ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` read "1" while NumPy loads, and
then read what the caller set again, so child processes inherit the caller's
environment unchanged. Every BLAS call horoflow makes is too small to gain
from a pool, whose idle workers only burn CPU. To keep a pool, import numpy
before horoflow.
"""

import os
import sys


# horoflow's BLAS and LAPACK calls are all small: the 64 x 64 Golub-Welsch
# ``eigvalsh`` and the Picard matrix build (``numerics``), the per-row 25 x 25
# Picard products (``numerics._rowwise``), n x n ``det``, ``eigvalsh`` and ``qr``
# (``ModelSpace.frame_volume``, ``VolumePreservingMap.jacobian_det``, the Hessian
# check, ``sphere_rule``'s rotation) and matrix-vector products with at most 64
# columns (the quadrature weights of ``coarea_slice_integral`` and
# ``locus_quadrature``). None gains from a second thread, but OpenBLAS starts its
# workers when NumPy loads, and each spins while it waits for work: under
# ``OPENBLAS_NUM_THREADS=2`` on 2 CPUs the worker took 0.13 s of CPU time, with
# or without a BLAS call, against about 0.2 s for the whole h3 ``verify all``
# on the main thread. ``openblas_set_num_threads(1)`` after the import left
# that time as it was, so the count is set before NumPy loads.
def _load_numpy_with_one_blas_thread():
    """Import NumPy with one BLAS thread, then restore the caller's variables."""
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    caller = {name: os.environ.get(name) for name in names}
    os.environ.update(dict.fromkeys(names, "1"))
    try:
        import numpy  # noqa: F401
    finally:
        for name, value in caller.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value


if "numpy" not in sys.modules:
    _load_numpy_with_one_blas_thread()

from .manifold import (
    EUCLIDEAN,
    HYPERBOLIC,
    BoundaryConfigError,
    BoundaryPoint,
    ChartDomainError,
    GeometryError,
    ModelMismatchError,
    ModelSpace,
    Point,
    TangentVec,
    boundary_direction,
    boundary_finite,
    boundary_from_direction,
    boundary_infinity,
    direction_to_boundary,
    distance,
    geodesic,
    volume_density,
)
from .numerics import (
    ConvergenceError,
    QuadratureRule,
    TestFunction,
    fd_hessian,
    fd_jacobian,
    gauss_legendre,
    ode_integrate,
    sphere_rule,
    unit_sphere_area,
)
from .busemann import (
    BusemannField,
    beta,
    busemann_value,
    coarea_slice_integral,
    estimate_h,
    horosphere_sphere,
    mean_curvature_h,
    sublevel_bounded_probe,
)
from .transport import (
    AlphaMap,
    FlowRun,
    NormalFlow,
    PairFlow,
    SingularFlowError,
    VolumePreservingMap,
    div_identity,
    divergence_fd,
    flow_density,
    flow_density_fd,
    flow_stencil,
    horosphere_jacobian,
    transport_gaps,
)
from .locus import (
    EmptyLocusError,
    IntersectionLocus,
    LocusValues,
    PairConfig,
    VisibilityError,
    dw_ds_check,
    locus_quadrature,
    locus_values,
    make_pair_config,
    parametrize_locus,
    strip_volume,
    strip_volume_sliced,
)

__version__ = "0.1.0"

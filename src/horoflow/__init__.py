"""horoflow: horosphere geometry and volume-preserving flows in model Hadamard spaces.

The package constructs Busemann fields on Euclidean space and real
hyperbolic half-space, the volume-preserving point-transport map built from
their normal flows, the difference/sum pair flows, and the
horosphere-intersection loci with their weighted volume integrals - and
verifies every closed form against independent numerical oracles.
"""

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
    MCEstimate,
    QuadratureRule,
    TestFunction,
    fd_hessian,
    fd_jacobian,
    gauss_legendre,
    mc_integrate_box,
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
    NormalFlow,
    PairFlow,
    SingularFlowError,
    VolumePreservingMap,
    div_identity,
    divergence_fd,
    flow_density,
    flow_density_fd,
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
    strip_volume_mc,
)

__version__ = "0.1.0"

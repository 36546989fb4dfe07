"""Koopman eigenfunctions of low-dimensional flows by characteristic pullback,
with greedy least-squares eigenfunction dictionaries for target observables."""

from .dynamics import (
    BenchmarkSystem,
    VectorField,
    flow,
    flow_many,
    make_system,
    system_names,
)
from .eigenfunctions import (
    ClosedFormEigenfunction,
    OpenEigenfunction,
    ProductEigenfunction,
    Pullback,
    algebraic_combine,
    eig_power,
    evaluate_points,
    koopman_residual,
    levelset_transversality,
    orbit_misses,
    orbit_scaling_defect,
    pullback,
    pullback_many,
    restate_data,
    same_primary_class,
)
from .errors import (
    MISS_REASONS,
    AmbiguousCrossingError,
    BlowUpError,
    BranchCutError,
    ConfigError,
    EmptyTargetError,
    GridMismatchError,
    KoopeigError,
    NotInDomainError,
    OutOfRangeError,
    StepUnderflowError,
    ZeroFieldError,
)
from .manifolds import (
    DataFunction,
    DataManifold,
    TransversalityReport,
    check_injectivity,
    check_transversality,
    circle_manifold,
    data_compatibility,
    point_manifold,
    segment_manifold,
)
from .decomposition import (
    CharacteristicGrid,
    DecompositionResult,
    TargetSample,
    Term,
    build_grid,
    default_candidates,
    fit_h,
    greedy_decompose,
    sweep_lambda,
)
from .spectrum import (
    ApproxEig,
    ScalingFit,
    SpectralResidual,
    WedgeReport,
    approx_eig_residual,
    loglog_slope,
    scaling_fit,
    wedge_point_spectrum_check,
)

__version__ = "0.1.0"

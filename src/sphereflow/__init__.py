"""Spectral solver and verification harness for the modified Swift-Hohenberg
gradient flow constrained to the unit sphere of L2."""

from .analysis import (
    AMuReport,
    InvarianceGrowthReport,
    LipschitzProbeReport,
    OmegaLimitReport,
    a_mu_boundedness,
    g_bound,
    gradient_stall_check,
    invariance_growth_test,
    lipschitz_probe,
    omega_limit_probe,
    sample_v_field,
    scalar_power_gap_constant,
)
from .energy import (
    EnergyReport,
    energy_identity_residual,
    make_report,
    v_norm,
    v_norm_sq,
    write_timeseries_csv,
)
from .integrators import (
    BlowUpError,
    OrderEstimate,
    StepperConfig,
    TrajectoryRecord,
    convergence_order_probe,
    default_step,
    integrate,
    step_etd1,
    step_projected_euler,
    step_rk4,
)
from .mild import (
    NonContractionError,
    PicardResult,
    SpaceTimeGrid,
    TruncationTheta,
    contraction_factor_probe,
    convolve_semigroup,
    phi_map,
    picard_solve,
    sup_v_distance,
    theta_eval,
    xt_distance,
    xt_norm,
)
from .model import (
    ManifoldError,
    ModelParams,
    l2n_power,
    nonlinearity_F,
    power_term,
    project_tangent,
    projected_rhs,
    projected_rhs_direct,
    random_unit_field,
    rayleigh_quotient,
    renormalize,
)
from .spectral import (
    DomainSpec,
    Field,
    GridMismatch,
    SpectralField,
    SpectralGrid,
    apply_A,
    apply_A_power,
    apply_bilaplacian,
    apply_laplacian,
    apply_semigroup,
    basis_mode,
    inner_l2,
    norm_l2,
    phi1,
    random_coeff_field,
    read_snapshot,
    sobolev_norms_sq,
    transform_forward,
    transform_inverse,
    write_snapshot,
)

__version__ = "0.1.0"

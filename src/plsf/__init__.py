"""Pseudo-spectral Faedo-Galerkin solver for shear-thinning power-law
fluids on the periodic torus, with energy-equality gap diagnostics and an
inequality verification lab."""

from .basis import StokesBasis, basis_capacity, full_basis, make_basis
from .constitutive import (
    FluidParams,
    oo_identity_residual,
    stress_difference_bound_check,
)
from .errors import (
    CapacityError,
    ConfigError,
    FieldInvariantError,
    GridMismatchError,
    InsufficientFamilyError,
    PlsfError,
    StiffnessError,
)
from .fields import (
    SpectralVelocity,
    TensorField,
    gradient,
    inner_product,
    leray_project,
    load_checkpoint,
    lp_norm,
    random_solenoidal,
    save_checkpoint,
    taylor_green,
)
from .galerkin import (
    GalerkinState,
    SolverConfig,
    StepController,
    TrajectoryRecord,
    advance,
    galerkin_rhs,
    project_initial_data,
    run_trajectory,
)
from .gap import (
    ExceedancePartition,
    ExponentTable,
    GapEstimate,
    energy_residual,
    exceedance_partition,
    exponents,
    gap_estimate,
    lemma5_functional,
    measure_bound_check,
    weight_P,
    weighted_energy_residual,
)
from .grid import TorusGrid
from .inequalities import (
    InequalityReport,
    check_ap3,
    check_cl_i,
    check_friedrichs,
    check_interpolations,
    check_lemma1,
    check_lemma3,
)

__version__ = "0.1.0"

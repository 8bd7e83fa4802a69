"""Light-cone lattice solver and estimate-audit engine for cubic nonlinear
Dirac systems in 1+1 dimensions (Thirring and Gross-Neveu couplings)."""

from . import kernels
from .errors import (
    BlowUpError,
    ConfigurationError,
    FrequencyDomainError,
    PreconditionError,
    ResolutionError,
    UsageError,
)
from .fields import (
    ComponentSpec,
    GridSpec,
    InitialDatum,
    SpinorField,
    TriangleDomain,
    charge,
    l2_distance,
    make_grid,
    sample_initial,
    zero_datum,
)
from .functionals import (
    AuditReport,
    FunctionalTrace,
    base_functionals,
    bony_decay_audit,
    difference_functionals,
    gronwall_audit,
    pointwise_audit,
    trace_base,
    trace_pair,
    triangle_charge_audit,
)
from .harness import (
    ConvergenceTable,
    convergence_study,
    mollify,
    uniqueness_probe,
)
from .model import (
    GROSS_NEVEU,
    THIRRING,
    EstimateConstants,
    ModelParams,
    check_algebraic_bounds,
    derive_constants,
    eval_nonlinearity,
)
from .solver import (
    ManufacturedCase,
    SolitonOracle,
    SolverConfig,
    evolve,
    manufactured_case,
    pde_residual,
    thirring_soliton,
)

__version__ = "0.1.0"

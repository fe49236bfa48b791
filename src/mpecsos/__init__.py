"""Global solver for polynomial programs with equilibrium constraints.

The pipeline: fit a certified polynomial under-approximation of the inner
value function, relax every constraint by a small eps, and solve the
resulting polynomial programs through moment relaxations with rank-based
minimizer extraction, walking the approximation order upward until the
running best value stalls.
"""

from .boxmoments import box_moments
from .driver import (
    AlgoConfig,
    AlgorithmTrace,
    IterationRecord,
    PerturbationFit,
    Termination,
    fit_perturbation_scaling,
    run_epsilon_ladder,
    solve_mpec,
    trace_to_report,
    verify_report,
    within_upper_bound,
)
from .oracle import (
    EMPTY_INNER,
    INFEASIBLE,
    OracleConfig,
    inner_value,
    inner_value_grid,
    solve_perturbed_reference,
)
from .polynomials import (
    MonomialBasis,
    ParseError,
    Polynomial,
    monomial_basis,
    parse_polynomial,
)
from .problems import (
    BUNDLED_INSTANCES,
    MpecProblem,
    OmegaBox,
    ProblemFormatError,
    bundled_instance,
    load_problem,
    validate_assumptions,
)
from .sdp import (
    BlockKind,
    SdpBlock,
    SdpConstraint,
    SdpProblem,
    SdpSolution,
    SdpStatus,
    SolverOptions,
    residuals,
    solve,
)
from .sos import (
    ExtractionError,
    FeasibilityResult,
    FeasibilityStatus,
    MomentRelaxation,
    MomentSolution,
    RelaxationError,
    SosIdentityProgram,
    build_moment_relaxation,
    build_sos_identity,
    certify_feasibility,
    check_flatness,
    extract_atoms,
    minimize_hierarchy,
    solve_moment_relaxation,
    solve_sos_identity,
)
from .valuefn import (
    ValueFunctionApprox,
    build_value_program,
    compute_value_approximation,
    l1_distance,
    lower_bound_violation,
)

__version__ = "0.1.0"

"""Nonnegative Z-eigenpairs of nonnegative tensors via Newton's method and
three modified Newton iterations (MNI, PNI, MPNI)."""

from .errors import (
    BadArity,
    DimensionMismatch,
    DuplicateIndexTuple,
    IndexOutOfRange,
    InsufficientData,
    NegativeEntry,
    NegativeInput,
    PerturbationExhausted,
    ProjectionEmpty,
    SingularBordered,
    SingularShift,
    TensorFormatError,
    ZeigenError,
    ZeroVector,
)
from .harness import (
    ConvergenceEstimate,
    Eigenpair,
    EigenpairSet,
    RunFailure,
    dedup,
    estimate_order,
    fd_check,
    multi_start,
    random_tensor,
    simplex_start,
)
from .linalg import (
    SolveDiagnostics,
    bordered_matrix,
    ensure_bordered_nonsingular,
    solve_bordered,
    solve_shifted,
)
from .solvers import (
    SolveReport,
    SolverConfig,
    StepRecord,
    mni_select_lambda,
    pni_select_lambda,
    proj_simplex,
    project_sign_dominant,
    run_mni,
    run_mpni,
    run_newton,
    run_pni,
    solve,
)
from .tensor import (
    Iterate,
    Tensor,
    apply,
    build_tensor,
    jacobian_T,
    load_tensor,
    parse_tensor_text,
    ratio_bounds,
    residual,
    z1_to_z2,
)

__version__ = "0.1.0"

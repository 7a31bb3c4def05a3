"""Upward scaling of overloaded binary signature sets: grow a K x L
antipodal set one signature at a time while provably minimizing the
resulting total squared correlation at each step.

The heavy lifting is a sphere search whose radius comes from the
sign-quantized minimum eigenvector of the set's autocorrelation matrix;
an exhaustive scan is available as the optimality oracle, and a bit-flip
descent stand-in serves as the suboptimal comparator.
"""

from .bounds import (
    BoundOverflow,
    BoundTable,
    BoundValue,
    Underloaded,
    binary_tsc_bound,
    fp_operation_bound,
    load_bound_table,
    welch_bound,
)
from .harness import (
    ChainReport,
    CompareEntry,
    CompareReport,
    CompareRow,
    ExtensionRecord,
    InternalConsistencyError,
    compare_methods,
    emit_report,
    extend_once,
    one_shot_experiment,
    upscale_chain,
)
from .linalg import (
    CholeskyFactor,
    EigenFailure,
    EigenPair,
    SingularMatrix,
    cholesky,
    min_eigenpair,
    quantize_sign,
)
from .sigcore import (
    CorrelationMatrix,
    SetFormatError,
    Signature,
    SignatureSet,
    correlation_matrix,
    extend_set,
    hadamard_set,
    load_set,
    quadratic_metric,
    save_set,
    tsc,
    tsc_increment,
)
from .sphere import (
    CapExceeded,
    EmptySphere,
    SearchResult,
    StepAnalysis,
    analyse_step,
    certified_floor,
    local_descent_baseline,
    ml_exhaustive,
    radius_squared,
    sphere_search,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Signature",
    "SignatureSet",
    "CorrelationMatrix",
    "SetFormatError",
    "tsc",
    "correlation_matrix",
    "quadratic_metric",
    "tsc_increment",
    "extend_set",
    "hadamard_set",
    "load_set",
    "save_set",
    "CholeskyFactor",
    "EigenPair",
    "SingularMatrix",
    "EigenFailure",
    "cholesky",
    "min_eigenpair",
    "quantize_sign",
    "BoundValue",
    "BoundTable",
    "Underloaded",
    "BoundOverflow",
    "welch_bound",
    "binary_tsc_bound",
    "fp_operation_bound",
    "load_bound_table",
    "SearchResult",
    "StepAnalysis",
    "EmptySphere",
    "CapExceeded",
    "radius_squared",
    "certified_floor",
    "sphere_search",
    "ml_exhaustive",
    "local_descent_baseline",
    "analyse_step",
    "ExtensionRecord",
    "ChainReport",
    "CompareRow",
    "CompareEntry",
    "CompareReport",
    "InternalConsistencyError",
    "extend_once",
    "upscale_chain",
    "compare_methods",
    "one_shot_experiment",
    "emit_report",
]

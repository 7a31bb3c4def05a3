"""Dense symmetric numerical kernel: a LAPACK Cholesky factor gated by a
pivot floor, with one jitter retry for singular inputs; the minimum
eigenpair by one ``eigh`` call and a canonical choice within its eigenspace;
and antipodal sign quantization.

Everything here is deterministic: fixed thresholds, no randomized pivoting,
and an eigenpair whose value and quantized signs do not depend on the basis
or rounding of the LAPACK build that ``eigh`` runs on. The Cholesky factor
is LAPACK's own, so its last bits may differ between builds; whether jitter
is needed is decided by the pivot floor, which the tests check against
exact singularity on +-1 sets. Downstream exact integer re-scoring protects
search results from the floating point done in this module.
"""

from __future__ import annotations

import math
from operator import mul

import numpy as np
from numpy.linalg import LinAlgError, eigh

from .sigcore import (EXACT_SCAN_LIMIT, CorrelationMatrix, InternalConsistencyError, Record,
                      Signature)

__all__ = [
    "CholeskyFactor",
    "EigenPair",
    "SingularMatrix",
    "EigenFailure",
    "cholesky",
    "min_eigenpair",
    "quantize_sign",
]

# Pivot floor is 1e-9 * K; a first failure adds that much jitter on the
# diagonal and refactors once.
PIVOT_FLOOR_COEFF = 1e-9
# Relative tolerance of the eigenpair rule: eigenvalues within
# EIGEN_TOL * max|R_ij| * L of the smallest form the minimum eigenspace, and
# vector components within EIGEN_TOL * ||x|| of zero quantize to +1.
EIGEN_TOL = 1e-9
RESIDUAL_TOL = 1e-8


class SingularMatrix(InternalConsistencyError):
    """Factorization pivot stayed at or below the floor even after jitter."""


class EigenFailure(InternalConsistencyError):
    """The eigensolver failed, or its pair missed the residual tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class CholeskyFactor(Record):
    """Upper-triangular U with U^T U equal to the (possibly jittered) input.

    ``jitter`` is the diagonal shift that was added before factoring
    (0.0 when none was needed). Only ``cholesky`` builds one, so its shape
    is not checked again here.
    """

    __slots__ = ("entries", "jitter")
    __eq__, __hash__ = object.__eq__, object.__hash__  # equal only to itself

    def __init__(self, entries: np.ndarray, jitter: float = 0.0):
        super().__init__(entries, jitter)

    def __post_init__(self):
        u = np.asarray(self.entries, dtype=np.float64)
        u.setflags(write=False)
        object.__setattr__(self, "entries", u)


class EigenPair(Record):
    """Smallest eigenvalue of a symmetric matrix with a unit eigenvector."""

    __slots__ = ("value", "vector")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, value: float, vector: np.ndarray):
        super().__init__(value, vector)

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=np.float64)
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)


def cholesky(matrix: CorrelationMatrix | np.ndarray) -> CholeskyFactor:
    """Factor R, or a square array derived from a validated R, as U^T U with
    U upper triangular, by LAPACK (``numpy.linalg.cholesky``).

    The factor is accepted only if every pivot u_ii^2 is at least 1e-9 times
    the first diagonal entry (K for R). Otherwise (singular or nearly so, or
    LAPACK found a pivot <= 0) that much jitter is added to the diagonal and
    the input refactored once; the second pass accepts pivots down to half
    the floor to absorb rounding. Raises SingularMatrix if the jittered pass
    still fails, which means the input was not positive semidefinite.
    """
    a = (matrix.entries if isinstance(matrix, CorrelationMatrix) else matrix).astype(np.float64)
    floor = PIVOT_FLOOR_COEFF * float(a[0, 0])
    identity = np.eye(a.shape[0])
    for jitter, accept in ((0.0, floor), (floor, 0.5 * floor)):
        try:
            lower = np.linalg.cholesky(a + jitter * identity)
        except LinAlgError:
            continue
        # LAPACK accepts any pivot > 0; the floor is enforced here.
        if float(np.diag(lower).min()) ** 2 >= accept:
            return CholeskyFactor(entries=lower.T, jitter=jitter)
    raise SingularMatrix(f"a pivot fell below floor {floor:.3e} even after diagonal jitter")


def _signs(columns: np.ndarray) -> np.ndarray:
    """Sign of each column over {-1, +1} as int64. A component with
    |x_i| <= EIGEN_TOL * ||x|| counts as zero and maps to +1."""
    norms = np.sqrt((columns * columns).sum(axis=0))
    return np.where(columns < -EIGEN_TOL * norms, -1, 1).astype(np.int64)


def _exact_rayleigh(entries: np.ndarray, vector: np.ndarray) -> float:
    """x^T R x / x^T x for x = ``vector`` rounded to integers at 2^-60,
    formed in Python ints and correctly rounded by the final division."""
    x = [round(math.ldexp(v, 60)) for v in vector.tolist()]
    numerator = sum(xi * sum(map(mul, row, x)) for xi, row in zip(x, entries.tolist()))
    return numerator / sum(xi * xi for xi in x)


def min_eigenpair(matrix: CorrelationMatrix) -> EigenPair:
    """Smallest eigenvalue and a unit eigenvector chosen from the minimum
    eigenspace by a rule that depends on that space, not on the eigensolver.

    One ``eigh`` call gives the spectrum. The eigenspace E spans the
    eigenvectors with value <= w_0 + EIGEN_TOL * max|R_ij| * L, and its
    projector P = E E^T does not depend on the basis ``eigh`` picked. The
    candidates are the columns of P and P u for the fixed generic vector
    u_i = frac((i + 1) * 0.618...) - 1/2, less those of norm <= sqrt(EIGEN_TOL)
    (P has trace >= 1, so some column survives). Each candidate is
    normalised and quantized as ``quantize_sign`` does; the one with the
    lowest exact metric s^T R s is returned, the first on ties, so
    ``quantize_sign(pair.vector)`` is that point.

    The value is the Rayleigh quotient of the returned vector, formed
    exactly and rounded to 12 decimals: its error is second order in the
    vector's, so it is the same double whatever solver produced the vector,
    and the O(eps^2) residue of a singular R reads 0.0. Raises EigenFailure
    if ``eigh`` fails or the residual exceeds 1e-8 * max|R_ij| * L.
    """
    entries = matrix.entries
    n = matrix.dim
    dense = entries.astype(np.float64)
    try:
        values, vectors = eigh(dense)
    except LinAlgError as exc:
        raise EigenFailure(f"eigh failed: {exc}", residual=math.inf) from exc
    max_entry = float(np.abs(entries).max())
    space = vectors[:, values <= values[0] + EIGEN_TOL * max_entry * n]
    projector = space @ space.T
    generic = np.array([(i + 1) * 0.6180339887498949 % 1.0 - 0.5 for i in range(n)])
    candidates = np.column_stack([projector, projector @ generic])
    norms = np.sqrt((candidates * candidates).sum(axis=0))
    keep = norms > math.sqrt(EIGEN_TOL)
    candidates = candidates[:, keep] / norms[keep]
    # A float64 product runs on BLAS; every partial sum s^T R s is an integer
    # of magnitude at most sum |R_ij|, so it is exact below EXACT_SCAN_LIMIT.
    form = dense if matrix.abs_sum < EXACT_SCAN_LIMIT else entries
    signs = _signs(candidates).astype(form.dtype)
    vector = candidates[:, int(np.argmin((signs * (form @ signs)).sum(axis=0)))]
    value = round(_exact_rayleigh(entries, vector), 12)

    residual = float(np.sqrt(((entries @ vector - value * vector) ** 2).sum()))
    if residual > RESIDUAL_TOL * max_entry * n:
        raise EigenFailure(
            f"residual {residual:.3e} exceeds tolerance for the returned pair",
            residual=residual,
        )
    return EigenPair(value=value, vector=vector)


def quantize_sign(vector) -> Signature:
    """Entrywise sign over {-1, +1}; entries with |x_i| <= EIGEN_TOL * ||x||,
    zeros included, map to +1."""
    column = np.asarray(vector, dtype=np.float64).reshape(-1, 1)
    return Signature(tuple(_signs(column)[:, 0].tolist()))

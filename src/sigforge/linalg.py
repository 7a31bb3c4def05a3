"""Dense symmetric numerical kernel: Cholesky factorization with a jitter
fallback for singular inputs, cyclic-Jacobi minimum eigenpair, and antipodal
sign quantization.

Everything here is deterministic: fixed sweep order, fixed thresholds, no
randomized pivoting. Downstream exact integer re-scoring protects search
results from the floating point done in this module.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .sigcore import CorrelationMatrix, Signature

__all__ = [
    "CholeskyFactor",
    "EigenPair",
    "SingularMatrix",
    "EigenFailure",
    "cholesky",
    "min_eigenpair",
    "quantize_sign",
    "PIVOT_FLOOR_COEFF",
]

# Pivot floor is 1e-9 * K; a first failure adds that much jitter on the
# diagonal and refactors once.
PIVOT_FLOOR_COEFF = 1e-9
JACOBI_SWEEP_CAP = 100
JACOBI_OFF_TOL = 1e-12
RESIDUAL_TOL = 1e-8


class SingularMatrix(ArithmeticError):
    """Factorization pivot stayed at or below the floor even after jitter."""


class EigenFailure(ArithmeticError):
    """Eigen iteration did not reach the residual tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True, eq=False)
class CholeskyFactor:
    """Upper-triangular U with U^T U equal to the (possibly jittered) input.

    ``jitter`` is the diagonal shift that was added before factoring
    (0.0 when none was needed).
    """

    entries: np.ndarray
    jitter: float = 0.0

    def __post_init__(self):
        u = np.asarray(self.entries, dtype=np.float64)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError("factor must be square")
        if np.any(np.tril(u, -1) != 0.0):
            raise ValueError("factor must be upper triangular")
        if np.any(np.diag(u) <= 0.0):
            raise ValueError("factor diagonal must be strictly positive")
        u.setflags(write=False)
        object.__setattr__(self, "entries", u)

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])


@dataclass(frozen=True, eq=False)
class EigenPair:
    """Smallest eigenvalue of a symmetric matrix with a unit eigenvector."""

    value: float
    vector: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=np.float64)
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)


def _factor_upper(a: np.ndarray, pivot_floor: float):
    """Row-by-row upper Cholesky; returns (U, None) or (None, failing pivot)."""
    n = a.shape[0]
    u = np.zeros_like(a)
    for i in range(n):
        pivot = a[i, i] - u[:i, i] @ u[:i, i]
        if pivot < pivot_floor:
            return None, float(pivot)
        u[i, i] = math.sqrt(pivot)
        if i + 1 < n:
            u[i, i + 1 :] = (a[i, i + 1 :] - u[:i, i] @ u[:i, i + 1 :]) / u[i, i]
    return u, None


def cholesky(matrix: CorrelationMatrix | np.ndarray) -> CholeskyFactor:
    """Factor R, or a square array derived from a validated R, as U^T U with
    U upper triangular.

    If a pivot falls below 1e-9 times the first diagonal entry (K for R:
    singular or nearly so), adds that much jitter to the diagonal and
    refactors once; the second pass accepts pivots down to half the floor to
    absorb rounding. Raises SingularMatrix if the jittered pass still fails,
    which means the input was not positive semidefinite.
    """
    a = (matrix.entries if isinstance(matrix, CorrelationMatrix) else matrix).astype(np.float64)
    floor = PIVOT_FLOOR_COEFF * float(a[0, 0])
    u, _ = _factor_upper(a, floor)
    if u is not None:
        return CholeskyFactor(entries=u, jitter=0.0)
    u, bad = _factor_upper(a + floor * np.eye(a.shape[0]), 0.5 * floor)
    if u is None:
        raise SingularMatrix(
            f"pivot {bad:.3e} at/below floor {floor:.3e} even after diagonal jitter"
        )
    return CholeskyFactor(entries=u, jitter=floor)


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.sqrt((off * off).sum()))


def min_eigenpair(matrix: CorrelationMatrix) -> EigenPair:
    """Smallest eigenvalue and a unit eigenvector, by cyclic Jacobi sweeps.

    Converges when the off-diagonal Frobenius mass drops below
    1e-12 * ||R||_F, capped at 100 sweeps. Raises EigenFailure (carrying the
    best residual) if the cap is hit or the final residual exceeds
    1e-8 * ||R||_max * L.

    Each rotation runs on Python float lists: rows p and q are rotated and
    mirrored into columns p and q. For j outside {p, q} the column update
    rounds the same products and sums as the row update (neither CPython
    nor numpy fuses them), so the matrix stays exactly symmetric and every
    entry is bit-identical to a two-sided numpy rotation.

    No eigenvector matrix is formed. Each applied rotation (p, q, c, s) is
    logged, and after convergence the log is replayed last to first onto
    the unit vector e_idx of the smallest diagonal entry: the same product
    of rotations as column idx of V = J_1 ... J_m, associated the other way
    round, so it agrees with that column to rounding at O(1) per rotation.
    The log holds at most one rotation per off-diagonal pair per sweep,
    O(sweeps * L^2) entries in compact arrays.
    """
    a = matrix.entries.astype(np.float64)
    n = matrix.dim
    off_tol = JACOBI_OFF_TOL * float(np.sqrt((a * a).sum()))
    a = a.tolist()
    rot_p, rot_q, rot_c, rot_s = array("i"), array("i"), array("d"), array("d")

    converged = False
    for _ in range(JACOBI_SWEEP_CAP):
        if _offdiag_norm(np.array(a)) <= off_tol:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                tau = (a[q][q] - a[p][p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                row_p, row_q = a[p], a[q]
                new_p = [c * x - s * y for x, y in zip(row_p, row_q)]
                new_q = [s * x + c * y for x, y in zip(row_p, row_q)]
                # The 2x2 block: the column pass applied to the rotated rows.
                new_p[p] = c * new_p[p] - s * new_p[q]
                new_q[q] = s * new_q[p] + c * new_q[q]
                new_p[q] = new_q[p] = 0.0
                a[p], a[q] = new_p, new_q
                for row, x, y in zip(a, new_p, new_q):
                    row[p], row[q] = x, y
                rot_p.append(p)
                rot_q.append(q)
                rot_c.append(c)
                rot_s.append(s)
    a = np.array(a)
    if not converged and _offdiag_norm(a) > off_tol:
        raise EigenFailure(
            f"no convergence within {JACOBI_SWEEP_CAP} sweeps "
            f"(off-diagonal mass {_offdiag_norm(a):.3e})",
            residual=_offdiag_norm(a),
        )

    idx = int(np.argmin(np.diag(a)))
    value = float(a[idx, idx])
    v = [0.0] * n
    v[idx] = 1.0
    for p, q, c, s in zip(reversed(rot_p), reversed(rot_q), reversed(rot_c), reversed(rot_s)):
        v[p], v[q] = c * v[p] + s * v[q], c * v[q] - s * v[p]
    vector = np.array(v)
    vector /= math.sqrt(float(vector @ vector))

    residual = float(np.sqrt(((matrix.entries @ vector - value * vector) ** 2).sum()))
    max_entry = float(np.abs(matrix.entries).max())
    if residual > RESIDUAL_TOL * max_entry * n:
        raise EigenFailure(
            f"residual {residual:.3e} exceeds tolerance for the returned pair",
            residual=residual,
        )
    return EigenPair(value=value, vector=vector)


def quantize_sign(vector) -> Signature:
    """Entrywise sign over {-1, +1}; zero entries map to +1."""
    arr = np.asarray(vector, dtype=np.float64).ravel()
    return Signature(tuple(1 if x >= 0.0 else -1 for x in arr))

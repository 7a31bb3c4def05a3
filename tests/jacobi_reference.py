"""The per-rotation numpy cyclic Jacobi that ``linalg.min_eigenpair`` ran
before its sweep moved to Python float lists, kept verbatim as the
bit-identity reference for ``tests/test_linalg.py``.

Its thresholds and its result type are imported from ``sigforge.linalg``,
so both kernels run with the same sweep cap and tolerances.
"""

import math

import numpy as np

from sigforge.linalg import (
    JACOBI_OFF_TOL,
    JACOBI_SWEEP_CAP,
    RESIDUAL_TOL,
    EigenFailure,
    EigenPair,
)
from sigforge.sigcore import CorrelationMatrix


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.sqrt((off * off).sum()))


def _jacobi_rotate(a: np.ndarray, vecs: np.ndarray, p: int, q: int) -> None:
    apq = a[p, q]
    tau = (a[q, q] - a[p, p]) / (2.0 * apq)
    if tau >= 0.0:
        t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
    else:
        t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c

    row_p, row_q = a[p, :].copy(), a[q, :].copy()
    a[p, :] = c * row_p - s * row_q
    a[q, :] = s * row_p + c * row_q
    col_p, col_q = a[:, p].copy(), a[:, q].copy()
    a[:, p] = c * col_p - s * col_q
    a[:, q] = s * col_p + c * col_q
    a[p, q] = 0.0
    a[q, p] = 0.0

    vec_p, vec_q = vecs[:, p].copy(), vecs[:, q].copy()
    vecs[:, p] = c * vec_p - s * vec_q
    vecs[:, q] = s * vec_p + c * vec_q


def min_eigenpair(matrix: CorrelationMatrix) -> EigenPair:
    """Smallest eigenvalue and a unit eigenvector, by cyclic Jacobi sweeps.

    Converges when the off-diagonal Frobenius mass drops below
    1e-12 * ||R||_F, capped at 100 sweeps. Raises EigenFailure (carrying the
    best residual) if the cap is hit or the final residual exceeds
    1e-8 * ||R||_max * L.
    """
    a = matrix.entries.astype(np.float64)
    n = matrix.dim
    vecs = np.eye(n)
    off_tol = JACOBI_OFF_TOL * float(np.sqrt((a * a).sum()))

    converged = False
    for _ in range(JACOBI_SWEEP_CAP):
        if _offdiag_norm(a) <= off_tol:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] != 0.0:
                    _jacobi_rotate(a, vecs, p, q)
    if not converged and _offdiag_norm(a) > off_tol:
        raise EigenFailure(
            f"no convergence within {JACOBI_SWEEP_CAP} sweeps "
            f"(off-diagonal mass {_offdiag_norm(a):.3e})",
            residual=_offdiag_norm(a),
        )

    idx = int(np.argmin(np.diag(a)))
    value = float(a[idx, idx])
    vector = vecs[:, idx].copy()
    vector /= math.sqrt(float(vector @ vector))

    residual = float(np.sqrt(((matrix.entries @ vector - value * vector) ** 2).sum()))
    max_entry = float(np.abs(matrix.entries).max())
    if residual > RESIDUAL_TOL * max_entry * n:
        raise EigenFailure(
            f"residual {residual:.3e} exceeds tolerance for the returned pair",
            residual=residual,
        )
    return EigenPair(value=value, vector=vector)

"""Reference answers computed without the package under test.

Everything here uses numpy and plain Python only, so a change to sigforge
cannot make its own output look right. The exhaustive minimum uses the same
definition as ``ml_exhaustive``: every s in {-1, +1}^L with s_L = +1, exact
integer metric s^T R s, first minimum in lexicographic order with +1 before
-1 and s_1 most significant. It splits s into a head and a tail
(meet in the middle), so the L = 24 scan is one float64 matrix product per
block, exact because every metric is far below 2^53.
"""

from __future__ import annotations

import numpy as np

# Rows of the head block handled per matrix product; keeps the scratch
# array near 2 MB at L = 24, so the benchmark process stays small.
_HEAD_BLOCK = 128

COMPARE_HEADER = (
    "path,k_after,length,tsc_before,tsc_quant,tsc_descent,tsc_sd,tsc_ml,"
    "binary_bound,binary_bound_kind,gap_quant,gap_descent,gap_sd,gap_ml,error"
)


def sign_rows(bits: int) -> np.ndarray:
    """All 2^bits sign rows in lexicographic order (+1 before -1), first
    column most significant."""
    idx = np.arange(1 << bits, dtype=np.int64)
    shifts = np.arange(bits - 1, -1, -1, dtype=np.int64)
    return 1 - 2 * ((idx[:, None] >> shifts[None, :]) & 1)


def _row_forms(signs: np.ndarray, block: np.ndarray) -> np.ndarray:
    return ((signs @ block) * signs).sum(axis=1)


def exhaustive_min(r: np.ndarray) -> tuple[int, np.ndarray]:
    """(minimum metric, lexicographically first minimizer with s_L = +1)."""
    r = np.asarray(r, dtype=np.int64)
    dim = r.shape[0]
    if dim == 1:
        return int(r[0, 0]), np.ones(1, dtype=np.int64)
    head = dim // 2
    tail = dim - head
    head_signs = sign_rows(head)
    tail_signs = np.hstack([sign_rows(tail - 1), np.ones((1 << (tail - 1), 1), np.int64)])
    head_q = _row_forms(head_signs, r[:head, :head])
    tail_q = _row_forms(tail_signs, r[head:, head:])
    cross = (r[:head, head:] @ tail_signs.T).astype(np.float64)
    best_metric = None
    best_index = None
    for start in range(0, head_signs.shape[0], _HEAD_BLOCK):
        rows = head_signs[start:start + _HEAD_BLOCK]
        total = 2.0 * (rows.astype(np.float64) @ cross)
        total += head_q[start:start + _HEAD_BLOCK, None] + tail_q[None, :]
        flat = int(np.argmin(total))
        value = int(round(total.flat[flat]))
        if best_metric is None or value < best_metric:
            best_metric = value
            best_index = (start + flat // total.shape[1], flat % total.shape[1])
    chips = np.concatenate([head_signs[best_index[0]], tail_signs[best_index[1]]])
    if int(chips @ r @ chips) != best_metric:
        raise ArithmeticError("reference scan lost exactness")
    return best_metric, chips


def tsc_of_rows(rows: np.ndarray) -> int:
    """Total squared correlation of a K x L sign matrix, exactly."""
    gram = np.asarray(rows, dtype=np.int64) @ np.asarray(rows, dtype=np.int64).T
    return int((gram * gram).sum())


def correlation(rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.int64)
    return rows.T @ rows


def set_text(rows: np.ndarray) -> str:
    """The set-file text format: header ``K L``, then one token row each."""
    rows = np.asarray(rows)
    lines = [f"{rows.shape[0]} {rows.shape[1]}"]
    lines.extend(" ".join("+1" if c > 0 else "-1" for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def quantized_eigvec(r: np.ndarray, min_margin: float = 1e-6) -> np.ndarray | None:
    """Sign of the minimum eigenvector (zero maps to +1), or None when that
    sign pattern is not well defined: a near-repeated smallest eigenvalue or
    a component near zero would let rounding decide it."""
    values, vectors = np.linalg.eigh(np.asarray(r, dtype=np.float64))
    scale = max(1.0, float(np.abs(values).max()))
    if values.size > 1 and values[1] - values[0] < min_margin * scale:
        return None
    vector = vectors[:, 0]
    if float(np.abs(vector).min()) < min_margin:
        return None
    return np.where(vector >= 0.0, 1, -1).astype(np.int64)


def descent_metric(r: np.ndarray, start: np.ndarray) -> int:
    """First-improvement single-bit-flip descent, scanning indices upward and
    restarting after each move; returns the final metric."""
    r = np.asarray(r, dtype=np.int64)
    current = np.array(start, dtype=np.int64)
    metric = int(current @ r @ current)
    improved = True
    while improved:
        improved = False
        for index in range(current.size):
            current[index] = -current[index]
            trial = int(current @ r @ current)
            if trial < metric:
                metric = trial
                improved = True
                break
            current[index] = -current[index]
    return metric


def bound_after(k_after: int, length: int) -> tuple[int, str]:
    """The bound column with no case table configured."""
    value = k_after * length * max(k_after, length)
    return value, ("binary_fallback_welch" if k_after >= length else "welch")


def compare_line(path: str, rows: np.ndarray) -> str | None:
    """Expected ``compare`` CSV row for one set, or None if the quantized
    column is not well defined for it."""
    rows = np.asarray(rows, dtype=np.int64)
    k, length = rows.shape
    r = correlation(rows)
    quant = quantized_eigvec(r)
    if quant is None:
        return None
    tsc_before = tsc_of_rows(rows)
    best, _ = exhaustive_min(r)
    metrics = [int(quant @ r @ quant), descent_metric(r, quant), best, best]
    cells = [tsc_before + length * length + 2 * metric for metric in metrics]
    bound, kind = bound_after(k + 1, length)
    return ",".join(
        [path, str(k + 1), str(length), str(tsc_before)]
        + [str(c) for c in cells]
        + [str(bound), kind]
        + [str(c - bound) for c in cells]
        + [""]
    )

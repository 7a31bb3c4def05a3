"""Sphere-decoder search over the antipodal cube {-1, +1}^L.

The minimum of s^T R s is found by factoring a form A = U^T U that ranks
sign vectors as R does, bounding each coordinate through the
weighted-square form of ||U s||^2, and walking the resulting tree depth
first in numpy blocks. The radius comes from the sign-quantized minimum
eigenvector, which guarantees the true minimizer lies inside the sphere.
Under the assumptions ``_rounding_slack`` states, its float64 slack keeps
every sign vector within the radius in the walk, and every leaf is
re-scored in exact integer arithmetic, so the argmin is never lost.

Two walks share one block traversal of A's factor with its indices
reversed, which visits leaves in tie-break order and counts nodes as a
plain depth-first walk would, and one exact scorer,
``sigcore.quadratic_metric``. ``sphere_search``'s ``lambda_min`` selects
the walk. Without it, the fixed-radius walk enumerates the whole ball of R.
With it, the first-optimum walk, the one the extension pipeline runs,
starts at its form's nearest-plane leaf, shrinks the radius after each exact
improvement and stops at the eigenvalue floor, which it certifies only when
a leaf reaches it. Both walk one positive definite form, A = L*R - (b-2)*I
with b the proposed floor or 0.

Also provides the exhaustive scan used as the optimality oracle and a plain
single-bit-flip descent baseline for method comparisons.
"""

from __future__ import annotations

import functools
import math
from operator import mul

import numpy as np

from .bounds import BoundOverflow, fp_operation_bound
from .linalg import SingularMatrix, cholesky, min_eigenpair, quantize_sign
from .sigcore import (
    EXACT_SCAN_LIMIT,
    CorrelationMatrix,
    Record,
    Signature,
    SignatureSet,
    _integer,
    correlation_matrix,
    quadratic_metric,
)

__all__ = [
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
]

DEFAULT_ML_CAP = 24
# Float64 entries per block of the exhaustive scan (2 MB).
_BLOCK = 1 << 18
# Rows per block of the sphere walk: fewer where the open blocks, up to
# 2 * rows * L^2 float64 entries, would pass 2 * _WALK_ENTRIES (16 MB).
WALK_BLOCK_ROWS = 256
_WALK_ENTRIES = 1 << 20


class EmptySphere(RuntimeError):
    """Search finished with no candidate inside the radius.

    Impossible when the radius is the quantized-eigenvector metric; callers
    treat this as an internal-consistency failure, not an input error.
    """


class CapExceeded(RuntimeError):
    """Exhaustive scan refused: L above the cap, or R too large to scan exactly."""


class InternalConsistencyError(RuntimeError):
    """A guaranteed-equal quantity came out unequal; the build is wrong."""


class SearchResult(Record):
    """Outcome of one search, with exact integer scoring.

    ``candidates`` holds the enumerated (signature, exact metric) pairs in
    visit order, which is lexicographic (+1 < -1), when the search kind
    retains them (the fixed-radius sphere walk does; the first-optimum walk,
    the exhaustive and descent oracles do not).
    """

    __slots__ = ("best", "best_metric", "candidates_enumerated", "nodes_visited", "ties",
                 "candidates")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, best: Signature, best_metric: int, candidates_enumerated: int,
                 nodes_visited: int, ties: int, candidates: tuple | None = None):
        super().__init__(best, best_metric, candidates_enumerated, nodes_visited, ties, candidates)


def radius_squared(matrix: CorrelationMatrix, quantized: Signature) -> int:
    """Squared search radius: the exact integer metric of the quantized eigenvector.

    The cube minimizer of s^T R s can do no worse than any particular cube
    point, so a sphere of this radius always contains it. A float copy can
    round below the metric once it passes 2^53, and so lose every point.
    """
    return quadratic_metric(matrix, quantized)


def _positive_definite(a: list) -> bool:
    """Sylvester's criterion in exact integers, by fraction-free (Bareiss)
    elimination on the upper triangle of a symmetric matrix (modified in
    place).

    Before step k the pivot a[k][k] is the leading principal minor of order
    k + 1, so the matrix is positive definite iff every pivot is > 0. A row
    whose update is the identity (zero multiplier, pivot equal to the
    previous one) is skipped, so a diagonal matrix costs O(n^2).
    """
    n = len(a)
    previous = 1
    for k in range(n):
        row_k = a[k]
        pivot = row_k[k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            factor = row_k[i]
            if factor == 0 and pivot == previous:
                continue
            row_i = a[i]
            for j in range(i, n):
                row_i[j] = (pivot * row_i[j] - factor * row_k[j]) // previous
        previous = pivot
    return True


def certified_floor(matrix: CorrelationMatrix, lambda_min: float) -> int | None:
    """Exact lower bound b = ceil(lambda_min * L) on s^T R s over the cube,
    or None when it cannot be proven.

    Every antipodal s has ||s||^2 = L, so s^T R s >= lambda_true * L. The
    float eigenvalue only proposes b; b holds when L*R - (b-1)*I is positive
    definite in exact integer arithmetic. Then L * s^T R s > (b-1) * L for
    every s, and metrics are integers, so s^T R s >= b. (L*R - b*I being
    semidefinite implies that condition.) A float eigenvalue a few ulps above
    an integer lambda_true * L makes the ceiling one too high, so b - 1 is
    tried when b fails.
    """
    dim = matrix.dim
    bound = lambda_min * dim
    if not math.isfinite(bound):
        return None
    proposal = math.ceil(bound)
    for floor in (proposal, proposal - 1):
        # Python integers, one row at a time: L * R_ij can leave int64 even
        # though R_ij does not.
        shifted = [[dim * x for x in row.tolist()] for row in matrix.entries]
        for i in range(dim):
            shifted[i][i] -= floor - 1
        if _positive_definite(shifted):
            return floor
    return None


def _rounding_slack(dim: int, k: int, shift: int, jitter: float) -> float:
    """Float64 slack of the walk's budgets, 4 * gamma(L+4) * L^2 * (a + jitter),
    with gamma(n) = n*u / (1 - n*u), u = 2^-53, a = L*K - shift the diagonal
    of the walked form A = L*R - shift*I and jitter the shift ``cholesky`` added.

    Bound: every s with s^T R s <= m, and each node above it, stays under the
    cap L * (m - shift) + jitter*L + slack. The first-order error terms,
    (4L + 9)u * L^2 * (a + jitter) in all, are the factor's backward error
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., SIAM
    2002, Thm 10.3), the walk's offsets, squares and sum, and the cap; the
    README derives them. Assumes IEEE binary64 rounding to nearest, no
    overflow, A's integers below 2^53 and a ``potrf`` on ordinary products.
    """
    n = (dim + 4) * 2.0**-53
    return 4.0 * n / (1.0 - n) * dim * dim * (dim * k - shift + jitter)


def sphere_search(
    matrix: CorrelationMatrix,
    radius: float,
    *,
    lambda_min: float | None = None,
) -> SearchResult:
    """Depth-first search of {s : s_L = +1, s^T R s <= radius}.

    The last coordinate is pinned to +1 (negating s preserves the metric, so
    nothing is lost). Both walks traverse A = L*R - (b-2)*I with its indices
    reversed, so s_1 is fixed first and s_L last, +1 before -1, and leaves
    arrive in tie-break order: lexicographic with +1 < -1. Every antipodal s
    has s^T s = L, so s^T A s = L * s^T R s - (b-2) * L ranks leaves as R
    does. Every leaf is re-scored exactly by ``quadratic_metric``, and the
    first leaf at the minimal metric is returned.

    b is the proposal ceil(lambda_min * L), or 0 when no ``lambda_min`` is
    given or A for the proposal needs jitter; L*R + 2I >= 2I is factored
    once, and the jitter it takes when a pivot falls below ``cholesky``'s
    floor widens the budget. Any A that factors ranks leaves as R does; only
    a floor proven by ``certified_floor``, asked once a leaf's exact metric
    reaches the proposal, stops the walk.

    The tree is expanded in blocks: a block is a lexicographically ordered
    run of admitted nodes at one level, and one matrix-vector product scores
    both children of all its rows. Children go out in chunks of at most
    ``WALK_BLOCK_ROWS`` rows (fewer when L^2 is large), the first expanded
    next, and a chunk drops its rows above the cap when it is taken. Leaves
    are taken one at a time with the running cap. Blocks admit a superset
    of the depth-first walk's nodes in the same order, so the leaves are
    the same, and ``nodes_visited`` is the depth-first count: when a leaf
    lowers the cap or stops the walk, every open block re-counts its rows
    after the leaf's ancestor against the new cap.

    Without ``lambda_min`` the radius stays at its floor (metrics are
    integers), and every candidate in the ball goes into ``candidates``.

    With ``lambda_min`` (the first-optimum walk) the radius starts at the
    smaller of ``radius`` and the exact metric of A's nearest-plane leaf,
    which seeds no answer. After each exact improvement m it shrinks to
    m - 1; metrics are integers, so the first leaf reaching the final metric
    is the lexicographically first optimum. The walk stops at the first leaf
    meeting the proven floor. A's ball for b > 0 is not nested in the one
    for b = 0, so a floored walk can visit more nodes than an unfloored one;
    the answer is the same. ``lambda_min=0.0`` is valid for every R (R is
    semidefinite): it certifies b = 0. This walk keeps no candidates;
    ``candidates_enumerated`` counts the leaves reached, ``ties`` is 1, and
    neither counts the dive.

    Raises EmptySphere when no candidate lies inside; with the quantized
    eigenvector's exact integer metric (``radius_squared``) as the radius
    that cannot happen.
    """
    if not (radius >= 0.0):
        raise ValueError("radius must be >= 0")
    dim = matrix.dim
    bound = math.nan if lambda_min is None else lambda_min * dim
    proposal = math.ceil(bound) if math.isfinite(bound) else None
    # A in float64. Its constant diagonal L*K - (b-2), where the cancellation
    # happens, is set from the exact Python integer.
    entries = matrix.entries[::-1, ::-1] * float(dim)
    for shift in ([] if proposal is None else [proposal - 2]) + [-2]:
        np.fill_diagonal(entries, dim * matrix.k - shift)
        try:
            u = cholesky(entries)
        except SingularMatrix:
            if shift == -2:
                raise
            continue
        if shift == -2 or not u.jitter:
            break
    # Weighted-square form of the factor: ||U x||^2 is the sum over i of
    # q_ii * (x_i + sum_{j>i} q_ij x_j)^2, with q_ii = u_ii^2, q_ij = u_ij / u_ii.
    # weights[i, :L-1-i] holds q_ij for j = L-1 down to i+1, aligned with a
    # node's signs (x_L, ...).
    d = np.diag(u.entries)
    q_diag = (d * d).tolist()
    weights = u.entries[:, ::-1] / d[:, np.newaxis]
    # Jitter (only on L*R + 2I >= 2I) raises every form value, so the cap, by jitter * L.
    jitter, slack = u.jitter * dim, _rounding_slack(dim, matrix.k, shift, u.jitter)
    del entries, u, d  # the walk holds only the weights (d views the factor)

    def cap_for(metric) -> float:
        # Metrics are integers, so L * (m - (b-2)) is exact: A's value can be far below L * m.
        return dim * float(metric - shift) + jitter + slack

    candidates: list[tuple[Signature, int]] | None = [] if lambda_min is None else None
    start = radius if math.isinf(radius) else math.floor(radius)
    if candidates is None:
        # Babai's nearest-plane leaf: at each level the sign closest to -delta, +1 on a tie.
        dive: list[int] = []
        for row in weights[::-1]:
            dive.append(1 if sum(map(mul, row[: len(dive)].tolist(), dive)) <= 0.0 else -1)
        start = min(start, quadratic_metric(matrix, Signature(tuple(dive))))
    best: Signature | None = None
    best_metric: int | None = None
    certify = functools.cache(functools.partial(certified_floor, matrix, lambda_min))
    cap = cap_for(start)
    signs = np.array([1.0, -1.0])

    def expand(level, prefix, spent):
        """Children at level - 1 of a block's rows inside the cap, parent-major
        with +1 first (the last level takes +1 only): their signs, spent
        budgets, parent rows and the cap they were admitted with."""
        width = dim - level
        values = signs[: 1 if level == 1 else 2]
        offset = np.add.outer(prefix[:, :width] @ weights[level - 1, :width], values)
        child = (spent[:, np.newaxis] + q_diag[level - 1] * offset * offset).ravel()
        flat = (child <= cap).nonzero()[0]
        up = flat // len(values)
        kids = prefix.take(up, axis=0)
        kids[:, width] = values[flat % len(values)]
        return kids, child[flat], up, cap

    rows_per_block = max(1, min(WALK_BLOCK_ROWS, _WALK_ENTRIES // (dim * dim)))
    nodes = leaves = 0
    # The open blocks on the current path, the root's one empty row first.
    # Each is [spent, parent rows, (row, cap) events, children, next child];
    # a row holds a node's signs (x_L, ...), zero past its level.
    blocks = [[None, None, [], expand(dim, np.zeros((1, dim)), np.zeros(1)), 0]]
    while blocks:
        block = blocks[-1]
        spent_rows, _, events, (kids, kid_spent, kid_up, admitted), first = block
        if first >= len(kid_spent):
            blocks.pop()
            # The depth-first walk meets row i + 1 on with the cap that a leaf
            # below row i set.
            if events:
                caps = np.full(len(spent_rows), math.inf)
                for row, lowered in events:
                    caps[row + 1 :] = lowered
                nodes -= int(np.count_nonzero(spent_rows > caps))
            continue
        block[4] = last = first + rows_per_block
        prefix, spent, up = kids[first:last], kid_spent[first:last], kid_up[first:last]
        level = dim - len(blocks)
        if level:
            if cap < admitted:
                keep = (spent <= cap).nonzero()[0]
                prefix, spent, up = prefix[keep], spent[keep], up[keep]
            nodes += len(spent)
            if len(spent):
                blocks.append([spent, up, [], expand(level, prefix, spent), 0])
            continue
        for values, value, row in zip(prefix.astype(np.int64).tolist(), spent.tolist(), up.tolist()):
            if value > cap:
                continue
            nodes += 1
            leaves += 1
            signature = Signature(tuple(values))
            exact = quadratic_metric(matrix, signature)
            if candidates is not None:
                candidates.append((signature, exact))
            # Leaves arrive in tie-break order, so an equal metric never wins.
            if best_metric is not None and exact >= best_metric:
                continue
            best, best_metric = signature, exact
            if candidates is not None:
                continue
            floor = certify() if proposal is not None and exact <= proposal else None
            # A proven floor stops the walk: no node after this leaf fits a cap of -inf.
            cap = -math.inf if floor is not None and exact <= floor else cap_for(exact - 1)
            for _, up_rows, events, _, _ in blocks[:0:-1]:  # innermost first
                events.append((row, cap))
                row = up_rows[row]
    if best is None:
        raise EmptySphere(f"no antipodal point within squared radius {radius!r} (L={dim})")
    return SearchResult(
        best=best,
        best_metric=best_metric,
        candidates_enumerated=leaves,
        nodes_visited=nodes,
        ties=1 if candidates is None else sum(1 for _, m in candidates if m == best_metric),
        candidates=None if candidates is None else tuple(candidates),
    )


def _lex_signs(bits: int) -> np.ndarray:
    """All 2^bits sign rows in lexicographic order (+1 < -1), the first
    column most significant."""
    shifts = np.arange(bits - 1, -1, -1, dtype=np.int64)
    idx = np.arange(1 << bits, dtype=np.int64)[:, np.newaxis]
    return 1 - 2 * ((idx >> shifts) & 1)


def ml_exhaustive(matrix: CorrelationMatrix, cap: int = DEFAULT_ML_CAP) -> SearchResult:
    """Scan all 2^(L-1) sign vectors with s_L = +1 and return the minimum.

    Meet in the middle (Horowitz & Sahni 1974): s = (a, b) with head
    a = s_1..s_h, h = floor(L/2), so s^T R s = a^T A a + b^T B b + a^T (2 C b).
    The head and tail forms and the cross products 2 C b are int64 tables,
    folded into [a | a^T A a | 1] and [2 C b; 1; b^T B b], so each block of
    head rows costs one float64 matrix product and nothing is added after it.
    Every partial sum, in any order, is an integer of magnitude at most
    sum |R_ij|, so the floats are exact while that sum is below 2^53; beyond
    it, as for L above ``cap``, the scan raises CapExceeded. The flat index
    head * 2^(t-1) + tail is lexicographic, so the first minimum is the sphere
    search's tie-break winner. It is re-scored in integers; disagreeing with
    the float minimum is an InternalConsistencyError.
    """
    dim = matrix.dim
    if dim > _integer(cap):
        raise CapExceeded(f"L={dim} exceeds the exhaustive-search cap of {cap}")
    r = matrix.entries
    if matrix.abs_sum >= EXACT_SCAN_LIMIT:
        raise CapExceeded(
            f"L={dim}: sum |R_ij| = {matrix.abs_sum} is not below {EXACT_SCAN_LIMIT}, "
            "the bound for an exact float64 scan"
        )
    h = dim // 2
    heads = _lex_signs(h)
    tails = _lex_signs(dim - h)[::2]  # the rows with s_L = +1
    head_q = ((heads @ r[:h, :h]) * heads).sum(axis=1)
    tail_q = ((tails @ r[h:, h:]) * tails).sum(axis=1)
    left = np.column_stack([heads, head_q, np.ones_like(head_q)]).astype(np.float64)
    right = np.vstack([2 * r[:h, h:] @ tails.T, np.ones_like(tail_q), tail_q]).astype(np.float64)
    n_tail = tails.shape[0]
    rows = max(1, _BLOCK // n_tail)
    best_metric, best_index, ties = math.inf, -1, 0
    for start in range(0, left.shape[0], rows):
        block = left[start : start + rows] @ right
        pos = int(block.argmin())
        block_min = float(block.flat[pos])
        if block_min < best_metric:
            best_metric, best_index, ties = block_min, start * n_tail + pos, 0
        if block_min == best_metric:
            ties += int(np.count_nonzero(block == block_min))
    head_index, tail_index = divmod(best_index, n_tail)
    best = Signature(tuple(np.concatenate([heads[head_index], tails[tail_index]]).tolist()))
    exact = quadratic_metric(matrix, best)
    if exact != best_metric:
        raise InternalConsistencyError(
            f"exhaustive scan at L={dim}: float minimum {best_metric!r} != "
            f"exact metric {exact} of its winner"
        )
    total = 1 << (dim - 1)
    return SearchResult(
        best=best,
        best_metric=exact,
        candidates_enumerated=total,
        nodes_visited=total,
        ties=ties,
    )


def local_descent_baseline(matrix: CorrelationMatrix, start: Signature) -> SearchResult:
    """Single-bit-flip first-improvement descent from ``start``; a deliberately plain
    baseline, not an optimal method.

    Each move flips the lowest index whose flip strictly improves s^T R s,
    until no flip helps. The start's sign is kept as given. Flipping s_i
    changes the metric by 4 * (K - s_i * g_i) with g = R s, so one int64
    product per move scores every flip, exactly: |g_i| <= sum |R_ij| < 2^63.
    ``nodes_visited`` counts the start and every flip an index-order scan
    examines; ``candidates_enumerated`` counts the points stepped through.
    """
    metric = quadratic_metric(matrix, start)  # refuses a start of the wrong length
    signs = start.as_array()
    evals, points = 1 + len(signs), 1
    while (gains := signs * (matrix.entries @ signs) - matrix.k).max() > 0:
        index = int(np.argmax(gains > 0))
        metric -= 4 * int(gains[index])
        signs[index] = -signs[index]
        evals += index + 1
        points += 1
    return SearchResult(
        best=Signature(tuple(signs.tolist())),
        best_metric=metric,
        candidates_enumerated=points,
        nodes_visited=evals,
        ties=1,
    )


class StepAnalysis(Record):
    """What one extension step knows before any search.

    R, its minimum eigenvalue, the sign-quantized eigenvector and its exact
    metric (the search radius), and from the Cholesky factor of R with its
    indices reversed, whether that factor needed jitter and the operation
    bound (None when it did, or when the bound overflows). The first-optimum
    walk factors its own shifted form.
    """

    __slots__ = ("matrix", "lambda_min", "quantized", "quant_metric", "jitter_applied", "fp_bound")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, matrix: CorrelationMatrix, lambda_min: float, quantized: Signature,
                 quant_metric: int, jitter_applied: bool, fp_bound: float | None):
        super().__init__(matrix, lambda_min, quantized, quant_metric, jitter_applied, fp_bound)

    def first_optimum(self) -> SearchResult:
        """The optimal extension by the first-optimum sphere walk, from the
        quantized eigenvector's exact metric."""
        return sphere_search(self.matrix, self.quant_metric, lambda_min=self.lambda_min)


def analyse_step(signature_set: SignatureSet) -> StepAnalysis:
    """Build R once and derive the radius, eigenvalue and bound from it."""
    matrix = correlation_matrix(signature_set)
    pair = min_eigenpair(matrix)
    quantized = quantize_sign(pair.vector)
    quant_metric = quadratic_metric(matrix, quantized)

    factor = cholesky(matrix.entries[::-1, ::-1])
    jitter_applied = factor.jitter > 0.0
    # Reciprocal of the smallest squared diagonal caps the per-axis reach. A
    # jittered factor is one of R + jitter*I, whose bound says nothing of R.
    diag = np.diag(factor.entries)
    scale = 1.0 / float((diag * diag).min())
    try:
        fp_bound = None if jitter_applied else fp_operation_bound(
            matrix.dim, float(quant_metric), scale
        )
    except BoundOverflow:
        fp_bound = None
    return StepAnalysis(
        matrix=matrix,
        lambda_min=pair.value,
        quantized=quantized,
        quant_metric=quant_metric,
        jitter_applied=jitter_applied,
        fp_bound=fp_bound,
    )

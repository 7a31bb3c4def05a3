"""Sphere-decoder search over the antipodal cube {-1, +1}^L.

The minimum of s^T R s is found by factoring R = U^T U, bounding each
coordinate through the weighted-square form of ||U s||^2, and walking the
resulting tree depth first. The radius comes from the sign-quantized minimum
eigenvector, which guarantees the true minimizer lies inside the sphere;
every leaf is re-scored in exact integer arithmetic, so floating point can
only ever admit extra leaves, never corrupt the argmin.

Two walks share one iterative tree traversal of a factor with its indices
reversed, which visits leaves in tie-break order, and one exact leaf scorer.
The default walk enumerates the whole ball of R at a fixed radius. The
first-optimum walk, the one the extension pipeline runs, starts at its
form's nearest-plane leaf, shrinks the radius after each exact improvement
and stops at a certified eigenvalue floor. It walks one form: a shifted form
that ranks sign vectors as R does when the floor certifies it, R otherwise.

Also provides the exhaustive scan used as the optimality oracle and a plain
single-bit-flip descent baseline for method comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .bounds import BoundOverflow, fp_operation_bound
from .linalg import CholeskyFactor, cholesky, min_eigenpair, quantize_sign
from .sigcore import (
    INT64_LIMIT,
    CorrelationMatrix,
    Signature,
    SignatureSet,
    correlation_matrix,
    quadratic_metric,
)

__all__ = [
    "QDecomposition",
    "SearchState",
    "SearchResult",
    "StepAnalysis",
    "EmptySphere",
    "CapExceeded",
    "InternalConsistencyError",
    "radius_squared",
    "q_decomposition",
    "certified_floor",
    "sphere_search",
    "ml_exhaustive",
    "local_descent_baseline",
    "analyse_step",
    "RADIUS_EPS",
    "DEFAULT_ML_CAP",
    "EXACT_SCAN_LIMIT",
]

# Multiplicative slack on the float budget; a boundary candidate (metric
# exactly equal to the radius) must never be lost to rounding.
RADIUS_EPS = 1e-9
# Budget updates subtract terms of magnitude ~||R||, so leftover budgets
# carry absolute rounding noise at ulp(||R||) scale regardless of how small
# the radius is. The additive slack BUDGET_ABS_EPS * ||R||_max * L covers
# that noise; metrics are integers, so any slack well below 1 can only admit
# boundary candidates, never wrong ones (exact re-scoring settles the rest).
BUDGET_ABS_EPS = 1e-12
DEFAULT_ML_CAP = 24
# The exhaustive scan's float64 partial sums are exact integers while
# sum |R_ij| stays below this.
EXACT_SCAN_LIMIT = 1 << 53
# Float64 entries per block of the exhaustive scan (2 MB).
_BLOCK = 1 << 18


class EmptySphere(RuntimeError):
    """Search finished with no candidate inside the radius.

    Impossible when the radius is the quantized-eigenvector metric; callers
    treat this as an internal-consistency failure, not an input error.
    """


class CapExceeded(RuntimeError):
    """Exhaustive scan refused: L above the cap, or R too large to scan exactly."""


class InternalConsistencyError(RuntimeError):
    """A guaranteed-equal quantity came out unequal; the build is wrong."""


@dataclass(frozen=True, eq=False)
class QDecomposition:
    """Weighted-square form of the factor: q_ii = u_ii^2, q_ij = u_ij / u_ii.

    ||U s||^2 == sum_i q_ii * (s_i + sum_{j>i} q_ij s_j)^2.
    """

    q_diag: np.ndarray
    q_upper: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.q_diag, dtype=np.float64)
        u = np.asarray(self.q_upper, dtype=np.float64)
        if d.ndim != 1 or u.shape != (d.size, d.size):
            raise ValueError("q_diag must be length L and q_upper L x L")
        if np.any(d <= 0.0):
            raise ValueError("q_diag entries must be strictly positive")
        if np.any(np.tril(u) != 0.0):
            raise ValueError("q_upper must be strictly upper triangular")
        d.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "q_diag", d)
        object.__setattr__(self, "q_upper", u)

    @property
    def dim(self) -> int:
        return int(self.q_diag.size)


@dataclass(frozen=True)
class SearchState:
    """One expanded node: budget and offset seen at ``level`` when the entry
    was fixed, plus the fixed tail (x_level, ..., x_L) in factor order, where
    x_i = s_(L+1-i); that is the fixed head (s_1, ..., s_(L+1-level)) read
    backwards."""

    level: int
    delta: float
    budget: float
    partial: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Outcome of one search, with exact integer scoring.

    ``candidates`` holds the enumerated (signature, exact metric) pairs in
    visit order, which is lexicographic (+1 < -1), when the search kind
    retains them (the fixed-radius sphere walk does; the first-optimum walk,
    the exhaustive and descent oracles do not). ``trace`` holds SearchState
    nodes when requested. ``radius_c`` is +inf for the unbounded oracles.
    """

    best: Signature
    best_metric: int
    candidates_enumerated: int
    nodes_visited: int
    radius_c: float
    ties: int
    candidates: tuple | None = None
    trace: tuple | None = None


def radius_squared(matrix: CorrelationMatrix, quantized: Signature) -> float:
    """Squared search radius: the exact metric of the quantized eigenvector.

    The cube minimizer of s^T R s can do no worse than any particular cube
    point, so a sphere of this radius always contains it.
    """
    return float(quadratic_metric(matrix, quantized))


def q_decomposition(factor: CholeskyFactor) -> QDecomposition:
    """Rescale an upper-triangular factor into the weighted-square form."""
    u = factor.entries
    d = np.diag(u)
    q_diag = d * d
    q_upper = u / d[:, np.newaxis]
    q_upper = np.triu(q_upper, 1)
    return QDecomposition(q_diag=q_diag, q_upper=q_upper)


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
    if not math.isfinite(lambda_min):
        return None
    dim = matrix.dim
    scaled = matrix.entries * dim
    proposal = math.ceil(lambda_min * dim)
    for floor in (proposal, proposal - 1):
        shifted = scaled.tolist()
        for i in range(dim):
            shifted[i][i] -= floor - 1
        if _positive_definite(shifted):
            return floor
    return None


def _nearest_plane(rows: list) -> list[int]:
    """Babai's nearest-plane leaf of a form, as (x_L, ..., x_1): one O(L^2)
    path taking at each level the sign closest to -delta, +1 on a tie."""
    path: list[int] = []
    for row in reversed(rows):
        path.append(1 if sum(map(mul, row, path)) <= 0.0 else -1)
    return path


def _walk(q_diag: list, rows: list, cap: float, on_leaf, trace=None) -> int:
    """Iterative depth-first walk of {x : ||U x||^2 <= cap} over the cube,
    in factor order: x_L first, x_1 at the leaves, +1 before -1.

    ``q_diag`` and ``rows`` are the form's weighted-square terms as
    ``sphere_search`` lays them out. The leaf coordinate x_1 takes +1 only.
    ``on_leaf(values, cap)`` receives each admitted leaf as a list
    (x_L, ..., x_1) and returns the cap for the rest of the walk, or None to
    stop. ``trace``, when a list, receives one
    SearchState per admitted node. Returns the number of admitted nodes.
    """
    n = len(q_diag)
    path: list[int] = []
    used = [0.0] * n
    delta = [0.0] * n
    todo = [0] * n  # next value to try per level; 0 once both are done
    level = n - 1
    todo[level] = 1
    nodes = 0
    while True:
        value = todo[level]
        if value == 0:
            level += 1
            if level == n:
                return nodes
            path.pop()
            continue
        todo[level] = -1 if value == 1 and level else 0
        offset = delta[level] + value
        spent = used[level] + q_diag[level] * offset * offset
        if spent > cap:
            continue
        nodes += 1
        if trace is not None:
            trace.append(
                SearchState(
                    level=level + 1,
                    delta=delta[level],
                    budget=cap - used[level],
                    partial=(value, *reversed(path)),
                )
            )
        if level == 0:
            cap = on_leaf(path + [value], cap)
            if cap is None:
                return nodes
            continue
        path.append(value)
        level -= 1
        used[level] = spent
        delta[level] = sum(map(mul, rows[level], path))
        todo[level] = 1


def sphere_search(
    matrix: CorrelationMatrix,
    radius: float,
    *,
    collect_trace: bool = False,
    first_optimum: bool = False,
    lambda_min: float | None = None,
    factor: CholeskyFactor | None = None,
) -> SearchResult:
    """Depth-first search of {s : s_L = +1, s^T R s <= radius}.

    The last coordinate is pinned to +1 (negating s preserves the metric, so
    nothing is lost). R is factored with its indices reversed, so s_1 is
    fixed first and s_L last, +1 before -1, and leaves arrive in tie-break
    order: lexicographic with +1 < -1. Every leaf is re-scored exactly, and
    the first leaf at the minimal metric is returned.

    Default (fixed-radius) walk: the radius stays fixed for the whole walk
    and every candidate in the ball is enumerated. ``collect_trace`` records
    a SearchState per expanded node.

    ``first_optimum`` walk: the radius starts at the smaller of ``radius``
    and the exact metric of the walked form's nearest-plane leaf, which
    seeds no answer. After each exact improvement m it shrinks to m - 1;
    metrics are integers, so the first leaf reaching the final metric is the
    lexicographically first optimum. With ``lambda_min`` the walk also stops
    at the first leaf meeting b = ``certified_floor(matrix, lambda_min)``,
    and when b > 2 and L * sum |R_ij| < 2^63 it walks A = L*R - (b-2)*I
    instead of R. Every antipodal s has s^T s = L, so s^T A s =
    L * s^T R s - (b-2) * L ranks leaves as R does, and b's certificate
    L*R - (b-1)*I > 0 makes A > I. A's ball is not nested in R's, so a
    floored walk can visit more nodes than the unfloored one; the answer is
    the same. It keeps no candidates and takes no trace;
    ``candidates_enumerated`` counts the leaves reached, ``ties`` is 1, and
    neither counts the dive.

    ``factor``, the Cholesky factor of R with its indices reversed (as
    ``StepAnalysis.factor`` holds it), only saves factoring R again when R
    is the walked form; the result is the same with or without it.

    Raises EmptySphere when no candidate lies inside; with the quantized
    eigenvector radius that cannot happen.
    """
    if not (radius >= 0.0):
        raise ValueError("radius must be >= 0")
    if first_optimum and collect_trace:
        raise ValueError("the first-optimum walk takes no trace")
    if not first_optimum and lambda_min is not None:
        raise ValueError("lambda_min is used by the first-optimum walk only")
    dim = matrix.dim
    if factor is not None and factor.dim != dim:
        raise ValueError(f"factor is {factor.dim} x {factor.dim}, R is {dim} x {dim}")
    r = matrix.entries[::-1, ::-1]
    floor = certified_floor(matrix, lambda_min) if lambda_min is not None else None
    # The walked form, with the integer map scale * m + offset from a leaf's
    # metric m to its value under that form.
    if floor is not None and floor > 2 and dim * matrix.abs_sum < INT64_LIMIT:
        shift = floor - 2
        entries = r * dim - shift * np.eye(dim, dtype=np.int64)
        scale, offset, u = dim, -shift * dim, cholesky(entries)
    else:
        entries, scale, offset = r, 1, 0
        u = factor if factor is not None else cholesky(r)
    q = q_decomposition(u)
    q_diag = q.q_diag.tolist()
    # rows[i] holds q_ij for j = L-1 down to i+1, aligned with the walk's path.
    rows = [q.q_upper[i, i + 1 :][::-1].tolist() for i in range(dim)]
    # Jitter shifts every float form value up by jitter * L; widen the budget
    # by the same amount so exact-metric membership is preserved.
    jitter = u.jitter * dim
    abs_slack = BUDGET_ABS_EPS * float(np.abs(entries).max()) * dim

    def cap_for(metric) -> float:
        # The first-optimum walk passes integer metrics, so scale * m + offset
        # is exact before it meets a float: the shifted form's value can be
        # far smaller than either term.
        return (scale * metric + offset + jitter) * (1.0 + RADIUS_EPS) + abs_slack

    def score(values) -> int:
        chips = np.array(values, dtype=np.int64)
        return int(chips @ matrix.entries @ chips)

    start = float(radius)
    if first_optimum:
        dive = _nearest_plane(rows)
        start = score(dive if dive[-1] == 1 else [-x for x in dive])
        if radius < start:
            start = math.floor(radius)

    candidates: list[tuple[Signature, int]] | None = None if first_optimum else []
    trace: list[SearchState] | None = [] if collect_trace else None
    best_metric: int | None = None
    best_chips: list | None = None
    leaves = 0

    def on_leaf(values, cap):
        # Leaves arrive in tie-break order, so an equal metric never wins.
        nonlocal best_metric, best_chips, leaves
        leaves += 1
        exact = score(values)
        if candidates is not None:
            candidates.append((Signature(tuple(values)), exact))
        if best_metric is not None and exact >= best_metric:
            return cap
        best_metric, best_chips = exact, values
        if floor is not None and exact <= floor:
            return None
        return cap if candidates is not None else cap_for(exact - 1)

    nodes = _walk(q_diag, rows, cap_for(start), on_leaf, trace)
    if best_metric is None:
        raise EmptySphere(
            f"no antipodal point within squared radius {radius!r} (L={dim})"
        )
    return SearchResult(
        best=Signature(tuple(best_chips)),
        best_metric=best_metric,
        candidates_enumerated=leaves,
        nodes_visited=nodes,
        radius_c=float(radius),
        ties=1 if candidates is None else sum(1 for _, m in candidates if m == best_metric),
        candidates=None if candidates is None else tuple(candidates),
        trace=None if trace is None else tuple(trace),
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
    The head and tail forms and the cross products 2 C b are int64 tables, and
    each block of head rows costs one float64 matrix product. Every partial
    sum is an integer of magnitude at most sum |R_ij|, so the floats are exact
    while that sum is below 2^53; beyond it, as for L above ``cap``, the scan
    raises CapExceeded. The flat index head * 2^(t-1) + tail is lexicographic,
    so the first minimum is the sphere search's tie-break winner. It is
    re-scored in integers; disagreeing with the float minimum is an
    InternalConsistencyError.
    """
    dim = matrix.dim
    if dim > cap:
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
    head_q = ((heads @ r[:h, :h]) * heads).sum(axis=1).astype(np.float64)
    tail_q = ((tails @ r[h:, h:]) * tails).sum(axis=1).astype(np.float64)
    cross = (2 * r[:h, h:] @ tails.T).astype(np.float64)
    n_tail = tails.shape[0]
    rows = max(1, _BLOCK // n_tail)
    best_metric, best_index, ties = math.inf, -1, 0
    for start in range(0, heads.shape[0], rows):
        block = heads[start : start + rows] @ cross
        block += head_q[start : start + rows, np.newaxis]
        block += tail_q
        pos = int(block.argmin())
        block_min = float(block.flat[pos])
        if block_min < best_metric:
            best_metric, best_index, ties = block_min, start * n_tail + pos, 0
        if block_min == best_metric:
            ties += int(np.count_nonzero(block == block_min))
    head_index, tail_index = divmod(best_index, n_tail)
    chips = np.concatenate([heads[head_index], tails[tail_index]])
    exact = int(chips @ r @ chips)
    if exact != best_metric:
        raise InternalConsistencyError(
            f"exhaustive scan at L={dim}: float minimum {best_metric!r} != "
            f"exact metric {exact} of its winner"
        )
    total = 1 << (dim - 1)
    return SearchResult(
        best=Signature(tuple(chips.tolist())),
        best_metric=exact,
        candidates_enumerated=total,
        nodes_visited=total,
        radius_c=math.inf,
        ties=ties,
    )


def local_descent_baseline(matrix: CorrelationMatrix, start: Signature) -> SearchResult:
    """Single-bit-flip steepest descent from ``start``; a deliberately plain
    baseline, not an optimal method.

    Scans indices in ascending order and takes the first strictly improving
    flip, restarting the scan after each move, until no flip helps. The
    start's sign is kept as given. ``nodes_visited`` counts exact metric
    evaluations; ``candidates_enumerated`` counts the points actually
    stepped through.
    """
    current = start
    metric = quadratic_metric(matrix, current)
    evals = 1
    points = 1
    improved = True
    while improved:
        improved = False
        for index in range(len(current)):
            trial = current.flipped(index)
            trial_metric = quadratic_metric(matrix, trial)
            evals += 1
            if trial_metric < metric:
                current = trial
                metric = trial_metric
                points += 1
                improved = True
                break
    return SearchResult(
        best=current,
        best_metric=metric,
        candidates_enumerated=points,
        nodes_visited=evals,
        radius_c=math.inf,
        ties=1,
    )


@dataclass(frozen=True, eq=False)
class StepAnalysis:
    """What one extension step knows before any search.

    R, its minimum eigenvalue, the sign-quantized eigenvector and its exact
    metric (the search radius), the Cholesky factor of R with its indices
    reversed, which both sphere walks traverse, and from it the operation
    bound and whether jitter was needed.
    """

    matrix: CorrelationMatrix
    lambda_min: float
    quantized: Signature
    quant_metric: int
    factor: CholeskyFactor
    fp_bound: float | None

    @property
    def radius(self) -> float:
        return float(self.quant_metric)

    @property
    def jitter_applied(self) -> bool:
        return self.factor.jitter > 0.0

    def first_optimum(self) -> SearchResult:
        """The optimal extension by the first-optimum sphere walk, on the
        analysed factor."""
        return sphere_search(
            self.matrix,
            self.radius,
            first_optimum=True,
            lambda_min=self.lambda_min,
            factor=self.factor,
        )


def analyse_step(signature_set: SignatureSet) -> StepAnalysis:
    """Build R once and derive the radius, eigenvalue and bound from it."""
    matrix = correlation_matrix(signature_set)
    pair = min_eigenpair(matrix)
    quantized = quantize_sign(pair.vector)
    quant_metric = quadratic_metric(matrix, quantized)

    factor = cholesky(matrix.entries[::-1, ::-1])
    # Reciprocal of the smallest squared diagonal caps the per-axis reach.
    diag = np.diag(factor.entries)
    scale = 1.0 / float((diag * diag).min())
    try:
        fp_bound = fp_operation_bound(matrix.dim, float(quant_metric), scale)
    except BoundOverflow:
        fp_bound = None
    return StepAnalysis(
        matrix=matrix,
        lambda_min=pair.value,
        quantized=quantized,
        quant_metric=quant_metric,
        factor=factor,
        fp_bound=fp_bound,
    )

"""The block walk keeps the depth-first walk's counts: ``sphere_search``
against a plain one-node-at-a-time walk in every mode, the reach gate at
L = 28 and the memory bounds at L = 1,100."""

import math
import tracemalloc
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings

import sigforge.sphere
from sigforge import (
    CorrelationMatrix,
    Signature,
    SignatureSet,
    certified_floor,
    cholesky,
    correlation_matrix,
    hadamard_set,
    min_eigenpair,
    quadratic_metric,
    quantize_sign,
    radius_squared,
    sphere_search,
)
from sigforge.linalg import SingularMatrix
from sigforge.sphere import WALK_BLOCK_ROWS, _rounding_slack, analyse_step
from support import PROPERTY_SETTINGS, random_set, random_sets, repeated_row_sets


def walked_form(matrix, lambda_min=None):
    """The factor of the form ``sphere_search`` walks, with its shift b - 2:
    the proposal's, or L*R + 2I's when the proposal's needs jitter."""
    dim = matrix.dim
    bound = math.nan if lambda_min is None else lambda_min * dim
    proposal = math.ceil(bound) if math.isfinite(bound) else None
    for shift in ([] if proposal is None else [proposal - 2]) + [-2]:
        entries = matrix.entries[::-1, ::-1] * float(dim)
        np.fill_diagonal(entries, dim * matrix.k - shift)
        try:
            u = cholesky(entries)
        except SingularMatrix:
            continue
        if u.jitter == 0.0 or shift == -2:
            return u, shift
    raise SingularMatrix("L*R + 2I did not factor")


def depth_first_search(matrix, radius, lambda_min=None):
    """``sphere_search``'s contract walked one node at a time.

    The same form (the proposal's, or L*R + 2I when it needs jitter), the
    same nearest-plane start and caps, and the plain depth-first rule that
    defines every count: x_L first, +1 before -1, x_1 = +1 only, and the
    cap checked at each node when it is reached. Returns the fields that
    ``compared`` reads from a SearchResult.
    """
    dim = matrix.dim
    u, shift = walked_form(matrix, lambda_min)
    d = np.diag(u.entries)
    q_diag = (d * d).tolist()
    q_upper = u.entries / d[:, np.newaxis]
    rows = [q_upper[i, i + 1 :][::-1].tolist() for i in range(dim)]
    slack = _rounding_slack(dim, matrix.k, shift, u.jitter)

    def cap_for(metric):
        return dim * float(metric - shift) + u.jitter * dim + slack

    floor = None if lambda_min is None else certified_floor(matrix, lambda_min)
    candidates = [] if lambda_min is None else None
    start = radius if math.isinf(radius) else math.floor(radius)
    if candidates is None:
        dive = []
        for row in reversed(rows):
            dive.append(1 if sum(map(mul, row, dive)) <= 0.0 else -1)
        start = min(start, quadratic_metric(matrix, Signature(tuple(dive))))
    cap = cap_for(start)
    best = best_metric = None
    nodes = leaves = 0
    path, used, delta, todo = [], [0.0] * dim, [0.0] * dim, [0] * dim
    level = dim - 1
    todo[level] = 1
    while True:
        value = todo[level]
        if value == 0:
            level += 1
            if level == dim:
                break
            path.pop()
            continue
        todo[level] = -1 if value == 1 and level else 0
        offset = delta[level] + value
        spent = used[level] + q_diag[level] * offset * offset
        if spent > cap:
            continue
        nodes += 1
        if level:
            path.append(value)
            level -= 1
            used[level] = spent
            delta[level] = sum(map(mul, rows[level], path))
            todo[level] = 1
            continue
        leaves += 1
        signature = Signature(tuple(path + [value]))
        exact = quadratic_metric(matrix, signature)
        if candidates is not None:
            candidates.append((signature, exact))
        if best_metric is not None and exact >= best_metric:
            continue
        best, best_metric = signature, exact
        if candidates is not None:
            continue
        if floor is not None and exact <= floor:
            break
        cap = cap_for(exact - 1)
    ties = 1 if candidates is None else sum(1 for _, m in candidates if m == best_metric)
    return best, best_metric, nodes, leaves, ties, None if candidates is None else tuple(candidates)


def compared(result):
    return (
        result.best,
        result.best_metric,
        result.nodes_visited,
        result.candidates_enumerated,
        result.ties,
        result.candidates,
    )


def assert_same_walk(matrix, radius, lambda_min=None):
    result = sphere_search(matrix, radius, lambda_min=lambda_min)
    assert compared(result) == depth_first_search(matrix, radius, lambda_min)
    return result


class TestSameCountsAsDepthFirst:
    @PROPERTY_SETTINGS
    @given(random_sets(2, 14) | repeated_row_sets(2, 14))
    def test_every_mode(self, signature_set):
        matrix = correlation_matrix(signature_set)
        pair = min_eigenpair(matrix)
        radius = radius_squared(matrix, quantize_sign(pair.vector))
        assert_same_walk(matrix, radius, pair.value)
        assert_same_walk(matrix, radius, 0.0)
        assert_same_walk(matrix, radius)

    def test_frontier_wider_than_one_block(self):
        # R = 16 I: every sign vector has metric 256, so the fixed-radius
        # walk's deepest levels hold 2^15 nodes, many blocks each.
        result = assert_same_walk(correlation_matrix(hadamard_set(16)), 256.0)
        assert result.candidates_enumerated == 1 << 15 > 2 * WALK_BLOCK_ROWS
        # Two to 2^15 nodes on the levels above the leaves, then 2^15 leaves.
        assert result.nodes_visited == (1 << 16) - 2 + (1 << 15)

    def test_several_improvements_in_one_walk(self):
        step = analyse_step(random_set(np.random.default_rng(24), 24, 16))
        result = assert_same_walk(step.matrix, step.quant_metric, step.lambda_min)
        assert result.candidates_enumerated == 6  # each leaf lowers the cap

    def test_floor_stop_inside_a_block(self):
        # R = 16 I: every node lies inside the cap, so each block holds both
        # signs, and the first leaf meets the floor 256. The depth-first walk
        # visits one path; the -1 rows after it are not counted.
        matrix = correlation_matrix(hadamard_set(16))
        result = assert_same_walk(matrix, 256.0, 16.0)
        assert (result.nodes_visited, result.best_metric) == (16, 256)

    def test_floor_stops_on_the_reference_chain(self, reference_chain):
        rows = list(reference_chain.final_set)
        for k in range(16, 32):
            step = analyse_step(SignatureSet(tuple(rows[:k])))
            result = assert_same_walk(step.matrix, step.quant_metric, step.lambda_min)
            assert result.best_metric == certified_floor(step.matrix, step.lambda_min)

    def test_failing_proposal_walks_l_r_plus_2i(self, monkeypatch):
        # 8 * 100 = 800 is no floor: 8R - 798 I is not positive definite, so
        # the walk factors 8R + 2I instead and never stops at a floor.
        matrix = correlation_matrix(hadamard_set(8))
        assert certified_floor(matrix, 100.0) is None
        calls = []
        factor = sigforge.sphere.cholesky
        monkeypatch.setattr(
            sigforge.sphere, "cholesky", lambda entries: calls.append(entries) or factor(entries)
        )
        result = assert_same_walk(matrix, 64.0, 100.0)
        assert len(calls) == 2
        assert np.array_equal(calls[1], 8 * matrix.entries + 2 * np.eye(8))
        assert result.best_metric == 64


class TestOnDemandCertificate:
    def _counted(self, monkeypatch):
        calls = []
        certify = sigforge.sphere.certified_floor
        monkeypatch.setattr(
            sigforge.sphere, "certified_floor", lambda m, lam: calls.append(lam) or certify(m, lam)
        )
        return calls

    def test_not_asked_when_no_leaf_reaches_the_proposal(self, monkeypatch):
        calls = self._counted(monkeypatch)
        step = analyse_step(random_set(np.random.default_rng(24), 24, 16))
        result = step.first_optimum()
        assert result.best_metric > math.ceil(step.lambda_min * 16)
        assert calls == []

    def test_asked_once_when_a_leaf_reaches_it(self, monkeypatch):
        calls = self._counted(monkeypatch)
        sphere_search(correlation_matrix(hadamard_set(16)), 256.0, lambda_min=16.0)
        assert calls == [16.0]


def walk_budgets(u, signs):
    """The float budget the walk sums for each row of ``signs`` from factor
    ``u``: its weights, its matrix-vector offsets and its running sum, level
    by level from the root."""
    dim = signs.shape[1]
    d = np.diag(u.entries)
    q_diag = (d * d).tolist()
    weights = u.entries[:, ::-1] / d[:, np.newaxis]
    spent = np.zeros(len(signs))
    for level in range(dim, 0, -1):
        width = dim - level
        offset = signs[:, :width] @ weights[level - 1, :width] + signs[:, width]
        spent = spent + q_diag[level - 1] * offset * offset
    return spent


def assert_budgets_within_slack(matrix, lambda_min=None, count=200, seed=0):
    """Random sign vectors' walk budgets lie within the slack of the exact
    L * s^T R s - (b-2) * L + jitter * L."""
    dim = matrix.dim
    u, shift = walked_form(matrix, lambda_min)
    signs = np.random.default_rng(seed).choice([-1, 1], size=(count, dim))
    metrics = ((signs @ matrix.entries) * signs).sum(axis=1).tolist()
    slack = _rounding_slack(dim, matrix.k, shift, u.jitter)
    for budget, metric in zip(walk_budgets(u, signs.astype(np.float64)).tolist(), metrics):
        exact = dim * (metric - shift) + Fraction(u.jitter) * dim
        assert abs(Fraction(budget) - exact) <= slack


class TestRoundingSlack:
    """The walk's float budgets stay within ``_rounding_slack`` of the
    exact form, so no sign vector inside the radius is pruned."""

    @settings(PROPERTY_SETTINGS, max_examples=40)
    @given(random_sets(2, 24) | repeated_row_sets(2, 24))
    def test_property_sets(self, signature_set):
        matrix = correlation_matrix(signature_set)
        assert_budgets_within_slack(matrix, min_eigenpair(matrix).value)
        assert_budgets_within_slack(matrix)

    @pytest.mark.parametrize("length", [48, 96, 200, 400])
    @pytest.mark.parametrize("shape", ["random", "repeated", "underloaded"])
    def test_large_sets(self, length, shape):
        rng = np.random.default_rng(length)
        if shape == "random":
            rows = rng.choice([-1, 1], size=(3 * length // 2, length))
        elif shape == "repeated":
            rows = np.repeat(rng.choice([-1, 1], size=(3, length)), [5, 3, 1], axis=0)
        else:
            rows = rng.choice([-1, 1], size=(length // 2, length))
        matrix = correlation_matrix(SignatureSet.from_rows(rows.tolist()))
        assert_budgets_within_slack(matrix, min_eigenpair(matrix).value)

    def test_jittered_form(self):
        # 2R + 2I for R = [[K, K], [K, K]] at K = 4 * 10^9 needs jitter.
        matrix = CorrelationMatrix(np.full((2, 2), 4_000_000_000, dtype=np.int64))
        assert walked_form(matrix)[0].jitter > 0.0
        assert_budgets_within_slack(matrix, count=8)

    def test_non_diagonal_form_at_l_1100(self):
        # A seeded K = 2L set. R is a float64 product, exact because every
        # partial sum is an integer of magnitude at most K < 2^53, and the
        # checking constructor takes it; the int64 product takes seconds here.
        rows = np.random.default_rng(1100).choice([-1.0, 1.0], size=(2200, 1100))
        matrix = CorrelationMatrix((rows.T @ rows).astype(np.int64))
        lambda_min = min_eigenpair(matrix).value
        assert walked_form(matrix, lambda_min)[1] > 0  # the proposal's form, not L*R + 2I
        assert_budgets_within_slack(matrix, lambda_min, count=8)
        assert_budgets_within_slack(matrix, count=8)

    def test_below_one_metric_unit_at_l_1100(self):
        # One metric unit is L in A's scale; b = 0 gives the largest diagonal.
        assert _rounding_slack(1100, 2200, -2, 0.0) < 1100


# sd answers on seeded K = 42, L = 28 sets (rows from
# numpy.random.default_rng(seed).choice([-1, 1], size=(42, 28))), recorded
# from the depth-first walk before the block walk replaced it: the signature,
# its metric, nodes_visited and candidates_enumerated.
REACH = {
    1: ("+++-+-+--+-+-+-+----+-++++++", 252, 8017, 4),
    2: ("+-+-+--++-+--++--+---+++--++", 244, 2955, 1),
    3: ("+-++++++-+-+++-++++--+-+-+++", 252, 8358, 3),
}


@pytest.mark.parametrize("seed", sorted(REACH))
def test_reach_gate_l28(seed):
    result = analyse_step(random_set(np.random.default_rng(seed), 42, 28)).first_optimum()
    signs = "".join("+" if c > 0 else "-" for c in result.best)
    assert (signs, result.best_metric, result.nodes_visited, result.candidates_enumerated) == REACH[seed]


def test_bounded_memory_at_l_1100():
    # The recursion-limit input: blocks shrink to one row, so the open
    # blocks hold about L^2 floats, and the form and its factor are freed
    # before the walk.
    matrix = CorrelationMatrix(np.eye(1100, dtype=np.int64))
    lambda_min = min_eigenpair(matrix).value
    tracemalloc.start()
    try:
        result = sphere_search(matrix, 1100.0, lambda_min=lambda_min)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.nodes_visited == 1100
    assert peak < 64 << 20


def test_certified_floor_memory_at_l_1100():
    # One list of Python integers for L*R - (b-1)*I, built row by row: about
    # L^2 pointers (9.3 MB here), not a second full copy of R beside it.
    matrix = CorrelationMatrix(np.eye(1100, dtype=np.int64))
    tracemalloc.start()
    try:
        floor = certified_floor(matrix, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert floor == 1100
    assert peak < 12 << 20

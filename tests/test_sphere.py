"""Sphere search against brute force: optimality, completeness, accounting."""

import ast
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigforge.harness
import sigforge.sphere
from sigforge import (
    BoundOverflow,
    CapExceeded,
    CorrelationMatrix,
    EmptySphere,
    InternalConsistencyError,
    Signature,
    SignatureSet,
    StepAnalysis,
    correlation_matrix,
    extend_once,
    extend_set,
    hadamard_set,
    local_descent_baseline,
    min_eigenpair,
    ml_exhaustive,
    quadratic_metric,
    quantize_sign,
    radius_squared,
    sphere_search,
    tsc,
)
from sigforge.harness import _factor_columns
from sigforge.sphere import EXACT_SCAN_LIMIT, analyse_step


def random_correlation(rng, length, k_hi_factor=3):
    k = int(rng.integers(length, k_hi_factor * length + 1))
    rows = rng.choice([-1, 1], size=(k, length)).tolist()
    return correlation_matrix(SignatureSet.from_rows(rows))


def paper_radius(matrix):
    return radius_squared(matrix, quantize_sign(min_eigenpair(matrix).vector))


def all_half_space(length):
    """Every signature with the last chip +1, lexicographic (+1 < -1)."""
    out = []
    for bits in range(1 << (length - 1)):
        chips = tuple(
            1 if (bits >> (length - 2 - i)) & 1 == 0 else -1 for i in range(length - 1)
        ) + (1,)
        out.append(Signature(chips))
    return out


class TestRadius:
    def test_forced_metric_identity_kernels(self):
        m4 = correlation_matrix(hadamard_set(4))
        assert radius_squared(m4, Signature((1, 1, 1, 1))) == 16.0
        m16 = correlation_matrix(hadamard_set(16))
        assert radius_squared(m16, Signature((1,) * 16)) == 256.0

    def test_radius_dominates_cube_minimum(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            length = int(rng.integers(2, 11))
            m = random_correlation(rng, length)
            c = paper_radius(m)
            best = min(quadratic_metric(m, s) for s in all_half_space(length))
            assert c >= best


class TestSphereSearch:
    def test_identity_kernel_enumerates_everything(self):
        m = correlation_matrix(hadamard_set(4))
        result = sphere_search(m, 16.0)
        assert result.best_metric == 16
        assert tuple(result.best) == (1, 1, 1, 1)
        assert result.candidates_enumerated == 8
        assert result.ties == 8

    def test_duplicate_signature_degenerate_case(self):
        m = correlation_matrix(SignatureSet.from_rows([[1, 1], [1, 1]]))
        result = sphere_search(m, paper_radius(m))
        assert result.best_metric == 0
        assert tuple(result.best) == (-1, 1)

    def test_empty_sphere_below_minimum(self):
        m = correlation_matrix(hadamard_set(2))  # all metrics are 4
        with pytest.raises(EmptySphere):
            sphere_search(m, 1.0)
        # The first-optimum walk's dive (metric 4) seeds no answer either.
        with pytest.raises(EmptySphere):
            sphere_search(m, 1.0, lambda_min=2.0)

    @pytest.mark.parametrize("radius", [math.nextafter(16.0, 0.0), 16.0 - 1e-9])
    def test_radius_just_below_every_metric(self, radius):
        m = correlation_matrix(hadamard_set(4))  # R = 4I: all metrics are 16
        with pytest.raises(EmptySphere):
            sphere_search(m, radius)

    def test_fractional_radius_covers_its_floor(self):
        result = sphere_search(correlation_matrix(hadamard_set(4)), 16.5)
        assert (result.best_metric, result.candidates_enumerated) == (16, 8)

    @pytest.mark.parametrize("radius", [1.7e308, math.inf])
    def test_radius_beyond_every_metric(self, radius):
        result = sphere_search(correlation_matrix(hadamard_set(4)), radius)
        assert result.candidates_enumerated == 8

    @pytest.mark.parametrize(
        "lambda_min, expected", [(None, (16, 22, 8)), (0.0, (16, 15, 1)), (4.0, (16, 4, 1))]
    )
    def test_radius_at_or_beyond_the_abs_sum(self, lambda_min, expected):
        # No metric exceeds sum |R_ij| = 16, so every larger radius, an integer
        # beyond the float range too, walks the same ball in both walks.
        m = correlation_matrix(hadamard_set(4))
        for radius in (16, 1e308, math.inf, 10**400):
            result = sphere_search(m, radius, lambda_min=lambda_min)
            assert (result.best_metric, result.nodes_visited,
                    result.candidates_enumerated) == expected

    def test_rejects_negative_radius(self):
        m = correlation_matrix(hadamard_set(2))
        with pytest.raises(ValueError):
            sphere_search(m, -1.0)

    def test_matches_brute_force_random_family(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            length = int(rng.integers(4, 13))
            m = random_correlation(rng, length, k_hi_factor=2)
            result = sphere_search(m, paper_radius(m))
            brute = min(
                (quadratic_metric(m, s), tuple(0 if c == 1 else 1 for c in s), s)
                for s in all_half_space(length)
            )
            assert result.best_metric == brute[0]
            assert result.best == brute[2]

    def test_candidate_list_is_exactly_the_ball(self):
        rng = np.random.default_rng(44)
        matrices = [random_correlation(rng, int(rng.integers(2, 11))) for _ in range(40)]
        # K < L: R is singular.
        rng = np.random.default_rng(49)
        for _ in range(40):
            length = int(rng.integers(2, 11))
            rows = rng.choice([-1, 1], size=(int(rng.integers(1, length)), length))
            matrices.append(correlation_matrix(SignatureSet.from_rows(rows.tolist())))
        for m in matrices:
            length = m.dim
            c = paper_radius(m)
            result = sphere_search(m, c)
            enumerated = {tuple(s) for s, _ in result.candidates}
            ball = {
                tuple(s) for s in all_half_space(length) if quadratic_metric(m, s) <= c
            }
            assert enumerated == ball

    def test_feasibility_quantized_point_enumerated(self):
        rng = np.random.default_rng(45)
        for _ in range(30):
            length = int(rng.integers(2, 11))
            m = random_correlation(rng, length)
            quantized = quantize_sign(min_eigenpair(m).vector)
            if quantized[len(quantized) - 1] == -1:
                quantized = -quantized
            result = sphere_search(m, radius_squared(m, quantized))
            assert result.candidates_enumerated >= 1
            assert tuple(quantized) in {tuple(s) for s, _ in result.candidates}

    def test_node_accounting(self):
        rng = np.random.default_rng(46)
        for _ in range(30):
            length = int(rng.integers(2, 11))
            m = random_correlation(rng, length)
            result = sphere_search(m, paper_radius(m))
            assert result.nodes_visited <= 2 ** (length + 1)
            assert result.candidates_enumerated <= 2 ** (length - 1)

    def test_rayleigh_floor_and_radius_ceiling(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            length = int(rng.integers(2, 11))
            m = random_correlation(rng, length)
            pair = min_eigenpair(m)
            c = radius_squared(m, quantize_sign(pair.vector))
            result = sphere_search(m, c)
            assert pair.value * length <= result.best_metric + 1e-6
            assert result.best_metric <= c * (1.0 + 1e-9)

    def test_monotone_loading_along_chain(self):
        current = hadamard_set(4)
        last = None
        for _ in range(8):
            m = correlation_matrix(current)
            result = sphere_search(m, paper_radius(m))
            if last is not None:
                assert result.best_metric >= last
            last = result.best_metric
            current = extend_set(current, result.best)


class TestMlExhaustive:
    def test_identity_kernel(self):
        assert ml_exhaustive(correlation_matrix(hadamard_set(4))).best_metric == 16

    def test_cap_enforced(self):
        m = CorrelationMatrix(np.eye(25, dtype=np.int64))
        with pytest.raises(CapExceeded, match="L=25 exceeds the exhaustive-search cap of 24"):
            ml_exhaustive(m)

    def test_scan_covers_half_space(self):
        m = correlation_matrix(hadamard_set(8))
        result = ml_exhaustive(m)
        assert result.candidates_enumerated == 128

    def test_agrees_with_sphere_everywhere(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            length = int(rng.integers(2, 12))
            m = random_correlation(rng, length)
            sd = sphere_search(m, paper_radius(m))
            ml = ml_exhaustive(m)
            assert sd.best_metric == ml.best_metric
            assert sd.best == ml.best
            assert sd.ties == ml.ties

    def test_hadamard_16_chain_scale_is_fast(self):
        m = correlation_matrix(hadamard_set(16))
        result = ml_exhaustive(m)
        assert result.best_metric == 256
        assert result.candidates_enumerated == 1 << 15


class TestLocalDescent:
    def test_flat_landscape_returns_start(self):
        m = correlation_matrix(hadamard_set(4))
        start = Signature((1, -1, 1, -1))
        result = local_descent_baseline(m, start)
        assert result.best == start
        assert result.best_metric == 16

    def test_never_beats_exhaustive_never_worsens_start(self):
        rng = np.random.default_rng(51)
        for _ in range(40):
            length = int(rng.integers(2, 11))
            m = random_correlation(rng, length)
            start = Signature(tuple(rng.choice([-1, 1], size=length).tolist()))
            result = local_descent_baseline(m, start)
            assert result.best_metric >= ml_exhaustive(m).best_metric
            assert result.best_metric <= quadratic_metric(m, start)

    def test_deterministic(self):
        rng = np.random.default_rng(52)
        m = random_correlation(rng, 9)
        start = Signature(tuple(rng.choice([-1, 1], size=9).tolist()))
        first = local_descent_baseline(m, start)
        second = local_descent_baseline(m, start)
        assert first.best == second.best
        assert first.nodes_visited == second.nodes_visited


    def test_wrong_length_start_is_refused(self):
        m = correlation_matrix(hadamard_set(4))
        with pytest.raises(ValueError, match="dimension mismatch"):
            local_descent_baseline(m, Signature((1, -1, 1)))


def per_flip_descent(matrix, start):
    """Reference descent: score each single flip in index order by
    ``quadratic_metric`` and take the first that improves, until none does.
    Returns (best, best_metric, nodes_visited, candidates_enumerated)."""
    current = start
    metric = quadratic_metric(matrix, current)
    evals = 1
    points = 1
    improved = True
    while improved:
        improved = False
        for index in range(len(current)):
            chips = list(current.chips)
            chips[index] = -chips[index]
            trial = Signature(tuple(chips))
            trial_metric = quadratic_metric(matrix, trial)
            evals += 1
            if trial_metric < metric:
                current = trial
                metric = trial_metric
                points += 1
                improved = True
                break
    return current, metric, evals, points


def chips_of(length):
    return st.lists(st.sampled_from([-1, 1]), min_size=length, max_size=length)


@st.composite
def descent_cases(draw, shape):
    """R of a random set ("random", 1 to 3L rows), of a few repeated rows
    ("repeated") or of K < L rows ("underloaded"), and a random start."""
    length = draw(st.integers(2, 14))
    if shape == "repeated":
        distinct = draw(st.lists(chips_of(length), min_size=1, max_size=3))
        rows = [row for row in distinct for _ in range(draw(st.integers(1, 4)))]
    else:
        most = 3 * length if shape == "random" else length - 1
        rows = draw(st.lists(chips_of(length), min_size=1, max_size=most))
    start = Signature(tuple(draw(chips_of(length))))
    return correlation_matrix(SignatureSet.from_rows(rows)), start


@st.composite
def scaled_cases(draw):
    """c * S^T S for a length-4 set S, with c up to the largest value that keeps
    sum |R_ij| <= 2^62 (2^58 on Hadamard 4), and a random start."""
    hadamard = hadamard_set(4).rows.tolist()
    rows = draw(st.just(hadamard) | st.lists(chips_of(4), min_size=1, max_size=8))
    base = correlation_matrix(SignatureSet.from_rows(rows)).entries
    cap = (1 << 62) // int(np.abs(base).sum())
    scale = draw(st.just(cap) | st.integers(1, cap))
    return CorrelationMatrix(scale * base), Signature(tuple(draw(chips_of(4))))


DESCENT_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class TestDescentMatchesPerFlipScan:
    """One R s product per move gives the per-flip scan's best point, metric
    and both counts."""

    @staticmethod
    def assert_matches(case):
        matrix, start = case
        result = local_descent_baseline(matrix, start)
        got = (result.best, result.best_metric, result.nodes_visited,
               result.candidates_enumerated)
        assert got == per_flip_descent(matrix, start)

    @DESCENT_SETTINGS
    @given(descent_cases("random"))
    def test_random_sets(self, case):
        self.assert_matches(case)

    @DESCENT_SETTINGS
    @given(descent_cases("repeated"))
    def test_repeated_rows(self, case):
        self.assert_matches(case)

    @DESCENT_SETTINGS
    @given(descent_cases("underloaded"))
    def test_underloaded_sets(self, case):
        self.assert_matches(case)

    @DESCENT_SETTINGS
    @given(scaled_cases())
    def test_entries_scaled_to_2_62(self, case):
        self.assert_matches(case)


class TestExtendOptimal:
    """The optimal extension of a set: one step analysis, then the
    first-optimum walk."""

    def test_hadamard_16(self):
        result = analyse_step(hadamard_set(16)).first_optimum()
        assert result.best_metric == 256
        assert tsc(extend_set(hadamard_set(16), result.best)) == 4864

    def test_hadamard_4(self):
        result = analyse_step(hadamard_set(4)).first_optimum()
        assert result.best_metric == 16
        assert tsc(extend_set(hadamard_set(4), result.best)) == 112

    def test_random_matches_brute_force(self):
        rng = np.random.default_rng(53)
        rows = rng.choice([-1, 1], size=(10, 8)).tolist()
        s = SignatureSet.from_rows(rows)
        result = analyse_step(s).first_optimum()
        m = correlation_matrix(s)
        brute = min(quadratic_metric(m, sig) for sig in all_half_space(8))
        assert result.best_metric == brute
        assert quadratic_metric(m, result.best) == brute

    def test_detail_fields_consistent(self):
        rng = np.random.default_rng(54)
        s = SignatureSet.from_rows(rng.choice([-1, 1], size=(6, 5)).tolist())
        step = analyse_step(s)
        result = step.first_optimum()
        record = extend_once(s, "sd")[1]
        assert record.radius_c == float(step.quant_metric)
        assert result.best_metric <= step.quant_metric
        assert result.candidates_enumerated >= 1
        assert record.fp_bound is None or record.fp_bound > 0.0

    def test_overflowing_bound_reads_none(self, monkeypatch):
        def overflow(dim, radius, scale):
            raise BoundOverflow(f"operation bound exceeds float range at L={dim}")

        monkeypatch.setattr(sigforge.harness, "fp_operation_bound", overflow)
        record = extend_once(hadamard_set(8), "sd")[1]
        assert not record.jitter_applied
        assert record.fp_bound is None

    def test_degenerate_set_uses_jitter(self):
        s = SignatureSet.from_rows([[1, 1], [1, 1]])
        step = analyse_step(s)
        assert _factor_columns(step) == (True, None)
        assert step.first_optimum().best_metric == 0


def brute_force_scan(matrix, length):
    """Plain-loop oracle: first lexicographic minimum and its tie count."""
    scored = [(quadratic_metric(matrix, s), s) for s in all_half_space(length)]
    best_metric = min(metric for metric, _ in scored)
    best = next(s for metric, s in scored if metric == best_metric)
    ties = sum(1 for metric, _ in scored if metric == best_metric)
    return best, best_metric, ties


@st.composite
def scan_sets(draw):
    length = draw(st.integers(1, 12))
    k = draw(st.integers(1, 3 * length))
    rows = draw(
        st.lists(
            st.lists(st.sampled_from([-1, 1]), min_size=length, max_size=length),
            min_size=k,
            max_size=k,
        )
    )
    return SignatureSet.from_rows(rows)


def test_step_analysis_holds_only_the_search_inputs():
    # The search layer reads R, its eigenpair, the quantized point and its
    # metric; the record's factor of R and its operation bound live in harness.
    assert StepAnalysis.__slots__ == ("matrix", "lambda_min", "quantized", "quant_metric")
    tree = ast.parse(inspect.getsource(sigforge.sphere))
    assert "bounds" not in {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    }


class TestMeetInTheMiddleScan:
    """The split scan against the plain loop over the half-cube."""

    @given(scan_sets())
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    def test_matches_plain_loop(self, signature_set):
        m = correlation_matrix(signature_set)
        result = ml_exhaustive(m)
        assert (result.best, result.best_metric, result.ties) == brute_force_scan(
            m, signature_set.length
        )
        assert result.candidates_enumerated == 1 << (signature_set.length - 1)

    @pytest.mark.parametrize("length", range(1, 13))
    def test_every_split_width(self, length):
        # L = 1 has an empty head, L = 2 and 3 a one-bit head, and the tail of
        # L = 1 and 2 is the pinned bit alone; odd L splits unevenly.
        rng = np.random.default_rng(100 + length)
        for _ in range(4):
            m = random_correlation(rng, length)
            result = ml_exhaustive(m)
            assert (result.best, result.best_metric, result.ties) == brute_force_scan(
                m, length
            )

    @pytest.mark.parametrize("length", [1, 2, 4, 8])
    def test_hadamard_every_point_ties(self, length):
        m = correlation_matrix(hadamard_set(length))
        result = ml_exhaustive(m)
        assert result.best == Signature((1,) * length)
        assert result.best_metric == length * length
        assert result.ties == 1 << (length - 1)

    def test_hadamard_chain_steps_many_ties(self):
        current = hadamard_set(8)
        for _ in range(4):
            m = correlation_matrix(current)
            result = ml_exhaustive(m)
            expected = brute_force_scan(m, 8)
            assert (result.best, result.best_metric, result.ties) == expected
            assert result.ties > 1
            current = extend_set(current, result.best)

    @pytest.mark.parametrize("length", [5, 8, 9])
    def test_one_head_row_per_block(self, length, monkeypatch):
        # Ties and minima then fall in different blocks; the first still wins.
        monkeypatch.setattr(sigforge.sphere, "_BLOCK", 1)
        rng = np.random.default_rng(200 + length)
        matrices = [random_correlation(rng, length) for _ in range(3)]
        if length == 8:
            matrices.append(correlation_matrix(hadamard_set(8)))
        for m in matrices:
            result = ml_exhaustive(m)
            assert (result.best, result.best_metric, result.ties) == brute_force_scan(
                m, length
            )

    @pytest.mark.parametrize("length, limit_mb", [(21, 1.5), (24, 2.5)])
    def test_peak_memory_bounded(self, length, limit_mb):
        # Blocks of 2^15 float64 entries: the traced peak is about 0.96 MB at
        # L = 21 and 1.96 MB at L = 24, most of it the head and tail tables;
        # blocks of 2^18 entries peaked at 4.45 MB and 5.45 MB.
        rng = np.random.default_rng(400 + length)
        rows = rng.choice([-1, 1], size=(3 * length // 2, length)).tolist()
        m = correlation_matrix(SignatureSet.from_rows(rows))
        tracemalloc.start()
        try:
            result = ml_exhaustive(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.nodes_visited == 1 << (length - 1)
        assert result.best_metric == quadratic_metric(m, result.best)
        assert peak < limit_mb * 2**20

    def test_cap_size_scan_matches_first_optimum(self):
        # One scan at the L = 24 cap: 2^23 points.
        rng = np.random.default_rng(24)
        step = analyse_step(SignatureSet.from_rows(rng.choice([-1, 1], size=(36, 24)).tolist()))
        scan = ml_exhaustive(step.matrix)
        walk = step.first_optimum()
        assert scan.candidates_enumerated == scan.nodes_visited == 1 << 23
        assert (scan.best, scan.best_metric) == (walk.best, walk.best_metric)

    def test_exact_just_below_float_limit(self):
        diag = (EXACT_SCAN_LIMIT >> 4) - 1  # sum |R_ij| = 2^53 - 16
        result = ml_exhaustive(CorrelationMatrix(np.eye(16, dtype=np.int64) * diag))
        assert result.best_metric == 16 * diag
        assert result.ties == 1 << 15

    @pytest.mark.parametrize("length", range(5, 13))
    def test_exact_just_below_float_limit_with_cross_terms(self, length):
        # R = c * S^T S with sum |R_ij| just below 2^53: the cross products
        # and both forms are large, so an inexact partial sum would show.
        m = random_correlation(np.random.default_rng(300 + length), length)
        scale = (EXACT_SCAN_LIMIT - 1) // m.abs_sum
        scaled = CorrelationMatrix(m.entries * scale)
        assert EXACT_SCAN_LIMIT - m.abs_sum <= scaled.abs_sum < EXACT_SCAN_LIMIT
        result = ml_exhaustive(scaled)
        assert (result.best, result.best_metric, result.ties) == brute_force_scan(
            scaled, length
        )

    def test_refuses_beyond_float_limit(self):
        m = CorrelationMatrix(np.eye(16, dtype=np.int64) * (1 << 49))
        with pytest.raises(CapExceeded, match=r"L=16.*9007199254740992"):
            ml_exhaustive(m)

    def test_inexact_float_minimum_is_an_internal_failure(self, monkeypatch):
        # With the limit lifted, 2^62 swamps the off-diagonal +-2 in float64:
        # every point scores 2^62, but the first one is exactly 2^62 + 2.
        monkeypatch.setattr(sigforge.sphere, "EXACT_SCAN_LIMIT", 1 << 63)
        entries = np.eye(16, dtype=np.int64) * (1 << 58)
        entries[0, 1] = entries[1, 0] = 1
        with pytest.raises(InternalConsistencyError, match="float minimum"):
            ml_exhaustive(CorrelationMatrix(entries))


# R = K I_3 with K = 797094230289444740: every sign vector has the metric 3K,
# and the float nearest 3K lies 140 below it.
BIG_IDENTITY_K = 797_094_230_289_444_740


@st.composite
def sets_scaled_past_2_53(draw):
    """c * S^T S for a set of L = 2 to 8 and K = 1 to 3L rows (K < L
    included), with c chosen so that sum |R_ij| lies in [2^60, 2^62)."""
    length = draw(st.integers(2, 8))
    rows = draw(st.lists(chips_of(length), min_size=1, max_size=3 * length))
    base = correlation_matrix(SignatureSet.from_rows(rows)).entries
    total = int(np.abs(base).sum())
    scale = draw(st.integers(-(-(1 << 60) // total), ((1 << 62) - 1) // total))
    return CorrelationMatrix(scale * base)


class TestRadiusAbove2To53:
    """The walks start from the exact integer metric, which a float copy can
    round below."""

    def test_big_identity(self):
        matrix = CorrelationMatrix(np.eye(3, dtype=np.int64) * BIG_IDENTITY_K)
        pair = min_eigenpair(matrix)
        quantized = quantize_sign(pair.vector)
        metric = 3 * BIG_IDENTITY_K
        assert int(float(metric)) == metric - 140
        radius = radius_squared(matrix, quantized)
        assert type(radius) is int and radius == metric
        expected = (Signature((1, 1, 1)), metric)
        result = sphere_search(matrix, radius, lambda_min=pair.value)
        assert (result.best, result.best_metric) == expected
        step = StepAnalysis(matrix, pair.value, quantized, radius)
        result = step.first_optimum()
        assert (result.best, result.best_metric) == expected

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(sets_scaled_past_2_53())
    def test_every_walk_matches_brute_force(self, matrix):
        pair = min_eigenpair(matrix)
        radius = radius_squared(matrix, quantize_sign(pair.vector))
        best, best_metric, _ = brute_force_scan(matrix, matrix.dim)
        for lambda_min in (pair.value, 0.0, None):
            result = sphere_search(matrix, radius, lambda_min=lambda_min)
            assert (result.best, result.best_metric) == (best, best_metric)

"""The floored first-optimum walk: one shifted form, a nearest-plane start,
and the scan's answer wherever its node count lands."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigforge.sphere
from sigforge import (
    CorrelationMatrix,
    SignatureSet,
    SingularMatrix,
    certified_floor,
    cholesky,
    correlation_matrix,
    hadamard_set,
    min_eigenpair,
    ml_exhaustive,
    quantize_sign,
    radius_squared,
    sphere_search,
)
from sigforge.harness import _factor_columns
from sigforge.sphere import analyse_step

# Nodes the walk without the shifted form and the nearest-plane start
# visited on the Hadamard 16 -> 32 chain.
PLAIN_FIRST_OPTIMUM_CHAIN_NODES = 88_782

# A K = 13, L = 9 set from a seeded search over K = 1.5L sets where the
# shifted form's ball is not nested in R's: the floored walk visits 47 nodes
# here, the unfloored walk 41.
NESTING_ROWS = (
    "+---++-++", "--++-----", "+-++-+-++", "-+-+++---", "----++--+",
    "+++-+-+--", "+---+----", "+++-+--+-", "+++--++--", "++---+-++",
    "+-----+--", "+--+-++-+", "--++-+---",
)


def parse(rows):
    return SignatureSet.from_rows([[1 if c == "+" else -1 for c in row] for row in rows])


def walks(matrix):
    """The floored and the unfloored first-optimum walk and the fixed-radius
    walk from the step's radius."""
    pair = min_eigenpair(matrix)
    radius = radius_squared(matrix, quantize_sign(pair.vector))
    floored = sphere_search(matrix, radius, lambda_min=pair.value)
    unfloored = sphere_search(matrix, radius, lambda_min=0.0)
    return floored, unfloored, sphere_search(matrix, radius)


class TestBothBoundsNest:
    """The floored walk prunes with its own shifted form, so only the
    unfloored walk, which traverses the fixed-radius walk's form L*R + 2I,
    nests in the fixed-radius walk; every walk returns the scan's answer."""

    def test_pinned_instance_where_the_shift_alone_is_not_nested(self):
        matrix = correlation_matrix(parse(NESTING_ROWS))
        assert certified_floor(matrix, min_eigenpair(matrix).value) > 2
        floored, unfloored, fixed = walks(matrix)
        scan = ml_exhaustive(matrix)
        assert (floored.best, floored.best_metric) == (scan.best, scan.best_metric)
        assert (unfloored.best, unfloored.best_metric) == (scan.best, scan.best_metric)
        # The trade of walking one form: more nodes than R's ball here.
        assert (floored.nodes_visited, unfloored.nodes_visited) == (47, 41)
        assert unfloored.nodes_visited <= fixed.nodes_visited

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(6, 16).flatmap(
            lambda length: st.lists(
                st.lists(st.sampled_from([-1, 1]), min_size=length, max_size=length),
                min_size=3 * length // 2,
                max_size=3 * length // 2,
            )
        )
    )
    def test_overloaded_sets(self, rows):
        matrix = correlation_matrix(SignatureSet.from_rows(rows))
        floored, unfloored, fixed = walks(matrix)
        scan = ml_exhaustive(matrix)
        assert (floored.best, floored.best_metric) == (scan.best, scan.best_metric)
        assert (unfloored.best, unfloored.best_metric) == (scan.best, scan.best_metric)
        assert unfloored.nodes_visited <= fixed.nodes_visited


class TestOneExactScorer:
    def test_leaves_the_dive_and_the_scan_winner(self, monkeypatch):
        # quadratic_metric scores every leaf, the first-optimum walk's dive
        # and the exhaustive scan's winner, and the searches score nothing else.
        matrix = correlation_matrix(parse(NESTING_ROWS))
        pair = min_eigenpair(matrix)
        radius = radius_squared(matrix, quantize_sign(pair.vector))
        calls = []
        score = sigforge.sphere.quadratic_metric
        monkeypatch.setattr(
            sigforge.sphere, "quadratic_metric", lambda m, s: calls.append(s) or score(m, s)
        )
        for lambda_min in (pair.value, 0.0):
            calls.clear()
            result = sphere_search(matrix, radius, lambda_min=lambda_min)
            assert len(calls) == result.candidates_enumerated + 1
        calls.clear()
        fixed = sphere_search(matrix, radius)
        assert len(calls) == fixed.candidates_enumerated
        assert calls == [s for s, _ in fixed.candidates]
        calls.clear()
        scan = ml_exhaustive(matrix)
        assert calls == [scan.best]


def counting_cholesky(monkeypatch):
    """Record every matrix ``sphere`` factors from here on."""
    calls = []
    factor = sigforge.sphere.cholesky
    monkeypatch.setattr(
        sigforge.sphere, "cholesky", lambda entries: calls.append(entries) or factor(entries)
    )
    return calls


class TestDerivedMatrices:
    def test_no_correlation_matrix_validation_per_walk(self, monkeypatch):
        matrix = correlation_matrix(parse(NESTING_ROWS))
        pair = min_eigenpair(matrix)
        radius = radius_squared(matrix, quantize_sign(pair.vector))
        validations = []
        validate = CorrelationMatrix.__post_init__

        def counted(self):
            validations.append(self)
            validate(self)

        monkeypatch.setattr(CorrelationMatrix, "__post_init__", counted)
        sphere_search(matrix, radius, lambda_min=pair.value)
        assert validations == []

    @pytest.mark.parametrize("power", [58, 60])
    def test_shifted_form_beyond_int64(self, power, monkeypatch):
        # L * sum |R_ij| is 2^62 for 2^58 I_4 and 2^64 for 2^60 I_4. The
        # floor is 4 * 2^power, so the shifted form 4R - (floor - 2) I is 2 I_4;
        # its diagonal is set from exact integers, so no int64 bound applies.
        matrix = CorrelationMatrix(np.eye(4, dtype=np.int64) << power)
        calls = counting_cholesky(monkeypatch)
        radius = float(4 << power)
        walked = sphere_search(matrix, radius, lambda_min=min_eigenpair(matrix).value)
        assert len(calls) == 1
        assert np.array_equal(calls[0], 2 * np.eye(4))
        fixed = sphere_search(matrix, radius)
        assert (walked.best, walked.best_metric) == (fixed.best, fixed.best_metric)

    def test_no_floor_walks_l_r_plus_2i(self, monkeypatch):
        # K < L: R is singular, so the record's factor of R is jittered, and
        # the certified floor is 0. The walk factors the index-reversed
        # L*R + 2I, which needs no jitter.
        step = analyse_step(parse(NESTING_ROWS[:5]))
        assert _factor_columns(step) == (True, None)
        assert certified_floor(step.matrix, step.lambda_min) == 0
        calls = counting_cholesky(monkeypatch)
        result = step.first_optimum()
        assert len(calls) == 1
        length = step.matrix.dim
        expected = length * step.matrix.entries[::-1, ::-1] + 2 * np.eye(length)
        assert np.array_equal(calls[0], expected)
        assert cholesky(calls[0]).jitter == 0.0
        scan = ml_exhaustive(step.matrix)
        assert (result.best, result.best_metric) == (scan.best, scan.best_metric)


class TestOneFactorOfLRPlus2I:
    """Without a proposal above 0 the walked form is already L*R + 2I, so a
    jittered factor of it is walked as it is, and a SingularMatrix from it
    propagates."""

    # R = [[K, K], [K, K]] is valid; 2R + 2I at K = 4 * 10^9 needs jitter.
    K = 4_000_000_000

    @pytest.mark.parametrize("lambda_min", [0.0, None])
    def test_jittered_form_factored_once(self, lambda_min, monkeypatch):
        matrix = CorrelationMatrix(np.full((2, 2), self.K, dtype=np.int64))
        calls = counting_cholesky(monkeypatch)
        result = sphere_search(matrix, 0.0, lambda_min=lambda_min)
        assert len(calls) == 1
        assert np.array_equal(calls[0], 2 * matrix.entries + 2 * np.eye(2))
        assert cholesky(calls[0]).jitter > 0.0
        scan = ml_exhaustive(matrix)
        assert (result.best, result.best_metric) == (scan.best, 0)

    @pytest.mark.parametrize("lambda_min, factored", [(0.0, 1), (None, 1), (100.0, 2)])
    def test_singular_l_r_plus_2i_propagates(self, lambda_min, factored, monkeypatch):
        calls = []

        def singular(entries):
            calls.append(entries)
            raise SingularMatrix("forced")

        monkeypatch.setattr(sigforge.sphere, "cholesky", singular)
        matrix = correlation_matrix(hadamard_set(8))
        with pytest.raises(SingularMatrix):
            sphere_search(matrix, 64.0, lambda_min=lambda_min)
        assert len(calls) == factored
        assert np.array_equal(calls[-1], 8 * matrix.entries + 2 * np.eye(8))


class TestReferenceChainCounts:
    def test_one_leaf_per_step(self, reference_walks):
        assert [walk.candidates_enumerated for walk in reference_walks] == [1] * 16

    def test_fewer_nodes_than_the_plain_walk(self, reference_walks):
        total = sum(walk.nodes_visited for walk in reference_walks)
        assert total < PLAIN_FIRST_OPTIMUM_CHAIN_NODES

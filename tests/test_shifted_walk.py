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
    certified_floor,
    correlation_matrix,
    hadamard_set,
    min_eigenpair,
    ml_exhaustive,
    quantize_sign,
    radius_squared,
    sphere_search,
    upscale_chain,
)
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
    floored = sphere_search(matrix, radius, first_optimum=True, lambda_min=pair.value)
    unfloored = sphere_search(matrix, radius, first_optimum=True)
    return floored, unfloored, sphere_search(matrix, radius)


class TestBothBoundsNest:
    """The floored walk prunes with the shifted form alone, so only the
    unfloored walk, on R's own ball, nests in the fixed-radius walk; every
    walk returns the scan's answer."""

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
        sphere_search(matrix, radius, first_optimum=True, lambda_min=pair.value)
        assert validations == []

    @pytest.mark.parametrize("power, walked", [(60, 1 << 60), (58, 2)])
    def test_shifted_form_only_within_int64(self, power, walked, monkeypatch):
        # L * sum |R_ij| is 2^64 for 2^60 I_4 and 2^62 for 2^58 I_4. The
        # floor is 4 * 2^power, so the shifted form 4R - (floor - 2) I is 2 I_4;
        # beyond the int64 guard the walk factors R itself.
        matrix = CorrelationMatrix(np.eye(4, dtype=np.int64) << power)
        calls = counting_cholesky(monkeypatch)
        radius = float(4 << power)
        walked_result = sphere_search(
            matrix, radius, first_optimum=True, lambda_min=min_eigenpair(matrix).value
        )
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.eye(4, dtype=np.int64) * walked)
        fixed = sphere_search(matrix, radius)
        assert (walked_result.best, walked_result.best_metric) == (fixed.best, fixed.best_metric)

    def test_no_floor_walks_the_analysed_factor(self, monkeypatch):
        # K < L: R is singular and its certified floor is 0, so the walk runs
        # on R's factor from the step analysis and factors nothing itself.
        step = analyse_step(parse(NESTING_ROWS[:5]))
        assert certified_floor(step.matrix, step.lambda_min) == 0
        calls = counting_cholesky(monkeypatch)
        result = step.first_optimum()
        assert calls == []
        scan = ml_exhaustive(step.matrix)
        assert (result.best, result.best_metric) == (scan.best, scan.best_metric)


@pytest.fixture(scope="module")
def reference_chain():
    return upscale_chain(hadamard_set(16), 32, "sd", audit=False)


class TestReferenceChainCounts:
    def test_one_leaf_per_step(self, reference_chain):
        assert [r.candidates_enumerated for r in reference_chain.records] == [1] * 16

    def test_fewer_nodes_than_the_plain_walk(self, reference_chain):
        total = sum(record.nodes_visited for record in reference_chain.records)
        assert total < PLAIN_FIRST_OPTIMUM_CHAIN_NODES

"""The floored first-optimum walk: two bounds, a nearest-plane start, and
node counts that can only fall."""

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

# Nodes the walk without the shifted form and the nearest-plane start
# visited on the Hadamard 16 -> 32 chain.
PLAIN_FIRST_OPTIMUM_CHAIN_NODES = 88_782

# A K = 13, L = 9 set from a seeded search over K = 1.5L sets: admitting
# against the shifted form alone visits 47 nodes here, the unfloored walk 41.
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
    def test_pinned_instance_where_the_shift_alone_is_not_nested(self, monkeypatch):
        matrix = correlation_matrix(parse(NESTING_ROWS))
        assert certified_floor(matrix, min_eigenpair(matrix).value) > 2
        floored, unfloored, fixed = walks(matrix)
        scan = ml_exhaustive(matrix)
        assert (floored.best, floored.best_metric) == (scan.best, scan.best_metric)
        assert floored.nodes_visited <= unfloored.nodes_visited <= fixed.nodes_visited

        # The shifted form is walked first; admitting against it alone is
        # what the plain bound is there to prevent.
        walk = sigforge.sphere._walk
        monkeypatch.setattr(
            sigforge.sphere, "_walk", lambda forms, caps, *rest: walk(forms[:1], caps, *rest)
        )
        shifted_only, _, _ = walks(matrix)
        assert shifted_only.nodes_visited > unfloored.nodes_visited

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
        assert floored.nodes_visited <= unfloored.nodes_visited <= fixed.nodes_visited


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

    @pytest.mark.parametrize("power, factorizations", [(60, 1), (58, 2)])
    def test_shifted_form_only_within_int64(self, power, factorizations, monkeypatch):
        # L * sum |R_ij| is 2^64 for 2^60 I_4 and 2^62 for 2^58 I_4.
        matrix = CorrelationMatrix(np.eye(4, dtype=np.int64) << power)
        calls = []
        factor = sigforge.sphere.cholesky
        monkeypatch.setattr(
            sigforge.sphere, "cholesky", lambda entries: calls.append(entries) or factor(entries)
        )
        radius = float(4 << power)
        walked = sphere_search(
            matrix, radius, first_optimum=True, lambda_min=min_eigenpair(matrix).value
        )
        assert len(calls) == factorizations
        fixed = sphere_search(matrix, radius)
        assert (walked.best, walked.best_metric) == (fixed.best, fixed.best_metric)


@pytest.fixture(scope="module")
def reference_chain():
    return upscale_chain(hadamard_set(16), 32, "sd", audit=False)


class TestReferenceChainCounts:
    def test_one_leaf_per_step(self, reference_chain):
        assert [r.candidates_enumerated for r in reference_chain.records] == [1] * 16

    def test_fewer_nodes_than_the_plain_walk(self, reference_chain):
        total = sum(record.nodes_visited for record in reference_chain.records)
        assert total < PLAIN_FIRST_OPTIMUM_CHAIN_NODES

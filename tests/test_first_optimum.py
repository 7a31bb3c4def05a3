"""First-optimum sphere walk: same answer as the scan, certified floor,
iterative depth, and node counts on the reference chain."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigforge.harness
import sigforge.sphere
from sigforge import (
    CorrelationMatrix,
    Signature,
    SignatureSet,
    certified_floor,
    correlation_matrix,
    hadamard_set,
    min_eigenpair,
    ml_exhaustive,
    quadratic_metric,
    quantize_sign,
    radius_squared,
    sphere_search,
    upscale_chain,
)
from sigforge.sphere import analyse_step

# Nodes the fixed-radius walk visited on the Hadamard 16 -> 32 chain when it
# still factored R in forward index order; the first-optimum pipeline has to
# stay below that count.
FIXED_RADIUS_CHAIN_NODES = 528_169

PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None, derandomize=True, database=None
)


def rows_of(length, count):
    return st.lists(
        st.lists(st.sampled_from([-1, 1]), min_size=length, max_size=length),
        min_size=count,
        max_size=count,
    )


@st.composite
def random_sets(draw):
    length = draw(st.integers(2, 14))
    k = draw(st.integers(1, 3 * length))
    return SignatureSet.from_rows(draw(rows_of(length, k)))


@st.composite
def repeated_row_sets(draw):
    """A few distinct rows, each repeated; R has low rank and many ties."""
    length = draw(st.integers(2, 12))
    distinct = draw(rows_of(length, draw(st.integers(1, 3))))
    repeats = draw(st.lists(st.integers(1, 4), min_size=len(distinct), max_size=len(distinct)))
    return SignatureSet.from_rows(
        [row for row, times in zip(distinct, repeats) for _ in range(times)]
    )


@st.composite
def underloaded_sets(draw):
    """K < L: R is singular, so the step analysis' factor of R takes the
    jitter path; the walks factor L*R + 2I, or the floored form, without it."""
    length = draw(st.integers(2, 12))
    return SignatureSet.from_rows(draw(rows_of(length, draw(st.integers(1, length - 1)))))


def fields_of(result):
    return tuple(getattr(result, name) for name in result.__slots__)


def assert_first_optimum_is_exact(signature_set):
    matrix = correlation_matrix(signature_set)
    pair = min_eigenpair(matrix)
    radius = radius_squared(matrix, quantize_sign(pair.vector))
    first = sphere_search(matrix, radius, lambda_min=pair.value)
    # A floor of 0 holds for every R, so lambda_min=0.0 walks L*R + 2I, the
    # fixed-radius walk's form.
    unfloored = sphere_search(matrix, radius, lambda_min=0.0)
    fixed = sphere_search(matrix, radius)
    scan = ml_exhaustive(matrix)
    expected = (scan.best, scan.best_metric)
    assert (first.best, first.best_metric) == expected
    assert (unfloored.best, unfloored.best_metric) == expected
    assert (fixed.best, fixed.best_metric) == expected
    assert first.candidates is None
    # Both walks traverse the same index-reversed factor from the same radius.
    assert unfloored.nodes_visited <= fixed.nodes_visited
    floor = certified_floor(matrix, pair.value)
    assert floor is None or floor <= scan.best_metric
    # A set that starts with an orthogonal block is completed, not walked: the
    # same answer, with the completion's own counts.
    step = analyse_step(signature_set)
    pipeline = step.first_optimum()
    if step.excess is None:
        assert fields_of(pipeline) == fields_of(first)
    else:
        assert (pipeline.best, pipeline.best_metric) == expected


class TestSameAnswerAsScan:
    @PROPERTY_SETTINGS
    @given(random_sets())
    def test_random_sets(self, signature_set):
        assert_first_optimum_is_exact(signature_set)

    @PROPERTY_SETTINGS
    @given(repeated_row_sets())
    def test_repeated_rows(self, signature_set):
        assert_first_optimum_is_exact(signature_set)

    @PROPERTY_SETTINGS
    @given(underloaded_sets())
    def test_singular_r_jitter_path(self, signature_set):
        assert_first_optimum_is_exact(signature_set)

    @PROPERTY_SETTINGS
    @given(st.integers(1, 14).flatmap(lambda length: rows_of(length, 1)))
    def test_single_signature(self, rows):
        assert_first_optimum_is_exact(SignatureSet.from_rows(rows))


class TestCertifiedFloor:
    def test_float_eigenvalue_only_proposes(self):
        m = correlation_matrix(hadamard_set(16))  # R = 16 I, optimum 256
        assert certified_floor(m, 16.0) == 256
        assert certified_floor(m, 15.999999999999975) == 256
        # Rounded up past an integer: 257 fails the exact check, 256 holds.
        assert certified_floor(m, 16.00000000000003) == 256
        assert certified_floor(m, 16.1) is None
        assert certified_floor(m, 17.0) is None
        assert certified_floor(m, float("nan")) is None
        assert certified_floor(m, 1e308) is None  # lambda_min * L overflows to inf

    def test_wrong_eigenvalue_cannot_change_the_result(self):
        m = correlation_matrix(hadamard_set(8))
        honest = sphere_search(m, 64.0, lambda_min=8.0)
        lied = sphere_search(m, 64.0, lambda_min=100.0)
        assert (lied.best, lied.best_metric) == (honest.best, honest.best_metric)
        assert lied.nodes_visited > honest.nodes_visited

    def test_non_integer_eigenvalue_bound(self):
        # lambda_min * L = 3 * (2 - sqrt 2) ~ 1.76: 3R - 2I is indefinite,
        # yet every metric is an integer above 1.76, so the floor is 2.
        m = CorrelationMatrix(np.array([[2, 1, 0], [1, 2, 1], [0, 1, 2]]))
        assert certified_floor(m, min_eigenpair(m).value) == 2
        assert ml_exhaustive(m).best_metric == 2

    def test_scaled_entries_do_not_wrap(self):
        # I_8 with R_01 = R_10 = 2^61: sum |R_ij| = 2^62 + 8 fits int64, but
        # 8 * 2^61 does not. s = (1, -1, 1, ..., 1) has metric 8 - 2^62, so
        # no floor of 8 (or 7) holds.
        entries = np.eye(8, dtype=np.int64)
        entries[0, 1] = entries[1, 0] = 1 << 61
        m = CorrelationMatrix(entries)
        assert certified_floor(m, 1.0) is None
        assert quadratic_metric(m, Signature((1, -1) + (1,) * 6)) == 8 - (1 << 62)


class TestIterativeWalk:
    def test_deeper_than_the_recursion_limit(self):
        length = 1100
        assert length > sys.getrecursionlimit()
        m = CorrelationMatrix(np.eye(length, dtype=np.int64))
        result = sphere_search(m, float(length), lambda_min=min_eigenpair(m).value)
        assert result.best_metric == length
        assert tuple(result.best) == (1,) * length
        assert result.nodes_visited == length  # the first leaf meets the floor


class TestReferenceChain:
    """Counts, not timings: the first-optimum walk on each step of the
    Hadamard 16 -> 32 chain, and the pipeline's own factorizations."""

    def test_first_step_visits_one_path(self, reference_walks):
        assert reference_walks[0].nodes_visited == 16
        assert reference_walks[0].candidates_enumerated == 1

    def test_chain_nodes_below_fixed_radius_walk(self, reference_walks):
        total = sum(walk.nodes_visited for walk in reference_walks)
        assert total < FIXED_RADIUS_CHAIN_NODES

    def test_one_factorization_per_step(self, monkeypatch):
        # One of R in the harness, for the record's fp_bound and jitter flag.
        # Every step starts with the orthogonal Hadamard block, so the
        # completion finds its optimum and the walk, which would factor
        # L*R - (b-2)*I, never runs.
        calls = []
        original = sigforge.sphere.cholesky
        for module in (sigforge.sphere, sigforge.harness):
            def counted(entries, name=module.__name__):
                calls.append(name)
                return original(entries)

            monkeypatch.setattr(module, "cholesky", counted)
        chain = upscale_chain(hadamard_set(16), 32, "sd", audit=False)
        assert len(chain.records) == 16
        assert calls == ["sigforge.harness"] * 16

    def test_floor_is_certified_on_every_step(self, reference_chain):
        final = reference_chain.final_set
        for record in reference_chain.records:
            m = correlation_matrix(SignatureSet(final.signatures[: record.k_before]))
            assert certified_floor(m, min_eigenpair(m).value) == 256
            assert record.metric == 256

"""Orthogonal starts: a set whose first L rows satisfy S_H S_H^T = L*I has
every metric >= L^2, and the meet-in-the-middle completion finds the
lexicographically first s with A s = 0 for the rows A after the block; the
walk runs only when no such s exists or no block comes first."""

import numpy as np
import pytest
from hypothesis import given, settings

import sigforge.sphere
from sigforge import (
    InternalConsistencyError,
    Signature,
    SignatureSet,
    extend_once,
    extend_set,
    hadamard_set,
    ml_exhaustive,
    sphere_search,
)
from sigforge.sphere import COMPLETION_MAX_L, _completion, analyse_step
from support import PROPERTY_SETTINGS, all_half_space, fields_of, first_completion, repeated_rows


def table_rows(length):
    """The completion's documented node count: its head and tail table rows."""
    return (1 << length // 2) + (1 << (length - 1) // 2)


def walk(step):
    return sphere_search(step.matrix, step.quant_metric, lambda_min=step.lambda_min)


def block_with_rows(length, rows, seed):
    """A Hadamard block with its rows and columns permuted and some rows
    negated (still S_H S_H^T = L*I), then ``rows`` random rows."""
    rng = np.random.default_rng(seed)
    block = hadamard_set(length).rows[rng.permutation(length)][:, rng.permutation(length)]
    block = block * rng.choice([-1, 1], size=(length, 1))
    return np.vstack([block, rng.choice([-1, 1], size=(rows, length))])


@pytest.mark.parametrize("length", [1, 2, 4, 8, 16])
def test_hadamard_chain_steps_equal_the_scan(length):
    current = hadamard_set(length)
    for _ in range(length):
        step = analyse_step(current)
        result = step.first_optimum()
        scan = ml_exhaustive(step.matrix)
        assert step.excess is not None
        assert (result.best, result.best_metric) == (scan.best, length * length)
        assert (result.nodes_visited, result.candidates_enumerated, result.ties) == (
            table_rows(length), 1, 1)
        current = extend_set(current, result.best)


def test_h32_steps_equal_the_walk():
    current = hadamard_set(32)
    for _ in range(2):
        step = analyse_step(current)
        result = step.first_optimum()
        walked = walk(step)
        assert (result.best, result.best_metric) == (walked.best, walked.best_metric)
        assert result.best_metric == 1024
        assert result.nodes_visited == table_rows(32) == 98_304
        current = extend_set(current, result.best)


@pytest.mark.parametrize("length", [1, 2, 4, 8, 16, 32])
def test_no_rows_after_the_block(length):
    # m = 0: R = L*I, and the first leaf, all +1, meets the floor.
    step = analyse_step(hadamard_set(length))
    assert step.excess.shape == (0, length)
    result = step.first_optimum()
    assert result.best == Signature((1,) * length)
    assert fields_of(result)[1:] == (length * length, 1, table_rows(length), 1, None)


class TestBlockWithRandomRows:
    CASES = [(length, rows, seed) for length in (4, 8, 16) for rows in (1, 2, 3, 5, 8)
             for seed in range(3)]

    @pytest.mark.parametrize("length,rows,seed", CASES)
    def test_same_answer_as_the_scan(self, length, rows, seed):
        signature_set = SignatureSet.from_rows(block_with_rows(length, rows, seed))
        step = analyse_step(signature_set)
        assert step.excess is not None
        result = step.first_optimum()
        scan = ml_exhaustive(step.matrix)
        assert (result.best, result.best_metric) == (scan.best, scan.best_metric)
        if _completion(step.excess) is None:
            # No s has A s = 0: the walk runs and its result stands.
            assert scan.best_metric > length * length
            assert fields_of(result) == fields_of(walk(step))
        else:
            assert scan.best_metric == length * length
            assert result.nodes_visited == table_rows(length)

    def test_both_outcomes_occur(self):
        found = {
            _completion(analyse_step(SignatureSet.from_rows(block_with_rows(*case))).excess)
            is None
            for case in self.CASES
        }
        assert found == {True, False}

    @pytest.mark.parametrize("length,rows,seed", CASES[::4])
    def test_block_not_first_is_walked(self, length, rows, seed):
        rows = block_with_rows(length, rows, seed)
        moved = SignatureSet.from_rows(np.vstack([rows[length:], rows[:length]]))
        step = analyse_step(moved)
        assert step.excess is None
        assert fields_of(step.first_optimum()) == fields_of(walk(step))


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(repeated_rows(1, 9, max_distinct=4, repeats=(0, 25)))
def test_completion_matches_brute_force(excess):
    # A often has a completion, and often more rows than one key chunk holds.
    assert _completion(excess) == first_completion(excess)


def test_renumbered_keys_across_chunks():
    # 40 copies of rows 0..6 of H8: more rows than one radix-9 key chunk
    # holds (19), and the only completion is -row 7, which ends in +1.
    h8 = hadamard_set(8).rows
    excess = np.tile(h8[:7], (40 // 7 + 1, 1))[:40]
    assert _completion(excess) == Signature(tuple((-h8[7]).tolist()))
    assert _completion(np.vstack([excess, h8[7]])) is None


def test_gate():
    # Not a Hadamard order, K < L, or L above the table cap: no block is
    # looked for.
    assert analyse_step(SignatureSet.from_rows(np.ones((7, 6), dtype=np.int64))).excess is None
    assert analyse_step(SignatureSet(hadamard_set(8)[:7])).excess is None
    big = COMPLETION_MAX_L * 2
    assert analyse_step(hadamard_set(big)).excess is None


def test_wrong_leaf_is_an_internal_consistency_error(monkeypatch):
    signature_set = SignatureSet.from_rows(block_with_rows(8, 1, 0))
    excess = analyse_step(signature_set).excess
    wrong = next(s for s in all_half_space(8) if (excess @ s.as_array()).any())
    monkeypatch.setattr(sigforge.sphere, "_completion", lambda excess: wrong)
    with pytest.raises(InternalConsistencyError, match="orthogonal-start completion"):
        analyse_step(signature_set).first_optimum()
    with pytest.raises(InternalConsistencyError):
        extend_once(signature_set, "sd")


def test_completed_step_runs_no_walk_factor_or_floor(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("called on a completed step")

    step = analyse_step(SignatureSet.from_rows(block_with_rows(16, 2, 1)))
    for name in ("sphere_search", "certified_floor", "cholesky"):
        monkeypatch.setattr(sigforge.sphere, name, forbidden)
    assert step.first_optimum().best_metric == 256

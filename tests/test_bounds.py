"""Welch bound, the binary TSC bound, and the operation-count ceiling."""

import itertools

import numpy as np
import pytest

from sigforge import (
    BoundOverflow,
    BoundValue,
    SignatureSet,
    binary_tsc_bound,
    fp_operation_bound,
    tsc,
    welch_bound,
)


def exhaustive_min_tsc(k, length):
    """The minimum TSC over every binary K x L set. TSC is invariant under
    negating a whole signature and under reordering the signatures, so the
    search runs over multisets of the 2^(L-1) signatures with a +1 leading
    chip. A multiset's TSC is the sum of its Gram entries squared, taken from
    the table of every pair's inner product."""
    half = [[1] + [1 if (bits >> i) & 1 == 0 else -1 for i in range(length - 1)]
            for bits in range(1 << (length - 1))]
    squares = np.array(half) @ np.array(half).T
    squares *= squares
    combos = np.array(list(itertools.combinations_with_replacement(range(len(half)), k)))
    totals = squares[combos[:, :, None], combos[:, None, :]].sum(axis=(1, 2))
    best = int(totals.min())
    assert tsc(SignatureSet.from_rows([half[i] for i in combos[totals.argmin()]])) == best
    return best


class TestWelch:
    def test_square_case(self):
        assert welch_bound(16, 16).value == 4096

    def test_overloaded_case(self):
        assert welch_bound(19, 16).value == 5776

    def test_underloaded_case(self):
        assert welch_bound(4, 8).value == 256

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown bound kind"):
            BoundValue(1, "magic")

    def test_kind_tag(self):
        assert welch_bound(3, 2).kind == "welch"

    def test_formula_on_randoms(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            k = int(rng.integers(1, 50))
            length = int(rng.integers(1, 50))
            assert welch_bound(k, length).value == k * length * max(k, length)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            welch_bound(0, 4)
        with pytest.raises(TypeError):
            welch_bound(4.0, 4)


class TestBinaryBound:
    def test_fallback_without_table(self):
        bound = binary_tsc_bound(19, 16)
        assert bound.value == 5776
        assert bound.kind == "binary_fallback_welch"

    def test_underloaded_is_welch(self):
        assert binary_tsc_bound(4, 8) == welch_bound(4, 8)

    def test_exhaustive_minimum_respects_bound(self):
        # Both regimes: every binary set's TSC is at least the bound, and
        # the kind changes from welch to binary_fallback_welch at K = L.
        sizes = [(k, length) for length in range(1, 5) for k in range(1, 9)]
        for k, length in sizes + [(k, 5) for k in range(1, 6)]:
            bound = binary_tsc_bound(k, length)
            assert bound.value <= exhaustive_min_tsc(k, length)
            assert (bound.kind == "binary_fallback_welch") == (k >= length)

    def test_exhaustive_minimum_oracle(self):
        # Five signatures of length 4 cannot all be orthogonal: 112 > 100.
        assert exhaustive_min_tsc(5, 4) == 112
        assert exhaustive_min_tsc(4, 4) == welch_bound(4, 4).value


class TestFpOperationBound:
    def test_anchor_values(self):
        assert fp_operation_bound(2, 1, 1) == 171.0
        assert fp_operation_bound(1, 1, 1) == 12.0

    def test_zero_radius_is_finite(self):
        value = fp_operation_bound(4, 0.0, 1.0)
        assert value == pytest.approx((1 / 6) * (2 * 64 + 3 * 16 - 20) + (16 + 48 - 7))

    def test_nondecreasing_in_radius_and_scale(self):
        rng = np.random.default_rng(32)
        for _ in range(40):
            dim = int(rng.integers(1, 9))
            c1, c2 = sorted(rng.uniform(0.0, 50.0, size=2))
            t1, t2 = sorted(rng.uniform(0.1, 10.0, size=2))
            assert fp_operation_bound(dim, c1, t1) <= fp_operation_bound(dim, c2, t1)
            assert fp_operation_bound(dim, c1, t1) <= fp_operation_bound(dim, c1, t2)

    def test_overflow_signals_saturated(self):
        with pytest.raises(BoundOverflow):
            fp_operation_bound(2, 1e160, 1e160)  # reach itself overflows
        with pytest.raises(BoundOverflow):
            fp_operation_bound(2, 1e154, 1e154)  # exact value too big for float
        # A modest reach at a large L: the binomial term alone passes 1e308.
        with pytest.raises(BoundOverflow, match="at L=2000"):
            fp_operation_bound(2000, 1000.0, 1.0)

    @pytest.mark.parametrize("radius, scale", [(10**400, 1.0), (1.0, 10**400)],
                             ids=["radius", "scale"])
    def test_integer_argument_beyond_float_range(self, radius, scale):
        with pytest.raises(BoundOverflow, match="at L=2 "):
            fp_operation_bound(2, radius, scale)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fp_operation_bound(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            fp_operation_bound(2, -1.0, 1.0)
        with pytest.raises(ValueError):
            fp_operation_bound(2, 1.0, 0.0)

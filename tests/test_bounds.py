"""Welch bound, binary-bound case table, and the operation-count ceiling."""

import itertools
import json

import numpy as np
import pytest

from sigforge import (
    BoundOverflow,
    BoundValue,
    SignatureSet,
    Underloaded,
    binary_tsc_bound,
    fp_operation_bound,
    load_bound_table,
    tsc,
    welch_bound,
)

# Exhaustive minimum TSC for K=5, L=4, computed below. Any binary set's
# TSC is invariant under negating a whole signature, so signatures can be
# normalized to a +1 leading chip: 8 classes, chosen with repetition.
EXHAUSTIVE_5_4 = None


def exhaustive_min_tsc(k, length):
    half = []
    for bits in range(1 << (length - 1)):
        chips = [1] + [1 if (bits >> i) & 1 == 0 else -1 for i in range(length - 1)]
        half.append(chips)
    best = None
    for combo in itertools.combinations_with_replacement(half, k):
        value = tsc(SignatureSet.from_rows(list(combo)))
        if best is None or value < best:
            best = value
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

    def test_underloaded_rejected(self):
        with pytest.raises(Underloaded):
            binary_tsc_bound(4, 8)

    def test_table_case_used(self, tmp_path):
        # The (5, 4) exhaustive minimum exercises the table path with a
        # value this test computes itself rather than trusts.
        minimum = exhaustive_min_tsc(5, 4)
        assert minimum > welch_bound(5, 4).value  # 112 vs 100
        doc = {
            "schema": "sigforge.bound-table/1",
            "cases": [
                {"k_mod": 5 % 4, "l_mod": 0, "terms": [[minimum, 0, 0]], "achievable": True}
            ],
        }
        path = tmp_path / "table.json"
        path.write_text(json.dumps(doc))
        table = load_bound_table(path)
        bound = binary_tsc_bound(5, 4, table)
        assert bound.value == minimum
        assert bound.kind == "binary_table"
        assert table.case_for(5, 4).achievable

    def test_polynomial_terms_evaluate_in_k_and_l(self, tmp_path):
        # K^2 L term reproduces the Welch bound for K >= L.
        doc = {
            "schema": "sigforge.bound-table/1",
            "cases": [{"k_mod": 1, "l_mod": 0, "terms": [[1, 2, 1]]}],
        }
        path = tmp_path / "table.json"
        path.write_text(json.dumps(doc))
        table = load_bound_table(path)
        assert binary_tsc_bound(5, 4, table).value == 100
        assert binary_tsc_bound(9, 8, table).value == 648

    def test_uncovered_case_falls_back(self, tmp_path):
        doc = {
            "schema": "sigforge.bound-table/1",
            "cases": [{"k_mod": 1, "l_mod": 0, "terms": [[1, 2, 1]]}],
        }
        path = tmp_path / "table.json"
        path.write_text(json.dumps(doc))
        table = load_bound_table(path)
        assert binary_tsc_bound(6, 4, table).kind == "binary_fallback_welch"

    def test_non_integer_case_rejected(self, tmp_path):
        doc = {
            "schema": "sigforge.bound-table/1",
            "cases": [{"k_mod": 1, "l_mod": 0, "terms": [[0.5, 1, 2], [0.5, 0, 0]]}],
        }
        path = tmp_path / "table.json"
        path.write_text(json.dumps(doc))
        table = load_bound_table(path)
        with pytest.raises(ValueError, match="non-integer 81/2"):
            binary_tsc_bound(5, 4, table)

    def test_table_below_welch_rejected(self, tmp_path):
        doc = {
            "schema": "sigforge.bound-table/1",
            "cases": [{"k_mod": 1, "l_mod": 0, "terms": [[1, 0, 0]]}],
        }
        path = tmp_path / "table.json"
        path.write_text(json.dumps(doc))
        table = load_bound_table(path)
        with pytest.raises(ValueError):
            binary_tsc_bound(5, 4, table)

    @pytest.mark.parametrize(
        "doc",
        [
            {"cases": []},
            {"schema": "sigforge.bound-table/1", "cases": "nope"},
            {"schema": "sigforge.bound-table/1", "cases": [{"k_mod": 9, "l_mod": 0, "terms": [[1, 0, 0]]}]},
            {"schema": "sigforge.bound-table/1", "cases": [{"k_mod": 1, "l_mod": 0, "terms": []}]},
            # A case without terms, one that is not an object, and terms
            # that are not [coeff, k_power, l_power] lists.
            {"schema": "sigforge.bound-table/1", "cases": [{"k_mod": 1, "l_mod": 0}]},
            {"schema": "sigforge.bound-table/1", "cases": [5]},
            {"schema": "sigforge.bound-table/1", "cases": [{"k_mod": 1, "l_mod": 0, "terms": [[1, 0]]}]},
            {"schema": "sigforge.bound-table/1", "cases": [{"k_mod": 1, "l_mod": 0, "terms": [7]}]},
            {"schema": "sigforge.bound-table/1", "cases": [{"k_mod": 1, "l_mod": 0, "terms": [[1, -1, 0]]}]},
            {
                "schema": "sigforge.bound-table/1",
                "cases": [
                    {"k_mod": 1, "l_mod": 0, "terms": [[1, 0, 0]]},
                    {"k_mod": 1, "l_mod": 0, "terms": [[2, 0, 0]]},
                ],
            },
            # JSON's Infinity and NaN, and booleans where integers belong.
            {"schema": "sigforge.bound-table/1", "cases": [{"k_mod": 1, "l_mod": 0, "terms": [[float("inf"), 0, 0]]}]},
            {"schema": "sigforge.bound-table/1", "cases": [{"k_mod": 1, "l_mod": 0, "terms": [[float("nan"), 0, 0]]}]},
            {"schema": "sigforge.bound-table/1", "cases": [{"k_mod": True, "l_mod": 0, "terms": [[1, 0, 0]]}]},
            {"schema": "sigforge.bound-table/1", "cases": [{"k_mod": 1, "l_mod": 0, "terms": [[1, True, 0]]}]},
            # achievable is a JSON boolean, not a truthy string or number.
            {"schema": "sigforge.bound-table/1", "cases": [{"k_mod": 1, "l_mod": 0, "terms": [[1, 0, 0]], "achievable": "no"}]},
            {"schema": "sigforge.bound-table/1", "cases": [{"k_mod": 1, "l_mod": 0, "terms": [[1, 0, 0]], "achievable": 1}]},
            # Powers beyond MAX_TERM_POWER: evaluating them runs unbounded.
            {"schema": "sigforge.bound-table/1", "cases": [{"k_mod": 1, "l_mod": 0, "terms": [[1, 1000000000, 0]]}]},
            {"schema": "sigforge.bound-table/1", "cases": [{"k_mod": 1, "l_mod": 0, "terms": [[1, 0, 9]]}]},
        ],
    )
    def test_malformed_tables_rejected(self, tmp_path, doc):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_bound_table(path)

    def test_exhaustive_minimum_respects_bound_small_family(self):
        # All binary sets dominate the configured/fallback bound.
        for length in (2, 4):
            for k in range(length, length + 3):
                minimum = exhaustive_min_tsc(k, length)
                assert minimum >= binary_tsc_bound(k, length).value


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

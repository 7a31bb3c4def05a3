"""Data model and exact TSC accounting."""

import copy
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigforge.sigcore
from sigforge import (
    CorrelationMatrix,
    SetFormatError,
    Signature,
    SignatureSet,
    binary_tsc_bound,
    correlation_matrix,
    extend_set,
    fp_operation_bound,
    hadamard_set,
    load_set,
    quadratic_metric,
    save_set,
    tsc,
    tsc_increment,
    upscale_chain,
    welch_bound,
)


# Each malformed file and its exact message. Line numbers count every line
# of the file, comments and blanks included; the earliest faulty line wins,
# and within a row a wrong entry count is named before a wrong token.
MALFORMED = {
    "x 2\n+1 +1\n": "line 1: header must hold two integers, got 'x 2'",
    "2 2\n+1 +1\n+1\n": "line 3: expected 2 entries, got 1",
    "2 2\n+1 +1\n": "header declares 2 rows, file has 1",
    "1 2\n+1 +1\n+1 -1\n": "header declares 1 rows, file has 2",
    "1 2\n+1 0\n": "line 2: invalid entry '0' (alphabet is '+1'/'-1')",
    "1 2\n1 -1\n": "line 2: invalid entry '1' (alphabet is '+1'/'-1')",  # tokens must be signed
    "": "empty file: missing 'K L' header",
    "2 2 2\n+1 +1\n+1 -1\n": "line 1: header must be 'K L', got '2 2 2'",
    "0 2\n": "line 1: need K >= 1 and L >= 1, got K=0 L=2",
    "1 0\n+1\n": "line 1: need K >= 1 and L >= 1, got K=1 L=0",
    "-1 2\n": "line 1: need K >= 1 and L >= 1, got K=-1 L=2",
    # int() accepts digit separators and non-ASCII digits; the header does not.
    "0_1 4\n+1 -1 +1 -1\n": "line 1: header must hold two integers, got '0_1 4'",
    "١ 4\n+1 -1 +1 -1\n": "line 1: header must hold two integers, got '١ 4'",
    # A bad token on line 3 and a ragged row on line 5: line 3 is named.
    "3 2\n+1 +1\n+1 x\n\n+1 -1 +1\n": "line 3: invalid entry 'x' (alphabet is '+1'/'-1')",
    # Only lines that begin with '#' are comments; a note after chips is not.
    "1 2\n+1 -1 # note\n": "line 2: expected 2 entries, got 4",
    # Comments and blanks before a bad row still count in its line number.
    "# header next\n2 2\n\n# a row\n+1 +1\n+1 +2\n":
        "line 6: invalid entry '+2' (alphabet is '+1'/'-1')",
    # Chips are separated by ASCII whitespace only, and lines end only at LF, CR or CRLF.
    "1 2\n+1\u3000-1\n": "line 2: expected 2 entries, got 1",
    "1 2\n+1\x1f-1\n": "line 2: expected 2 entries, got 1",
    "1 2\n+1 \x1c-1\n": "line 2: invalid entry '\\x1c-1' (alphabet is '+1'/'-1')",
    "1 2\n+1 \u2028-1\n": "line 2: invalid entry '\\u2028-1' (alphabet is '+1'/'-1')",
}


# A count or dimension argument of each function that takes one: a valid
# value, and the call with the argument in that place.
INTEGER_ARGUMENTS = {
    "welch_bound": (5, lambda n: welch_bound(n, 4)),
    "binary_tsc_bound": (5, lambda n: binary_tsc_bound(n, 4)),
    "fp_operation_bound": (2, lambda n: fp_operation_bound(n, 1.0, 1.0)),
    "tsc_increment": (1, lambda n: tsc_increment(0, n, 2)),
    "hadamard_set": (4, hadamard_set),
    "upscale_chain": (6, lambda n: upscale_chain(hadamard_set(4), n).final_set),
}


def random_set(rng, k, length):
    return SignatureSet.from_rows(rng.choice([-1, 1], size=(k, length)).tolist())


class TestIntegerArguments:
    """Counts and dimensions take any integer type but bool, as Python ints."""

    @pytest.mark.parametrize("name", list(INTEGER_ARGUMENTS))
    def test_numpy_integer_acts_as_int(self, name):
        value, call = INTEGER_ARGUMENTS[name]
        expected, got = call(value), call(np.int64(value))
        assert got == expected
        assert type(getattr(got, "value", got)) is type(getattr(expected, "value", expected))

    @pytest.mark.parametrize("bad", [True, 1.5, 5.5])
    @pytest.mark.parametrize("name", list(INTEGER_ARGUMENTS))
    def test_bool_and_float_refused(self, name, bad):
        with pytest.raises(TypeError):
            INTEGER_ARGUMENTS[name][1](bad)


class TestSignature:
    def test_accepts_only_antipodal_chips(self):
        Signature((1, -1, 1))
        for bad in [(0,), (2,), (1, 0, -1), (1.5,)]:
            with pytest.raises((ValueError, TypeError)):
                Signature(bad)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Signature(())

    def test_negate(self):
        s = Signature((1, -1, 1))
        assert tuple(-s) == (-1, 1, -1)
        assert tuple(s) == (1, -1, 1)

    def test_as_array_is_int64(self):
        arr = Signature((1, -1)).as_array()
        assert arr.dtype == np.int64


class TestSignatureSet:
    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            SignatureSet.from_rows([[1, 1], [1, -1, 1]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SignatureSet(signatures=())

    def test_rejects_non_signatures(self):
        with pytest.raises(TypeError, match="expected Signature, got tuple"):
            SignatureSet(((1, -1), (1, 1)))

    def test_indexing(self):
        s = SignatureSet.from_rows([[1, 1, -1], [1, -1, 1], [-1, 1, 1]])
        assert s[1] == Signature((1, -1, 1))
        assert s[-1] == Signature((-1, 1, 1))
        assert s[:2] == s.signatures[:2]

    def test_indexing_builds_only_the_indexed_rows(self, monkeypatch):
        rng = np.random.default_rng(11)
        s = random_set(rng, 28, 18)
        built = []
        validate = Signature.__post_init__

        def counted(self):
            built.append(self)
            validate(self)

        monkeypatch.setattr(Signature, "__post_init__", counted)
        assert s[-1].chips == tuple(s.rows[-1].tolist())
        assert len(built) == 1
        pair = s[1:3]
        assert isinstance(pair, tuple) and len(pair) == 2 and len(built) == 3
        assert [list(sig.chips) for sig in pair] == s.rows[1:3].tolist()

    @pytest.mark.parametrize("key", ["a", 1.0, (0, 1), [0], None])
    def test_non_integer_keys_raise_type_error(self, key):
        s = SignatureSet.from_rows([[1, -1], [1, 1]])
        with pytest.raises(TypeError):
            s[key]
        with pytest.raises(TypeError):
            s.signatures[key]

    @pytest.mark.parametrize("key", [2, -3])
    def test_out_of_range_raises_index_error(self, key):
        s = SignatureSet.from_rows([[1, -1], [1, 1]])
        with pytest.raises(IndexError):
            s[key]
        with pytest.raises(IndexError):
            s.signatures[key]

    def test_shape(self):
        s = SignatureSet.from_rows([[1, 1, -1], [1, -1, 1]])
        assert s.k == 2 and s.length == 3
        assert s.matrix().shape == (2, 3)

    def test_contract_across_construction_paths(self, tmp_path):
        rows = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
        path = tmp_path / "h4.txt"
        path.write_text("4 4\n" + "".join(
            " ".join("+1" if c > 0 else "-1" for c in row) + "\n" for row in rows))
        sets = [
            SignatureSet(tuple(Signature(tuple(row)) for row in rows)),
            SignatureSet.from_rows(rows),
            load_set(path),
            extend_set(SignatureSet.from_rows(rows[:3]), Signature(tuple(rows[3]))),
            hadamard_set(4),
        ]
        for s in sets:
            assert s == sets[0] and hash(s) == hash(sets[0])
            assert s.signatures == tuple(Signature(tuple(row)) for row in rows)
            assert isinstance(s[1:], tuple) and s[1:] == s.signatures[1:]
            assert list(s) == list(s.signatures) and len(s) == s.k == 4
            with pytest.raises(ValueError):
                s.rows[0, 0] = -1
            fresh = s.matrix()
            assert fresh.dtype == np.int64 and fresh.tolist() == rows
            fresh[0, 0] = -1
            assert s.rows[0, 0] == 1
            for clone in (copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
                assert clone == s and not clone.rows.flags.writeable
        assert sets[0] != SignatureSet.from_rows(rows[::-1])
        assert sets[0] != SignatureSet.from_rows(rows[:2])
        one_row = SignatureSet.from_rows([[1, 1, 1, 1]])
        assert one_row != SignatureSet.from_rows([[1, 1], [1, 1]])
        assert sets[0] != rows and sets[0] != correlation_matrix(sets[0])
        assert len({*sets}) == 1
        with pytest.raises(ValueError):
            SignatureSet.from_rows([])
        with pytest.raises(ValueError):
            SignatureSet.from_rows([[1, 1], [1]])
        with pytest.raises(TypeError):
            SignatureSet([sets[0][0], (1, 1, 1, 1)])
        with pytest.raises(TypeError):
            extend_set(sets[0], (1, 1, 1, 1))

    def test_extend_appends(self):
        s = SignatureSet.from_rows([[1, 1]])
        bigger = extend_set(s, Signature((1, -1)))
        assert bigger.k == 2
        assert tuple(bigger.signatures[-1]) == (1, -1)
        with pytest.raises(ValueError):
            extend_set(s, Signature((1, -1, 1)))


class TestTsc:
    def test_hadamard_16_meets_welch(self):
        assert tsc(hadamard_set(16)) == 16 * 16 * 16

    def test_two_identical_signatures(self):
        # Gram entries are all 2: four terms of 4 each.
        s = SignatureSet.from_rows([[1, 1], [1, 1]])
        assert tsc(s) == 16

    def test_matches_python_int_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            s = random_set(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            rows = [list(sig) for sig in s.signatures]
            expected = 0
            for a in rows:
                for b in rows:
                    dot = sum(x * y for x, y in zip(a, b))
                    expected += dot * dot
            assert tsc(s) == expected

    def test_returns_plain_int(self):
        assert isinstance(tsc(hadamard_set(2)), int)

    @given(
        st.integers(1, 12).flatmap(
            lambda length: st.lists(
                st.lists(st.sampled_from([-1, 1]), min_size=length, max_size=length),
                min_size=1,
                max_size=40,
            )
        )
    )
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_equals_frobenius_norm_of_r(self, rows):
        # trace((S S^T)^2) == trace((S^T S)^2) == ||R||_F^2.
        s = SignatureSet.from_rows(rows)
        entries = correlation_matrix(s).entries.tolist()
        assert tsc(s) == sum(r * r for row in entries for r in row)

    def test_equals_gram_form(self):
        # The L x L sum gives the K x K Gram matrix's exact integer, K < L
        # and K = 1 included.
        rng = np.random.default_rng(19)
        shapes = [(1, 1), (1, 9), (3, 12), (12, 3), (27, 18), (40, 40), (40, 1), (300, 200)]
        for k, length in shapes:
            s = random_set(rng, k, length)
            gram = s.rows @ s.rows.T
            assert tsc(s) == int((gram * gram).sum())

    def test_memory_does_not_grow_with_k(self):
        # The K x K Gram matrix alone would be 32 MB here; R is 4 x 4.
        s = random_set(np.random.default_rng(20), 2000, 4)
        tracemalloc.start()
        try:
            value = tsc(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        gram = s.rows @ s.rows.T
        assert value == int((gram * gram).sum())
        assert peak < 1 << 20


class TestGramKernel:
    """S^T S from the float64 product against exact references; seeded sets
    are checked against numpy's int64 product in ``TestTsc`` and
    ``TestCorrelationMatrix``."""

    @pytest.mark.parametrize("length", [512, 1024])
    def test_hadamard_is_scaled_identity(self, length):
        s = hadamard_set(length)
        m = correlation_matrix(s)
        assert m.entries.dtype == np.int64
        assert np.array_equal(m.entries, length * np.eye(length, dtype=np.int64))
        assert m.abs_sum == length * length
        assert tsc(s) == length**3

    def test_all_equal_rows_reach_k(self):
        # Every |R_ij| is K, the largest magnitude a partial sum can reach.
        k = 5000
        s = SignatureSet._trusted(np.tile(np.array([[1, -1, -1, 1]]), (k, 1)))
        entries = correlation_matrix(s).entries
        assert np.array_equal(np.abs(entries), np.full((4, 4), k))
        assert tsc(s) == 16 * k * k


class TestCorrelationMatrix:
    def test_diagonal_counts_signatures(self):
        rng = np.random.default_rng(3)
        s = random_set(rng, 7, 5)
        m = correlation_matrix(s)
        assert m.dim == 5 and m.k == 7
        assert np.all(np.diag(m.entries) == 7)
        assert np.array_equal(m.entries, m.entries.T)

    def test_equals_sum_of_outer_products(self):
        rng = np.random.default_rng(4)
        s = random_set(rng, 6, 4)
        total = np.zeros((4, 4), dtype=np.int64)
        for sig in s.signatures:
            v = sig.as_array()
            total += np.outer(v, v)
        assert np.array_equal(correlation_matrix(s).entries, total)

    def test_validation(self):
        with pytest.raises(ValueError):
            CorrelationMatrix(entries=np.array([[1, 2], [3, 1]]))  # not symmetric
        with pytest.raises(ValueError):
            CorrelationMatrix(entries=np.array([[1, 0], [0, 2]]))  # diag not constant
        for bad in (np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                CorrelationMatrix(entries=np.array([[bad]]))
        # Object arrays: Python ints stay exact for the int64 guard, other
        # numbers take the float checks; none escapes as a TypeError.
        huge = np.array([[2**70]])
        assert huge.dtype == object
        with pytest.raises(ValueError, match="not below"):
            CorrelationMatrix(entries=huge)
        with pytest.raises(ValueError, match="integers"):
            CorrelationMatrix(entries=np.array([[1.5]], dtype=object))
        small = CorrelationMatrix(entries=np.array([[3, -1], [-1, 3]], dtype=object))
        assert small.entries.dtype == np.int64
        assert small.entries.tolist() == [[3, -1], [-1, 3]]
        assert small.abs_sum == 8

    @pytest.mark.parametrize(
        "entries",
        [np.ones((2, 3), dtype=np.int64), np.ones(3, dtype=np.int64), np.zeros((0, 0), dtype=np.int64)],
    )
    def test_rejects_non_square_or_empty(self, entries):
        with pytest.raises(ValueError, match="square and non-empty"):
            CorrelationMatrix(entries=entries)

    @pytest.mark.parametrize("bad", ["1", None, 1j])
    def test_rejects_non_real_object_entries(self, bad):
        with pytest.raises(ValueError, match="real numbers"):
            CorrelationMatrix(entries=np.array([[1, bad], [bad, 1]], dtype=object))

    def test_integral_floats_accepted_and_rounded(self):
        for entries in (np.array([[3.0, -1.0], [-1.0, 3.0]]),
                        np.array([[3.0, -1], [-1, 3.0]], dtype=object)):
            m = CorrelationMatrix(entries=entries)
            assert m.entries.dtype == np.int64
            assert m.entries.tolist() == [[3, -1], [-1, 3]]
            assert m.k == 3 and m.abs_sum == 8

    def test_equality(self):
        m = correlation_matrix(hadamard_set(4))
        assert m == CorrelationMatrix(entries=4 * np.eye(4, dtype=np.int64))
        assert m != CorrelationMatrix(entries=2 * np.eye(4, dtype=np.int64))
        assert m != correlation_matrix(hadamard_set(2))
        assert (m == m.entries.tolist()) is False  # not a CorrelationMatrix
        assert m.__eq__(m.entries) is NotImplemented

    def test_entries_read_only(self):
        m = correlation_matrix(hadamard_set(4))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 99
        m = correlation_matrix(random_set(np.random.default_rng(12), 5, 7))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 99

    def test_built_without_validation(self, monkeypatch):
        validations = []
        validate = CorrelationMatrix.__post_init__

        def counted(self):
            validations.append(self)
            validate(self)

        monkeypatch.setattr(CorrelationMatrix, "__post_init__", counted)
        correlation_matrix(random_set(np.random.default_rng(13), 27, 18))
        assert validations == []

    @pytest.mark.parametrize(
        "k, length", [(1, 1), (1, 9), (3, 8), (7, 12), (27, 18), (40, 5), (40, 1), (300, 200)]
    )
    def test_equals_the_validated_matrix(self, k, length):
        rng = np.random.default_rng(k * 100 + length)
        s = random_set(rng, k, length)
        built = correlation_matrix(s)
        checked = CorrelationMatrix(s.rows.T @ s.rows)
        assert built.entries.dtype == np.int64
        assert np.array_equal(built.entries, checked.entries)
        assert built.abs_sum == checked.abs_sum
        assert built.k == k and built.dim == length

    def test_validated_at_the_int64_bound(self, monkeypatch):
        # sum |R_ij| = 16 for Hadamard 4: at a limit of 64 the exact sum
        # passes; at 16 it is refused, with the constructor's message.
        h4 = hadamard_set(4)
        monkeypatch.setattr(sigforge.sigcore, "INT64_LIMIT", 64)
        assert correlation_matrix(h4).abs_sum == 16
        monkeypatch.setattr(sigforge.sigcore, "INT64_LIMIT", 16)
        with pytest.raises(ValueError, match=r"sum \|R_ij\| = 16 is not below 16"):
            correlation_matrix(h4)

    def test_built_without_validation_at_the_int64_bound(self, monkeypatch):
        validations = []
        validate = CorrelationMatrix.__post_init__

        def counted(self):
            validations.append(self)
            validate(self)

        monkeypatch.setattr(CorrelationMatrix, "__post_init__", counted)
        h4 = hadamard_set(4)
        monkeypatch.setattr(sigforge.sigcore, "INT64_LIMIT", 64)
        assert correlation_matrix(h4).abs_sum == 16
        assert validations == []
        monkeypatch.setattr(sigforge.sigcore, "INT64_LIMIT", 16)
        message = r"^sum \|R_ij\| = 16 is not below 16, the bound for exact int64 metrics$"
        with pytest.raises(ValueError, match=message):
            correlation_matrix(h4)
        assert validations == []
        with pytest.raises(ValueError, match=message):
            CorrelationMatrix(h4.rows.T @ h4.rows)


class TestQuadraticMetric:
    def test_identity_kernel(self):
        m = correlation_matrix(hadamard_set(4))  # 4I
        assert quadratic_metric(m, Signature((1, -1, 1, -1))) == 16

    def test_dimension_mismatch(self):
        m = correlation_matrix(hadamard_set(4))
        with pytest.raises(ValueError):
            quadratic_metric(m, Signature((1, -1)))

    def test_sign_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = random_set(rng, 6, 5)
            m = correlation_matrix(s)
            sig = Signature(tuple(rng.choice([-1, 1], size=5).tolist()))
            assert quadratic_metric(m, sig) == quadratic_metric(m, -sig)

    @given(
        st.integers(1, 12).flatmap(
            lambda length: st.tuples(
                st.lists(
                    st.lists(st.sampled_from([-1, 1]), min_size=length, max_size=length),
                    min_size=1,
                    max_size=40,
                ),
                st.lists(st.sampled_from([-1, 1]), min_size=length, max_size=length),
            )
        )
    )
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_rescoring_identity(self, case):
        # s^T R s == ||S s||^2 makes the metric the TSC increment's cross
        # term, and its sign symmetry justifies pinning s_L = +1.
        rows, chips = case
        m = correlation_matrix(SignatureSet.from_rows(rows))
        sig = Signature(tuple(chips))
        projections = np.array(rows, dtype=np.int64) @ np.array(chips, dtype=np.int64)
        metric = quadratic_metric(m, sig)
        assert metric == int((projections * projections).sum())
        assert metric == quadratic_metric(m, -sig)


class TestInt64Range:
    """R and the TSC are refused beyond the range where int64 stays exact."""

    def test_matrix_at_the_limit_refused(self):
        # sum |R_ij| = 4 * 2^61 = 2^63; quadratic_metric used to wrap to -2^63.
        with pytest.raises(ValueError, match="not below 9223372036854775808"):
            CorrelationMatrix(np.eye(4, dtype=np.int64) << 61)

    def test_matrix_below_the_limit_scores_exactly(self):
        m = CorrelationMatrix(np.eye(4, dtype=np.int64) * ((1 << 61) - 1))
        assert quadratic_metric(m, Signature((1, 1, 1, 1))) == (1 << 63) - 4

    def test_magnitude_summed_without_wrapping(self):
        # sum |R_ij| = 2^63 in both; an int64 sum wraps to -2^63 on the
        # first, and a sum without abs gives 0 on the second.
        with pytest.raises(ValueError):
            CorrelationMatrix(np.eye(2, dtype=np.int64) << 62)
        entries = np.full((2, 2), -(1 << 61), dtype=np.int64)
        np.fill_diagonal(entries, 1 << 61)
        with pytest.raises(ValueError):
            CorrelationMatrix(entries)

    def test_tsc_range_enforced(self, monkeypatch):
        h4 = hadamard_set(4)  # (K*L)^2 = 256, tsc 64
        monkeypatch.setattr(sigforge.sigcore, "INT64_LIMIT", 257)
        assert tsc(h4) == 64
        monkeypatch.setattr(sigforge.sigcore, "INT64_LIMIT", 256)
        with pytest.raises(ValueError, match=r"\(K\*L\)\^2 = 256"):
            tsc(h4)


class TestTscRecursion:
    def test_increment_matches_recount(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            length = int(rng.integers(1, 10))
            k = int(rng.integers(1, 12))
            s = random_set(rng, k, length)
            extra = Signature(tuple(rng.choice([-1, 1], size=length).tolist()))
            metric = quadratic_metric(correlation_matrix(s), extra)
            assert tsc(extend_set(s, extra)) == tsc_increment(tsc(s), metric, length)

    def test_rejects_negative_metric(self):
        with pytest.raises(ValueError):
            tsc_increment(10, -1, 4)

    def test_rejects_empty_length(self):
        with pytest.raises(ValueError, match="length must be >= 1"):
            tsc_increment(10, 1, 0)


class TestHadamard:
    def test_orthogonal_columns(self):
        for length in (1, 2, 4, 8, 16, 32):
            h = hadamard_set(length)
            gram = h.matrix() @ h.matrix().T
            assert np.array_equal(gram, length * np.eye(length, dtype=np.int64))

    def test_rejects_non_power_of_two(self):
        for bad in (0, 3, 6, 12, -4):
            with pytest.raises(ValueError):
                hadamard_set(bad)


class TestSetFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        s = random_set(rng, 9, 6)
        path = tmp_path / "set.txt"
        save_set(s, path)
        assert load_set(path) == s

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "set.txt"
        path.write_text("# a comment\n\n2 2\n+1 +1\n\n+1 -1\n")
        loaded = load_set(path)
        assert loaded.k == 2 and loaded.length == 2

    @pytest.mark.parametrize("text", list(MALFORMED))
    def test_malformed_files_never_load(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SetFormatError) as excinfo:
            load_set(path)
        assert str(excinfo.value) == MALFORMED[text]

"""The contract of sigforge's record classes: constructor parameters,
read-only attributes, equality and hashing, and copies and pickles."""

import copy
import inspect
import pickle

import numpy as np
import pytest

from sigforge import (
    BoundTable,
    BoundValue,
    ChainReport,
    CholeskyFactor,
    CompareEntry,
    CompareReport,
    CompareRow,
    CorrelationMatrix,
    EigenPair,
    ExtensionRecord,
    SearchResult,
    Signature,
    SignatureSet,
    StepAnalysis,
    compare_methods,
    correlation_matrix,
    extend_once,
    hadamard_set,
    min_eigenpair,
    sphere_search,
    upscale_chain,
    welch_bound,
)
from sigforge.bounds import _Case
from sigforge.sphere import analyse_step

NO_DEFAULT = inspect.Parameter.empty

# Constructor parameters and their defaults, in order.
PARAMETERS = {
    BoundValue: [("value", NO_DEFAULT), ("kind", NO_DEFAULT)],
    _Case: [("terms", NO_DEFAULT), ("achievable", NO_DEFAULT)],
    BoundTable: [("cases", NO_DEFAULT)],
    Signature: [("chips", NO_DEFAULT)],
    SignatureSet: [("signatures", NO_DEFAULT)],
    CorrelationMatrix: [("entries", NO_DEFAULT)],
    CholeskyFactor: [("entries", NO_DEFAULT), ("jitter", 0.0)],
    EigenPair: [("value", NO_DEFAULT), ("vector", NO_DEFAULT)],
    StepAnalysis: [
        ("matrix", NO_DEFAULT), ("lambda_min", NO_DEFAULT), ("quantized", NO_DEFAULT),
        ("quant_metric", NO_DEFAULT), ("jitter_applied", NO_DEFAULT), ("fp_bound", NO_DEFAULT),
    ],
    SearchResult: [
        ("best", NO_DEFAULT), ("best_metric", NO_DEFAULT), ("candidates_enumerated", NO_DEFAULT),
        ("nodes_visited", NO_DEFAULT), ("ties", NO_DEFAULT), ("candidates", None),
    ],
    ExtensionRecord: [
        ("k_before", NO_DEFAULT), ("length", NO_DEFAULT), ("tsc_before", NO_DEFAULT),
        ("tsc_after", NO_DEFAULT), ("method", NO_DEFAULT), ("metric", NO_DEFAULT),
        ("radius_c", NO_DEFAULT), ("lambda_min", NO_DEFAULT), ("nodes_visited", NO_DEFAULT),
        ("candidates_enumerated", NO_DEFAULT), ("fp_bound", NO_DEFAULT),
        ("jitter_applied", NO_DEFAULT), ("audit_agreement", None),
    ],
    ChainReport: [("records", NO_DEFAULT), ("final_set", NO_DEFAULT)],
    CompareRow: [
        ("k_after", NO_DEFAULT), ("length", NO_DEFAULT), ("tsc_before", NO_DEFAULT),
        ("tsc_quant", NO_DEFAULT), ("tsc_descent", NO_DEFAULT), ("tsc_sd", NO_DEFAULT),
        ("tsc_ml", NO_DEFAULT),
    ],
    CompareEntry: [("path", NO_DEFAULT), ("error", None), ("row", None)],
    CompareReport: [("entries", NO_DEFAULT)],
}

OVERLOADED = ((1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1), (1, 1, 1, -1))


def overloaded_set():
    return SignatureSet(Signature(row) for row in OVERLOADED)


def compare_entry(path):
    return CompareEntry(path, row=compare_methods(overloaded_set()))


def fixed_radius_walk(signature_set):
    step = analyse_step(signature_set)
    return sphere_search(step.matrix, step.quant_metric)  # keeps its candidates


# Each class builds two distinct instances from the same values and, for
# the classes equal by value, one with other values.
BUILD = {
    BoundValue: (lambda: BoundValue(12, "welch"), lambda: BoundValue(13, "welch")),
    _Case: (lambda: _Case(((1, 1, 2),), False), lambda: _Case(((1, 1, 2),), True)),
    BoundTable: (
        lambda: BoundTable({(0, 0): _Case(((1, 1, 2),), False)}),
        lambda: BoundTable({}),
    ),
    Signature: (lambda: Signature((1, -1, 1)), lambda: Signature((1, 1, 1))),
    SignatureSet: (overloaded_set, lambda: hadamard_set(4)),
    CorrelationMatrix: (
        lambda: correlation_matrix(overloaded_set()),
        lambda: correlation_matrix(hadamard_set(4)),
    ),
    CholeskyFactor: (lambda: CholeskyFactor(np.eye(3), 0.5), None),
    EigenPair: (lambda: min_eigenpair(correlation_matrix(overloaded_set())), None),
    StepAnalysis: (lambda: analyse_step(overloaded_set()), None),
    SearchResult: (lambda: fixed_radius_walk(overloaded_set()), None),
    ExtensionRecord: (
        lambda: extend_once(overloaded_set(), "sd")[1],
        lambda: extend_once(overloaded_set(), "quant")[1],
    ),
    ChainReport: (
        lambda: upscale_chain(hadamard_set(4), 6),
        lambda: upscale_chain(hadamard_set(4), 5),
    ),
    CompareRow: (lambda: compare_methods(overloaded_set()), lambda: compare_methods(hadamard_set(4))),
    CompareEntry: (lambda: compare_entry("a.txt"), lambda: CompareEntry("a.txt", error="bad")),
    CompareReport: (
        lambda: CompareReport((compare_entry("a.txt"),)),
        lambda: CompareReport(()),
    ),
}

# Equal by value and hashed over the fields (BoundTable's dict field makes
# its hash raise, as hashing that dict would).
VALUE_EQUAL = {
    BoundValue, _Case, BoundTable, Signature, ExtensionRecord, ChainReport,
    CompareRow, CompareEntry, CompareReport,
}
IDENTITY_EQUAL = {CholeskyFactor, EigenPair, StepAnalysis, SearchResult}

CLASSES = list(PARAMETERS)


def same_fields(a, b):
    for name, _ in PARAMETERS[type(a)]:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y)
        else:
            assert x == y


def assert_read_only(obj):
    for name, _ in PARAMETERS[type(obj)]:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1


def test_every_class_is_covered():
    assert set(PARAMETERS) == set(BUILD) == VALUE_EQUAL | IDENTITY_EQUAL | {
        SignatureSet, CorrelationMatrix,
    }
    assert len(CLASSES) == 15


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_constructor_parameters(cls):
    parameters = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in parameters] == PARAMETERS[cls]
    assert {p.kind for p in parameters} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_attributes_are_read_only(cls):
    assert_read_only(BUILD[cls][0]())


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_and_hashing(cls):
    build, build_other = BUILD[cls]
    a, b = build(), build()
    assert a is not b and a == a
    assert a != object() and not a == object()
    if cls in IDENTITY_EQUAL:
        assert a != b and len({a, b}) == 2
        same_fields(a, b)
        return
    assert a == b and not a != b
    assert a != build_other()
    if cls is CorrelationMatrix or cls is BoundTable:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) and len({a, b}) == 1


def test_records_store_no_derived_field():
    # The bounds after a step follow from K + 1 and L, a compare entry's bound
    # and gaps from its row, a chain's method and start from its first step,
    # and the radius is the caller's own argument: a step's exact metric.
    assert CompareEntry.__slots__ == ("path", "error", "row")
    assert ChainReport.__slots__ == ("records", "final_set")
    assert "radius_c" not in SearchResult.__slots__
    assert not hasattr(StepAnalysis, "radius")
    for cls, names in (
        (ExtensionRecord, ("welch_after", "binary_bound_after")),
        (ChainReport, ("method", "initial_k", "initial_length")),
    ):
        for name in names:
            assert name not in cls.__slots__
            assert isinstance(getattr(cls, name), property)
    record = BUILD[ExtensionRecord][0]()
    assert record.welch_after == welch_bound(record.k_after, record.length)
    report = BUILD[ChainReport][0]()
    first = report.records[0]
    assert (report.method, report.initial_k, report.initial_length) == (
        first.method, first.k_before, first.length
    )


def test_equality_is_per_class():
    assert BoundValue(12, "welch") != BoundTable({})
    assert CompareReport(()) != ((),)
    assert Signature((1, -1)) != (1, -1)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_copy_and_pickle(cls):
    original = BUILD[cls][0]()
    for clone in (copy.copy(original), copy.deepcopy(original), pickle.loads(pickle.dumps(original))):
        assert type(clone) is cls and clone is not original
        same_fields(clone, original)
        if cls not in IDENTITY_EQUAL:
            assert clone == original
        assert_read_only(clone)


def test_correlation_matrix_copy_keeps_abs_sum_out_of_the_constructor():
    matrix = correlation_matrix(overloaded_set())
    for clone in (copy.copy(matrix), copy.deepcopy(matrix), pickle.loads(pickle.dumps(matrix))):
        assert clone.abs_sum == matrix.abs_sum
    wide = copy.copy(matrix)
    object.__setattr__(wide, "abs_sum", 1 << 53)
    assert wide.abs_sum == 1 << 53 and matrix.abs_sum != 1 << 53
    with pytest.raises(TypeError):
        CorrelationMatrix(matrix.entries, matrix.abs_sum)


@pytest.mark.parametrize("cls", [SignatureSet, CorrelationMatrix, CholeskyFactor, EigenPair])
def test_copies_hold_read_only_arrays(cls):
    # A copy or an unpickled record is rebuilt by Record._trusted, which
    # makes its array read-only again.
    original = BUILD[cls][0]()
    for clone in (copy.copy(original), copy.deepcopy(original), pickle.loads(pickle.dumps(original))):
        arrays = [getattr(clone, name) for name in cls.__slots__]
        arrays = [a for a in arrays if isinstance(a, np.ndarray)]
        assert len(arrays) == 1 and not arrays[0].flags.writeable


@pytest.mark.parametrize("cls", [SignatureSet, CorrelationMatrix])
def test_copies_are_built_without_validation(cls, monkeypatch):
    original = BUILD[cls][0]()
    validations = []
    validate = cls.__post_init__

    def counted(self):
        validations.append(self)
        validate(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    clones = copy.copy(original), copy.deepcopy(original), pickle.loads(pickle.dumps(original))
    assert validations == []
    assert all(clone == original for clone in clones)

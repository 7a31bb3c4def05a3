"""The package API: every exported name resolves, so ``from sigforge.x
import *`` never fails, and ``sigforge.__all__`` is exactly the module
``__all__`` lists, each name once."""

import importlib
import pkgutil
import sys

import pytest

import sigforge

MODULES = ["sigforge"] + [
    f"sigforge.{info.name}" for info in pkgutil.iter_modules(sigforge.__path__)
]

EXPORTED = [
    "__version__",
    "Signature", "SignatureSet", "CorrelationMatrix", "SetFormatError",
    "InternalConsistencyError", "tsc",
    "correlation_matrix", "quadratic_metric", "tsc_increment", "extend_set",
    "hadamard_set", "load_set", "save_set",
    "CholeskyFactor", "EigenPair", "SingularMatrix", "EigenFailure", "cholesky",
    "min_eigenpair", "quantize_sign",
    "BoundValue", "BoundOverflow", "welch_bound", "binary_tsc_bound", "fp_operation_bound",
    "SearchResult", "StepAnalysis", "EmptySphere", "CapExceeded", "radius_squared",
    "certified_floor", "sphere_search", "ml_exhaustive", "local_descent_baseline",
    "analyse_step",
    "ExtensionRecord", "ChainReport", "CompareRow", "CompareEntry", "CompareReport",
    "extend_once", "upscale_chain", "compare_methods", "one_shot_experiment", "emit_report",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_are_pinned():
    assert sigforge.__all__ == EXPORTED
    assert len(EXPORTED) == 46


@pytest.mark.parametrize("name", EXPORTED[1:])
def test_export_is_its_defining_modules_object(name):
    exported = getattr(sigforge, name)
    assert exported.__module__.startswith("sigforge.")
    assert getattr(sys.modules[exported.__module__], name) is exported


def test_module_lists_name_each_export_once():
    listed = [
        name
        for module in MODULES[1:]
        for name in getattr(importlib.import_module(module), "__all__", ())
    ]
    assert sorted(listed) == sorted(EXPORTED[1:])


@pytest.mark.parametrize(
    "name", [name for name in sigforge.__all__ if isinstance(getattr(sigforge, name), type)
             and issubclass(getattr(sigforge, name), BaseException)]
)
def test_exception_belongs_to_one_exit_code_family(name):
    # ValueError exits 2 and InternalConsistencyError exits 3; the CLI reads
    # the code off the class, so each exported exception sits in exactly one.
    cls = getattr(sigforge, name)
    assert issubclass(cls, ValueError) != issubclass(cls, sigforge.InternalConsistencyError)

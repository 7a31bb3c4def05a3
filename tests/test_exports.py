"""Every exported name resolves, so ``from sigforge.x import *`` never fails."""

import importlib
import pkgutil

import pytest

import sigforge

MODULES = ["sigforge"] + [
    f"sigforge.{info.name}" for info in pkgutil.iter_modules(sigforge.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []

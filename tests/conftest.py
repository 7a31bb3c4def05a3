"""Shared pytest wiring: the acceptance verdict summary, a wrong scan and the
reference chain.

The acceptance tests register one PASS/FAIL line per criterion; replaying
them from pytest_terminal_summary keeps the lines out of per-test capture,
so every run log ends with the full verdict list.
"""

import contextlib

import pytest

import sigforge.harness
from sigforge import hadamard_set, upscale_chain

_VERDICTS = pytest.StashKey[list]()


def pytest_configure(config):
    config.stash[_VERDICTS] = []


@pytest.fixture
def criterion(request):
    """Context-manager factory: records '<name>: PASS|FAIL' for the summary."""
    lines = request.config.stash[_VERDICTS]

    @contextlib.contextmanager
    def guard(name):
        try:
            yield
        except BaseException:
            lines.append(f"{name}: FAIL")
            raise
        lines.append(f"{name}: PASS")

    return guard


@pytest.fixture
def wrong_scan(monkeypatch):
    """An exhaustive scan, as the harness calls it, that reports one more
    than the true minimum."""
    scan = sigforge.harness.ml_exhaustive

    def off_by_one(matrix):
        result = scan(matrix)
        fields = {name: getattr(result, name) for name in result.__slots__}
        return type(result)(**dict(fields, best_metric=result.best_metric + 1))

    monkeypatch.setattr(sigforge.harness, "ml_exhaustive", off_by_one)


@pytest.fixture(scope="session")
def reference_chain():
    """The Hadamard 16 -> 32 ``sd`` chain, audited as every L = 16 step is, run
    once for every test that reads it."""
    return upscale_chain(hadamard_set(16), 32, "sd")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = config.stash.get(_VERDICTS, [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.line(line)

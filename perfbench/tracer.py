"""Span tracing of sigforge's public functions, installed from outside.

``harness``, ``sphere`` and ``cli`` bind these functions with
``from .x import y``, so each wrapper replaces the name in every sigforge
module namespace that holds the original, and ``uninstall`` puts every one
back. Spans (name, start, end, parent) stay in memory until ``write``.
Leaf re-scoring (``quadratic_metric`` called directly by ``sphere_search``)
runs once per leaf, so it is aggregated as a count and a total instead of
one span per call; its time still counts as child time of the walk.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field

# (module, function) pairs wrapped, by layer. A name missing from the
# package (renamed or deleted by a later change) is skipped and reported.
TRACED = (
    ("sigcore", "quadratic_metric"),
    ("sigcore", "correlation_matrix"),
    ("sigcore", "tsc"),
    ("sigcore", "load_set"),
    ("sigcore", "save_set"),
    ("linalg", "min_eigenpair"),
    ("linalg", "cholesky"),
    ("sphere", "sphere_search"),
    ("sphere", "ml_exhaustive"),
    ("sphere", "extend_optimal"),
    ("sphere", "local_descent_baseline"),
    ("bounds", "welch_bound"),
    ("bounds", "binary_tsc_bound"),
    ("bounds", "fp_operation_bound"),
    ("harness", "extend_once"),
    ("harness", "upscale_chain"),
    ("harness", "compare_methods"),
    ("harness", "one_shot_experiment"),
    ("harness", "emit_report"),
    ("cli", "main"),
)

PACKAGE = "sigforge"
_LEAF = "sigcore.quadratic_metric"
_WALK = "sphere.sphere_search"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    group: str | None
    end: float = 0.0
    child_s: float = 0.0
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    """Collects spans and counters; use as a context manager."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)
    group: str | None = None
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        for module_name, _ in TRACED:
            importlib.import_module(f"{PACKAGE}.{module_name}")
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], func_name, None)
            if original is None:
                self.missing.append(f"{module_name}.{func_name}")
                continue
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for holder in modules:
                if vars(holder).get(func_name) is original:
                    setattr(holder, func_name, wrapper)
                    self._patches.append((holder, func_name, original))

    def uninstall(self) -> None:
        while self._patches:
            holder, func_name, original = self._patches.pop()
            setattr(holder, func_name, original)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, name: str, original):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if name == _LEAF and parent is not None and parent.name == _WALK:
                start = clock()
                result = original(*args, **kwargs)
                elapsed = clock() - start
                parent.child_s += elapsed
                self.count("sigcore.rescore.calls")
                self.count("sigcore.rescore_s", elapsed)
                return result
            span = Span(len(self.spans), parent.id if parent else None, name, clock(), self.group)
            self.spans.append(span)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
            self._observe(name, result)
            return result

        return wrapper

    def _observe(self, name: str, result) -> None:
        """Work counters read from the returned objects."""
        if name == _WALK:
            self.count("sphere.nodes", getattr(result, "nodes_visited", 0))
            self.count("sphere.leaves", getattr(result, "candidates_enumerated", 0))
            self.count("sphere.ties", getattr(result, "ties", 0))
        elif name == "sphere.ml_exhaustive":
            self.count("sphere.scan_points", getattr(result, "candidates_enumerated", 0))
        elif name == "sphere.local_descent_baseline":
            self.count("sphere.descent_evals", getattr(result, "nodes_visited", 0))
        elif name == "linalg.cholesky":
            self.count("linalg.cholesky.jitter_retries", int(getattr(result, "jitter", 0.0) > 0.0))
        elif name == "harness.extend_once":
            self.count("harness.steps")

    def totals(self, group: str | None = None) -> dict:
        """Per-function call counts and self seconds, optionally for one group."""
        out: dict = {}
        for span in self.spans:
            if group is not None and span.group != group:
                continue
            calls, self_s = out.get(span.name, (0, 0.0))
            out[span.name] = (calls + 1, self_s + span.self_s)
        return out

    def write(self, path) -> None:
        """One JSON object per span, then one with the aggregated counters."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.id, "parent": span.parent, "name": span.name,
                    "start": span.start, "end": span.end, "self_s": span.self_s,
                    "group": span.group, "error": span.error,
                }) + "\n")
            handle.write(json.dumps({"counters": self.counts, "missing": self.missing}) + "\n")

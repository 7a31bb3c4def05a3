"""Experiment orchestration: single extensions with full diagnostics,
consecutive upscaling chains, four-way method comparisons, and deterministic
JSON/CSV report serialization.

Method tags: "sd" (sphere search, optimal), "ml" (exhaustive scan, optimal),
"quant" (sign-quantized minimum eigenvector, no search), "descent" (bit-flip
descent from the quantized point, a labeled stand-in baseline; it serializes
as "descent(stand-in)" so nobody mistakes it for an optimal method or for
any published heuristic).

Audit mode runs the sphere search and the exhaustive scan side by side and
demands identical metrics; a mismatch is an internal-consistency failure,
never a tolerable discrepancy. It is always on for L <= 16, where the scan
costs nothing; the ``audit`` argument can only force it on above that.
"""

from __future__ import annotations

import io
import json

from .bounds import BoundOverflow, BoundValue, binary_tsc_bound, fp_operation_bound, welch_bound
from .linalg import cholesky
from .sigcore import (InternalConsistencyError, Record, SignatureSet, _integer, extend_set,
                      load_set, tsc, tsc_increment)
from .sphere import (
    SearchResult,
    StepAnalysis,
    analyse_step,
    local_descent_baseline,
    ml_exhaustive,
)

__all__ = [
    "ExtensionRecord",
    "ChainReport",
    "CompareRow",
    "CompareEntry",
    "CompareReport",
    "extend_once",
    "upscale_chain",
    "compare_methods",
    "one_shot_experiment",
    "emit_report",
]

METHODS = ("sd", "ml", "quant", "descent")
_METHOD_LABELS = dict(zip(METHODS, METHODS), descent="descent(stand-in)")

AUDIT_AUTO_MAX_L = 16
REPORT_SCHEMA = "sigforge.report/1"
# Bad input or a limit hit: every refusal sigforge raises is a ValueError, and a
# file may be unreadable or the set's size need memory it cannot get. The CLI
# exits 2 on these, and a compare batch records them in that file's entry.
INPUT_ERRORS = (ValueError, OSError, MemoryError)


def _error_text(exc: BaseException) -> str:
    return str(exc) or type(exc).__name__  # a failed allocation has no message


class ExtensionRecord(Record):
    """Everything observable about one K -> K+1 extension."""

    __slots__ = ("k_before", "length", "tsc_before", "tsc_after", "method", "metric", "radius_c",
                 "lambda_min", "nodes_visited", "candidates_enumerated", "fp_bound",
                 "jitter_applied", "audit_agreement")

    def __init__(self, k_before: int, length: int, tsc_before: int, tsc_after: int,
                 method: str, metric: int, radius_c: float, lambda_min: float,
                 nodes_visited: int, candidates_enumerated: int, fp_bound: float | None,
                 jitter_applied: bool,
                 audit_agreement: bool | None = None):  # True: sd and ml agreed; None: unaudited
        super().__init__(k_before, length, tsc_before, tsc_after, method, metric, radius_c,
                         lambda_min, nodes_visited, candidates_enumerated, fp_bound,
                         jitter_applied, audit_agreement)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")
        if self.audit_agreement is not True and self.audit_agreement is not None:
            raise ValueError(
                f"audit_agreement must be True or None, got {self.audit_agreement!r}"
            )
        expected = tsc_increment(self.tsc_before, self.metric, self.length)
        if self.tsc_after != expected:
            raise InternalConsistencyError(
                f"tsc_after {self.tsc_after} breaks the recursion "
                f"(expected {expected})"
            )
        if self.tsc_after < self.welch_after.value:
            raise InternalConsistencyError(
                f"tsc_after {self.tsc_after} below the Welch bound "
                f"{self.welch_after.value}"
            )

    @property
    def k_after(self) -> int:
        return self.k_before + 1

    welch_after = property(lambda self: welch_bound(self.k_after, self.length))
    binary_bound_after = property(lambda self: binary_tsc_bound(self.k_after, self.length))


class ChainReport(Record):
    """Consecutive one-by-one extensions from a fixed initial set; the
    method and the initial set's K and L are those of the first step."""

    __slots__ = ("records", "final_set")

    def __init__(self, records: tuple, final_set: SignatureSet):
        super().__init__(records, final_set)

    def __post_init__(self):
        if not self.records:
            raise ValueError("a chain report needs at least one step")
        for previous, record in zip(self.records, self.records[1:]):
            end = (previous.k_after, previous.tsc_after, previous.method, previous.length)
            if (record.k_before, record.tsc_before, record.method, record.length) != end:
                raise InternalConsistencyError(
                    f"chain break at K={record.k_before}: the step does not continue "
                    f"the previous one's (K, TSC, method, L) = {end}"
                )
        last = self.records[-1]
        if (self.final_set.k, self.final_set.length) != (last.k_after, last.length):
            raise InternalConsistencyError(
                f"final set at K={self.final_set.k}, L={self.final_set.length} is not the "
                f"last step's K={last.k_after}, L={last.length}"
            )

    method = property(lambda self: self.records[0].method)
    initial_k = property(lambda self: self.records[0].k_before)
    initial_length = property(lambda self: self.records[0].length)

    @property
    def audit(self) -> tuple:
        """Each step's audit_agreement: True or None."""
        return tuple(record.audit_agreement for record in self.records)


class CompareRow(Record):
    """One K -> K+1 comparison of all four methods on the same set."""

    __slots__ = ("k_after", "length", "tsc_before", "tsc_quant", "tsc_descent", "tsc_sd", "tsc_ml")

    def __init__(self, k_after: int, length: int, tsc_before: int, tsc_quant: int,
                 tsc_descent: int, tsc_sd: int, tsc_ml: int):
        super().__init__(k_after, length, tsc_before, tsc_quant, tsc_descent, tsc_sd, tsc_ml)


class CompareEntry(Record):
    """One input file's outcome in a batch comparison; either a row or a
    per-file error message. Its bound and gaps are derived when serialized."""

    __slots__ = ("path", "error", "row")

    def __init__(self, path: str, error: str | None = None, row: CompareRow | None = None):
        super().__init__(path, error, row)

    def __post_init__(self):
        if (self.error is None) == (self.row is None):
            raise ValueError("a compare entry holds exactly one of a row and an error")


class CompareReport(Record):
    __slots__ = ("entries",)

    def __init__(self, entries: tuple):
        super().__init__(entries)


def _solve(step: StepAnalysis, method: str) -> SearchResult:
    """The search that answers ``method`` on one analysed step; "quant" is
    the quantized eigenvector itself, a one-node result."""
    if method == "sd":
        return step.first_optimum()
    if method == "ml":
        return ml_exhaustive(step.matrix)
    if method == "descent":
        return local_descent_baseline(step.matrix, step.quantized)
    return SearchResult(
        best=step.quantized,
        best_metric=step.quant_metric,
        candidates_enumerated=1,
        nodes_visited=1,
        ties=1,
    )


def _step(signature_set: SignatureSet, method: str, names) -> tuple[StepAnalysis, dict]:
    """Analyse a step once and solve it by each method in ``names``, the scan
    first, so a set above the scan's fixed cap (sphere.ML_CAP, L = 24) fails
    before any walk runs. When "sd" and
    "ml" both ran they must reach the same metric; anything else is an
    InternalConsistencyError naming K, L and ``method``, the method run."""
    step = analyse_step(signature_set)
    order = ("ml", "sd", "descent", "quant")
    solved = {name: _solve(step, name) for name in order if name in names}
    sd, ml = solved.get("sd"), solved.get("ml")
    if sd is not None and ml is not None and sd.best_metric != ml.best_metric:
        raise InternalConsistencyError(
            f"audit failed at K={signature_set.k}, L={signature_set.length}, "
            f"method {method}: sphere metric {sd.best_metric} != exhaustive "
            f"metric {ml.best_metric}"
        )
    return step, solved


def _factor_columns(step: StepAnalysis) -> tuple[bool, float | None]:
    """An extension record's jitter flag and operation bound, from the Cholesky
    factor of R with its indices reversed; no search reads that factor. The
    bound is None when the factor needed jitter (it is then one of R + jitter*I
    and says nothing of R) or overflows; 1 / min u_ii^2 caps the per-axis reach."""
    factor = cholesky(step.matrix.entries[::-1, ::-1])
    if factor.jitter > 0.0:
        return True, None
    diag = factor.entries.diagonal()
    try:
        return False, fp_operation_bound(
            step.matrix.dim, float(step.quant_metric), 1.0 / float((diag * diag).min()))
    except BoundOverflow:
        return False, None


def extend_once(
    signature_set: SignatureSet,
    method: str = "sd",
    *,
    audit: bool = False,
):
    """Extend a set by one signature with the chosen method.

    Returns (extended set, ExtensionRecord, the record's audit_agreement).
    The radius, minimum eigenvalue, operation bound, and jitter flag are
    properties of R, reported for every method; the last two come from
    ``_factor_columns``, the one factor of R taken outside the walk.

    The audit runs on every step at L <= 16; ``audit`` True forces it at any
    L and raises CapExceeded above the scan's cap of L = 24, and no value
    turns it off. When auditing, the sphere and the scan must return the
    same metric; anything else raises InternalConsistencyError.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    length = signature_set.length
    audit = audit or length <= AUDIT_AUTO_MAX_L
    step, solved = _step(signature_set, method, {method, "ml", "sd"} if audit else {method})
    result = solved[method]
    jitter_applied, fp_bound = _factor_columns(step)

    extended = extend_set(signature_set, result.best)
    tsc_before = tsc(signature_set)
    record = ExtensionRecord(
        k_before=signature_set.k,
        length=length,
        tsc_before=tsc_before,
        tsc_after=tsc(extended),
        method=method,
        metric=result.best_metric,
        radius_c=float(step.quant_metric),
        lambda_min=step.lambda_min,
        nodes_visited=result.nodes_visited,
        candidates_enumerated=result.candidates_enumerated,
        fp_bound=fp_bound,
        jitter_applied=jitter_applied,
        audit_agreement=True if audit else None,
    )
    return extended, record, record.audit_agreement


def upscale_chain(
    initial: SignatureSet,
    target_k: int,
    method: str = "sd",
    *,
    audit: bool = False,
) -> ChainReport:
    """Extend one signature at a time until the set holds ``target_k``;
    ``audit`` True forces the audit on each step, as in extend_once."""
    if (target_k := _integer(target_k)) <= initial.k:
        raise ValueError(f"target K={target_k} must exceed the current K={initial.k}")
    current = initial
    records = []
    while current.k < target_k:
        current, record, _ = extend_once(current, method, audit=audit)
        records.append(record)
    return ChainReport(tuple(records), current)


def compare_methods(signature_set: SignatureSet) -> CompareRow:
    """All four methods on the same autocorrelation matrix, one row out.

    The sphere and exhaustive metrics must agree; the quantized and descent
    baselines may only be worse.
    """
    length = signature_set.length
    _, solved = _step(signature_set, "sd", METHODS)
    tsc_before = tsc(signature_set)
    after = {
        name: tsc_increment(tsc_before, result.best_metric, length)
        for name, result in solved.items()
    }
    return CompareRow(
        k_after=signature_set.k + 1,
        length=length,
        tsc_before=tsc_before,
        tsc_quant=after["quant"],
        tsc_descent=after["descent"],
        tsc_sd=after["sd"],
        tsc_ml=after["ml"],
    )


def one_shot_experiment(set_paths) -> CompareReport:
    """Batch comparison over set files, with TSC-minus-bound gap columns.

    Per-file load and validation errors, a set above the exhaustive cap of
    L = 24 and memory a set cannot get (INPUT_ERRORS) land in that file's
    entry; the rest of the batch still runs.
    Consistency failures are not per-file errors and propagate.
    """
    entries = []
    for path in set_paths:
        path = str(path)
        try:
            entries.append(CompareEntry(path=path, row=compare_methods(load_set(path))))
        except INPUT_ERRORS as exc:
            entries.append(CompareEntry(path=path, error=_error_text(exc)))
    return CompareReport(entries=tuple(entries))


# CSV headers in column order; a CSV row is its JSON object flattened (see
# emit_report).
_CHAIN_COLUMNS = (
    "step", "k_before", "k_after", "length", "method", "metric", "tsc_before",
    "tsc_after", "radius_c", "lambda_min", "nodes_visited", "candidates_enumerated",
    "fp_bound", "jitter_applied", "welch_after", "binary_bound_after",
    "binary_bound_kind", "audit_agreement",
)

_COMPARE_COLUMNS = (
    "path", "k_after", "length", "tsc_before", "tsc_quant", "tsc_descent", "tsc_sd",
    "tsc_ml", "binary_bound", "binary_bound_kind", "gap_quant", "gap_descent",
    "gap_sd", "gap_ml", "error",
)


def _bound_json(bound: BoundValue | None) -> dict | None:
    return None if bound is None else {"value": bound.value, "kind": bound.kind}


def _step_json(record: ExtensionRecord) -> dict:
    """One chain step: the record's fields, its k_after and label."""
    step = {name: getattr(record, name) for name in record.__slots__}
    step.update(
        k_after=record.k_after,
        method=_METHOD_LABELS[record.method],
        welch_after=_bound_json(record.welch_after),
        binary_bound_after=_bound_json(record.binary_bound_after),
    )
    return step


def _entry_json(entry: CompareEntry) -> dict:
    """One compare entry: its row inlined, with the binary bound and each TSC's
    gap above it; an error entry's row, bound and gaps read as null."""
    row = entry.row
    bound = None if row is None else binary_tsc_bound(row.k_after, row.length)
    obj = {"path": entry.path, "error": entry.error, "binary_bound": _bound_json(bound)}
    obj.update((name, getattr(row, name, None)) for name in CompareRow.__slots__)
    for method in METHODS:
        obj[f"gap_{method}"] = None if bound is None else obj[f"tsc_{method}"] - bound.value
    return obj


def _cell(value):
    """Null -> empty, booleans -> true/false, floats -> repr, else as is."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return "" if value is None else value


def emit_report(report, fmt: str) -> bytes:
    """Serialize a ChainReport or CompareReport; same input, same bytes.

    Each row is built once as a JSON object, and a CSV row is that object
    flattened: a nested {"value", "kind"} bound writes its value, the binary
    bound's kind goes in binary_bound_kind, and a chain row gets its 1-based
    step. JSON documents carry a schema tag. Floats use repr, absent values
    serialize as null/empty.
    """
    if fmt not in ("json", "csv"):
        raise ValueError(f"format must be 'json' or 'csv', got {fmt!r}")
    if isinstance(report, ChainReport):
        steps = list(map(_step_json, report.records))
        doc = {
            "schema": REPORT_SCHEMA,
            "kind": "chain",
            "method": _METHOD_LABELS[report.method],
            "initial": {"k": report.initial_k, "length": report.initial_length},
            "steps": steps,
        }
        columns, bound = _CHAIN_COLUMNS, "binary_bound_after"
        objects = [dict(step, step=number) for number, step in enumerate(steps, start=1)]
    elif isinstance(report, CompareReport):
        objects = list(map(_entry_json, report.entries))
        doc = {"schema": REPORT_SCHEMA, "kind": "compare", "entries": objects}
        columns, bound = _COMPARE_COLUMNS, "binary_bound"
    else:
        raise ValueError(f"cannot serialize {type(report).__name__}")
    if fmt == "json":
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
        return (text + "\n").encode("utf-8")
    import csv
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for obj in objects:
        row = {key: v["value"] if isinstance(v, dict) else v for key, v in obj.items()}
        row["binary_bound_kind"] = None if obj[bound] is None else obj[bound]["kind"]
        writer.writerow(_cell(row[header]) for header in columns)
    return buffer.getvalue().encode("utf-8", errors="backslashreplace")

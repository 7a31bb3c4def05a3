"""Closed-form bounds: the Welch lower bound on total squared correlation,
a configurable binary-alphabet TSC lower bound, and an operation-count
ceiling for the sphere search.

The binary bound depends on (K mod 4, L mod 4) case corrections that live in
an optional configuration table; without one the operation falls back to the
Welch bound and says so in the returned tag. Values are computed in exact
integer arithmetic wherever the inputs allow it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "BoundValue",
    "BoundTable",
    "Underloaded",
    "BoundOverflow",
    "welch_bound",
    "binary_tsc_bound",
    "fp_operation_bound",
    "load_bound_table",
]

BOUND_TABLE_SCHEMA = "sigforge.bound-table/1"


class Underloaded(ValueError):
    """Binary TSC bound requested for K < L, outside the supported regime."""


class BoundOverflow(OverflowError):
    """Bound value exceeds the float range; carries ``saturated = True``."""

    def __init__(self, message: str):
        super().__init__(message)
        self.saturated = True


@dataclass(frozen=True)
class BoundValue:
    """A bound together with the rule that produced it.

    kind is one of "welch", "binary_table", "binary_fallback_welch".
    """

    value: int | float
    kind: str

    _KINDS = ("welch", "binary_table", "binary_fallback_welch")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown bound kind {self.kind!r}")


@dataclass(frozen=True)
class _Case:
    terms: tuple[tuple[Fraction, int, int], ...]
    achievable: bool

    def evaluate(self, k: int, length: int) -> int:
        total = Fraction(0)
        for coeff, k_pow, l_pow in self.terms:
            total += coeff * k**k_pow * length**l_pow
        if total.denominator != 1:
            raise ValueError(
                f"bound table case evaluates to non-integer {total} at K={k}, L={length}"
            )
        return int(total)


@dataclass(frozen=True)
class BoundTable:
    """Binary-bound case table keyed by (K mod 4, L mod 4).

    Each case holds polynomial terms (coeff, K-power, L-power); the bound is
    the sum of coeff * K**k_pow * L**l_pow over the terms. A case may claim
    that the bound is achievable by some binary set.
    """

    cases: dict

    def case_for(self, k: int, length: int) -> _Case | None:
        return self.cases.get((k % 4, length % 4))


def _is_integer(raw) -> bool:
    return isinstance(raw, int) and not isinstance(raw, bool)


def _parse_coeff(raw) -> Fraction:
    # JSON admits Infinity and NaN, which have no Fraction.
    if not (_is_integer(raw) or isinstance(raw, float) and math.isfinite(raw)):
        raise ValueError(f"coefficient must be a finite number, got {raw!r}")
    return Fraction(raw).limit_denominator(10**6)


def _parse_case(record: dict, where: str) -> tuple[tuple[int, int], _Case]:
    try:
        k_mod = record["k_mod"]
        l_mod = record["l_mod"]
        raw_terms = record["terms"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{where}: case record needs k_mod, l_mod, terms") from exc
    if not all(_is_integer(mod) and 0 <= mod < 4 for mod in (k_mod, l_mod)):
        raise ValueError(f"{where}: k_mod and l_mod must be in 0..3")
    if not isinstance(raw_terms, list) or not raw_terms:
        raise ValueError(f"{where}: terms must be a non-empty list")
    terms = []
    for term in raw_terms:
        if not isinstance(term, list) or len(term) != 3:
            raise ValueError(f"{where}: each term must be [coeff, k_power, l_power]")
        coeff, k_pow, l_pow = term
        if not (_is_integer(k_pow) and _is_integer(l_pow)) or k_pow < 0 or l_pow < 0:
            raise ValueError(f"{where}: term powers must be non-negative integers")
        terms.append((_parse_coeff(coeff), k_pow, l_pow))
    achievable = bool(record.get("achievable", False))
    return (k_mod, l_mod), _Case(terms=tuple(terms), achievable=achievable)


def load_bound_table(path) -> BoundTable:
    """Load a case table from a JSON file; see the README for the format."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or doc.get("schema") != BOUND_TABLE_SCHEMA:
        raise ValueError(f"{path}: expected a JSON object with schema {BOUND_TABLE_SCHEMA!r}")
    raw_cases = doc.get("cases")
    if not isinstance(raw_cases, list):
        raise ValueError(f"{path}: 'cases' must be a list")
    cases = {}
    for index, record in enumerate(raw_cases):
        key, case = _parse_case(record, f"{path} case {index}")
        if key in cases:
            raise ValueError(f"{path}: duplicate case for (K mod 4, L mod 4) = {key}")
        cases[key] = case
    return BoundTable(cases=cases)


def _check_dims(k: int, length: int) -> None:
    if not isinstance(k, int) or not isinstance(length, int):
        raise TypeError("K and L must be integers")
    if k < 1 or length < 1:
        raise ValueError("K and L must be at least 1")


def welch_bound(k: int, length: int) -> BoundValue:
    """K * L * max(K, L): the TSC floor for any K x L signature set."""
    _check_dims(k, length)
    return BoundValue(value=k * length * max(k, length), kind="welch")


def binary_tsc_bound(k: int, length: int, table: BoundTable | None = None) -> BoundValue:
    """TSC lower bound specialized to the binary antipodal alphabet, K >= L.

    With a configured case table the (K mod 4, L mod 4) polynomial is
    evaluated; otherwise the Welch bound is returned, tagged
    binary_fallback_welch. The result is never below the Welch bound; a
    table that dips below it is rejected as misconfigured.
    """
    _check_dims(k, length)
    if k < length:
        raise Underloaded(f"binary bound needs K >= L, got K={k} < L={length}")
    welch = k * length * max(k, length)
    case = table.case_for(k, length) if table is not None else None
    if case is None:
        return BoundValue(value=welch, kind="binary_fallback_welch")
    value = case.evaluate(k, length)
    if value < welch:
        raise ValueError(
            f"bound table gives {value} below the Welch bound {welch} at K={k}, L={length}"
        )
    return BoundValue(value=value, kind="binary_table")


def fp_operation_bound(dim: int, radius: float, scale: float) -> float:
    """Ceiling on arithmetic operations for a sphere search of dimension L.

    radius is the squared-metric budget C; scale is the reciprocal of the
    smallest squared diagonal of the triangular factor, so radius * scale
    caps the per-coordinate enumeration range. Exact integer evaluation
    throughout (the closed form is an integer multiple of one half);
    raises BoundOverflow if the value exceeds the float range.
    """
    if not isinstance(dim, int) or dim < 1:
        raise ValueError("dimension must be a positive integer")
    if not (radius >= 0.0) or not (scale > 0.0):
        raise ValueError("radius must be >= 0 and scale > 0")
    # L(L-1)(2L+5) is divisible by 6 for every integer L.
    base = dim * (dim - 1) * (2 * dim + 5) // 6
    reach = float(radius) * float(scale)
    if not math.isfinite(4.0 * reach):
        raise BoundOverflow(f"radius * scale overflows the float range at L={dim}")
    span = int(math.floor(reach))
    root = math.isqrt(span)
    cap = int(math.floor(4.0 * reach))
    lattice = (2 * root + 1) * math.comb(cap + dim - 1, cap) + 1
    doubled = 2 * base + (dim * dim + 12 * dim - 7) * lattice
    try:
        return float(doubled) / 2.0
    except OverflowError:
        raise BoundOverflow(
            f"operation bound exceeds float range at L={dim}, C*t={reach:.3e}"
        ) from None

"""Closed-form bounds: the Welch lower bound on total squared correlation,
the binary-alphabet TSC bound every report shows, and an operation-count
ceiling for the sphere search.

The binary bound is the Welch bound: no sharper binary bound is proven here
yet, so its kind says that it falls back to Welch whenever K >= L. Values are
computed in exact integer arithmetic wherever the inputs allow it.
"""

from __future__ import annotations

import math

from .sigcore import Record, _integer

__all__ = [
    "BoundValue",
    "BoundOverflow",
    "welch_bound",
    "binary_tsc_bound",
    "fp_operation_bound",
]


class BoundOverflow(ValueError):
    """Bound value, or an argument of it, exceeds the float range."""


class BoundValue(Record):
    """A bound together with the rule that produced it.

    kind is one of "welch", "binary_fallback_welch".
    """

    __slots__ = ("value", "kind")
    _KINDS = ("welch", "binary_fallback_welch")

    def __init__(self, value: int | float, kind: str):
        super().__init__(value, kind)

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown bound kind {self.kind!r}")


def _check_dims(k: int, length: int) -> tuple[int, int]:
    k, length = _integer(k), _integer(length)
    if k < 1 or length < 1:
        raise ValueError("K and L must be at least 1")
    return k, length


def welch_bound(k: int, length: int) -> BoundValue:
    """K * L * max(K, L): the TSC floor for any K x L signature set."""
    k, length = _check_dims(k, length)
    return BoundValue(value=k * length * max(k, length), kind="welch")


def binary_tsc_bound(k: int, length: int) -> BoundValue:
    """TSC lower bound for a binary antipodal K x L set.

    Its value is the Welch bound. For K < L that is the whole answer, tagged
    welch; for K >= L, where the binary alphabet could sharpen it, the same
    value is tagged binary_fallback_welch.
    """
    k, length = _check_dims(k, length)
    welch = welch_bound(k, length)
    if k < length:
        return welch
    return BoundValue(value=welch.value, kind="binary_fallback_welch")


def fp_operation_bound(dim: int, radius: float, scale: float) -> float:
    """Ceiling on arithmetic operations for a sphere search of dimension L.

    radius is the squared-metric budget C; scale is the reciprocal of the
    smallest squared diagonal of the triangular factor, so radius * scale
    caps the per-coordinate enumeration range. Exact integer evaluation
    throughout (the closed form is an integer multiple of one half);
    raises BoundOverflow if an argument or the value exceeds the float range.
    """
    if (dim := _integer(dim)) < 1:
        raise ValueError("dimension must be a positive integer")
    if not (radius >= 0.0) or not (scale > 0.0):
        raise ValueError("radius must be >= 0 and scale > 0")
    # L(L-1)(2L+5) is divisible by 6 for every integer L.
    base = dim * (dim - 1) * (2 * dim + 5) // 6
    try:
        reach = float(radius) * float(scale)
        if not math.isfinite(4.0 * reach):
            raise OverflowError
        span = int(math.floor(reach))
        root = math.isqrt(span)
        cap = int(math.floor(4.0 * reach))
        lattice = (2 * root + 1) * math.comb(cap + dim - 1, cap) + 1
        doubled = 2 * base + (dim * dim + 12 * dim - 7) * lattice
        return float(doubled) / 2.0
    except OverflowError:
        raise BoundOverflow(f"the operation bound at L={dim} exceeds the float range") from None

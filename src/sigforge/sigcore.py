"""Binary antipodal signature sets with exact total-squared-correlation accounting.

Data model for spreading-code design: length-L signatures over {-1, +1},
ordered sets of K such signatures, their integer autocorrelation matrix
R = sum_i s_i s_i^T, and the TSC bookkeeping used everywhere else in the
package. All quantities here are exact Python/int64 integers; floating
point is confined to the numerical kernel modules. TSC values are plain
Python ints.
"""

from __future__ import annotations

import numbers
import operator
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "Signature",
    "SignatureSet",
    "CorrelationMatrix",
    "SetFormatError",
    "tsc",
    "correlation_matrix",
    "quadratic_metric",
    "tsc_increment",
    "extend_set",
    "hadamard_set",
    "load_set",
    "save_set",
]

# int64 sums stay exact while their terms' magnitudes add up to less than
# this: sum |R_ij| for R and its quadratic forms, (K*L)^2 for the TSC.
INT64_LIMIT = 1 << 63
# float64 sums of integers stay exact while their terms' magnitudes add up
# to less than this: sum |R_ij| for the quadratic forms s^T R s.
EXACT_SCAN_LIMIT = 1 << 53


class SetFormatError(ValueError):
    """A signature-set file violates the text format."""


def _integer(value) -> int:
    """``value`` as a Python int: any integer type but bool, else TypeError."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def _parse_integer(text: str) -> int:
    """``int(text)``, but a ``_``, a non-ASCII digit or surrounding whitespace, which ``int``
    takes, is a ValueError."""
    if "_" in text or not text.isascii() or text != text.strip():
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


_parse_integer.__name__ = "integer"  # argparse's error then reads "invalid integer value"


class Record:
    """Base of sigforge's records: ``__init__`` sets the ``__slots__`` fields in order and
    ``__post_init__`` checks them; they are read-only after. Records of one class with equal
    fields are equal and hash alike; copies and pickles are rebuilt unchecked by ``_trusted``."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _trusted(cls, *values):
        """A record of values already checked: the fields are set in order without
        ``__post_init__``, and each ndarray among them is made read-only."""
        record = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(record, name, value)
        return record

    def __post_init__(self):
        """Validate or normalise the fields; the base accepts any."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} fields are read-only, got {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return self._trusted, self._values()


class Signature(Record):
    """A length-L spreading code over the antipodal alphabet {-1, +1}.

    Immutable and hashable; the squared norm is exactly L by construction.
    """

    __slots__ = ("chips",)

    def __init__(self, chips: tuple[int, ...]):
        super().__init__(chips)

    def __post_init__(self):
        chips = tuple(self.chips)
        for c in chips:
            if c != 1 and c != -1:
                raise ValueError(f"signature entries must be -1 or +1, got {c!r}")
        if not chips:
            raise ValueError("signature length must be >= 1")
        object.__setattr__(self, "chips", tuple(1 if c == 1 else -1 for c in chips))

    def __len__(self) -> int:
        return len(self.chips)

    def __iter__(self) -> Iterator[int]:
        return iter(self.chips)

    def __getitem__(self, index):
        return self.chips[index]

    def __neg__(self) -> Signature:
        return Signature(tuple(-c for c in self.chips))

    def as_array(self) -> np.ndarray:
        """Entries as a fresh int64 vector."""
        return np.array(self.chips, dtype=np.int64)


class SignatureSet(Record):
    """An ordered collection of K signatures sharing one common length L.

    ``rows`` holds them as one read-only K x L int64 array of +-1, validated
    once; ``Signature`` objects are built from it on request.
    """

    __slots__ = ("rows",)

    def __init__(self, signatures: Iterable[Signature]):
        sigs = tuple(signatures)
        if not sigs:
            raise ValueError("signature set must contain at least one signature")
        for s in sigs:
            if not isinstance(s, Signature):
                raise TypeError(f"expected Signature, got {type(s).__name__}")
            if len(s) != len(sigs[0]):
                raise ValueError(
                    f"all signatures must share one length, got {len(s)} and {len(sigs[0])}"
                )
        rows = np.array([s.chips for s in sigs], dtype=np.int64)
        rows.setflags(write=False)
        super().__init__(rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> SignatureSet:
        return cls(tuple(Signature(tuple(row)) for row in rows))

    @property
    def signatures(self) -> tuple[Signature, ...]:
        return self[:]

    def __len__(self) -> int:
        return self.rows.shape[0]

    k = property(__len__)

    @property
    def length(self) -> int:
        return self.rows.shape[1]

    def __iter__(self) -> Iterator[Signature]:
        return iter(self.signatures)

    def __getitem__(self, index):
        """One Signature for an int, a tuple of them for a slice; only the
        indexed rows are built."""
        if isinstance(index, slice):
            return tuple(Signature(tuple(row)) for row in self.rows[index].tolist())
        return Signature(tuple(self.rows[operator.index(index)].tolist()))

    def __eq__(self, other) -> bool:
        return isinstance(other, SignatureSet) and np.array_equal(self.rows, other.rows)

    def __hash__(self) -> int:
        return hash((self.rows.shape, self.rows.tobytes()))

    def matrix(self) -> np.ndarray:
        """Signatures stacked as a fresh K x L int64 array (one row per signature)."""
        return self.rows.copy()


def _abs_sum(magnitudes: Iterable[int]) -> int:
    """The exact sum |R_ij| from the |R_ij| or their partial sums; refused with
    ValueError when it is not below 2^63."""
    total = sum(magnitudes)
    if total >= INT64_LIMIT:
        raise ValueError(
            f"sum |R_ij| = {total} is not below {INT64_LIMIT}, the bound for exact int64 metrics"
        )
    return total


class CorrelationMatrix(Record):
    """Integer autocorrelation matrix sum_i s_i s_i^T of a signature set.

    Symmetric with a constant diagonal equal to the number K of contributing
    signatures. Entries are stored as a read-only int64 array. A matrix
    whose sum |R_ij| is not below 2^63 is refused, so every quadratic form
    s^T R s over +-1 vectors is exact in int64.
    """

    __slots__ = ("entries", "abs_sum")  # abs_sum: the exact sum |R_ij|

    def __init__(self, entries: np.ndarray):
        super().__init__(entries)

    def __post_init__(self):
        a = np.asarray(self.entries)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError("correlation matrix must be square and non-empty")
        if a.dtype == object:
            # Python ints of any size stay exact for the int64 guard below;
            # other real numbers take the float checks.
            if not all(isinstance(x, numbers.Real) for x in a.flat):
                raise ValueError("correlation matrix entries must be real numbers")
            if not all(isinstance(x, numbers.Integral) for x in a.flat):
                a = a.astype(np.float64)
        if a.dtype != object and not np.issubdtype(a.dtype, np.integer):
            if not np.isfinite(a).all():
                raise ValueError("correlation matrix entries must be finite")
            rounded = np.rint(a)
            if not np.array_equal(rounded, a):
                raise ValueError("correlation matrix entries must be integers")
            a = rounded
        magnitude = _abs_sum(map(abs, map(int, a.ravel().tolist())))
        a = a.astype(np.int64)
        if not np.array_equal(a, a.T):
            raise ValueError("correlation matrix must be symmetric")
        diag = np.diag(a)
        if int(diag.min()) != int(diag.max()) or int(diag[0]) < 1:
            raise ValueError("diagonal must be a constant signature count >= 1")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "abs_sum", magnitude)

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])

    @property
    def k(self) -> int:
        """Number of signatures that built this matrix (the diagonal value)."""
        return int(self.entries[0, 0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, CorrelationMatrix):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)


def tsc(signature_set: SignatureSet) -> int:
    """Total squared correlation: sum over all ordered pairs of (s_i . s_j)^2.

    Exact in int64 while (K*L)^2 < 2^63, and refused with ValueError beyond
    that; equals trace((S S^T)^2) = ||R||_F^2, which sums the L x L R so
    memory does not grow with K.
    """
    scale = (signature_set.k * signature_set.length) ** 2
    if scale >= INT64_LIMIT:
        raise ValueError(
            f"(K*L)^2 = {scale} is not below {INT64_LIMIT}, the bound for an exact int64 TSC"
        )
    r = signature_set.rows.T @ signature_set.rows
    return int((r * r).sum())


def correlation_matrix(signature_set: SignatureSet) -> CorrelationMatrix:
    """Exact integer autocorrelation matrix of the set.

    R = S^T S of validated +-1 rows is symmetric with diagonal K and every
    |R_ij| <= K, so each row sums to at most K * L in int64; the exact total of
    those row sums decides the 2^63 refusal, and R is built without a check.
    """
    product = signature_set.rows.T @ signature_set.rows
    return CorrelationMatrix._trusted(product, _abs_sum(np.abs(product).sum(axis=1).tolist()))


def quadratic_metric(matrix: CorrelationMatrix, signature: Signature) -> int:
    """Exact integer quadratic form s^T R s.

    When R is the correlation matrix of a set, this equals the sum of squared
    inner products of s against every member, i.e. the TSC cost of adding s.
    """
    if matrix.dim != len(signature):
        raise ValueError(
            f"dimension mismatch: matrix is {matrix.dim}x{matrix.dim}, "
            f"signature has length {len(signature)}"
        )
    v = signature.as_array()
    return int(v @ matrix.entries @ v)


def tsc_increment(tsc_k: int, metric: int, length: int) -> int:
    """TSC of the enlarged set: tsc_k + L^2 + 2 * (s^T R s), exactly."""
    tsc_k, metric, length = _integer(tsc_k), _integer(metric), _integer(length)
    if metric < 0:
        raise ValueError("quadratic metric must be non-negative")
    if length < 1:
        raise ValueError("length must be >= 1")
    return tsc_k + length * length + 2 * metric


def extend_set(signature_set: SignatureSet, signature: Signature) -> SignatureSet:
    """New set with the signature appended; the original is unchanged."""
    if len(signature) != signature_set.length:
        raise ValueError(
            f"dimension mismatch: set has length {signature_set.length}, "
            f"signature has length {len(signature)}"
        )
    return SignatureSet._trusted(np.vstack((signature_set.rows, SignatureSet((signature,)).rows)))


def hadamard_set(length: int) -> SignatureSet:
    """Orthogonal K = L set from the doubling construction ([[H,H],[H,-H]], base [[+1]]).

    Meets the Welch bound with equality: tsc == K * L^2.
    """
    if (length := _integer(length)) < 1 or (length & (length - 1)) != 0:
        raise ValueError(f"construction needs a power-of-two length, got {length}")
    h = np.array([[1]], dtype=np.int64)
    while h.shape[0] < length:
        h = np.block([[h, h], [h, -h]])
    return SignatureSet._trusted(h)


def save_set(signature_set: SignatureSet, path) -> None:
    """Write the text format: header line ``K L``, then one token row per signature."""
    tokens = np.where(signature_set.rows > 0, "+1", "-1").tolist()
    lines = [f"{signature_set.k} {signature_set.length}", *map(" ".join, tokens)]
    Path(path).write_text("\n".join(lines) + "\n")


def _text(raw: bytes) -> str:
    """File bytes as a message quotes them: UTF-8, with undecodable bytes escaped."""
    return raw.decode(errors="backslashreplace")


def load_set(path) -> SignatureSet:
    """Parse a signature-set file; inverse of save_set (bit-exact round trip).

    The file is read as ASCII bytes: lines end at LF, CR or CRLF, chips are
    separated by ASCII whitespace, and lines starting with ``#`` and blank
    lines are ignored. Raises SetFormatError on a malformed header, wrong row
    count, ragged rows, or entries outside the +1/-1 alphabet, naming the
    earliest faulty line and quoting its text decoded.
    """
    numbered = enumerate(Path(path).read_bytes().splitlines(), start=1)
    content_lines = [(n, line) for n, raw in numbered if (line := raw.strip()) and line[:1] != b"#"]
    if not content_lines:
        raise SetFormatError("empty file: missing 'K L' header")

    header_lineno, header = content_lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise SetFormatError(f"line {header_lineno}: header must be 'K L', got {_text(header)!r}")
    try:
        k, length = (_parse_integer(_text(part)) for part in parts)
    except ValueError:
        raise SetFormatError(
            f"line {header_lineno}: header must hold two integers, got {_text(header)!r}"
        ) from None
    if k < 1 or length < 1:
        raise SetFormatError(f"line {header_lineno}: need K >= 1 and L >= 1, got K={k} L={length}")

    rows = [row.split() for _, row in content_lines[1:]]
    if len(rows) != k:
        raise SetFormatError(f"header declares {k} rows, file has {len(rows)}")
    for (lineno, _), tokens in zip(content_lines[1:], rows):
        if len(tokens) != length:
            raise SetFormatError(f"line {lineno}: expected {length} entries, got {len(tokens)}")
        if not {b"+1", b"-1"}.issuperset(tokens):
            bad = next(t for t in tokens if t not in {b"+1", b"-1"})
            raise SetFormatError(
                f"line {lineno}: invalid entry {_text(bad)!r} (alphabet is '+1'/'-1')"
            )
    # Every token is b"+1" or b"-1", so every other byte is a sign.
    signs = np.frombuffer(b"".join(map(b"".join, rows)), np.uint8)[::2]
    rows = np.where(signs == ord("+"), np.int64(1), np.int64(-1)).reshape(k, length)
    return SignatureSet._trusted(rows)

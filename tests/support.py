"""Helpers the test modules share: the property-test set strategies and
settings, seeded random sets, and brute-force oracles over the half space.

The half space is every sign vector s of length L with s_L = +1, in
lexicographic order with +1 before -1: the points every search chooses
among, in the order its tie-break ranks them. The oracles are written from
that definition and public sigforge names only.
"""

import itertools

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from sigforge import Signature, SignatureSet, correlation_matrix, quadratic_metric

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def rows_of(length, count):
    """``count`` rows of ``length`` +-1 chips."""
    return st.lists(
        st.lists(st.sampled_from([-1, 1]), min_size=length, max_size=length),
        min_size=count,
        max_size=count,
    )


@st.composite
def random_sets(draw, min_length, max_length, max_k=lambda length: 3 * length):
    """L from ``min_length`` to ``max_length``, K from 1 to ``max_k(L)``."""
    length = draw(st.integers(min_length, max_length))
    return SignatureSet.from_rows(draw(rows_of(length, draw(st.integers(1, max_k(length))))))


def underloaded_sets(min_length, max_length):
    """K < L: R is singular."""
    return random_sets(min_length, max_length, lambda length: length - 1)


@st.composite
def repeated_rows(draw, min_length, max_length, max_distinct=3, repeats=(1, 4)):
    """Up to ``max_distinct`` distinct rows, each repeated a number of times
    in ``repeats``: low rank, degenerate eigenspaces and many ties. An int64
    array of shape (K, L); K is 0 when every repeat count is 0."""
    length = draw(st.integers(min_length, max_length))
    distinct = draw(rows_of(length, draw(st.integers(1, max_distinct))))
    times = draw(st.lists(st.integers(*repeats), min_size=len(distinct), max_size=len(distinct)))
    rows = [row for row, n in zip(distinct, times) for _ in range(n)]
    return np.array(rows, dtype=np.int64).reshape(-1, length)


def repeated_row_sets(min_length, max_length):
    """``repeated_rows`` with each row used 1 to 4 times, as a set."""
    return repeated_rows(min_length, max_length).map(SignatureSet.from_rows)


@st.composite
def with_signature(draw, sets):
    """A set drawn from ``sets`` and a signature of its length."""
    signature_set = draw(sets)
    return signature_set, Signature(tuple(draw(rows_of(signature_set.length, 1))[0]))


def random_set(rng, k, length):
    """``k`` rows of ``length`` chips drawn from ``rng``."""
    return SignatureSet.from_rows(rng.choice([-1, 1], size=(k, length)).tolist())


def random_matrix(rng, length, max_factor=3):
    """R of a ``random_set`` whose K is drawn from L to ``max_factor`` * L."""
    k = int(rng.integers(length, max_factor * length + 1))
    return correlation_matrix(random_set(rng, k, length))


def fields_of(result):
    return tuple(getattr(result, name) for name in result.__slots__)


def all_half_space(length):
    """Every signature with s_L = +1, lexicographic with +1 before -1."""
    return (Signature(head + (1,)) for head in itertools.product((1, -1), repeat=length - 1))


def first_minimum(matrix):
    """The first half-space point of least s^T R s, that metric, and how
    many points share it."""
    scored = [(quadratic_metric(matrix, s), s) for s in all_half_space(matrix.dim)]
    best_metric = min(metric for metric, _ in scored)
    best = next(s for metric, s in scored if metric == best_metric)
    return best, best_metric, sum(metric == best_metric for metric, _ in scored)


def first_completion(excess):
    """The first half-space point s with ``excess @ s = 0``, or None."""
    return next(
        (s for s in all_half_space(excess.shape[1]) if not (excess @ s.as_array()).any()), None
    )

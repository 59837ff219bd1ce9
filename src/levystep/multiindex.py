"""Combinatorics of the multiindices of iterated stochastic integrals.

A multiindex is a word over the digits '0'-'3', written as a string, the
same keys `schemes.milstein_terms` uses; each digit names one integrator (0:
time, 1: Wiener increment, 2: compensated jump measure on the unit ball, 3:
jump measure on the tail), and '' is the empty word (printed v in the
literature).  This module provides the hierarchical sets that define a scheme
of a given strong order and their remainder sets, each a tuple of words in
canonical order: by length, then lexicographic.
"""

from __future__ import annotations

from fractions import Fraction

_ALPHABET = "0123"


def _checked(word: str) -> str:
    if not set(word) <= set(_ALPHABET):
        raise ValueError(f"multiindex digit out of range in {word!r}")
    return word


def _canonical(words) -> tuple[str, ...]:
    return tuple(sorted(set(words), key=lambda w: (len(w), w)))


def _as_half_units(gamma) -> int:
    """Validate gamma in {1/2, 1, 3/2, ...} and return 2*gamma as an int."""
    two = Fraction(gamma) * 2
    if two.denominator != 1 or two <= 0:
        raise ValueError(f"strong order must be a positive half-integer, got {gamma!r}")
    return int(two)


def in_hierarchical_set(word: str, gamma) -> bool:
    """Membership predicate: length + zero-count <= 2*gamma, or the special
    branch length = zero-count = gamma + 1/2."""
    two_gamma = _as_half_units(gamma)
    length, zeros = len(_checked(word)), word.count("0")
    if length + zeros <= two_gamma:
        return True
    return length == zeros and 2 * length == two_gamma + 1


def is_hierarchical(words) -> bool:
    """Holds the empty word, and closed under removal of the leading digit."""
    pool = {_checked(w) for w in words}
    return "" in pool and all(w[1:] in pool for w in pool)


def hierarchical_set(gamma) -> tuple[str, ...]:
    """The index set of the strong order-gamma scheme.

    Generated by left-extension from the empty word; any member's tail chain
    stays in the set, so this is exhaustive.  Members never exceed length
    2*gamma + 1 (the bound is asserted).
    """
    bound = _as_half_units(gamma) + 1
    words, frontier = [""], [""]
    while frontier:
        frontier = [d + w for w in frontier for d in _ALPHABET
                    if in_hierarchical_set(d + w, gamma)]
        assert all(len(w) <= bound for w in frontier)
        words += frontier
    return _canonical(words)


def remainder_set(words) -> tuple[str, ...]:
    """B(A) = {alpha not in A whose tail (leading digit removed) is in A}.

    For a hierarchical A this is exactly the one-digit left extensions of A
    that left A.  Requires A hierarchical.
    """
    if not is_hierarchical(words):
        raise ValueError("remainder set requires a hierarchical index set")
    pool = set(words)
    return _canonical(d + w for w in pool for d in _ALPHABET if d + w not in pool)

"""Multiindex combinatorics for iterated stochastic integrals.

A multiindex is a word over the digit alphabet {0, 1, 2, 3}; each digit names
one integrator (0: time, 1: Wiener increment, 2: compensated jump measure on
the unit ball, 3: jump measure on the tail).  This module provides the
hierarchical sets that define a scheme of a given strong order and their
remainder sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

_ALPHABET = (0, 1, 2, 3)


@dataclass(frozen=True, order=True)
class Multiindex:
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        for d in self.digits:
            if d not in _ALPHABET:
                raise ValueError(f"multiindex digit out of range: {d!r}")

    @classmethod
    def parse(cls, text: str) -> "Multiindex":
        """Parse the textual form: 'v' for the empty word, else e.g. '213'."""
        if text == "v":
            return cls(())
        return cls(tuple(int(ch) for ch in text))

    def render(self) -> str:
        if not self.digits:
            return "v"
        return "".join(str(d) for d in self.digits)

    def __len__(self) -> int:
        return len(self.digits)

    def __repr__(self) -> str:  # compact in test diffs
        return f"Multiindex({self.render()!r})"

    @property
    def is_empty(self) -> bool:
        return not self.digits

    def drop_first(self) -> "Multiindex":
        """-alpha : remove the leading digit.  Undefined on the empty word."""
        if not self.digits:
            raise ValueError("cannot drop a digit from the empty multiindex")
        return Multiindex(self.digits[1:])


EMPTY = Multiindex(())


def _canonical(members) -> tuple[Multiindex, ...]:
    return tuple(sorted(set(members), key=lambda a: (len(a), a.digits)))


@dataclass(frozen=True)
class IndexSet:
    """An ordered collection of multiindices (length-then-lexicographic)."""

    members: tuple[Multiindex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", _canonical(self.members))

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, alpha: Multiindex) -> bool:
        return alpha in set(self.members)

    def render(self) -> tuple[str, ...]:
        return tuple(a.render() for a in self.members)

    def max_length(self) -> int:
        return max((len(a) for a in self.members), default=0)

    def is_hierarchical(self) -> bool:
        """Nonempty, and closed under removal of the leading digit."""
        if not self.members:
            return False
        pool = set(self.members)
        if EMPTY not in pool:
            return False
        return all(a.drop_first() in pool for a in self.members if not a.is_empty)


def _as_half_units(gamma) -> int:
    """Validate gamma in {1/2, 1, 3/2, ...} and return 2*gamma as an int."""
    two = Fraction(gamma) * 2
    if two.denominator != 1 or two <= 0:
        raise ValueError(f"strong order must be a positive half-integer, got {gamma!r}")
    return int(two)


def in_hierarchical_set(alpha: Multiindex, gamma) -> bool:
    """Membership predicate: length + zero-count <= 2*gamma, or the special
    branch length = zero-count = gamma + 1/2."""
    two_gamma = _as_half_units(gamma)
    length, zeros = len(alpha), alpha.digits.count(0)
    if length + zeros <= two_gamma:
        return True
    return length == zeros and 2 * length == two_gamma + 1


def hierarchical_set(gamma) -> IndexSet:
    """The index set of the strong order-gamma scheme.

    Generated by left-extension from the empty word; any member's tail chain
    stays in the set, so this is exhaustive.  Members never exceed length
    2*gamma + 1 (the bound is asserted).
    """
    two_gamma = _as_half_units(gamma)
    bound = two_gamma + 1
    members = [EMPTY]
    frontier = [EMPTY]
    while frontier:
        new = []
        for beta in frontier:
            for d in _ALPHABET:
                cand = Multiindex((d,) + beta.digits)
                if in_hierarchical_set(cand, gamma):
                    assert len(cand) <= bound
                    new.append(cand)
        members.extend(new)
        frontier = new
    return IndexSet(tuple(members))


def remainder_set(a: IndexSet) -> IndexSet:
    """B(A) = {alpha not in A whose tail (leading digit removed) is in A}.

    For a hierarchical A this is exactly the one-digit left extensions of A
    that left A.  Requires A hierarchical.
    """
    if not a.is_hierarchical():
        raise ValueError("remainder set requires a hierarchical index set")
    pool = set(a.members)
    out = []
    for beta in a.members:
        for d in _ALPHABET:
            cand = Multiindex((d,) + beta.digits)
            if cand not in pool:
                out.append(cand)
    return IndexSet(tuple(out))

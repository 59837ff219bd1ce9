"""Multiindex combinatorics for iterated stochastic integrals.

A multiindex is a word over the digit alphabet {0, 1, 2, 3}; each digit names
one integrator (0: time, 1: Wiener increment, 2: compensated jump measure on
the unit ball, 3: jump measure on the tail).  This module provides digit
counting, head/tail truncations, the hierarchical sets that define a scheme of
a given strong order, their remainder sets, and the binary subscript words
used when ball integrals are split into an inner ball and a disc.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .common import Region

_ALPHABET = (0, 1, 2, 3)


@dataclass(frozen=True)
class Counts:
    """Digit statistics of a multiindex.

    length: total number of digits
    s: count of 0-digits (time integrals)
    w: count of 1-digits (Wiener integrals)
    n_compensated: count of 2-digits (compensated ball integrals)
    n_tail: count of 3-digits (tail integrals)
    k: n_compensated + n_tail (all jump digits)
    """

    length: int
    s: int
    w: int
    n_compensated: int
    n_tail: int

    @property
    def k(self) -> int:
        return self.n_compensated + self.n_tail


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

    def counts(self) -> Counts:
        s = self.digits.count(0)
        w = self.digits.count(1)
        nc = self.digits.count(2)
        nt = self.digits.count(3)
        return Counts(length=len(self.digits), s=s, w=w, n_compensated=nc, n_tail=nt)

    def concat(self, other: "Multiindex") -> "Multiindex":
        return Multiindex(self.digits + other.digits)

    def drop_last(self) -> "Multiindex":
        """alpha- : remove the final digit.  Undefined on the empty word."""
        if not self.digits:
            raise ValueError("cannot drop a digit from the empty multiindex")
        return Multiindex(self.digits[:-1])

    def drop_first(self) -> "Multiindex":
        """-alpha : remove the leading digit.  Undefined on the empty word."""
        if not self.digits:
            raise ValueError("cannot drop a digit from the empty multiindex")
        return Multiindex(self.digits[1:])

    def beta(self) -> "Multiindex":
        """Subword of jump digits only (2s and 3s), order preserved."""
        return Multiindex(tuple(d for d in self.digits if d in (2, 3)))

    def ball_at(self, i: int) -> Region:
        """Region of the i-th jump integrator, counted so that i=1 is the
        *last* jump digit of the word: digit 2 -> SMALL, digit 3 -> TAIL."""
        b = self.beta().digits
        k = len(b)
        if k == 0:
            raise ValueError("multiindex has no jump digits")
        if not 1 <= i <= k:
            raise ValueError(f"jump position {i} out of range 1..{k}")
        return Region.SMALL if b[k - i] == 2 else Region.TAIL


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
    c = alpha.counts()
    if c.length + c.s <= two_gamma:
        return True
    return c.length == c.s and 2 * c.length == two_gamma + 1


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


def subscript_set(alpha: Multiindex) -> tuple[tuple[int, ...], ...]:
    """All binary words indexing the ball/disc split of the compensated jump
    integrals of alpha: one bit per 2-digit, so 2**n_compensated words; the
    empty word alone when alpha has no 2-digits."""
    n = alpha.counts().n_compensated
    return tuple(itertools.product((0, 1), repeat=n))

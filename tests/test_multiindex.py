import pytest
from hypothesis import given, strategies as st

from levystep import (Multiindex, Region, hierarchical_set, in_hierarchical_set,
                      remainder_set, subscript_set)
from levystep.multiindex import EMPTY, IndexSet

from helpers import brute_hierarchical, brute_remainder

digits = st.lists(st.integers(0, 3), max_size=8).map(tuple).map(Multiindex)


def test_parse_render_roundtrip():
    assert Multiindex.parse("v") == EMPTY
    assert Multiindex.parse("213").digits == (2, 1, 3)
    assert Multiindex.parse("213").render() == "213"
    assert EMPTY.render() == "v"


def test_bad_digit_rejected():
    with pytest.raises(ValueError):
        Multiindex((0, 4))


def test_counts_example():
    c = Multiindex.parse("2013").counts()
    assert (c.length, c.s, c.w, c.n_compensated, c.n_tail, c.k) == (4, 1, 1, 1, 1, 2)


def test_drop_operations():
    a = Multiindex.parse("2013")
    assert a.drop_last().render() == "201"
    assert a.drop_first().render() == "013"
    with pytest.raises(ValueError):
        EMPTY.drop_last()
    with pytest.raises(ValueError):
        EMPTY.drop_first()


def test_beta_keeps_jump_digits():
    assert Multiindex.parse("2013").beta().render() == "23"
    assert Multiindex.parse("0101").beta() == EMPTY


def test_ball_at_positions():
    # i counts jump integrators so that i=1 is the last jump digit
    a = Multiindex.parse("213")
    assert a.ball_at(1) is Region.TAIL
    assert a.ball_at(2) is Region.SMALL
    with pytest.raises(ValueError):
        a.ball_at(3)
    with pytest.raises(ValueError):
        Multiindex.parse("010").ball_at(1)


@given(digits, digits)
def test_counts_additive_under_concatenation(a, b):
    ca, cb, cc = a.counts(), b.counts(), a.concat(b).counts()
    assert cc.length == ca.length + cb.length
    assert cc.s == ca.s + cb.s
    assert cc.w == ca.w + cb.w
    assert cc.n_compensated == ca.n_compensated + cb.n_compensated
    assert cc.n_tail == ca.n_tail + cb.n_tail


# frozen listings of the order-1/2 and order-1 sets
A_HALF = ("v", "0", "1", "2", "3")
B_HALF = tuple(f"{i}{j}" for i in range(4) for j in range(4))
A_ONE = ("v", "0", "1", "2", "3",
         "11", "12", "13", "21", "22", "23", "31", "32", "33")
B_ONE = ("00", "01", "02", "03", "10", "20", "30") + tuple(
    f"{i}{jk}" for i in range(4)
    for jk in ("11", "12", "13", "21", "22", "23", "31", "32", "33"))


def test_order_half_listing():
    a = hierarchical_set(0.5)
    assert a.render() == A_HALF
    assert sorted(remainder_set(a).render()) == sorted(B_HALF)
    assert len(remainder_set(a)) == 16


def test_order_one_listing():
    a = hierarchical_set(1)
    assert a.render() == A_ONE
    b = remainder_set(a)
    assert sorted(b.render()) == sorted(B_ONE)
    assert len(b) == 43


@pytest.mark.parametrize("gamma", [0.5, 1, 1.5, 2])
def test_hierarchical_matches_brute_force(gamma):
    two_gamma = int(round(2 * gamma))
    generated = set(hierarchical_set(gamma))
    assert generated == brute_hierarchical(gamma, two_gamma + 1)
    # and no members hide beyond the enumeration bound
    assert all(len(a) <= two_gamma + 1 for a in generated)


@pytest.mark.parametrize("gamma", [0.5, 1, 1.5, 2])
def test_remainder_matches_brute_force(gamma):
    a = hierarchical_set(gamma)
    want = brute_remainder(set(a), a.max_length())
    assert set(remainder_set(a)) == want


@pytest.mark.parametrize("gamma", [0.5, 1, 1.5, 2, 2.5, 3])
def test_hierarchical_closure(gamma):
    a = hierarchical_set(gamma)
    assert a.is_hierarchical()
    pool = set(a)
    for alpha in a:
        if not alpha.is_empty:
            assert alpha.drop_first() in pool


def test_remainder_of_trivial_set():
    b = remainder_set(IndexSet((EMPTY,)))
    assert b.render() == ("0", "1", "2", "3")


def test_remainder_requires_hierarchical():
    with pytest.raises(ValueError):
        remainder_set(IndexSet((Multiindex.parse("01"),)))


def test_remainder_disjoint_and_reachable():
    for gamma in (0.5, 1, 1.5):
        a = hierarchical_set(gamma)
        b = remainder_set(a)
        assert not set(a) & set(b)
        assert all(alpha.drop_first() in set(a) for alpha in b)


def test_bad_gamma_rejected():
    for bad in (0, -1, 0.3, 0.75):
        with pytest.raises(ValueError):
            hierarchical_set(bad)


@given(digits)
def test_subscript_set_size(alpha):
    words = subscript_set(alpha)
    n = alpha.counts().n_compensated
    assert len(words) == 2**n
    assert len(set(words)) == len(words)
    assert all(len(wd) == n for wd in words)


def test_subscript_set_empty_word():
    assert subscript_set(Multiindex.parse("010")) == ((),)
    assert subscript_set(Multiindex.parse("22")) == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_canonical_ordering():
    s = IndexSet((Multiindex.parse("3"), EMPTY, Multiindex.parse("20"),
                  Multiindex.parse("1"), Multiindex.parse("03")))
    assert s.render() == ("v", "1", "3", "03", "20")


def test_membership_predicate_special_branch():
    # '00' has length 2 = zero-count 2 = gamma + 1/2 for gamma = 3/2
    assert in_hierarchical_set(Multiindex.parse("00"), 1.5)
    assert not in_hierarchical_set(Multiindex.parse("00"), 1)
    assert in_hierarchical_set(Multiindex.parse("0"), 0.5)

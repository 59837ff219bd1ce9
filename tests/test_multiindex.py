import pytest

from levystep import hierarchical_set, remainder_set
from levystep.multiindex import in_hierarchical_set, is_hierarchical

from helpers import brute_hierarchical, brute_remainder


def render(words) -> tuple[str, ...]:
    """The words as the literature prints them: the empty word as 'v'."""
    return tuple(w or "v" for w in words)


def test_bad_digit_rejected():
    with pytest.raises(ValueError):
        remainder_set(("", "4"))
    with pytest.raises(ValueError):
        in_hierarchical_set("04", 1)


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
    assert render(a) == A_HALF
    assert sorted(remainder_set(a)) == sorted(B_HALF)
    assert len(remainder_set(a)) == 16


def test_order_one_listing():
    a = hierarchical_set(1)
    assert render(a) == A_ONE
    b = remainder_set(a)
    assert sorted(b) == sorted(B_ONE)
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
    want = brute_remainder(set(a), max(map(len, a)))
    assert set(remainder_set(a)) == want


@pytest.mark.parametrize("gamma", [0.5, 1, 1.5, 2, 2.5, 3])
def test_hierarchical_closure(gamma):
    a = hierarchical_set(gamma)
    assert is_hierarchical(a)
    pool = set(a)
    for alpha in a:
        if alpha:
            assert alpha[1:] in pool


def test_remainder_of_trivial_set():
    assert remainder_set(("",)) == ("0", "1", "2", "3")


def test_remainder_requires_hierarchical():
    with pytest.raises(ValueError):
        remainder_set(("01",))


def test_remainder_disjoint_and_reachable():
    for gamma in (0.5, 1, 1.5):
        a = hierarchical_set(gamma)
        b = remainder_set(a)
        assert not set(a) & set(b)
        assert all(alpha[1:] in set(a) for alpha in b)


def test_bad_gamma_rejected():
    for bad in (0, -1, 0.3, 0.75):
        with pytest.raises(ValueError):
            hierarchical_set(bad)


def test_canonical_ordering():
    a = hierarchical_set(1.5)
    assert list(a) == sorted(a, key=lambda w: (len(w), w))
    assert remainder_set(("", "3", "1")) == (
        "0", "2", "01", "03", "11", "13", "21", "23", "31", "33")


def test_membership_predicate_special_branch():
    # '00' has length 2 = zero-count 2 = gamma + 1/2 for gamma = 3/2
    assert in_hierarchical_set("00", 1.5)
    assert not in_hierarchical_set("00", 1)
    assert in_hierarchical_set("0", 0.5)

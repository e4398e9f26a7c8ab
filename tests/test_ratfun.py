import pytest

from conftest import graph
from propcore import bordered_hilbert_series, poly_divexact, poly_gcd
from yoneda_cps import ext
from yoneda_cps.ratfun import shortest_recurrence


def test_divexact_exact_quotient():
    # (2 + 3y)(1 - y + y^2) = 2 + y - y^2 + 3y^3
    assert poly_divexact([2, 1, -1, 3], [1, -1, 1]) == [2, 3]
    assert poly_divexact([], [5]) == []


@pytest.mark.parametrize("a,b", [([1], [2]), ([1, 0, 1], [1, 1])])
def test_divexact_rejects_inexact_division(a, b):
    # 1/2 is not integral; 1 + y^2 = (1 + y)(y - 1) + 2 leaves a remainder
    with pytest.raises(AssertionError):
        poly_divexact(a, b)


def test_gcd_is_primitive_with_positive_lead():
    # 6(1 + y)(2 - y) and 4(1 + y)(3 + y)
    assert poly_gcd([12, 6, -6], [12, 16, 4]) == [1, 1]
    assert poly_gcd([-4, -6], []) == [2, 3]
    assert poly_gcd([3, 5], [7]) == [1]



def test_recurrence_of_fibonacci():
    assert tuple(shortest_recurrence([1, 1, 2, 3, 5, 8, 13, 21])) == (1, -1, -1)


def test_recurrence_of_an_eventually_zero_sequence():
    # 1 + 2y + 5y^2 is its own generating function, with denominator 1
    assert tuple(shortest_recurrence([1, 2, 5, 0, 0, 0, 0, 0])) == (1,)
    assert tuple(shortest_recurrence([0] * 6)) == (1,)


def test_recurrence_of_the_natural_numbers():
    # sum (k + 1) y^k = 1 / (1 - y)^2
    assert tuple(shortest_recurrence(range(1, 9))) == (1, -2, 1)


def test_recurrence_with_a_late_first_term():
    # y^3 / (1 - 2y): three zeros, then powers of 2
    seq = [0, 0, 0, 1, 2, 4, 8, 16, 32, 64]
    assert tuple(shortest_recurrence(seq)) == (1, -2)


def test_recurrence_is_primitive_with_positive_constant_term():
    # 2, 1: the shortest recurrence is 1 - y/2, returned as 2 - y, so
    # its constant term shows that it is not integral
    assert shortest_recurrence([2, 1]) == [2, -1]
    # a negative first discrepancy still gives constant term 1
    assert shortest_recurrence([-1, -1, -1, -1]) == [1, -1]


def test_hilbert_series_rejects_a_perturbed_walk_count(monkeypatch):
    """One tail walk count raised by 1 must trip the integrality check
    or give a series the bordered reference disagrees with.  The last
    count asked for sits at index k + 2 k_cyc >= k + 1 of the quotient's
    counts, in the tail."""
    walk_counts = ext._walk_counts
    g = graph("abc_cdab_bcda")
    raised = []    # (index, class count) of each perturbed count

    def perturbed(succ, starts, length):
        h = walk_counts(succ, starts, length)
        h[length - 1] += 1
        raised.append((length - 1, len(succ)))
        return h

    monkeypatch.setattr(ext, "_walk_counts", perturbed)
    try:
        got = ext.hilbert_series(g)
    except AssertionError:
        got = None
    [(index, k)] = raised
    assert index >= k + 1
    if got is not None:
        assert got.to_json() != bordered_hilbert_series(g).to_json()

import pytest

from yoneda_cps.ratfun import poly_divexact, poly_gcd


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


"""Exact rational functions in one variable with integer coefficients.

Polynomials are coefficient lists, constant term first.  All arithmetic
stays in the integers: determinants use Bareiss elimination, whose
every division is exact; gcds use a primitive pseudo-remainder
sequence; and exact division and series expansion divide by one
leading or constant coefficient at a time, asserting a zero remainder.
"""

from dataclasses import dataclass
from math import gcd

__all__ = [
    "RationalFunction",
    "poly_sub",
    "poly_mul",
    "poly_divexact",
    "poly_gcd",
    "bareiss_det",
    "make_rational",
]


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_sub(a, b):
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                 for i in range(n)])


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def poly_divexact(a, b):
    """a / b when the division is exact; assertion failure otherwise."""
    a = trim(a)
    b = trim(b)
    assert b, "division by the zero polynomial"
    lead = b[-1]
    quot = [0] * max(len(a) - len(b) + 1, 0)
    for shift in range(len(quot) - 1, -1, -1):
        # a remainder left at the top position stays there to the end
        c = a[shift + len(b) - 1] // lead
        if c:
            quot[shift] = c
            for i, bc in enumerate(b):
                a[shift + i] -= c * bc
    assert not any(a), "inexact polynomial division"
    return trim(quot)


def content(p):
    g = 0
    for c in p:
        g = gcd(g, abs(c))
    return g or 1


def _primitive(p):
    """p divided by its content, with a positive leading coefficient."""
    g = content(p)
    if p and p[-1] < 0:
        g = -g
    return [c // g for c in p]


def _pseudo_remainder(a, b):
    """A nonzero integer multiple of the remainder of a by b."""
    r = list(a)
    lead = b[-1]
    while len(r) >= len(b):
        g = gcd(r[-1], lead)
        scale, c = lead // g, r[-1] // g
        shift = len(r) - len(b)
        r = [x * scale for x in r]
        for i, bc in enumerate(b):
            r[shift + i] -= c * bc
        r = trim(r)
    return r


def poly_gcd(a, b):
    """Primitive integer gcd, positive leading coefficient."""
    a, b = trim(a), trim(b)
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return _primitive(a)


def bareiss_det(matrix):
    """Determinant of a matrix of integer polynomials, fraction free."""
    n = len(matrix)
    if n == 0:
        return [1]
    m = [[trim(e) for e in row] for row in matrix]
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return []
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = poly_sub(poly_mul(m[i][j], m[k][k]),
                               poly_mul(m[i][k], m[k][j]))
                m[i][j] = poly_divexact(num, prev) if num else []
            m[i][k] = []
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return [-c for c in det] if sign < 0 else det


@dataclass(frozen=True)
class RationalFunction:
    numerator: tuple
    denominator: tuple

    def series(self, order):
        """Coefficients 0..order of the power series expansion."""
        num, den = list(self.numerator), list(self.denominator)
        assert den and den[0] != 0, "denominator has no constant term"
        out = []
        for k in range(order + 1):
            acc = num[k] if k < len(num) else 0
            for t in range(1, min(k, len(den) - 1) + 1):
                acc -= den[t] * out[k - t]
            c, rem = divmod(acc, den[0])
            assert rem == 0, "series is not integral"
            out.append(c)
        return out

    def to_json(self):
        return {
            "numerator": list(self.numerator),
            "denominator": list(self.denominator),
        }

    def __str__(self):
        def fmt(p):
            if not p:
                return "0"
            terms = []
            for i, c in enumerate(p):
                if c == 0:
                    continue
                if i == 0:
                    terms.append(str(c))
                else:
                    mag = "" if abs(c) == 1 else str(abs(c)) + "*"
                    base = f"{mag}y" if i == 1 else f"{mag}y^{i}"
                    terms.append(("- " if c < 0 else "+ ") + base
                                 if terms else ("-" if c < 0 else "") + base)
            return " ".join(terms) if terms else "0"
        if list(self.denominator) == [1]:
            return fmt(self.numerator)
        return f"({fmt(self.numerator)}) / ({fmt(self.denominator)})"


def make_rational(num, den):
    num, den = trim(num), trim(den)
    assert den, "zero denominator"
    if not num:
        return RationalFunction((), (1,))
    g = poly_gcd(num, den)
    if len(g) > 1 or (g and g[0] != 1):
        num = poly_divexact(num, g)
        den = poly_divexact(den, g)
    c = gcd(content(num), content(den))
    if c > 1:
        num = [x // c for x in num]
        den = [x // c for x in den]
    lead = den[0] if den[0] != 0 else den[-1]
    if lead < 0:
        num = [-x for x in num]
        den = [-x for x in den]
    return RationalFunction(tuple(num), tuple(den))

"""Exact rational functions in one variable with integer coefficients.

Polynomials are coefficient lists, constant term first.  All arithmetic
stays in the integers.  The shortest linear recurrence of a sequence is
found fraction free and returned as a primitive integer polynomial; a
caller that needs the recurrence with constant term 1 checks that this
constant is 1, which Fatou's lemma guarantees for an integer sequence
with a rational generating function.
"""

from math import gcd

from .presentation import Record

__all__ = [
    "RationalFunction",
    "shortest_recurrence",
]


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def shortest_recurrence(seq):
    """The shortest linear recurrence of `seq` (Berlekamp–Massey), as a
    trimmed primitive integer polynomial C with C[0] > 0.

    Once `seq` holds twice as many terms as the recurrence is long,
    C / C[0] is the denominator of its generating function in lowest
    terms, and it is integral exactly when C[0] = 1.  The updates are
    fraction free: `conn` and `prev` are integer multiples of the
    current and the last kept recurrence, `prev_disc` is the discrepancy
    `prev` had, and each step divides out the content.
    """
    conn, prev = [1], [1]
    length, shift, prev_disc = 0, 1, 1
    for k in range(len(seq)):
        disc = sum(conn[i] * seq[k - i]
                   for i in range(min(length + 1, len(conn))))
        if disc == 0:
            shift += 1
            continue
        old = conn
        conn = [prev_disc * c for c in conn]
        conn += [0] * (len(prev) + shift - len(conn))
        for i, c in enumerate(prev):
            conn[i + shift] -= disc * c
        g = gcd(*conn) if conn[0] > 0 else -gcd(*conn)
        conn = [c // g for c in conn]
        if 2 * length <= k:
            length, prev, prev_disc, shift = k + 1 - length, old, disc, 1
        else:
            shift += 1
    return trim(conn)


class RationalFunction(Record):
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

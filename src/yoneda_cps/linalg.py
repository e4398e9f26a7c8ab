"""Rank computations over GF(2) and GF(p).

GF(2) rows are bitmasks; GF(p) rows are sparse column->value dicts.
Both eliminations are destructive on copies of the input.
"""

import math

__all__ = ["gf2_rank", "gfp_rank", "is_small_prime"]


def is_small_prime(p):
    """Whether p is a prime below 2^31: ranks modulo a composite mean
    nothing, even when `gfp_rank` meets only invertible pivots."""
    return 2 <= p < 2 ** 31 and all(p % d for d in range(2, math.isqrt(p) + 1))


def gf2_rank(rows):
    pivots = {}  # lowest set bit -> row
    for row in rows:
        while (low := row & -row) in pivots:
            row ^= pivots[low]
        if row:
            pivots[low] = row
    return len(pivots)


def gfp_rank(rows, p):
    """Rank modulo the prime p of sparse rows, column -> value dicts.

    A pivot row is kept without its pivot column, scaled so that the
    pivot is 1; a row whose pivot is already 1 is kept as it is.  An
    entry that cancels is deleted, so every kept value is nonzero.
    """
    pivots = {}  # pivot column -> the rest of its normalized row
    for row in rows:
        row = {c: r for c, v in row.items() if (r := v % p)}
        while row:
            col = min(row)
            factor = row.pop(col)
            prow = pivots.get(col)
            if prow is None:
                if factor != 1:
                    inv = pow(factor, -1, p)
                    row = {c: v * inv % p for c, v in row.items()}
                pivots[col] = row
                break
            for c, v in prow.items():
                # factor * v is nonzero mod p, so nv is 0 only if c is in row
                nv = (row.get(c, 0) - factor * v) % p
                if nv:
                    row[c] = nv
                else:
                    del row[c]
    return len(pivots)

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
    rank = 0
    pivots = {}  # column -> normalized row dict
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            col = min(row)
            if col in pivots:
                factor = row[col]
                prow = pivots[col]
                for c, v in prow.items():
                    nv = (row.get(c, 0) - factor * v) % p
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
            else:
                inv = pow(row[col], -1, p)
                pivots[col] = {c: (v * inv) % p for c, v in row.items()}
                rank += 1
                break
    return rank

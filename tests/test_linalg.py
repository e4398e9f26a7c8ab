import random

import pytest

from dense_oracle import gfp_rref
from yoneda_cps.linalg import gf2_rank, gfp_rank, is_small_prime


@pytest.mark.parametrize("seed", range(60))
def test_gf2_rank_agrees_with_gfp_rank_and_dense_rref(seed):
    rng = random.Random(seed)
    n_cols = rng.randint(1, 40)
    density = rng.random()
    mat = [[int(rng.random() < density) for _ in range(n_cols)]
           for _ in range(rng.randint(0, 30))]
    mat += [[0] * n_cols for _ in range(rng.randint(0, 3))]
    mat += [list(row) for row in rng.sample(mat, min(len(mat), 3))]
    rng.shuffle(mat)
    bitmasks = [sum(1 << c for c, v in enumerate(row) if v) for row in mat]
    dicts = [{c: v for c, v in enumerate(row) if v} for row in mat]
    rank = len(gfp_rref(mat, n_cols, 2)[1])
    assert gf2_rank(bitmasks) == gfp_rank(dicts, 2) == rank


@pytest.mark.parametrize("p", [3, 5, 32003, 2 ** 31 - 1])
@pytest.mark.parametrize("seed", range(40))
def test_gfp_rank_agrees_with_dense_rref(p, seed):
    """Sparse rows with entries of any size and sign, so that pivots
    other than 1 and cancelling entries occur, and with empty rows,
    zero entries, duplicate rows and multiples of rows mixed in."""
    rng = random.Random(seed)
    n_cols = rng.randint(1, 30)
    density = rng.random()
    small = rng.random() < 0.5    # entries in -2..2 cancel often
    mat = [[(rng.randint(-2, 2) if small else rng.randrange(-p, 2 * p))
            if rng.random() < density else 0 for _ in range(n_cols)]
           for _ in range(rng.randint(0, 25))]
    mat += [[0] * n_cols for _ in range(rng.randint(0, 3))]
    for row in rng.sample(mat, min(len(mat), 4)):
        mat.append([v * rng.randint(1, p - 1) for v in row])
    mat += [list(row) for row in rng.sample(mat, min(len(mat), 2))]
    rng.shuffle(mat)
    dicts = [{c: v for c, v in enumerate(row) if v or rng.random() < 0.1}
             for row in mat]
    before = [dict(row) for row in dicts]
    assert gfp_rank(dicts, p) == len(gfp_rref(mat, n_cols, p)[1])
    assert dicts == before    # the input rows are left as they were


def test_gf2_rank_edge_cases():
    assert gf2_rank([]) == 0
    assert gf2_rank([0, 0]) == 0
    assert gf2_rank([0b101, 0b101, 0b011, 0b110]) == 2
    assert gf2_rank([1 << 200, (1 << 200) | 1, 1]) == 2


def test_is_small_prime():
    primes = [p for p in range(-3, 60) if is_small_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      47, 53, 59]
    assert is_small_prime(32003) and is_small_prime(2 ** 31 - 1)
    assert not is_small_prime(32003 * 3) and not is_small_prime(2 ** 31 + 11)


def test_gfp_rank_raises_on_a_pivot_with_no_inverse():
    with pytest.raises(ValueError):
        gfp_rank([{0: 2}, {0: 3}], 6)

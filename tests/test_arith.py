"""Integer helpers: primality, factorization, exact square roots, GF(p) rank."""

from __future__ import annotations

import random

from oracles import gfp_rank

from drackn.arith import (
    divisors,
    factorize,
    gfp_rref,
    is_prime,
    odd_prime_divisors,
    sqrt_exact,
    squarefree_split,
)

PRIMES_BELOW_60 = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59}


def test_is_prime_small_range():
    for n in range(-3, 60):
        assert is_prime(n) == (n in PRIMES_BELOW_60)


def test_is_prime_larger():
    assert is_prime(7919)
    assert not is_prime(7917)  # 3 * 29 * 91
    assert is_prime(2**13 - 1)
    assert not is_prime(2**11 - 1)  # 23 * 89


def test_factorize_reconstructs():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 10**6)
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_divisors_sorted_and_complete():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]
    d = divisors(360)
    assert d == sorted(d)
    assert all(360 % x == 0 for x in d)
    assert len(d) == 24


def test_sqrt_exact_and_perfect_square():
    for k in range(50):
        assert sqrt_exact(k * k) == k
    assert sqrt_exact(2) is None
    assert sqrt_exact(20) is None
    assert sqrt_exact(-4) is None
    big = (10**9 + 7) ** 2
    assert sqrt_exact(big) == 10**9 + 7
    assert sqrt_exact(big - 1) is None


def test_odd_prime_divisors():
    assert odd_prime_divisors(1) == []
    assert odd_prime_divisors(8) == []
    assert odd_prime_divisors(12) == [3]
    assert odd_prime_divisors(90) == [3, 5]


def test_squarefree_split():
    # n = square * squarefree
    for n in (1, 2, 8, 12, 45, 49, 360):
        sq, sf = squarefree_split(n)
        assert sq * sq * sf == n
        # sf must carry no square factor
        for p in factorize(sf):
            assert sf % (p * p) != 0


def test_gfp_rref_identity_and_rank():
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    rows, pivots = gfp_rref(ident, 5)
    assert rows == ident
    assert pivots == [0, 1, 2]
    assert gfp_rank(ident, 5) == 3


def test_gfp_rank_dependent_rows():
    # second row is twice the first mod 7
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert gfp_rank(rows, 7) == 2
    # over GF(2), [1,1] + [1,1] = 0
    assert gfp_rank([[1, 1], [1, 1]], 2) == 1
    assert gfp_rank([[0, 0], [0, 0]], 2) == 0


def test_gfp_rref_is_reduced():
    rng = random.Random(11)
    for p in (2, 3, 5):
        for _ in range(20):
            rows = [[rng.randrange(p) for _ in range(4)] for _ in range(3)]
            red, pivots = gfp_rref(rows, p)
            # pivot columns hold an identity block
            for i, col in enumerate(pivots):
                assert red[i][col] == 1
                for j in range(len(red)):
                    if j != i:
                        assert red[j][col] == 0
            # a second pass changes nothing
            again, again_pivots = gfp_rref(red, p)
            assert again == red and again_pivots == pivots

"""Small exact integer helpers used throughout the library."""

from __future__ import annotations

from math import isqrt


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def sqrt_exact(n: int) -> int | None:
    """Integer square root of ``n`` if ``n`` is a perfect square, else None."""
    if n < 0:
        return None
    s = isqrt(n)
    return s if s * s == n else None


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of ``n >= 1`` by trial division."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of ``n >= 1``, sorted ascending."""
    small, large = [], []
    f = 1
    while f * f <= n:
        if n % f == 0:
            small.append(f)
            if f != n // f:
                large.append(n // f)
        f += 1
    return small + large[::-1]


def odd_prime_divisors(n: int) -> list[int]:
    return sorted(p for p in factorize(n) if p % 2 == 1)


def gfp_rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over GF(p); returns (nonzero rows, pivot cols)."""
    work = [[x % p for x in row] for row in rows]
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][col], p - 2, p)
        work[rank] = [(x * inv) % p for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                coef = work[i][col]
                work[i] = [(x - coef * y) % p for x, y in zip(work[i], work[rank])]
        pivots.append(col)
        rank += 1
    return work[:rank], pivots


def squarefree_split(n: int) -> tuple[int, int]:
    """Write ``n = s*s * m`` with ``m`` squarefree; returns ``(s, m)``."""
    if n < 0:
        raise ValueError("squarefree_split expects n >= 0")
    if n == 0:
        return 0, 0
    s, m = 1, 1
    for p, e in factorize(n).items():
        s *= p ** (e // 2)
        if e % 2:
            m *= p
    return s, m

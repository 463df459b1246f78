"""The fields GF(2^k), k <= 11, on integer element indices.

GF(2^k) is GF(2)[x] modulo the fixed irreducible ``MODULI[k]``.  The
element a_0 + a_1 x + ... + a_{k-1} x^(k-1) has the index whose binary
digits are a_0 a_1 ... a_{k-1}, the constant term most significant.  So the
indices run over the coefficient tuples in lexicographic order, addition is
XOR, 1 has index 2^(k-1) and x^i has index 2^(k-1-i).  Products are k
shift-and-reduce steps over numpy arrays of indices; no table is built
until a caller asks for one.
"""

from __future__ import annotations

from . import np
from .errors import UnsupportedError

#: Modulus coefficients low -> high (monic).  For k <= 8 the standard
#: minimal-weight irreducibles (k = 8 is the AES polynomial), above that
#: the lexicographically smallest by low coefficients.  GF(2) itself is
#: read modulo x + 1, so that x is 1 there.
MODULI: dict[int, tuple[int, ...]] = {
    1: (1, 1),                                # x + 1
    2: (1, 1, 1),                             # x^2 + x + 1
    3: (1, 1, 0, 1),                          # x^3 + x + 1
    4: (1, 1, 0, 0, 1),                       # x^4 + x + 1
    5: (1, 0, 1, 0, 0, 1),                    # x^5 + x^2 + 1
    6: (1, 1, 0, 0, 0, 0, 1),                 # x^6 + x + 1
    7: (1, 1, 0, 0, 0, 0, 0, 1),              # x^7 + x + 1
    8: (1, 1, 0, 1, 1, 0, 0, 0, 1),           # x^8 + x^4 + x^3 + x + 1
    9: (1, 1, 0, 0, 0, 0, 0, 0, 0, 1),        # x^9 + x + 1
    10: (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),    # x^10 + x^3 + 1
    11: (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), # x^11 + x^2 + 1
}


def _modulus(k: int) -> tuple[int, ...]:
    if k not in MODULI:
        raise UnsupportedError(f"GF(2^{k}) has no fixed modulus: the degree must be 1 to 11")
    return MODULI[k]


def coeffs(e: int, k: int) -> tuple[int, ...]:
    """The coefficient tuple (a_0, ..., a_{k-1}) of the index ``e``."""
    return tuple(int(b) for b in format(e, f"0{k}b"))


def mul(x, y, k: int) -> np.ndarray:
    """x * y in GF(2^k), broadcast over arrays of indices: Horner's rule
    over the coefficients of y, highest degree (bit 0) first.  Times x is a
    right shift, and the x^k that falls off bit 0 is reduced to the low
    terms of the modulus."""
    low = int("".join(map(str, _modulus(k)[:-1])), 2)  # x^k as an index
    x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
    acc = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=np.int64)
    for j in range(k):
        acc = (acc >> 1) ^ ((acc & 1) * low) ^ (x * ((y >> j) & 1))
    return acc


def _evaluate(poly, x, k: int) -> np.ndarray:
    """sum_i poly[i] x^i in GF(2^k) for 0/1 coefficients (or 0/1 arrays),
    low degree first."""
    acc = np.zeros_like(np.asarray(x, dtype=np.int64))
    for c in reversed(poly):
        acc = mul(acc, x, k) ^ (np.asarray(c, dtype=np.int64) << (k - 1))
    return acc


def embedding(t: int, k: int) -> np.ndarray:
    """emb[s]: the index in GF(2^k) of element s of GF(2^t), for t | k.

    The generator of GF(2^t) goes to the smallest root of its modulus,
    found by evaluating the modulus on every index at once.  A root of the
    same irreducible polynomial extends to a field embedding, and the
    smallest one makes it deterministic.
    """
    if k % t:
        raise UnsupportedError(f"GF(2^{t}) is not a subfield of GF(2^{k})")
    root = int(np.argmax(_evaluate(_modulus(t), np.arange(1 << k), k) == 0))
    s = np.arange(1 << t)
    return _evaluate([(s >> (t - 1 - i)) & 1 for i in range(t)], root, k)

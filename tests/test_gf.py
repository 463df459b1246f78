"""GF(2^k) on element indices (``drackn.gf``) against the tuple-coefficient
oracle ``gf_oracle``, and the oracle's own construction, arithmetic,
Frobenius and embeddings."""

from __future__ import annotations

import random
from itertools import product

import numpy as np
import pytest
from gf_oracle import (
    FFElement,
    FiniteField,
    default_modulus,
    embed_subfield,
    index_of,
    is_irreducible,
)

from drackn import gf
from drackn.constructions import default_skew
from drackn.errors import GroupMismatchError, UnsupportedError


def test_moduli_are_the_oracle_defaults():
    assert gf.MODULI[1] == (1, 1)
    for k in range(2, 12):
        assert gf.MODULI[k] == default_modulus(2, k), k
        assert is_irreducible(gf.MODULI[k], 2), k


def test_indices_are_coefficient_bits():
    for k in range(1, 8):
        els = list(FiniteField(2, k).elements())
        assert [index_of(e) for e in els] == list(range(2**k))
        assert [gf.coeffs(i, k) for i in range(2**k)] == [e.coeffs for e in els]


def test_every_product_matches_the_oracle():
    for k in range(1, 8):
        els = list(FiniteField(2, k).elements())
        want = [[index_of(x * y) for y in els] for x in els]
        q = np.arange(2**k)
        assert gf.mul(q[:, None], q, k).tolist() == want, k


def test_every_basis_row_matches_the_oracle():
    for k in range(1, 11):
        K = FiniteField(2, k)
        els = list(K.elements())
        basis = [els[1 << (k - 1 - a)] for a in range(k)]
        assert basis == [K.gen**a for a in range(k)]
        want = [[index_of(e * y) for y in els] for e in basis]
        got = gf.mul([[index_of(e)] for e in basis], np.arange(2**k), k)
        assert got.tolist() == want, k


def test_every_embedding_matches_the_oracle():
    for k in range(1, 11):
        for t in range(1, k + 1):
            if k % t == 0:
                sub, big = FiniteField(2, t), FiniteField(2, k)
                emb = embed_subfield(sub, big)
                want = [index_of(emb[s]) for s in sub.elements()]
                assert gf.embedding(t, k).tolist() == want, (t, k)


def test_fields_stop_at_degree_11():
    assert gf.mul(3, 5, 11).shape == ()
    with pytest.raises(UnsupportedError, match="GF\\(2\\^12\\) has no fixed modulus"):
        gf.mul(3, 5, 12)
    with pytest.raises(UnsupportedError, match="GF\\(2\\^12\\) has no fixed modulus"):
        default_skew(1, 12)  # the polynomial search used to build it
    with pytest.raises(UnsupportedError):
        gf.embedding(2, 3)


def test_is_irreducible_gf2():
    # x^2 + x + 1 is irreducible over GF(2); x^2 + 1 = (x+1)^2 is not
    assert is_irreducible((1, 1, 1), 2)
    assert not is_irreducible((1, 0, 1), 2)
    # x^3 + x + 1 irreducible, x^3 + x^2 + x + 1 = (x+1)(x^2+1) not
    assert is_irreducible((1, 1, 0, 1), 2)
    assert not is_irreducible((1, 1, 1, 1), 2)


def test_prime_field_arithmetic():
    F = FiniteField(7)
    a, b = F.scalar(3), F.scalar(5)
    assert (a + b).coeffs == (1,)
    assert (a * b).coeffs == (1,)
    assert a.inverse() * a == F.one
    assert (-a).coeffs == (4,)


def test_field_size_and_distinct_elements():
    # default moduli ship only for characteristic 2; GF(3^2) needs x^2 + 1
    for p, t, mod in ((2, 1, None), (2, 3, None), (3, 2, (1, 0, 1)), (5, 1, None)):
        F = FiniteField(p, t, modulus=mod) if mod else FiniteField(p, t)
        els = list(F.elements())
        assert len(els) == p**t
        assert len(set(els)) == p**t


def test_char2_addition_is_involution():
    F = FiniteField(2, 4)
    for e in F.elements():
        assert (e + e).is_zero()
        assert -e == e


def test_field_axioms_random():
    rng = random.Random(13)
    for p, t, mod in ((2, 3, None), (3, 2, (1, 0, 1))):
        F = FiniteField(p, t, modulus=mod) if mod else FiniteField(p, t)
        els = list(F.elements())
        for _ in range(40):
            a, b, c = (rng.choice(els) for _ in range(3))
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            if not a.is_zero():
                assert a * a.inverse() == F.one


def test_multiplicative_group_order():
    F = FiniteField(2, 4)
    q = F.order
    for e in F.elements():
        if e.is_zero():
            continue
        assert e ** (q - 1) == F.one


def test_frobenius_is_additive_automorphism():
    F = FiniteField(2, 4)
    els = list(F.elements())
    for a in els[:8]:
        for b in els[:8]:
            assert (a + b).frobenius() == a.frobenius() + b.frobenius()
            assert (a * b).frobenius() == a.frobenius() * b.frobenius()
    # t-fold Frobenius returns to the identity map
    for a in els:
        assert a.frobenius(4) == a
        assert a.frobenius(2).frobenius(2) == a


def test_frobenius_fixes_prime_subfield():
    F = FiniteField(2, 3)
    assert F.zero.frobenius() == F.zero
    assert F.one.frobenius() == F.one


def test_embed_subfield_is_field_homomorphism():
    sub = FiniteField(2, 2)
    big = FiniteField(2, 4)
    emb = embed_subfield(sub, big)
    assert len(emb) == 4
    assert emb[sub.zero] == big.zero
    assert emb[sub.one] == big.one
    for a, b in product(sub.elements(), repeat=2):
        assert emb[a + b] == emb[a] + emb[b]
        assert emb[a * b] == emb[a] * emb[b]


def test_embed_subfield_deterministic():
    sub = FiniteField(2, 2)
    big = FiniteField(2, 4)
    assert embed_subfield(sub, big) == embed_subfield(sub, big)


def test_embed_requires_divisible_degree():
    with pytest.raises(Exception):
        embed_subfield(FiniteField(2, 2), FiniteField(2, 3))


def test_mixing_fields_raises():
    a = FiniteField(2, 2).one
    b = FiniteField(2, 3).one
    with pytest.raises(GroupMismatchError):
        a + b


def test_element_validation():
    F = FiniteField(2, 3)
    with pytest.raises(ValueError):
        F.element((1, 0))  # wrong length
    assert F.element((3, 1, 0)) == F.element((1, 1, 0))  # reduced mod p


def test_bad_modulus_rejected():
    with pytest.raises(ValueError):
        FiniteField(2, 2, modulus=(1, 0, 1))  # x^2 + 1 reducible


def test_gen_satisfies_modulus():
    F = FiniteField(2, 3)  # default modulus x^3 + x + 1
    x = F.gen
    mod = F.modulus
    acc = F.zero
    for k, c in enumerate(mod):
        if c:
            acc = acc + F.scalar(c) * x**k
    assert acc.is_zero()


def test_ffelement_hashable_frozen():
    F = FiniteField(2, 2)
    s = {e for e in F.elements()}
    assert len(s) == 4
    assert FFElement(F, (1, 0)) in s

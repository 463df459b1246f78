"""Abelian groups, characters, and the regular expansion."""

from __future__ import annotations

import random

import networkx as nx
import numpy as np
import pytest
from oracles import subgroup_closure

from drackn.constructions import thas_somma
from drackn.covers import ArcMatrix
from drackn.cyclotomic import CycNum
from drackn.errors import GroupMismatchError, UnsupportedError
from drackn.groups import (
    AbelianGroup,
    Character,
    char_apply,
    characters_of,
    regular_expand,
)

Z3 = AbelianGroup((3,))
Z2x2 = AbelianGroup((2, 2))


def test_group_basics():
    g = AbelianGroup((2, 3))
    assert g.order == 6
    assert g.rank == 2
    assert g.identity == (0, 0)
    assert g.exponent == 6
    assert g.prime_exponent is None
    assert Z3.prime_exponent == 3
    assert Z2x2.prime_exponent == 2


def test_trivial_group():
    t = AbelianGroup(())
    assert t.order == 1
    assert t.elements() == ((),)
    assert t.identity == ()
    assert t.exponent == 1


def test_order_below_two_rejected():
    with pytest.raises(ValueError):
        AbelianGroup((1,))
    with pytest.raises(ValueError):
        AbelianGroup((3, 0))


def test_elements_lex_identity_first():
    els = Z2x2.elements()
    assert els == ((0, 0), (0, 1), (1, 0), (1, 1))
    for idx, el in enumerate(els):
        assert Z2x2.index(el) == idx
        assert Z2x2.element(idx) == el


def test_group_ops_random():
    rng = random.Random(17)
    g = AbelianGroup((4, 5))
    els = g.elements()
    for _ in range(30):
        a, b = rng.choice(els), rng.choice(els)
        assert g.sub(g.add(a, b), b) == a
        assert g.add(a, g.neg(a)) == g.identity


@pytest.mark.parametrize("orders", [(), (2,), (3,), (2, 2), (4, 5), (3, 3, 2)])
def test_index_tables_match_tuple_arithmetic(orders):
    g = AbelianGroup(orders)
    els = g.elements()
    add, neg = g.add_table(), g.neg_table()
    assert add.shape == (g.order, g.order) and neg.shape == (g.order,)
    assert not add.flags.writeable and not neg.flags.writeable
    for i, a in enumerate(els):
        assert els[neg[i]] == g.neg(a)
        assert [els[k] for k in add[i]] == [g.add(a, b) for b in els]
    # index_array reduces each coordinate mod its order, like coerce
    shifted = [tuple(x + 3 * d for x, d in zip(el, orders)) for el in els]
    assert g.index_array(np.array(shifted).reshape(len(els), len(orders))).tolist() == list(
        range(g.order)
    )


def test_coerce_length_mismatch():
    with pytest.raises(GroupMismatchError):
        Z3.coerce((1, 2))
    assert Z3.coerce((5,)) == (2,)


def test_characters_count_and_trivial_first():
    chars = characters_of(Z2x2)
    assert len(chars) == 4
    assert chars[0].is_trivial()
    assert sum(1 for c in chars if c.is_trivial()) == 1


def test_character_orthogonality():
    for g in (Z3, Z2x2, AbelianGroup((3, 3))):
        for chi in characters_of(g):
            total = sum(
                (chi.value(el) for el in g.elements()), CycNum.zero(g.prime_exponent)
            )
            if chi.is_trivial():
                assert total == g.order
            else:
                assert total.is_zero()


def test_character_is_homomorphism():
    g = AbelianGroup((5,))
    chi = characters_of(g)[2]
    for a in g.elements():
        for b in g.elements():
            assert chi.value(g.add(a, b)) == chi.value(a) * chi.value(b)


def test_character_needs_prime_exponent():
    g = AbelianGroup((4,))
    with pytest.raises(UnsupportedError):
        Character(g, (1,)).value((1,))


def test_char_apply_hermitian_zero_diag():
    arc = thas_somma(3, 2, 1)
    for chi in characters_of(arc.group)[1:]:
        block = char_apply(arc, chi)
        assert block.is_hermitian()
        assert block.trace().is_zero()


def test_char_apply_group_mismatch():
    arc = thas_somma(3, 2, 1)
    chi = characters_of(Z2x2)[1]
    with pytest.raises(GroupMismatchError):
        char_apply(arc, chi)


def test_regular_expand_shape_and_symmetry():
    arc = thas_somma(3, 2, 1)
    adj = regular_expand(arc)
    assert adj.shape == (27, 27)
    assert (adj == adj.T).all()
    assert (np.diag(adj) == 0).all()
    assert (adj.sum(axis=1) == 8).all()  # degree n-1


def test_regular_expand_smallest_cover_is_cube():
    # the 2-fold cover of K_4 from the symplectic form on GF(2)^2 is Q_3
    arc = thas_somma(2, 2, 1)
    adj = regular_expand(arc)
    g = nx.from_numpy_array(adj)
    assert nx.is_isomorphic(g, nx.hypercube_graph(3))


def test_character_diagonalizes_regular_expansion():
    # summing chi-blocks over all characters recovers r * adjacency on the
    # block structure: check one vertex pair instead, via explicit formula
    arc = thas_somma(3, 2, 1)
    adj = regular_expand(arc)
    n, r = arc.n, arc.group.order
    # vertex (u, g) adjacent to (v, h) iff h - g == f(u,v), u != v
    for u, g in ((0, (0,)), (2, (1,))):
        for v, h in ((1, (0,)), (3, (2,))):
            gi, hi = arc.group.index(g), arc.group.index(h)
            expect = int(u != v and arc.group.sub(h, g) == arc.entry(u, v))
            assert adj[u * r + gi, v * r + hi] == expect


def test_subgroup_closure():
    g = AbelianGroup((2, 2, 2))
    assert subgroup_closure(g, []) == {(0, 0, 0)}
    assert subgroup_closure(g, [(1, 0, 0)]) == {(0, 0, 0), (1, 0, 0)}
    assert len(subgroup_closure(g, [(1, 0, 0), (0, 1, 0)])) == 4
    assert len(subgroup_closure(g, [(1, 1, 0), (0, 1, 1)])) == 4
    z9 = AbelianGroup((9,))
    assert len(subgroup_closure(z9, [(3,)])) == 3
    assert len(subgroup_closure(z9, [(2,)])) == 9


def test_arc_matrix_group_coercion():
    entries = [[None, (4,)], [(2,), None]]
    arc = ArcMatrix(Z3, entries)
    assert arc.entry(0, 1) == (1,)
    assert arc.entry(1, 0) == (2,)

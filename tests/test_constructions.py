"""Cover constructions: form pencils, skew products, and the Hadamard bridge."""

from __future__ import annotations

import numpy as np
import pytest

from drackn.constructions import (
    AlternatingForm,
    GHMatrix,
    LatinSquare,
    SkewProduct,
    cover_to_gh,
    dcff,
    default_latin,
    default_skew,
    gh_to_cover,
    gh_validate,
    standard_symplectic,
    thas_somma,
)
from drackn.covers import drackn_verify
from drackn.errors import (
    CoverStructureError,
    GroupMismatchError,
    UnsupportedError,
    VerificationError,
)
from drackn.gf import FiniteField
from drackn.lines import find_symmetric_conference, lines_to_cover


def params_of(arc):
    p = drackn_verify(arc).params
    return (p.n, p.r, p.c)


def test_symplectic_covers():
    assert params_of(thas_somma(2, 2)) == (4, 2, 2)
    assert params_of(thas_somma(3, 2)) == (9, 3, 3)
    assert params_of(thas_somma(5, 2)) == (25, 5, 5)


def test_standard_symplectic_shape():
    form = standard_symplectic(3, 4)
    assert (form.p, form.m, form.s) == (3, 4, 1)
    # B(e0, e1) = 1, B(e1, e0) = -1
    assert form.apply((1, 0, 0, 0), (0, 1, 0, 0)) == (1,)
    assert form.apply((0, 1, 0, 0), (1, 0, 0, 0)) == (2,)
    with pytest.raises(ValueError):
        standard_symplectic(2, 3)


def test_two_dim_pencil_cover():
    # a rank-2 pencil of nonsingular alternating forms on GF(2)^4:
    # every nonzero combination a*M1 + b*M2 has Pfaffian 1
    m1 = (
        (0, 1, 0, 0),
        (1, 0, 0, 0),
        (0, 0, 0, 1),
        (0, 0, 1, 0),
    )
    m2 = (
        (0, 1, 1, 0),
        (1, 0, 0, 1),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
    )
    form = AlternatingForm(2, 4, 2, (m1, m2))
    assert params_of(thas_somma(2, 4, s=2, form=form)) == (16, 4, 4)


def test_alternating_form_validation():
    with pytest.raises(ValueError) as exc:
        # the zero form pencil is onto nowhere
        AlternatingForm(2, 2, 1, (((0, 0), (0, 0)),))
    assert "not onto at v =" in str(exc.value)
    with pytest.raises(ValueError):
        AlternatingForm(3, 2, 1, (((1, 0), (0, 0)),))  # nonzero diagonal
    with pytest.raises(ValueError):
        AlternatingForm(3, 2, 1, (((0, 1), (1, 0)),))  # 1 + 1 != 0 mod 3
    with pytest.raises(ValueError):
        AlternatingForm(4, 2, 1, (((0, 1), (3, 0)),))  # p not prime
    with pytest.raises(ValueError):
        AlternatingForm(2, 2, 3, ())  # s > m


def test_thas_somma_argument_checks():
    with pytest.raises(UnsupportedError):
        thas_somma(3, 3)  # no default form for odd m
    with pytest.raises(UnsupportedError):
        thas_somma(2, 2, s=2)  # no default form for s > 1
    with pytest.raises(ValueError):
        thas_somma(3, 2, form=standard_symplectic(2, 2))  # wrong field


def test_skew_product_covers():
    assert params_of(dcff(1, 1)) == (4, 2, 2)
    assert params_of(dcff(2, 1)) == (16, 4, 4)
    assert params_of(dcff(1, 3)) == (16, 8, 2)


def test_dcff_argument_checks():
    with pytest.raises(UnsupportedError):
        dcff(1, 2)  # even d
    with pytest.raises(ValueError):
        dcff(0, 1)
    with pytest.raises(ValueError):
        dcff(1, 3, skew=default_skew(1, 1))  # skew product for the wrong (t, d)
    with pytest.raises(ValueError):
        dcff(1, 1, latin=default_latin(2))  # latin square on the wrong subfield


def test_default_skew_validates():
    default_skew(1, 3).validate()
    default_skew(2, 1).validate()


def test_corrupt_skew_table_rejected():
    good = default_skew(1, 3)
    zero_row = tuple(good.field.zero for _ in range(3))
    corrupt = SkewProduct(
        t=1,
        d=3,
        field=good.field,
        subfield=good.subfield,
        table=(zero_row, zero_row, zero_row),
    )
    with pytest.raises(ValueError):
        corrupt.validate()
    with pytest.raises(ValueError):
        SkewProduct(t=1, d=3, field=good.field, subfield=good.subfield, table=(zero_row,))


def test_skew_validation_size_limit():
    big = default_skew(1, 11)  # GF(2^11) has 2048 > 1024 elements
    with pytest.raises(UnsupportedError):
        big.validate()


def test_latin_square_validation():
    F = FiniteField(2, 1)
    z, o = list(F.elements())
    LatinSquare(field=F, table=((z, o), (o, z)))
    with pytest.raises(ValueError):
        LatinSquare(field=F, table=((z, z), (z, z)))  # rows not permutations
    with pytest.raises(ValueError):
        LatinSquare(field=F, table=((z, o), (z, o)))  # not symmetric
    with pytest.raises(ValueError):
        LatinSquare(field=F, table=((z, o),))  # wrong shape
    square = default_latin(2)
    assert square.value(0, 0) == square.field.zero
    assert square.value(1, 2) == square.value(2, 1)


def test_gh_fixture_and_rebuild():
    Z2 = (2,)
    from drackn.groups import AbelianGroup

    G = AbelianGroup(Z2)
    rows = [
        [(0,), (0,), (0,), (0,)],
        [(0,), (0,), (1,), (1,)],
        [(0,), (1,), (0,), (1,)],
        [(0,), (1,), (1,), (0,)],
    ]
    h = GHMatrix(G, rows)
    assert gh_validate(h)
    arc, cert = gh_to_cover(h)
    assert (cert.params.n, cert.params.r, cert.params.c) == (4, 2, 2)
    assert cert.params.delta == -2

    flat = GHMatrix(G, [[(0,)] * 4 for _ in range(4)])
    assert not gh_validate(flat)  # identical rows: differences all hit 0

    odd = GHMatrix(G, [[(0,)] * 3 for _ in range(3)])
    assert not gh_validate(odd)  # order not a multiple of the group order

    with pytest.raises(CoverStructureError):
        GHMatrix(G, [[(0,), (0,)]])  # not square

    # the same matrix as an array of element indices
    assert GHMatrix(G, G.index_array(rows)) == h
    with pytest.raises(GroupMismatchError):
        GHMatrix(G, np.array([[0, 2], [1, 0]]))


def test_gh_to_cover_rejections():
    from drackn.groups import AbelianGroup

    G = AbelianGroup((3,))
    skewed = GHMatrix(G, [[(0,), (1,)], [(1,), (0,)]])
    with pytest.raises(VerificationError) as exc:
        gh_to_cover(skewed)
    assert exc.value.condition == "gh-not-self-adjoint"

    Z2 = AbelianGroup((2,))
    uneven = GHMatrix(Z2, [[(0,), (1,)], [(1,), (1,)]])
    with pytest.raises(VerificationError) as exc:
        gh_to_cover(uneven)
    assert exc.value.condition == "gh-diagonal"

    dull = GHMatrix(Z2, [[(0,), (0,)], [(0,), (0,)]])
    with pytest.raises(VerificationError) as exc:
        gh_to_cover(dull)
    assert exc.value.condition == "gh-row-pairs"


def test_cover_gh_round_trip():
    f = thas_somma(3, 2)
    h = cover_to_gh(f)
    assert gh_validate(h)
    assert h.entry(2, 2) == f.group.identity
    back, cert = gh_to_cover(h)
    assert back == f
    assert (cert.params.n, cert.params.r, cert.params.c) == (9, 3, 3)


@pytest.mark.parametrize(
    "make", [lambda: thas_somma(3, 2), lambda: thas_somma(5, 2), lambda: dcff(1, 3)],
    ids=["ts32", "ts52", "dcff13"],
)
def test_cover_to_gh_satisfies_hadamard_identity(make):
    # cover_to_gh no longer re-checks the identity; gh_validate is the oracle
    f = make()
    h = cover_to_gh(f)
    assert gh_validate(h)
    assert gh_to_cover(h)[0] == f


def test_cover_to_gh_needs_n_equal_rc():
    s = find_symmetric_conference(6, seed=0)
    arc, cert = lines_to_cover(s, 2)
    assert cert.params.delta == 0
    with pytest.raises(UnsupportedError):
        cover_to_gh(arc)

"""Cover constructions: form pencils, skew products, and the Hadamard bridge."""

from __future__ import annotations

import importlib
import itertools
import pkgutil
import random
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from count_routes import SETTINGS, count_route
from gf_oracle import FFElement, FiniteField, embed_subfield
from oracles import gfp_rank

import drackn
from drackn import constructions
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
    standard_symplectic,
    thas_somma,
)
from drackn.covers import ArcMatrix, drackn_verify, normalize
from drackn.errors import (
    CoverStructureError,
    GroupMismatchError,
    UnsupportedError,
    VerificationError,
)
from drackn.groups import AbelianGroup
from drackn.lines import lines_to_cover, paley_conference


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
    assert _apply(form, (1, 0, 0, 0), (0, 1, 0, 0)) == (1,)
    assert _apply(form, (0, 1, 0, 0), (1, 0, 0, 0)) == (2,)
    with pytest.raises(ValueError):
        standard_symplectic(2, 3)


def _pencil_s2() -> AlternatingForm:
    """A rank-2 pencil of nonsingular alternating forms on GF(2)^4: every
    nonzero combination a*M1 + b*M2 has Pfaffian 1."""
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
    return AlternatingForm(2, 4, 2, (m1, m2))


def test_two_dim_pencil_cover():
    assert params_of(thas_somma(2, 4, s=2, form=_pencil_s2())) == (16, 4, 4)


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
    zero_row = (0, 0, 0)
    corrupt = SkewProduct(t=1, d=3, table=(zero_row, zero_row, zero_row))
    with pytest.raises(ValueError):
        corrupt.validate()
    with pytest.raises(ValueError):
        SkewProduct(t=1, d=3, table=(zero_row,))
    for foreign in (8, -1):  # not indices of GF(8)
        table = ((foreign, 0, 0), zero_row, zero_row)
        with pytest.raises(GroupMismatchError):
            SkewProduct(t=1, d=3, table=table)


def test_skew_validation_size_limit():
    big = default_skew(1, 11)  # GF(2^11) has 2048 > 1024 elements
    with pytest.raises(UnsupportedError):
        big.validate()


def test_latin_square_validation():
    LatinSquare(t=1, table=((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        LatinSquare(t=1, table=((0, 0), (0, 0)))  # rows not permutations
    with pytest.raises(ValueError):
        LatinSquare(t=1, table=((0, 1), (0, 1)))  # not symmetric
    with pytest.raises(ValueError):
        LatinSquare(t=1, table=((0, 1),))  # wrong shape
    square = default_latin(2)
    assert square.table[0][0] == 0
    assert square.table[1][2] == square.table[2][1]


# The per-pair loops that the integer tables of ``constructions`` replaced,
# kept as the oracles of the differential tests below; the field arithmetic
# is the tuple-coefficient oracle ``gf_oracle``.
def _apply(form: AlternatingForm, v, w) -> tuple[int, ...]:
    return tuple(
        sum(v[i] * mat[i][j] * w[j] for i in range(form.m) for j in range(form.m))
        % form.p
        for mat in form.mats
    )


def _pairwise_thas_somma(form: AlternatingForm) -> ArcMatrix:
    p, m, s = form.p, form.m, form.s
    vertices = list(itertools.product(range(p), repeat=m))
    n = len(vertices)
    group = AbelianGroup((p,) * s)
    entries: list[list] = [[None] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            val = _apply(form, vertices[u], vertices[v])
            entries[u][v] = val
            entries[v][u] = group.neg(val)
    return ArcMatrix(group, entries)


def _onto_defect(p: int, m: int, s: int, mats) -> str | None:
    """The per-v rank check of an alternating pencil: None if it is onto."""
    for v in itertools.product(range(p), repeat=m):
        if not any(v):
            continue
        stacked = [
            [sum(v[i] * mat[i][j] for i in range(m)) % p for j in range(m)]
            for mat in mats
        ]
        if gfp_rank(stacked, p) != s:
            return f"form pencil is not onto at v = {v}: rank < {s}"
    return None


def _fields(skew: SkewProduct) -> tuple[FiniteField, FiniteField]:
    return FiniteField(2, skew.t * skew.d), FiniteField(2, skew.t)


def _skew_mul(skew: SkewProduct, x: FFElement, y: FFElement) -> FFElement:
    els = list(x.field.elements())  # in index order
    acc = x.field.zero
    for a, xa in enumerate(x.coeffs):
        if not xa:
            continue
        row = skew.table[a]
        for b, yb in enumerate(y.coeffs):
            if yb:
                acc = acc + els[row[b]]
    return acc


def _loop_validate(skew: SkewProduct) -> None:
    K, F = _fields(skew)
    emb = embed_subfield(F, K)
    basis = [K.element(tuple(1 if i == a else 0 for i in range(K.t))) for a in range(K.t)]
    for s in F.elements():
        se = emb[s]
        for ea in basis:
            for eb in basis:
                prod = _skew_mul(skew, ea, eb)
                if (
                    _skew_mul(skew, se * ea, eb) != se * prod
                    or _skew_mul(skew, ea, se * eb) != se * prod
                ):
                    raise ValueError(
                        f"skew product is not F-homogeneous at s={s.coeffs}, "
                        f"basis pair ({ea.coeffs}, {eb.coeffs})"
                    )
    squares = {_skew_mul(skew, x, x).coeffs for x in K.elements()}
    if len(squares) != K.order:
        raise ValueError("x -> x*x is not a bijection")
    lines: dict[tuple, frozenset] = {}
    f_scalars = [emb[s] for s in F.elements()]
    for x in K.elements():
        lines[x.coeffs] = frozenset((se * x).coeffs for se in f_scalars)
    for x in K.elements():
        for y in K.elements():
            commutes = _skew_mul(skew, x, y) == _skew_mul(skew, y, x)
            dependent = y.coeffs in lines[x.coeffs] or x.coeffs in lines[y.coeffs]
            if commutes != dependent:
                raise ValueError(
                    f"commuting/F-dependence mismatch at ({x.coeffs}, {y.coeffs})"
                )


def _pairwise_dcff(skew: SkewProduct, latin: LatinSquare) -> ArcMatrix:
    t, d = skew.t, skew.d
    K, F = _fields(skew)
    emb = embed_subfield(F, K)
    f_els = list(F.elements())
    vertices = [(a, i) for a in K.elements() for i in range(len(f_els))]
    n = len(vertices)
    group = AbelianGroup((2,) * (t * d))
    square = {a.coeffs: _skew_mul(skew, a, a) for a in K.elements()}
    entries: list[list] = [[None] * n for _ in range(n)]
    for u in range(n):
        a, i = vertices[u]
        for v in range(u + 1, n):
            b, j = vertices[v]
            s_ij = emb[f_els[latin.table[i][j]]]
            val = (
                _skew_mul(skew, a, b)
                + _skew_mul(skew, b, a)
                + s_ij * (square[a.coeffs] + square[b.coeffs])
            )
            entries[u][v] = val.coeffs
            entries[v][u] = val.coeffs  # -x = x in characteristic 2
    return ArcMatrix(group, entries)


@pytest.mark.parametrize(
    "p, m, s",
    [(2, 2, 1), (3, 2, 1), (5, 2, 1), (2, 4, 1), (2, 6, 1), (7, 2, 1), (3, 4, 1), (2, 4, 2)],
    ids=["ts22", "ts32", "ts52", "ts24", "ts26", "ts72", "ts34", "pencil-s2"],
)
def test_thas_somma_matches_pairwise_loop(p, m, s):
    form = _pencil_s2() if s == 2 else standard_symplectic(p, m)
    assert thas_somma(p, m, s, form=form) == _pairwise_thas_somma(form)


@pytest.mark.parametrize("t, d", [(1, 1), (2, 1), (1, 3), (1, 5), (3, 1)])
def test_dcff_matches_pairwise_loop(t, d):
    skew, latin = default_skew(t, d), default_latin(t)
    assert dcff(t, d) == _pairwise_dcff(skew, latin)


def test_onto_check_matches_rank_loop():
    rng = random.Random(20261019)
    verdicts = set()
    for _ in range(300):
        p, m = rng.choice((2, 3)), rng.choice((2, 3, 4))
        s = rng.randint(1, min(m, 3))
        mats = []
        for _ in range(s):
            mat = [[0] * m for _ in range(m)]
            for i, j in itertools.combinations(range(m), 2):
                mat[i][j] = rng.randrange(p)
                mat[j][i] = -mat[i][j] % p
            mats.append(tuple(map(tuple, mat)))
        want = _onto_defect(p, m, s, mats)
        try:
            AlternatingForm(p, m, s, tuple(mats))
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == want, (p, m, s, mats)
        verdicts.add(want is None)
    assert verdicts == {True, False}


def _skew_tables():
    """default_skew(1, 3) with each of its basis products changed to every
    other value; default_skew(2, 1), and the same changes of it."""
    for good in (default_skew(1, 3), default_skew(2, 1)):
        yield good
        for a, b in itertools.product(range(len(good.table)), repeat=2):
            for e in range(2 ** len(good.table)):
                if e != good.table[a][b]:
                    table = [list(row) for row in good.table]
                    table[a][b] = e
                    yield SkewProduct(good.t, good.d, tuple(map(tuple, table)))


def test_skew_validate_matches_loops():
    verdicts = set()
    for skew in _skew_tables():
        try:
            _loop_validate(skew)
            want = None
        except ValueError as exc:
            want = str(exc)
        try:
            skew.validate()
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == want, skew.table
        verdicts.add(want.split(" at")[0] if want else "pass")
    assert verdicts == {
        "pass",
        "skew product is not F-homogeneous",
        "x -> x*x is not a bijection",
        "commuting/F-dependence mismatch",
    }


def test_field_arithmetic_is_not_in_drackn():
    # GF(2^k) is integer tables (drackn.gf); the polynomial arithmetic is
    # only the tests' oracle
    gone = ("FFElement", "FiniteField", "embed_subfield", "is_irreducible", "_pmul")
    for info in pkgutil.iter_modules(drackn.__path__):
        module = importlib.import_module(f"drackn.{info.name}")
        assert not [name for name in gone if hasattr(module, name)], info.name
    for path in Path(drackn.__file__).parent.glob("*.py"):
        text = path.read_text()
        assert not [name for name in gone if name in text], path.name


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
    assert _pairwise_gh_defect(h) is None
    arc, cert = gh_to_cover(h)
    assert (cert.params.n, cert.params.r, cert.params.c) == (4, 2, 2)
    assert cert.params.delta == -2

    flat = GHMatrix(G, [[(0,)] * 4 for _ in range(4)])
    assert _pairwise_gh_defect(flat) is not None  # identical rows: differences all hit 0

    odd = GHMatrix(G, [[(0,)] * 3 for _ in range(3)])
    assert _pairwise_gh_defect(odd) is not None  # order not a multiple of the group order

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
    assert _pairwise_gh_defect(h) is None
    assert h.entry(2, 2) == f.group.identity
    back, cert = gh_to_cover(h)
    assert back == f
    assert (cert.params.n, cert.params.r, cert.params.c) == (9, 3, 3)


@pytest.mark.parametrize(
    "make", [lambda: thas_somma(3, 2), lambda: thas_somma(5, 2), lambda: dcff(1, 3)],
    ids=["ts32", "ts52", "dcff13"],
)
def test_cover_to_gh_satisfies_hadamard_identity(make):
    # cover_to_gh does not re-check the identity; _pairwise_gh_defect is the oracle
    f = make()
    h = cover_to_gh(f)
    assert _pairwise_gh_defect(h) is None
    assert gh_to_cover(h)[0] == f


def test_cover_to_gh_needs_n_equal_rc():
    s = paley_conference(5)
    arc, cert = lines_to_cover(s, 2)
    assert cert.params.delta == 0
    with pytest.raises(UnsupportedError):
        cover_to_gh(arc)


# The per-pair loop of the row-pair identity, kept as the oracle of the
# count-table check in ``gh_to_cover``.
def _pairwise_gh_defect(h: GHMatrix) -> str | None:
    """None if h satisfies the generalized Hadamard row-pair identity, else
    a witness string."""
    n, group = h.n, h.group
    r = group.order
    if n % r:
        return f"order {n} is not a multiple of the group order {r}"
    lam = n // r
    idx = group.index_array(h.entries)
    sub = group.add_table()[:, group.neg_table()]  # sub[a, b] is a - b
    for u in range(n):
        for v in range(u + 1, n):
            counts = np.bincount(sub[idx[u], idx[v]], minlength=r)
            if (counts != lam).any():
                worst = int(np.argmax(abs(counts - lam)))
                return (
                    f"rows {u},{v}: difference {group.elements()[worst]} appears "
                    f"{counts[worst]} times, want {lam}"
                )
    return None


@lru_cache(maxsize=None)
def _self_adjoint_tables() -> tuple[GHMatrix, ...]:
    """Random self-adjoint tables with constant diagonal over Z/2, Z/3, Z/4,
    (Z/2)^2 and Z/5 of every order 2 to 3r + 1, multiples of r and not; then
    the Hadamard matrices of ts32, ts52, ts24, dcff11 and dcff13 with their
    ``_gh_variants``, and ``_row_switches`` of ts32's, ts52's, ts24's and
    dcff13's, which fail at later row pairs."""
    rng = np.random.default_rng(20261019)
    tables = []
    for orders in ((2,), (3,), (4,), (2, 2), (5,)):
        G = AbelianGroup(orders)
        neg = G.neg_table()
        involutions = np.flatnonzero(neg == np.arange(G.order))  # 2 g0 = 0
        for n in range(2, 3 * G.order + 2):
            for _ in range(4):
                index = rng.integers(0, G.order, (n, n))
                index = np.where(np.triu(np.ones((n, n), dtype=bool), 1), index, neg[index.T])
                np.fill_diagonal(index, rng.choice(involutions))
                tables.append(GHMatrix(G, index))
    for f in (thas_somma(3, 2), thas_somma(5, 2), thas_somma(2, 4), dcff(1, 1), dcff(1, 3)):
        h = cover_to_gh(f)
        tables += [h] + _gh_variants(h, rng)
    for f in (thas_somma(3, 2), thas_somma(5, 2), thas_somma(2, 4), dcff(1, 3)):
        tables += _row_switches(f, rng, 10)
    return tuple(tables)


def _row_switches(f: ArcMatrix, rng, count: int) -> list[GHMatrix]:
    """Switches a <-> b on 2 x 2 submatrices h(u, v) = h(u', w) = a,
    h(u, w) = h(u', v) = b off row 0 of a Hadamard matrix whose row 0 is the
    identity, with their adjoint entries.  Every row keeps its multiset of
    entries, so each pair with row 0 still passes: any failure is later."""
    h = cover_to_gh(normalize(f))
    neg = h.group.neg_table()
    out = []
    while len(out) < count:
        u, u2, v, w = rng.choice(np.arange(1, h.n), 4, replace=False)
        a, b = h.index[u, v], h.index[u, w]
        if a == b or h.index[u2, w] != a or h.index[u2, v] != b:
            continue
        index = np.array(h.index)
        for i, j, x in ((u, v, b), (u, w, a), (u2, v, a), (u2, w, b)):
            index[i, j], index[j, i] = x, neg[x]
        out.append(GHMatrix(h.group, index))
    return out


def _row_pairs_witness(h: GHMatrix) -> str | None:
    """The ``gh-row-pairs`` witness of ``gh_to_cover``, None if it passes."""
    try:
        gh_to_cover(h)
    except VerificationError as exc:
        assert exc.condition == "gh-row-pairs"
        return exc.witness
    except UnsupportedError:  # passes the identity, refused as a deck group
        assert h.group.prime_exponent is None
    return None


@pytest.mark.parametrize("rows", [1, 2, None], ids=["1", "ragged", "default"])
def test_gh_defect_matches_pairwise_loop(rows):
    # count blocks of one row; of two rows (ragged for odd n); the default size
    verdicts = set()
    for h in _self_adjoint_tables():
        want = _pairwise_gh_defect(h)
        for route, identity in SETTINGS:
            # a block of k rows holds k n n gather keys or k n r character counts
            width = h.n if route == "gather" else h.group.order
            with count_route(route, None if rows is None else rows * h.n * width, identity):
                assert _row_pairs_witness(h) == want, (route, identity, h.group, h.entries)
        if want is None:
            verdicts.add("pass")
        elif want.startswith("rows"):
            verdicts.add("row 0" if want.startswith("rows 0,") else "later rows")
    assert verdicts == {"pass", "row 0", "later rows"}


def _gh_variants(h: GHMatrix, rng) -> list[GHMatrix]:
    """Gauge switches with permutations, h'(u, v) = h(pu, pv) + g(u) - g(v),
    and one-pair changes of them that keep h self-adjoint."""
    G, n = h.group, h.n
    add, neg = G.add_table(), G.neg_table()
    out = []
    for _ in range(8):
        p, g = rng.permutation(n), rng.integers(0, G.order, n)
        index = add[add[h.index[np.ix_(p, p)], g[:, None]], neg[g]]
        out.append(GHMatrix(G, index))
        u, v = rng.choice(n, 2, replace=False)
        x = rng.integers(0, G.order)
        index[u, v], index[v, u] = x, neg[x]
        out.append(GHMatrix(G, index))
    return out


def test_gh_to_cover_certificate_matches_drackn_verify():
    """gh_to_cover certifies from the row-pair identity alone; drackn_verify
    on the rebuilt cover stays the oracle."""
    rng = np.random.default_rng(7)
    accepted = 0
    for f in (thas_somma(3, 2), thas_somma(5, 2), thas_somma(2, 4), dcff(1, 1), dcff(1, 3)):
        for h in _gh_variants(cover_to_gh(f), rng):
            try:
                arc, cert = gh_to_cover(h)
            except VerificationError as exc:
                assert exc.condition == "gh-row-pairs"
                continue
            assert cert == drackn_verify(arc)
            accepted += 1
    assert accepted >= 40


def test_gh_to_cover_refuses_the_deck_groups_drackn_verify_refuses(monkeypatch):
    # no order-4 table over Z/4 satisfies the row-pair identity, so skip it
    monkeypatch.setattr(constructions, "_row_pair_defect", lambda group, f: None)
    Z4 = AbelianGroup((4,))
    zeros = np.zeros((4, 4), dtype=np.int64)
    with pytest.raises(UnsupportedError) as exc:
        gh_to_cover(GHMatrix(Z4, zeros))
    assert str(exc.value) == "deck group with orders (4,) does not have prime exponent"
    np.fill_diagonal(zeros, -1)
    with pytest.raises(UnsupportedError) as exc_verify:
        drackn_verify(ArcMatrix(Z4, zeros))
    assert str(exc_verify.value) == str(exc.value)
